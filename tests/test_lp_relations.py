"""Metamorphic relations of the stationary-profit LP.

Each test changes a plant in a way whose effect on optimal_profit is known
in advance, and checks the value against the unchanged plant's: no
reference implementation is needed.  The plants are 300 random tiny ones
(seed 7) and 20 seeded M=3, K=4 ones, each with its own state
distributions.
"""

import dataclasses

import numpy as np
import pytest

from plantsim.model import validate_config
from plantsim.oracles import optimal_profit

from conftest import random_tiny_instance
from test_oracles import _m3_k4_plant


def _close(got, want):
    return abs(got - want) <= 1e-12 * (1.0 + abs(want))


@pytest.fixture(scope="module")
def plants():
    """(model, pi_x, pi_y, optimal value) of every plant."""
    rng = np.random.default_rng(7)
    cases = [random_tiny_instance(rng) for _ in range(300)]
    cases += [_m3_k4_plant(rng) for _ in range(20)]
    return [(*case, optimal_profit(*case)[0]) for case in cases]


def _rebuilt(model, cfg=None, supply=None, demand=None):
    return validate_config(
        cfg or model.cfg, supply or model.supply_states, demand or model.demand_states
    )


def _reverse_materials(model):
    cfg = dataclasses.replace(
        model.cfg, beta=model.cfg.beta[::-1], A_max=model.cfg.A_max[::-1]
    )
    supply = [
        dataclasses.replace(x, unit_cost=x.unit_cost[::-1], available=x.available[::-1])
        for x in model.supply_states
    ]
    return _rebuilt(model, cfg, supply)


def _reverse_products(model):
    cfg = model.cfg
    cfg = dataclasses.replace(
        cfg,
        beta=[row[::-1] for row in cfg.beta],
        alpha=cfg.alpha[::-1],
        price_set=cfg.price_set[::-1],
        D_max=cfg.D_max[::-1],
    )
    demand = [dataclasses.replace(y, F=y.F[::-1]) for y in model.demand_states]
    return _rebuilt(model, cfg, demand=demand)


def _scale_money(model, s):
    """Prices, assembly costs, unit costs and the budget, all times s."""
    cfg = model.cfg
    cfg = dataclasses.replace(
        cfg,
        alpha=[s * a for a in cfg.alpha],
        price_set=[[s * p for p in prices] for prices in cfg.price_set],
        c_max=s * cfg.c_max,
    )
    supply = [
        dataclasses.replace(x, unit_cost=[s * c for c in x.unit_cost])
        for x in model.supply_states
    ]
    return _rebuilt(model, cfg, supply)


def _with_dominated_price(model):
    """Product 0 gains a price between its first two, at the higher one's
    demand: offering at the higher price instead sells as much for more."""
    cfg = model.cfg
    p0, p1 = cfg.price_set[0][:2]
    price_set = [[p0, (p0 + p1) / 2, *cfg.price_set[0][1:]], *cfg.price_set[1:]]
    demand = [
        dataclasses.replace(y, F=[[*y.F[0][:2], *y.F[0][1:]], *y.F[1:]])
        for y in model.demand_states
    ]
    return _rebuilt(model, dataclasses.replace(cfg, price_set=price_set), demand=demand)


def test_reversing_materials_keeps_the_value(plants):
    for model, pi_x, pi_y, value in plants:
        assert _close(optimal_profit(_reverse_materials(model), pi_x, pi_y)[0], value)


def test_reversing_products_keeps_the_value(plants):
    for model, pi_x, pi_y, value in plants:
        assert _close(optimal_profit(_reverse_products(model), pi_x, pi_y)[0], value)


def test_doubling_money_doubles_the_value(plants):
    # Doubling is exact in binary, so the program's every entry doubles
    # exactly and the pivot path stays the same.
    for model, pi_x, pi_y, value in plants:
        assert optimal_profit(_scale_money(model, 2), pi_x, pi_y)[0] == 2.0 * value


def test_tripling_money_triples_the_value(plants):
    for model, pi_x, pi_y, value in plants:
        assert _close(optimal_profit(_scale_money(model, 3), pi_x, pi_y)[0], 3.0 * value)


def test_dominated_price_keeps_the_value(plants):
    menus = [p for p in plants if len(p[0].cfg.price_set[0]) >= 2]
    assert len(menus) >= 100
    for model, pi_x, pi_y, value in menus:
        got = optimal_profit(_with_dominated_price(model), pi_x, pi_y)[0]
        assert _close(got, value)
