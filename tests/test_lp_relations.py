"""Metamorphic relations of the stationary-profit LP.

Each test changes a plant in a way whose effect on optimal_profit is known
in advance, and checks the value against the unchanged plant's: no
reference implementation is needed.  The plants are 300 random tiny ones
(seed 7) and 20 seeded M=3, K=4 ones, each with its own state
distributions.
"""

import numpy as np
import pytest

from plantsim.oracles import optimal_profit

from plants import (
    _m3_k4_plant,
    _reverse_materials,
    _reverse_products,
    _scale_money,
    _with_dominated_price,
    random_tiny_instance,
)


def _close(got, want):
    return abs(got - want) <= 1e-12 * (1.0 + abs(want))


@pytest.fixture(scope="module")
def plants():
    """(model, pi_x, pi_y, optimal value) of every plant."""
    rng = np.random.default_rng(7)
    cases = [random_tiny_instance(rng) for _ in range(300)]
    cases += [_m3_k4_plant(rng) for _ in range(20)]
    return [(*case, optimal_profit(*case)[0]) for case in cases]


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
