"""Core domain types and bookkeeping for the assembly-plant control problem.

A plant keeps M raw-material buffers and sells K product types in discrete
time slots.  Every slot it purchases materials at exogenous unit costs,
decides which products to offer and at what price from a finite menu, and
assembles sold units out of the material buffers.  This module holds the
static configuration, the exogenous state types, and the pure arithmetic
shared by the controller, the optimality oracles and the simulator:
purchase cost, and demand fulfillment under limited inventory by one
greedy rule in two halves, fulfillment_order and serve_in_order.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


class InputError(ValueError):
    """Bad input: every rejected argument, setting or scenario derives from this."""


class ConfigError(InputError):
    """A plant configuration or exogenous state table was rejected."""


class EmptyPriceSet(ConfigError):
    """A product has no admissible price."""


class NegativeEntry(ConfigError):
    """A quantity that must be non-negative is negative."""


class OrphanProduct(ConfigError):
    """A product consumes no material at all."""


class DemandExceedsCap(ConfigError):
    """A mean-demand table entry exceeds the per-slot demand cap."""


@dataclass
class PlantConfig:
    """Static plant data.

    beta[m][k] is the integer amount of material m needed per unit of
    product k.  alpha[k] is the per-unit assembly cost.  price_set[k] is the
    finite, strictly ascending menu of prices product k may be offered at.
    D_max[k] caps the demand one slot can bring for product k, A_max[m] caps
    per-slot purchases of material m, and c_max caps the total purchase
    spend of one slot in integer cost units.
    """

    beta: list[list[int]]
    alpha: list[float]
    price_set: list[list[float]]
    D_max: list[int]
    A_max: list[int]
    c_max: int

    @property
    def M(self) -> int:
        return len(self.beta)

    @property
    def K(self) -> int:
        return len(self.alpha)

    def mu_max(self) -> list[int]:
        """Worst-case per-slot consumption of each material (all demand caps bind)."""
        return [
            sum(self.beta[m][k] * self.D_max[k] for k in range(self.K))
            for m in range(self.M)
        ]


@dataclass
class SupplyState:
    """One exogenous supply condition: unit costs and availability per material."""

    id: str
    unit_cost: list[int]
    available: list[int]


@dataclass
class DemandState:
    """One exogenous demand condition.

    F[k][j] is the mean demand for product k when offered at price
    price_set[k][j].  A state may carry a factorized form
    F[k][j] == h * F_hat[k][j] with a state-dependent scale h > 0 and a
    state-independent base table F_hat; controllers that must not observe
    the demand state work off F_hat alone.
    """

    id: str
    F: list[list[float]]
    h: float | None = None
    F_hat: list[list[float]] | None = None


@dataclass
class Model:
    """A validated configuration bundle with derived quantities attached."""

    cfg: PlantConfig
    supply_states: list[SupplyState]
    demand_states: list[DemandState]
    mu_max: list[int]
    warnings: list[str] = field(default_factory=list)


def check_int(
    name, value, lo=0, hi=math.inf, *, error=InputError, message=None, negative=None
) -> int:
    """value as an int if it is a Python or numpy integer in [lo, hi], else raise error.

    The package's one integer rule; it refuses bools, floats and NaN.  The
    message names name and the fault unless message replaces it; negative,
    if given, is the type raised for a negative integer.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        fault = f"must be an integer, got {value!r}"
    elif lo <= value <= hi:
        return int(value)
    elif negative is not None and value < 0:
        raise negative(message or f"{name} {value} is negative")
    elif value < lo:
        fault = f"{value} is below the minimum {lo}"
    else:
        fault = f"{value} is above the maximum {hi}"
    raise error(message or f"{name} {fault}")


REAL_TYPES = (float, int, np.floating, np.integer)
_FLOAT_MAX = sys.float_info.max


def check_real(name, value, lo=0.0, *, error=InputError, message=None, negative=None):
    """value, unchanged, if it is a finite number of at least lo, else raise error.

    The package's one real-number rule, check_int's twin: a number is a
    Python or numpy int or float (REAL_TYPES), never a bool, and an int
    beyond the float range counts as not finite.  The message names name
    and the fault unless message replaces it; negative, if given, is the
    type raised for a negative number.
    """
    if isinstance(value, bool) or not isinstance(value, REAL_TYPES):
        fault = f"must be a number, got {value!r}"
    elif isinstance(value, int) and abs(value) > _FLOAT_MAX or not math.isfinite(value):
        fault = "is not finite"
    elif value >= lo:
        return value
    elif negative is not None and value < 0:
        raise negative(message or f"{name} is negative")
    else:
        fault = f"{value} is below the minimum {lo}"
    raise error(message or f"{name} {fault}")


def check_seq(name, value, length=None, *, error=InputError, message=None):
    """value if it is a sequence, of the given length if one is given, else raise error.

    The package's one sequence rule: a list, a tuple, a range or a numpy
    array of at least one dimension; a number, a string, a mapping or None
    is refused.  The message names name and the fault unless message
    replaces it.
    """
    if isinstance(value, (list, tuple)):  # the common case, without the ABC check
        seq = True
    elif isinstance(value, np.ndarray):
        seq = value.ndim > 0
    else:
        seq = isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    if not seq:
        fault = f"must be a sequence, got {value!r}"
    elif length is None or len(value) == length:
        return value
    else:
        fault = f"must have {length} entries, got {len(value)}"
    raise error(message or f"{name} {fault}")


def check_class(name, cls: type, *values) -> None:
    """Raise InputError unless each of values is an instance of cls.

    An entry point checks its dataclass arguments by it once, where its
    work starts, so an argument of the wrong class is bad input rather than
    an AttributeError somewhere inside.
    """
    for value in values:
        if not isinstance(value, cls):
            raise InputError(
                f"{name} must be of class {cls.__name__}, got {type(value).__name__}"
            )


def check_path(name, path, *, error=InputError) -> None:
    """Raise error unless path is a file path: a str or an os.PathLike.

    The path arguments' class check, which check_class cannot name: None
    or a number would otherwise escape open as a TypeError, or an int be
    read as a file descriptor.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise error(f"{name} must be a str or os.PathLike, got {type(path).__name__}")


# validate_config checks every entry of a plant, so it names an entry only
# when the entry is refused: it calls a check_* rule with the name "", and
# since every message of those rules starts with the name, _named puts the
# entry's name, name.format(*parts), in front of the message.


def _named(err: InputError, name: str, parts) -> InputError:
    """err, raised by a check_* rule under the name "", under name.format(*parts)."""
    return type(err)(name.format(*parts) + str(err))


def _check_amount(v, name: str, *parts) -> None:
    """Check a price, an assembly cost or a mean demand: finite and non-negative."""
    try:
        check_real("", v, error=ConfigError, negative=NegativeEntry)
    except ConfigError as err:
        raise _named(err, name, parts) from None


def _check_seq(vec, name: str, *parts):
    """vec if it is a sequence (check_seq), else raise ConfigError."""
    try:
        return check_seq("", vec, error=ConfigError)
    except ConfigError as err:
        raise _named(err, name, parts) from None


def _check_int_vector(vec, length: int, name: str, *parts, minimum=0, maximum=2**53):
    # The default maximum keeps each entry exact as a float (the LP computes in floats).
    if len(_check_seq(vec, name, *parts)) != length:
        name = name.format(*parts)
        raise ConfigError(f"{name} must have length {length}, got {len(vec)}")
    try:
        for v in vec:
            check_int(
                " entry", v, minimum, maximum, error=ConfigError, negative=NegativeEntry
            )
    except ConfigError as err:
        raise _named(err, name, parts) from None


def validate_config(
    cfg: PlantConfig,
    supply_states: list[SupplyState],
    demand_states: list[DemandState],
) -> Model:
    """Check a configuration and its state tables, returning a Model bundle.

    Raises a ConfigError subclass on the first problem found: EmptyPriceSet,
    NegativeEntry, OrphanProduct or DemandExceedsCap for the specific
    conditions, plain ConfigError otherwise.  Materials that no product
    consumes are legal but reported in Model.warnings, since the controller
    will never purchase them.
    """
    check_class("cfg", PlantConfig, cfg)
    for name in ("beta", "alpha", "price_set", "D_max", "A_max"):
        check_seq(name, getattr(cfg, name), error=ConfigError)
    check_seq("supply_states", supply_states, error=ConfigError)
    check_seq("demand_states", demand_states, error=ConfigError)
    check_class("supply state", SupplyState, *supply_states)
    check_class("demand state", DemandState, *demand_states)
    check_class("state id", str, *[s.id for s in (*supply_states, *demand_states)])
    M, K = cfg.M, cfg.K
    if M == 0 or K == 0:
        raise ConfigError("need at least one material and one product")
    if len(cfg.alpha) != K or len(cfg.price_set) != K or len(cfg.D_max) != K:
        raise ConfigError("alpha, price_set and D_max must all have length K")
    for m, row in enumerate(cfg.beta):
        _check_int_vector(row, K, "beta[{}]", m)
    # A slot draws D_max[k] uniforms per offered product; bound that cost.
    _check_int_vector(cfg.D_max, K, "D_max", minimum=1, maximum=10**6)
    _check_int_vector(cfg.A_max, M, "A_max", minimum=1)
    check_int("c_max", cfg.c_max, error=ConfigError, negative=NegativeEntry)
    for k in range(K):
        _check_amount(cfg.alpha[k], "alpha[{}]", k)
        prices = _check_seq(cfg.price_set[k], "price_set[{}]", k)
        if len(prices) == 0:
            raise EmptyPriceSet(f"product {k} has an empty price set")
        for p in prices:
            _check_amount(p, "price {} of product {}", p, k)
        if any(b >= a for a, b in zip(prices[1:], prices)):
            raise ConfigError(f"price_set[{k}] must be strictly ascending")
        if not any(cfg.beta[m][k] > 0 for m in range(M)):
            raise OrphanProduct(f"product {k} consumes no material")

    mu_max = cfg.mu_max()
    warnings = [
        f"material {m + 1} is used by no product; it will never be purchased"
        for m in range(M)
        if mu_max[m] == 0
    ]

    if not supply_states:
        raise ConfigError("need at least one supply state")
    seen: set[str] = set()
    for x in supply_states:
        if x.id in seen:
            raise ConfigError(f"duplicate supply state id {x.id!r}")
        seen.add(x.id)
        _check_int_vector(x.unit_cost, M, "supply state {!r} unit_cost", x.id)
        _check_int_vector(x.available, M, "supply state {!r} available", x.id)

    if not demand_states:
        raise ConfigError("need at least one demand state")
    seen = set()
    for y in demand_states:
        if y.id in seen:
            raise ConfigError(f"duplicate demand state id {y.id!r}")
        seen.add(y.id)
        _validate_demand_tables(cfg, y)

    return Model(
        cfg=cfg,
        supply_states=supply_states,
        demand_states=demand_states,
        mu_max=mu_max,
        warnings=warnings,
    )


def _table_entries(cfg: PlantConfig, y: DemandState, name: str, table):
    """Yield (k, j, entry) of a demand table, each checked once reached.

    The table needs one row per product, aligned with its price set, and
    finite, non-negative entries.
    """
    where = f"demand state {y.id!r}: {name}"
    if len(check_seq(where, table, error=ConfigError)) != cfg.K:
        raise ConfigError(f"{where} must have one row per product")
    for k, (row, prices) in enumerate(zip(table, cfg.price_set)):
        if len(_check_seq(row, "{}[{}]", where, k)) != len(prices):
            raise ConfigError(f"{where}[{k}] must align with price_set[{k}]")
        for j, f in enumerate(row):
            _check_amount(f, "{}[{}][{}]", where, k, j)
            yield k, j, f


def _validate_demand_tables(cfg: PlantConfig, y: DemandState) -> None:
    for k, j, f in _table_entries(cfg, y, "F", y.F):
        if f > cfg.D_max[k]:
            raise DemandExceedsCap(
                f"demand state {y.id!r}: F[{k}][{j}] = {f} exceeds "
                f"D_max[{k}] = {cfg.D_max[k]}"
            )
    if (y.h is None) != (y.F_hat is None):
        raise ConfigError(
            f"demand state {y.id!r}: factorization needs both h and F_hat"
        )
    if y.h is not None:
        h = f"demand state {y.id!r}: scale h"
        if check_real(h, y.h, -math.inf, error=ConfigError) <= 0:
            raise ConfigError(f"{h} must be positive")
        for k, j, fh in _table_entries(cfg, y, "F_hat", y.F_hat):
            if abs(y.h * fh - y.F[k][j]) > 1e-9:
                raise ConfigError(
                    f"demand state {y.id!r}: F[{k}][{j}] does not equal "
                    f"h * F_hat[{k}][{j}]"
                )


def purchase_cost(A: list[int], x: SupplyState) -> int:
    """Total spend of purchase vector A at the unit costs of supply state x."""
    return sum(c * a for c, a in zip(x.unit_cost, A))


def fulfillment_order(Z: list[int], P: list[float], cfg: PlantConfig) -> list[tuple]:
    """The order the fulfillment rule serves a decision's offered products in.

    The rule's first half, which depends only on the decision: the products
    with Z[k] == 1, in descending margin P[k] - alpha[k], ties broken by
    ascending k, each as (k, feeders): feeders lists the (m, beta[m][k]) of
    the materials k consumes.  serve_in_order, its second half, serves a
    demand in this order, each product taking the largest integer quantity
    the residual material allows, so that when inventory covers everything
    the result is exactly Z * D.  A caller that serves one decision many
    times may keep its order.
    """
    alpha, beta = cfg.alpha, cfg.beta
    offered = sorted(
        (k for k in range(cfg.K) if Z[k] == 1), key=lambda k: (-(P[k] - alpha[k]), k)
    )
    return [(k, [(m, row[k]) for m, row in enumerate(beta) if row[k]]) for k in offered]


def serve_in_order(Q: list[int], order: list[tuple], D: list[int], K: int) -> tuple:
    """(served, residual): demand D served from queues Q in a fulfillment_order.

    Each product of order in turn takes the largest integer quantity the
    residual material allows, never more than D[k]; served lists the K
    quantities, and residual is Q less the material they use.
    """
    residual = list(Q)
    served = [0] * K
    for k, feeders in order:
        n = D[k]
        for m, b in feeders:
            r = residual[m] // b
            if r < n:
                n = r
        if n > 0:
            served[k] = n
            for m, b in feeders:
                residual[m] -= b * n
    return served, residual
