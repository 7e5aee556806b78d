"""Core domain types and bookkeeping for the assembly-plant control problem.

A plant keeps M raw-material buffers and sells K product types in discrete
time slots.  Every slot it purchases materials at exogenous unit costs,
decides which products to offer and at what price from a finite menu, and
assembles sold units out of the material buffers.  This module holds the
static configuration, the exogenous state types, and the pure arithmetic
shared by the controller, the optimality oracles and the simulator:
purchase cost, material usage and demand fulfillment under limited
inventory.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
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

    def max_price(self, k: int) -> float:
        return self.price_set[k][-1]


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


def _check_int_vector(name: str, vec, length: int, minimum: int = 0) -> None:
    if len(vec) != length:
        raise ConfigError(f"{name} must have length {length}, got {len(vec)}")
    for v in vec:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ConfigError(f"{name} entries must be integers, got {v!r}")
        if v < minimum:
            if v < 0:
                raise NegativeEntry(f"{name} entry {v} is negative")
            raise ConfigError(f"{name} entry {v} is below the minimum {minimum}")


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
    M, K = cfg.M, cfg.K
    if M == 0 or K == 0:
        raise ConfigError("need at least one material and one product")
    if len(cfg.alpha) != K or len(cfg.price_set) != K or len(cfg.D_max) != K:
        raise ConfigError("alpha, price_set and D_max must all have length K")
    for m, row in enumerate(cfg.beta):
        _check_int_vector(f"beta[{m}]", row, K)
    _check_int_vector("D_max", cfg.D_max, K, minimum=1)
    _check_int_vector("A_max", cfg.A_max, M, minimum=1)
    if not isinstance(cfg.c_max, int) or isinstance(cfg.c_max, bool):
        raise ConfigError("c_max must be an integer")
    if cfg.c_max < 0:
        raise NegativeEntry(f"c_max {cfg.c_max} is negative")
    for k in range(K):
        if cfg.alpha[k] < 0:
            raise NegativeEntry(f"alpha[{k}] is negative")
        prices = cfg.price_set[k]
        if len(prices) == 0:
            raise EmptyPriceSet(f"product {k} has an empty price set")
        for p in prices:
            if p < 0:
                raise NegativeEntry(f"price {p} of product {k} is negative")
        if any(b >= a for a, b in zip(prices[1:], prices)):
            raise ConfigError(f"price_set[{k}] must be strictly ascending")
        if not any(cfg.beta[m][k] > 0 for m in range(M)):
            raise OrphanProduct(f"product {k} consumes no material")

    mu_max = cfg.mu_max()
    warnings = [
        f"material {m} is used by no product; it will never be purchased"
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
        _check_int_vector(f"supply state {x.id!r} unit_cost", x.unit_cost, M)
        _check_int_vector(f"supply state {x.id!r} available", x.available, M)

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


def _validate_demand_tables(cfg: PlantConfig, y: DemandState) -> None:
    if len(y.F) != cfg.K:
        raise ConfigError(f"demand state {y.id!r}: F must have one row per product")
    for k in range(cfg.K):
        if len(y.F[k]) != len(cfg.price_set[k]):
            raise ConfigError(
                f"demand state {y.id!r}: F[{k}] must align with price_set[{k}]"
            )
        for j, f in enumerate(y.F[k]):
            if f < 0:
                raise NegativeEntry(f"demand state {y.id!r}: F[{k}][{j}] is negative")
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
        if y.h <= 0:
            raise ConfigError(f"demand state {y.id!r}: scale h must be positive")
        if len(y.F_hat) != cfg.K:
            raise ConfigError(f"demand state {y.id!r}: F_hat shape mismatch")
        for k in range(cfg.K):
            if len(y.F_hat[k]) != len(cfg.price_set[k]):
                raise ConfigError(f"demand state {y.id!r}: F_hat shape mismatch")
            for j, fh in enumerate(y.F_hat[k]):
                if fh < 0:
                    raise NegativeEntry(
                        f"demand state {y.id!r}: F_hat[{k}][{j}] is negative"
                    )
                if abs(y.h * fh - y.F[k][j]) > 1e-9:
                    raise ConfigError(
                        f"demand state {y.id!r}: F[{k}][{j}] does not equal "
                        f"h * F_hat[{k}][{j}]"
                    )


def purchase_cost(A: list[int], x: SupplyState) -> int:
    """Total spend of purchase vector A at the unit costs of supply state x."""
    return sum(c * a for c, a in zip(x.unit_cost, A))


def material_usage(D_tilde: list[int], cfg: PlantConfig) -> list[int]:
    """Material consumed when D_tilde[k] units of each product are assembled."""
    return [
        sum(cfg.beta[m][k] * D_tilde[k] for k in range(cfg.K))
        for m in range(cfg.M)
    ]


def schedule_fulfillment(
    Q: list[int],
    Z: list[int],
    P: list[float],
    D: list[int],
    cfg: PlantConfig,
) -> list[int]:
    """Decide how much of the realized demand to actually serve.

    Offered products are served greedily in descending margin P[k] - alpha[k]
    (ties broken by ascending product index), each taking the largest integer
    quantity the residual material inventory allows, never more than its
    demand.  When inventory covers everything the result is exactly Z * D.
    """
    order = sorted(
        (k for k in range(cfg.K) if Z[k] == 1 and D[k] > 0),
        key=lambda k: (-(P[k] - cfg.alpha[k]), k),
    )
    residual = list(Q)
    out = [0] * cfg.K
    for k in order:
        n = D[k]
        for m in range(cfg.M):
            b = cfg.beta[m][k]
            if b > 0:
                n = min(n, residual[m] // b)
        if n > 0:
            out[k] = n
            for m in range(cfg.M):
                residual[m] -= cfg.beta[m][k] * n
    return out
