import pytest

from plantsim.model import (
    ConfigError,
    DemandExceedsCap,
    DemandState,
    EmptyPriceSet,
    NegativeEntry,
    OrphanProduct,
    PlantConfig,
    SupplyState,
    material_usage,
    purchase_cost,
    schedule_fulfillment,
    validate_config,
)

from plants import make_i1, make_i1_cfg


def test_i1_accepted_with_mu_max():
    model = make_i1()
    assert model.mu_max == [2]
    assert model.cfg.M == 1 and model.cfg.K == 1
    assert model.warnings == []


def test_demand_above_cap_rejected():
    cfg = make_i1_cfg()
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[3.0, 1.0]])]
    with pytest.raises(DemandExceedsCap):
        validate_config(cfg, supply, demand)


@pytest.mark.parametrize(
    "field, value, ok",
    [
        ("D_max", [10**6], True),
        ("D_max", [10**6 + 1], False),
        ("beta", [[2**53]], True),
        ("beta", [[2**53 + 1]], False),
        ("A_max", [10**400], False),
    ],
)
def test_integer_entries_have_a_maximum(field, value, ok):
    # D_max costs one uniform per unit and slot; other integers must be exact
    # as floats
    cfg = make_i1_cfg()
    setattr(cfg, field, value)
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[1.0, 1.0]])]
    if ok:
        validate_config(cfg, supply, demand)
    else:
        with pytest.raises(ConfigError, match="above the maximum"):
            validate_config(cfg, supply, demand)


def test_empty_price_set_rejected():
    cfg = make_i1_cfg()
    cfg = PlantConfig(
        beta=cfg.beta,
        alpha=cfg.alpha,
        price_set=[[]],
        D_max=cfg.D_max,
        A_max=cfg.A_max,
        c_max=cfg.c_max,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[]])]
    with pytest.raises(EmptyPriceSet):
        validate_config(cfg, supply, demand)


def test_non_ascending_prices_rejected():
    cfg = make_i1_cfg()
    cfg = PlantConfig(
        beta=cfg.beta,
        alpha=cfg.alpha,
        price_set=[[2.0, 1.0]],
        D_max=cfg.D_max,
        A_max=cfg.A_max,
        c_max=cfg.c_max,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[1.0, 1.0]])]
    with pytest.raises(ValueError):
        validate_config(cfg, supply, demand)


def test_orphan_product_rejected():
    cfg = PlantConfig(
        beta=[[0]],
        alpha=[0.0],
        price_set=[[1.0]],
        D_max=[1],
        A_max=[1],
        c_max=1,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[1])]
    demand = [DemandState(id="d0", F=[[1.0]])]
    with pytest.raises(OrphanProduct):
        validate_config(cfg, supply, demand)


def test_negative_entry_rejected():
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[-0.5],
        price_set=[[1.0]],
        D_max=[1],
        A_max=[1],
        c_max=1,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[1])]
    demand = [DemandState(id="d0", F=[[1.0]])]
    with pytest.raises(NegativeEntry):
        validate_config(cfg, supply, demand)


def test_unused_material_warns_but_passes():
    cfg = PlantConfig(
        beta=[[1], [0]],
        alpha=[0.0],
        price_set=[[1.0]],
        D_max=[1],
        A_max=[1, 1],
        c_max=2,
    )
    supply = [SupplyState(id="s0", unit_cost=[1, 1], available=[1, 1])]
    demand = [DemandState(id="d0", F=[[1.0]])]
    model = validate_config(cfg, supply, demand)
    assert model.mu_max == [1, 0]
    assert len(model.warnings) == 1


def test_factorization_mismatch_rejected():
    cfg = make_i1_cfg()
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [
        DemandState(id="d0", F=[[2.0, 1.0]], h=0.5, F_hat=[[2.0, 1.0]])
    ]
    with pytest.raises(ValueError):
        validate_config(cfg, supply, demand)


def test_duplicate_state_ids_rejected():
    cfg = make_i1_cfg()
    supply = [
        SupplyState(id="s0", unit_cost=[1], available=[2]),
        SupplyState(id="s0", unit_cost=[0], available=[2]),
    ]
    demand = [DemandState(id="d0", F=[[2.0, 1.0]])]
    with pytest.raises(ValueError):
        validate_config(cfg, supply, demand)


# --- accounting -----------------------------------------------------------


def test_purchase_cost_cases():
    x1 = SupplyState(id="a", unit_cost=[1], available=[2])
    assert purchase_cost([0], x1) == 0
    assert purchase_cost([2], x1) == 2
    x2 = SupplyState(id="b", unit_cost=[2, 3], available=[2, 2])
    assert purchase_cost([1, 1], x2) == 5


def test_purchase_cost_linear(rng):
    x = SupplyState(id="a", unit_cost=[2, 3], available=[9, 9])
    for _ in range(50):
        a = [int(rng.integers(0, 4)) for _ in range(2)]
        b = [int(rng.integers(0, 4)) for _ in range(2)]
        ab = [a[i] + b[i] for i in range(2)]
        assert purchase_cost(ab, x) == purchase_cost(a, x) + purchase_cost(b, x)


# --- fulfillment and queues ----------------------------------------------


def test_fulfillment_full_when_stocked():
    cfg = make_i1_cfg()
    assert schedule_fulfillment([5], [1], [2.0], [2], cfg) == [2]
    assert schedule_fulfillment([5], [0], [2.0], [2], cfg) == [0]


def test_fulfillment_partial_and_empty():
    cfg = make_i1_cfg()
    assert schedule_fulfillment([1], [1], [2.0], [2], cfg) == [1]
    assert schedule_fulfillment([0], [1], [2.0], [2], cfg) == [0]


def test_fulfillment_greedy_margin_order():
    cfg = PlantConfig(
        beta=[[1, 1], [0, 2]],
        alpha=[0.0, 0.0],
        price_set=[[3.0], [5.0]],
        D_max=[2, 2],
        A_max=[2, 2],
        c_max=10,
    )
    # product 2 has the higher margin, so it is served first and its
    # two-unit material-2 requirement caps it at one unit
    out = schedule_fulfillment([3, 2], [1, 1], [3.0, 5.0], [2, 2], cfg)
    assert out == [2, 1]


def test_fulfillment_margin_tie_prefers_low_index():
    cfg = PlantConfig(
        beta=[[1, 1]],
        alpha=[0.0, 0.0],
        price_set=[[2.0], [2.0]],
        D_max=[2, 2],
        A_max=[2],
        c_max=10,
    )
    out = schedule_fulfillment([2], [1, 1], [2.0, 2.0], [2, 2], cfg)
    assert out == [2, 0]


def test_fulfillment_respects_constraints_random(rng):
    for _ in range(200):
        M = int(rng.integers(1, 4))
        K = int(rng.integers(1, 4))
        beta = [[int(rng.integers(0, 3)) for _ in range(K)] for _ in range(M)]
        for k in range(K):
            if all(beta[m][k] == 0 for m in range(M)):
                beta[int(rng.integers(0, M))][k] = 1
        cfg = PlantConfig(
            beta=beta,
            alpha=[0.0] * K,
            price_set=[[1.0 + k] for k in range(K)],
            D_max=[3] * K,
            A_max=[3] * M,
            c_max=9,
        )
        Q = [int(rng.integers(0, 7)) for _ in range(M)]
        Z = [int(rng.integers(0, 2)) for _ in range(K)]
        P = [cfg.price_set[k][0] for k in range(K)]
        D = [int(rng.integers(0, 4)) for _ in range(K)]
        out = schedule_fulfillment(Q, Z, P, D, cfg)
        for k in range(K):
            assert 0 <= out[k] <= Z[k] * D[k]
        used = material_usage(out, cfg)
        for m in range(M):
            assert used[m] <= Q[m]
