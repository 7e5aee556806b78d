import math

import numpy as np
import pytest

from plantsim import simulator
from plantsim.model import InputError
from plantsim.processes import (
    IID,
    MARKOV,
    TRACE,
    NotErgodic,
    RngStream,
    StateProcessSpec,
    TraceExhausted,
    empirical_distribution,
    generate_states,
    realize_demand,
    stationary_distribution,
)

from plants import constant_process, make_i1
from reference import StateProcess


def test_rng_stream_reproducible():
    a = RngStream(123, 0).generator(0).random(16)
    b = RngStream(123, 0).generator(0).random(16)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -2)])
def test_rng_stream_rejects_negative_seed_or_stream(seed, stream):
    with pytest.raises(InputError, match=f"{seed}, {stream}"):
        RngStream(seed, stream)


def test_rng_stream_channels_independent():
    a = RngStream(123, 0).generator(0).random(16)
    b = RngStream(123, 0).generator(1).random(16)
    c = RngStream(123, 1).generator(0).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batched_uniforms_match_scalar_calls():
    # the simulator pre-generates uniforms in chunks; that is only sound if
    # batched requests consume the generator exactly like scalar calls
    whole = RngStream(7, 0).generator(2).random(64)
    g = RngStream(7, 0).generator(2)
    parts = np.concatenate([g.random(13), g.random(1), g.random(37), g.random(13)])
    assert np.array_equal(whole, parts)
    g = RngStream(7, 0).generator(2)
    scalars = np.array([g.random() for _ in range(64)])
    assert np.array_equal(whole, scalars)


def test_iid_single_state_degenerate():
    spec = constant_process("only")
    rng = RngStream(1, 0).generator(0)
    assert generate_states(spec, 5, rng).tolist() == [0] * 5


def test_iid_frequencies_match_probs():
    spec = StateProcessSpec(mode=IID, state_ids=["a", "b", "c"], probs=[0.5, 0.3, 0.2])
    rng = RngStream(11, 0).generator(0)
    xs = generate_states(spec, 100_000, rng)
    freq = empirical_distribution(xs, 3)
    assert abs(freq[0] - 0.5) < 0.01
    assert abs(freq[1] - 0.3) < 0.01
    assert abs(freq[2] - 0.2) < 0.01


def test_probs_must_sum_to_one():
    with pytest.raises(ValueError):
        StateProcessSpec(mode=IID, state_ids=["a", "b"], probs=[0.6, 0.6])


def test_markov_identity_absorbs():
    spec = StateProcessSpec(
        mode=MARKOV,
        state_ids=["s0", "s1"],
        transition=[[1.0, 0.0], [0.0, 1.0]],
        initial=0,
    )
    rng = RngStream(3, 0).generator(0)
    assert generate_states(spec, 10, rng).tolist() == [0] * 10


def test_markov_batch_equals_stepwise():
    spec = StateProcessSpec(
        mode=MARKOV,
        state_ids=["s0", "s1"],
        transition=[[0.7, 0.3], [0.4, 0.6]],
        initial=1,
    )
    batch = generate_states(spec, 200, RngStream(5, 0).generator(0)).tolist()
    proc = StateProcess(spec)
    rng = RngStream(5, 0).generator(0)
    step = [proc.next_state(t, rng) for t in range(200)]
    assert batch == step
    assert batch[0] == 1  # starts at the declared initial state


def test_iid_batch_equals_stepwise():
    spec = StateProcessSpec(mode=IID, state_ids=["a", "b", "c"], probs=[0.2, 0.5, 0.3])
    batch = generate_states(spec, 200, RngStream(6, 0).generator(0)).tolist()
    proc = StateProcess(spec)
    rng = RngStream(6, 0).generator(0)
    assert batch == [proc.next_state(t, rng) for t in range(200)]


def test_iid_integer_probabilities_draw_like_floats():
    for probs in ([0, 1], [1], [0, 1, 0]):
        ids = [f"s{i}" for i in range(len(probs))]
        whole = StateProcessSpec(mode=IID, state_ids=ids, probs=probs)
        real = StateProcessSpec(mode=IID, state_ids=ids, probs=[float(p) for p in probs])
        got = generate_states(whole, 50, RngStream(2, 0).generator(0)).tolist()
        assert got == generate_states(real, 50, RngStream(2, 0).generator(0)).tolist()


def test_trace_mode_and_exhaustion():
    spec = StateProcessSpec(mode=TRACE, state_ids=["a", "b"], trace=[0, 1])
    rng = RngStream(0, 0).generator(0)
    assert generate_states(spec, 1, rng).tolist() == [0]
    assert generate_states(spec, 2, rng).tolist() == [0, 1]
    with pytest.raises(TraceExhausted):
        generate_states(spec, 3, rng)


def test_stationary_trivial_and_symmetric():
    one = StateProcessSpec(
        mode=MARKOV, state_ids=["s"], transition=[[1.0]], initial=0
    )
    assert stationary_distribution(one).tolist() == [1.0]
    flip = StateProcessSpec(
        mode=MARKOV,
        state_ids=["a", "b"],
        transition=[[0.5, 0.5], [0.5, 0.5]],
        initial=0,
    )
    pi = stationary_distribution(flip)
    assert np.allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_known_chain():
    spec = StateProcessSpec(
        mode=MARKOV,
        state_ids=["a", "b"],
        transition=[[0.9, 0.1], [0.2, 0.8]],
        initial=0,
    )
    pi = stationary_distribution(spec)
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)
    # fixed point of the transition
    T = np.array(spec.transition)
    assert np.abs(pi @ T - pi).max() < 1e-11


def test_stationary_slowly_mixing_chain():
    # Aperiodic and irreducible, but the second eigenvalue is eps - 1, so
    # pi_0 T^t approaches pi only like (1 - eps)^t.
    eps = 1e-5
    spec = StateProcessSpec(
        mode=MARKOV,
        state_ids=["a", "b"],
        transition=[[eps, 1.0 - eps], [1.0, 0.0]],
        initial=0,
    )
    pi = stationary_distribution(spec)
    assert np.allclose(pi, [1.0 / (2.0 - eps), (1.0 - eps) / (2.0 - eps)], atol=1e-15)
    assert np.abs(pi @ np.array(spec.transition) - pi).max() < 1e-15
    assert pi.min() >= 0.0 and pi.sum() == pytest.approx(1.0, abs=1e-15)


def test_stationary_long_run_frequencies():
    spec = StateProcessSpec(
        mode=MARKOV,
        state_ids=["a", "b"],
        transition=[[0.9, 0.1], [0.2, 0.8]],
        initial=0,
    )
    xs = generate_states(spec, 200_000, RngStream(17, 0).generator(0))
    freq = empirical_distribution(xs, 2)
    pi = stationary_distribution(spec)
    assert abs(freq[0] - pi[0]) < 0.01


def test_stationary_of_iid_is_its_probs():
    spec = StateProcessSpec(mode=IID, state_ids=["a", "b"], probs=[0.25, 0.75])
    pi = stationary_distribution(spec)
    assert pi.dtype == float and pi.tolist() == [0.25, 0.75]


def test_trace_has_no_stationary_distribution():
    spec = StateProcessSpec(mode=TRACE, state_ids=["a"], trace=[0, 0])
    message = "^trace processes have no stationary distribution$"
    with pytest.raises(InputError, match=message):
        stationary_distribution(spec)


def test_simulator_alias_is_the_one_rule():
    assert simulator.process_distribution is stationary_distribution


def test_periodic_chain_rejected():
    spec = StateProcessSpec(
        mode=MARKOV,
        state_ids=["a", "b"],
        transition=[[0.0, 1.0], [1.0, 0.0]],
        initial=0,
    )
    with pytest.raises(NotErgodic):
        stationary_distribution(spec)


def test_reducible_chain_rejected():
    spec = StateProcessSpec(
        mode=MARKOV,
        state_ids=["a", "b"],
        transition=[[1.0, 0.0], [0.0, 1.0]],
        initial=0,
    )
    with pytest.raises(NotErgodic):
        stationary_distribution(spec)


@pytest.mark.parametrize(
    "transition",
    [[[0.5, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.5, 0.5]]],
    ids=["no-return-to-0", "0-never-reaches-1"],
)
def test_one_way_chain_rejected(transition):
    # the reverse reach and the forward reach, each alone
    spec = StateProcessSpec(
        mode=MARKOV, state_ids=["a", "b"], transition=transition, initial=0
    )
    message = "^transition graph is not strongly connected$"
    with pytest.raises(NotErgodic, match=message):
        stationary_distribution(spec)


# --- demand realization ---------------------------------------------------


def test_demand_extremes():
    model = make_i1()
    cfg = model.cfg
    dead = model.demand_states[0]
    rng = RngStream(2, 0).generator(0)
    y0 = type(dead)(id="z", F=[[0.0, 0.0]])
    assert all(realize_demand(0, 1.0, y0, cfg, rng) == 0 for _ in range(20))
    yfull = type(dead)(id="f", F=[[2.0, 2.0]])
    assert all(realize_demand(0, 2.0, yfull, cfg, rng) == 2 for _ in range(20))


def test_demand_bounded_and_integer():
    model = make_i1()
    rng = RngStream(4, 0).generator(0)
    y = model.demand_states[0]
    for _ in range(500):
        d = realize_demand(0, 2.0, y, model.cfg, rng)
        assert isinstance(d, int)
        assert 0 <= d <= 2


def test_demand_mean_matches_table():
    model = make_i1()
    y = model.demand_states[0]
    rng = RngStream(9, 0).generator(0)
    n = 200_000
    draws = realize_demand(0, 2.0, y, model.cfg, rng, size=n)
    mean = draws.mean()
    # Binomial(2, 1/2): variance 1/2
    se = math.sqrt(0.5 / n)
    assert abs(mean - 1.0) <= 3 * se


def test_demand_batch_matches_scalar_stream():
    model = make_i1()
    y = model.demand_states[0]
    batch = realize_demand(0, 2.0, y, model.cfg, RngStream(6, 0).generator(0), size=50)
    rng = RngStream(6, 0).generator(0)
    singles = [realize_demand(0, 2.0, y, model.cfg, rng) for _ in range(50)]
    assert batch.tolist() == singles
