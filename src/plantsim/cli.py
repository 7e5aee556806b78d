"""Command line front end.

Subcommands:
  simulate    run the online controller on a scenario and report metrics
  oracle      solve the stationary profit program and show the policy
  lookahead   evaluate per-frame clairvoyant values on a trace scenario
  compare     check a profit bound (long-run, frame or Markov form)

Run flags: simulate and compare read --V, --slots, --seed, --replications;
oracle all but --V, taking --seed and --replications only with --slots;
lookahead none.  compare reads --slots only without --J.
Exit codes: 0 success, 1 bad input (an InputError), 2 a checked bound or
invariant was violated, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys

from plantsim.controller import InvariantViolation
from plantsim.model import InputError, check_int
from plantsim.oracles import (
    extract_xy_policy,
    frame_values,
    optimal_profit,
    two_price_reduce,
)
from plantsim.processes import MARKOV, TRACE
from plantsim.scenario import Scenario, ValidationError, load_scenario
from plantsim.simulator import (
    EpisodeConfig,
    check_frame_bound,
    check_profit_bound,
    process_distribution,
    run_replications,
    summarize,
    write_slot_log,
)

# Run flag -> (type, Scenario field, default, help); a subcommand lacking it reads None.
_RUN_FLAGS = {
    "V": (float, "V", 10.0, "profit weight"),
    "slots": (int, "horizon", 10_000, "episode length"),
    "seed": (int, "seed", 0, None),
    "replications": (int, "replications", 4, None),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are bad input, like every other exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="plantsim", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def subcommand(name, func, summary, run_flags=tuple(_RUN_FLAGS)):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        for flag in run_flags:
            kind, _, _, text = _RUN_FLAGS[flag]
            sp.add_argument(f"--{flag}", type=kind, help=text)
        sp.set_defaults(func=func)
        return sp

    sp = subcommand("simulate", cmd_simulate, "run the online controller")
    sp.add_argument("--placeholder", action="store_true")
    sp.add_argument("--assembly-delay", action="store_true")
    sp.add_argument("--demand-blind", action="store_true")
    sp.add_argument("--out", default=None, help="write per-slot CSV log here")

    oracle_flags = ("slots", "seed", "replications")  # playback never reads V
    subcommand("oracle", cmd_oracle, "stationary optimum and its policy", oracle_flags)

    summary = "clairvoyant frame values on a trace"
    sp = subcommand("lookahead", cmd_lookahead, summary, run_flags=())
    sp.add_argument("--T", type=int, default=None, help="frame length")
    sp.add_argument("--J", type=int, default=None, help="number of frames")

    sp = subcommand("compare", cmd_compare, "check a profit bound")
    sp.add_argument("--T", type=int, default=None, help="frame length or mixing window")
    sp.add_argument("--J", type=int, default=None, help="number of frames")
    sp.add_argument(
        "--epsilon", type=float, default=None, help="mixing tolerance of the chains"
    )
    return p


def _pick(*values):
    return next((v for v in values if v is not None), None)


def _run_settings(args, sc: Scenario):
    """V, slots, seed and replications: the flag, else the scenario, else default."""
    return [
        _pick(vars(args).get(flag), getattr(sc, field), default)
        for flag, (_, field, default, _) in _RUN_FLAGS.items()
    ]


def cmd_simulate(args, sc: Scenario) -> int:
    V, slots, seed, reps = _run_settings(args, sc)
    ec = EpisodeConfig(
        horizon=slots,
        seed=seed,
        V=V,
        process_x=sc.process_x,
        process_y=sc.process_y,
        placeholder=args.placeholder or sc.placeholder,
        assembly_delay=args.assembly_delay or sc.assembly_delay,
        demand_blind=args.demand_blind or sc.demand_blind,
        theta=sc.theta,
        allow_unsafe_theta=sc.unsafe_theta,
        record_log=bool(args.out),  # kept for replication 0 only
    )
    runs = run_replications(ec, sc.model, reps)
    if args.out:
        try:
            write_slot_log(args.out, sc.model, runs[0])
        except OSError as e:
            raise InputError(f"--out: cannot write {args.out!r}: {e}") from e
    s = summarize(runs)
    name = sc.name or args.scenario
    print(f"scenario: {name}")
    print(f"V={V:g} slots={slots} seed={seed} replications={reps}")
    print(f"mean avg profit: {s.mean:.6g}  (se {s.se:.3g})")
    m0 = runs[0]
    for m in range(sc.model.cfg.M):
        lo = min(r.q_min[m] for r in runs)
        hi = max(r.q_max[m] for r in runs)
        print(
            f"material {m + 1}: queue range [{lo}, {hi}], "
            f"band [{m0.q_lower_bound[m]}, {m0.q_upper_bound[m]:g}]"
        )
    print(
        f"max slot drift: {max(r.max_slot_drift for r in runs):g}  "
        f"(bound {m0.drift_bound:g})"
    )
    violations = sum(r.bound_violations for r in runs)
    mismatches = sum(r.phi_mismatch_slots for r in runs)
    print(f"bound violations: {violations}  fulfillment mismatches: {mismatches}")
    if ec.assembly_delay:
        print(f"startup cost: {m0.startup_cost:g}")
        net = summarize(runs, net=True)
        print(f"mean avg profit net of startup: {net.mean:.6g}")
    if args.out:
        print(f"slot log written to {args.out}")
    return 2 if violations else 0


def cmd_oracle(args, sc: Scenario) -> int:
    V, slots, seed, reps = _run_settings(args, sc)
    if args.slots is None and (args.seed, args.replications) != (None, None):
        raise ValidationError("--seed and --replications apply to playback: add --slots")
    if args.slots is not None:
        for n in (slots, reps):
            message = f"playback needs slots and replications >= 1, got {slots}, {reps}"
            check_int("playback", n, 1, error=ValidationError, message=message)
    pi_x = process_distribution(sc.process_x)
    pi_y = process_distribution(sc.process_y)
    model = sc.model
    value, plp, sol = optimal_profit(model, pi_x, pi_y)
    policy = extract_xy_policy(plp, sol)
    reduced = two_price_reduce(policy, model)
    playback = None
    if args.slots is not None:
        ec = EpisodeConfig(
            horizon=slots,
            seed=seed,
            V=V,
            process_x=sc.process_x,
            process_y=sc.process_y,
            controller="oracle",
            oracle_policy=policy,
        )
        runs = run_replications(ec, model, reps)
        s = summarize(runs)
        playback = (
            f"playback over {slots} slots x {reps}: realized {s.mean:.6g} "
            f"(se {s.se:.3g}), nominal LP value {value:.6g}, "
            f"short slots {sum(r.phi_mismatch_slots for r in runs)}"
        )
    print(f"stationary optimum: {value:.6g}")
    print(
        f"purchase cost rate: {policy.c_hat:.6g}  revenue rate: {policy.r_hat:.6g}"
    )
    print(
        "material flow (in = out): "
        + " ".join(f"{a:.6g}" for a in policy.a_hat)
    )
    for xi, x in enumerate(model.supply_states):
        parts = [
            f"{tuple(a)} w.p. {p:.4g}" for a, p in policy.purchase_dist[xi]
        ]
        print(f"purchase | x={x.id}: " + "; ".join(parts))
    for k in range(model.cfg.K):
        for yi, y in enumerate(model.demand_states):
            parts = []
            for z, j, p in policy.price_dist[k][yi]:
                label = "idle" if z == 0 else f"price {model.cfg.price_set[k][j]:g}"
                parts.append(f"{label} w.p. {p:.4g}")
            print(f"offer | product {k + 1}, y={y.id}: " + "; ".join(parts))
            ent = reduced.entries[k][yi]
            parts = []
            for z, j, w in ent.support:
                label = "idle" if z == 0 else f"price {model.cfg.price_set[k][j]:g}"
                parts.append(f"{label} w.p. {w:.4g}")
            print(
                "  two-price form: "
                + "; ".join(parts)
                + f"  (revenue {ent.r_star:.6g}, was {ent.r_orig:.6g})"
            )
    if playback is not None:
        print(playback)
    return 0


def _frame_split(sc: Scenario, T, J):
    """Trace state lists and a J x T split (T defaults to the whole trace)."""
    if sc.process_x.mode != TRACE or sc.process_y.mode != TRACE:
        raise ValidationError(
            "this command needs a trace scenario (TRACE processes or trace_file)"
        )
    xs, ys = sc.process_x.trace, sc.process_y.trace
    n = min(len(xs), len(ys))
    T = n if T is None else T
    J = n // max(T, 1) if J is None else J
    return xs, ys, T, J


def cmd_lookahead(args, sc: Scenario) -> int:
    xs, ys, T, J = _frame_split(
        sc, _pick(args.T, sc.T, None), _pick(args.J, sc.J, None)
    )
    values = frame_values(sc.model, xs, ys, T, J)
    for j, value in enumerate(values):
        print(f"frame {j + 1}: value {value:.6g}")
    print(f"mean per-slot value over {J} frame(s): {sum(values) / (J * T):.6g}")
    return 0


def cmd_compare(args, sc: Scenario) -> int:
    refused = ("theta", "unsafe_theta", "placeholder", "assembly_delay", "demand_blind")
    for key in refused:
        if getattr(sc, key) not in (None, False):
            raise ValidationError(
                f"{key}: compare checks the default controller at safe thresholds"
            )
    V, slots, seed, reps = _run_settings(args, sc)
    T = _pick(args.T, sc.T, None)
    J = _pick(args.J, sc.J, None)
    epsilon = _pick(args.epsilon, sc.epsilon, None)
    flags = {"--T": T, "--J": J, "--epsilon": epsilon}
    given = [f for f, v in flags.items() if v is not None]
    if given not in ([], ["--T", "--J"], ["--T", "--epsilon"]):
        raise ValidationError(
            f"compare got {' '.join(given)}; it takes --T with --J (frame bound), "
            "--T with --epsilon (Markov bound) or neither (B/V bound)"
        )
    if J is not None and args.slots is not None:
        raise ValidationError("--slots is unused: the frame bound runs J*T slots")
    model = sc.model

    if J is not None:
        xs, ys, T, J = _frame_split(sc, T, J)
        rep = check_frame_bound(
            model, xs, ys, V, T, J, replications=reps, seed=seed
        )
        print("frame values: " + " ".join(f"{v:.6g}" for v in rep.frame_values))
        print(
            f"mean frame value/slot: {rep.frame_mean:.6g}  "
            f"drift term: {rep.drift_term:.6g}  init term: {rep.init_term:.6g}"
        )
        print(f"bound: {rep.bound:.6g}")
        print(f"controller: {rep.mean:.6g} (se {rep.se:.3g})")
        print("PASS" if rep.passed else "FAIL")
        return 0 if rep.passed else 2

    if epsilon is not None and MARKOV not in (sc.process_x.mode, sc.process_y.mode):
        raise ValidationError("--epsilon applies to Markov-modulated scenarios")
    mixing = {} if epsilon is None else {"epsilon": epsilon, "T": T}
    rep = check_profit_bound(
        model, sc.process_x, sc.process_y, V, slots, reps, seed, **mixing
    )
    print(f"stationary optimum: {rep.phi_opt:.6g}")
    if epsilon is None:
        print(f"allowed gap B/V: {rep.slack:.6g}")
    else:
        print(f"bound: {rep.rhs:.6g} (epsilon={epsilon:g}, T={T})")
    print(f"controller: {rep.mean:.6g} (se {rep.se:.3g})")
    if epsilon is None:
        print(f"queue violations: {rep.violations}")
    print("PASS" if rep.passed else "FAIL")
    return 0 if rep.passed else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        sc = load_scenario(args.scenario)
        for warning in sc.model.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return args.func(args, sc)
    except SystemExit as e:
        return int(e.code or 0)
    except InvariantViolation as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - safety net
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
