"""Layer tracing from outside the program.

Tracer.install() replaces the public functions of the plantsim layer
modules with timing wrappers.  A function is replaced at every plantsim
module attribute that holds it, which is where its callers look it up
(``plantsim.simulator.decide_purchase`` as well as
``plantsim.controller.decide_purchase``).  Tracer.uninstall() puts the
originals back.

Each wrapped call adds its duration to the enclosing call's child time,
so a span's self time is its duration minus its children.  Calls of the
functions in SPANS are kept as spans (name, start, end, parent) and
written out after the run; the per-slot functions in COUNTED are only
counted and timed, since recording a span per slot would cost more than
the slot.  Workload operations enter through Tracer.span, so every span
of one operation leads back to the operation's root span.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs recorded as individual spans.
SPANS = [
    ("simulator", "run_episode"),
    ("simulator", "check_profit_bound"),
    ("processes", "generate_states"),
    ("simplex", "solve_lp"),
    ("oracles", "optimal_profit"),
    ("oracles", "build_profit_lp"),
    ("oracles", "enumerate_actions"),
    ("oracles", "extract_xy_policy"),
    ("oracles", "two_price_reduce"),
    ("oracles", "lookahead_value"),
    ("oracles", "brute_force_opt"),
    ("scenario", "load_scenario"),
    ("model", "validate_config"),
]
# Functions called once or twice per slot: counted and timed, no spans.
COUNTED = [
    ("controller", "decide_purchase"),
    ("controller", "decide_pricing"),
    ("model", "schedule_fulfillment"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self._child = [0.0]  # child time of each open call, outermost first
        self._open = -1  # index of the innermost open span
        self._pivots = 0  # pivots counted by the simplex._pivot wrapper
        self._pivots_counted = False
        self.last_solve_pivots: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _begin(self, name: str | None):
        self._child.append(0.0)
        parent = self._open
        idx = -1
        if name is not None:
            nid = self._name_id.get(name)
            if nid is None:
                nid = self._name_id[name] = len(self.names)
                self.names.append(name)
            idx = len(self.spans)
            self.spans.append([nid, 0.0, 0.0, parent])
            self._open = idx
        return idx, parent, perf_counter()

    def _end(self, key: str, idx: int, parent: int, t0: float) -> float:
        """Close a call; returns its self time."""
        t1 = perf_counter()
        dur = t1 - t0
        child = self._child.pop()
        self._child[-1] += dur
        self.calls[key] += 1
        self.busy[key] += dur
        if idx >= 0:
            self.spans[idx][1] = t0
            self.spans[idx][2] = t1
            self._open = parent
        return dur - child

    def span(self, name: str, fn, *args, **kwargs):
        """Run one workload operation as a root span named ``op:<name>``."""
        idx, parent, t0 = self._begin(f"op:{name}")
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(f"op:{name}", idx, parent, t0)

    # -- wrapping ------------------------------------------------------

    def install(self) -> None:
        import plantsim.model as model
        import plantsim.simplex as simplex

        self._purchase_cost = model.purchase_cost
        hooks = {
            "simulator.run_episode": (self._episode_before, self._episode_after),
            "controller.decide_purchase": (self._purchase_before, None),
            "simplex.solve_lp": (self._solve_before, self._solve_after),
            "oracles.enumerate_actions": (None, self._enumerate_after),
        }
        for table, recorded in ((SPANS, True), (COUNTED, False)):
            for mod, fn_name in table:
                fn = getattr(importlib.import_module(f"plantsim.{mod}"), fn_name, None)
                if fn is None:
                    continue
                key = f"{mod}.{fn_name}"
                before, after = hooks.get(key, (None, None))
                self._replace(fn, self._wrap(key, recorded, fn, before, after))
        pivot = getattr(simplex, "_pivot", None)
        if pivot is not None:
            # Counts the pivots of solves that raise and so return no
            # LpSolution.iterations.
            def counted_pivot(*args, **kwargs):
                self._pivots += 1
                return pivot(*args, **kwargs)

            self._replace(pivot, counted_pivot)
            self._pivots_counted = True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, fn, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("plantsim") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, fn))

    def _wrap(self, key: str, recorded: bool, fn, before, after):
        span_name = key if recorded else None
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx, parent, t0 = begin(span_name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self_time = end(key, idx, parent, t0)
                if after:
                    after(state, out, self_time)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function hooks: before(args, kwargs) -> state,
    #    after(state, result or None if it raised, self time) ------------

    def _episode_before(self, args, kwargs):
        ec = args[0] if args else kwargs["ec"]
        return ("playback" if ec.controller == "oracle" else "online", ec.horizon)

    def _episode_after(self, state, out, self_time):
        kind, horizon = state
        self.count[f"{kind}_slots"] += horizon
        self.count[f"{kind}_self_s"] += self_time

    def _purchase_before(self, args, kwargs):
        # A call takes the knapsack path when buying every material with
        # negative weight at its cap would exceed the budget.
        try:
            Q, x, params, cfg = args[:4]
            want = [
                min(cfg.A_max[m], x.available[m])
                if params.V * x.unit_cost[m] + Q[m] - params.theta[m] < 0
                else 0
                for m in range(len(Q))
            ]
            self.count["knapsack_calls"] += self._purchase_cost(want, x) > cfg.c_max
        except (AttributeError, IndexError, TypeError, ValueError):
            self.count["knapsack_unclassified"] += 1

    def _solve_before(self, args, kwargs):
        lp = args[0] if args else kwargs["lp"]
        rows = sum(0 if a is None else len(a) for a in (lp.a_eq, lp.a_ub))
        if lp.upper is not None:
            rows += sum(1 for u in lp.upper if u != float("inf"))
        return rows, len(lp.c), self._pivots

    def _solve_after(self, state, out, self_time):
        rows, cols, pivots_before = state
        if out is not None:
            pivots = out.iterations
        else:
            self.count["solve_failures"] += 1
            pivots = self._pivots - pivots_before if self._pivots_counted else None
        self.last_solve_pivots = pivots
        pivots = pivots or 0
        self.count["pivots"] += pivots
        # Computed, not measured: tableau cells one pivot can touch, rows x
        # (columns + one slack or artificial per row + right-hand side).
        self.count["pivot_cells"] += pivots * rows * (cols + rows + 1)

    def _enumerate_after(self, state, out, self_time):
        if out is not None:
            self.count["action_vectors"] += len(out)

    # -- results -------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit)."""
        c, b, n = self.calls, self.busy, self.count
        online = n["online_slots"]
        playback = n["playback_slots"]
        purchase = c["controller.decide_purchase"]

        def ratio(a, d):
            return a / d if d else 0.0

        metrics = {
            "simulator.slots": (online, "slots"),
            "simulator.playback_slots": (playback, "slots"),
            "simulator.memo_hit_ratio": (1.0 - purchase / online if online else 0.0, "ratio"),
            "simulator.loop_self_us_per_slot": (1e6 * ratio(n["online_self_s"], online), "us"),
            "simulator.playback_self_us_per_slot": (1e6 * ratio(n["playback_self_s"], playback), "us"),
            "controller.decide_purchase.calls": (purchase, "count"),
            "controller.decide_purchase.busy_s": (b["controller.decide_purchase"], "s"),
            "controller.decide_pricing.calls": (c["controller.decide_pricing"], "count"),
            "controller.decide_pricing.busy_s": (b["controller.decide_pricing"], "s"),
            "controller.knapsack_calls": (n["knapsack_calls"], "count"),
            "controller.knapsack_ratio": (ratio(n["knapsack_calls"], purchase), "ratio"),
            "processes.generate_states.busy_s": (b["processes.generate_states"], "s"),
            "simplex.solve_lp.calls": (c["simplex.solve_lp"], "count"),
            "simplex.solve_lp.busy_s": (b["simplex.solve_lp"], "s"),
            "simplex.pivots": (n["pivots"], "count"),
            "simplex.failures": (n["solve_failures"], "count"),
            "simplex.pivot_cells": (n["pivot_cells"], "cells"),
            "oracles.build_profit_lp.busy_s": (b["oracles.build_profit_lp"], "s"),
            "oracles.enumerate_actions.vectors": (n["action_vectors"], "count"),
            "oracles.extract_xy_policy.busy_s": (b["oracles.extract_xy_policy"], "s"),
            "oracles.two_price_reduce.busy_s": (b["oracles.two_price_reduce"], "s"),
            "oracles.lookahead_value.calls": (c["oracles.lookahead_value"], "count"),
            "oracles.lookahead_value.busy_s": (b["oracles.lookahead_value"], "s"),
            "oracles.brute_force_opt.calls": (c["oracles.brute_force_opt"], "count"),
            "oracles.brute_force_opt.busy_s": (b["oracles.brute_force_opt"], "s"),
            "scenario.load_scenario.busy_s": (b["scenario.load_scenario"], "s"),
            "model.validate_config.busy_s": (b["model.validate_config"], "s"),
            "model.schedule_fulfillment.calls": (c["model.schedule_fulfillment"], "count"),
        }
        return {
            k: (round(v) if u in ("count", "slots", "cells") else v, u)
            for k, (v, u) in metrics.items()
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                    "counted": {k: [self.calls[k], self.busy[k]] for k in sorted(self.calls)},
                },
                fh,
            )
