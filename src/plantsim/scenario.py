"""Scenario files: JSON descriptions of a plant plus run settings.

A scenario bundles the plant configuration (materials, products, prices,
state spaces) with the state processes and optional run defaults (V,
horizon, seed, ...).  Each optional key appears once, in _RUN_KEYS, with
its parser, and fills the Scenario field of the same name.  Parsing is
strict: unknown keys and wrong types are rejected with the offending path
in the message, so a typo in a scenario never silently changes an
experiment.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from plantsim.model import (
    ConfigError,
    DemandState,
    InputError,
    Model,
    PlantConfig,
    SupplyState,
    validate_config,
)
from plantsim.processes import IID, MARKOV, TRACE, StateProcessSpec


class ParseError(InputError):
    """Malformed scenario JSON (unknown key, wrong type, bad reference)."""


class ValidationError(InputError):
    """Scenario parsed fine but describes an inconsistent plant."""


@dataclass
class Scenario:
    """A parsed scenario: the model, its state processes, run defaults."""

    model: Model
    process_x: StateProcessSpec
    process_y: StateProcessSpec
    name: str | None = None
    V: float | None = None
    horizon: int | None = None
    seed: int | None = None
    replications: int | None = None
    placeholder: bool = False
    assembly_delay: bool = False
    demand_blind: bool = False
    theta: list[float] | None = None
    unsafe_theta: bool = False
    T: int | None = None
    J: int | None = None
    epsilon: float | None = None


_PLANT_KEYS = {
    "beta",
    "alpha",
    "price_set",
    "D_max",
    "A_max",
    "c_max",
    "supply_states",
    "demand_states",
    "process_x",
    "process_y",
    "trace_file",
}


def _fail(where: str, msg: str):
    raise ParseError(f"{where}: {msg}")


def _get(d: dict, key: str, where: str):
    if key not in d:
        _fail(where, f"missing required key {key!r}")
    return d[key]


def _check_keys(d: dict, allowed: set, where: str) -> None:
    for key in d:
        if key not in allowed:
            _fail(where, f"unknown key {key!r}")


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(where, f"expected an integer, got {v!r}")
    return v


def _as_num(v, where: str) -> float:
    # json.load accepts NaN, Infinity and integers too large for a float.
    if not isinstance(v, bool) and isinstance(v, (int, float)):
        try:
            if math.isfinite(v):
                return float(v)
        except OverflowError:
            pass
    _fail(where, f"expected a finite number, got {v!r}")


def _as_bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        _fail(where, f"expected true/false, got {v!r}")
    return v


def _as_str(v, where: str) -> str:
    if not isinstance(v, str):
        _fail(where, f"expected a string, got {v!r}")
    return v


def _int_list(v, where: str) -> list[int]:
    if not isinstance(v, list):
        _fail(where, "expected a list of integers")
    return [_as_int(e, f"{where}[{i}]") for i, e in enumerate(v)]


def _num_list(v, where: str) -> list[float]:
    if not isinstance(v, list):
        _fail(where, "expected a list of numbers")
    return [_as_num(e, f"{where}[{i}]") for i, e in enumerate(v)]


def _int_matrix(v, where: str) -> list[list[int]]:
    if not isinstance(v, list):
        _fail(where, "expected a list of rows")
    return [_int_list(row, f"{where}[{i}]") for i, row in enumerate(v)]


def _num_matrix(v, where: str) -> list[list[float]]:
    if not isinstance(v, list):
        _fail(where, "expected a list of rows")
    return [_num_list(row, f"{where}[{i}]") for i, row in enumerate(v)]


def _parse_supply(items, where: str) -> list[SupplyState]:
    if not isinstance(items, list) or not items:
        _fail(where, "expected a non-empty list of supply states")
    out = []
    for i, item in enumerate(items):
        w = f"{where}[{i}]"
        if not isinstance(item, dict):
            _fail(w, "expected an object")
        _check_keys(item, {"id", "unit_cost", "available"}, w)
        out.append(
            SupplyState(
                id=_as_str(_get(item, "id", w), f"{w}.id"),
                unit_cost=_int_list(_get(item, "unit_cost", w), f"{w}.unit_cost"),
                available=_int_list(_get(item, "available", w), f"{w}.available"),
            )
        )
    return out


def _parse_demand(items, where: str) -> list[DemandState]:
    if not isinstance(items, list) or not items:
        _fail(where, "expected a non-empty list of demand states")
    out = []
    for i, item in enumerate(items):
        w = f"{where}[{i}]"
        if not isinstance(item, dict):
            _fail(w, "expected an object")
        _check_keys(item, {"id", "F", "h", "F_hat"}, w)
        h = item.get("h")
        f_hat = item.get("F_hat")
        out.append(
            DemandState(
                id=_as_str(_get(item, "id", w), f"{w}.id"),
                F=_num_matrix(_get(item, "F", w), f"{w}.F"),
                h=None if h is None else _as_num(h, f"{w}.h"),
                F_hat=None if f_hat is None else _num_matrix(f_hat, f"{w}.F_hat"),
            )
        )
    return out


def _state_index(ids: list[str], ref, where: str) -> int:
    name = _as_str(ref, where)
    try:
        return ids.index(name)
    except ValueError:
        _fail(where, f"unknown state id {name!r}")


def _parse_process(obj, ids: list[str], where: str) -> StateProcessSpec:
    if not isinstance(obj, dict):
        _fail(where, "expected an object")
    mode = _as_str(_get(obj, "mode", where), f"{where}.mode")
    if mode == IID:
        _check_keys(obj, {"mode", "probs"}, where)
        raw = _get(obj, "probs", where)
        if not isinstance(raw, dict):
            _fail(f"{where}.probs", "expected an object mapping state id to weight")
        for name in raw:
            if name not in ids:
                _fail(f"{where}.probs", f"unknown state id {name!r}")
        for name in ids:
            if name not in raw:
                _fail(f"{where}.probs", f"missing probability for state {name!r}")
        fields = {"probs": [_as_num(raw[n], f"{where}.probs[{n!r}]") for n in ids]}
    elif mode == MARKOV:
        _check_keys(obj, {"mode", "transition", "initial"}, where)
        transition = _num_matrix(_get(obj, "transition", where), f"{where}.transition")
        fields = {"transition": transition}
        if "initial" in obj:
            fields["initial"] = _state_index(ids, obj["initial"], f"{where}.initial")
    elif mode == TRACE:
        _check_keys(obj, {"mode", "sequence"}, where)
        seq = _get(obj, "sequence", where)
        if not isinstance(seq, list) or not seq:
            _fail(f"{where}.sequence", "expected a non-empty list of state ids")
        trace = [
            _state_index(ids, e, f"{where}.sequence[{i}]") for i, e in enumerate(seq)
        ]
        fields = {"trace": trace}
    else:
        _fail(f"{where}.mode", f"unknown mode {mode!r}")
    try:
        return StateProcessSpec(mode=mode, state_ids=ids, **fields)
    except InputError as e:
        raise ParseError(f"{where}: {e}") from e


def _read_trace_file(path: str, x_ids: list[str], y_ids: list[str]):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ParseError(f"trace_file: cannot read {path!r}: {e}") from e
    xs, ys = [], []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            _fail("trace_file", f"line {ln}: expected 'x_id y_id', got {line!r}")
        xs.append(_state_index(x_ids, parts[0], f"trace_file line {ln}"))
        ys.append(_state_index(y_ids, parts[1], f"trace_file line {ln}"))
    if not xs:
        _fail("trace_file", f"{path!r} contains no state pairs")
    return (
        StateProcessSpec(mode=TRACE, state_ids=x_ids, trace=xs),
        StateProcessSpec(mode=TRACE, state_ids=y_ids, trace=ys),
    )


# Optional top-level keys: each fills the Scenario field of the same name.
_RUN_KEYS = {
    "name": _as_str,
    "V": _as_num,
    "horizon": _as_int,
    "seed": _as_int,
    "replications": _as_int,
    "placeholder": _as_bool,
    "assembly_delay": _as_bool,
    "demand_blind": _as_bool,
    "theta": _num_list,
    "unsafe_theta": _as_bool,
    "T": _as_int,
    "J": _as_int,
    "epsilon": _as_num,
}


def parse_scenario(data: dict, base_dir: str = ".") -> Scenario:
    """Build a Scenario from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    _check_keys(data, _PLANT_KEYS | _RUN_KEYS.keys(), "top level")

    cfg = PlantConfig(
        beta=_int_matrix(_get(data, "beta", "top level"), "beta"),
        alpha=_num_list(_get(data, "alpha", "top level"), "alpha"),
        price_set=_num_matrix(_get(data, "price_set", "top level"), "price_set"),
        D_max=_int_list(_get(data, "D_max", "top level"), "D_max"),
        A_max=_int_list(_get(data, "A_max", "top level"), "A_max"),
        c_max=_as_int(_get(data, "c_max", "top level"), "c_max"),
    )
    supply = _parse_supply(_get(data, "supply_states", "top level"), "supply_states")
    demand = _parse_demand(_get(data, "demand_states", "top level"), "demand_states")
    try:
        model = validate_config(cfg, supply, demand)
    except ConfigError as e:
        raise ValidationError(str(e)) from e

    x_ids = [s.id for s in supply]
    y_ids = [s.id for s in demand]
    if "trace_file" in data:
        if "process_x" in data or "process_y" in data:
            _fail("top level", "trace_file excludes process_x/process_y")
        path = _as_str(data["trace_file"], "trace_file")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        spec_x, spec_y = _read_trace_file(path, x_ids, y_ids)
    else:
        spec_x = _parse_process(_get(data, "process_x", "top level"), x_ids, "process_x")
        spec_y = _parse_process(_get(data, "process_y", "top level"), y_ids, "process_y")

    run = {key: parse(data[key], key) for key, parse in _RUN_KEYS.items() if key in data}
    if "theta" in run and len(run["theta"]) != cfg.M:
        _fail("theta", f"expected {cfg.M} entries, got {len(run['theta'])}")
    return Scenario(model=model, process_x=spec_x, process_y=spec_y, **run)


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path!r} is not valid JSON: {e}") from e
    return parse_scenario(data, base_dir=os.path.dirname(path) or ".")
