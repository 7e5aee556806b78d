"""Scenario files: JSON descriptions of a plant plus run settings.

A scenario bundles the plant configuration (materials, products, prices,
state spaces) with the state processes and optional run defaults (V,
horizon, seed, ...).  Every JSON object of the format is read by _fields
from its key table, which names each key's parser; each optional run key
appears once, in _RUN_KEYS, and fills the Scenario field of the same name.
Parsing is strict: unknown keys and wrong types are rejected with the
offending path in the message, so a typo in a scenario never silently
changes an experiment.
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
    check_path,
    check_real,
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


_TOP = "top level"


def _fail(where: str, msg: str):
    raise ParseError(f"{where}: {msg}")


def _fields(
    obj, where: str, required: dict, optional: dict, closed=True, ids=None
) -> dict:
    """Read a JSON object by its key table: the parsed value of each key given.

    required and optional map each key to its parser, which gets the value
    and the value's path, and also ids unless it is None (the state ids a
    process's parsers need).  Keys are read in table order, required ones
    first, and the first fault raises: a non-object, a key in neither table
    (unless closed is false: the object's other keys belong to another
    table), a missing required key or a bad value.
    """
    if not isinstance(obj, dict):
        _fail(where, "expected an object")
    if closed:
        for key in obj:
            if key not in required and key not in optional:
                _fail(where, f"unknown key {key!r}")
    prefix = "" if where == _TOP else f"{where}."
    out = {}
    for table in (required, optional):
        for key, parse in table.items():
            if key in obj:
                v, path = obj[key], prefix + key
                out[key] = parse(v, path) if ids is None else parse(v, path, ids)
            elif table is required:
                _fail(where, f"missing required key {key!r}")
    return out


def _nullable(parse):
    """parse, with null meaning the key is absent."""
    return lambda v, where: None if v is None else parse(v, where)


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(where, f"expected an integer, got {v!r}")
    return v


def _as_num(v, where: str) -> float:
    # json.load accepts NaN, Infinity and integers too large for a float.
    # The message is built only for a refused value, not for every number.
    try:
        return float(check_real(where, v, -math.inf, error=ParseError))
    except ParseError:
        raise ParseError(f"{where}: expected a finite number, got {v!r}") from None


def _as_bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        _fail(where, f"expected true/false, got {v!r}")
    return v


def _as_str(v, where: str) -> str:
    if not isinstance(v, str):
        _fail(where, f"expected a string, got {v!r}")
    return v


def _list_of(parse, what: str, non_empty: bool = False):
    """The parser of a JSON list whose entries parse reads, at path[i]."""
    need = f"a non-empty list of {what}" if non_empty else f"a list of {what}"

    def read(v, where: str) -> list:
        if not isinstance(v, list) or (non_empty and not v):
            _fail(where, f"expected {need}")
        return [parse(e, f"{where}[{i}]") for i, e in enumerate(v)]

    return read


_int_list = _list_of(_as_int, "integers")
_num_list = _list_of(_as_num, "numbers")
_num_matrix = _list_of(_num_list, "rows")

_SUPPLY_KEYS = {"id": _as_str, "unit_cost": _int_list, "available": _int_list}
_DEMAND_KEYS = {"id": _as_str, "F": _num_matrix}
_DEMAND_OPTIONAL = {"h": _nullable(_as_num), "F_hat": _nullable(_num_matrix)}

_CFG_KEYS = {
    "beta": _list_of(_int_list, "rows"),
    "alpha": _num_list,
    "price_set": _num_matrix,
    "D_max": _int_list,
    "A_max": _int_list,
    "c_max": _as_int,
}
# The required top-level keys: the PlantConfig fields, then the state lists.
_PLANT_KEYS = {
    **_CFG_KEYS,
    "supply_states": _list_of(
        lambda v, where: SupplyState(**_fields(v, where, _SUPPLY_KEYS, {})),
        "supply states",
        non_empty=True,
    ),
    "demand_states": _list_of(
        lambda v, where: DemandState(
            **_fields(v, where, _DEMAND_KEYS, _DEMAND_OPTIONAL)
        ),
        "demand states",
        non_empty=True,
    ),
}


def _state_index(ref, where: str, ids: list[str]) -> int:
    name = _as_str(ref, where)
    try:
        return ids.index(name)
    except ValueError:
        _fail(where, f"unknown state id {name!r}")


def _probs(raw, where: str, ids: list[str]) -> list[float]:
    if not isinstance(raw, dict):
        _fail(where, "expected an object mapping state id to weight")
    for name in raw:
        if name not in ids:
            _fail(where, f"unknown state id {name!r}")
    for name in ids:
        if name not in raw:
            _fail(where, f"missing probability for state {name!r}")
    return [_as_num(raw[n], f"{where}[{n!r}]") for n in ids]


def _state_list(v, where: str, ids: list[str]) -> list[int]:
    if not isinstance(v, list) or not v:
        _fail(where, "expected a non-empty list of state ids")
    return [_state_index(e, f"{where}[{i}]", ids) for i, e in enumerate(v)]


def _read_mode(v, where: str, ids: list[str]) -> str:
    return v  # checked before the mode's table was chosen


# mode -> the required and optional keys of a process object, each parser
# also given the process's state ids; TRACE's sequence fills trace.
_PROCESS_KEYS = {
    IID: ({"mode": _read_mode, "probs": _probs}, {}),
    MARKOV: (
        {"mode": _read_mode, "transition": lambda v, where, ids: _num_matrix(v, where)},
        {"initial": _state_index},
    ),
    TRACE: ({"mode": _read_mode, "sequence": _state_list}, {}),
}


def _parse_process(obj, ids: list[str], where: str) -> StateProcessSpec:
    mode = _fields(obj, where, {"mode": _as_str}, {}, closed=False)["mode"]
    if mode not in _PROCESS_KEYS:
        _fail(f"{where}.mode", f"unknown mode {mode!r}")
    required, optional = _PROCESS_KEYS[mode]
    fields = _fields(obj, where, required, optional, ids=ids)
    if "sequence" in fields:
        fields["trace"] = fields.pop("sequence")
    try:
        return StateProcessSpec(state_ids=ids, **fields)
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
        xs.append(_state_index(parts[0], f"trace_file line {ln}", x_ids))
        ys.append(_state_index(parts[1], f"trace_file line {ln}", y_ids))
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

# Optional top-level keys read once the plant is valid: processes, then run keys.
_LATER_KEYS = dict.fromkeys(
    ["process_x", "process_y", "trace_file", *_RUN_KEYS], lambda v, where: v
)


def parse_scenario(data: dict, base_dir: str = ".") -> Scenario:
    """Build a Scenario from already-decoded JSON data.

    The first fault raises, in this order: an unknown top-level key, the
    plant keys, validate_config, the processes, the run keys, theta's length.
    """
    top = _fields(data, _TOP, _PLANT_KEYS, _LATER_KEYS)
    cfg = PlantConfig(**{key: top[key] for key in _CFG_KEYS})
    supply, demand = top["supply_states"], top["demand_states"]
    try:
        model = validate_config(cfg, supply, demand)
    except ConfigError as e:
        raise ValidationError(str(e)) from e

    x_ids = [s.id for s in supply]
    y_ids = [s.id for s in demand]
    if "trace_file" in data:
        if "process_x" in data or "process_y" in data:
            _fail(_TOP, "trace_file excludes process_x/process_y")
        path = _as_str(data["trace_file"], "trace_file")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        spec_x, spec_y = _read_trace_file(path, x_ids, y_ids)
    else:
        processes = {
            "process_x": lambda v, w: _parse_process(v, x_ids, w),
            "process_y": lambda v, w: _parse_process(v, y_ids, w),
        }
        spec_x, spec_y = _fields(data, _TOP, processes, {}, closed=False).values()

    run = _fields(data, _TOP, {}, _RUN_KEYS, closed=False)
    if "theta" in run and len(run["theta"]) != cfg.M:
        _fail("theta", f"expected {cfg.M} entries, got {len(run['theta'])}")
    return Scenario(model=model, process_x=spec_x, process_y=spec_y, **run)


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file."""
    check_path("path", path, error=ParseError)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path!r} is not valid JSON: {e}") from e
    return parse_scenario(data, base_dir=os.path.dirname(path) or ".")
