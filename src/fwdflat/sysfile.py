"""Line-oriented text format for system definitions.

A file is a sequence of `key: value` lines; `#` starts a comment and blank
lines are ignored.  Repeated keys accumulate in order, so multi-component
quantities are written one component per line.

Keys::

    name:       identifier (optional, defaults to the file stem)
    states:     space-separated state names (one line)
    inputs:     space-separated input names (one line)
    params:     space-separated parameter names, assumed nonzero (optional);
                not th<i>/xi<j> with 'inverse:', as those names are taken
                there
    f:          one line per state, the map component in (x, u)
    x0:         state equilibrium, space-separated rationals (one line)
    u0:         input equilibrium, space-separated rationals (one line)
    h:          optional complement function, one line per input
    inverse:    optional inverse chart, one line per coordinate: first the
                states, then the inputs, in terms of th1..thn and xi1..xim
                (these names always mean the adapted coordinates)
    phi:        optional flat-output component, one line per input, in the
                states, inputs, and shifted inputs u<j>_<k>; with a flat
                output no state, input or parameter may be named y1..ym,
                y<j>_<k> or <input>_<k>, as those names are taken there
    Fx:         one line per state, in y<j> and shifts y<j>_<k>
    Fu:         one line per input, same alphabet
    R:          shift orders of the flat output, space-separated (optional)
    state_map:  optional decomposition, one line per state; the x1-block
                components come first, then the x2-block
    input_map:  one line per input; u1-block first, then u2-block
    split:      four integers: dim x1, dim x2, dim u1, dim u2 (one line)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import sympy as sp

from .dtsys import (
    DiscreteTimeSystem,
    FlatOutputCandidate,
    TriangularDecomposition,
    flat_output_symbol,
    inverse_chart_symbols,
)
from .errors import SystemFileError
from .symcore import parse_expr

_KEYS = {"name", "states", "inputs", "params", "f", "x0", "u0", "h",
         "inverse", "phi", "Fx", "Fu", "R", "state_map", "input_map", "split"}

_MAX_SHIFT_ALPHABET = 40


@dataclass
class SystemFile:
    """Parsed contents of a system definition file."""

    system: DiscreteTimeSystem
    flat_output: FlatOutputCandidate | None = None
    decomposition: TriangularDecomposition | None = None


def _collect(text: str) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SystemFileError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise SystemFileError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise SystemFileError(f"line {lineno}: empty value for {key!r}")
        fields.setdefault(key, []).append(value)
    return fields


def _one(fields, key, default=None):
    vals = fields.get(key)
    if vals is None:
        return default
    if len(vals) > 1:
        raise SystemFileError(f"key {key!r} may appear only once")
    return vals[0]


def _names(line: str) -> tuple[sp.Symbol, ...]:
    return tuple(sp.Symbol(nm) for nm in line.split())


def _reject_named_like(symbols, pattern: str, what: str) -> None:
    clash = sorted(s.name for s in symbols if re.fullmatch(pattern, s.name))
    if clash:
        raise SystemFileError(f"{what}: {clash}; rename them")


def _rationals(line: str, count: int, what: str):
    parts = line.split()
    if len(parts) != count:
        raise SystemFileError(f"{what}: expected {count} values, got {len(parts)}")
    try:
        return tuple(sp.Rational(p) for p in parts)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SystemFileError(f"{what}: not a rational: {exc}") from exc


def parse_system_text(text: str, name: str = "system") -> SystemFile:
    fields = _collect(text)
    for key in ("states", "inputs", "f", "x0", "u0"):
        if key not in fields:
            raise SystemFileError(f"missing required key {key!r}")
    states = _names(_one(fields, "states"))
    inputs = _names(_one(fields, "inputs"))
    params = _names(_one(fields, "params", ""))
    base_syms = states + inputs + params
    names = [s.name for s in base_syms]
    duplicates = sorted({nm for nm in names if names.count(nm) > 1})
    if duplicates:
        raise SystemFileError(
            f"names declared twice among states, inputs and params: {duplicates}")
    n, m = len(states), len(inputs)

    f_lines = fields["f"]
    if len(f_lines) != n:
        raise SystemFileError(f"expected {n} 'f:' lines, got {len(f_lines)}")
    f = tuple(parse_expr(t, base_syms) for t in f_lines)
    x0 = _rationals(_one(fields, "x0"), n, "x0")
    u0 = _rationals(_one(fields, "u0"), m, "u0")

    h = None
    if "h" in fields:
        if len(fields["h"]) != m:
            raise SystemFileError(f"expected {m} 'h:' lines")
        h = tuple(parse_expr(t, base_syms) for t in fields["h"])
    inverse = None
    if "inverse" in fields:
        if len(fields["inverse"]) != n + m:
            raise SystemFileError(f"expected {n + m} 'inverse:' lines")
        adapted = inverse_chart_symbols(n, m)
        _reject_named_like(params, "|".join(s.name for s in adapted),
                           "parameters named like adapted coordinates in 'inverse:'")
        inverse = tuple(parse_expr(t, adapted + params)
                        for t in fields["inverse"])

    try:
        system = DiscreteTimeSystem(states=states, inputs=inputs, f=f,
                                    x0=x0, u0=u0, params=params,
                                    complement_h=h, inverse_chart=inverse,
                                    name=_one(fields, "name", name))
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc

    flat = None
    if any(k in fields for k in ("phi", "Fx", "Fu")):
        for key, count in (("phi", m), ("Fx", n), ("Fu", m)):
            if key not in fields:
                raise SystemFileError(f"flat output needs {key!r} lines")
            if len(fields[key]) != count:
                raise SystemFileError(f"expected {count} {key!r} lines")
        shift_syms = tuple(sp.Symbol(f"{u.name}_{k}")
                           for u in inputs for k in range(1, _MAX_SHIFT_ALPHABET))
        y_syms = tuple(flat_output_symbol(j, k)
                       for j in range(m) for k in range(_MAX_SHIFT_ALPHABET))
        # the flat output's names, and those that the verifier reads as
        # shifts (dtsys._y_shift_orders and _shift_order_of)
        shifts = ([r"y\d+_\d+"] + [flat_output_symbol(j, 0).name for j in range(m)]
                  + [re.escape(u.name) + r"_\d+" for u in inputs])
        _reject_named_like(base_syms, "|".join(shifts),
                           "states, inputs or parameters named like flat-output "
                           "symbols or shifted inputs")
        phi = tuple(parse_expr(t, base_syms + shift_syms) for t in fields["phi"])
        Fx = tuple(parse_expr(t, y_syms + params) for t in fields["Fx"])
        Fu = tuple(parse_expr(t, y_syms + params) for t in fields["Fu"])
        R = None
        if "R" in fields:
            parts = _one(fields, "R").split()
            if len(parts) != m:
                raise SystemFileError(f"R: expected {m} integers")
            try:
                R = tuple(int(p) for p in parts)
            except ValueError as exc:
                raise SystemFileError(f"R: {exc}") from exc
        flat = FlatOutputCandidate(phi=phi, F_x=Fx, F_u=Fu, R=R)

    dec = None
    if any(k in fields for k in ("state_map", "input_map", "split")):
        for key, count in (("state_map", n), ("input_map", m)):
            if key not in fields:
                raise SystemFileError(f"decomposition needs {key!r} lines")
            if len(fields[key]) != count:
                raise SystemFileError(f"expected {count} {key!r} lines")
        parts = _one(fields, "split", "").split()
        try:
            split = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise SystemFileError(f"split: {exc}") from exc
        if len(split) != 4:
            raise SystemFileError("split: expected four integers")
        state_map = tuple(parse_expr(t, states + params)
                          for t in fields["state_map"])
        input_map = tuple(parse_expr(t, base_syms) for t in fields["input_map"])
        try:
            dec = TriangularDecomposition(state_map=state_map,
                                          input_map=input_map, split=split)
        except ValueError as exc:
            raise SystemFileError(str(exc)) from exc

    return SystemFile(system=system, flat_output=flat, decomposition=dec)


def parse_system_file(path) -> SystemFile:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemFileError(f"cannot read {p}: {exc}") from exc
    return parse_system_text(text, name=p.stem)
