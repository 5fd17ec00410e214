"""Inputs, operations and reference checks of the four benchmark workloads.

Importing this module imports fwdflat from ``src/`` of the checkout that
holds this directory; it raises ImportError when that package is missing.
Every operation calls one public entry point (``cli.run``,
``compute_sequence`` or ``verify_flat_output``) and returns the fields that
are compared with ``reference.json``.  Functions are looked up on their
module at call time, so the wrappers of a traced run are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

sys.path.insert(0, str(SRC))
import sympy as sp  # noqa: E402
from sympy.core.cache import clear_cache  # noqa: E402

import fwdflat  # noqa: E402
from fwdflat import cli, dtsys, flatness, symcore, sysfile  # noqa: E402

if not Path(fwdflat.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"fwdflat was imported from {fwdflat.__file__}, not {SRC}")

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# The zero test's seed and sample count, as the CLI defaults set them.
ZERO_TEST_SEED = 0
ZERO_TEST_SAMPLES = 8


@dataclass
class Op:
    """One timed operation: a verdict or a verification."""

    label: str
    call: Callable[[], dict]
    expected: dict

    def check(self, observed: dict) -> str | None:
        """The first field whose observed value differs from the reference."""
        for key, want in self.expected.items():
            got = observed.get(key)
            if got != want:
                return f"{key}: got {got!r}, expected {want!r}"
        return None


@dataclass
class Workload:
    ops: list[Op]
    cold: bool  # clear sympy's cache before every operation, not once a pass

    def before_pass(self) -> None:
        if not self.cold:
            clear_cache()

    def before_op(self) -> None:
        if self.cold:
            clear_cache()
        symcore.configure(seed=ZERO_TEST_SEED, samples=ZERO_TEST_SAMPLES)


# --------------------------------------------------------------------------
# paper: the CLI operations the fixtures declare

# Cold workloads list their slowest operations first, so that a run cut
# short by --seconds still repeats the operations that set op_tail_s.
PAPER_OPS = (
    ("analyze", "vtol"),
    ("verify-decomposition", "academic"),
    ("analyze", "academic"),
    ("verify-decomposition", "running"),
    ("analyze", "running"),
    ("verify-flat-output", "running"),
    ("analyze", "nonflat"),
)


def _cli_op(command: str, fixture: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([command, str(FIXTURES / f"{fixture}.sys"), "--json"])
    observed = {"exit": code}
    if out.getvalue().strip():
        observed.update(json.loads(out.getvalue()))
    return observed


def _paper(seed: int) -> Workload:
    for _, fixture in PAPER_OPS:
        if not (FIXTURES / f"{fixture}.sys").is_file():
            raise FileNotFoundError(FIXTURES / f"{fixture}.sys")
    ops = [Op(f"{cmd} {fx}", lambda cmd=cmd, fx=fx: _cli_op(cmd, fx),
              REFERENCE["paper"][f"{cmd} {fx}"])
           for cmd, fx in PAPER_OPS]
    return Workload(ops, cold=True)


# --------------------------------------------------------------------------
# chain(n) and its flat output y = x1

CHAIN_SIZES = (6, 5, 4, 3)
CHAIN_VERIFY_SIZES = (4, 3)


def chain_text(n: int, flat_output: bool = False) -> str:
    lines = [f"name: chain{n}",
             "states: " + " ".join(f"x{i}" for i in range(1, n + 1)),
             "inputs: u1"]
    lines += [f"f: x{i + 1} + x{i}*x{i + 1}" for i in range(1, n)]
    lines += ["f: u1", "x0: " + " ".join("0" * n), "u0: 0"]
    if flat_output:
        # x1 = y and x_{k+1} = delta(x_k)/(1 + x_k); u1 = delta(x_n)
        y = [sp.Symbol("y1")] + [sp.Symbol(f"y1_{k}") for k in range(1, n + 1)]
        shift = dict(zip(y, y[1:]))
        xs = [y[0]]
        for _ in range(n - 1):
            xs.append(sp.cancel(xs[-1].xreplace(shift) / (1 + xs[-1])))
        lines += ["phi: x1"] + [f"Fx: {e}" for e in xs]
        lines += [f"Fu: {xs[-1].xreplace(shift)}", f"R: {n}"]
    return "\n".join(lines) + "\n"


def _compute_op(system) -> dict:
    report = flatness.compute_sequence(system)
    return {"verdict": report.verdict, "dims": list(report.dims)}


def _chain(seed: int) -> Workload:
    ops = []
    for n in CHAIN_SIZES:
        system = sysfile.parse_system_text(chain_text(n)).system
        ops.append(Op(f"chain{n}", lambda s=system: _compute_op(s),
                      REFERENCE["chain"][f"chain{n}"]))
    return Workload(ops, cold=True)


# --------------------------------------------------------------------------
# linear: seeded random (A, B) with the Kalman rank as the oracle

# Times sort by (n, m) into n = 3, n = 4, (5, 2), (5, 1), (6, 2), (6, 1).  With
# 70 systems, op_p50_s falls in the middle of the 14 with (5, 2) and
# op_tail_s, the 60th, in the middle of the 7 with (6, 2), not on the edge
# of a group, where the seed would decide which group it reads.
LINEAR_COUNT = 70


def _kalman_dims(A: sp.Matrix, B: sp.Matrix) -> list[int]:
    """[n, n - rank R_1, n - rank R_2, ...] until it reaches 0 or repeats,
    with R_k = [B, AB, ..., A^(k-1) B]."""
    n = A.rows
    dims = [n]
    blocks = [B]
    while dims[-1] > 0:
        d = n - sp.Matrix.hstack(*blocks).rank()
        if d == dims[-1]:
            break
        dims.append(d)
        blocks.append(A * blocks[-1])
    return dims


def linear_systems(seed: int, count: int = LINEAR_COUNT):
    """(text, expected) for `count` submersive systems x+ = Ax + Bu with
    entries in -2..2 and rank B = m.

    Every seed gets the same mix of sizes, so that seeds differ only in the
    entries.  Times cluster by n; with n = 3..6 equally often, the median
    would fall in the gap between the n = 4 and n = 5 clusters and jump
    from one to the other, so n = 5 comes twice as often and holds it.
    """
    rng = random.Random(seed)
    sizes = itertools.cycle([(n, m) for n in (3, 4, 5, 5, 6) for m in (1, 2)])
    out = []
    while len(out) < count:
        n, m = next(sizes)
        while True:
            A = sp.Matrix(n, n, lambda i, j: rng.randint(-2, 2))
            B = sp.Matrix(n, m, lambda i, j: rng.randint(-2, 2))
            if sp.Matrix.hstack(A, B).rank() == n and B.rank() == m:
                break
        xs = sp.Matrix(sp.symbols(f"x1:{n + 1}"))
        us = sp.Matrix(sp.symbols(f"u1:{m + 1}"))
        f = A * xs + B * us
        dims = _kalman_dims(A, B)
        verdict = ("StaticFeedbackLinearizable" if dims[-1] == 0
                   else "NotForwardFlat")
        text = "\n".join(
            [f"name: linear{len(out) + 1}",
             "states: " + " ".join(map(str, xs)),
             "inputs: " + " ".join(map(str, us))]
            + [f"f: {e}" for e in f]
            + ["x0: " + " ".join("0" * n), "u0: " + " ".join("0" * m)]) + "\n"
        out.append((text, {"verdict": verdict, "dims": dims}))
    return out


def _linear(seed: int) -> Workload:
    ops = []
    for text, expected in linear_systems(seed):
        system = sysfile.parse_system_text(text).system
        label = f"{system.name} n={system.n} m={system.m}"
        ops.append(Op(label, lambda s=system: _compute_op(s), expected))
    return Workload(ops, cold=False)


# --------------------------------------------------------------------------
# verify: flat-output verification, good and perturbed candidates

def _verify_op(system, candidate) -> dict:
    v = dtsys.verify_flat_output(system, candidate)
    return {"verified": v.ok, "failing": v.failing_components()}


def _perturbed(text: str, key: str, index: int) -> str:
    """The fixture text with `key` line number `index` (1-based) plus 1."""
    lines, seen = [], 0
    for line in text.splitlines():
        if line.split(":", 1)[0].strip() == key:
            seen += 1
            if seen == index:
                k, v = line.split(":", 1)
                line = f"{k}: ({v.strip()}) + 1"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _verify(seed: int) -> Workload:
    running = (FIXTURES / "running.sys").read_text()
    cases = [(f"chain{n}", chain_text(n, flat_output=True))
             for n in CHAIN_VERIFY_SIZES]
    cases += [("running", running)]
    cases += [(f"running {key}{i}+1", _perturbed(running, key, i))
              for key, count in (("Fx", 3), ("Fu", 2))
              for i in range(1, count + 1)]
    ops = []
    for label, text in cases:
        sf = sysfile.parse_system_text(text, name=label)
        ops.append(Op(label, lambda s=sf.system, c=sf.flat_output: _verify_op(s, c),
                      REFERENCE["verify"][label]))
    return Workload(ops, cold=True)


BUILDERS = {"paper": _paper, "chain": _chain, "linear": _linear,
            "verify": _verify}


def build(name: str, seed: int) -> Workload:
    """The workload's operations; `seed` drives the linear generator only."""
    return BUILDERS[name](seed)
