"""Write every output of fwdflat on a fixed set of inputs, one file per
output, so that two checkouts can be compared byte for byte.

Usage, from the root of a checkout:

    python3 tools/dump_outputs.py OUTDIR

and then, for the outputs of two checkouts, ``diff -r OUTDIR_A OUTDIR_B``.
The outputs are:

- the exit code, stdout and stderr of ``analyze``, ``verify-flat-output``
  and ``verify-decomposition``, each plain, with ``--json`` and with
  ``--trace``, on ``fixtures/*.sys`` and ``tests/golden/systems/*.sys``;
- the same of ``analyze --json --seed 1`` and ``--seed 2`` on those files,
  since no verdict may depend on the random stream;
- the same of ``verify-decomposition``, plain and with ``--json``, on
  variants of the fixtures' decompositions (``DECOMPOSITION_VARIANTS``)
  and on six small systems (``DECOMPOSITION_SYSTEMS``), which between them
  give every reason that the decomposition verifier reports;
- the same of ``verify-flat-output``, plain and with ``--json``, on a
  system whose names clash with the verifier's (``FLAT_OUTPUT_SYSTEMS``);
- the same of ``analyze``, plain, with ``--json`` and with ``--trace``, on
  the systems of ``ANALYZE_SYSTEMS``: four linear systems whose charts are
  found, or supplied, in each of the ways a complement is accepted; five
  trig chains, a cubic, a quintic and ``read3``, whose complements do not
  invert by elimination and whose sequences never read the inverse;
  ``read3b``, whose sequence reads it and exits 3; the transformed
  running example, whose first read adopts a later complement; and three
  systems whose supplied chart is refused with exit 3: a supplied ``h:``
  that leaves (f, h) rank deficient, ``read3b`` with a supplied ``h:``
  that does not invert, and a wrong supplied ``inverse:``;
- the exit code, stdout and stderr of ``verify-flat-output --max-shift -1``
  on ``fixtures/*.sys``;
- for every step ``P_k`` of the sequence of ``fixtures/*.sys`` and of
  chain(3) to chain(6): ``annihilator(P_k)``, ``intersect(P_k, span{df})``
  and ``is_integrable(P_k)``, with ``span{df}`` the span of the reduced
  rows of ``J_f`` (``ROW_SPACE_CHAINS``);
- ``compute_sequence(...).to_json_dict()`` on chain(3) to chain(12);
- the same on the 70 ``linear`` systems of each of the benchmark seeds
  1 to 3, generated by ``bench/workloads.py``;
- the same on the 16 transformed linear systems of the Kalman oracle's
  test, generated from seed 2718 by ``transformed_linear_systems`` of
  ``tests/conftest.py``: polynomial charts whose inverse the sequence
  reads.

That makes 445 outputs.

Every command runs in this process with the zero test configured as the
CLI configures it by default.  The package is imported from ``src/`` of
the checkout that holds this script, and the transformed systems'
generator from its ``tests/conftest.py``, which needs pytest and
hypothesis.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fwdflat import cli, extcalc, flatness, symcore, sysfile  # noqa: E402

COMMANDS = ("analyze", "verify-flat-output", "verify-decomposition")
MODES = {"plain": [], "json": ["--json"], "trace": ["--trace"]}
SEEDS = (1, 2)
SYSTEM_DIRS = (ROOT / "fixtures", ROOT / "tests" / "golden" / "systems")
CHAIN_SIZES = range(3, 13)
ROW_SPACE_CHAINS = range(3, 7)
LINEAR_SEEDS = (1, 2, 3)
KALMAN_SEED, KALMAN_COUNT = 2718, 16

# name -> (fixture, the lines that replace each listed key's lines)
DECOMPOSITION_VARIANTS = {
    "running-split-2111": ("running", {"split": ["2 1 1 1"]}),
    "running-split-1111": ("running", {"split": ["1 1 1 1"]}),
    "running-split-0311": ("running", {"split": ["0 3 1 1"]}),
    "running-x2-row-on-u1": ("running", {"state_map": ["x1", "x3", "x2"],
                                         "input_map": ["u1 - u2", "u2"]}),
    "running-f1-u1-deficient": ("running", {"state_map": ["x1 - x3", "x3", "x2"]}),
    "running-state-map-singular": ("running", {"state_map": ["x3", "x1 - x3", "x3"]}),
    "running-input-map-singular": ("running", {"input_map": ["u2", "u2"]}),
    "running-state-map-nonlinear": ("running", {"state_map": ["x3", "x1**2 - x3", "x2"]}),
    "running-input-map-nonlinear": ("running", {"input_map": ["u2", "u1**3 - u2"]}),
    "academic-x2-row-on-u1": ("academic", {"input_map": ["u1", "u2"]}),
    "academic-split-2311": ("academic", {"split": ["2 3 1 1"]}),
}
# name -> system text
DECOMPOSITION_SYSTEMS = {
    "rank-drop-at-equilibrium": """\
states: x1 x2
inputs: u1
f: x2
f: u1**2 + x1
x0: 0 0
u0: 0
state_map: x2
state_map: x1
input_map: u1
split: 1 1 1 0
""",
    "irrational-equilibrium": """\
states: x1 x2 x3
inputs: u1
f: x2
f: x3
f: u1
x0: 1 1 1
u0: 1
state_map: x3
state_map: x1
state_map: x2 + sin(x1)
input_map: u1
split: 1 2 1 0
""",
    # valid decompositions whose subsystem sequence disagrees with the full
    # system's tail: the full sequence is zero from P_2 on, while the
    # x2-subsystem's starts at span{dx2}
    "split-too-fine": """\
states: x1 x2
inputs: u1 u2
f: u1
f: u2
x0: 0 0
u0: 0 0
state_map: x1
state_map: x2
input_map: u1
input_map: u2
split: 1 1 1 1
""",
    # d f1 / d u1 = sin(x1) - sin(x2) vanishes at the equilibrium (1, 1)
    "rank-drop-at-a-nonzero-angle": """\
states: x1 x2
inputs: u1
f: x1 + 2*x2 - 2 + (sin(x1) - sin(x2))*u1
f: x1
x0: 1 1
u0: 0
state_map: x1
state_map: x2
input_map: u1
split: 1 1 1 0
""",
    # u1 = ub1/xb1 puts cos(ub1/xb1), whose angle has a pole at the
    # transformed equilibrium, into d f1 / d u1
    "angle-pole-at-the-equilibrium": """\
states: x1
inputs: u1
f: sin(u1)
x0: 0
u0: 0
state_map: x1
input_map: x1*u1
split: 1 0 1 0
""",
    # the same through a nonlinear map: the pullback's Jacobian is not constant
    "split-too-fine-nonlinear": """\
states: x1 x2
inputs: u1 u2
f: u1 + x2**2
f: u2
x0: 0 0
u0: 0 0
state_map: x1
state_map: x2 + x1**2
input_map: u1
input_map: u2 + (u1 + x2**2)**2
split: 1 1 1 1
""",
}

# name -> system text, for verify-flat-output
FLAT_OUTPUT_SYSTEMS = {
    # the input u1_1 reads as the shift of u1
    "input-named-like-a-shifted-input": """\
states: x1
inputs: u1 u1_1
f: u1
x0: 0
u0: 0 0
phi: x1
phi: u1
Fx: y1
Fu: y1_1
Fu: y1_2
""",
}

# name -> system text, for analyze
ANALYZE_SYSTEMS = {
    # a constant offset, and a parameter that the exact domain reduces to
    # one: the equilibrium pins the constant term of f to a rational
    "linear-offsets": """\
states: x1 x2 x3
inputs: u1
params: a
f: x2 + 1
f: x3 - x1 + cos(a)**2 + sin(a)**2
f: u1 + x1
x0: 2 1 2
u0: 0
""",
    "linear-affine-h": """\
states: x1 x2 x3
inputs: u1 u2
params: a
f: x2 + u2
f: x3 - x1
f: u1 + u2
h: x1 + sin(a)
h: u2 - a
x0: 0 0 0
u0: 0 0
""",
    "linear-nonlinear-h": """\
states: x1 x2
inputs: u1
f: x2
f: u1 + x1
h: x1 + x2**2
x0: 0 0
u0: 0
""",
    # h = u1 leaves the (f, h) Jacobian rank deficient; h = x1 is chosen
    "linear-first-candidate-deficient": """\
states: x1 x2 x3
inputs: u1
f: x2
f: x3
f: u1
x0: 0 0 0
u0: 0
""",
    "cubic": """\
states: x1 x2 x3
inputs: u1
f: x2 + x1^3
f: x3 + x2^3*x1
f: u1^3 + u1 + x3^2
x0: 0 0 0
u0: 0
""",
    "quintic": """\
states: x1
inputs: u1
f: x1 + u1 + (x1 + u1)^5
x0: 0
u0: 0
""",
    "read3": """\
states: x1 x2
inputs: u1
f: x2^3 + x2 + u1^3 + u1 + x1
f: u1^3 + u1 + x1^3 + 2*x1
x0: 0 0
u0: 0
""",
    "read3b": """\
states: x1 x2
inputs: u1
f: x2^3 + x2 + x1*u1
f: u1^3 + u1 + x1^3 + x1
x0: 0 0
u0: 0
""",
    # the running example after x2 = z2 + z1^2, u1 = v1 + z1*z3,
    # u2 = v2 + z2: (v1, v2) does not invert, (v1, z1) does
    "transformed-running": """\
states: z1 z2 z3
inputs: v1 v2
f: v1 + z1*z3 - z2 - z1^2
f: z1*(v1 + z1*z3 - v2 - z2) - (v1 + z1*z3 - z2 - z1^2)^2
f: v2 + z2
x0: 1/2 1/4 0
u0: 1 -1/4
""",
    # (f, h) = (x2, u1, u1) is rank deficient
    "supplied-h-rank-deficient": """\
states: x1 x2
inputs: u1
f: x2
f: u1
h: u1
x0: 0 0
u0: 0
""",
    # the sequence reads the inverse, and the supplied h does not invert
    "read3b-supplied-h": """\
states: x1 x2
inputs: u1
f: x2^3 + x2 + x1*u1
f: u1^3 + u1 + x1^3 + x1
h: u1
x0: 0 0
u0: 0
""",
    "wrong-supplied-inverse": """\
states: x1
inputs: u1
f: x1 + u1
h: u1
inverse: th1
inverse: xi1 + 1
x0: 0
u0: 0
""",
}


def _trig_chain(n: int) -> str:
    """x_i+ = x_{i+1} + a*sin(x_i), x_n+ = u1, at 0."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    return (f"states: {' '.join(xs)}\ninputs: u1\nparams: a\n"
            + "".join(f"f: {xs[i + 1]} + a*sin({xs[i]})\n" for i in range(n - 1))
            + f"f: u1\nx0: {' '.join('0' * n)}\nu0: 0\n")


ANALYZE_SYSTEMS.update({f"trig-chain-{n}": _trig_chain(n) for n in range(2, 7)})


def _cli_output(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _report(system) -> str:
    """compute_sequence(...).to_json_dict() of a system, or of its text."""
    symcore.configure()
    if isinstance(system, str):
        system = sysfile.parse_system_text(system).system
    report = flatness.compute_sequence(system)
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def _row_space(S) -> str:
    """The type, dimension and basis coefficients of a row space."""
    return f"{type(S).__name__}, dim {S.dim}\n" + "".join(
        "  [" + ", ".join(symcore.render(c) for c in e.coeffs) + "]\n" for e in S.basis)


def _row_spaces(text: str) -> str:
    """annihilator(P_k), intersect(P_k, span{df}) and is_integrable(P_k)
    for every step P_k of the system's sequence."""
    symcore.configure()
    system = sysfile.parse_system_text(text).system
    df = extcalc.Codistribution(system.chart, system.jacobian_rows().reduced()[0])
    out = []
    for step in flatness.compute_sequence(system).steps:
        P = step.P
        out += [f"P_{step.k}: {_row_space(P)}",
                f"annihilator: {_row_space(extcalc.annihilator(P))}",
                f"intersect with span{{df}}: {_row_space(extcalc.intersect(P, df))}",
                f"integrable: {extcalc.is_integrable(P)}\n"]
    return "".join(out)


def _variant(text: str, replace: dict) -> str:
    """text with the lines of each key in replace swapped for new ones."""
    lines = [line for line in text.splitlines()
             if line.split(":")[0].strip() not in replace]
    lines += [f"{key}: {value}" for key, values in replace.items() for value in values]
    return "\n".join(lines) + "\n"


def _decomposition_inputs():
    """(name, system text) of every decomposition variant."""
    for name, (fixture, replace) in DECOMPOSITION_VARIANTS.items():
        yield name, _variant((ROOT / "fixtures" / f"{fixture}.sys").read_text(), replace)
    yield from DECOMPOSITION_SYSTEMS.items()


def outputs():
    """(file name, text) of every output, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _decomposition_inputs():
            # the file stem is the system's name where the text sets none
            path = Path(tmp) / name / "system.sys"
            path.parent.mkdir()
            path.write_text(text)
            for mode in ("plain", "json"):
                yield (f"variant-{name}.verify-decomposition.{mode}.txt",
                       _cli_output(["verify-decomposition", str(path), *MODES[mode]]))
        for name, text in FLAT_OUTPUT_SYSTEMS.items():
            path = Path(tmp) / f"{name}.sys"
            path.write_text(text)
            for mode in ("plain", "json"):
                yield (f"{name}.verify-flat-output.{mode}.txt",
                       _cli_output(["verify-flat-output", str(path), *MODES[mode]]))
        for name, text in ANALYZE_SYSTEMS.items():
            path = Path(tmp) / f"{name}.sys"
            path.write_text(text)
            for mode, flags in MODES.items():
                yield f"{name}.analyze.{mode}.txt", _cli_output(["analyze", str(path), *flags])
    for directory in SYSTEM_DIRS:
        for path in sorted(directory.glob("*.sys")):
            for command in COMMANDS:
                for mode, flags in MODES.items():
                    yield (f"{directory.name}-{path.stem}.{command}.{mode}.txt",
                           _cli_output([command, str(path), *flags]))
            for seed in SEEDS:
                yield (f"{directory.name}-{path.stem}.analyze.json-seed{seed}.txt",
                       _cli_output(["analyze", str(path), "--json",
                                    "--seed", str(seed)]))
    for path in sorted((ROOT / "fixtures").glob("*.sys")):
        yield (f"fixtures-{path.stem}.verify-flat-output.max-shift-negative.txt",
               _cli_output(["verify-flat-output", str(path), "--max-shift", "-1"]))
        yield f"fixtures-{path.stem}.row-spaces.txt", _row_spaces(path.read_text())
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    for n in ROW_SPACE_CHAINS:
        yield f"chain{n}.row-spaces.txt", _row_spaces(workloads.chain_text(n))
    for n in CHAIN_SIZES:
        yield f"chain{n}.json", _report(workloads.chain_text(n))
    for seed in LINEAR_SEEDS:
        for i, (text, _) in enumerate(workloads.linear_systems(seed), start=1):
            yield f"linear-seed{seed}-{i:02d}.json", _report(text)
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import transformed_linear_systems
    systems = transformed_linear_systems(random.Random(KALMAN_SEED), KALMAN_COUNT)
    for i, (_, _, system) in enumerate(systems, start=1):
        yield f"transformed-linear-{i:02d}.json", _report(system)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/dump_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, text in outputs():
        (outdir / name).write_text(text)
        count += 1
    print(f"{count} outputs written to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
