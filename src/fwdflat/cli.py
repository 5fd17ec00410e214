"""Command line interface.

Subcommands::

    fwdflat analyze FILE               classify the system
    fwdflat verify-flat-output FILE    check the flat output declared in FILE
    fwdflat verify-decomposition FILE  check the triangular decomposition

Exit codes: 0 success (flat / verified), 1 negative result (not flat /
verification failed), 2 input or usage error, 3 adapted-chart inversion
failed, 4 internal inconsistency detected.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from . import symcore
from .dtsys import verify_flat_output
from .errors import (
    FwdflatError,
    InternalInconsistency,
    InversionFailed,
    NotShiftable,
    SystemFileError,
)
from .extcalc import render_oneform
from .flatness import (
    NOT_FORWARD_FLAT,
    compute_sequence,
    decomposability,
    subsystem_consistency_check,
)
from .symcore import render
from .sysfile import parse_system_file

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INVERSION = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fwdflat",
        description="Forward-flatness test for discrete-time systems "
                    "x+ = f(x, u) via a decreasing sequence of integrable "
                    "codistributions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system definition file")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a machine-readable JSON report")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the randomized zero-test (default 0)")
        p.add_argument("--numeric-samples", type=int, default=8,
                       help="sample count of the zero-test cross-check")
        p.add_argument("--max-shift", type=int, default=25,
                       help="cap on forward shifts during verification")
        p.add_argument("--trace", action="store_true",
                       help="print per-iteration progress")

    common(sub.add_parser("analyze", help="classify the system"))
    common(sub.add_parser("verify-flat-output",
                          help="verify the flat output declared in the file"))
    common(sub.add_parser("verify-decomposition",
                          help="verify the triangular decomposition declared "
                               "in the file"))
    return ap


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _cmd_analyze(sf, args) -> int:
    trace = print if args.trace else None
    report = compute_sequence(sf.system, trace=trace)
    lines = [f"system: {report.system_name}",
             f"verdict: {report.verdict}",
             f"k_bar: {report.k_bar}",
             f"dims: {report.dims}"]
    for s in report.steps:
        lines.append(f"  P_{s.k} (dim {s.dim}):")
        for b in s.basis_strings():
            lines.append(f"    {b}")
        if s.step2_trivial is not None:
            lines.append(f"    intersection dim {s.intersection_dim}, "
                         f"Lie derivatives added {s.lie_derivatives_added}")
    dd = decomposability(report)
    if dd is not None:
        lines.append(f"decomposable into blocks of dimensions {dd}")
    if report.obstruction is not None:
        lines.append("obstruction (final nonzero codistribution):")
        for w in report.obstruction:
            lines.append(f"  {render_oneform(w)}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    _emit(report.to_json_dict(), args.as_json, lines)
    return EXIT_NEGATIVE if report.verdict == NOT_FORWARD_FLAT else EXIT_OK


def _cmd_verify_flat_output(sf, args) -> int:
    if sf.flat_output is None:
        raise SystemFileError("the file declares no flat output (phi/Fx/Fu)")
    v = verify_flat_output(sf.system, sf.flat_output, max_shift=args.max_shift)
    payload = {
        "system": sf.system.name,
        "verified": v.ok,
        "residuals": {
            "x": [render(r) for r in v.residuals_x],
            "u": [render(r) for r in v.residuals_u],
            "consistency": [render(r) for r in v.residuals_consistency],
        },
        "failing_components": v.failing_components(),
    }
    lines = [f"system: {sf.system.name}",
             f"flat output verified: {v.ok}"]
    if not v.ok:
        lines.append("failing components: " + ", ".join(v.failing_components()))
        for label, rs in (("x", v.residuals_x), ("u", v.residuals_u),
                          ("consistency", v.residuals_consistency)):
            for i, r in enumerate(rs):
                if r != 0:
                    lines.append(f"  residual {label}[{i + 1}] = {render(r)}")
    _emit(payload, args.as_json, lines)
    return EXIT_OK if v.ok else EXIT_NEGATIVE


def _cmd_verify_decomposition(sf, args) -> int:
    if sf.decomposition is None:
        raise SystemFileError(
            "the file declares no decomposition (state_map/input_map/split)")
    c = subsystem_consistency_check(sf.system, sf.decomposition)
    v = c.decomposition
    payload = {
        "system": sf.system.name,
        "verified": c.ok,
        "split": list(sf.decomposition.split),
        "reasons": c.reasons if v.ok else v.reasons,
        "sequence_dims": c.main_dims,
        "subsystem_sequence_dims": c.subsystem_dims,
    }
    lines = [f"system: {sf.system.name}",
             f"decomposition verified: {c.ok}",
             f"split (dim x1, dim x2, dim u1, dim u2): {sf.decomposition.split}"]
    for r in payload["reasons"]:
        lines.append(f"  {r}")
    if v.ok:
        lines.append(f"sequence dims: {c.main_dims}; "
                     f"subsystem sequence dims: {c.subsystem_dims}")
    _emit(payload, args.as_json, lines)
    return EXIT_OK if c.ok else EXIT_NEGATIVE


def run(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    symcore.configure(seed=args.seed, samples=args.numeric_samples)
    try:
        sf = parse_system_file(args.file)
        if args.command == "analyze":
            return _cmd_analyze(sf, args)
        if args.command == "verify-flat-output":
            return _cmd_verify_flat_output(sf, args)
        return _cmd_verify_decomposition(sf, args)
    except (InternalInconsistency, NotShiftable) as exc:
        print(f"internal inconsistency: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL
    except InversionFailed as exc:
        print(f"inversion failed: {exc}", file=_sys.stderr)
        return EXIT_INVERSION
    except FwdflatError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT


def main() -> None:
    raise SystemExit(run())
