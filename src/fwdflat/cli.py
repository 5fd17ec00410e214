"""Command line interface.

Subcommands::

    fwdflat analyze FILE               classify the system
    fwdflat verify-flat-output FILE    check the flat output declared in FILE
    fwdflat verify-decomposition FILE  check the triangular decomposition

Exit codes: 0 success (flat / verified), 1 negative result (not flat /
verification failed), 2 input or usage error, 3 the sequence needed the
inverse of the adapted chart and no complement of full rank inverted (or
a supplied complement or inverse chart gives no chart), 4 internal
inconsistency detected.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys

from . import symcore
from .dtsys import DEFAULT_MAX_SHIFT, verify_flat_output
from .errors import (
    FwdflatError,
    InternalInconsistency,
    InversionFailed,
    NotShiftable,
    SystemFileError,
)
from .flatness import (
    NOT_FORWARD_FLAT,
    compute_sequence,
    subsystem_consistency_check,
)
from .symcore import render
from .sysfile import parse_system_file

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INVERSION = 3
EXIT_INTERNAL = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every ``run``, built on the first call: parsing
    leaves it unchanged, and argparse looks up sys.stdout and sys.stderr
    when it prints, so each call writes to the streams current then."""
    ap = argparse.ArgumentParser(
        prog="fwdflat",
        description="Forward-flatness test for discrete-time systems "
                    "x+ = f(x, u) via a decreasing sequence of integrable "
                    "codistributions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def at_least(minimum):
        """The argparse type of an integer that is at least minimum."""
        def integer(text):
            value = int(text)
            if value < minimum:
                raise argparse.ArgumentTypeError(
                    f"must be at least {minimum}, got {value}")
            return value
        return integer

    def common(p):
        p.add_argument("file", help="system definition file")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a machine-readable JSON report")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the randomized zero-test (default 0)")
        p.add_argument("--numeric-samples", type=at_least(1), default=8,
                       help="sample count of the zero-test cross-check, "
                            "at least 1 (default 8)")
        p.add_argument("--max-shift", type=at_least(0), default=DEFAULT_MAX_SHIFT,
                       help="cap on the forward shifts of verify-flat-output, "
                            f"at least 0 (default {DEFAULT_MAX_SHIFT}); analyze "
                            "and verify-decomposition shift nothing forward, "
                            "so they accept it and ignore it")
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
    d = compute_sequence(sf.system, trace=trace).to_json_dict()
    lines = [f"system: {d['system']}",
             f"verdict: {d['verdict']}",
             f"k_bar: {d['k_bar']}",
             f"dims: {d['dims']}"]
    for s in d["steps"]:
        lines.append(f"  P_{s['k']} (dim {s['dim']}):")
        lines += [f"    {b}" for b in s["basis"]]
        if s["step2_trivial"] is not None:
            lines.append(f"    intersection dim {s['intersection_dim']}, "
                         f"Lie derivatives added {s['lie_derivatives_added']}")
    if d["decomposition_dims"] is not None:
        lines.append("decomposable into blocks of dimensions "
                     f"{d['decomposition_dims']}")
    if d["obstruction"] is not None:
        lines.append("obstruction (final nonzero codistribution):")
        lines += [f"  {w}" for w in d["obstruction"]]
    lines += [f"warning: {w}" for w in d["warnings"]]
    _emit(d, args.as_json, lines)
    return EXIT_NEGATIVE if d["verdict"] == NOT_FORWARD_FLAT else EXIT_OK


def _cmd_verify_flat_output(sf, args) -> int:
    if sf.flat_output is None:
        raise SystemFileError("the file declares no flat output (phi/Fx/Fu)")
    v = verify_flat_output(sf.system, sf.flat_output, max_shift=args.max_shift)
    residuals = {"x": v.residuals_x, "u": v.residuals_u,
                 "consistency": v.residuals_consistency}
    rendered = {label: [render(r) for r in rs] for label, rs in residuals.items()}
    failing = v.failing_components()
    payload = {
        "system": sf.system.name,
        "verified": v.ok,
        "residuals": rendered,
        "failing_components": failing,
    }
    lines = [f"system: {sf.system.name}",
             f"flat output verified: {v.ok}"]
    if not v.ok:
        lines.append("failing components: " + ", ".join(failing))
        for label, rs in residuals.items():
            lines += [f"  residual {label}[{i + 1}] = {text}"
                      for i, (r, text) in enumerate(zip(rs, rendered[label]))
                      if r != 0]
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
