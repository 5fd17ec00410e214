"""Per-layer spans and counters for the traced run, recorded from outside
the library.

``Tracer.install`` replaces each traced function everywhere a fwdflat module
binds it (``normalize`` is bound in symcore, extcalc, dtsys and flatness) by
a wrapper that records a span; ``Tracer.uninstall`` puts the originals back.
A span's self time is its duration minus that of the spans it directly
encloses; its calls and total time count only the outermost of nested
spans of the same name.  A target missing from the code under test is
listed as absent and its metrics read 0, so renames do not stop the run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# span name -> targets, each "module" + "attribute" or "Class.method"
SPANS = {
    "symcore.normalize": [("symcore", "normalize")],
    "symcore.is_zero": [("symcore", "is_zero")],
    "symcore.rref": [("symcore", "rref")],
    "symcore.parse_expr": [("symcore", "parse_expr")],
    "extcalc.span": [("extcalc", "Codistribution.span"),
                     ("extcalc", "Distribution.span")],
    "extcalc.intersect": [("extcalc", "intersect")],
    "extcalc.invariant_extension": [("extcalc", "invariant_extension")],
    "extcalc.is_integrable": [("extcalc", "is_integrable")],
    "extcalc.contains": [("extcalc", "Codistribution.contains"),
                         ("extcalc", "Distribution.contains")],
    "dtsys.check_submersivity": [("dtsys", "check_submersivity")],
    "dtsys.build_adapted_chart": [("dtsys", "build_adapted_chart")],
    "dtsys.solve_inverse": [("dtsys", "_solve_inverse")],
    "dtsys.backward_shift_oneform": [("dtsys", "backward_shift_oneform")],
    "dtsys.rank_at_point": [("dtsys", "_rank_at_point")],
    "dtsys.forward_shift": [("dtsys", "forward_shift")],
    "dtsys.verify_flat_output": [("dtsys", "verify_flat_output")],
    "dtsys.verify_triangular_decomposition": [
        ("dtsys", "verify_triangular_decomposition")],
    "flatness.pullback": [("flatness", "_pullback_to_adapted")],
    "flatness.equilibrium_checks": [
        ("flatness", "_dim_at_equilibrium"),
        ("flatness", "_intersection_dim_at_equilibrium")],
    "flatness.compute_sequence": [("flatness", "compute_sequence")],
    "sysfile.parse": [("sysfile", "parse_system_text"),
                      ("sysfile", "parse_system_file")],
    "cli.run": [("cli", "run")],
}

# counted, not timed: each call is one random-point sample of the zero test
SAMPLE_TARGET = ("symcore", "_rational_sample")

# (name, unit, better) of every per-layer metric, in report order
METRICS = [m for span in SPANS for m in (
    (f"{span}.self_s", "s", "lower"),
    (f"{span}.total_s", "s", "lower"),
    (f"{span}.calls", "count", "lower"))] + [
    ("symcore.is_zero.sampled_ratio", "ratio", "lower"),
    ("symcore.rref.cells", "count", "lower"),
    ("dtsys.chart_useful_ratio", "ratio", "higher"),
    ("flatness.iterations", "count", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def _fwdflat_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fwdflat" or name.startswith("fwdflat."))]


class Tracer:
    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self.absent: list[str] = []
        self.samples = 0          # _rational_sample calls
        self.sampled_calls = 0    # is_zero calls that sampled at least once
        self.rref_cells = 0
        self.iterations = 0
        self.charts_built = 0
        self.inversions = 0       # automatic inversions + supplied inverses checked
        self._stack: list[list] = []   # [span name, time of enclosed spans]
        self._patches: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        stack, stats = self._stack, self.stats[name]
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(tracer, args) if before is not None else None
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats.self_s += dt - frame[1]
                if outermost:
                    stats.calls += 1
                    stats.total_s += dt
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(tracer, args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.samples += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, module_name, attr, make):
        """Wrap module.attr (or module.Class.method); False if absent."""
        module = sys.modules.get(f"fwdflat.{module_name}")
        if module is None:
            return False
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(meth) if isinstance(cls, type) else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapped = make(original)
        for mod in _fwdflat_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)
        return True

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                if not self._patch(module_name, attr,
                                   lambda fn, name=name: self._span(name, fn)):
                    self.absent.append(f"{name} ({module_name}.{attr})")
        if not self._patch(*SAMPLE_TARGET, self._counter):
            self.absent.append("symcore.is_zero.sampled_ratio "
                               f"({'.'.join(SAMPLE_TARGET)})")

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.self_s"] = s.self_s
            out[f"{name}.total_s"] = s.total_s
            out[f"{name}.calls"] = s.calls
        zc = self.stats["symcore.is_zero"].calls
        out["symcore.is_zero.sampled_ratio"] = self.sampled_calls / zc if zc else 0.0
        out["symcore.rref.cells"] = self.rref_cells
        # 1 when nothing was attempted: no inversion was wasted
        out["dtsys.chart_useful_ratio"] = (self.charts_built / self.inversions
                                           if self.inversions else 1.0)
        out["flatness.iterations"] = self.iterations
        return out


# -- hooks: (before(tracer, args) -> token, after(tracer, args, result, token))

def _is_zero_before(tracer, args):
    return tracer.samples


def _is_zero_after(tracer, args, result, samples_before):
    if tracer.samples > samples_before:
        tracer.sampled_calls += 1


def _rref_before(tracer, args):
    shape = getattr(args[0], "shape", None) if args else None
    if shape is not None:
        tracer.rref_cells += shape[0] * shape[1]


def _build_chart_before(tracer, args):
    if args and getattr(args[0], "inverse_chart", None) is not None:
        tracer.inversions += 1


def _build_chart_after(tracer, args, result, token):
    tracer.charts_built += 1


def _solve_inverse_before(tracer, args):
    tracer.inversions += 1


def _compute_sequence_after(tracer, args, result, token):
    steps = getattr(result, "steps", ())
    tracer.iterations += sum(
        1 for s in steps if getattr(s, "step2_trivial", None) is not None)


_HOOKS = {
    "symcore.is_zero": (_is_zero_before, _is_zero_after),
    "symcore.rref": (_rref_before, None),
    "dtsys.build_adapted_chart": (_build_chart_before, _build_chart_after),
    "dtsys.solve_inverse": (_solve_inverse_before, None),
    "flatness.compute_sequence": (None, _compute_sequence_after),
}
