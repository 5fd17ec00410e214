"""fwdflat benchmark: time to verdict on four workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {paper,chain,linear,verify} \
        --seed N --seconds S --trace {0,1}

One process and one thread make every timed call, one operation after the
other (a closed loop with one client).  An operation is one verdict or one
verification through a public entry point, and its result is checked
against ``reference.json`` (or, for ``linear``, against the Kalman rank).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
without and one pass with the per-layer wrappers of ``layers.py`` and
prints the per-layer metrics and the tracing overhead.  End-to-end times
are in seconds at a reference speed (see ``Speedometer``), as the machine's
own speed drifts.  The last line of standard output is the JSON result.
See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("paper", "chain", "linear", "verify")

# A cold operation is repeated in a row until its runs in the pass add up to
# MIN_OP_S, at most MAX_REPEATS times, so that the time of a short one
# rests on several samples.
MIN_OP_S = 2.0
MAX_REPEATS = 20
# The machine's speed drifts by up to a third within minutes and changes
# from one second to the next (NOTES.md).  So a fixed pure-Python loop, which
# calls nothing of fwdflat or sympy, is timed for LOOP_STEPS steps between
# timed operations and for SAMPLE_STEPS steps every SAMPLE_PERIOD_S of CPU
# time inside them, from a timer signal; the samples' own time is taken off
# the operation's.  Each time in the JSON result is scaled by REF_S_PER_STEP
# over the loop's mean seconds per step around and inside it: seconds at the
# speed at which one step takes REF_S_PER_STEP.
LOOP_STEPS = 300_000
SAMPLE_STEPS = 20_000
SAMPLE_PERIOD_S = 0.05
REF_S_PER_STEP = 0.036 / LOOP_STEPS
SETUP_REPEATS = 5
OP_LIMIT_S = 60.0
# No operation runs past this point, so a run exits within 180 s.
RUN_LIMIT_S = 165.0


class OpTimeout(BaseException):
    """Raised by the alarm; not an Exception, which library code may catch."""


def _alarm(signum, frame):
    raise OpTimeout


def loop(steps: int) -> float:
    """Seconds that `steps` steps of the fixed loop take."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(steps):
        acc += i * i % 7
    return time.perf_counter() - t0


class Speedometer:
    """The fixed loop's speed around and inside each timed interval."""

    def __init__(self):
        signal.signal(signal.SIGVTALRM, self._sample)
        self.before = loop(LOOP_STEPS)
        self._clear()

    def _clear(self):
        self.steps = 0
        self.loop_s = 0.0
        self.inside_s = 0.0  # seconds the samples took, loop and all

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.loop_s += loop(SAMPLE_STEPS)
        self.steps += SAMPLE_STEPS
        self.inside_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def inside(self):
        """Samples the loop while the body runs."""
        self._clear()
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def scaled(self, seconds: float) -> float:
        """`seconds`, just measured, at the reference speed."""
        after = loop(LOOP_STEPS)
        per_step = ((self.before + after + self.loop_s)
                    / (2 * LOOP_STEPS + self.steps))
        self.before = after
        self._clear()
        return seconds * REF_S_PER_STEP / per_step


def run_op(workload, op, deadline: float, meter: Speedometer | None = None):
    """(seconds, error or None) of one operation, without the time of the
    samples that `meter` takes inside it."""
    workload.before_op()
    limit = min(OP_LIMIT_S, deadline - time.monotonic())
    if limit <= 0:
        return None, "not started: run time limit reached"
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with meter.inside() if meter else contextlib.nullcontext():
            observed = op.call()
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        error = op.check(observed)
    except OpTimeout:
        dt, error = time.perf_counter() - t0, f"exceeded the {limit:.0f} s limit"
    except Exception as exc:  # a failed operation is scored, not fatal
        dt, error = time.perf_counter() - t0, f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt - (meter.inside_s if meter else 0.0), error


def run_passes(workload, deadline: float, seconds: float | None = None):
    """[(label, seconds, error, seconds at the reference speed)] of passes
    over the operations.

    With `seconds`, passes go on until that much time has gone by, stopping
    between operations once every operation has run; short cold operations
    are repeated (see MIN_OP_S), and the times are scaled (see LOOP_STEPS).
    Without it, one pass runs each operation once, as the traced run needs
    for its counts to repeat exactly, and nothing is scaled.
    """
    samples = []
    meter = Speedometer() if seconds else None
    t0 = time.perf_counter()
    for first in itertools.chain([True], itertools.repeat(False)):
        workload.before_pass()
        for op in workload.ops:
            if not first and time.perf_counter() - t0 >= seconds:
                return samples
            spent = 0.0
            for _ in range(MAX_REPEATS if seconds and workload.cold else 1):
                dt, error = run_op(workload, op, deadline, meter)
                dt_scaled = meter.scaled(dt) if meter and dt is not None else None
                samples.append((op.label, dt, error, dt_scaled))
                spent += dt or 0.0
                if error is not None or spent >= MIN_OP_S:
                    break
        if seconds is None:
            return samples


def measure_setup(name: str, seed: int, deadline: float) -> list[tuple[float, float]]:
    """(seconds, scaled seconds) to import fwdflat and build the inputs, in
    fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        dt, dt_scaled = map(float, out.stdout.split()[-2:])
        times.append((dt, dt_scaled))
    return times


def tail(values: list[float]):
    """(value, percentile): the highest percentile with at least 10 values
    beyond it; the maximum when there are fewer than 11 values."""
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def by_operation(samples) -> dict[str, list]:
    rows = defaultdict(list)
    for label, dt, error, dt_scaled in samples:
        rows[label].append((dt, error, dt_scaled))
    return rows


def report_samples(rows) -> None:
    print("seconds of each operation, in the order they ran "
          "(measured, or measured/at the reference speed)")
    for label, runs in rows.items():
        secs = " ".join("-" if dt is None else f"{dt:.4f}" if dt_scaled is None
                        else f"{dt:.4f}/{dt_scaled:.4f}" for dt, _, dt_scaled in runs)
        print(f"  {label:30s} {secs}")
        for _, error, _ in runs:
            if error is not None:
                print(f"    FAILED: {error}")


def fast_mean(values: list[float]) -> float:
    """Mean of the fastest three quarters of `values` (all of up to three).

    The machine's noise only ever slows a run down; averaging what is left
    steadies an operation's time more than a median of a few runs does."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:(3 * len(ordered) + 3) // 4])


def end_to_end(args, workload, deadline) -> tuple[dict, list]:
    """An operation's time is the fast mean of its runs at the reference
    speed; every operation then weighs the same in each metric."""
    setup = measure_setup(args.workload, args.seed, deadline)
    samples = run_passes(workload, deadline, args.seconds)
    rows = by_operation(samples)
    per_op = [fast_mean([dt for *_, dt in runs if dt is not None])
              for runs in rows.values() if any(dt is not None for *_, dt in runs)]
    failed = sum(1 for _, _, error, _ in samples if error is not None)
    tail_s, tail_pct = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(dt for _, dt in setup), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (tail_s, "s"),
        "op_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in per_op)), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    report_samples(rows)
    print("setup runs (s, measured / at the reference speed): "
          + " ".join(f"{dt:.4f}/{dt_scaled:.4f}" for dt, dt_scaled in setup))
    print(f"op_tail_s is p{tail_pct:.1f} of {len(per_op)} operations "
          f"({len(samples)} runs)")
    print(f"failed_ratio {failed}/{len(samples)} = {failed / len(samples):.4f}")
    return metrics, samples


def per_layer(args, workload, deadline) -> tuple[dict, list]:
    from layers import METRICS, Tracer

    t0 = time.perf_counter()
    plain = run_passes(workload, deadline)
    plain_wall = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = run_passes(workload, deadline)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["trace.untraced_pass_s"] = plain_wall
    values["trace.traced_pass_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    units = {name: unit for name, unit, _ in METRICS}
    report_samples(by_operation(traced))
    print(f"{'span':40s} {'calls':>8s} {'self s':>10s} {'total s':>10s}")
    for name, s in tracer.stats.items():
        print(f"{name:40s} {s.calls:8d} {s.self_s:10.4f} {s.total_s:10.4f}")
    for name in ("symcore.is_zero.sampled_ratio", "symcore.rref.cells",
                 "dtsys.chart_useful_ratio", "flatness.iterations"):
        print(f"{name:40s} {values[name]}")
    print("absent: " + (", ".join(tracer.absent) or "none"))
    print(f"tracing overhead {values['trace.overhead_s']:.4f} s "
          f"(traced pass {traced_wall:.4f} s, untraced pass {plain_wall:.4f} s)")
    return {name: (values[name], units[name]) for name, *_ in METRICS}, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        import workloads
        workload = workloads.build(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    # untimed: lets sympy finish importing the modules it loads on first use
    run_op(workload, workload.ops[-1], deadline)

    measure = per_layer if args.trace else end_to_end
    metrics, samples = measure(args, workload, deadline)
    failed = sum(1 for _, _, error, _ in samples if error is not None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
