"""Every span of the benchmark's per-layer tracer (bench/layers.py) must
find its targets in the package, or be listed here as known stale: a
target that a change removes would otherwise read as 0 and blind its
per-layer metric without failing anything."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import fwdflat

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"

# span (target) pairs whose target is gone from the package; their metrics
# read 0 until bench/layers.py drops or renames them
STALE = {
    "symcore.rref (symcore.rref)",
    "extcalc.span (extcalc.Distribution.span)",
    "extcalc.contains (extcalc.Distribution.contains)",
    "flatness.pullback (flatness._pullback_to_adapted)",
    "flatness.equilibrium_checks (flatness._intersection_dim_at_equilibrium)",
    "flatness.equilibrium_checks (flatness._dim_at_equilibrium)",
}


def _layers():
    """bench/layers.py as a module, registered only while it loads (its
    dataclass looks its module up there)."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_only_known_stale_targets_are_absent():
    for info in pkgutil.iter_modules(fwdflat.__path__):
        importlib.import_module(f"fwdflat.{info.name}")
    tracer = _layers().Tracer()
    try:
        tracer.install()
        absent = set(tracer.absent)
    finally:
        tracer.uninstall()
    assert absent == STALE
