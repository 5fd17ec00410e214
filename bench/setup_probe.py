"""Set-up time in a fresh interpreter: import fwdflat (which imports sympy)
and build one workload's inputs.  Prints the seconds taken, as measured and
at the reference speed of run.py's Speedometer.

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

from run import Speedometer

meter = Speedometer()
t0 = time.perf_counter()
with meter.inside():
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
dt = time.perf_counter() - t0 - meter.inside_s
print(dt, meter.scaled(dt))
