"""Time one workload set-up in a fresh process: import usd_kit, build the inputs.

Usage: python3 setup_probe.py WORKLOAD SEED WORKDIR
Prints the elapsed seconds.  numpy is imported before the clock starts: its
import is the dependency's cost, not usd_kit's, and it is the most variable
part of a cold start (its median moved between 100 and 170 ms from one
minute to the next on the reference host).  The clock covers importing
usd_kit and the benchmark's input code, and building the inputs.
"""

import sys
import time

import numpy  # noqa: F401

START = time.perf_counter()

import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - START))
