"""Set-up time of one fresh interpreter: import nlspread, build a workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints one JSON line {"import_s": ..., "build_s": ...}.  Nothing heavier
than the interpreter's own start-up modules is imported before the clock
starts, so import_s is what `nlspread` costs every CLI invocation.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

t0 = time.perf_counter()
import nlspread  # noqa: E402
t1 = time.perf_counter()
if not os.path.abspath(nlspread.__file__).startswith(SRC + os.sep):
    sys.exit(f"nlspread imported from {nlspread.__file__}, not from {SRC}")
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
t2 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
