#!/usr/bin/env python3
"""Build the benchmark program (bench.exe) and the emc CLI from source, then
run one benchmark measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mcf --seed 1 --seconds 30 --trace 0

The last line bench.exe prints to standard output is the result object; build
output goes to standard error. Exits non-zero without a result when the
checkout cannot be built.
"""

import os
import signal
import subprocess
import sys

DRIVER = "_build/default/perfbench/src/bench.exe"
EMC = "_build/default/bin/emc.exe"
# Environment that would change what the pipeline measures: a result
# cache, a fleet, worker fan-out, tracing or logging set by the caller.
SCRUB = ("EMC_CACHE", "EMC_FLEET", "EMC_JOBS", "EMC_SCALE", "EMC_TRACE",
         "EMC_LOG", "EMC_LOG_FILE", "EMC_ACCESS_LOG", "EMC_RUN_DIR")


def main():
    # SIGTERM during the build unwinds through subprocess.run, which kills
    # and reaps dune before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of an emc checkout\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/src/bench.exe", "./bin/emc.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    env = {k: v for k, v in os.environ.items() if k not in SCRUB}
    # One CPU for the benchmark and every process it starts, so the
    # reference kernel (perfbench/src/hostref.ml) sees the same contention
    # as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    argv = [DRIVER, *sys.argv[1:], "--emc", EMC]
    os.execve(DRIVER, argv, env)


if __name__ == "__main__":
    sys.exit(main())
