"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  This process notes the time and
starts ``measure.py`` in a fresh interpreter, so ``setup_s`` counts that
interpreter's start, ``import sl3webs`` and the building of the inputs,
and ``peak_rss_mib`` is the measuring process's alone.  The last line of
standard output is the result as one JSON object; the exit code is 0 only
when a result was printed.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("combinatorial_sweep", "geometric_crossval", "hull_closure", "web_reduction")
# a run must end within 180 s; leave room for this process itself
CHILD_TIMEOUT_S = 170


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    here = os.path.dirname(os.path.abspath(__file__))
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        os.path.join(here, "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"measuring process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
