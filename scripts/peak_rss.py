"""Run one `gvpr` subcommand as this interpreter's only child and check its peak RSS.

Usage: PYTHONPATH=src python scripts/peak_rss.py BOUND_MB SUBCOMMAND [ARG ...]

Runs `python -m gvpr.cli SUBCOMMAND ARG ...`, prints its peak RSS (the largest child's
``ru_maxrss``, so the child's own) and its wall time, and exits 0 when the child succeeded
under BOUND_MB, else 1; a child that fails exits with the child's code. The wall time is a
report for the log, not a gate.
"""

import resource
import subprocess
import sys
import time


def main(argv) -> int:
    bound_mb, *command = argv
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "gvpr.cli", *command])
    wall = time.perf_counter() - start
    if done.returncode:
        return done.returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{command[0]} peak RSS {peak_mb:.1f} MB (bound {float(bound_mb):g} MB), wall {wall:.1f} s")
    return 0 if peak_mb < float(bound_mb) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
