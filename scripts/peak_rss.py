"""Run one `gvpr` subcommand as this interpreter's only child and check its peak RSS.

Usage: PYTHONPATH=src python scripts/peak_rss.py BOUND_MB SUBCOMMAND [ARG ...]

Runs `python -m gvpr.cli SUBCOMMAND ARG ...`, prints its peak RSS (the largest child's
``ru_maxrss``, so the child's own) and exits 0 when the child succeeded under BOUND_MB,
else 1; a child that fails exits with the child's code.
"""

import resource
import subprocess
import sys


def main(argv) -> int:
    bound_mb, *command = argv
    done = subprocess.run([sys.executable, "-m", "gvpr.cli", *command])
    if done.returncode:
        return done.returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{command[0]} peak RSS {peak_mb:.1f} MB (bound {float(bound_mb):g} MB)")
    return 0 if peak_mb < float(bound_mb) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
