"""Write perfbench/expected.json: the outputs every job must reproduce.

    python3 perfbench/make_expected.py

Run it from the root of a source checkout, and only when a change to
gvpr is meant to change its outputs. For each workload and input seed it
builds the inputs, runs one job, checks the job against the workload's
oracle and records the sha256 digest of the output files and, for train
and eval, the model's recall@1. A job that fails its oracle stops the
script before anything is written.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import load_program, pin_blas  # noqa: E402

INPUT_SEEDS = 64  # run.py builds inputs from --seed % INPUT_SEEDS


def main() -> int:
    pin_blas()
    load_program()
    from perfbench.harness import Run, environment, run_job
    from perfbench.workloads import WORKLOADS

    table = {"input_seeds": INPUT_SEEDS, "machine": environment(), "workloads": {}}
    work = ROOT / ".perfbench_run" / "expected"
    for name, workload in WORKLOADS.items():
        refs = table["workloads"][name] = {}
        for seed in range(INPUT_SEEDS):
            shutil.rmtree(work, ignore_errors=True)
            run = Run()
            inp = workload.build(work, seed)
            job = run_job(workload, inp, run)
            failures = run.failures + (workload.check(inp, job.text) if job.ok else [])
            if failures:
                raise SystemExit(f"error: {name} at input seed {seed}: {'; '.join(failures)}")
            refs[str(seed)] = {"digest": job.digest, "recall_at_1_pct": workload.recall(inp, job.text)}
            print(f"{name} {seed} {refs[str(seed)]}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (ROOT / "perfbench" / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
