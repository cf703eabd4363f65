"""Run one workload of the gvpr benchmark and print its metrics.

    python3 perfbench/run.py --workload relabel --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports ``gvpr`` from
``src/`` there, and writes its scratch files, span dumps and per-run
records under ``.perfbench_run/``. Inputs come from the input seed
``seed % input_seeds``; ``perfbench/expected.json`` holds the outputs
every job must reproduce at each input seed. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
and its per-layer metrics with ``--trace 1``. Exit status is 0 when a
result was printed and non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_program() -> None:
    """Make ``gvpr`` importable from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import gvpr
    except ImportError as e:
        raise SystemExit(f"error: cannot import gvpr from {src}: {e}") from None
    if Path(gvpr.__file__).resolve().parent != src / "gvpr":
        raise SystemExit(f"error: imported gvpr from {gvpr.__file__}, not from {src}")


def pin_blas() -> None:
    """One BLAS thread: steady timings on a shared host, and at most nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas()
    load_program()
    from perfbench.harness import measure
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    seed = args.seed % expected["input_seeds"]
    reference = expected["workloads"].get(args.workload, {}).get(str(seed))
    out_dir = ROOT / ".perfbench_run"
    record = measure(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace), out_dir, reference)
    if reference is None:
        record["failures"].append(f"no committed reference for {args.workload} at input seed {seed}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    path = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["seed_given"] = args.seed
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))

    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    tail = record["job_s_tail"]
    print(f"{args.workload}: {record['attempted']} jobs, {record['units_per_job']} {record['unit_of_work']} each, "
          f"job_s median {record['job_s_median']:.4f} over {len(record['job_s_samples'])} timed jobs"
          + (f", p{tail['percentile']:g} {tail['value']:.4f} (n={tail['samples']})" if tail
             else "; too few jobs for a percentile with 10 samples beyond it")
          + (f", recall@1 {record['recall_at_1_pct']:.4f}%" if record["recall_at_1_pct"] is not None else ""))
    print(f"env: {json.dumps(record['env'])}; record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
