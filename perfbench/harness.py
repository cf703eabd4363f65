"""One benchmark run: set up, warm up, check, then time jobs in a closed loop.

A single client in this process runs one job at a time, back to back,
until the run's seconds are spent. Each job and each set-up is followed
by a fixed reference loop that does not touch gvpr; its time measures
how fast the shared host runs at that moment, and the job's time is
scaled by it (``stats.calibrate``). Every job's output files are
digested; a digest that differs from the warm-up job's, or from the
committed reference for the workload and input seed, counts as a failed
operation, and so does a recall@1 that differs from its reference.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import layers, stats
from .tracer import Tracer
from .workloads import run_cli

SETUP_REPEATS = 3
REFERENCE_NOMINAL_S = 0.08  # about the reference loop's time on the machine in README.md
clock = time.perf_counter


@dataclass
class JobResult:
    ok: bool
    seconds: float
    digest: str
    text: str


@dataclass
class Run:
    """Failure and attempt counts of one run; ``failures`` holds messages."""

    attempted: int = 0
    failures: list = field(default_factory=list)


def digest_outputs(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


_GATHER_FROM: list = []  # the reference loop's large array, made on first use


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the steps the jobs are made of.

    Four parts of about equal time, none of them in gvpr: tiny NumPy
    calls, small matrix products, gathers from a 16 MB array, and plain
    Python dict steps. When other tenants load the host, the jobs and
    this loop slow down together.
    """
    if not _GATHER_FROM:
        _GATHER_FROM.append(np.linspace(0.0, 1.0, 2_000_000))
    big = _GATHER_FROM[0]
    idx = (np.arange(20_000) * 7919) % len(big)
    x = np.linspace(0.0, 1.0, 8)
    w = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    xb = np.linspace(0.0, 1.0, 64 * 16).reshape(64, 16)
    acc = 0.0
    start = clock()
    for i in range(5_000):
        y = np.maximum(x * 0.5 + 0.25, 0.1)
        acc += float(y[3])
    for _ in range(1_500):
        z = xb @ w
        acc += float(np.exp(-z * z).sum())
    for i in range(60):
        acc += float(big[(idx + i * 131) % len(big)].sum())
    for i in range(90_000):
        d = {"k": i}
        acc += d["k"] % 7
    return clock() - start


def run_job(workload, inp, run: Run) -> JobResult:
    """Run one job; a non-zero exit or an exception is a failed job."""
    outputs = workload.outputs(inp)
    for path in outputs:
        Path(path).unlink(missing_ok=True)
    gc.collect()
    run.attempted += 1
    start = clock()
    try:
        rc, text = run_cli(workload.job(inp))
    except Exception as e:  # the loop must go on and count it
        seconds = clock() - start
        traceback.print_exc()
        run.failures.append(f"{workload.name}: job raised {type(e).__name__}: {e}")
        return JobResult(False, seconds, "", "")
    seconds = clock() - start
    if rc != 0:
        run.failures.append(f"{workload.name}: job exited {rc}: {text.strip()[-300:]}")
        return JobResult(False, seconds, "", text)
    return JobResult(True, seconds, digest_outputs(outputs), text)


def timed_jobs(workload, inp, digest: str, seconds: float, run: Run) -> tuple:
    """Closed loop for ``seconds``; returns the wall times of the jobs that
    completed and of the reference loop after each."""
    times, refs = [], []
    deadline = clock() + seconds
    while True:
        job = run_job(workload, inp, run)
        if job.ok:
            times.append(job.seconds)
            refs.append(reference_loop())
            if job.digest != digest:
                run.failures.append(f"{workload.name}: output digest differs from the warm-up job")
        if clock() >= deadline:
            return times, refs


def setup(workload, work: Path, seed: int, run: Run):
    """Build inputs and warm up, ``SETUP_REPEATS`` times; keeps the last inputs.

    Returns the inputs, the last warm-up job, and the wall times of the
    set-ups and of the reference loop after each.
    """
    times, refs, digests = [], [], []
    for k in range(SETUP_REPEATS):
        d = work / f"setup{k}"
        start = clock()
        inp = workload.build(d, seed)
        warm = run_job(workload, inp, run)
        times.append(clock() - start)
        refs.append(reference_loop())
        if not warm.ok:
            raise RuntimeError(f"{workload.name}: warm-up job failed: {warm.text.strip()[-300:]}")
        digests.append(warm.digest)
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(d)
    if len(set(digests)) != 1:
        run.failures.append(f"{workload.name}: set-ups from one seed gave different outputs")
    return inp, warm, times, refs


def check_reference(reference, record: dict, run: Run) -> None:
    """Compare the warm-up job's digest and recall with the committed reference."""
    if reference is not None and reference != record:
        run.failures.append(f"outputs differ from the committed reference: {reference} vs {record}")


def job_peak_rss(argv, outputs) -> tuple:
    """Run one job in this process; returns (exit code, output digest, peak RSS in MB).

    The peak is the address space's high-water mark (``VmHWM``), which
    starts afresh at exec. ``ru_maxrss`` would not do: Linux carries it
    across exec, so a child process inherits its parent's peak.
    """
    for path in outputs:
        Path(path).unlink(missing_ok=True)
    rc, _ = run_cli(argv)
    digest = digest_outputs(outputs) if rc == 0 else ""
    status = Path("/proc/self/status").read_text()
    kb = int(next(line for line in status.splitlines() if line.startswith("VmHWM:")).split()[1])
    return rc, digest, kb / 1024.0


# Run by a fresh interpreter: reads (root, argv, outputs) as JSON on stdin and
# prints job_peak_rss's result as JSON on stdout.
_PEAK_CHILD = """
import json, sys
root, argv, outputs = json.load(sys.stdin)
sys.path[:0] = [root + "/src", root]
from perfbench.harness import job_peak_rss
result = job_peak_rss(argv, outputs)
sys.stdout.write(json.dumps(result))
"""
PEAK_CHILD_TIMEOUT_S = 120


def peak_rss_mb(workload, inp, digest: str, run: Run) -> float:
    """Peak resident memory of one job in a fresh interpreter.

    The figure holds the interpreter, NumPy and gvpr as loaded for the job,
    and the job itself; set-up, the timed loop and the oracles stay out.
    ``subprocess.run`` waits for the child on every path out, and kills it
    first if it overruns its timeout.
    """
    root = str(Path(__file__).resolve().parent.parent)
    request = json.dumps([root, [str(a) for a in workload.job(inp)], [str(p) for p in workload.outputs(inp)]])
    run.attempted += 1
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD], input=request, capture_output=True,
                          text=True, cwd=root, timeout=PEAK_CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        run.failures.append(f"{workload.name}: the memory job's process exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
        return 0.0
    rc, got, mb = json.loads(proc.stdout)
    if rc != 0 or got != digest:
        run.failures.append(f"{workload.name}: the job in a fresh process exited {rc} or gave other outputs")
    return mb


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path, reference=None) -> dict:
    """One run of ``workload``; returns the full record with the printed metrics.

    ``reference`` is the committed ``{"digest", "recall_at_1_pct"}`` of the
    workload at ``seed``, or ``None`` for a workload that has none.
    """
    run = Run()
    work = out_dir / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    tracer = Tracer(layers.TARGETS) if trace else None
    try:
        if tracer:
            tracer.install()
        inp, warm, setup_times, setup_refs = setup(workload, work, seed, run)
        if tracer:
            tracer.uninstall()
        run.failures += workload.check(inp, warm.text)
        units = workload.units(inp, warm.text)
        recall = workload.recall(inp, warm.text)
        check_reference(reference, {"digest": warm.digest, "recall_at_1_pct": recall}, run)

        plain, plain_refs = timed_jobs(workload, inp, warm.digest, seconds / 2 if trace else seconds, run)
        if tracer:
            tracer.phase = "jobs"
            tracer.install()
            traced, traced_refs = timed_jobs(workload, inp, warm.digest, seconds / 2, run)
        else:
            peak = peak_rss_mb(workload, inp, warm.digest, run)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if not plain:
        raise RuntimeError(f"{workload.name}: no timed job completed")
    nominal = REFERENCE_NOMINAL_S
    rate = stats.items_per_s([units] * len(plain), stats.calibrate(plain, plain_refs, nominal))
    tail = stats.tail_percentile(plain)
    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "env": environment(),
        "unit_of_work": workload.item, "units_per_job": units,
        "recall_at_1_pct": recall, "digest": warm.digest,
        "setup_s_samples": setup_times, "setup_reference_s_samples": setup_refs,
        "job_s_samples": plain, "job_reference_s_samples": plain_refs,
        "reference_nominal_s": nominal,
        "job_s_median": statistics.median(plain),
        "job_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1], "samples": tail[2]},
        "attempted": run.attempted, "failures": run.failures,
        "metrics": {
            "items_per_s": rate,
            "setup_s": statistics.median(stats.calibrate(setup_times, setup_refs, nominal)),
        },
    }
    if not tracer:
        record["metrics"]["peak_rss_mb"] = peak
    else:
        traced_rate = (stats.items_per_s([units] * len(traced), stats.calibrate(traced, traced_refs, nominal))
                       if traced else 0.0)
        per_layer = layers.layer_metrics(tracer, {"setup": SETUP_REPEATS, "jobs": max(1, len(traced))})
        per_layer["trace.overhead_ratio"] = traced_rate / rate
        record["metrics"] = per_layer
        record["traced_job_s_samples"] = traced
        write_spans(out_dir / "traces" / f"{workload.name}-seed{seed}.json.gz", tracer)
    return record


def write_spans(path: Path, tracer: Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["name", "parent", "start", "end", "failed", "phase"]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": fields, "spans": [list(s) for s in tracer.spans],
                   "counters": [[p, k, v] for (p, k), v in sorted(tracer.counters.items())]}, fh)
    print(f"spans: {len(tracer.spans)} written to {path}", file=sys.stderr)
