import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import gvpr.embed
import gvpr.fov2d
import gvpr.relabel
import gvpr.sampler
from perfbench import harness, layers
from perfbench.tracer import Target, Tracer, _resolve
from perfbench.workloads import Relabel

ROOT = Path(__file__).resolve().parents[2]


def _sites():
    out = {}
    for target in layers.TARGETS:
        owner, attr = _resolve(target.site)
        out[target.site] = vars(owner)[attr]
    return out


@dataclass
class TinyRelabel(Relabel):
    places: int = 2
    images_per_place: int = 3
    mc_pairs: int = 1
    mc_samples: int = 20_000


def test_traced_run_removes_every_wrapper(tmp_path):
    before = _sites()
    record = harness.measure(TinyRelabel(), seed=1, seconds=0.2, trace=True, out_dir=tmp_path)
    assert record["failures"] == []
    assert record["metrics"]["fov2d.fov_overlap.calls"] == 3.0  # the wrappers did run
    after = _sites()
    assert all(after[site] is before[site] for site in before)
    assert gvpr.relabel.fov_overlap is gvpr.fov2d.fov_overlap
    assert "next_batch" in vars(gvpr.sampler.BatchSampler)
    assert (tmp_path / "traces" / "relabel-seed1.json.gz").exists()


def test_wrappers_removed_when_a_traced_call_raises():
    tracer = Tracer([Target("gvpr.embed:gem_pool", "embed.gem_pool")])
    original = gvpr.embed.gem_pool
    tracer.install()
    try:
        assert gvpr.embed.gem_pool is not original
        with pytest.raises(ValueError):
            gvpr.embed.gem_pool([[1.0]], p=-1.0)
    finally:
        tracer.uninstall()
    assert gvpr.embed.gem_pool is original
    (span,) = tracer.spans
    assert span.name == "embed.gem_pool" and span.failed


def test_method_wrapper_binds_and_records_parent():
    tracer = Tracer([Target("gvpr.sampler:BatchSampler.next_batch", "sampler.next_batch"),
                     Target("gvpr.embed:train", "embed.train")])
    tracer.phase = "jobs"
    feats = [gvpr.embed.FeatureMap(f"i{k}", [[float(k + 1), 1.0]]) for k in range(4)]
    labels = [gvpr.relabel.SimilarityLabel("i0", "i1", 0.9), gvpr.relabel.SimilarityLabel("i0", "i2", 0.3),
              gvpr.relabel.SimilarityLabel("i1", "i3", 0.0), gvpr.relabel.SimilarityLabel("i2", "i3", 0.6)]
    cfg = gvpr.embed.TrainConfig(loss_kind="gcl", batch_size=4, epochs=2)
    tracer.install()
    try:
        gvpr.embed.train(gvpr.embed.init_model(2, 1), labels, feats, cfg)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[0] == "embed.train" and names.count("sampler.next_batch") == 2
    assert all(s.parent == 0 and s.phase == "jobs" for s in tracer.spans[1:])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "relabel", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_peak_rss_leaves_out_the_parents_memory(tmp_path):
    wl = TinyRelabel()
    inp = wl.build(tmp_path, seed=1)
    run = harness.Run()
    job = harness.run_job(wl, inp, run)
    held = np.ones(100 * 2**20 // 8)  # 100 MB resident in this process only
    mb = harness.peak_rss_mb(wl, inp, job.digest, run)
    assert run.failures == [] and run.attempted == 2
    assert 10.0 < mb < 100.0 and held.sum() > 0
