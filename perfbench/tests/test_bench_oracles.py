import json
from pathlib import Path

import numpy as np
import pytest

import gvpr.embed
import gvpr.retrieval
from perfbench import harness, workloads
from perfbench.workloads import WORKLOADS, Eval

ROOT = Path(__file__).resolve().parents[2]


class TinyEval(Eval):
    places = 20
    ranked_queries = 20


@pytest.fixture(scope="module")
def tiny_eval(tmp_path_factory):
    wl = TinyEval()
    inp = wl.build(tmp_path_factory.mktemp("eval"), seed=2)
    return wl, inp


def test_feature_reader_matches_the_program(tiny_eval):
    _, inp = tiny_eval
    path = inp["world"] / "map_features.bin"
    ids, values = workloads.read_feature_file(path)
    maps = gvpr.embed.read_features(path)
    assert ids == [fm.id for fm in maps]
    assert np.array_equal(values, np.stack([fm.values for fm in maps]))


def test_eval_oracle_accepts_the_program(tiny_eval):
    wl, inp = tiny_eval
    job = harness.run_job(wl, inp, harness.Run())
    assert job.ok and wl.check(inp, job.text) == []


def test_eval_oracle_catches_a_whitening_fault(tiny_eval, monkeypatch):
    wl, inp = tiny_eval
    real = gvpr.retrieval.apply_whitening
    monkeypatch.setattr(gvpr.retrieval, "apply_whitening", lambda t, s: real(t, s, renormalize=False))
    job = harness.run_job(wl, inp, harness.Run())
    monkeypatch.undo()
    assert job.ok and wl.check(inp, job.text) != []


def test_reference_mismatch_is_a_failure():
    run = harness.Run()
    harness.check_reference({"digest": "a", "recall_at_1_pct": 50.0}, {"digest": "a", "recall_at_1_pct": 50.0}, run)
    assert run.failures == []
    harness.check_reference({"digest": "a", "recall_at_1_pct": 50.0}, {"digest": "a", "recall_at_1_pct": 49.0}, run)
    assert len(run.failures) == 1


def test_expected_outputs_cover_every_workload_and_input_seed():
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    seeds = {str(s) for s in range(expected["input_seeds"])}
    assert set(expected["workloads"]) == set(WORKLOADS)
    for name, refs in expected["workloads"].items():
        assert set(refs) == seeds, name
        assert all((ref["recall_at_1_pct"] is None) == (name in ("relabel", "overlap3d")) for ref in refs.values())
