"""The four benchmark workloads: inputs from a seed, one job, and its oracle.

A job is the call sequence of one ``gvpr`` subcommand, run in-process
through ``gvpr.cli.main``. ``build`` makes a workload's inputs from the
seed, with the CLI itself where the CLI can make them. ``check``
verifies a job's outputs against an oracle that does not share the code
path under test: it parses the model and feature files, pools, whitens
and ranks with its own NumPy code. It returns one message per failed
check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import struct
from pathlib import Path

import numpy as np
from gvpr import cli, retrieval
from gvpr.fov2d import CameraPose2D, FovParams, fov_overlap_mc

from . import corridor


def run_cli(argv) -> tuple:
    """Run ``gvpr <argv>`` in this process; returns (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
    return rc, buf.getvalue()


def cli_step(argv) -> None:
    rc, text = run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"set-up step `gvpr {' '.join(map(str, argv))}` exited {rc}: {text.strip()}")


def synth_world(out_dir: Path, places: int, images_per_place: int, seed: int) -> Path:
    cli_step(["synth", "--out-dir", out_dir, "--places", places,
              "--images-per-place", images_per_place, "--seed", seed])
    return out_dir


def read_rows(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------- oracles

def brute_force_topk(q_ids, q, m_ids, m, k: int, block: int = 32):
    """Top-k map ids and distances per query by explicit differences.

    Ties break by ascending map id: columns are put in id order and the
    sort is stable.
    """
    order = np.argsort(np.array(m_ids), kind="stable")
    m = m[order]
    ids = np.array(m_ids)[order]
    top_ids, top_d = [], []
    for lo in range(0, len(q), block):
        d = np.sqrt(np.sum((q[lo:lo + block, None, :] - m[None, :, :]) ** 2, axis=2))
        idx = np.argsort(d, axis=1, kind="stable")[:, :k]
        top_ids.append(ids[idx])
        top_d.append(np.take_along_axis(d, idx, axis=1))
    return np.concatenate(top_ids), np.concatenate(top_d)


def recall_percent(q_ids, top_ids, positives: dict, ks) -> dict:
    """Recall@k in percent over queries with at least one positive."""
    scored = [(row, positives[qid]) for qid, row in zip(q_ids, top_ids) if positives.get(qid)]
    return {k: 100.0 * sum(any(mid in pos for mid in row[:k]) for row, pos in scored) / len(scored)
            for k in ks}


def read_positives(path) -> dict:
    gt: dict = {}
    for qid, mid in read_rows(path):
        gt.setdefault(qid, set()).add(mid)
    return gt


def read_model(path):
    """Parse a model file independently of ``gvpr.embed.load_model``."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"GVPM":
        raise ValueError("bad model magic")
    _version, d_out, channels, gem_p = struct.unpack("<IIIf", raw[4:20])
    if len(raw) != 20 + 4 * d_out * channels:
        raise ValueError("model file size does not match its header")
    w = np.frombuffer(raw[20:], dtype="<f4").reshape(d_out, channels).astype(np.float64)
    return float(gem_p), w


def read_feature_file(path):
    """Parse a features file independently of ``gvpr.embed.read_features``.

    Returns the ids and an (n, channels, locations) float64 array.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != b"GVPR":
        raise ValueError("bad features magic")
    _version, count, channels, locations = struct.unpack("<IIII", raw[4:20])
    size = 4 * channels * locations
    ids, chunks, pos = [], [], 20
    for _ in range(count):
        (n,) = struct.unpack("<H", raw[pos:pos + 2])
        ids.append(raw[pos + 2:pos + 2 + n].decode("utf-8"))
        pos += 2 + n
        chunks.append(raw[pos:pos + size])
        pos += size
    if pos != len(raw):
        raise ValueError("features file size does not match its records")
    values = np.frombuffer(b"".join(chunks), dtype="<f4").reshape(count, channels, locations)
    return ids, values.astype(np.float64)


def descriptors(model_path, features_path):
    """Unit-norm descriptors W @ GeM(features), computed without ``gvpr``."""
    gem_p, w = read_model(model_path)
    ids, values = read_feature_file(features_path)
    pooled = np.mean(np.maximum(values, 0.0) ** gem_p, axis=2) ** (1.0 / gem_p)
    z = pooled @ w.T
    return ids, z / np.linalg.norm(z, axis=1, keepdims=True)


def whiten(fit, *sets):
    """PCA-whiten ``sets`` with a transform fit on ``fit`` by SVD, then re-normalize.

    Eigenvector signs are left as the SVD gives them: distances do not
    depend on them.
    """
    mean = fit.mean(axis=0)
    _, sv, vt = np.linalg.svd(fit - mean, full_matrices=False)
    proj = vt / np.sqrt(sv ** 2 / (len(fit) - 1) + 1e-9)[:, None]
    out = []
    for x in sets:
        z = (x - mean) @ proj.T
        out.append(z / np.linalg.norm(z, axis=1, keepdims=True))
    return out


def model_recall_at_1(model_path, world: Path) -> float:
    """Recall@1 of a model file on a synth world's query/map split."""
    q_ids, q = descriptors(model_path, world / "query_features.bin")
    m_ids, m = descriptors(model_path, world / "map_features.bin")
    top_ids, _ = brute_force_topk(q_ids, q, m_ids, m, 1)
    return recall_percent(q_ids, top_ids, read_positives(world / "gt.csv"), [1])[1]


# -------------------------------------------------------------- workloads

class Relabel:
    name = "relabel"
    item = "labels written"
    places, images_per_place = 4, 7  # two training places of 7 images: 91 labels, 42 clipped
    theta_deg, radius_m = 90.0, 50.0  # the CLI defaults the job runs with
    mc_pairs, mc_samples = 6, 200_000

    def build(self, d: Path, seed: int) -> dict:
        world = synth_world(d / "world", self.places, self.images_per_place, seed)
        return {"seed": seed, "poses": world / "train_poses.csv", "out": d / "labels.csv"}

    def job(self, inp) -> list:
        return ["relabel", "--poses", inp["poses"], "--out", inp["out"]]

    def outputs(self, inp) -> list:
        return [inp["out"]]

    def units(self, inp, text) -> int:
        return len(read_rows(inp["out"]))

    def recall(self, inp, text):
        return None

    def check(self, inp, text) -> list:
        poses = {row[0]: (row[1], float(row[2]), float(row[3]), float(row[4]))
                 for row in read_rows(inp["poses"])}
        per_scene: dict = {}
        for scene, *_ in poses.values():
            per_scene[scene] = per_scene.get(scene, 0) + 1
        expected = sum(n * (n - 1) // 2 for n in per_scene.values())
        labels = [(q, m, float(psi)) for q, m, psi in read_rows(inp["out"])]
        failures = []
        if len(labels) != expected:
            failures.append(f"relabel: {len(labels)} labels, expected C(n, 2) = {expected}")
        if len({(q, m) for q, m, _ in labels}) != len(labels):
            failures.append("relabel: duplicate pairs")

        def pose(i):
            _, t0, t1, alpha = poses[i]
            return CameraPose2D(t0, t1, math.radians(alpha))

        fov = FovParams(math.radians(self.theta_deg), self.radius_m)
        near = []
        for q, m, psi in labels:
            a, b = pose(q), pose(m)
            if math.hypot(a.t0 - b.t0, a.t1 - b.t1) > 2.0 * fov.r:
                if psi != 0.0:
                    failures.append(f"relabel: {q},{m} beyond 2r has psi {psi}")
            else:
                near.append((q, m, psi))
        rng = np.random.default_rng(inp["seed"])
        picks = rng.choice(len(near), size=min(self.mc_pairs, len(near)), replace=False)
        for n, i in enumerate(sorted(picks)):
            q, m, psi = near[i]
            est, se = fov_overlap_mc(pose(q), pose(m), fov, samples=self.mc_samples, seed=n)
            # 4 standard errors, plus the polygon's discretization and the CSV's rounding
            if abs(psi - est) > 4.0 * se + 1e-3:
                failures.append(f"relabel: {q},{m} psi {psi} vs Monte-Carlo {est:.4f} +- {se:.4f}")
        return failures


class Train:
    name = "train"
    item = "training pairs consumed"
    places, images_per_place = 16, 10  # 80 training images: 3,160 labels
    arc_segments = 8  # cheap labels: fov2d stays out of the job and light in set-up
    epochs, batch_size = 20, 64

    def build(self, d: Path, seed: int) -> dict:
        world = synth_world(d / "world", self.places, self.images_per_place, seed)
        labels = d / "labels.csv"
        cli_step(["relabel", "--poses", world / "train_poses.csv", "--out", labels,
                  "--arc-segments", self.arc_segments])
        return {"seed": seed, "world": world, "labels": labels, "out": d / "model.bin"}

    def job(self, inp) -> list:
        return ["train", "--labels", inp["labels"], "--features", inp["world"] / "train_features.bin",
                "--out", inp["out"], "--epochs", self.epochs, "--batch-size", self.batch_size,
                "--seed", inp["seed"]]

    def outputs(self, inp) -> list:
        return [inp["out"]]

    def units(self, inp, text) -> int:
        return int(key_values(text)["steps"]) * self.batch_size

    def recall(self, inp, text):
        return model_recall_at_1(inp["out"], inp["world"])

    def check(self, inp, text) -> list:
        try:
            gem_p, w = read_model(inp["out"])
        except (OSError, ValueError, struct.error) as e:
            return [f"train: model does not reload: {e}"]
        if not (math.isfinite(gem_p) and np.all(np.isfinite(w))):
            return ["train: model has non-finite weights"]
        return []


class Eval:
    name = "eval"
    item = "queries scored"
    places = 400  # 200 validation places: 2,000 queries x 2,000 map images
    model_places, model_images_per_place, model_arc_segments, model_epochs = 8, 10, 8, 5
    ks = (1, 5, 10)  # the CLI's default --ks
    ranked_queries = 500  # queries whose whole ranking is checked

    def build(self, d: Path, seed: int) -> dict:
        world = synth_world(d / "world", self.places, 20, seed)
        # the same seed gives the small world the same feature sensitivities
        small = synth_world(d / "small", self.model_places, self.model_images_per_place, seed)
        labels, model = d / "small_labels.csv", d / "model.bin"
        cli_step(["relabel", "--poses", small / "train_poses.csv", "--out", labels,
                  "--arc-segments", self.model_arc_segments])
        cli_step(["train", "--labels", labels, "--features", small / "train_features.bin",
                  "--out", model, "--epochs", self.model_epochs, "--seed", seed])
        return {"seed": seed, "world": world, "model": model, "out": d / "metrics.csv"}

    def job(self, inp) -> list:
        w = inp["world"]
        return ["eval", "--model", inp["model"], "--query-features", w / "query_features.bin",
                "--map-features", w / "map_features.bin", "--gt", w / "gt.csv", "--whiten",
                "--query-poses", w / "query_poses.csv", "--map-poses", w / "map_poses.csv",
                "--out", inp["out"]]

    def outputs(self, inp) -> list:
        return [inp["out"]]

    def _metrics(self, inp) -> dict:
        return dict(read_rows(inp["out"]))

    def units(self, inp, text) -> int:
        m = self._metrics(inp)
        return int(m["queries_evaluated"]) + int(m["queries_excluded"])

    def recall(self, inp, text):
        return float(self._metrics(inp)["recall@1"])

    def check(self, inp, text) -> list:
        w = inp["world"]
        q_ids, q = descriptors(inp["model"], w / "query_features.bin")
        m_ids, m = descriptors(inp["model"], w / "map_features.bin")
        q, m = whiten(m, q, m)
        k = max(self.ks)
        top_ids, top_d = brute_force_topk(q_ids, q, m_ids, m, k)

        failures = []
        # The program's search on the oracle's descriptors, ranking by ranking.
        picks = np.random.default_rng(inp["seed"]).choice(len(q_ids), size=self.ranked_queries, replace=False)
        sub = retrieval.DescriptorSet(tuple(q_ids[i] for i in picks), q[picks], normalized=True)
        rankings = retrieval.nn_search(sub, retrieval.DescriptorSet(tuple(m_ids), m, normalized=True), k)
        tol = 1e-7  # the program's expanded-form distances differ in the last bits
        row_of = {mid: i for i, mid in enumerate(m_ids)}
        bad = 0
        for i, r in zip(picks, rankings):
            got_ids = [mid for mid, _ in r.hits]
            got_d = np.array([dist for _, dist in r.hits])
            ok = np.allclose(got_d, top_d[i], rtol=0.0, atol=tol)
            if got_ids != list(top_ids[i]):  # a different order is accepted only among near-ties
                own = np.linalg.norm(m[[row_of[mid] for mid in got_ids]] - q[i], axis=1)
                ok = ok and np.allclose(own, got_d, rtol=0.0, atol=tol) and np.all(np.diff(got_d) >= -tol)
            bad += not ok
        if bad:
            failures.append(f"eval: {bad} of {len(rankings)} rankings differ from brute force")

        # The job's CSV against recall recomputed from the brute-force rankings.
        positives = read_positives(w / "gt.csv")
        oracle = {f"recall@{kk}": f"{v:.4f}" for kk, v in recall_percent(q_ids, top_ids, positives, self.ks).items()}
        evaluated = sum(bool(positives.get(qid)) for qid in q_ids)
        oracle.update(queries_evaluated=str(evaluated), queries_excluded=str(len(q_ids) - evaluated))
        reported = self._metrics(inp)
        for key, want in oracle.items():
            if reported.get(key) != want:
                failures.append(f"eval: {key} {reported.get(key)} vs recomputed {want}")
        return failures


class Overlap3d:
    name = "overlap3d"
    item = "camera pairs labeled"
    points, cameras = 20_000, 50  # 1,225 camera pairs

    def build(self, d: Path, seed: int) -> dict:
        scene = corridor.generate_scene(self.points, self.cameras, seed)
        paths = corridor.write_scene(d / "scene", scene)
        return {"seed": seed, "scene": scene, "out": d / "labels3d.csv", **paths}

    def job(self, inp) -> list:
        return ["overlap3d", "--cloud", inp["cloud"], "--poses", inp["poses"],
                "--intrinsics", inp["intrinsics"], "--out", inp["out"]]

    def outputs(self, inp) -> list:
        return [inp["out"]]

    def units(self, inp, text) -> int:
        return len(read_rows(inp["out"]))

    def recall(self, inp, text):
        return None

    def check(self, inp, text) -> list:
        scene = inp["scene"]
        iou = corridor.iou_matrix(corridor.visibility_matrix(scene))
        index = {ident: i for i, ident in enumerate(scene.ids)}
        iu, ju = np.triu_indices(len(scene.ids), k=1)
        expected = int(np.sum(~np.isnan(iou[iu, ju])))
        rows = read_rows(inp["out"])
        failures = []
        if len(rows) != expected:
            failures.append(f"overlap3d: {len(rows)} labels, expected {expected} defined pairs")
        bad = sum(abs(float(psi) - iou[index[q], index[m]]) > 5e-7 + 1e-12 for q, m, psi in rows)
        if bad:
            failures.append(f"overlap3d: {bad} IoUs differ from the visibility-matrix oracle")
        return failures


WORKLOADS = {w.name: w for w in (Relabel(), Train(), Eval(), Overlap3d())}
