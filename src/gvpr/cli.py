"""Command-line pipeline: relabel, overlap3d, train, eval, synth, profile,
calibrate-theta.

Angles and distances cross this boundary in degrees and meters and are
converted to radians once at parse time. Every subcommand takes a
``--seed`` (default 42) where randomness is involved and writes
byte-identical outputs for identical inputs and seed. Exit codes: 0 on
success, 2 on usage errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import embed, relabel, retrieval, surf3d, synth
from .fov2d import FovParams, calibrate_theta
from .sampler import BatchStrategy


def _add_fov_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta-deg", type=float, default=90.0,
                   help="field-of-view opening angle in degrees (default 90)")
    p.add_argument("--radius-m", type=float, default=50.0,
                   help="field-of-view radius in meters (default 50)")
    p.add_argument("--arc-segments", type=int, default=256,
                   help="sector arc discretization (default 256)")


def _fov(args) -> FovParams:
    return FovParams(theta=math.radians(args.theta_deg), r=args.radius_m)


def cmd_relabel(args) -> int:
    table = relabel.load_poses(args.poses)
    if len(table) == 0:
        raise relabel.InputError(args.poses, "no pose records")
    labels = relabel.pairwise_similarity(
        table, _fov(args), candidate_radius=args.candidate_radius_m,
        arc_segments=args.arc_segments,
    )
    relabel.save_labels(args.out, labels)
    counts = relabel.class_counts(labels)
    print(f"labels={len(labels)}")
    for cls in relabel.SimilarityClass:
        print(f"{cls.value}={counts[cls]}")
    return 0


def cmd_overlap3d(args) -> int:
    cloud = surf3d.load_point_cloud(args.cloud)
    poses = surf3d.load_poses_6dof(args.poses)
    if len(poses) < 2:
        raise relabel.InputError(args.poses, "need at least 2 poses to form pairs")
    intr = surf3d.load_intrinsics(args.intrinsics)
    iou = surf3d.iou_matrix(np.stack([surf3d.visible_mask(cloud, pose, intr) for _, pose in poses]))
    iu, ju = np.triu_indices(len(poses), k=1)
    ids = [image_id for image_id, _ in poses]
    labels = relabel.labels_of_pairs(ids, iu.tolist(), ju.tolist(), iou[iu, ju].tolist())
    skipped = len(iu) - len(labels)
    relabel.save_labels(args.out, labels)
    print(f"labels={len(labels)}")
    print(f"skipped_undefined={skipped}")
    return 0


def cmd_train(args) -> int:
    labels = relabel.load_labels(args.labels)
    features = embed.read_features(args.features)
    if not labels:
        raise relabel.InputError(args.labels, "no labels to train on")
    missing = sorted({i for lab in labels for i in (lab.query_id, lab.map_id)} - {fm.id for fm in features})
    if missing:
        raise relabel.InputError(args.labels, f"ids not in {args.features}: {', '.join(missing[:5])}")
    cfg = embed.TrainConfig(
        loss_kind=args.loss,
        tau=args.tau,
        lr0=args.lr,
        lr_decay_after=args.lr_decay_after,
        epochs=args.epochs,
        batch_size=args.batch_size,
        strategy=BatchStrategy[args.strategy],
        seed=args.seed,
    )
    model = embed.init_model(args.d_out, features[0].channels, gem_p=args.gem_p, seed=args.seed)
    trained, trace = embed.train(model, labels, features, cfg)
    embed.save_model(args.out, trained)
    if args.trace:
        rows = [[i, f"{loss:.10g}"] for i, loss in enumerate(trace)]
        relabel.write_csv(args.trace, ["step", "loss"], rows, "\n")
    print(f"steps={len(trace)}")
    print(f"final_loss={trace[-1]:.10g}")
    return 0


@relabel.file_reader
def _file_descriptors(path, model):
    """Descriptors of a features file; maps that parse but do not fit the model fail with the path."""
    ids, matrix = embed.compute_descriptors(model, embed.read_features(path))
    return retrieval.DescriptorSet(tuple(ids), matrix, normalized=True)


def _load_eval_descriptors(parser, args):
    model_mode = args.model or args.query_features or args.map_features
    file_mode = args.query_descriptors or args.map_descriptors
    if model_mode and file_mode:
        parser.error("give either --model with feature files or descriptor files, not both")
    if model_mode:
        if not (args.model and args.query_features and args.map_features):
            parser.error("--model, --query-features and --map-features go together")
        model = embed.load_model(args.model)
        queries = _file_descriptors(args.query_features, model)
        map_set = _file_descriptors(args.map_features, model)
    else:
        if not (args.query_descriptors and args.map_descriptors):
            parser.error("--query-descriptors and --map-descriptors go together")
        queries = retrieval.read_descriptors(args.query_descriptors)
        map_set = retrieval.read_descriptors(args.map_descriptors)
    return queries, map_set


def cmd_eval(args, parser) -> int:
    queries, map_set = _load_eval_descriptors(parser, args)
    ks = sorted({int(k) for k in args.ks.split(",") if k.strip()})
    if not ks:
        parser.error("--ks must list at least one rank")
    if (args.query_poses is None) != (args.map_poses is None):
        parser.error("--query-poses and --map-poses go together")
    # a malformed gt file fails before any whitening or search
    gt = synth.load_ground_truth(args.gt, queries.ids, map_set.ids)
    if not any(gt.values()):
        raise relabel.InputError(args.gt, "every query has an empty positive set; recall undefined")

    if args.pca_dim is not None:
        args.whiten = True
    if args.whiten:
        d_pca = args.pca_dim if args.pca_dim is not None else map_set.dim
        transform = retrieval.fit_pca_whitening(map_set, d_pca)
        map_set = retrieval.apply_whitening(transform, map_set)
        queries = retrieval.apply_whitening(transform, queries)

    rankings = retrieval.nn_search(queries, map_set, max(ks))
    recall = retrieval.recall_at_k(rankings, gt, ks)

    rows = [(f"recall@{k}", f"{recall.percent[k]:.4f}") for k in ks]
    if args.query_poses:
        q_poses = _poses_covering(args.query_poses, queries.ids, "query")
        m_poses = _poses_covering(args.map_poses, (r.hits[0][0] for r in rankings), "map")
        thresholds = _parse_thresholds(parser, args.loc_thresholds)
        loc = retrieval.localization_accuracy(rankings, q_poses, m_poses, thresholds)
        for (meters, rad), pct in loc.items():
            rows.append((f"loc@{meters:g}m_{math.degrees(rad):g}deg", f"{pct:.4f}"))
    rows.append(("queries_evaluated", str(recall.evaluated)))
    rows.append(("queries_excluded", str(recall.excluded)))

    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if args.out:
        relabel.write_csv(args.out, ["metric", "value"], rows, "\n")
    return 0


@relabel.file_reader
def _poses_covering(path, ids, kind: str) -> dict:
    """Image id -> pose of a poses file that must hold every one of ``ids``."""
    poses = {r.image_id: r.pose for r in relabel.load_poses(path).records}
    for ident in ids:
        if ident not in poses:
            raise ValueError(f"missing {kind} pose for {ident!r}")
    return poses


def _parse_thresholds(parser, spec: str):
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            meters, degrees = part.split(":")
            out.append((float(meters), math.radians(float(degrees))))
        except ValueError:
            parser.error(f"bad threshold {part!r}, expected meters:degrees")
    if not out:
        parser.error("--loc-thresholds must list at least one meters:degrees pair")
    return tuple(out)


def cmd_synth(args) -> int:
    cfg = synth.SynthConfig(
        places=args.places,
        images_per_place=args.images_per_place,
        channels=args.channels,
        locations=args.locations,
        seed=args.seed,
    )
    world = synth.generate_world(cfg)
    paths = synth.write_world(args.out_dir, world)
    n_pos = sum(len(v) for v in world.gt_positives.values())
    print(f"train_images={len(world.train_poses)}")
    print(f"map_images={len(world.map_poses)}")
    print(f"query_images={len(world.query_poses)}")
    print(f"gt_positive_pairs={n_pos}")
    for name in sorted(paths):
        print(f"{name}={paths[name]}")
    return 0


def cmd_profile(args) -> int:
    table = relabel.load_poses(args.poses)
    records = relabel.fov_distance_profile(
        table, _fov(args), bins=args.bins, arc_segments=args.arc_segments
    )
    rows = [[f"{t:.6f}", f"{math.degrees(r):.6f}", f"{psi:.6f}"] for t, r, psi in records]
    relabel.write_csv(args.out, ["translation_m", "rotation_deg", "psi"], rows, "\n")
    print(f"records={len(rows)}")
    return 0


def cmd_calibrate_theta(args) -> int:
    theta = calibrate_theta(
        target=args.target,
        delta_t=args.delta_t,
        delta_alpha=math.radians(args.delta_alpha_deg),
        r=args.radius_m,
        arc_segments=args.arc_segments,
    )
    print(f"theta_deg={math.degrees(theta):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvpr",
        description="Graded similarity labels, contrastive training and retrieval evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relabel", help="pose table to graded similarity labels")
    p.add_argument("--poses", required=True, help="poses CSV (id,scene,t0,t1,alpha_deg)")
    p.add_argument("--out", required=True, help="output labels CSV")
    _add_fov_args(p)
    p.add_argument("--candidate-radius-m", type=float, default=math.inf,
                   help="omit pairs farther apart than this (meters, default unlimited)")
    p.set_defaults(func=cmd_relabel)

    p = sub.add_parser("overlap3d", help="3D visible-surface overlap labels")
    p.add_argument("--cloud", required=True, help="point cloud, one `x y z` per line")
    p.add_argument("--poses", required=True, help="6DOF pose CSV (id,r00..r22,t0,t1,t2)")
    p.add_argument("--intrinsics", required=True,
                   help="key-value file with fx, fy, cx, cy, width, height")
    p.add_argument("--out", required=True, help="output labels CSV")
    p.set_defaults(func=cmd_overlap3d)

    p = sub.add_parser("train", help="train a descriptor model on labeled pairs")
    p.add_argument("--labels", required=True, help="labels CSV (query_id,map_id,psi)")
    p.add_argument("--features", required=True, help="binary features file")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--trace", help="optional per-step loss CSV")
    p.add_argument("--loss", choices=["cl", "gcl"], default="gcl",
                   help="binary or graded contrastive loss (default gcl)")
    p.add_argument("--tau", type=float, default=1.0, help="margin (default 1.0)")
    p.add_argument("--lr", type=float, default=None,
                   help="initial learning rate (default 0.1 gcl, 0.01 cl)")
    p.add_argument("--lr-decay-after", type=int, default=250_000,
                   help="cut the rate 10x after this many pairs (default 250000)")
    p.add_argument("--epochs", type=int, default=1, help="passes over the labels (default 1)")
    p.add_argument("--batch-size", type=int, default=64, help="pairs per step (default 64)")
    p.add_argument("--strategy", choices=["A", "B", "C", "D"], default="A",
                   help="batch composition strategy (default A)")
    p.add_argument("--d-out", type=int, default=16, help="descriptor dimension (default 16)")
    p.add_argument("--gem-p", type=float, default=3.0, help="pooling exponent (default 3)")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics for a model or descriptor files")
    p.add_argument("--model", help="model file (with --query-features/--map-features)")
    p.add_argument("--query-features", help="binary features file for queries")
    p.add_argument("--map-features", help="binary features file for the map")
    p.add_argument("--query-descriptors", help="precomputed query descriptor file")
    p.add_argument("--map-descriptors", help="precomputed map descriptor file")
    p.add_argument("--gt", required=True, help="ground-truth positives CSV (query_id,map_id)")
    p.add_argument("--query-poses", help="query poses CSV, enables localization metrics")
    p.add_argument("--map-poses", help="map poses CSV, enables localization metrics")
    p.add_argument("--ks", default="1,5,10", help="recall ranks (default 1,5,10)")
    p.add_argument("--loc-thresholds", default="0.25:2,0.5:5,5:10",
                   help="meters:degrees list (default 0.25:2,0.5:5,5:10)")
    p.add_argument("--whiten", action="store_true", help="PCA-whiten descriptors (fit on map)")
    p.add_argument("--pca-dim", type=int, default=None,
                   help="whitened dimensionality (implies --whiten, default full)")
    p.add_argument("--out", help="optional metrics CSV")
    p.set_defaults(func=lambda args, p=p: cmd_eval(args, p))

    p = sub.add_parser("synth", help="generate a synthetic benchmark world")
    p.add_argument("--out-dir", required=True, help="directory for the world files")
    p.add_argument("--places", type=int, default=48, help="distinct places (default 48)")
    p.add_argument("--images-per-place", type=int, default=20,
                   help="images per place (default 20)")
    p.add_argument("--channels", type=int, default=32, help="feature channels (default 32)")
    p.add_argument("--locations", type=int, default=8,
                   help="feature locations per channel (default 8)")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("profile", help="overlap vs translation/rotation distance records")
    p.add_argument("--poses", required=True, help="poses CSV (id,scene,t0,t1,alpha_deg)")
    p.add_argument("--out", required=True, help="output scatter CSV")
    _add_fov_args(p)
    p.add_argument("--bins", type=int, default=None,
                   help="aggregate into this many translation bins (default: raw pairs)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("calibrate-theta", help="solve the opening angle for a target overlap")
    p.add_argument("--target", type=float, default=0.5,
                   help="target overlap value (default 0.5)")
    p.add_argument("--delta-t", type=float, required=True,
                   help="camera offset in meters, perpendicular to the view axis")
    p.add_argument("--delta-alpha-deg", type=float, required=True,
                   help="heading difference in degrees")
    p.add_argument("--radius-m", type=float, default=50.0,
                   help="field-of-view radius in meters (default 50)")
    p.add_argument("--arc-segments", type=int, default=256,
                   help="sector arc discretization (default 256)")
    p.set_defaults(func=cmd_calibrate_theta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
