"""Command-line pipeline: relabel, overlap3d, train, eval, synth, profile,
calibrate-theta.

Angles and distances cross this boundary in degrees and meters and are
converted to radians once at parse time. Every subcommand takes a
``--seed`` where randomness is involved and writes byte-identical outputs
for identical inputs and seed. An option that sets a library value takes
its default from the library's signature or config field. Exit codes: 0
on success, 2 on usage errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import collections
import math
import sys

import numpy as np

from . import embed, relabel, retrieval, surf3d, synth
from .fov2d import DEFAULT_ARC_SEGMENTS, FovParams, calibrate_theta, check_arc_segments
from .io import InputError, file_reader, id_order, write_csv, write_table
from .sampler import BatchStrategy, EmptyQuotaGroup, check_batch_size


def _add_fov_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta-deg", type=float, default=90.0,
                   help="field-of-view opening angle in degrees (default %(default)g)")
    _add_sector_args(p)


def _add_sector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radius-m", type=float, default=50.0,
                   help="field-of-view radius in meters (default %(default)g)")
    p.add_argument("--arc-segments", type=int, default=DEFAULT_ARC_SEGMENTS,
                   help="sector arc discretization (default %(default)s)")


def _fov(args) -> FovParams:
    return FovParams(theta=math.radians(args.theta_deg), r=args.radius_m)


def cmd_relabel(args) -> int:
    fov = _fov(args)
    check_arc_segments(args.arc_segments)
    relabel.check_candidate_radius(args.candidate_radius_m, fov)
    table = relabel.load_poses(args.poses)
    if len(table) == 0:
        raise InputError(args.poses, "no pose records")
    ids, blocks = relabel.label_blocks(table, fov, args.candidate_radius_m, args.arc_segments)
    counts = collections.Counter()

    def counted():
        for i, j, psi in blocks:
            counts.update(relabel.class_counts(psi))
            yield i, j, psi

    print(f"labels={relabel.save_labels(args.out, ids, counted())}")
    for cls in relabel.SimilarityClass:
        print(f"{cls.value}={counts[cls]}")
    return 0


def cmd_overlap3d(args) -> int:
    cloud = surf3d.load_point_cloud(args.cloud)
    poses = surf3d.load_poses_6dof(args.poses)
    if len(poses) < 2:
        raise InputError(args.poses, "need at least 2 poses to form pairs")
    intr = surf3d.load_intrinsics(args.intrinsics)
    # ranked by id, the cameras' pairs i < j come out in label order: query i, map j
    order = id_order(poses.ids)
    inter = surf3d.intersection_counts(cloud, poses.rotations[order], poses.translations[order], intr)
    written = relabel.save_labels(args.out, [poses.ids[k] for k in order], surf3d.iou_pairs(inter))
    print(f"labels={written}")
    print(f"skipped_undefined={len(poses) * (len(poses) - 1) // 2 - written}")  # pairs of two blind cameras
    return 0


def cmd_train(args, parser) -> int:
    with np.errstate(over="ignore"):
        gem_p = np.float32(args.gem_p)  # the width of the model file's field
    if not (gem_p > 0.0 and np.isfinite(gem_p)):
        parser.error(f"--gem-p must be positive and finite in float32, got {args.gem_p}")
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
    check_batch_size(cfg.strategy, cfg.batch_size)  # the library trains a single label at any batch size
    embed.check_d_out(args.d_out)
    labels = relabel.load_labels(args.labels)
    if not len(labels):
        raise InputError(args.labels, "no labels to train on")
    ids, pooled = embed.file_pools(args.features, args.gem_p)
    rows, missing = _rows_of(ids, labels.ids)
    if missing:
        raise InputError(args.labels, f"ids not in {args.features}: {', '.join(map(repr, missing[:5]))}")
    pooled = pooled[rows]  # the labelled rows, in the order of labels.ids; the file's rows are freed
    model = embed.init_model(args.d_out, pooled.shape[1], gem_p=args.gem_p, seed=args.seed)
    try:
        trained, trace = embed._train(model, labels, embed._checked_pools(pooled, model.gem_p), cfg)
    except EmptyQuotaGroup as e:
        raise InputError(args.labels, e) from None
    except (embed.PoolingOverflow, embed.EmbeddingRejected) as e:
        raise InputError(args.features, e) from None
    embed.save_model(args.out, trained)
    if args.trace:
        rows = [[i, f"{loss:.10g}"] for i, loss in enumerate(trace)]
        write_csv(args.trace, ["step", "loss"], rows, "\n")
    print(f"steps={len(trace)}")
    print(f"final_loss={trace[-1]:.10g}")
    return 0


def _rows_of(ids, wanted) -> tuple:
    """The positions in ``ids`` of each id of ``wanted`` that ``ids`` holds, in order, and the others, in order."""
    row_of = {ident: row for row, ident in enumerate(ids)}
    rows = [row_of.get(ident) for ident in wanted]
    return [row for row in rows if row is not None], [ident for ident, row in zip(wanted, rows) if row is None]


def _load_eval_descriptors(parser, args):
    model_mode = args.model or args.query_features or args.map_features
    file_mode = args.query_descriptors or args.map_descriptors
    if model_mode and file_mode:
        parser.error("give either --model with feature files or descriptor files, not both")
    if model_mode:
        if not (args.model and args.query_features and args.map_features):
            parser.error("--model, --query-features and --map-features go together")
        model = embed.load_model(args.model)
        queries, map_set = (retrieval.DescriptorSet(*embed.file_descriptors(path, model), normalized=True)
                            for path in (args.query_features, args.map_features))
    else:
        if not (args.query_descriptors and args.map_descriptors):
            parser.error("--query-descriptors and --map-descriptors go together")
        queries = retrieval.read_descriptors(args.query_descriptors)
        map_set = retrieval.read_descriptors(args.map_descriptors)
        if queries.dim != map_set.dim:
            raise InputError(args.query_descriptors,
                             f"descriptors of dimension {queries.dim}, but {map_set.dim} in {args.map_descriptors}")
    return queries, map_set


def cmd_eval(args, parser) -> int:
    ks = _parse_ks(parser, args.ks)
    if (args.query_poses is None) != (args.map_poses is None):
        parser.error("--query-poses and --map-poses go together")
    thresholds = _parse_thresholds(parser, args.loc_thresholds)
    if args.pca_dim is not None and args.pca_dim < 1:
        parser.error(f"--pca-dim must be positive, got {args.pca_dim}")
    queries, map_set = _load_eval_descriptors(parser, args)
    map_path = args.map_features or args.map_descriptors
    if max(ks) > len(map_set):
        raise InputError(map_path,
                         f"the map holds {len(map_set)} descriptors, fewer than the {max(ks)} ranks --ks asks for")
    # a malformed gt file fails before any whitening or search
    gt_queries, gt_maps = synth.load_ground_truth(args.gt, queries.ids, map_set.ids)
    if not len(gt_queries):
        raise InputError(args.gt, "every query has an empty positive set; recall undefined")

    if args.pca_dim is not None:
        args.whiten = True
    if args.whiten:
        d_pca = args.pca_dim if args.pca_dim is not None else map_set.dim
        try:  # fit checks d_pca against the map's dimension and row count before any whitening
            transform = retrieval.fit_pca_whitening(map_set, d_pca)
        except ValueError as e:
            raise InputError(map_path, e) from None
        map_set = retrieval.apply_whitening(transform, map_set)
        queries = retrieval.apply_whitening(transform, queries)

    top, _ = retrieval._top_k(queries, map_set, max(ks))
    recall = retrieval._recall(top, gt_queries, gt_maps, ks)

    rows = [(f"recall@{k}", f"{recall.percent[k]:.4f}") for k in ks]
    if args.query_poses:
        q_poses = _poses_covering(args.query_poses, queries.ids, "query")
        m_poses = _poses_covering(args.map_poses, [map_set.ids[i] for i in top[:, 0]], "map")
        loc = retrieval._localization(q_poses, m_poses, thresholds)
        for (meters, rad), pct in loc.items():
            rows.append((f"loc@{meters:g}m_{math.degrees(rad):g}deg", f"{pct:.4f}"))
    rows.append(("queries_evaluated", str(recall.evaluated)))
    rows.append(("queries_excluded", str(recall.excluded)))

    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if args.out:
        write_csv(args.out, ["metric", "value"], rows, "\n")
    return 0


@file_reader
def _poses_covering(path, ids, kind: str) -> np.ndarray:
    """Pose rows (t0, t1, alpha) of ``ids``, in order, from a poses file that must hold every one."""
    table = relabel.load_poses(path)
    rows, missing = _rows_of(table.ids, ids)
    if missing:
        raise ValueError(f"missing {kind} pose for {missing[0]!r}")
    return table.poses[rows]


def _parse_ks(parser, spec: str) -> list:
    try:
        ks = sorted({int(k) for k in spec.split(",") if k.strip()})
    except ValueError:
        parser.error(f"bad --ks {spec!r}, expected positive integer ranks")
    if not ks:
        parser.error("--ks must list at least one rank")
    if ks[0] < 1:
        parser.error(f"--ks ranks must be positive, got {ks[0]}")
    return ks


def _parse_thresholds(parser, spec: str):
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            meters, degrees = map(float, part.split(":"))
        except ValueError:
            parser.error(f"bad threshold {part!r}, expected meters:degrees")
        if not (meters >= 0.0 and degrees >= 0.0):  # also rejects NaN; an infinite bound stays
            parser.error(f"bad threshold {part!r}, meters and degrees must be nonnegative")
        out.append((meters, math.radians(degrees)))
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
    fov = _fov(args)
    relabel.check_bins(args.bins)
    check_arc_segments(args.arc_segments)
    table = relabel.load_poses(args.poses)
    try:  # every option has passed its check, so what the profile rejects is the table's fault
        records = relabel.fov_distance_profile(table, fov, bins=args.bins, arc_segments=args.arc_segments)
    except ValueError as e:
        raise InputError(args.poses, e) from None
    # np.degrees is x * (180 / pi), as math.degrees, bit for bit
    block = (records[:, 0], np.degrees(records[:, 1]), records[:, 2])
    write_table(args.out, ["translation_m", "rotation_deg", "psi"], (), [block], "\n")
    print(f"records={len(records)}")
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
    train = embed.TrainConfig()
    p.add_argument("--loss", choices=sorted(embed.DEFAULT_LR0), default=train.loss_kind,
                   help="binary or graded contrastive loss (default %(default)s)")
    p.add_argument("--tau", type=float, default=train.tau, help="margin (default %(default)s)")
    lr0 = ", ".join(f"{lr:g} {kind}" for kind, lr in embed.DEFAULT_LR0.items())
    p.add_argument("--lr", type=float, help=f"initial learning rate (default {lr0})")
    p.add_argument("--lr-decay-after", type=int, default=train.lr_decay_after,
                   help="cut the rate 10x after this many pairs (default %(default)s)")
    p.add_argument("--epochs", type=int, default=train.epochs, help="passes over the labels (default %(default)s)")
    p.add_argument("--batch-size", type=int, default=train.batch_size, help="pairs per step (default %(default)s)")
    p.add_argument("--strategy", choices=[s.name for s in BatchStrategy], default=train.strategy.name,
                   help="batch composition strategy (default %(default)s)")
    p.add_argument("--d-out", type=int, default=16, help="descriptor dimension (default %(default)s)")
    p.add_argument("--gem-p", type=float, default=embed.DEFAULT_GEM_P, help="pooling exponent (default %(default)g)")
    p.add_argument("--seed", type=int, default=train.seed, help="RNG seed (default %(default)s)")
    p.set_defaults(func=lambda args, p=p: cmd_train(args, p))

    p = sub.add_parser("eval", help="retrieval metrics for a model or descriptor files")
    p.add_argument("--model", help="model file (with --query-features/--map-features)")
    p.add_argument("--query-features", help="binary features file for queries")
    p.add_argument("--map-features", help="binary features file for the map")
    p.add_argument("--query-descriptors", help="precomputed query descriptor file")
    p.add_argument("--map-descriptors", help="precomputed map descriptor file")
    p.add_argument("--gt", required=True, help="ground-truth positives CSV (query_id,map_id)")
    p.add_argument("--query-poses", help="query poses CSV, enables localization metrics")
    p.add_argument("--map-poses", help="map poses CSV, enables localization metrics")
    p.add_argument("--ks", default="1,5,10", help="recall ranks (default %(default)s)")
    loc = ",".join(f"{meters:g}:{math.degrees(rad):g}" for meters, rad in retrieval.DEFAULT_LOC_THRESHOLDS)
    p.add_argument("--loc-thresholds", default=loc, help="meters:degrees list (default %(default)s)")
    p.add_argument("--whiten", action="store_true", help="PCA-whiten descriptors (fit on map)")
    p.add_argument("--pca-dim", type=int, default=None,
                   help="whitened dimensionality (implies --whiten, default full)")
    p.add_argument("--out", help="optional metrics CSV")
    p.set_defaults(func=lambda args, p=p: cmd_eval(args, p))

    p = sub.add_parser("synth", help="generate a synthetic benchmark world")
    p.add_argument("--out-dir", required=True, help="directory for the world files")
    world = synth.SynthConfig()
    p.add_argument("--places", type=int, default=world.places, help="distinct places (default %(default)s)")
    p.add_argument("--images-per-place", type=int, default=world.images_per_place,
                   help="images per place (default %(default)s)")
    p.add_argument("--channels", type=int, default=world.channels, help="feature channels (default %(default)s)")
    p.add_argument("--locations", type=int, default=world.locations,
                   help="feature locations per channel (default %(default)s)")
    p.add_argument("--seed", type=int, default=world.seed, help="RNG seed (default %(default)s)")
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
                   help="target overlap value (default %(default)g)")
    p.add_argument("--delta-t", type=float, required=True,
                   help="camera offset in meters, perpendicular to the view axis")
    p.add_argument("--delta-alpha-deg", type=float, required=True,
                   help="heading difference in degrees")
    _add_sector_args(p)
    p.set_defaults(func=cmd_calibrate_theta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
