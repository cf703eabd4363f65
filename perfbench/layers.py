"""What the traced run wraps in gvpr, and the per-layer metrics derived from it.

Span names follow ``<module>.<function>``. Each target is patched where
its caller looks it up: the CLI reaches the modules through attributes
(``relabel.pairwise_similarity``), while ``relabel``, ``embed`` and the
sampler reach their helpers through their own imports.

Each figure is taken from the timed jobs when the layer runs in them and
otherwise from set-up, and is given per job or per set-up accordingly:
``calls``, ``s`` (busy seconds) and ``self_s`` (busy minus child spans)
per unit, and ``us_per_call``. Figures marked computed are derived from
argument sizes, not measured.
"""

from __future__ import annotations

import inspect
import os

from gvpr import fov2d

from .stats import span_table
from .tracer import Target


def _file_bytes(key):
    def observe(tracer, args, kwargs, result):
        tracer.count(key, os.path.getsize(args[0]))
    return observe


def _fov_overlap(tracer, args, kwargs, result):
    bound = inspect.signature(fov2d.fov_overlap).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.count("fov2d.useful", result > 0.0)
    # Sutherland-Hodgman clips against every edge of a sector polygon:
    # apex, arc_segments + 1 arc points, so arc_segments + 2 edges.
    tracer.count("fov2d.clip_edges", bound.arguments["arc_segments"] + 2)


def _load_labels(tracer, args, kwargs, result):
    tracer.count("relabel.load_labels.rows", len(result))


def _index_labels(tracer, args, kwargs, result):
    for band, size in result.band_sizes().items():
        tracer.count(f"sampler.band.{band.name.lower()}", size)


def _nn_search(tracer, args, kwargs, result):
    queries, map_set = args[0], args[1]
    nq, nm = len(queries), len(map_set)
    tracer.count("retrieval.nn_search.flops", 2 * nq * nm * queries.dim)
    tracer.count("retrieval.nn_search.dist_bytes", 8 * nq * nm)


def _recall_at_k(tracer, args, kwargs, result):
    tracer.count("retrieval.excluded_queries", result.excluded)


def _project_points(tracer, args, kwargs, result):
    tracer.count("surf3d.visible_points", len(result))


TARGETS = (
    Target("gvpr.cli:cmd_synth", "cli.synth"),
    Target("gvpr.cli:cmd_relabel", "cli.relabel"),
    Target("gvpr.cli:cmd_train", "cli.train"),
    Target("gvpr.cli:cmd_eval", "cli.eval"),
    Target("gvpr.cli:cmd_overlap3d", "cli.overlap3d"),
    Target("gvpr.relabel:fov_overlap", "fov2d.fov_overlap", _fov_overlap),
    Target("gvpr.relabel:pairwise_similarity", "relabel.pairwise_similarity"),
    Target("gvpr.relabel:load_poses", "relabel.load_poses"),
    Target("gvpr.relabel:save_labels", "relabel.save_labels", _file_bytes("relabel.save_labels.bytes")),
    Target("gvpr.relabel:load_labels", "relabel.load_labels", _load_labels),
    Target("gvpr.embed:index_labels", "sampler.index_labels", _index_labels),
    Target("gvpr.sampler:BatchSampler.next_batch", "sampler.next_batch"),
    Target("gvpr.embed:gcl_loss", "gcl.gcl_loss"),
    Target("gvpr.embed:gcl_grad_d", "gcl.gcl_grad_d"),
    Target("gvpr.embed:train", "embed.train"),
    Target("gvpr.embed:_batch_arrays", "embed._batch_arrays"),
    Target("gvpr.embed:batch_loss_and_grad", "embed.batch_loss_and_grad"),
    Target("gvpr.embed:gem_pool", "embed.gem_pool"),
    Target("gvpr.embed:read_features", "embed.read_features", _file_bytes("embed.read_features.bytes")),
    Target("gvpr.embed:compute_descriptors", "embed.compute_descriptors"),
    Target("gvpr.embed:forward", "embed.forward"),
    Target("gvpr.embed:load_model", "embed.load_model"),
    Target("gvpr.embed:save_model", "embed.save_model"),
    Target("gvpr.retrieval:nn_search", "retrieval.nn_search", _nn_search),
    Target("gvpr.retrieval:recall_at_k", "retrieval.recall_at_k", _recall_at_k),
    Target("gvpr.retrieval:localization_accuracy", "retrieval.localization_accuracy"),
    Target("gvpr.retrieval:fit_pca_whitening", "retrieval.fit_pca_whitening"),
    Target("gvpr.retrieval:apply_whitening", "retrieval.apply_whitening"),
    Target("gvpr.surf3d:load_point_cloud", "surf3d.load_point_cloud"),
    Target("gvpr.surf3d:load_poses_6dof", "surf3d.load_poses_6dof"),
    Target("gvpr.surf3d:project_points", "surf3d.project_points", _project_points),
    Target("gvpr.surf3d:surface_overlap", "surf3d.surface_overlap"),
    Target("gvpr.synth:generate_world", "synth.generate_world"),
    Target("gvpr.synth:write_world", "synth.write_world"),
    Target("gvpr.synth:load_ground_truth", "synth.load_ground_truth"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, units: dict) -> dict:
    """Every per-layer figure by name; ``units`` maps phase -> jobs or set-ups run.

    Layers that never ran in either phase report zeros.
    """
    table = span_table(tracer.spans)
    out = {}
    chosen = {}
    for target in TARGETS:
        name = target.name
        phase = "jobs" if ("jobs", name) in table else "setup"
        row = table.get((phase, name), {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        n = units[phase]
        chosen[name] = (phase, row, n)
        out[f"{name}.calls"] = row["calls"] / n
        out[f"{name}.s"] = row["s"] / n
        out[f"{name}.self_s"] = row["self_s"] / n
        out[f"{name}.us_per_call"] = 1e6 * _ratio(row["s"], row["calls"])

    def total(span_name, key):
        phase, row, n = chosen[span_name]
        return tracer.counters.get((phase, key), 0), row, n

    def per_unit(span_name, key):
        value, _, n = total(span_name, key)
        return value / n

    def per_call(span_name, key):
        value, row, _ = total(span_name, key)
        return _ratio(value, row["calls"])

    out["fov2d.fov_overlap.useful_ratio"] = per_call("fov2d.fov_overlap", "fov2d.useful")
    out["fov2d.clip_edges"] = per_unit("fov2d.fov_overlap", "fov2d.clip_edges")
    out["relabel.save_labels.bytes"] = per_unit("relabel.save_labels", "relabel.save_labels.bytes")
    out["relabel.load_labels.rows"] = per_unit("relabel.load_labels", "relabel.load_labels.rows")
    for band in ("high", "mid", "low", "zero"):
        out[f"sampler.band.{band}"] = per_call("sampler.index_labels", f"sampler.band.{band}")
    out["embed.read_features.mb_per_s"] = _ratio(
        per_unit("embed.read_features", "embed.read_features.bytes") / 1e6, out["embed.read_features.s"])
    for key in ("retrieval.nn_search.flops", "retrieval.nn_search.dist_bytes"):
        out[key] = per_call("retrieval.nn_search", key)
    out["retrieval.excluded_queries"] = per_call("retrieval.recall_at_k", "retrieval.excluded_queries")
    out["surf3d.visible_points_mean"] = per_call("surf3d.project_points", "surf3d.visible_points")
    _, row, _ = chosen["surf3d.surface_overlap"]
    out["surf3d.defined_ratio"] = _ratio(row["calls"] - row["failed"], row["calls"])
    return out
