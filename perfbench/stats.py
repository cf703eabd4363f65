"""Arithmetic of the benchmark: job rates, percentiles and per-layer tables."""

from __future__ import annotations

import math
import statistics

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
SAMPLES_BEYOND = 10


def items_per_s(units, seconds) -> float:
    """Median over jobs of each job's work units per second of its wall time."""
    rates = [u / s for u, s in zip(units, seconds, strict=True)]
    if not rates:
        raise ValueError("no jobs to aggregate")
    return statistics.median(rates)


def calibrate(seconds, reference_seconds, nominal: float) -> list:
    """Each wall time scaled to a host on which the reference loop takes ``nominal``.

    ``reference_seconds[i]`` is the reference loop's time right after the
    i-th timed piece of work; a host running at half speed doubles both,
    and the ratio stays.
    """
    return [s * nominal / r for s, r in zip(seconds, reference_seconds, strict=True)]


def tail_percentile(samples, ladder=PERCENTILE_LADDER, beyond=SAMPLES_BEYOND):
    """Highest ladder percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank definition: the p-th percentile is the sample of
    rank ceil(p/100 * n) in ascending order, and the samples beyond it are
    the n - rank larger ones. Returns (p, value, n), or None when even the
    lowest rung leaves fewer than ``beyond`` samples above it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in sorted(ladder):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            best = (p, xs[rank - 1], n)
    return best


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the union of its child intervals inside it."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def span_table(spans) -> dict:
    """Per (phase, name): calls, failed calls, busy seconds and self seconds."""
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    table: dict = {}
    for index, span in enumerate(spans):
        row = table.setdefault((span.phase, span.name), {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["failed"] += span.failed
        row["s"] += span.end - span.start
        row["self_s"] += self_time(span.start, span.end, children.get(index, ()))
    return table
