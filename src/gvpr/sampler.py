"""Graded similarity labels as one columnar table, and mining-free batch composition over them.

A LabelTable is the one form labels take between stages, from relabel to
training; it builds SimilarityLabels only for callers that iterate it.

Labels are bucketed into four similarity bands, and each batch strategy
fills its batch with exact per-band quotas:

  A: 1/2 from [0.5, 1], 1/4 from (0, 0.5), 1/4 from {0}
  B: 1/4 each from [0.75, 1], [0.5, 0.75), (0, 0.5), {0}
  C: 1/3 each from [0.5, 1], (0, 0.5), {0}
  D: 1/2 from [0.5, 1], 1/2 from [0, 0.5)

Sampling is uniform with replacement inside each band group, so small
bands never run dry; quotas hold exactly for every batch, not merely in
expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .io import id_order


class Band(Enum):
    HIGH = "[0.75, 1]"
    MID = "[0.5, 0.75)"
    LOW = "(0, 0.5)"
    ZERO = "{0}"


def _band_codes(psi) -> np.ndarray:
    """The position in ``Band`` of each psi's band, uint8; the first psi outside [0, 1] (NaN too) raises."""
    psi = np.asarray(psi, dtype=np.float64)
    bad = ~((psi >= 0.0) & (psi <= 1.0))
    if bad.any():
        raise ValueError(f"psi must be in [0, 1], got {float(psi[bad].flat[0])}")
    return (psi <= 0.0).astype(np.uint8) + (psi < 0.5) + (psi < 0.75)


def band_of(psi: float) -> Band:
    return tuple(Band)[_band_codes(psi)]


@dataclass(frozen=True)
class SimilarityLabel:
    """One labeled pair; ids are canonically ordered (query_id < map_id)."""

    query_id: str
    map_id: str
    psi: float

    def __post_init__(self):
        if not 0.0 <= self.psi <= 1.0:
            raise ValueError(f"psi must be in [0, 1], got {self.psi}")


@dataclass(frozen=True, eq=False)
class LabelTable:
    """Labels as columns, in label order: ``ids``, the sorted unique ids some label names; ``query``
    and ``map``, each label's intp positions in ``ids``; ``psi``, its float64 similarity."""

    ids: tuple
    query: np.ndarray = field(repr=False)
    map: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, labels) -> LabelTable:
        """A table unchanged, else the table of an iterable of SimilarityLabels, in the order given."""
        if isinstance(labels, cls):
            return labels
        labels, code_of = list(labels), {}
        codes = [code_of.setdefault(ident, len(code_of)) for lab in labels for ident in (lab.query_id, lab.map_id)]
        psi = np.array([lab.psi for lab in labels], dtype=np.float64)
        return cls._coded(list(code_of), np.array(codes, dtype=np.intp), psi)

    @classmethod
    def _coded(cls, names, codes: np.ndarray, psi: np.ndarray) -> LabelTable:
        """The table of labels (names[codes[2k]], names[codes[2k + 1]], psi[k]): ``names`` are
        distinct and each is named by some label."""
        order = id_order(names)
        rank = np.empty(len(names), dtype=np.intp)
        rank[order] = np.arange(len(names))
        return cls(tuple(names[k] for k in order), rank[codes[0::2]], rank[codes[1::2]], psi)

    def __len__(self) -> int:
        return len(self.psi)

    def records(self):
        """(query id, map id, psi) of each label in order, made Python objects 4,096 rows at a time."""
        for lo in range(0, len(self.psi), 4096):
            q, m, v = (column[lo:lo + 4096].tolist() for column in (self.query, self.map, self.psi))
            yield from zip(map(self.ids.__getitem__, q), map(self.ids.__getitem__, m), v)

    def __iter__(self):
        return (SimilarityLabel(*record) for record in self.records())


class BatchStrategy(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


# per strategy: ordered (band group, batch fraction); groups pool their bands
_QUOTAS = {
    BatchStrategy.A: (
        ((Band.HIGH, Band.MID), Fraction(1, 2)),
        ((Band.LOW,), Fraction(1, 4)),
        ((Band.ZERO,), Fraction(1, 4)),
    ),
    BatchStrategy.B: (
        ((Band.HIGH,), Fraction(1, 4)),
        ((Band.MID,), Fraction(1, 4)),
        ((Band.LOW,), Fraction(1, 4)),
        ((Band.ZERO,), Fraction(1, 4)),
    ),
    BatchStrategy.C: (
        ((Band.HIGH, Band.MID), Fraction(1, 3)),
        ((Band.LOW,), Fraction(1, 3)),
        ((Band.ZERO,), Fraction(1, 3)),
    ),
    BatchStrategy.D: (
        ((Band.HIGH, Band.MID), Fraction(1, 2)),
        ((Band.LOW, Band.ZERO), Fraction(1, 2)),
    ),
}

_GROUP_DESC = {
    (Band.HIGH, Band.MID): "[0.5, 1]",
    (Band.LOW, Band.ZERO): "[0, 0.5)",
}


def _group_desc(group) -> str:
    return _GROUP_DESC.get(group, group[0].value)


def strategy_denominator(strategy: BatchStrategy) -> int:
    """Smallest batch size divisor that makes every quota an exact count."""
    denoms = [frac.denominator for _, frac in _QUOTAS[strategy]]
    return int(np.lcm.reduce(denoms))


def check_batch_size(strategy: BatchStrategy, batch_size: int) -> None:
    """Raise ValueError unless ``batch_size`` is positive and splits into the strategy's exact quotas."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    denom = strategy_denominator(strategy)
    if batch_size % denom != 0:
        raise ValueError(f"strategy {strategy.value} needs batch_size divisible by {denom}, got {batch_size}")


@dataclass(frozen=True)
class PairIndex:
    """Label psi values; ``order``, the positions of the labels by band in ``Band`` order, then ascending;
    and per similarity band its run of ``order``, a view."""

    psi: np.ndarray = field(repr=False)
    rows: dict = field(repr=False)
    order: np.ndarray = field(repr=False)

    def band_sizes(self) -> dict:
        return {band: len(self.rows[band]) for band in Band}


@dataclass(frozen=True, eq=False)
class Batch:
    """One training batch: the label rows drawn, in batch order, and their psi values."""

    rows: np.ndarray
    psi: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not len(self.rows):
            raise ValueError("batch must be nonempty")

    def __len__(self) -> int:
        return len(self.rows)

    def band_counts(self) -> dict:
        return dict(zip(Band, np.bincount(_band_codes(self.psi), minlength=len(Band)).tolist()))


class EmptyQuotaGroup(ValueError):
    """A strategy's quota group holds no indexed pair: a fault of the labels, not of the arguments."""


def index_labels(labels) -> PairIndex:
    """Bucket labels (a LabelTable, or what ``LabelTable.of`` takes) by band, in label order."""
    psi = LabelTable.of(labels).psi
    if not len(psi):
        raise ValueError("cannot index an empty label list")
    codes = _band_codes(psi)
    order = np.argsort(codes, kind="stable")  # a radix sort of the uint8 codes
    ends = np.cumsum(np.bincount(codes, minlength=len(Band))).tolist()
    return PairIndex(psi, {band: order[lo:hi] for band, lo, hi in zip(Band, [0, *ends], ends)}, order)


class BatchSampler:
    """Stateful batch stream: one RNG stream per instance, fixed strategy.

    Instances are independent; a single instance is meant for use from one
    thread at a time. ``seed`` may also be a Generator to draw from.
    """

    def __init__(self, idx: PairIndex, strategy: BatchStrategy, batch_size: int, seed=42):
        check_batch_size(strategy, batch_size)
        self.idx = idx
        self.strategy = strategy
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        # every quota group is a run of consecutive bands in Band order, so its label rows are one run of
        # idx.order: per group that run's size and start, and its pair count; config errors surface here
        start = dict(zip(Band, np.cumsum([0] + [len(idx.rows[band]) for band in Band]).tolist()))
        sizes, offsets, counts = [], [], []
        for group, frac in _QUOTAS[strategy]:
            sizes.append(sum(len(idx.rows[band]) for band in group))
            if not sizes[-1]:
                raise EmptyQuotaGroup(
                    f"strategy {strategy.value} needs pairs with psi in {_group_desc(group)}; none indexed"
                )
            offsets.append(start[group[0]])
            counts.append(int(frac * batch_size))
        # per batch slot the size of its group's run and that run's offset in idx.order
        self._rows = idx.order
        self._high = np.repeat(np.array(sizes, dtype=np.int64), counts)
        self._offset = np.repeat(np.array(offsets, dtype=np.int64), counts)

    def next_batch(self) -> Batch:
        """The next batch, from one bounded draw for all its slots; the draw consumes the
        generator as one ``integers(0, len(pool), size=count)`` per quota group, in quota order."""
        rows = self._rows[self._rng.integers(0, self._high) + self._offset]
        return Batch(rows, self.idx.psi[rows])
