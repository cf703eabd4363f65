"""Mining-free batch composition over graded similarity labels.

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


class Band(Enum):
    HIGH = "[0.75, 1]"
    MID = "[0.5, 0.75)"
    LOW = "(0, 0.5)"
    ZERO = "{0}"


def _band_codes(psi) -> np.ndarray:
    """The position in ``Band`` of each psi's band; the first psi outside [0, 1] (NaN too) raises."""
    psi = np.asarray(psi, dtype=np.float64)
    bad = ~((psi >= 0.0) & (psi <= 1.0))
    if bad.any():
        raise ValueError(f"psi must be in [0, 1], got {float(psi[bad].flat[0])}")
    return (psi <= 0.0).astype(np.intp) + (psi < 0.5) + (psi < 0.75)


def band_of(psi: float) -> Band:
    return tuple(Band)[_band_codes(psi)]


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


@dataclass(frozen=True)
class PairIndex:
    """Label psi values and, per similarity band, the ascending positions of its labels."""

    psi: np.ndarray = field(repr=False)
    rows: dict = field(repr=False)

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
    """Bucket labels by band, preserving input order within each bucket."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("cannot index an empty label list")
    psi = np.array([lab.psi for lab in labels], dtype=np.float64)
    codes = _band_codes(psi)
    return PairIndex(psi, {band: np.flatnonzero(codes == k) for k, band in enumerate(Band)})


class BatchSampler:
    """Stateful batch stream: one RNG stream per instance, fixed strategy.

    Instances are independent; a single instance is meant for use from one
    thread at a time. ``seed`` may also be a Generator to draw from.
    """

    def __init__(self, idx: PairIndex, strategy: BatchStrategy, batch_size: int, seed=42):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        denom = strategy_denominator(strategy)
        if batch_size % denom != 0:
            raise ValueError(
                f"strategy {strategy.value} needs batch_size divisible by {denom}, got {batch_size}"
            )
        self.idx = idx
        self.strategy = strategy
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        # (label rows, pair count) per quota group, built once; config errors surface here
        self._pools = []
        for group, frac in _QUOTAS[strategy]:
            pool = np.concatenate([idx.rows[band] for band in group])
            if not len(pool):
                raise EmptyQuotaGroup(
                    f"strategy {strategy.value} needs pairs with psi in {_group_desc(group)}; none indexed"
                )
            self._pools.append((pool, int(frac * batch_size)))

    def next_batch(self) -> Batch:
        rows = np.concatenate(
            [pool[self._rng.integers(0, len(pool), size=count)] for pool, count in self._pools]
        )
        return Batch(rows, self.idx.psi[rows])
