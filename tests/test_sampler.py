"""Band bucketing and quota-exact batch composition tests."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gvpr.relabel import SimilarityClass, SimilarityLabel, class_counts
from gvpr.sampler import (
    Band,
    Batch,
    BatchSampler,
    BatchStrategy,
    LabelTable,
    band_of,
    index_labels,
    strategy_denominator,
)
from gvpr.sampler import _QUOTAS


def make_labels(psis):
    return [SimilarityLabel(f"q{i:04d}", f"r{i:04d}", p) for i, p in enumerate(psis)]


@pytest.fixture
def mixed_index():
    # several labels in every band
    psis = [1.0, 0.9, 0.8, 0.75, 0.7, 0.6, 0.5, 0.4, 0.3, 0.1, 0.0, 0.0, 0.0]
    return index_labels(make_labels(psis))


class TestBandOf:
    def test_boundaries(self):
        assert band_of(1.0) is Band.HIGH
        assert band_of(0.75) is Band.HIGH
        assert band_of(np.nextafter(0.75, 0.0)) is Band.MID
        assert band_of(0.5) is Band.MID
        assert band_of(np.nextafter(0.5, 0.0)) is Band.LOW
        assert band_of(np.nextafter(0.0, 1.0)) is Band.LOW
        assert band_of(0.0) is Band.ZERO

    def test_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                band_of(bad)


def _reference_band(psi):
    """The former per-label rule."""
    if not 0.0 <= psi <= 1.0:
        raise ValueError(f"psi must be in [0, 1], got {psi}")
    if psi >= 0.75:
        return Band.HIGH
    if psi >= 0.5:
        return Band.MID
    return Band.LOW if psi > 0.0 else Band.ZERO


class TestBandRuleOnArrays:
    """band_of, index_labels, Batch.band_counts and relabel.class_counts share one array rule;
    each agrees with the per-label reference at the band edges and rejects what it rejects."""

    EDGES = [0.0, 1.0, 0.5, 0.75] + [float(np.nextafter(x, y)) for x in (0.0, 0.5, 0.75) for y in (0.0, 1.0)]

    def test_edges_match_the_per_label_rule(self):
        rng = np.random.default_rng(17)
        psis = self.EDGES + rng.uniform(0.0, 1.0, 200).tolist()
        want = [_reference_band(p) for p in psis]
        assert [band_of(p) for p in psis] == want
        idx = index_labels(make_labels(psis))
        assert {band: idx.rows[band].tolist() for band in Band} == {
            band: [k for k, b in enumerate(want) if b is band] for band in Band}
        counts = Batch(np.arange(len(psis)), np.array(psis)).band_counts()
        assert counts == {band: want.count(band) for band in Band}
        assert all(type(n) is int for n in counts.values())
        classes = class_counts(make_labels(psis))
        assert classes[SimilarityClass.POSITIVE] == want.count(Band.HIGH) + want.count(Band.MID)
        assert classes[SimilarityClass.SOFT_NEGATIVE] == want.count(Band.LOW)
        assert classes[SimilarityClass.HARD_NEGATIVE] == want.count(Band.ZERO)

    @pytest.mark.parametrize("bad", [math.nan, -0.0001, 1.0000001, math.inf, -math.inf, -5e-324])
    def test_rejects_what_the_per_label_rule_rejects_with_its_message(self, bad):
        with pytest.raises(ValueError) as want:
            _reference_band(bad)
        message = str(want.value)
        assert message.startswith("psi must be in [0, 1], got ")
        with pytest.raises(ValueError) as err:
            band_of(bad)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            Batch(np.arange(3), np.array([0.5, bad, 2.0])).band_counts()
        assert str(err.value) == message  # the first bad psi is named
        with pytest.raises(ValueError) as err:
            index_labels([SimpleNamespace(query_id="a", map_id="b", psi=0.25),
                          SimpleNamespace(query_id="a", map_id="c", psi=bad)])
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            SimilarityLabel("a", "b", bad)
        assert str(err.value) == message


class TestIndexLabels:
    def test_partition_is_exact(self, mixed_index):
        sizes = mixed_index.band_sizes()
        assert sizes == {Band.HIGH: 4, Band.MID: 3, Band.LOW: 3, Band.ZERO: 3}
        assert sum(sizes.values()) == 13

    def test_bucket_order_preserved(self):
        labels = make_labels([0.2, 0.9, 0.1, 0.0, 0.3])
        idx = index_labels(labels)
        assert idx.rows[Band.LOW].tolist() == [0, 2, 4]
        assert idx.psi[idx.rows[Band.LOW]].tolist() == [0.2, 0.1, 0.3]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            index_labels([])


class TestQuotas:
    def test_denominators(self):
        assert strategy_denominator(BatchStrategy.A) == 4
        assert strategy_denominator(BatchStrategy.B) == 4
        assert strategy_denominator(BatchStrategy.C) == 3
        assert strategy_denominator(BatchStrategy.D) == 2

    def test_strategy_a_counts(self, mixed_index):
        batch = BatchSampler(mixed_index, BatchStrategy.A, 16, seed=0).next_batch()
        counts = batch.band_counts()
        assert counts[Band.HIGH] + counts[Band.MID] == 8
        assert counts[Band.LOW] == 4
        assert counts[Band.ZERO] == 4

    def test_strategy_b_counts(self, mixed_index):
        batch = BatchSampler(mixed_index, BatchStrategy.B, 16, seed=0).next_batch()
        assert batch.band_counts() == {band: 4 for band in Band}

    def test_strategy_c_counts(self, mixed_index):
        batch = BatchSampler(mixed_index, BatchStrategy.C, 9, seed=0).next_batch()
        counts = batch.band_counts()
        assert counts[Band.HIGH] + counts[Band.MID] == 3
        assert counts[Band.LOW] == 3
        assert counts[Band.ZERO] == 3

    def test_strategy_d_counts(self, mixed_index):
        batch = BatchSampler(mixed_index, BatchStrategy.D, 10, seed=0).next_batch()
        counts = batch.band_counts()
        assert counts[Band.HIGH] + counts[Band.MID] == 5
        assert counts[Band.LOW] + counts[Band.ZERO] == 5

    def test_indivisible_batch_size_names_denominator(self, mixed_index):
        with pytest.raises(ValueError, match="divisible by 4"):
            BatchSampler(mixed_index, BatchStrategy.A, 6, seed=0).next_batch()
        with pytest.raises(ValueError, match="divisible by 3"):
            BatchSampler(mixed_index, BatchStrategy.C, 8, seed=0).next_batch()

    def test_batch_size_validated(self, mixed_index):
        with pytest.raises(ValueError):
            BatchSampler(mixed_index, BatchStrategy.D, 0, seed=0).next_batch()


class TestComposeBatch:
    def test_missing_band_names_psi_range(self):
        idx = index_labels(make_labels([0.9, 0.2, 0.0, 0.0]))  # no MID
        with pytest.raises(ValueError, match=r"\[0.5, 0.75\)"):
            BatchSampler(idx, BatchStrategy.B, 4, seed=0).next_batch()

    def test_missing_pooled_group_names_pooled_range(self):
        idx = index_labels(make_labels([0.2, 0.1, 0.0, 0.0]))  # no positives at all
        with pytest.raises(ValueError, match=r"\[0.5, 1\]"):
            BatchSampler(idx, BatchStrategy.A, 4, seed=0).next_batch()

    def test_pooled_group_tolerates_one_empty_band(self):
        idx = index_labels(make_labels([0.9, 0.9, 0.2, 0.0]))  # HIGH only, no MID
        batch = BatchSampler(idx, BatchStrategy.A, 8, seed=0).next_batch()
        assert batch.band_counts()[Band.HIGH] == 4

    def test_replacement_fills_from_tiny_pool(self):
        idx = index_labels(make_labels([0.9, 0.2, 0.0]))
        batch = BatchSampler(idx, BatchStrategy.A, 32, seed=0).next_batch()
        assert len(batch) == 32

    def test_seed_determinism(self, mixed_index):
        a = BatchSampler(mixed_index, BatchStrategy.B, 16, seed=7).next_batch()
        b = BatchSampler(mixed_index, BatchStrategy.B, 16, seed=7).next_batch()
        assert np.array_equal(a.rows, b.rows)

    def test_generator_and_seed_agree(self, mixed_index):
        by_seed = BatchSampler(mixed_index, BatchStrategy.B, 16, seed=123).next_batch()
        by_gen = BatchSampler(mixed_index, BatchStrategy.B, 16, seed=np.random.default_rng(123)).next_batch()
        assert np.array_equal(by_seed.rows, by_gen.rows)


class TestBatch:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Batch(np.array([], dtype=np.intp), np.array([]))

    def test_len_and_counts(self):
        batch = Batch(np.array([0, 1]), np.array([0.9, 0.0]))
        assert len(batch) == 2
        assert batch.band_counts()[Band.HIGH] == 1
        assert batch.band_counts()[Band.ZERO] == 1


class TestBatchSampler:
    def test_batch_psi_are_those_of_its_label_rows(self):
        labels = make_labels([1.0, 0.9, 0.8, 0.75, 0.7, 0.6, 0.5, 0.4, 0.3, 0.1, 0.0, 0.0, 0.0])
        sampler = BatchSampler(index_labels(labels), BatchStrategy.B, 16, seed=5)
        for _ in range(5):
            batch = sampler.next_batch()
            assert batch.psi.tolist() == [labels[r].psi for r in batch.rows.tolist()]

    def test_config_errors_raised_eagerly(self):
        idx = index_labels(make_labels([0.9, 0.2, 0.0]))  # fine for A
        with pytest.raises(ValueError, match="divisible"):
            BatchSampler(idx, BatchStrategy.A, 10, seed=0)
        no_mid = index_labels(make_labels([0.9, 0.2, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"\[0.5, 0.75\)"):
            BatchSampler(no_mid, BatchStrategy.B, 4, seed=0)

    @pytest.mark.parametrize("strategy", list(BatchStrategy))
    def test_sampler_copies_no_label_rows(self, strategy):
        """On 250,000 labels the index keeps one intp array of label rows, each band a view of it, and the
        sampler draws from that array: building it allocates less than a byte a label."""
        n = 250_000
        rng = np.random.default_rng(12)
        psi = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
        idx = index_labels(LabelTable(("a", "b"), np.zeros(n, np.intp), np.ones(n, np.intp), psi))
        assert all(np.shares_memory(idx.rows[band], idx.order) for band in Band)
        tracemalloc.start()
        try:
            sampler = BatchSampler(idx, strategy, 48, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n, f"{peak} B"
        assert len(sampler.next_batch()) == 48

    def test_batches_iterator_counts(self, mixed_index):
        sampler = BatchSampler(mixed_index, BatchStrategy.C, 6, seed=1)
        assert all(len(sampler.next_batch()) == 6 for _ in range(4))

    def test_every_batch_meets_quota(self, mixed_index):
        sampler = BatchSampler(mixed_index, BatchStrategy.B, 8, seed=9)
        for _ in range(50):
            batch = sampler.next_batch()
            assert batch.band_counts() == {band: 2 for band in Band}


def _reference_batches(idx, strategy, batch_size, rng):
    """The former next_batch: one ``integers(0, len(pool), size=count)`` per quota group, in
    quota order, then a concatenate; yields (rows, psi) for ever from ``rng``."""
    pools = [(np.concatenate([idx.rows[band] for band in group]), int(frac * batch_size))
             for group, frac in _QUOTAS[strategy]]
    while True:
        rows = np.concatenate([pool[rng.integers(0, len(pool), size=count)] for pool, count in pools])
        yield rows, idx.psi[rows]


class TestOneDrawPerStep:
    """next_batch draws every slot in one call, and that call consumes the generator exactly as
    the per-group draws did: same rows, same psi, same generator state after every batch."""

    # ZERO holds one label, and B's MID one: a pool of one row draws nothing from the generator
    ONE_ROW_POOLS = [1.0, 0.9, 0.6, 0.4, 0.3, 0.1, 0.0]

    @pytest.mark.parametrize("strategy", list(BatchStrategy))
    @pytest.mark.parametrize("batch_size", [12, 60])
    @pytest.mark.parametrize("psis", ["mixed", "one-row pools"])
    def test_matches_per_group_draws(self, mixed_index, strategy, batch_size, psis):
        idx = mixed_index if psis == "mixed" else index_labels(make_labels(self.ONE_ROW_POOLS))
        sampler = BatchSampler(idx, strategy, batch_size, seed=2024)
        mine, reference = sampler._rng, np.random.default_rng(2024)
        want = _reference_batches(idx, strategy, batch_size, reference)
        for _ in range(50):
            batch = sampler.next_batch()
            rows, psi = next(want)
            assert batch.rows.tolist() == rows.tolist()
            assert batch.psi.tolist() == psi.tolist()
            assert mine.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("strategy", list(BatchStrategy))
    def test_shared_generator_with_foreign_draws(self, mixed_index, strategy):
        shared, reference = np.random.default_rng(77), np.random.default_rng(77)
        sampler = BatchSampler(mixed_index, strategy, 12, seed=shared)
        want = _reference_batches(mixed_index, strategy, 12, reference)
        for step in range(50):
            batch = sampler.next_batch()
            rows, psi = next(want)
            assert batch.rows.tolist() == rows.tolist()
            assert batch.psi.tolist() == psi.tolist()
            assert shared.bit_generator.state == reference.bit_generator.state
            # draws of the caller's between batches, one of them leaving half a 64-bit word cached
            for gen in (shared, reference):
                gen.random(step % 3)
                gen.integers(0, 1000, size=step % 2 + 1, dtype=np.int32)
