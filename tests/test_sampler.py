"""Band bucketing and quota-exact batch composition tests."""

import numpy as np
import pytest

from gvpr.relabel import SimilarityLabel
from gvpr.sampler import (
    Band,
    Batch,
    BatchSampler,
    BatchStrategy,
    band_of,
    index_labels,
    strategy_denominator,
)


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


class TestIndexLabels:
    def test_partition_is_exact(self, mixed_index):
        sizes = mixed_index.band_sizes()
        assert sizes == {Band.HIGH: 4, Band.MID: 3, Band.LOW: 3, Band.ZERO: 3}
        assert sum(sizes.values()) == 13

    def test_bucket_order_preserved(self):
        labels = make_labels([0.2, 0.9, 0.1, 0.0, 0.3])
        idx = index_labels(labels)
        assert idx.rows[Band.LOW].tolist() == [0, 2, 4]
        assert [idx.labels[r] for r in idx.rows[Band.LOW]] == [labels[0], labels[2], labels[4]]

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
        assert a == b

    def test_generator_and_seed_agree(self, mixed_index):
        by_seed = BatchSampler(mixed_index, BatchStrategy.B, 16, seed=123).next_batch()
        by_gen = BatchSampler(mixed_index, BatchStrategy.B, 16, seed=np.random.default_rng(123)).next_batch()
        assert by_seed == by_gen


class TestBatch:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Batch(())

    def test_len_and_counts(self):
        labels = make_labels([0.9, 0.0])
        batch = Batch(tuple(labels))
        assert len(batch) == 2
        assert batch.band_counts()[Band.HIGH] == 1
        assert batch.band_counts()[Band.ZERO] == 1


class TestBatchSampler:
    def test_config_errors_raised_eagerly(self):
        idx = index_labels(make_labels([0.9, 0.2, 0.0]))  # fine for A
        with pytest.raises(ValueError, match="divisible"):
            BatchSampler(idx, BatchStrategy.A, 10, seed=0)
        no_mid = index_labels(make_labels([0.9, 0.2, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"\[0.5, 0.75\)"):
            BatchSampler(no_mid, BatchStrategy.B, 4, seed=0)

    def test_batches_iterator_counts(self, mixed_index):
        sampler = BatchSampler(mixed_index, BatchStrategy.C, 6, seed=1)
        assert all(len(sampler.next_batch()) == 6 for _ in range(4))

    def test_every_batch_meets_quota(self, mixed_index):
        sampler = BatchSampler(mixed_index, BatchStrategy.B, 8, seed=9)
        for _ in range(50):
            batch = sampler.next_batch()
            assert batch.band_counts() == {band: 2 for band in Band}
