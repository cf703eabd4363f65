import pytest

from perfbench.stats import calibrate, items_per_s, self_time, span_table, tail_percentile
from perfbench.tracer import NO_PARENT, Span


class TestSelfTime:
    def test_no_children_is_duration(self):
        assert self_time(2.0, 5.0, []) == 3.0

    def test_subtracts_union_of_overlapping_children(self):
        # [1,3] and [2,5] overlap into [1,5]; [9,12] is clipped to [9,10]
        children = [(2.0, 5.0), (7.0, 8.0), (1.0, 3.0), (9.0, 12.0)]
        assert self_time(0.0, 10.0, children) == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))

    def test_nested_child_inside_another_counts_once(self):
        assert self_time(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == pytest.approx(2.0)

    def test_children_outside_span_are_ignored(self):
        assert self_time(5.0, 6.0, [(0.0, 1.0), (7.0, 8.0)]) == pytest.approx(1.0)

    def test_span_table_subtracts_direct_children_only(self):
        spans = [
            Span("a", NO_PARENT, 0.0, 10.0, False, "jobs"),
            Span("b", 0, 1.0, 9.0, False, "jobs"),
            Span("c", 1, 2.0, 8.0, True, "jobs"),
        ]
        table = span_table(spans)
        assert table[("jobs", "a")]["self_s"] == pytest.approx(2.0)
        assert table[("jobs", "b")]["self_s"] == pytest.approx(2.0)
        assert table[("jobs", "c")] == {"calls": 1, "failed": 1, "s": 6.0, "self_s": 6.0}


class TestTailPercentile:
    def test_too_few_samples_for_any_rung(self):
        assert tail_percentile(range(19)) is None

    def test_median_needs_ten_samples_beyond(self):
        assert tail_percentile(range(1, 21)) == (50.0, 10, 20)

    def test_highest_rung_with_ten_beyond(self):
        # p90 of 1..100 is 90 with 10 above it; p95 would leave only 5
        assert tail_percentile(range(100, 0, -1)) == (90.0, 90, 100)
        assert tail_percentile(range(1, 1001)) == (99.0, 990, 1000)

    def test_sample_count_is_stated(self):
        assert tail_percentile([0.5] * 40)[2] == 40


class TestItemsPerSecond:
    def test_median_of_per_job_rates(self):
        # rates 100, 50, 25: the median rate, not total units over total time (42.9)
        assert items_per_s([100, 100, 100], [1.0, 2.0, 4.0]) == 50.0

    def test_even_count_averages_middle_rates(self):
        assert items_per_s([10, 10], [1.0, 2.0]) == 7.5

    def test_rejects_mismatched_or_empty_input(self):
        with pytest.raises(ValueError):
            items_per_s([1, 2], [1.0])
        with pytest.raises(ValueError):
            items_per_s([], [])


class TestCalibrate:
    def test_host_slowdown_cancels(self):
        # the same job on a host at half speed: job and reference loop both take twice as long
        quiet = calibrate([0.5], [0.08], nominal=0.08)
        busy = calibrate([1.0], [0.16], nominal=0.08)
        assert quiet == busy == [0.5]

    def test_calibrated_rate_is_median_of_scaled_jobs(self):
        seconds = calibrate([1.0, 2.0, 1.0], [0.1, 0.1, 0.05], nominal=0.1)
        assert seconds == [1.0, 2.0, 2.0]
        assert items_per_s([10, 10, 10], seconds) == 5.0

    def test_rejects_mismatched_input(self):
        with pytest.raises(ValueError):
            calibrate([1.0, 2.0], [0.1], nominal=0.1)
