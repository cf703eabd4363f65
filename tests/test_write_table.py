"""The array CSV writer, ``io.write_table``, against ``csv.writer`` and Python's ``f"{x:.6f}"``."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from gvpr.io import _FIXED_LIMIT, write_csv, write_table
from gvpr.relabel import LabelTable, save_labels

AWKWARD_IDS = ["plain", "a,b", 'say "hi"', "cr\rid", "lf\nid", "crlf\r\nid", "é中文", " leading", "trailing ",
               '"', ",", "", "tab\tid", "x" * 300]


def fixed_text(tmp_path, values) -> list:
    """The fields ``write_table`` writes for a float column, one per line."""
    path = tmp_path / "fixed.csv"
    write_table(path, ["x"], (), [(np.asarray(values, dtype=np.float64),)], "\n")
    return path.read_bytes().decode().split("\n")[1:-1]


def python_text(values) -> list:
    return [f"{v:.6f}" for v in np.asarray(values, dtype=np.float64).tolist()]


class TestFixedPoint:
    def test_every_sixth_decimal_and_half_way_point_in_the_unit_interval(self, tmp_path):
        k = np.arange(1_000_001)
        for values in (k / 1e6, (k + 0.5) / 1e6):
            assert fixed_text(tmp_path, values) == python_text(values)

    def test_seeded_values_up_to_the_limit_and_beyond(self, tmp_path):
        """Up to the largest value formatted from ``np.rint`` (8.4e6 m, beyond any profile translation of a
        world on one UTM grid), the half-way points near it, and past it, where Python formats."""
        rng = np.random.default_rng(31)
        top = float(np.nextafter(_FIXED_LIMIT, 0.0))
        halves = (np.floor(rng.uniform(0.0, _FIXED_LIMIT * 1e6, 20_000)) + 0.5) / 1e6
        values = np.concatenate([
            rng.uniform(0.0, _FIXED_LIMIT, 200_000),
            10.0 ** rng.uniform(-8.0, np.log10(_FIXED_LIMIT), 200_000),
            halves, np.nextafter(halves, 0.0), np.nextafter(halves, np.inf),
            10.0 ** np.arange(-7, 7), 10.0 ** np.arange(-7, 7) - 5e-7, [top, _FIXED_LIMIT, 1e7, 1e15, 1e300],
        ])
        assert fixed_text(tmp_path, values) == python_text(values)

    def test_negative_and_non_finite_values_take_python_format(self, tmp_path):
        values = [0.25, -0.0, -1e-9, -5e-7, -0.5, -1e300, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                  0.0078125, 1.0]  # 0.0078125 * 1e6 is a tie: half-even, as Python rounds it
        assert fixed_text(tmp_path, values) == python_text(values)


class TestIds:
    @pytest.mark.parametrize("lineterminator", ["\r\n", "\n"])
    def test_quoting_equals_csv_writer(self, tmp_path, lineterminator):
        rng = np.random.default_rng(4)
        n = len(AWKWARD_IDS)
        i, j, psi = rng.integers(0, n, 500), rng.integers(0, n, 500), rng.uniform(0.0, 1.0, 500)
        blocks = [(i[:200], j[:200], psi[:200]), (i[:0], j[:0], psi[:0]), (i[200:], j[200:], psi[200:])]
        write_table(tmp_path / "table.csv", ["query id", "map,id", "psi"], AWKWARD_IDS, blocks, lineterminator)
        rows = ([AWKWARD_IDS[a], AWKWARD_IDS[b], f"{p:.6f}"] for a, b, p in zip(i.tolist(), j.tolist(), psi.tolist()))
        write_csv(tmp_path / "reference.csv", ["query id", "map,id", "psi"], rows, lineterminator)
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        if lineterminator == "\r\n":  # csv.writer quotes a CR or LF only where the line terminator holds it
            with open(tmp_path / "table.csv", encoding="utf-8", newline="") as fh:
                assert [row[:2] for row in list(csv.reader(fh))[1:]] == [[AWKWARD_IDS[a], AWKWARD_IDS[b]]
                                                                         for a, b in zip(i.tolist(), j.tolist())]

    def test_no_rows_is_the_header(self, tmp_path):
        save_labels(tmp_path / "labels.csv", (), [])
        assert (tmp_path / "labels.csv").read_bytes() == b"query_id,map_id,psi\r\n"

    @pytest.mark.parametrize("block, message", [
        ((np.array([0, 1]), np.array([1]), np.array([0.5, 0.5])), "columns of unequal lengths [2, 1, 2]"),
        ((np.array([0, 2]), np.array([1, 1]), np.array([0.5, 0.5])), "id positions must be in [0, 2), got 0..2"),
        ((np.array([0, -1]), np.array([1, 1]), np.array([0.5, 0.5])), "id positions must be in [0, 2), got -1..0"),
    ])
    def test_rejects_columns_that_disagree(self, tmp_path, block, message):
        with pytest.raises(ValueError) as err:
            save_labels(tmp_path / "labels.csv", ("a", "b"), [block])
        assert str(err.value) == message


def test_label_memory_is_one_run_of_rows(tmp_path):
    """``save_labels`` holds one run of rows, whatever the label count: 24 B a label of input columns,
    4.8 MB here, and no object or index array per label or byte."""
    ids = [f"cam{k}" if k % 3 else f"Cam{k:03d}" for k in range(700)]  # ids of several widths
    rng = np.random.default_rng(9)
    n = 200_000
    table = LabelTable(tuple(ids), rng.integers(0, 700, n), rng.integers(0, 700, n), rng.uniform(0.0, 1.0, n))
    peaks = {}
    for rows in (20_000, n):
        columns = [(table.query[:rows], table.map[:rows], table.psi[:rows])]
        save_labels(tmp_path / "warm.csv", table.ids, [tuple(c[:10] for c in columns[0])])  # first-call imports
        tracemalloc.start()
        try:
            save_labels(tmp_path / f"labels{rows}.csv", table.ids, columns)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[n] < 1_500_000, f"{peaks[n] / 1e6:.2f} MB"
    assert peaks[n] < peaks[20_000] + 100_000, peaks
    want = "".join(f"{ids[q]},{ids[m]},{p:.6f}\r\n" for q, m, p in zip(*(c.tolist() for c in columns[0])))
    assert (tmp_path / f"labels{n}.csv").read_bytes() == ("query_id,map_id,psi\r\n" + want).encode()


def test_profile_degrees_are_math_degrees():
    """The profile's degrees column: ``np.degrees`` multiplies by 180 / pi, as ``math.degrees`` does, so it has
    its bits; a division by pi / 180 differs in the last bit of about one value in nine."""
    rng = np.random.default_rng(12)
    radians = np.concatenate([rng.uniform(0.0, math.pi, 100_000), 10.0 ** rng.uniform(-300, 300, 10_000),
                              [0.0, math.pi, math.pi / 2, 1e-320]])
    want = np.array([math.degrees(r) for r in radians.tolist()])
    assert np.array_equal(np.degrees(radians).view(np.uint64), want.view(np.uint64))
    assert not np.array_equal(np.divide(radians, math.pi / 180.0), want)
