"""Trace records and their CSV round trip."""

import numpy as np
import pytest

from zenolock.tracefile import TraceRecord, read_csv, write_csv


def sample_record():
    rows = np.array([[0.0, 1.0], [0.1, 0.3712837462834628], [0.2, 1e-17]])
    return TraceRecord(name="example", columns=("t", "value"), rows=rows,
                       provenance={"seed": "7", "config_sha256": "abc"})


class TestTraceRecord:
    def test_rectangularity_enforced(self):
        with pytest.raises(ValueError):
            TraceRecord(name="bad", columns=("a",), rows=np.zeros((2, 2)))

    def test_time_column_monotonicity(self):
        with pytest.raises(ValueError):
            TraceRecord(name="bad", columns=("t", "v"),
                        rows=np.array([[1.0, 0.0], [0.5, 0.0]]))

    def test_non_time_first_column_unconstrained(self):
        TraceRecord(name="ok", columns=("value", "other"),
                    rows=np.array([[1.0, 0.0], [0.5, 0.0]]))

    def test_separator_in_label_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(name="bad", columns=("a,b",), rows=np.zeros((1, 1)))


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        record = sample_record()
        path = tmp_path / "trace.csv"
        write_csv(record, path)
        assert read_csv(path) == record

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        values = np.array([[0.1 + 0.2], [1e-308], [123456789.123456789],
                           [np.pi], [-0.0]])
        record = TraceRecord(name="floats", columns=("v",), rows=values)
        path = tmp_path / "floats.csv"
        write_csv(record, path)
        back = read_csv(path)
        assert np.all(back.rows.view(np.uint64) == record.rows.view(np.uint64))

    def test_rewrite_is_byte_identical(self, tmp_path):
        record = sample_record()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(record, first)
        write_csv(read_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_rows_match_per_value_repr(self, tmp_path):
        # the row formatter must write what repr(float(v)) writes for every
        # numpy scalar of the row, on values with awkward shortest forms
        values = np.array([[-0.0, 5e-324, 1e16], [0.1 + 0.2, 1 / 3, -1e-300]])
        record = TraceRecord(name="floats", columns=("a", "b", "c"), rows=values)
        path = tmp_path / "floats.csv"
        write_csv(record, path)
        rows = path.read_text(encoding="utf-8").splitlines()[2:]
        assert rows == [",".join(repr(float(v)) for v in row) for row in record.rows]
