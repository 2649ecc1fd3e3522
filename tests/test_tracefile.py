"""Trace records and their CSV round trip."""

from pathlib import Path

import numpy as np
import pytest

from zenolock import cli, tracefile
from zenolock.tracefile import TraceRecord, read_csv, write_csv

REPO = Path(__file__).resolve().parents[1]


def row_wise_csv(record):
    """The file text formatted row by row: the reference for write_csv."""
    lines = [f"# trace: {record.name}"]
    for key, value in record.provenance.items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(record.columns))
    lines.extend(",".join(map(repr, row)) for row in record.rows.tolist())
    return "\n".join(lines) + "\n"


def table(*columns, name="table"):
    labels = tuple(f"c{index}" for index in range(len(columns)))
    rows = np.column_stack(columns) if columns else np.zeros((3, 0))
    return TraceRecord(name=name, columns=labels, rows=rows, provenance={"k": "v"})


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


@pytest.fixture
def formatted_values(monkeypatch):
    """A one-item list counting the values write_csv formats, as it formats them."""
    count = [0]

    def counting(value):
        count[0] += 1
        return repr(value)

    monkeypatch.setattr(tracefile, "repr", counting, raising=False)
    return count


class TestColumnFormatting:
    """write_csv against the row-by-row reference, the columns of a sweep shared."""

    T = np.linspace(0.0, 5.0, 401)

    def assert_sequence(self, tmp_path, records):
        formatted = {}
        for index, record in enumerate(records):
            path = tmp_path / f"{index}.csv"
            write_csv(record, path, formatted)
            assert path.read_text(encoding="utf-8") == row_wise_csv(record)

    def test_consecutive_records_share_a_column(self, tmp_path, formatted_values):
        records = [table(self.T, np.sin(self.T + k)) for k in range(3)]
        self.assert_sequence(tmp_path, records)
        # the shared column was formatted once, the other three once each
        assert formatted_values[0] == 4 * len(self.T)

    def test_a_call_without_the_dict_keeps_nothing(self, tmp_path, formatted_values):
        record = table(self.T, np.sin(self.T))
        for name in ("first.csv", "second.csv"):
            write_csv(record, tmp_path / name)
            assert (tmp_path / name).read_text(encoding="utf-8") == row_wise_csv(record)
        assert formatted_values[0] == 2 * 2 * len(self.T)

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_misses(self, tmp_path, first, second):
        self.assert_sequence(tmp_path, [table(np.array([first, 1.0, 2.0])),
                                        table(np.array([second, 1.0, 2.0]))])

    def test_one_ulp_misses(self, tmp_path):
        nudged = self.T.copy()
        nudged[200] = np.nextafter(nudged[200], np.inf)
        self.assert_sequence(tmp_path, [table(self.T), table(nudged), table(self.T)])

    def test_same_values_at_another_position(self, tmp_path):
        u = np.cos(self.T)
        self.assert_sequence(tmp_path, [table(self.T, u), table(u, self.T),
                                        table(u, u, self.T)])

    def test_row_and_column_count_changes(self, tmp_path):
        u = np.cos(self.T)
        self.assert_sequence(tmp_path, [
            table(self.T[:10], u[:10]), table(self.T[:11], u[:11]),
            table(self.T[:10], u[:10], u[:10]), table(self.T[:10]),
            table(self.T[:0], u[:0]), table(), table(self.T[:3])])

    def test_non_finite_values(self, tmp_path):
        other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -np.nan])
        payload = values.copy()
        payload[0] = other_nan
        self.assert_sequence(tmp_path, [table(values, -values), table(payload, values)])

    def test_readout_run_writes_the_reference(self, tmp_path, monkeypatch, formatted_values):
        # the 16 clock-phase traces of one run share their t_r column
        records = {}

        def recording(record, path, formatted=None):
            records[Path(path).name] = record
            write_csv(record, path, formatted)

        monkeypatch.setattr(cli, "write_csv", recording)
        out = tmp_path / "out"
        config = REPO / "perfbench" / "clock_chain.cfg"
        assert cli.main(["readout", "--config", str(config), "--out", str(out)]) == 0
        assert len(records) == 16
        for name, record in records.items():
            assert (out / name).read_text(encoding="utf-8") == row_wise_csv(record)
        # t_r formatted once for the sweep, not once per trace: 17 columns of 4001
        assert formatted_values[0] == 17 * 4001
