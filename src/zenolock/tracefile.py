"""Named numeric tables with provenance, round-trippable through CSV.

Floats are written with the shortest decimal representation that
round-trips a 64-bit value (Python's repr), so re-parsing a file
reproduces the in-memory record bit for bit on any platform.

A file is formatted column by column, and the bytes written are those of
formatting every row.
"""

import numpy as np

from .records import Record

_TIME_COLUMNS = {"t", "time", "t_r", "t_f", "tau"}


class TraceRecord(Record):
    """Rectangular numeric table: name, column labels, rows, provenance."""

    __slots__ = ("name", "columns", "rows", "provenance")

    def __init__(self, name: str, columns: tuple, rows: np.ndarray, provenance=None):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        columns = tuple(str(c) for c in columns)
        if rows.shape[1] != len(columns):
            raise ValueError(
                f"{rows.shape[1]} row entries for {len(columns)} column labels")
        for label in columns:
            if "," in label or "\n" in label:
                raise ValueError(f"column label {label!r} contains a separator")
        if columns and columns[0] in _TIME_COLUMNS and rows.shape[0] > 1:
            if np.any(np.diff(rows[:, 0]) < 0.0):
                raise ValueError("time column must be non-decreasing")
        provenance = dict(provenance or {})
        for key, value in provenance.items():
            if any("\n" in str(part) for part in (key, value)):
                raise ValueError("provenance entries must be single-line")
        rows.flags.writeable = False
        self._set(locals())

    def __eq__(self, other):
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.name == other.name and self.columns == other.columns
                and self.provenance == other.provenance
                and self.rows.shape == other.rows.shape
                and bool(np.all(self.rows == other.rows)))


def write_csv(record: TraceRecord, path, formatted=None) -> None:
    """Write ``record`` to ``path``.

    A caller whose files share a column (the readout traces share their time
    column) passes the same dict as ``formatted`` to each call.  It maps a
    column position to the bytes and strings of the last column written
    there, and a bit-identical column at that position reuses the strings.
    Keyed on bytes, the reuse is exact: -0.0 and 0.0 compare equal but print
    apart, and they miss.  A call without it keeps nothing.
    """
    formatted = {} if formatted is None else formatted
    lines = [f"# trace: {record.name}"]
    for key, value in record.provenance.items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(record.columns))
    columns = []
    for position, column in enumerate(record.rows.T):
        data = column.tobytes()
        entry = formatted.get(position)
        if entry is None or entry[0] != data:
            entry = formatted[position] = (data, list(map(repr, column.tolist())))
        columns.append(entry[1])
    # a record without columns still writes one empty line per row
    lines.extend(map(",".join, zip(*columns)) if columns else [""] * len(record.rows))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_csv(path) -> TraceRecord:
    name = ""
    provenance = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                if key == "trace":
                    name = value
                else:
                    provenance[key] = value
            elif columns is None:
                columns = tuple(line.split(","))
            else:
                rows.append([float(v) for v in line.split(",")])
    if columns is None:
        raise ValueError(f"{path}: no header row found")
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return TraceRecord(name=name, columns=columns, rows=data, provenance=provenance)
