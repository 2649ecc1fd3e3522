"""Named numeric tables with provenance, round-trippable through CSV.

Floats are written with the shortest decimal representation that
round-trips a 64-bit value (Python's repr), so re-parsing a file
reproduces the in-memory record bit for bit on any platform.

A file is written in blocks of rows, each formatted column by column, so
no more than one block of strings exists at a time; the bytes written are
those of formatting every row.
"""

import numpy as np

from .records import Record

_TIME_COLUMNS = {"t", "time", "t_r", "t_f", "tau"}

_BLOCK_ROWS = 512  # rows formatted and written at a time


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

    # equality by bytes, from Record; unhashable, as the provenance is a dict
    __hash__ = None


def write_csv(record: TraceRecord, path, formatted=None) -> None:
    """Write ``record`` to ``path``, ``_BLOCK_ROWS`` rows at a time.

    A caller whose files share their first column (the readout traces share
    their time column) passes the same dict as ``formatted`` to each call.
    Its one entry, at position 0, holds the bytes and strings of the last
    first column written, and a bit-identical first column reuses the
    strings.  Keyed on bytes, the reuse is exact: -0.0 and 0.0 compare equal
    but print apart, and they miss.  Every other column, and the first one
    of a call without the dict, is formatted a block at a time and dropped.
    """
    rows = record.rows
    first = None
    if formatted is not None and rows.shape[1]:
        data = rows[:, 0].tobytes()
        entry = formatted.get(0)
        if entry is None or entry[0] != data:
            entry = formatted[0] = (data, list(map(repr, rows[:, 0].tolist())))
        first = entry[1]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# trace: {record.name}\n")
        for key, value in record.provenance.items():
            handle.write(f"# {key}: {value}\n")
        handle.write(",".join(record.columns) + "\n")
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            columns = [] if first is None else [first[start:start + _BLOCK_ROWS]]
            columns += [list(map(repr, column)) for column in block[:, len(columns):].T.tolist()]
            # a record without columns still writes one empty line per row
            lines = map(",".join, zip(*columns)) if columns else [""] * len(block)
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
