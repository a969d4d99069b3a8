"""CSV ingestion and output for profile fitting.

Input files follow the renewables.ninja-style convention: a short metadata
preamble, then a header row, then one value per time step. Outputs are a
fitted-profile CSV, a JSON fit report, and optional plot-data CSVs holding
the chronological series and the descending-sorted duration curves.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .fitcore import (
    NonFiniteValueError,
    Profile,
    ProfileFitError,
    ValueOutOfRangeError,
    validate_profile,
)

__all__ = [
    "CsvLayout",
    "CsvParseError",
    "FitReport",
    "LengthMismatchError",
    "MissingColumnError",
    "read_profile",
    "write_plot_data",
    "write_profile",
    "write_report",
]


class MissingColumnError(ProfileFitError):
    def __init__(self, column: str, path=None):
        self.column = column
        origin = f" in {path}" if path is not None else ""
        super().__init__(f"column {column!r} not found{origin}")


class CsvParseError(ProfileFitError):
    def __init__(self, line_number: int, content: str, path=None):
        self.line_number = line_number
        self.content = content
        origin = f"{path}:" if path is not None else "line "
        super().__init__(f"{origin}{line_number}: cannot parse {content!r}")


class LengthMismatchError(ProfileFitError):
    def __init__(self, message: str):
        super().__init__(message)


# Fast-path block sizes: big enough that per-block overhead vanishes, small
# enough that memory stays flat whatever the file length.
_READ_BLOCK_CHARS = 16384
_WRITE_BLOCK_ROWS = 512


@dataclass(frozen=True)
class CsvLayout:
    """Shape of an input CSV: preamble to skip, then header, then data.

    The default matches files whose header sits on line 4 below three
    metadata lines, with the profile in an "electricity" column.
    """

    preamble_lines: int = 3
    value_column: str = "electricity"
    time_column: str | None = "time"
    delimiter: str = ","

    def __post_init__(self):
        if self.preamble_lines < 0:
            raise ValueError("preamble_lines must be >= 0")
        if not self.value_column:
            raise ValueError("value_column must be non-empty")
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")


@dataclass(frozen=True)
class FitReport:
    """Everything a script needs to know about one completed fit."""

    input_path: str
    m: int
    r: int
    n: int
    current_cf: float
    target_cf: float
    exponent: float
    achieved_cf: float
    status: str
    iterations: int
    elapsed_ms: float


def read_profile(
    path, layout: CsvLayout | None = None
) -> tuple[Profile, list[str] | None]:
    """Parse a profile CSV into a validated Profile plus optional timestamps.

    Skips ``layout.preamble_lines`` raw lines, reads the next line as the
    header, and extracts ``layout.value_column`` in file order. Values from
    ``layout.time_column`` are carried through verbatim when that column
    exists. Parse and validation errors report 1-based file line numbers.
    """
    if layout is None:
        layout = CsvLayout()
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        for _ in range(layout.preamble_lines):
            if fh.readline() == "":
                raise CsvParseError(
                    layout.preamble_lines, "file ends inside the preamble", path
                )
        # The fast path may give up partway, and the rows are then reread from
        # the header on, so it runs only where the file can seek back.
        start = fh.tell() if fh.seekable() else None
        parsed = None
        if start is not None:
            parsed = _parse_blocks(fh, layout, path)
            if parsed is None:
                fh.seek(start)
        if parsed is None:
            parsed = _parse_rows(fh, layout, path)
        values, timestamps, lines = parsed

        try:
            profile = validate_profile(np.asarray(values, dtype=np.float64))
        except (NonFiniteValueError, ValueOutOfRangeError) as exc:
            # The fast path keeps no line numbers; its rows parse, so reread them.
            if lines is None:
                fh.seek(start)
                lines = _parse_rows(fh, layout, path)[2]
            line = layout.preamble_lines + lines[exc.index]
            if isinstance(exc, NonFiniteValueError):
                raise NonFiniteValueError(exc.index, line=line) from None
            raise ValueOutOfRangeError(exc.index, exc.value, line=line) from None
    return profile, timestamps


def _column_indices(
    header: list[str], layout: CsvLayout, path: Path
) -> tuple[int, int | None]:
    header = [name.strip() for name in header]
    if layout.value_column not in header:
        raise MissingColumnError(layout.value_column, path)
    time_idx = (
        header.index(layout.time_column)
        if layout.time_column and layout.time_column in header
        else None
    )
    return header.index(layout.value_column), time_idx


def _parse_blocks(fh, layout: CsvLayout, path: Path):
    """Fast path of :func:`read_profile`: split text blocks without csv.

    Reads the header and data in blocks of about ``_READ_BLOCK_CHARS``,
    each completed to the next newline, and keeps no line numbers (the third
    item of the result is None). Gives up (returns None) on anything
    that needs csv semantics or that :func:`_parse_rows` would report: a
    quote, ``\\r`` or NUL, a line longer than csv's field size limit, a short
    row, or a cell ``float`` rejects. The caller then rereads the data
    with :func:`_parse_rows`, so parse errors and their line numbers come
    from one place.
    """
    sep = layout.delimiter
    if sep == "\n" or _needs_csv(sep):
        return None
    try:
        limit = csv.field_size_limit()
        header = fh.readline()
        if not header or len(header) > limit or _needs_csv(header):
            return None
        value_idx, time_idx = _column_indices(header.rstrip("\n").split(sep), layout, path)
        needed = value_idx if time_idx is None else max(value_idx, time_idx)
        values: list[float] = []
        timestamps: list[str] | None = [] if time_idx is not None else None
        while block := fh.read(_READ_BLOCK_CHARS):
            if not block.endswith("\n"):
                block += fh.readline()
            if len(block) > limit or _needs_csv(block):
                return None
            # csv yields an empty row for a blank line, and read_profile skips it.
            rows = [line.split(sep) for line in block.split("\n") if line]
            if any(len(row) <= needed for row in rows):
                return None
            values.extend(map(float, [row[value_idx] for row in rows]))
            if timestamps is not None:
                timestamps.extend([row[time_idx] for row in rows])
    except ValueError:  # an unparseable cell, or undecodable bytes
        return None
    return values, timestamps, None


def _needs_csv(text: str) -> bool:
    return '"' in text or "\r" in text or "\0" in text


def _parse_rows(fh, layout: CsvLayout, path: Path):
    """Row-by-row csv parse of the header and data; builds every parse error.

    Also returns, for each value, its row's last line counted from the
    header (``reader.line_num``), so blank lines and quoted multi-line
    fields count.
    """
    reader = csv.reader(fh, delimiter=layout.delimiter)
    header = next(reader, None)
    if header is None:
        raise CsvParseError(layout.preamble_lines + 1, "missing header row", path)
    value_idx, time_idx = _column_indices(header, layout, path)
    values: list[float] = []
    timestamps: list[str] | None = [] if time_idx is not None else None
    lines: list[int] = []
    needed = value_idx if time_idx is None else max(value_idx, time_idx)
    for row in reader:
        if not row:
            continue
        line_no = layout.preamble_lines + reader.line_num
        if needed >= len(row):
            raise CsvParseError(line_no, layout.delimiter.join(row), path)
        cell = row[value_idx].strip()
        try:
            values.append(float(cell))
        except ValueError:
            raise CsvParseError(line_no, cell, path) from None
        lines.append(reader.line_num)
        if timestamps is not None:
            timestamps.append(row[time_idx])
    return values, timestamps, lines


def write_profile(
    path,
    timestamps: list[str] | None,
    original: Profile,
    fitted: Profile,
    layout: CsvLayout | None = None,
) -> None:
    """Write original and fitted series side by side.

    Header is ``time,original,fitted`` when timestamps are given, otherwise
    ``original,fitted``. Floats are rendered with shortest round-trip
    precision, so reading the file back reproduces them exactly.
    """
    if layout is None:
        layout = CsvLayout()
    if len(original) != len(fitted):
        raise LengthMismatchError(
            f"original has {len(original)} values but fitted has {len(fitted)}"
        )
    if timestamps is not None and len(timestamps) != len(original):
        raise LengthMismatchError(
            f"{len(timestamps)} timestamps for {len(original)} values"
        )
    header = ["original", "fitted"]
    columns = [original.values, fitted.values]
    if timestamps is not None:
        header.insert(0, "time")
        columns.insert(0, timestamps)
    _write_csv(path, header, columns, layout.delimiter)


def write_report(path, report: FitReport) -> None:
    """Serialize one fit report as a single JSON object."""
    with _replacing(path, newline=None) as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")


def write_plot_data(path_prefix, original: Profile, fitted: Profile) -> None:
    """Emit plot-ready CSVs: chronological order and duration-curve order.

    ``<prefix>_chronological.csv`` keeps input order; ``<prefix>_sorted.csv``
    sorts each column independently in descending order. Both carry
    ``index,original,fitted`` with a 1-based index.
    """
    if len(original) != len(fitted):
        raise LengthMismatchError(
            f"original has {len(original)} values but fitted has {len(fitted)}"
        )
    prefix = str(path_prefix)
    _write_indexed(f"{prefix}_chronological.csv", original.values, fitted.values)
    _write_indexed(
        f"{prefix}_sorted.csv",
        np.sort(original.values)[::-1],
        np.sort(fitted.values)[::-1],
    )


def _write_indexed(path: str, original: np.ndarray, fitted: np.ndarray) -> None:
    index = range(1, len(original) + 1)
    _write_csv(path, ["index", "original", "fitted"], [index, original, fitted])


@contextlib.contextmanager
def _replacing(path, newline: str | None = ""):
    """Open a sibling ``<name>.tmp`` for writing and move it onto ``path``.

    Readers of ``path`` see the old file or the whole new one, never a
    partial write. A write that raises leaves ``path`` as it was and
    removes the temp file.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_csv(path, header: list[str], columns: list, delimiter: str = ",") -> None:
    """Write a header and the rows zipped from ``columns``.

    Rows are formatted in blocks of ``_WRITE_BLOCK_ROWS`` with one format
    string, floats from arrays by ``repr``. A block in which some field holds
    the delimiter, a newline, a quote, ``\\r`` or NUL (text csv may quote or
    reject) goes through :func:`_write_rows` instead, so every byte is that
    of :func:`_write_rows`.
    """
    row = delimiter.join(["{}"] * len(columns)) + "\n"
    per_row = len(columns) - 1
    with _replacing(path) as fh:
        _write_rows(fh, [header], delimiter)
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            block = [
                c[start:stop].tolist() if isinstance(c, np.ndarray) else c[start:stop]
                for c in columns
            ]
            text = "".join(map(row.format, *block))
            rows = len(block[0])
            if (
                _needs_csv(text)
                or text.count(delimiter) != rows * per_row
                or text.count("\n") != rows
            ):
                _write_rows(fh, zip(*block), delimiter)
            else:
                fh.write(text)


def _write_rows(fh, rows, delimiter: str) -> None:
    """Write rows as ``csv.writer(fh, delimiter, lineterminator="\\n")`` does,
    except that a field holding ``\\r`` is quoted.

    Such a writer leaves ``\\r`` bare, and a reader then splits the row
    there. Under a ``"\\r\\n"`` terminator csv.writer quotes it, so rows are
    written with that terminator, swapped for ``"\\n"``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\r\n")
    for r in rows:
        writer.writerow(r)
        fh.write(buf.getvalue()[:-2] + "\n")
        buf.seek(0)
        buf.truncate()
