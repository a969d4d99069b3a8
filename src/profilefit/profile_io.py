"""CSV ingestion and output for profile fitting.

Input files follow the renewables.ninja-style convention: a short metadata
preamble, then a header row, then one value per time step. Outputs are a
fitted-profile CSV, a JSON fit report, and optional plot-data CSVs holding
the chronological series and the descending-sorted duration curves.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import functools
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fitcore import (
    FitOutcome,
    NonFiniteValueError,
    Profile,
    ProfileFitError,
    ValueOutOfRangeError,
    validate_profile,
)

__all__ = [
    "CsvLayout",
    "CsvParseError",
    "FittedPair",
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


# Fast-path read block size: big enough that per-block overhead vanishes.
# Splitting a whole annual file at once keeps every field of the file
# alive together, and was slower: traced read_profile went from 5.0-5.5 to
# 8.2-8.6 ms per file (2-vCPU host).
_READ_BLOCK_CHARS = 16384


@dataclass(frozen=True)
class CsvLayout:
    """Shape of an input CSV: preamble to skip, then header, then data.

    The default matches files whose header sits on line 4 below three
    metadata lines, with the profile in an "electricity" column.

    Raises ValueError for a ``preamble_lines`` that is a bool, is not an
    int or is negative, an empty ``value_column``, or a ``delimiter`` that
    is not one character or is one that csv reserves: ``"``, ``\\r``,
    ``\\n`` or NUL.
    """

    preamble_lines: int = 3
    value_column: str = "electricity"
    time_column: str | None = "time"
    delimiter: str = ","

    def __post_init__(self):
        if isinstance(self.preamble_lines, bool) or not isinstance(self.preamble_lines, int):
            raise ValueError(f"preamble_lines must be an int, got {self.preamble_lines!r}")
        if self.preamble_lines < 0:
            raise ValueError("preamble_lines must be >= 0")
        if not self.value_column:
            raise ValueError("value_column must be non-empty")
        _check_delimiter(self.delimiter)


def _check_delimiter(delimiter: str) -> None:
    """Refuse a delimiter that is not one character, or is one csv reserves."""
    if len(delimiter) != 1:
        raise ValueError("delimiter must be a single character")
    if delimiter in '"\r\n\0':
        raise ValueError(f"delimiter must not be a quote, newline or NUL, got {delimiter!r}")


@dataclass(frozen=True, eq=False)
class FittedPair:
    """A Profile and the Profile fitted from it, as both CSV writers take them.

    The writers read one value table per Profile. A table ``(distinct,
    inverse, counts)`` holds each distinct bit pattern of the values once,
    as float64 in uint64 order (``-0.0`` apart from ``0.0``), with ``values
    == distinct[inverse]`` bit for bit and each pattern's count. The
    original's is the one its fit built and keeps
    (:attr:`~profilefit.fitcore.Profile._table`); the fitted one's, and the
    ``repr`` text of both profiles' distinct values, are built on first use
    and dropped with the pair. Table and text cost about 150 KB for an
    annual profile at 3 decimals, 870 KB when all 8760 values are distinct.
    """

    original: Profile
    fitted: Profile

    @functools.cached_property
    def _tables(self):
        """``(table, text)`` of ``original``, then of ``fitted``, whose table
        comes from the original's by :func:`_image_table` or else ``np.unique``."""
        original = self.original._table
        fitted = _image_table(original, self.fitted.values)
        if fitted is None:
            bits = self.fitted.values.view(np.uint64)
            fitted = np.unique(bits, return_inverse=True, return_counts=True)
        keys, inverse, counts = fitted
        tables = [original, (keys.view(np.float64), inverse, counts)]
        texts = [np.array(list(map(repr, table[0].tolist())), dtype=object) for table in tables]
        for array in [*tables[1], *texts]:
            array.setflags(write=False)
        return tuple(zip(tables, texts))


def _image_table(table, values: np.ndarray):
    """``np.unique``'s ``(keys, inverse, counts)`` of the uint64 view of
    ``values``, derived from ``table``, that triple for a profile of the same
    length; None unless each entry of ``table`` maps to one bit pattern of
    ``values``, as under :func:`~profilefit.fitcore.apply_exponent`. The
    entries' images, scattered from ``values`` through the table's inverse,
    are checked bit for bit; the keys are the distinct images. Where the
    images strictly increase, as ``p ** x`` keeps the positive keys for most
    x > 0, they are the keys, and ``table``'s inverse and counts are reused
    without a sort. Otherwise ``np.unique`` sorts and merges them: images
    tie (both zeros, x = 0 or inf, underflow), or ``-0.0``, the last key,
    maps to ``0.0``."""
    _, inverse, counts = table
    bits = values.view(np.uint64)
    if inverse.size != bits.size:
        return None
    image = np.empty(counts.size, dtype=np.uint64)
    image[inverse] = bits
    if not np.array_equal(image[inverse], bits):
        return None
    if (image[1:] > image[:-1]).all():  # in order and distinct: np.unique's keys
        return image, inverse, counts
    keys, image_inverse = np.unique(image, return_inverse=True)
    summed = np.bincount(image_inverse, weights=counts, minlength=keys.size)
    return keys, image_inverse[inverse], summed.astype(counts.dtype)


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
    with open(path, encoding="utf-8-sig", newline="") as fh:
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
            profile = validate_profile(values)
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
    item of the result is None). A block is split into one flat list of
    fields, and its value and time columns are the strided slices of that
    list, so no list is built per row. As in csv, ``"\\r\\n"`` ends a line
    and empty lines are skipped. Gives up (returns None) on anything that
    needs csv semantics or that :func:`_parse_rows` would report: a
    delimiter that is not ASCII, a quote, another ``\\r`` or NUL, a line
    longer than csv's field size limit, a block whose lines differ in width
    from its first line, which covers short rows and whitespace lines, a
    first line too short for the columns, or a cell ``float`` rejects. The
    caller then rereads the data with :func:`_parse_rows`, so parse errors
    and their line numbers come from one place.
    """
    sep = layout.delimiter
    if not sep.isascii():
        return None
    try:
        limit = csv.field_size_limit()
        header = fh.readline().replace("\r\n", "\n")
        if not header or len(header) > limit or _needs_csv(header):
            return None
        value_idx, time_idx = _column_indices(header.rstrip("\n").split(sep), layout, path)
        needed = value_idx if time_idx is None else max(value_idx, time_idx)
        values: list[float] = []
        timestamps: list[str] | None = [] if time_idx is not None else None
        while block := fh.read(_READ_BLOCK_CHARS):
            if not block.endswith("\n"):
                block += fh.readline()
            if "\r" in block:  # csv ends a row at "\r\n" as at "\n"
                # This copy is most of a CRLF file's extra read time (0.7 of
                # 0.8-1.0 ms per annual file). It stays: the cheaper one-character
                # replaces must first show that no "\r" stands alone, which csv
                # reads as a row end, and with that check two variants read a
                # CRLF annual file in 3.2-3.9 ms against 3.4-4.3 ms for this
                # copy, within noise (min of 25-60 reads, shared 2-vCPU host).
                block = block.replace("\r\n", "\n")
            if not block.endswith("\n"):  # the last line has no newline
                block += "\n"
            width = _line_width(block, sep)
            if width <= 1:
                # Maybe empty lines, which csv skips: drop them, check the rest.
                while "\n\n" in block:
                    block = block.replace("\n\n", "\n")
                if not (block := block.removeprefix("\n")):
                    continue
                width = _line_width(block, sep)
            if width <= needed or len(block) > limit or _needs_csv(block):
                return None
            fields = block.replace("\n", sep).split(sep)
            fields.pop()  # the empty text after the last newline
            values.extend(map(float, fields[value_idx::width]))
            if timestamps is not None:
                timestamps.extend(fields[time_idx::width])
    except ValueError:  # an unparseable cell, or undecodable bytes
        return None
    return values, timestamps, None


def _line_width(block: str, sep: str) -> int:
    """The count of fields, split by the ASCII ``sep``, in each line of
    ``block``, which ends with a newline: the block has that many field ends
    (a ``sep`` or a newline) per newline, and every width-th is a newline.
    0 unless every line has as many fields as the first."""
    width = block.count(sep, 0, block.index("\n")) + 1
    codes = np.frombuffer(block.encode(), dtype=np.uint8)
    ends = np.flatnonzero((codes == ord(sep)) | (codes == ord("\n")))
    if ends.size != width * block.count("\n"):
        return 0
    return width if (codes[ends[width - 1 :: width]] == ord("\n")).all() else 0


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
    pair: FittedPair,
    delimiter: str = CsvLayout.delimiter,
) -> None:
    """Write the pair's two series side by side, fields split by ``delimiter``.

    Header is ``time,original,fitted`` when timestamps are given, otherwise
    ``original,fitted``. Floats are rendered with shortest round-trip
    precision, so reading the file back reproduces them exactly; each
    distinct value of a Profile is formatted once per pair, for this writer
    and :func:`write_plot_data` both. A timestamp is written as
    ``format(stamp)``. A field holding the delimiter, a quote, ``\\r`` or
    ``\\n`` is quoted as csv.writer quotes it. A delimiter that
    :class:`CsvLayout` refuses raises ValueError before any file is opened.
    """
    _check_delimiter(delimiter)
    header = ["original", "fitted"]
    stamps = None
    if timestamps is not None:
        header.insert(0, "time")
        stamps = _quoted(list(map(format, timestamps)), delimiter)
    columns = [(text, _input_order(table)) for table, text in pair._tables]
    _write_csv(path, header, stamps, columns, delimiter)


def write_report(path, input_path, target: float, outcome: FitOutcome) -> None:
    """Write one fit as a JSON object: ``input_path``, the fitted profile's
    ``m``, ``r``, ``n`` and ``current_cf`` (its mean), ``target_cf``, then
    the outcome's ``exponent``, ``achieved_cf``, ``status`` and
    ``iterations``, in that order."""
    stats = outcome.stats
    report = {
        "input_path": str(input_path),
        "m": stats.m,
        "r": stats.r,
        "n": stats.n,
        "current_cf": stats.mean,
        "target_cf": float(target),
        "exponent": outcome.exponent,
        "achieved_cf": outcome.achieved_mean,
        "status": outcome.status.value,
        "iterations": outcome.iterations,
    }
    text = json.dumps(report, indent=2) + "\n"
    with _replacing(path) as fh:
        fh.write(text)


def write_plot_data(path_prefix, pair: FittedPair) -> None:
    """Emit plot-ready CSVs: chronological order and duration-curve order.

    ``<prefix>_chronological.csv`` keeps input order; ``<prefix>_sorted.csv``
    sorts each column independently in descending order. Both carry
    ``index,original,fitted`` with a 1-based index and are always
    comma-delimited, whatever delimiter the input and ``_fitted.csv`` use.
    Both files are built from the pair's value tables and the text of their
    distinct values, which :func:`write_profile` may already have made:
    the chronological column takes that text through the table's inverse,
    and the sorted column repeats it by the table's counts. ``-0.0`` ties
    with ``0.0``, and their rows keep input order. The index text is made
    once per length and kept for the last length written.
    """
    prefix = str(path_prefix)
    header = ["index", "original", "fitted"]
    index = _index_text(len(pair.original))  # digits, never quoted under ","
    for name, take in [("chronological", _input_order), ("sorted", _descending_order)]:
        columns = [(text, take(table)) for table, text in pair._tables]
        _write_csv(f"{prefix}_{name}.csv", header, index, columns)


@functools.lru_cache(maxsize=1)
def _index_text(n: int) -> tuple[str, ...]:
    """The plot CSVs' 1-based index column, ``"1"`` to ``str(n)``: about
    530 KB for 8760 rows, kept for the last length written."""
    return tuple(map(str, range(1, n + 1)))


def _input_order(table) -> np.ndarray:
    """The entry of each value in its value ``table``, in input order."""
    return table[1]


_SIGN_BIT = np.uint64(1 << 63)


def _descending_order(table) -> np.ndarray:
    """The entries of a value ``table`` that list its values from the
    largest to the smallest.

    The value table lists the bit patterns in ascending order: the values
    whose sign bit is clear ascend from ``0.0``, then those whose sign bit is
    set descend from ``-0.0``. So the distinct values are put in order
    without a sort, and each one's entry is repeated by its count. ``-0.0``
    ties with ``0.0``: when both occur, their rows keep input order.
    """
    distinct, inverse, counts = table
    split = int(np.searchsorted(distinct.view(np.uint64), _SIGN_BIT))
    order = np.concatenate([np.arange(split)[::-1], np.arange(split, distinct.size)])
    take = np.repeat(order, counts[order])
    if 0 < split < distinct.size and distinct[0] == distinct[split] == 0.0:
        zeros = inverse[(inverse == 0) | (inverse == split)]
        start = int(counts[distinct > 0.0].sum())
        take[start : start + zeros.size] = zeros
    return take


# Per context, so per thread: ``[out_dir, its private directory or None]``
# while a :func:`_temp_dir_for` block runs, else None.
_TEMP_DIR = contextvars.ContextVar("_TEMP_DIR", default=None)


@contextlib.contextmanager
def _temp_dir_for(out_dir):
    """Within the block, and in this context only, writes to a path in
    ``out_dir`` keep their temp files in one private directory under it.

    The directory is made by the first such write, so a block that writes
    nothing makes none, and one that cannot be made fails that write only.
    On exit it is removed with anything left in it, on error too.
    """
    active = [Path(out_dir), None]
    token = _TEMP_DIR.set(active)
    try:
        yield
    finally:
        _TEMP_DIR.reset(token)
        if active[1] is not None:
            shutil.rmtree(active[1], ignore_errors=True)


@contextlib.contextmanager
def _replacing(path):
    """Open a temp file for writing and move it onto ``path``.

    The temp file has ``path``'s name, in the private directory of a
    :func:`_temp_dir_for` block over ``path``'s directory; outside such a
    block, the write runs in a block of its own, whose directory lives for
    this file only. Either way the directory is new (``mkdtemp``) and on
    ``path``'s filesystem, so the temp file never replaces another file,
    and readers of ``path`` see the old file or the whole new one, never a
    partial write. A write that raises leaves ``path`` as it was and
    removes the temp file; an OSError then names ``path`` alone.
    """
    parent = Path(path).parent
    active = _TEMP_DIR.get()
    if active is None or active[0] != parent:
        with _temp_dir_for(parent), _replacing(path) as fh:
            yield fh
        return
    try:
        if active[1] is None:
            active[1] = tempfile.mkdtemp(prefix=".profilefit-", dir=parent)
        tmp = os.path.join(active[1], os.path.basename(path))
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        # Name the output: the temp directory's name differs from run to run.
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def _write_csv(path, header: list[str], head, columns, delimiter: str = ",") -> None:
    """Write a header, then per row ``head``'s text (unless ``head`` is None)
    and the text of the two ``columns``, as csv.writer writes them.

    ``head`` is a sequence of row texts, already quoted. Each column is a
    pair ``(texts, take)``: its text in row i is ``texts[take[i]]``. Raises
    :class:`LengthMismatchError`, before any file is opened, when the
    columns differ in length. The header and each column's distinct texts
    are quoted by :func:`_quoted`, once per text, and the rows are joined
    by :func:`_join_rows`.
    """
    heads = [] if head is None else [head]
    lengths = [*map(len, heads), *(take.size for _, take in columns)]
    if len(set(lengths)) > 1:
        raise LengthMismatchError(
            "columns differ in length: "
            + ", ".join(f"{name} has {n}" for name, n in zip(header, lengths))
        )
    columns = [(np.asarray(_quoted(t, delimiter), dtype=object), take) for t, take in columns]
    body = _join_rows(head, columns, delimiter)
    with _replacing(path) as fh:
        fh.write(delimiter.join(_quoted(header, delimiter)) + "\n")
        fh.write(body)


def _quoted(texts, delimiter: str):
    """``texts`` as csv.writer writes each as a field under a ``"\\r\\n"``
    terminator: wrapped in quotes, its quotes doubled, when it holds
    ``delimiter``, ``"``, ``\\r`` or ``\\n``. ``texts`` itself when none does.

    Under a ``"\\n"`` terminator csv.writer leaves ``\\r`` bare, and a reader
    then splits the row there.
    """
    special = (delimiter, '"', "\r", "\n")
    joined = "".join(texts)
    if not any(c in joined for c in special):
        return texts
    return [
        '"' + text.replace('"', '""') + '"' if any(c in text for c in special) else text
        for text in texts
    ]


def _join_rows(head, columns, delimiter: str) -> str:
    """The rows of :func:`_write_csv`, whose texts are already quoted, in
    one ``"".join``.

    Each row is ``head``'s text, if any, then a row tail
    ``<delimiter>first<delimiter>second\\n`` (no leading delimiter without a
    head), and the flat list interleaves the two. A tail is built once per
    distinct first text when the second column's entry is a function of the
    first's, as when ``fitted`` came from ``original`` by
    :func:`~profilefit.fitcore.apply_exponent`; otherwise once per distinct
    pair of entries, found by one ``np.unique``.
    """
    (first, a), (second, b) = columns
    image = np.zeros(first.size, dtype=b.dtype)
    image[a] = b
    if (image[a] == b).all():
        take = a
    else:
        pairs, take = np.unique(a * second.size + b, return_inverse=True)
        first, image = first[pairs // second.size], pairs % second.size
    lead = "" if head is None else delimiter
    tails = np.array(
        [f"{lead}{x}{delimiter}{y}\n" for x, y in zip(first.tolist(), second[image].tolist())],
        dtype=object,
    )[take].tolist()
    if head is None:
        return "".join(tails)
    rows = [None] * (2 * len(tails))
    rows[::2] = head
    rows[1::2] = tails
    return "".join(rows)
