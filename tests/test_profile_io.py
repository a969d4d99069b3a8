import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest

from profilefit.fitcore import (
    NonFiniteValueError,
    ValueOutOfRangeError,
    apply_exponent,
    validate_profile,
)
from profilefit.profile_io import (
    CsvLayout,
    CsvParseError,
    FitReport,
    LengthMismatchError,
    MissingColumnError,
    read_profile,
    write_plot_data,
    write_profile,
    write_report,
)

EXAMPLE = (
    "metadata line one\n"
    "metadata line two\n"
    "metadata line three\n"
    "time,electricity\n"
    "2019-01-01 00:00,0.5\n"
    "2019-01-01 01:00,0.75\n"
)


def test_read_profile_with_default_layout(tmp_path) -> None:
    path = tmp_path / "wind.csv"
    path.write_text(EXAMPLE)
    profile, timestamps = read_profile(path)
    np.testing.assert_array_equal(profile.values, [0.5, 0.75])
    assert timestamps == ["2019-01-01 00:00", "2019-01-01 01:00"]


def test_read_profile_missing_column(tmp_path) -> None:
    path = tmp_path / "wind.csv"
    path.write_text(EXAMPLE)
    with pytest.raises(MissingColumnError) as excinfo:
        read_profile(path, CsvLayout(value_column="power"))
    assert excinfo.value.column == "power"


def test_read_profile_without_preamble(tmp_path) -> None:
    path = tmp_path / "plain.csv"
    path.write_text("time,electricity\n2020-05-05,0.3\n")
    profile, timestamps = read_profile(path, CsvLayout(preamble_lines=0))
    np.testing.assert_array_equal(profile.values, [0.3])
    assert timestamps == ["2020-05-05"]


def test_read_profile_without_time_column(tmp_path) -> None:
    path = tmp_path / "bare.csv"
    path.write_text("electricity\n0.25\n0.5\n")
    profile, timestamps = read_profile(path, CsvLayout(preamble_lines=0))
    np.testing.assert_array_equal(profile.values, [0.25, 0.5])
    assert timestamps is None


def test_read_profile_reports_parse_error_with_file_line(tmp_path) -> None:
    path = tmp_path / "bad.csv"
    path.write_text("m1\nm2\nm3\ntime,electricity\nt0,0.5\nt1,not-a-number\n")
    with pytest.raises(CsvParseError) as excinfo:
        read_profile(path)
    assert excinfo.value.line_number == 6
    assert excinfo.value.content == "not-a-number"


def test_read_profile_maps_validation_to_file_line(tmp_path) -> None:
    path = tmp_path / "range.csv"
    path.write_text("m1\nm2\nm3\ntime,electricity\nt0,0.5\nt1,1.2\n")
    with pytest.raises(ValueOutOfRangeError) as excinfo:
        read_profile(path)
    assert excinfo.value.line == 6
    assert excinfo.value.value == 1.2


def test_read_profile_truncated_preamble(tmp_path) -> None:
    path = tmp_path / "short.csv"
    path.write_text("only one line\n")
    with pytest.raises(CsvParseError):
        read_profile(path)


def test_read_profile_custom_delimiter(tmp_path) -> None:
    path = tmp_path / "semi.csv"
    path.write_text("time;electricity\nt0;0.4\n")
    layout = CsvLayout(preamble_lines=0, delimiter=";")
    profile, timestamps = read_profile(path, layout)
    np.testing.assert_array_equal(profile.values, [0.4])
    assert timestamps == ["t0"]


def test_write_profile_single_row(tmp_path) -> None:
    path = tmp_path / "out.csv"
    write_profile(
        path,
        ["t0"],
        validate_profile([0.5]),
        validate_profile([0.25]),
    )
    assert path.read_text() == "time,original,fitted\nt0,0.5,0.25\n"


def test_write_profile_without_timestamps(tmp_path) -> None:
    path = tmp_path / "out.csv"
    write_profile(path, None, validate_profile([0.5]), validate_profile([0.25]))
    assert path.read_text() == "original,fitted\n0.5,0.25\n"


def test_write_profile_length_mismatch(tmp_path) -> None:
    with pytest.raises(LengthMismatchError):
        write_profile(
            tmp_path / "out.csv",
            None,
            validate_profile([0.5, 0.6]),
            validate_profile([0.25]),
        )
    with pytest.raises(LengthMismatchError):
        write_profile(
            tmp_path / "out.csv",
            ["t0"],
            validate_profile([0.5, 0.6]),
            validate_profile([0.25, 0.3]),
        )


def test_fitted_column_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(11)
    original = validate_profile(rng.uniform(0.0, 1.0, size=200))
    fitted = apply_exponent(original, 0.731)
    path = tmp_path / "round.csv"
    write_profile(path, None, original, fitted)
    layout = CsvLayout(preamble_lines=0, value_column="fitted", time_column=None)
    back, _ = read_profile(path, layout)
    np.testing.assert_allclose(back.values, fitted.values, rtol=0, atol=1e-9)


def test_write_report_serializes_all_fields(tmp_path) -> None:
    report = FitReport(
        input_path="wind.csv",
        m=8760,
        r=8700,
        n=12,
        current_cf=0.32,
        target_cf=0.6,
        exponent=2.0,
        achieved_cf=0.6,
        status="exact",
        iterations=41,
        elapsed_ms=3.2,
    )
    path = tmp_path / "report.json"
    write_report(path, report)
    loaded = json.loads(path.read_text())
    assert loaded == {
        "input_path": "wind.csv",
        "m": 8760,
        "r": 8700,
        "n": 12,
        "current_cf": 0.32,
        "target_cf": 0.6,
        "exponent": 2.0,
        "achieved_cf": 0.6,
        "status": "exact",
        "iterations": 41,
        "elapsed_ms": 3.2,
    }
    assert isinstance(loaded["exponent"], float)


def test_write_report_clamped_low_has_zero_exponent(tmp_path) -> None:
    report = FitReport(
        input_path="a.csv",
        m=2,
        r=1,
        n=1,
        current_cf=0.5,
        target_cf=0.6,
        exponent=0.0,
        achieved_cf=0.5,
        status="clamped_low",
        iterations=0,
        elapsed_ms=0.1,
    )
    path = tmp_path / "report.json"
    write_report(path, report)
    loaded = json.loads(path.read_text())
    assert loaded["exponent"] == 0.0
    assert loaded["status"] == "clamped_low"


def test_plot_data_sorted_descending(tmp_path) -> None:
    write_plot_data(
        tmp_path / "plot",
        validate_profile([0.2, 0.8]),
        validate_profile([0.4, 0.9]),
    )
    sorted_rows = (tmp_path / "plot_sorted.csv").read_text().splitlines()
    assert sorted_rows == ["index,original,fitted", "1,0.8,0.9", "2,0.2,0.4"]


def test_plot_data_chronological_preserves_order(tmp_path) -> None:
    write_plot_data(
        tmp_path / "plot",
        validate_profile([0.2, 0.8, 0.5]),
        validate_profile([0.4, 0.9, 0.6]),
    )
    rows = (tmp_path / "plot_chronological.csv").read_text().splitlines()
    assert rows == [
        "index,original,fitted",
        "1,0.2,0.4",
        "2,0.8,0.9",
        "3,0.5,0.6",
    ]


def test_plot_data_row_counts_match_profile_length(tmp_path) -> None:
    rng = np.random.default_rng(3)
    original = validate_profile(rng.uniform(0, 1, size=50))
    fitted = apply_exponent(original, 2.0)
    write_plot_data(tmp_path / "plot", original, fitted)
    for name in ("plot_chronological.csv", "plot_sorted.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 51  # header + one row per value


def test_plot_data_length_mismatch(tmp_path) -> None:
    with pytest.raises(LengthMismatchError):
        write_plot_data(
            tmp_path / "plot",
            validate_profile([0.2, 0.8]),
            validate_profile([0.4]),
        )


def test_read_profile_full_year_layout(tmp_path) -> None:
    rng = np.random.default_rng(8760)
    values = rng.uniform(0.0, 1.0, size=8760)
    lines = ["source: synthetic", "units: per-unit", "tz: UTC", "time,electricity"]
    lines += [
        f"2019-01-01 {i % 24:02d}:00,{float(v)!r}" for i, v in enumerate(values)
    ]
    path = tmp_path / "year.csv"
    path.write_text("\n".join(lines) + "\n")
    profile, timestamps = read_profile(path)
    assert len(profile) == 8760
    assert len(timestamps) == 8760


def test_csv_layout_validation() -> None:
    with pytest.raises(ValueError):
        CsvLayout(preamble_lines=-1)
    with pytest.raises(ValueError):
        CsvLayout(value_column="")
    with pytest.raises(ValueError):
        CsvLayout(delimiter=",,")


# ---------------------------------------------------------------------------
# Block-wise fast paths against the csv module
# ---------------------------------------------------------------------------

AWKWARD = [5e-324, 1e-05, 0.1, 1.0, 0.0, 1 / 3, 0.30000000000000004, 1e-300]


def _csv_reference(header, rows, delimiter=","):
    """What csv.writer writes for these rows: the row-by-row reference."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _awkward_profiles(n):
    rng = np.random.default_rng(n)
    values = rng.uniform(0.0, 1.0, size=n)
    values[: len(AWKWARD)] = AWKWARD
    original = validate_profile(values)
    return original, apply_exponent(original, 1.7)


@pytest.mark.parametrize("delimiter", [",", ";", "e", "."])
@pytest.mark.parametrize("odd_stamp", [None, "1,2", 'say "hi"', "a\nb", "a\rb"])
def test_write_profile_matches_csv_writer(tmp_path, delimiter, odd_stamp) -> None:
    # 1300 rows span three write blocks; an odd stamp sends its block to csv.
    original, fitted = _awkward_profiles(1300)
    stamps = [f"2019-01-01 {i % 24:02d}:00" for i in range(1300)]
    if odd_stamp is not None:
        stamps[700] = odd_stamp
    rows = zip(stamps, original.values.tolist(), fitted.values.tolist())
    want = _csv_reference(["time", "original", "fitted"], rows, delimiter)
    if odd_stamp == "a\rb":
        # csv.writer leaves "\r" bare under a "\n" terminator; write_profile quotes it.
        want = want.replace(f"a\rb{delimiter}".encode(), f'"a\rb"{delimiter}'.encode())
    path = tmp_path / "out.csv"
    write_profile(path, stamps, original, fitted, CsvLayout(delimiter=delimiter))
    assert path.read_bytes() == want

    rows = zip(original.values.tolist(), fitted.values.tolist())
    want = _csv_reference(["original", "fitted"], rows, delimiter)
    write_profile(path, None, original, fitted, CsvLayout(delimiter=delimiter))
    assert path.read_bytes() == want


def test_write_plot_data_matches_csv_writer(tmp_path) -> None:
    original, fitted = _awkward_profiles(1300)
    write_plot_data(tmp_path / "plot", original, fitted)
    for name, a, b in [
        ("chronological", original.values, fitted.values),
        ("sorted", np.sort(original.values)[::-1], np.sort(fitted.values)[::-1]),
    ]:
        rows = zip(range(1, 1301), a.tolist(), b.tolist())
        want = _csv_reference(["index", "original", "fitted"], rows)
        assert (tmp_path / f"plot_{name}.csv").read_bytes() == want


PLAIN = "m1\nm2\nm3\ntime,electricity\nt0,0.5\nt1,0.75\nt2,1\n"


@pytest.mark.parametrize(
    "text",
    [
        PLAIN.replace("\n", "\r\n"),
        'm1\nm2\nm3\ntime,"electricity"\n"t0",0.5\nt1,"0.75"\nt2,1\n',
        "m1\nm2\nm3\ntime,electricity\n\nt0,0.5\n\nt1,0.75\nt2,1",
    ],
    ids=["crlf", "quoted", "blank-lines"],
)
def test_read_profile_same_result_whatever_the_csv_form(tmp_path, text) -> None:
    (tmp_path / "plain.csv").write_text(PLAIN, newline="")
    (tmp_path / "other.csv").write_text(text, newline="")
    want, want_stamps = read_profile(tmp_path / "plain.csv")
    got, got_stamps = read_profile(tmp_path / "other.csv")
    np.testing.assert_array_equal(got.values, want.values)
    assert got_stamps == want_stamps == ["t0", "t1", "t2"]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("rows_before", [1, 3000])
@pytest.mark.parametrize(
    "bad_row, error, line_of",
    [
        ("t_short", CsvParseError, lambda e: e.line_number),
        ('"t_bad",x', CsvParseError, lambda e: e.line_number),
        ("t_bad,1.5", ValueOutOfRangeError, lambda e: e.line),
    ],
    ids=["short-row", "unparseable", "out-of-range"],
)
def test_read_profile_error_lines_on_every_path(
    tmp_path, newline, rows_before, bad_row, error, line_of
) -> None:
    # 3000 rows put the bad row past the first read block.
    lines = ["m1", "m2", "m3", "time,electricity"]
    lines += [f"t{i},0.5" for i in range(rows_before)]
    lines += [bad_row, "t_last,0.25"]
    path = tmp_path / "bad.csv"
    path.write_text(newline.join(lines) + newline, newline="")
    with pytest.raises(error) as excinfo:
        read_profile(path)
    assert line_of(excinfo.value) == 5 + rows_before


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_profile_from_a_pipe() -> None:
    # A pipe cannot seek, so the whole file goes through the row-by-row path.
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, EXAMPLE.encode("utf-8"))
        os.close(write_end)
        profile, timestamps = read_profile(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    np.testing.assert_array_equal(profile.values, [0.5, 0.75])
    assert timestamps == ["2019-01-01 00:00", "2019-01-01 01:00"]


@pytest.mark.parametrize(
    "text, error, line",
    [
        # Two blank lines before the bad value, which sits on line 8.
        ("m\nm\nm\ntime,electricity\nt0,0.5\n\n\nt1,1.5\n", ValueOutOfRangeError, 8),
        ("m\nm\nm\ntime,electricity\n\nt0,nan\n", NonFiniteValueError, 6),
        # A quoted time cell spanning lines 5-6 puts the bad value on line 7.
        ('m\nm\nm\ntime,electricity\n"t\n0",0.5\nt1,-0.5\n', ValueOutOfRangeError, 7),
        ('m\nm\nm\ntime,electricity\n"t\n0",0.5\nt1,x\n', CsvParseError, 7),
        ('m\nm\nm\ntime,electricity\n\n"t\n0",0.5\n\nt1\n', CsvParseError, 9),
    ],
    ids=["blank-lines", "blank-line-nan", "multi-line-field", "parse-after-multi-line",
         "short-row-after-both"],
)
def test_read_profile_error_line_counts_blank_and_multi_line_rows(
    tmp_path, text, error, line
) -> None:
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    with pytest.raises(error) as excinfo:
        read_profile(path)
    got = excinfo.value.line_number if error is CsvParseError else excinfo.value.line
    assert got == line


class _Unprintable:
    def __format__(self, spec):
        raise RuntimeError("cannot format")


def test_failed_writes_keep_the_previous_file(tmp_path) -> None:
    original, fitted = _awkward_profiles(1300)
    stamps = [f"t{i}" for i in range(1300)]
    path = tmp_path / "out.csv"
    write_profile(path, stamps, original, fitted)
    before = path.read_bytes()
    # The bad stamp sits in the second write block, after the first was written.
    stamps[700] = _Unprintable()
    with pytest.raises(RuntimeError):
        write_profile(path, stamps, fitted, original)
    assert path.read_bytes() == before

    report_path = tmp_path / "out_report.json"
    report = FitReport("in.csv", 3, 0, 0, 0.5, 0.4, 1.2, 0.4, "exact", 5, 1.0)
    write_report(report_path, report)
    before = report_path.read_bytes()
    with pytest.raises(TypeError):  # json.dump fails on the last field
        write_report(report_path, dataclasses.replace(report, elapsed_ms=object()))
    assert report_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out_report.json"]
