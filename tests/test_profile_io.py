import csv
import dataclasses
import datetime
import gc
import io
import json
import os
import weakref

import numpy as np
import pytest

from profilefit import fitcore, profile_io
from profilefit.fitcore import (
    FitOutcome,
    FitStatus,
    NonFiniteValueError,
    Profile,
    ProfileStats,
    ValueOutOfRangeError,
    apply_exponent,
    find_solution,
    validate_profile,
)
from profilefit.profile_io import (
    CsvLayout,
    CsvParseError,
    FittedPair,
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


def test_read_profile_reports_the_first_bad_value_whatever_its_kind(tmp_path) -> None:
    path = tmp_path / "range.csv"
    path.write_text("m1\nm2\nm3\ntime,electricity\nt0,0.5\nt1,1.2\nt2,nan\n")
    with pytest.raises(ValueOutOfRangeError) as excinfo:
        read_profile(path)
    assert excinfo.value.line == 6


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
    write_profile(path, ["t0"], FittedPair(validate_profile([0.5]), validate_profile([0.25])))
    assert path.read_text() == "time,original,fitted\nt0,0.5,0.25\n"


def test_write_profile_without_timestamps(tmp_path) -> None:
    path = tmp_path / "out.csv"
    write_profile(path, None, FittedPair(validate_profile([0.5]), validate_profile([0.25])))
    assert path.read_text() == "original,fitted\n0.5,0.25\n"


def test_write_profile_length_mismatch(tmp_path) -> None:
    with pytest.raises(LengthMismatchError):
        write_profile(
            tmp_path / "out.csv",
            None,
            FittedPair(validate_profile([0.5, 0.6]), validate_profile([0.25])),
        )
    with pytest.raises(LengthMismatchError, match="time has 1, original has 2, fitted has 2"):
        write_profile(
            tmp_path / "out.csv",
            ["t0"],
            FittedPair(validate_profile([0.5, 0.6]), validate_profile([0.25, 0.3])),
        )
    assert list(tmp_path.iterdir()) == []  # no output, no private directory


# With "e" the header's "fitted" and every value in e-notation are quoted;
# with "-" every such value with a negative exponent is.
@pytest.mark.parametrize("delimiter", [",", ";", "e", "-"])
def test_fitted_column_round_trip(tmp_path, delimiter) -> None:
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 1.0, size=200)
    values[: len(AWKWARD)] = AWKWARD
    original = validate_profile(values)
    fitted = apply_exponent(original, 0.731)
    path = tmp_path / "round.csv"
    write_profile(path, None, FittedPair(original, fitted), delimiter=delimiter)
    layout = CsvLayout(
        preamble_lines=0, value_column="fitted", time_column=None, delimiter=delimiter
    )
    back, _ = read_profile(path, layout)
    np.testing.assert_allclose(back.values, fitted.values, rtol=0, atol=0)


def test_write_report_serializes_all_fields(tmp_path) -> None:
    outcome = FitOutcome(
        exponent=2.0,
        achieved_mean=0.6,
        status=FitStatus.EXACT,
        iterations=41,
        stats=ProfileStats(m=8760, r=8700, n=12, mean=0.32),
        bracket=(1.5, 2.5),  # not reported
    )
    path = tmp_path / "report.json"
    # The target is written as a float, whatever number type it came as.
    write_report(path, "wind.csv", np.float32(0.5), outcome)
    assert path.read_text() == (
        "{\n"
        '  "input_path": "wind.csv",\n'
        '  "m": 8760,\n'
        '  "r": 8700,\n'
        '  "n": 12,\n'
        '  "current_cf": 0.32,\n'
        '  "target_cf": 0.5,\n'
        '  "exponent": 2.0,\n'
        '  "achieved_cf": 0.6,\n'
        '  "status": "exact",\n'
        '  "iterations": 41\n'
        "}\n"
    )


def test_write_report_clamped_low_has_zero_exponent(tmp_path) -> None:
    outcome = find_solution(validate_profile([0.0, 1.0]), 0.6)
    path = tmp_path / "report.json"
    write_report(path, "a.csv", 0.6, outcome)
    loaded = json.loads(path.read_text())
    assert loaded["exponent"] == 0.0
    assert loaded["status"] == "clamped_low"
    assert (loaded["m"], loaded["r"], loaded["n"], loaded["current_cf"]) == (2, 1, 1, 0.5)


def test_plot_data_sorted_descending(tmp_path) -> None:
    write_plot_data(
        tmp_path / "plot",
        FittedPair(validate_profile([0.2, 0.8]), validate_profile([0.4, 0.9])),
    )
    sorted_rows = (tmp_path / "plot_sorted.csv").read_text().splitlines()
    assert sorted_rows == ["index,original,fitted", "1,0.8,0.9", "2,0.2,0.4"]


def test_plot_data_chronological_preserves_order(tmp_path) -> None:
    write_plot_data(
        tmp_path / "plot",
        FittedPair(validate_profile([0.2, 0.8, 0.5]), validate_profile([0.4, 0.9, 0.6])),
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
    write_plot_data(tmp_path / "plot", FittedPair(original, fitted))
    for name in ("plot_chronological.csv", "plot_sorted.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 51  # header + one row per value


def test_plot_data_length_mismatch(tmp_path) -> None:
    with pytest.raises(LengthMismatchError):
        write_plot_data(
            tmp_path / "plot",
            FittedPair(validate_profile([0.2, 0.8]), validate_profile([0.4])),
        )
    assert list(tmp_path.iterdir()) == []  # no output, no private directory


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
    # A float preamble used to build, then fail every file with TypeError.
    for field, value, message in [
        ("preamble_lines", -1, ">= 0"),
        ("preamble_lines", 1.5, "must be an int"),
        ("preamble_lines", "3", "must be an int"),
        ("preamble_lines", True, "must be an int"),
        ("preamble_lines", False, "must be an int"),
        ("value_column", "", "non-empty"),
        ("delimiter", ",,", "single character"),
        ("delimiter", "", "single character"),
        *[("delimiter", reserved, "must not be a quote") for reserved in '"\r\n\0'],
    ]:
        with pytest.raises(ValueError, match=message):
            CsvLayout(**{field: value})


@pytest.mark.parametrize("delimiter", ['"', "\r", "\n", "\0", ",,"])
def test_write_profile_refuses_a_delimiter_csv_reserves(tmp_path, delimiter) -> None:
    # With "\n" a file was written that read_profile could not read back.
    p = validate_profile([0.5, 0.25])
    with pytest.raises(ValueError, match="delimiter"):
        write_profile(tmp_path / "out.csv", ["t0", "t1"], FittedPair(p, p), delimiter=delimiter)
    assert list(tmp_path.iterdir()) == []  # no output, no private directory


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


def _independent_profiles(n):
    """An original at 2 decimals, so values repeat, and a fitted Profile drawn
    apart from it: equal original values sit beside different fitted ones."""
    rng = np.random.default_rng(n + 1)
    values = np.round(rng.uniform(0.0, 1.0, size=n), 2)
    values[: len(AWKWARD)] = AWKWARD
    fitted = rng.uniform(0.0, 1.0, size=n)
    fitted[-len(AWKWARD) :] = AWKWARD
    pairs = set(zip(values.tolist(), fitted.tolist()))
    assert len(pairs) > len(set(values.tolist()))  # fitted is no function of original
    return validate_profile(values), validate_profile(fitted)


# Reprs such as -0.0 and 1e-05 hold "-", "0" and "1", so with those
# delimiters a value's text alone is quoted.
@pytest.mark.parametrize("delimiter", [",", ";", "e", ".", "-", "0", "1", " ", "\t"])
@pytest.mark.parametrize("odd_stamp", [None, "1,2", 'say "hi"', "a\nb", "a\rb", "", " x"])
def test_write_profile_matches_csv_writer(tmp_path, delimiter, odd_stamp) -> None:
    original, fitted = _awkward_profiles(1300)
    _assert_fitted_file_matches_csv_writer(tmp_path, original, fitted, delimiter, odd_stamp)


@pytest.mark.parametrize("delimiter", [",", ";", "e", ".", "-", "0", "1", " ", "\t"])
@pytest.mark.parametrize("odd_stamp", [None, "1,2", 'say "hi"', "a\nb", "a\rb", "", " x"])
def test_write_profile_matches_csv_writer_for_any_fitted(tmp_path, delimiter, odd_stamp) -> None:
    # Each row's original and fitted text pair up per distinct pair here,
    # not per distinct original value.
    original, fitted = _independent_profiles(1300)
    _assert_fitted_file_matches_csv_writer(tmp_path, original, fitted, delimiter, odd_stamp)


class _TwoFaced:
    def __format__(self, spec):
        return "formatted"

    def __str__(self):
        return "str"


def _assert_fitted_file_matches_csv_writer(tmp_path, original, fitted, delimiter, odd_stamp):
    # An odd stamp is quoted, or not, on its own: every row, before and
    # after it, must come out as csv.writer writes it. Each stamp is
    # written as format(stamp), whichever other stamps need quoting.
    stamps = [f"2019-01-01 {i % 24:02d}:00" for i in range(1300)]
    stamps[100] = _TwoFaced()
    if odd_stamp is not None:
        stamps[700] = odd_stamp
    rows = zip(map(format, stamps), original.values.tolist(), fitted.values.tolist())
    want = _csv_reference(["time", "original", "fitted"], rows, delimiter)
    if odd_stamp == "a\rb":
        # csv.writer leaves "\r" bare under a "\n" terminator; write_profile quotes it.
        want = want.replace(f"a\rb{delimiter}".encode(), f'"a\rb"{delimiter}'.encode())
    path = tmp_path / "out.csv"
    write_profile(path, stamps, FittedPair(original, fitted), delimiter=delimiter)
    assert path.read_bytes() == want

    rows = zip(original.values.tolist(), fitted.values.tolist())
    want = _csv_reference(["original", "fitted"], rows, delimiter)
    write_profile(path, None, FittedPair(original, fitted), delimiter=delimiter)
    assert path.read_bytes() == want


def test_write_plot_data_matches_csv_writer(tmp_path) -> None:
    _assert_plot_files_match_csv_writer(tmp_path, *_awkward_profiles(1300))


def test_write_plot_data_matches_csv_writer_for_any_fitted(tmp_path) -> None:
    _assert_plot_files_match_csv_writer(tmp_path, *_independent_profiles(1300))


def _assert_plot_files_match_csv_writer(tmp_path, original, fitted) -> None:
    write_plot_data(tmp_path / "plot", FittedPair(original, fitted))
    for name, a, b in [
        ("chronological", original.values, fitted.values),
        ("sorted", np.sort(original.values)[::-1], np.sort(fitted.values)[::-1]),
    ]:
        rows = zip(range(1, 1301), a.tolist(), b.tolist())
        want = _csv_reference(["index", "original", "fitted"], rows)
        assert (tmp_path / f"plot_{name}.csv").read_bytes() == want


def _assert_sorted_file_is_stable_descending(tmp_path, original, fitted) -> None:
    # Each column non-increasing, equal values (-0.0 against 0.0 too) in
    # input order: the bytes of np.sort(column)[::-1] but for -0.0 against
    # 0.0, whose order np.sort leaves undefined.
    write_plot_data(tmp_path / "plot", FittedPair(original, fitted))
    rows = zip(
        range(1, len(original) + 1),
        sorted(original.values.tolist(), reverse=True),
        sorted(fitted.values.tolist(), reverse=True),
    )
    want = _csv_reference(["index", "original", "fitted"], rows)
    assert (tmp_path / "plot_sorted.csv").read_bytes() == want


SIGNED_ZEROS = [0.5, -0.0, 0.0, 0.5, 1.0, -0.0, 0.25, 0.0, 1.0, 0.25, -0.0]


@pytest.mark.parametrize(
    "case",
    [
        "signed-zeros",
        "fitted-signed-zeros",
        "unrelated-fitted",
        "x=0",
        "x=1000",
        "outside-unit-range",
    ],
)
def test_sorted_plot_file_is_each_column_sorted(tmp_path, case) -> None:
    # Each column must be sorted whatever order the fitted column takes
    # against original, with ties and signed zeros.
    rng = np.random.default_rng(11)
    original = validate_profile(np.round(rng.uniform(0.0, 1.0, size=1300), 2))
    if case == "signed-zeros":
        original = validate_profile(SIGNED_ZEROS * 50)
        fitted = apply_exponent(original, 2.0)
    elif case == "fitted-signed-zeros":
        fitted = validate_profile(SIGNED_ZEROS * 100 + [0.0] * 200)
    elif case == "outside-unit-range":
        # A Profile built directly once held values outside [0, 1], and the
        # plot writer wrote every one of them; now none can reach it.
        values = np.array([0.5, -0.25, 0.0, 1.5, -0.0, 0.5] * 20)
        with pytest.raises(ValueOutOfRangeError, match="index 1"):
            Profile(values)
        with pytest.raises(NonFiniteValueError, match="index 2"):
            Profile(np.array([0.5, 0.0, np.nan]))
        return
    elif case == "unrelated-fitted":
        fitted = validate_profile(rng.uniform(0.0, 1.0, size=1300))
    else:  # clamped fits: every positive value ties at 1.0, or underflows to 0.0
        fitted = apply_exponent(original, float(case[2:]))
    _assert_sorted_file_is_stable_descending(tmp_path, original, fitted)


@pytest.mark.parametrize("m", [1, 511, 512, 513, 8760])
def test_sorted_plot_file_across_write_blocks(tmp_path, m) -> None:
    rng = np.random.default_rng(m)
    original = validate_profile(np.round(rng.uniform(-0.5, 1.0, size=m).clip(0.0), 3))
    _assert_sorted_file_is_stable_descending(tmp_path, original, apply_exponent(original, 1.7))


def _read_dir(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def _write_outputs(out_dir, stamps, pair):
    """Run both writers on one pair in the CLI's order; return every file's bytes by name."""
    out_dir.mkdir()
    write_profile(out_dir / "x_fitted.csv", stamps, pair)
    write_plot_data(out_dir / "x", pair)
    return _read_dir(out_dir)


def _fresh_copy(pair):
    return FittedPair(validate_profile(pair.original.values), validate_profile(pair.fitted.values))


def test_writing_a_pair_twice_gives_the_bytes_of_fresh_copies(tmp_path) -> None:
    pair = FittedPair(*_awkward_profiles(1300))
    stamps = [f"t{i}" for i in range(1300)]
    first = _write_outputs(tmp_path / "first", stamps, pair)
    again = _write_outputs(tmp_path / "again", stamps, pair)
    fresh = _write_outputs(tmp_path / "fresh", stamps, _fresh_copy(pair))
    assert len(first) == 3
    assert first == again == fresh


def test_plot_data_after_write_profile_matches_each_writer_alone(tmp_path) -> None:
    pair = FittedPair(*_awkward_profiles(1300))
    shared = _write_outputs(tmp_path / "shared", None, pair)
    alone = tmp_path / "alone"
    alone.mkdir()
    write_profile(alone / "x_fitted.csv", None, _fresh_copy(pair))
    write_plot_data(alone / "x", _fresh_copy(pair))
    assert shared == _read_dir(alone)


def test_each_profiles_text_is_built_once(tmp_path, monkeypatch) -> None:
    # write_profile and then write_plot_data on one pair, as the CLI calls
    # them: each distinct value of each Profile is formatted once over both.
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    for module in (fitcore, profile_io):
        monkeypatch.setattr(module, "repr", counting_repr, raising=False)
    pair = FittedPair(*_awkward_profiles(1300))
    _write_outputs(tmp_path / "out", None, pair)
    assert len(calls) == sum(len(table[0]) for table, _ in pair._tables)
    assert len(calls) > 1300  # the fitted column is formatted too


def test_writing_a_pair_leaves_its_profiles_with_the_fits_caches_only(tmp_path) -> None:
    # The writers' text and the fitted table live on the pair, not on a Profile.
    original = validate_profile(np.round(np.random.default_rng(5).uniform(0, 1, 500), 3))
    fitted = apply_exponent(original, find_solution(original, 0.3).exponent)
    pair = FittedPair(original, fitted)
    _write_outputs(tmp_path / "out", ["t"] * 500, pair)
    fit_caches = {
        "values", "_table", "_bases", "_log_bases", "_weights", "_inner_logs",
        "_stats", "_last_fitted",
    }
    assert set(vars(original)) <= fit_caches and set(vars(fitted)) <= fit_caches
    assert [f.name for f in dataclasses.fields(FittedPair)] == ["original", "fitted"]
    assert pair != FittedPair(original, fitted)  # compared by identity
    arrays = [a for table, text in pair._tables for a in (*table, text)]
    assert not any(a.flags.writeable for a in arrays)


def test_written_profiles_are_not_kept_alive(tmp_path) -> None:
    # A long batch must not keep every file's column text.
    original, fitted = _awkward_profiles(1300)
    pair = FittedPair(original, fitted)
    _write_outputs(tmp_path / "out", None, pair)
    refs = [weakref.ref(pair), weakref.ref(original), weakref.ref(fitted)]
    del pair, original, fitted
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def _unique_table(values):
    return np.unique(values.view(np.uint64), return_inverse=True, return_counts=True)


def test_fitted_table_falls_back_to_unique() -> None:
    # Two equal original values map to different values, or the lengths
    # differ: the fitted table comes from np.unique instead, and is still right.
    original = validate_profile([0.5, 0.5, 0.25])
    for values in [[0.1, 0.2, 0.1], [0.1, 0.2], [0.1, 0.2, 0.1, 0.3]]:
        fitted = validate_profile(values)
        assert profile_io._image_table(_unique_table(original.values), fitted.values) is None
        (distinct, inverse, counts), text = FittedPair(original, fitted)._tables[1]
        want = _unique_table(fitted.values)
        assert distinct.view(np.uint64).tolist() == want[0].tolist()
        assert inverse.tolist() == want[1].tolist() and counts.tolist() == want[2].tolist()
        assert text.tolist() == list(map(repr, distinct.tolist()))


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
        ("t_bad,nan", NonFiniteValueError, lambda e: e.line),
    ],
    ids=["short-row", "unparseable", "out-of-range", "non-finite"],
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


@pytest.mark.parametrize(
    "text, fast",
    [
        ("time,electricity\nt0,0.5\nt1,0.75\n", True),
        ("electricity,time\n0.5,t0\n0.75,t1\n", True),
        ('time,electricity\n"t0",0.5\nt1,0.75\n', False),
    ],
    ids=["time-first", "value-first", "quoted"],
)
def test_read_profile_skips_a_byte_order_mark(tmp_path, monkeypatch, text, fast) -> None:
    # A leading BOM must not stick to the first header name.
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + text, encoding="utf-8", newline="")
    if fast:
        monkeypatch.setattr(profile_io, "_parse_rows", None)  # the csv path must not run
    profile, timestamps = read_profile(path, CsvLayout(preamble_lines=0))
    np.testing.assert_array_equal(profile.values, [0.5, 0.75])
    assert timestamps == ["t0", "t1"]


def _ninja_text(delimiter, rows=8760):
    """A renewables.ninja-style export: three metadata lines, the header
    ``time,local_time,electricity``, one row per hour at 3 decimals."""
    rng = np.random.default_rng(rows)
    values = np.round(rng.uniform(0.0, 1.0, size=rows), 3)
    start = datetime.datetime(2019, 1, 1)
    hours = [start + datetime.timedelta(hours=h) for h in range(rows)]
    stamps = [h.strftime("%Y-%m-%d %H:%M") for h in hours]
    local = [(h + datetime.timedelta(hours=5)).strftime("%Y-%m-%d %H:%M") for h in hours]
    lines = ["# wind profile", "# Units: time in UTC, electricity in per unit", "# 3 decimals"]
    lines.append(delimiter.join(["time", "local_time", "electricity"]))
    lines += [delimiter.join([t, lt, f"{v:.3f}"]) for t, lt, v in zip(stamps, local, values)]
    return "\n".join(lines), values, stamps


@pytest.mark.parametrize(
    "delimiter, end",
    [(",", "\n"), (";", "\n"), ("\t", "\n"), (",", "")],
    ids=["comma", "semicolon", "tab", "no-final-newline"],
)
def test_read_profile_keeps_ninja_files_on_the_fast_path(
    tmp_path, monkeypatch, delimiter, end
) -> None:
    # Past the first read block, with any ASCII delimiter, and with or
    # without a newline after the last row.
    text, values, stamps = _ninja_text(delimiter)
    path = tmp_path / "ninja.csv"
    path.write_text(text + end, newline="")
    monkeypatch.setattr(profile_io, "_parse_rows", None)  # the csv path must not run
    profile, got_stamps = read_profile(path, CsvLayout(delimiter=delimiter))
    np.testing.assert_array_equal(profile.values, values)
    assert got_stamps == stamps


@pytest.mark.parametrize(
    "newline, blank_lines",
    [("\n", True), ("\r\n", False), ("\r\n", True)],
    ids=["blank-lines", "crlf", "crlf-blank-lines"],
)
def test_read_profile_keeps_blank_lines_and_crlf_on_the_fast_path(
    tmp_path, monkeypatch, newline, blank_lines
) -> None:
    # csv skips empty rows and ends a row at "\r\n" as at "\n"; neither may
    # send the file to the csv path, which took up to 3x as long.
    text, values, stamps = _ninja_text(",")
    lines = text.split("\n")
    if blank_lines:
        lines[4000:4000] = ["", ""]  # past the first read block
        lines.append("")  # a trailing blank line
    path = tmp_path / "ninja.csv"
    path.write_text(newline.join(lines) + newline, newline="")
    monkeypatch.setattr(profile_io, "_parse_rows", None)  # the csv path must not run
    profile, got_stamps = read_profile(path)
    np.testing.assert_array_equal(profile.values, values)
    assert got_stamps == stamps


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
    write_profile(path, stamps, FittedPair(original, fitted))
    before = path.read_bytes()
    # The bad stamp fails while the stamps are formatted, and the report
    # below while its text is built, each before its file is opened.
    stamps[700] = _Unprintable()
    with pytest.raises(RuntimeError):
        write_profile(path, stamps, FittedPair(fitted, original))
    assert path.read_bytes() == before

    report_path = tmp_path / "out_report.json"
    outcome = FitOutcome(1.2, 0.4, FitStatus.EXACT, 5, ProfileStats(m=3, r=3, n=0, mean=0.5))
    write_report(report_path, "in.csv", 0.4, outcome)
    before = report_path.read_bytes()
    with pytest.raises(TypeError):  # json.dumps fails on the last field
        write_report(report_path, "in.csv", 0.4, dataclasses.replace(outcome, iterations=object()))
    assert report_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out_report.json"]


def test_temp_files_are_written_in_a_private_directory(tmp_path, monkeypatch) -> None:
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append((os.path.dirname(src), os.listdir(tmp_path)))
        if os.path.basename(dst) == "bad.json":
            raise OSError(5, "I/O error")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    outcome = FitOutcome(1.2, 0.4, FitStatus.EXACT, 5, ProfileStats(m=3, r=3, n=0, mean=0.5))
    # A direct call makes a directory for its one file, and removes it.
    write_report(tmp_path / "a.json", "in.csv", 0.4, outcome)
    write_report(tmp_path / "a.json", "in.csv", 0.4, outcome)
    (first, seen), (second, _) = renamed
    assert os.path.basename(first).startswith(".profilefit-") and first != second
    assert os.path.dirname(first) == str(tmp_path) and sorted(seen) == [os.path.basename(first)]
    assert os.listdir(tmp_path) == ["a.json"]

    # In a block over the out dir, its writes share one directory, made by
    # the first write; a write elsewhere makes its own.
    (tmp_path / "sub").mkdir()
    renamed.clear()
    with profile_io._temp_dir_for(tmp_path):
        assert sorted(os.listdir(tmp_path)) == ["a.json", "sub"]
        write_report(tmp_path / "b.json", "in.csv", 0.4, outcome)
        write_report(tmp_path / "sub" / "c.json", "in.csv", 0.4, outcome)
        write_report(tmp_path / "d.json", "in.csv", 0.4, outcome)
        shared = renamed[0][0]
        assert [d for d, _ in renamed] == [shared, renamed[1][0], shared]
        assert os.path.dirname(renamed[1][0]) == str(tmp_path / "sub")
        assert os.path.isdir(shared) and os.listdir(tmp_path / "sub") == ["c.json"]
        with pytest.raises(OSError):  # a failed write removes its temp file at once
            write_report(tmp_path / "bad.json", "in.csv", 0.4, outcome)
        assert os.listdir(shared) == []
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json", "d.json", "sub"]
    with profile_io._temp_dir_for(tmp_path):  # writes nothing, makes nothing
        pass
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json", "d.json", "sub"]
