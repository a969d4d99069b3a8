import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import write_profile_csv

import profilefit
from profilefit import cli
from profilefit.cli import (
    EXIT_CLAMPED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    CliConfig,
    ManifestMissingEntryError,
    expand_inputs,
    _default_jobs,
    main,
    parse_args,
    resolve_targets,
    run_fit,
)
from profilefit.fitcore import FitOptions, TargetOutOfRangeError
from profilefit.profile_io import CsvLayout


@pytest.fixture
def wind_csv(tmp_path):
    rng = np.random.default_rng(42)
    return write_profile_csv(tmp_path / "wind.csv", rng.uniform(0.0, 1.0, size=500))


def test_single_input_happy_path(tmp_path, wind_csv, capsys) -> None:
    out_dir = tmp_path / "out"
    code = main(["-i", str(wind_csv), "-t", "0.6", "-o", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "wind_fitted.csv").exists()
    assert (out_dir / "wind_report.json").exists()
    report = json.loads((out_dir / "wind_report.json").read_text())
    assert report["status"] == "exact"
    assert abs(report["achieved_cf"] - 0.6) <= 1e-10
    summary = capsys.readouterr().out.strip().splitlines()
    assert len(summary) == 1
    assert "status=exact" in summary[0]


def test_plot_data_flag_emits_curve_files(tmp_path, wind_csv) -> None:
    out_dir = tmp_path / "out"
    code = main(["-i", str(wind_csv), "-t", "0.6", "-o", str(out_dir), "--plot-data"])
    assert code == EXIT_OK
    assert (out_dir / "wind_chronological.csv").exists()
    assert (out_dir / "wind_sorted.csv").exists()


def test_tight_residual_tol_solves_a_root_past_8192(tmp_path) -> None:
    # 0.999 ** x = 1e-4 * 8770 / 8760 at x = 9205, where ulp(x) = 1.8e-12.
    path = write_profile_csv(tmp_path / "flat.csv", [0.999] * 8760 + [0.0] * 10)
    out_dir = tmp_path / "out"
    code = main(
        ["-i", str(path), "-t", "1e-4", "--residual-tol", "1e-20", "-o", str(out_dir), "-j", "1"]
    )
    assert code == EXIT_OK
    report = json.loads((out_dir / "flat_report.json").read_text())
    assert report["status"] == "exact"
    assert report["exponent"] == pytest.approx(9205.0, abs=1.0)


def test_validation_error_exits_one_but_finishes_batch(tmp_path, capsys) -> None:
    good = write_profile_csv(tmp_path / "good.csv", [0.2, 0.5, 0.8])
    bad = tmp_path / "bad.csv"
    write_profile_csv(bad, [0.5])
    bad.write_text(bad.read_text().replace("0.5", "1.2"))
    out_dir = tmp_path / "out"
    code = main(["-i", str(bad), "-i", str(good), "-t", "0.4", "-o", str(out_dir)])
    assert code == EXIT_ERROR
    # The failing file does not stop the other one.
    assert (out_dir / "good_fitted.csv").exists()
    assert not (out_dir / "bad_fitted.csv").exists()
    summary = capsys.readouterr().out.strip().splitlines()
    assert len(summary) == 2
    assert "error" in summary[0]
    assert "status=exact" in summary[1]


def test_clamped_fit_exits_two_without_permission(tmp_path, capsys) -> None:
    path = write_profile_csv(tmp_path / "steps.csv", [0.0, 1.0, 1.0, 0.5])
    out_dir = tmp_path / "out"
    code = main(["-i", str(path), "-t", "0.9", "-o", str(out_dir)])
    assert code == EXIT_CLAMPED
    report = json.loads((out_dir / "steps_report.json").read_text())
    assert report["status"] == "clamped_low"
    assert report["exponent"] == 0.0
    assert "status=clamped_low" in capsys.readouterr().out


def test_allow_clamp_turns_clamp_into_success(tmp_path) -> None:
    path = write_profile_csv(tmp_path / "steps.csv", [0.0, 1.0, 1.0, 0.5])
    code = main(
        ["-i", str(path), "-t", "0.9", "-o", str(tmp_path / "out"), "--allow-clamp"]
    )
    assert code == EXIT_OK


def test_usage_errors_exit_64(tmp_path, capsys) -> None:
    # Each error names the CliConfig field whose rule refuses it.
    for argv, message in [
        ([], "inputs must name at least one"),
        (["-i", "a.csv"], "target or manifest is required"),
        (["-i", "a.csv", "-t", "1.5"], "target must lie in (0, 1), got 1.5"),
        (
            ["-i", "a.csv", "-t", "nan", "--manifest", "m.csv"],
            "target must lie in (0, 1), got nan",
        ),
        (["-i", "a.csv", "-t", "0.5", "--jobs", "0"], "jobs must be an integer >= 1, got 0"),
        (["-i", "a.csv", "-t", "half"], "invalid float value: 'half'"),
        (["-i", "a.csv", "-t", "0.5", "--large-exponent", "5"], "unrecognized arguments"),
        (["--no-such-flag"], "unrecognized arguments"),
    ]:
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err, (argv, err)


def test_unmatched_glob_exits_usage(tmp_path) -> None:
    code = main(["-i", str(tmp_path / "*.csv"), "-t", "0.5"])
    assert code == EXIT_USAGE


def test_missing_input_file_exits_error(tmp_path) -> None:
    code = main(["-i", str(tmp_path / "absent.csv"), "-t", "0.5", "-o", str(tmp_path)])
    assert code == EXIT_ERROR


def test_stem_collision_is_rejected(tmp_path) -> None:
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    write_profile_csv(a / "wind.csv", [0.2, 0.5])
    write_profile_csv(b / "wind.csv", [0.3, 0.6])
    code = main(
        ["-i", str(a / "wind.csv"), "-i", str(b / "wind.csv"), "-t", "0.5",
         "-o", str(tmp_path / "out")]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "victim, flags",
    [
        ("x_fitted.csv", []),
        ("x_report.json", []),
        ("x_sorted.csv", ["--plot-data"]),
        # Each output is written to <name>.tmp first, which would destroy it.
        ("x_fitted.csv.tmp", []),
        ("x_report.json.tmp", []),
        ("x_sorted.csv.tmp", ["--plot-data"]),
    ],
)
def test_output_that_would_overwrite_an_input_is_refused(
    tmp_path, monkeypatch, capsys, victim, flags
) -> None:
    # Paths are compared absolute, so "./d/" and "d/" name the same file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    write_profile_csv(tmp_path / "d" / "x.csv", [0.2, 0.5])
    before = write_profile_csv(tmp_path / "d" / victim, [0.3, 0.6]).read_bytes()
    code = main(["-i", "d/x.csv", "-i", f"./d/{victim}", "-t", "0.5", "-o", "d", *flags])
    assert code == EXIT_USAGE
    assert (tmp_path / "d" / victim).read_bytes() == before
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == sorted(["x.csv", victim])
    err = capsys.readouterr().err
    assert "'d/x.csv'" in err and f"'./d/{victim}'" in err


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_out_dir_linked_to_an_input_directory_is_refused(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    write_profile_csv(tmp_path / "in" / "x.csv", [0.2, 0.5])
    before = write_profile_csv(tmp_path / "in" / "x_fitted.csv", [0.3, 0.6]).read_bytes()
    os.symlink("in", "link", target_is_directory=True)
    code = main(["-i", "in/x.csv", "-i", "in/x_fitted.csv", "-t", "0.5", "-o", "link", "-j", "1"])
    assert code == EXIT_USAGE
    assert (tmp_path / "in" / "x_fitted.csv").read_bytes() == before
    assert sorted(p.name for p in (tmp_path / "in").iterdir()) == ["x.csv", "x_fitted.csv"]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_input_linked_to_an_output_path_is_refused(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    (tmp_path / "other").mkdir()
    write_profile_csv(tmp_path / "in" / "x.csv", [0.2, 0.5])
    before = write_profile_csv(tmp_path / "in" / "x_fitted.csv", [0.3, 0.6]).read_bytes()
    os.symlink(os.path.join("..", "in", "x_fitted.csv"), os.path.join("other", "y.csv"))
    code = main(["-i", "in/x.csv", "-i", "other/y.csv", "-t", "0.3", "-o", "in", "-j", "1"])
    assert code == EXIT_USAGE
    assert (tmp_path / "in" / "x_fitted.csv").read_bytes() == before
    assert sorted(p.name for p in (tmp_path / "in").iterdir()) == ["x.csv", "x_fitted.csv"]
    assert [p.name for p in (tmp_path / "other").iterdir()] == ["y.csv"]


def test_glob_expansion_and_deduplication(tmp_path) -> None:
    write_profile_csv(tmp_path / "p1.csv", [0.5])
    write_profile_csv(tmp_path / "p2.csv", [0.5])
    pattern = str(tmp_path / "p*.csv")
    expanded = expand_inputs([pattern, str(tmp_path / "p1.csv")])
    assert expanded == [str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")]


def test_existing_input_with_glob_characters_is_taken_literally(tmp_path, capsys) -> None:
    for name in ("site[1].csv", "b.csv"):
        write_profile_csv(tmp_path / name, [0.2, 0.5, 0.8])
    literal, other = str(tmp_path / "site[1].csv"), str(tmp_path / "b.csv")
    assert expand_inputs([literal, other]) == [literal, other]
    # A pattern that names no file is still globbed.
    assert expand_inputs([str(tmp_path / "[ab].csv")]) == [other]
    code = main(["-i", literal, "-i", other, "-t", "0.4", "-j", "1", "-o", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()] == [
        literal,
        other,
    ]
    assert (tmp_path / "out" / "site[1]_report.json").exists()


def test_inputs_are_expanded_once_per_run(tmp_path, monkeypatch) -> None:
    for i in range(2):
        write_profile_csv(tmp_path / f"p{i}.csv", [0.2, 0.5, 0.8])
    calls = []

    def counting(patterns):
        calls.append(patterns)
        return expand_inputs(patterns)

    monkeypatch.setattr(cli, "expand_inputs", counting)
    code = main(
        ["-i", str(tmp_path / "p*.csv"), "-t", "0.4", "-j", "1", "-o", str(tmp_path / "out")]
    )
    assert code == EXIT_OK
    assert len(calls) == 1


def test_each_input_is_sorted_once_for_the_fit_and_the_writers(tmp_path, monkeypatch) -> None:
    # The fit builds the input's value table with np.unique, and both
    # writers reuse it: one np.unique over an input's m values per input.
    sizes = {500: [], 700: []}
    for m in sizes:
        values = np.round(np.random.default_rng(m).uniform(0.0, 1.0, m), 2)
        write_profile_csv(tmp_path / f"p{m}.csv", values)
    unique = np.unique

    def counting(a, *args, **kwargs):
        if a.size in sizes:
            sizes[a.size].append(a.dtype)
        return unique(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    out_dir = str(tmp_path / "out")
    args = ["-i", str(tmp_path / "p*.csv"), "-t", "0.4", "--plot-data", "-j", "1", "-o", out_dir]
    code = main(args)
    assert code == EXIT_OK
    assert sizes == {500: [np.uint64], 700: [np.uint64]}


def test_resolve_targets_broadcast(tmp_path) -> None:
    paths = [str(tmp_path / f"f{i}.csv") for i in range(3)]
    config = CliConfig(inputs=paths, target=0.6)
    assert resolve_targets(config, paths) == {p: 0.6 for p in paths}


def test_resolve_targets_manifest_overrides(tmp_path) -> None:
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    manifest = tmp_path / "targets.csv"
    manifest.write_text(f"path,target\n{a},0.55\n")
    config = CliConfig(inputs=[a, b], target=0.7, manifest=str(manifest))
    assert resolve_targets(config, [a, b]) == {a: 0.55, b: 0.7}


def test_resolve_targets_manifest_with_byte_order_mark(tmp_path) -> None:
    a = str(tmp_path / "a.csv")
    manifest = tmp_path / "targets.csv"
    manifest.write_text(f"\ufeffpath,target\n{a},0.55\n", encoding="utf-8")
    config = CliConfig(inputs=[a], manifest=str(manifest))
    assert resolve_targets(config, [a]) == {a: 0.55}


def test_resolve_targets_manifest_missing_entry(tmp_path) -> None:
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    manifest = tmp_path / "targets.csv"
    manifest.write_text(f"path,target\n{a},0.55\n")
    config = CliConfig(inputs=[a, b], manifest=str(manifest))
    with pytest.raises(ManifestMissingEntryError) as excinfo:
        resolve_targets(config, [a, b])
    assert excinfo.value.path == b


def test_resolve_targets_manifest_out_of_range(tmp_path) -> None:
    a = str(tmp_path / "a.csv")
    manifest = tmp_path / "targets.csv"
    manifest.write_text(f"path,target\n{a},1.3\n")
    config = CliConfig(inputs=[a], manifest=str(manifest))
    with pytest.raises(TargetOutOfRangeError):
        resolve_targets(config, [a])


def test_manifest_run_exits_error_on_missing_entry(tmp_path, wind_csv) -> None:
    manifest = tmp_path / "targets.csv"
    manifest.write_text("path,target\nother.csv,0.5\n")
    code = main(
        ["-i", str(wind_csv), "--manifest", str(manifest), "-o", str(tmp_path / "o")]
    )
    assert code == EXIT_ERROR


@pytest.mark.parametrize("jobs", [0, -3, 2.0, "2", True, False])
def test_cli_config_refuses_a_bad_jobs(tmp_path, jobs) -> None:
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        CliConfig(inputs=[str(tmp_path / "a.csv")], target=0.5, jobs=jobs)


# Every batch rule of CliConfig: (fields, the message that names the field).
BAD_CONFIGS = [
    ({"inputs": [], "target": 0.4}, "inputs must name at least one"),
    ({"inputs": ["a.csv"]}, "target or manifest is required"),
    ({"inputs": ["a.csv"], "target": math.nan, "manifest": "m.csv"}, "target must lie in"),
    ({"inputs": ["a.csv"], "target": 1.5}, "target must lie in"),
    ({"inputs": ["a.csv"], "target": 0.0}, "target must lie in"),
    # A str would run as one pattern per character: "s", ".", "c", "v".
    ({"inputs": "s.csv", "target": 0.4}, "inputs must be a list"),
    # Raised TypeError from the range comparison.
    ({"inputs": ["a.csv"], "target": "0.4"}, "target must be a real number"),
    ({"inputs": ["a.csv"], "target": True}, "target must be a real number"),
]


@pytest.mark.parametrize(
    "fields, message",
    BAD_CONFIGS,
    ids=["no_inputs", "no_target", "nan", "above_1", "zero", "str_inputs", "str_target", "bool"],
)
def test_cli_config_refuses_a_bad_batch(fields, message) -> None:
    with pytest.raises(ValueError, match=message):
        CliConfig(jobs=1, **fields)


def test_jobs_flag_sets_a_frozen_config() -> None:
    config = parse_args(["-i", "a.csv", "-t", "0.5", "-j", "2"])
    assert config.jobs == 2
    with pytest.raises(AttributeError):  # frozen, so it stays valid
        config.jobs = 0


def test_readme_flag_table_lists_every_option() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cells = [line.split("|")[1] for line in readme.splitlines() if line.startswith("| `-")]
    words = [word.strip("`,") for cell in cells for word in cell.split()]
    listed = [word for word in words if word.startswith("-")]
    parsed = {s for action in cli._build_parser()._actions for s in action.option_strings}
    assert len(listed) == len(set(listed))
    assert set(listed) == parsed - {"-h", "--help"}


def test_version_flag(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "profilefit 0.1.0" in capsys.readouterr().out


def test_public_names_are_pinned() -> None:
    # Adding or removing a public name is a deliberate change to this list.
    assert sorted(profilefit.__all__) == [
        "CsvLayout",
        "CsvParseError",
        "EmptyProfileError",
        "FitOptions",
        "FitOutcome",
        "FitStatus",
        "FittedPair",
        "LengthMismatchError",
        "MaxIterationsExceededError",
        "MissingColumnError",
        "NonFiniteValueError",
        "Profile",
        "ProfileFitError",
        "ProfileStats",
        "ProfileValidationError",
        "TargetOutOfRangeError",
        "ValueOutOfRangeError",
        "__version__",
        "apply_exponent",
        "bisect_root",
        "find_search_interval",
        "find_solution",
        "mean_power",
        "profile_stats",
        "read_profile",
        "validate_profile",
        "write_plot_data",
        "write_profile",
        "write_report",
    ]


def test_report_files_and_summary_lines_are_pinned(tmp_path, monkeypatch, capsys) -> None:
    # The whole report text: key order, indent=2, float reprs and the final
    # newline. Both fits are free of solver rounding: the exact one has its
    # target at r/m, so its exponent is 0 after no step, and the clamped one
    # is at the fixed exponent 1000, where 0.1 ** 1000 underflows to 0.
    monkeypatch.chdir(tmp_path)
    write_profile_csv("exact.csv", [0.0, 0.2, 0.9])
    write_profile_csv("clamped.csv", [1.0, 0.1, 1.0])
    Path("manifest.csv").write_text("exact.csv,0.6666666666666666\n")
    config = CliConfig(
        inputs=["exact.csv", "clamped.csv"],
        target=Fraction(7, 20),  # printed and reported as a float
        manifest="manifest.csv",
        out_dir="out",
        jobs=1,
    )
    assert run_fit(config) == EXIT_CLAMPED
    assert capsys.readouterr().out == (
        "exact.csv: current_cf=0.366667 target=0.666667 exponent=0 achieved=0.666667 "
        "status=exact\n"
        "clamped.csv: current_cf=0.700000 target=0.35 exponent=1000 achieved=0.666667 "
        "status=clamped_high\n"
    )
    assert Path("out/exact_report.json").read_bytes() == (
        b"{\n"
        b'  "input_path": "exact.csv",\n'
        b'  "m": 3,\n'
        b'  "r": 2,\n'
        b'  "n": 0,\n'
        b'  "current_cf": 0.3666666666666667,\n'
        b'  "target_cf": 0.6666666666666666,\n'
        b'  "exponent": 0.0,\n'
        b'  "achieved_cf": 0.6666666666666666,\n'
        b'  "status": "exact",\n'
        b'  "iterations": 0\n'
        b"}\n"
    )
    assert Path("out/clamped_report.json").read_bytes() == (
        b"{\n"
        b'  "input_path": "clamped.csv",\n'
        b'  "m": 3,\n'
        b'  "r": 3,\n'
        b'  "n": 2,\n'
        b'  "current_cf": 0.7000000000000001,\n'
        b'  "target_cf": 0.35,\n'
        b'  "exponent": 1000.0,\n'
        b'  "achieved_cf": 0.6666666666666666,\n'
        b'  "status": "clamped_high",\n'
        b'  "iterations": 0\n'
        b"}\n"
    )


def test_parallel_jobs_match_serial(tmp_path) -> None:
    rng = np.random.default_rng(7)
    inputs = []
    for i in range(4):
        p = write_profile_csv(tmp_path / f"site{i}.csv", rng.uniform(0, 1, size=300))
        inputs.append(str(p))
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    args = ["-t", "0.55", "--plot-data"]
    for p in inputs:
        args += ["-i", p]
    assert main(args + ["-o", str(out1), "-j", "1"]) == EXIT_OK
    assert main(args + ["-o", str(out2), "-j", "4"]) == EXIT_OK
    for i in range(4):
        for suffix in ("_fitted.csv", "_report.json", "_chronological.csv", "_sorted.csv"):
            a = (out1 / f"site{i}{suffix}").read_bytes()
            b = (out2 / f"site{i}{suffix}").read_bytes()
            assert a == b


# Every layout and solver option at its boundary: (flag, value, the message of
# the CsvLayout or FitOptions check that rejects it, which names its field).
BAD_OPTIONS = [
    ("--residual-tol", "nan", "residual_tol must be positive and finite"),
    ("--residual-tol", "inf", "residual_tol must be positive and finite"),
    ("--column", "", "value_column must be non-empty"),
    ("--delimiter", ";;", "delimiter must be a single character"),
    ("--delimiter", '"', "delimiter must not be a quote, newline or NUL"),
    ("--preamble-lines", "-1", "preamble_lines must be >= 0"),
]


@pytest.mark.parametrize(
    "flag, value, message", BAD_OPTIONS, ids=[f"{v}-{f}" for f, v, _ in BAD_OPTIONS]
)
def test_non_finite_options_exit_64(tmp_path, wind_csv, flag, value, message, capsys) -> None:
    out_dir = tmp_path / "out"
    argv = ["-i", str(wind_csv), "-t", "0.6", "-o", str(out_dir), "--allow-clamp"]
    assert main(argv + [flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err
    assert message in err
    assert not out_dir.exists()


def test_out_dir_that_is_a_file_exits_error(tmp_path, wind_csv, capsys) -> None:
    somefile = tmp_path / "somefile"
    somefile.write_text("not a directory\n")
    for out_dir in (somefile, somefile / "sub"):
        assert main(["-i", str(wind_csv), "-t", "0.6", "-o", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(somefile) in err
    assert somefile.read_text() == "not a directory\n"


def test_run_fit_takes_layout_and_options_from_code(tmp_path) -> None:
    rng = np.random.default_rng(11)
    path = write_profile_csv(tmp_path / "semi.csv", rng.uniform(0, 1, size=200), delimiter=";")
    out_dir = tmp_path / "out"
    config = CliConfig(
        inputs=[str(path)],
        target=0.3,
        layout=CsvLayout(delimiter=";"),
        options=FitOptions(residual_tol=1e-8),
        jobs=1,
        out_dir=str(out_dir),
    )
    assert run_fit(config) == EXIT_OK
    lines = (out_dir / "semi_fitted.csv").read_text().splitlines()
    assert lines[0] == "time;original;fitted"
    assert all(line.count(";") == 2 and "," not in line for line in lines)
    report = json.loads((out_dir / "semi_report.json").read_text())
    assert report["status"] == "exact"
    assert abs(report["achieved_cf"] - 0.3) <= 1e-8


def test_plot_data_keeps_commas_whatever_the_delimiter(tmp_path) -> None:
    path = write_profile_csv(tmp_path / "semi.csv", [0.2, 0.5, 0.8], delimiter=";")
    out_dir = tmp_path / "out"
    argv = ["-i", str(path), "-t", "0.4", "-o", str(out_dir), "--delimiter", ";", "--plot-data"]
    assert main(argv) == EXIT_OK
    fitted = (out_dir / "semi_fitted.csv").read_text().splitlines()
    assert fitted[0] == "time;original;fitted"
    assert all(line.count(";") == 2 and "," not in line for line in fitted)
    for suffix in ("_chronological.csv", "_sorted.csv"):
        plot = (out_dir / f"semi{suffix}").read_text().splitlines()
        assert plot[0] == "index,original,fitted"
        assert all(line.count(",") == 2 and ";" not in line for line in plot)


def test_csv_error_in_one_file_does_not_stop_batch(tmp_path, capsys) -> None:
    good = write_profile_csv(tmp_path / "good.csv", [0.2, 0.5, 0.8])
    bad = tmp_path / "huge.csv"
    # A quoted field longer than csv's field size limit raises csv.Error.
    bad.write_text(
        'm1\nm2\nm3\ntime,electricity\n"' + "x" * 140_000 + '",0.5\n', encoding="utf-8"
    )
    out_dir = tmp_path / "out"
    argv = ["-i", str(bad), "-i", str(good), "-t", "0.4", "-o", str(out_dir), "-j", "2"]
    assert main(argv) == EXIT_ERROR
    assert (out_dir / "good_fitted.csv").exists()
    assert (out_dir / "good_report.json").exists()
    assert not (out_dir / "huge_fitted.csv").exists()
    summary = capsys.readouterr().out.strip().splitlines()
    assert len(summary) == 2
    assert summary[0].startswith(f"{bad}: error: ") and "field larger" in summary[0]
    assert "status=exact" in summary[1]


# Forked workers inherit a monkeypatch; spawned ones re-import the module.
needs_fork = pytest.mark.skipif(
    sys.platform != "linux", reason="workers see the patch only when forked"
)


def _patch_read_profile(monkeypatch, path, action) -> None:
    real = cli.read_profile

    def read_profile(p, layout):
        if str(p) == str(path):
            action()
        return real(p, layout)

    monkeypatch.setattr(cli, "read_profile", read_profile)


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_unexpected_exception_in_one_file_does_not_stop_batch(
    tmp_path, monkeypatch, capsys, jobs
) -> None:
    paths = [write_profile_csv(tmp_path / f"p{i}.csv", [0.2, 0.5, 0.8]) for i in range(3)]

    def boom():
        raise RuntimeError("boom")

    _patch_read_profile(monkeypatch, paths[1], boom)
    out_dir = tmp_path / "out"
    argv = ["-t", "0.4", "-o", str(out_dir), "-j", str(jobs)]
    for p in paths:
        argv += ["-i", str(p)]
    assert main(argv) == EXIT_ERROR
    summary = capsys.readouterr().out.strip().splitlines()
    assert summary[1] == f"{paths[1]}: error: RuntimeError: boom"
    for i in (0, 2):
        assert summary[i].startswith(f"{paths[i]}: ") and "status=exact" in summary[i]
        assert (out_dir / f"p{i}_fitted.csv").exists()
        assert (out_dir / f"p{i}_report.json").exists()
    assert not (out_dir / "p1_fitted.csv").exists()


@needs_fork
def test_dead_worker_gives_error_lines_and_keeps_finished_files(
    tmp_path, monkeypatch, capsys
) -> None:
    # 3 files on 2 workers go out one per chunk. The first file's worker dies
    # after the other worker finished the files behind it.
    paths = [write_profile_csv(tmp_path / f"p{i}.csv", [0.2, 0.5, 0.8]) for i in range(3)]
    out_dir = tmp_path / "out"
    finished = [out_dir / "p1_report.json", out_dir / "p2_report.json"]

    def die():
        # Let the other files finish and send their results first.
        deadline = time.monotonic() + 30
        while not all(f.exists() for f in finished) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        os._exit(3)

    _patch_read_profile(monkeypatch, paths[0], die)
    argv = ["-t", "0.4", "-o", str(out_dir), "-j", "2"]
    for p in paths:
        argv += ["-i", str(p)]
    assert main(argv) == EXIT_ERROR
    summary = capsys.readouterr().out.strip().splitlines()
    assert len(summary) == 3
    assert summary[0].startswith(f"{paths[0]}: error: BrokenProcessPool: ")
    for i in (1, 2):
        assert summary[i].startswith(f"{paths[i]}: ") and "status=exact" in summary[i]


def test_summary_lines_keep_input_order_across_chunks(tmp_path, capsys) -> None:
    # 9 files on 2 workers go out in chunks of 2.
    rng = np.random.default_rng(3)
    argv = ["-t", "0.45"]
    for i in range(9):
        p = write_profile_csv(tmp_path / f"f{i}.csv", rng.uniform(0, 1, size=50))
        argv += ["-i", str(p)]
    assert main(argv + ["-o", str(tmp_path / "serial"), "-j", "1"]) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(argv + ["-o", str(tmp_path / "pooled"), "-j", "2"]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert [line.split(":")[0] for line in serial.splitlines()] == argv[3::2]


def test_default_jobs_counts_usable_cpus(monkeypatch) -> None:
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert _default_jobs() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _default_jobs() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _default_jobs() == 1
