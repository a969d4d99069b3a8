import json
import os
import sys
import time

import numpy as np
import pytest
from conftest import write_profile_csv

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
)
from profilefit.fitcore import TargetOutOfRangeError


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
    assert main([]) == EXIT_USAGE
    assert main(["-i", "a.csv"]) == EXIT_USAGE  # no target
    assert main(["-i", "a.csv", "-t", "1.5"]) == EXIT_USAGE
    assert main(["-i", "a.csv", "-t", "0.5", "--jobs", "0"]) == EXIT_USAGE
    assert main(["--no-such-flag"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err


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


def test_glob_expansion_and_deduplication(tmp_path) -> None:
    write_profile_csv(tmp_path / "p1.csv", [0.5])
    write_profile_csv(tmp_path / "p2.csv", [0.5])
    pattern = str(tmp_path / "p*.csv")
    expanded = expand_inputs([pattern, str(tmp_path / "p1.csv")])
    assert expanded == [str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")]


def test_resolve_targets_broadcast(tmp_path) -> None:
    paths = [str(tmp_path / f"f{i}.csv") for i in range(3)]
    config = CliConfig(inputs=paths, target=0.6)
    assert resolve_targets(config) == {p: 0.6 for p in paths}


def test_resolve_targets_manifest_overrides(tmp_path) -> None:
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    manifest = tmp_path / "targets.csv"
    manifest.write_text(f"path,target\n{a},0.55\n")
    config = CliConfig(inputs=[a, b], target=0.7, manifest=str(manifest))
    assert resolve_targets(config) == {a: 0.55, b: 0.7}


def test_resolve_targets_manifest_missing_entry(tmp_path) -> None:
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    manifest = tmp_path / "targets.csv"
    manifest.write_text(f"path,target\n{a},0.55\n")
    config = CliConfig(inputs=[a, b], manifest=str(manifest))
    with pytest.raises(ManifestMissingEntryError) as excinfo:
        resolve_targets(config)
    assert excinfo.value.path == b


def test_resolve_targets_manifest_out_of_range(tmp_path) -> None:
    a = str(tmp_path / "a.csv")
    manifest = tmp_path / "targets.csv"
    manifest.write_text(f"path,target\n{a},1.3\n")
    config = CliConfig(inputs=[a], manifest=str(manifest))
    with pytest.raises(TargetOutOfRangeError):
        resolve_targets(config)


def test_manifest_run_exits_error_on_missing_entry(tmp_path, wind_csv) -> None:
    manifest = tmp_path / "targets.csv"
    manifest.write_text("path,target\nother.csv,0.5\n")
    code = main(
        ["-i", str(wind_csv), "--manifest", str(manifest), "-o", str(tmp_path / "o")]
    )
    assert code == EXIT_ERROR


def test_jobs_env_var_fallback(monkeypatch) -> None:
    monkeypatch.setenv("PROFILEFIT_JOBS", "5")
    config = parse_args(["-i", "a.csv", "-t", "0.5"])
    assert config.jobs == 5
    monkeypatch.setenv("PROFILEFIT_JOBS", "nope")
    assert main(["-i", "a.csv", "-t", "0.5"]) == EXIT_USAGE


def test_jobs_flag_overrides_env(monkeypatch) -> None:
    monkeypatch.setenv("PROFILEFIT_JOBS", "5")
    config = parse_args(["-i", "a.csv", "-t", "0.5", "-j", "2"])
    assert config.jobs == 2


def test_version_flag(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "profilefit 0.1.0" in capsys.readouterr().out


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
        for suffix in ("_fitted.csv", "_chronological.csv", "_sorted.csv"):
            a = (out1 / f"site{i}{suffix}").read_bytes()
            b = (out2 / f"site{i}{suffix}").read_bytes()
            assert a == b


@pytest.mark.parametrize("flag", ["--residual-tol", "--large-exponent"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_options_exit_64(tmp_path, wind_csv, flag, value, capsys) -> None:
    out_dir = tmp_path / "out"
    argv = ["-i", str(wind_csv), "-t", "0.6", "-o", str(out_dir), "--allow-clamp"]
    assert main(argv + [flag, value]) == EXIT_USAGE
    assert f"{flag} must be positive and finite" in capsys.readouterr().err
    assert not out_dir.exists()


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
