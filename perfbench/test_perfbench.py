"""Tests for the benchmark's own generator, checker and span arithmetic.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from profilefit import cli, fitcore  # noqa: E402


def _small_set(tmp_path, refusal: str | None = None):
    rng = inputs.rng_for(7, "test")
    made = []
    for i, (kind, target) in enumerate([("solar", 0.3), ("wind", 0.4), ("baseload", 0.9)]):
        prof, text = inputs.make_profile(rng, f"p{i}_{kind}", kind, 72, 24 * 100)
        prof.target = target
        made.append((prof, text))
    if refusal:
        prof, text = made[1]
        made[1] = (prof, inputs.corrupt(rng, prof, text, refusal))
    profiles = inputs.write_inputs(str(tmp_path / "in"), made)
    manifest = tmp_path / "targets.csv"
    manifest.write_text(
        "path,target\n" + "".join(f"{p.path},{p.target!r}\n" for p in profiles), encoding="utf-8"
    )
    return profiles, manifest


def _run_cli(tmp_path, manifest, plot=True):
    argv = ["-i", str(tmp_path / "in" / "*.csv"), "--manifest", str(manifest),
            "-o", str(tmp_path / "out"), "--allow-clamp", "-j", "1"]
    if plot:
        argv.append("--plot-data")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def _check(profiles, tmp_path, stdout, code, plot=True):
    c = checker.BatchChecker(profiles, str(tmp_path / "out"), plot=plot, allow_clamp=True)
    c.check(stdout, code)
    return c.tally


def test_generator_is_deterministic(tmp_path):
    a = inputs.sweep_profiles(3)
    b = inputs.sweep_profiles(3)
    c = inputs.sweep_profiles(4)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert not np.array_equal(a[1][1], c[1][1])
    p1 = inputs.small_batch(5, str(tmp_path / "a"), str(tmp_path / "a.csv"))
    p2 = inputs.small_batch(5, str(tmp_path / "b"), str(tmp_path / "b.csv"))
    assert [p.target for p in p1] == [p.target for p in p2]
    assert all(
        Path(x.path).read_bytes() == Path(y.path).read_bytes() for x, y in zip(p1, p2)
    )
    assert sum(p.refusal is not None for p in p1) == sum(inputs.SMALL_REFUSED.values())


def test_checker_accepts_correct_batch(tmp_path):
    profiles, manifest = _small_set(tmp_path)
    stdout, code = _run_cli(tmp_path, manifest)
    c = checker.BatchChecker(profiles, str(tmp_path / "out"), plot=True, allow_clamp=True)
    c.check(stdout, code)
    c.check(stdout, code)  # a repeated batch counts its operations once
    assert (c.tally.attempted, c.tally.failed) == (1 + len(profiles), 0), c.tally.problems
    assert c.tally.checks == 2 * (1 + len(profiles))


def test_tally_keeps_the_worst_verdict_per_operation():
    t = checker.Tally()
    for _ in range(3):
        t.record("a", "ok")
        t.record("b", "missing", "raised")
    t.record("a", "wrong", "bad bytes")
    t.record("a", "ok")
    assert (t.attempted, t.wrong, t.missing, t.failed, t.checks) == (2, 1, 1, 2, 8)
    assert t.problems == ["missing: b: raised", "wrong: a: bad bytes"]


def test_checker_flags_corrupted_fitted_csv(tmp_path):
    profiles, manifest = _small_set(tmp_path)
    stdout, code = _run_cli(tmp_path, manifest)
    path = tmp_path / "out" / f"{profiles[1].name}_fitted.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    row = next(i for i, line in enumerate(lines[1:-1], 1) if 0 < float(line.split(",")[2]) < 1)
    t, orig, fit = lines[row].split(",")
    lines[row] = f"{t},{orig},{float(fit) * (1 + 1e-9)!r}"
    path.write_text("\n".join(lines), encoding="utf-8")
    tally = _check(profiles, tmp_path, stdout, code)
    assert tally.wrong == 1 and "fitted[" in tally.problems[0]


def test_checker_flags_wrong_status(tmp_path):
    profiles, manifest = _small_set(tmp_path)
    stdout, code = _run_cli(tmp_path, manifest)
    path = tmp_path / "out" / f"{profiles[0].name}_report.json"
    rep = json.loads(path.read_text(encoding="utf-8"))
    wrong = "clamped_low" if rep["status"] != "clamped_low" else "exact"
    path.write_text(json.dumps(dict(rep, status=wrong)), encoding="utf-8")
    stdout = stdout.replace(f"status={rep['status']}", f"status={wrong}", 1)
    tally = _check(profiles, tmp_path, stdout, code)
    assert tally.wrong == 1 and "counts give" in tally.problems[0]


@pytest.mark.parametrize("refusal", ["above_one", "unparseable"])
def test_checker_flags_missing_refusal(tmp_path, refusal):
    profiles, manifest = _small_set(tmp_path, refusal)
    stdout, code = _run_cli(tmp_path, manifest)
    assert code == 1
    assert _check(profiles, tmp_path, stdout, code).failed == 0
    # Pretend the program accepted the bad file and returned success.
    bad = profiles[1].path
    forged = "\n".join(
        f"{bad}: current_cf=0.5 target=0.4 exponent=1 achieved=0.4 status=exact"
        if line.startswith(f"{bad}: ") else line
        for line in stdout.splitlines()
    )
    tally = _check(profiles, tmp_path, forged, 0)
    assert tally.wrong == 2  # the file, and the batch exit status
    assert any("accepted a file" in p for p in tally.problems)


def test_checker_counts_refused_valid_file_as_missing(tmp_path):
    profiles, manifest = _small_set(tmp_path)
    stdout, code = _run_cli(tmp_path, manifest)
    victim = profiles[2].path
    stdout = "\n".join(
        f"{victim}: error: BracketNotFoundError: no sign change" if line.startswith(f"{victim}: ") else line
        for line in stdout.splitlines()
    )
    tally = _check(profiles, tmp_path, stdout, code)
    assert (tally.missing, tally.wrong) == (1, 0)


def test_fit_problems_against_the_api():
    values = inputs.sweep_profiles(1)[1][1]
    profile = fitcore.validate_profile(values)
    for mu in (0.05, 0.3, 0.99):
        out = fitcore.find_solution(profile, mu)
        fitted = fitcore.apply_exponent(profile, out.exponent).values
        args = (values, mu, out.status.value, out.exponent, out.achieved_mean)
        assert checker.fit_problems(*args, fitted) == []
        assert checker.fit_problems(*args, fitted + 1e-12 * (fitted > 0)) != []


def _span(sid, parent, start, end, name="fitcore.mean_power"):
    return spans.Span(sid, parent, name, start, end, "op")


def test_self_time_on_nested_spans():
    tree = [
        _span(1, None, 0, 100, "batch"),
        _span(2, 1, 10, 40, "cli.read_profile"),
        _span(3, 2, 20, 30, "profile_io.validate_profile"),
        _span(4, 1, 50, 90, "cli.find_solution"),
        _span(5, 4, 55, 60),
        _span(6, 4, 60, 70),
    ]
    own = spans.self_times(tree)
    assert own == {1: 30, 2: 20, 3: 10, 4: 25, 5: 5, 6: 10}
    by_name, by_layer = spans.summarize(tree)
    assert by_layer == {"cli": 30, "profile_io": 20, "fitcore": 50}
    assert sum(by_layer.values()) == 100
    assert by_name["fitcore.mean_power"].calls == 2
    assert by_name["fitcore.mean_power"].self_ns == 15


def test_tracer_wraps_and_restores():
    original = fitcore.mean_power
    profile = fitcore.validate_profile(inputs.sweep_profiles(2)[0][1])
    tracer = spans.Tracer()
    tracer.install({"cli": cli, "fitcore": fitcore, "profile_io": sys.modules["profilefit.profile_io"]})
    try:
        with tracer.span("fit", op="fit-0"):
            out = fitcore.find_solution(profile, 0.1)
    finally:
        tracer.uninstall()
    assert fitcore.mean_power is original
    by_name, _ = spans.summarize(tracer.spans)
    assert by_name["fitcore.bisect_root"].result_sum == out.iterations
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["fit"]
    assert {s.op for s in tracer.spans} == {"fit-0"}
