"""Acceptance suite: one test per release criterion, with a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The oracles here are deliberately independent of the solver: the grid
oracle enumerates S over the whole bracket, and the derivative oracle uses
central finite differences.
"""

import json
import time

import numpy as np
from conftest import mean_power_derivative, write_profile_csv

from profilefit.cli import EXIT_OK, main
from profilefit.fitcore import (
    FitStatus,
    apply_exponent,
    find_search_interval,
    find_solution,
    mean_power,
    validate_profile,
)

REPORT_KEYS = {
    "input_path",
    "m",
    "r",
    "n",
    "current_cf",
    "target_cf",
    "exponent",
    "achieved_cf",
    "status",
    "iterations",
}


def _random_profile(rng, max_len: int = 100, cap: float = 1.0) -> np.ndarray:
    """Uniform values with exact zeros and ones sprinkled in."""
    m = int(rng.integers(1, max_len + 1))
    values = rng.uniform(0.0, cap, size=m)
    values[rng.random(m) < 0.15] = 0.0
    values[rng.random(m) < 0.15] = 1.0
    return values


def _counts(values: np.ndarray) -> tuple[int, int, int]:
    m = values.size
    r = int(np.count_nonzero(values > 0.0))
    n = int(np.count_nonzero(values == 1.0))
    return m, r, n


def _feasible_mu(values: np.ndarray, rng, lo: float = 0.15, hi: float = 0.95):
    """A target inside the reachable band (n/m, r/m], or None if the band is empty."""
    m, r, n = _counts(values)
    asymptote, reachable = n / m, r / m
    if asymptote >= reachable:
        return None
    mu = asymptote + rng.uniform(lo, hi) * (reachable - asymptote)
    if not (0.0 < mu < 1.0 and asymptote < mu <= reachable):
        return None
    return mu


def grid_oracle_achieved(
    values: np.ndarray,
    mu: float,
    a: float,
    b: float,
    step: float = 1e-6,
    chunk: int = 131072,
) -> float:
    """Brute-force oracle: S at the argmin of |S - mu| over the grid a..b.

    Scans every grid point from a upward. S is non-increasing, so once a
    chunk ends at or below mu the error can only grow afterwards and the
    scan stops. Within a chunk, powers come from a libm-anchored cumulative
    product (the grid is uniform, so each step multiplies by p**step).
    """
    v = np.asarray(values, dtype=np.float64)
    pos = v[v > 0.0]
    m = v.size
    if pos.size == 0:
        return 0.0
    ratio = pos ** step
    n_steps = max(int(round((b - a) / step)), 0)
    best_err, best_s = np.inf, 0.0
    start = 0
    while start <= n_steps:
        count = min(chunk, n_steps - start + 1)
        block = np.empty((pos.size, count))
        block[:, 0] = pos ** (a + start * step)
        if count > 1:
            block[:, 1:] = ratio[:, None]
        np.cumprod(block, axis=1, out=block)
        s = block.sum(axis=0) / m
        err = np.abs(s - mu)
        j = int(np.argmin(err))
        if err[j] < best_err:
            best_err, best_s = float(err[j]), float(s[j])
        if s[-1] <= mu:
            break
        start += count
    return best_s


# ---------------------------------------------------------------------------
# 1. Runtime at the reference problem size
# ---------------------------------------------------------------------------

def test_criterion_1_runtime_under_one_second() -> None:
    rng = np.random.default_rng(1)
    profile = validate_profile(rng.uniform(0.0, 1.0, size=8760))
    start = time.perf_counter()
    outcome = find_solution(profile, 0.6)
    elapsed = time.perf_counter() - start
    assert outcome.status is FitStatus.EXACT
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 runtime (8760 values): PASS ({elapsed * 1e3:.2f} ms)")


# ---------------------------------------------------------------------------
# 2. Exact-root accuracy on the analytic case
# ---------------------------------------------------------------------------

def test_criterion_2_analytic_root() -> None:
    outcome = find_solution([0.5, 0.5], 0.25)
    assert outcome.status is FitStatus.EXACT
    assert abs(outcome.exponent - 2.0) <= 1e-6
    assert abs(outcome.achieved_mean - 0.25) <= 1e-10
    print("ACCEPTANCE 2 analytic root x=2: PASS")


# ---------------------------------------------------------------------------
# 3. The four canonical value sets at mu = 0.65
# ---------------------------------------------------------------------------

def test_criterion_3_canonical_sets() -> None:
    mu = 0.65
    rng = np.random.default_rng(3)

    zero_one = find_solution([0.0, 1.0], mu)
    assert zero_one.status is FitStatus.CLAMPED_LOW
    assert zero_one.exponent == 0.0
    assert zero_one.achieved_mean == 0.5

    mixed = np.concatenate(
        [np.zeros(250), np.ones(250), rng.uniform(0.0, 1.0, size=500)]
    )
    rng.shuffle(mixed)
    out_mixed = find_solution(mixed, mu)
    assert out_mixed.status is FitStatus.EXACT
    assert abs(out_mixed.achieved_mean - mu) <= 1e-10

    low_band = 0.45 * (1.0 - rng.random(1000))  # uniform in (0, 0.45]
    out_low = find_solution(low_band, mu)
    assert out_low.status is FitStatus.EXACT
    assert abs(out_low.achieved_mean - mu) <= 1e-10

    high_band = 0.55 + 0.45 * rng.random(1000)  # uniform in [0.55, 1)
    out_high = find_solution(high_band, mu)
    assert out_high.status is FitStatus.EXACT
    assert abs(out_high.achieved_mean - mu) <= 1e-10

    print("ACCEPTANCE 3 canonical sets at mu=0.65: PASS")


# ---------------------------------------------------------------------------
# 4. Randomized property suite, >= 1000 cases per property
# ---------------------------------------------------------------------------

N_CASES = 1000


def test_criterion_4a_mean_power_non_increasing() -> None:
    rng = np.random.default_rng(40)
    for _ in range(N_CASES):
        p = validate_profile(_random_profile(rng))
        x1, x2 = np.sort(rng.uniform(0.0, 32.0, size=2))
        assert mean_power(p, x1) >= mean_power(p, x2) - 1e-14
    print(f"ACCEPTANCE 4 monotonicity of S ({N_CASES} cases): PASS")


def test_criterion_4b_range_preserved_and_endpoints_fixed() -> None:
    rng = np.random.default_rng(41)
    for _ in range(N_CASES):
        values = _random_profile(rng)
        x = rng.uniform(0.0, 64.0)
        fitted = apply_exponent(validate_profile(values), x)
        assert np.all(fitted.values >= 0.0) and np.all(fitted.values <= 1.0)
        assert np.all(fitted.values[values == 0.0] == 0.0)
        assert np.all(fitted.values[values == 1.0] == 1.0)
    print(f"ACCEPTANCE 4 range preservation and fixed points ({N_CASES} cases): PASS")


def test_criterion_4c_bracket_straddles_target() -> None:
    rng = np.random.default_rng(42)
    checked = 0
    while checked < N_CASES:
        # Cap below 1 keeps the root under the exponent cap for every draw.
        values = _random_profile(rng, cap=0.99)
        mu = _feasible_mu(values, rng)
        if mu is None:
            continue
        p = validate_profile(values)
        a, b = find_search_interval(p, mu)
        fa = mean_power(p, a) - mu
        fb = mean_power(p, b) - mu
        assert fa * fb <= 0.0
        checked += 1
    print(f"ACCEPTANCE 4 bracket validity ({N_CASES} cases): PASS")


def test_criterion_4d_clamp_status_faithful() -> None:
    rng = np.random.default_rng(43)
    checked = 0
    while checked < N_CASES:
        values = _random_profile(rng, cap=0.99)
        mu = float(rng.uniform(0.0, 1.0))
        if not 0.0 < mu < 1.0:
            continue
        m, r, n = _counts(values)
        out = find_solution(values, mu)
        if out.status is FitStatus.CLAMPED_LOW:
            assert mu > r / m
            assert out.exponent == 0.0
            assert out.achieved_mean == r / m
        elif out.status is FitStatus.CLAMPED_HIGH:
            assert mu <= n / m
            assert out.exponent == 1000.0
        else:
            assert n / m < mu <= r / m
            assert abs(out.achieved_mean - mu) <= 1e-10
        checked += 1
    print(f"ACCEPTANCE 4 clamp-status faithfulness ({N_CASES} cases): PASS")


def test_criterion_4e_order_preserved() -> None:
    rng = np.random.default_rng(44)
    for _ in range(N_CASES):
        values = _random_profile(rng)
        x = rng.uniform(0.0, 64.0)
        fitted = apply_exponent(validate_profile(values), x)
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(fitted.values[order]) >= 0.0)
    print(f"ACCEPTANCE 4 order preservation ({N_CASES} cases): PASS")


def test_criterion_4f_mean_power_at_zero_exact() -> None:
    rng = np.random.default_rng(45)
    for _ in range(N_CASES):
        values = _random_profile(rng)
        m, r, _ = _counts(values)
        assert mean_power(validate_profile(values), 0.0) == r / m
    print(f"ACCEPTANCE 4 S(0) = r/m exactly ({N_CASES} cases): PASS")


# ---------------------------------------------------------------------------
# 5. Equivalence with the brute-force grid oracle
# ---------------------------------------------------------------------------

def test_criterion_5_grid_oracle_equivalence() -> None:
    rng = np.random.default_rng(5)
    checked = 0
    worst = 0.0
    while checked < 200:
        m = int(rng.integers(1, 51))
        # Values capped at 0.95 keep every root within a few doublings, so
        # the 1e-6 grid over the bracket stays enumerable.
        values = rng.uniform(0.0, 0.95, size=m)
        values[rng.random(m) < 0.1] = 0.0
        values[rng.random(m) < 0.1] = 1.0
        mu = _feasible_mu(values, rng, lo=0.2, hi=0.9)
        if mu is None:
            continue
        out = find_solution(values, mu)
        assert out.status is FitStatus.EXACT
        a, b = out.bracket
        oracle_s = grid_oracle_achieved(values, mu, a, b)
        diff = abs(out.achieved_mean - oracle_s)
        worst = max(worst, diff)
        assert diff <= 1e-4
        checked += 1
    print(f"ACCEPTANCE 5 grid-oracle equivalence (200 cases): PASS "
          f"(worst |achieved - oracle| = {worst:.2e})")


# ---------------------------------------------------------------------------
# 6. Derivative vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_6_derivative_matches_finite_differences() -> None:
    rng = np.random.default_rng(6)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 101))
        # Positive values bounded away from 0 keep |ln p| moderate, which
        # the finite-difference oracle needs for 1e-6 agreement.
        values = rng.uniform(0.01, 1.0, size=m)
        values[rng.random(m) < 0.15] = 0.0
        values[rng.random(m) < 0.15] = 1.0
        p = validate_profile(values)
        for x in (0.0, 0.5, 1.0, 2.0, 8.0):
            fd = (mean_power(p, x + h) - mean_power(p, x - h)) / (2.0 * h)
            diff = abs(mean_power_derivative(p, x) - fd)
            worst = max(worst, diff)
            assert diff <= 1e-6
    print(f"ACCEPTANCE 6 derivative consistency (100 profiles x 5 points): PASS "
          f"(worst diff = {worst:.2e})")


# ---------------------------------------------------------------------------
# 7. End-to-end CLI on the year-long layout, serial vs parallel
# ---------------------------------------------------------------------------

def test_criterion_7_cli_end_to_end(tmp_path) -> None:
    rng = np.random.default_rng(7)
    inputs = []
    for i in range(10):
        path = write_profile_csv(
            tmp_path / f"site{i}.csv", rng.uniform(0.0, 1.0, size=8760)
        )
        inputs.append(str(path))

    args = ["-t", "0.6", "--plot-data"]
    for p in inputs:
        args += ["-i", p]
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert main(args + ["-o", str(out_serial), "--jobs", "1"]) == EXIT_OK
    assert main(args + ["-o", str(out_parallel), "--jobs", "8"]) == EXIT_OK

    # Fitted profile hits the target: mean of the written column vs 0.6.
    fitted_lines = (out_serial / "site0_fitted.csv").read_text().splitlines()
    assert fitted_lines[0] == "time,original,fitted"
    fitted = np.array([float(line.split(",")[2]) for line in fitted_lines[1:]])
    assert fitted.size == 8760
    assert abs(fitted.mean() - 0.6) <= 1e-9

    # Valid report with exactly the documented fields.
    report = json.loads((out_serial / "site0_report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert report["status"] == "exact"
    assert report["m"] == 8760
    assert abs(report["achieved_cf"] - 0.6) <= 1e-10

    # Duration-curve files are non-increasing in both columns.
    sorted_lines = (out_serial / "site0_sorted.csv").read_text().splitlines()
    cols = np.array([[float(f) for f in line.split(",")[1:]] for line in sorted_lines[1:]])
    assert np.all(np.diff(cols[:, 0]) <= 0.0)
    assert np.all(np.diff(cols[:, 1]) <= 0.0)

    # Byte-identical outputs for jobs=1 vs jobs=8, reports included: a report
    # records the fit, not the run, so no field is masked.
    for i in range(10):
        for suffix in ("_fitted.csv", "_report.json", "_chronological.csv", "_sorted.csv"):
            a = (out_serial / f"site{i}{suffix}").read_bytes()
            b = (out_parallel / f"site{i}{suffix}").read_bytes()
            assert a == b, f"site{i}{suffix} differs between jobs=1 and jobs=8"

    print("ACCEPTANCE 7 CLI end-to-end, serial == parallel: PASS")
