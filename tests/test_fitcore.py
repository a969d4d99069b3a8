import dataclasses
import gc
import math
import re
import sys
import threading
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import mean_power_derivative

from profilefit import fitcore
from profilefit.fitcore import (
    EmptyProfileError,
    FitOptions,
    FitStatus,
    MaxIterationsExceededError,
    NonFiniteValueError,
    Profile,
    TargetOutOfRangeError,
    ValueOutOfRangeError,
    apply_exponent,
    bisect_root,
    find_search_interval,
    find_solution,
    mean_power,
    profile_stats,
    validate_profile,
)

# Independent brute-force oracle for p=[0.25, 0.5, 0.75], mu=0.6: argmin of
# |S(x) - 0.6| over the grid 0, 1e-6, 2e-6, ..., 1 (computed before the
# bisection implementation existed, frozen here).
GRID_ORACLE_X = 0.710244


# ---------------------------------------------------------------------------
# validate_profile
# ---------------------------------------------------------------------------

def test_validate_accepts_in_range_values() -> None:
    p = validate_profile([0.5, 1.0, 0.0])
    assert isinstance(p, Profile)
    assert len(p) == 3
    np.testing.assert_array_equal(p.values, [0.5, 1.0, 0.0])
    # -0.0 >= 0.0: a negative zero is in range, alone or as the minimum.
    assert Profile(np.array([-0.0])).values.tobytes() == np.array([-0.0]).tobytes()
    assert len(validate_profile([0.5, -0.0, 0.0, 1.0])) == 4


def test_validate_rejects_value_above_one() -> None:
    with pytest.raises(ValueOutOfRangeError) as excinfo:
        validate_profile([0.5, 1.2])
    assert excinfo.value.index == 1
    assert excinfo.value.value == 1.2


def test_validate_rejects_negative_value() -> None:
    with pytest.raises(ValueOutOfRangeError) as excinfo:
        validate_profile([-0.1, 0.5])
    assert excinfo.value.index == 0


def test_validate_rejects_empty_sequence() -> None:
    with pytest.raises(EmptyProfileError):
        validate_profile([])


def test_validate_rejects_nan_and_inf() -> None:
    with pytest.raises(NonFiniteValueError) as excinfo:
        validate_profile([0.5, math.nan])
    assert excinfo.value.index == 1
    with pytest.raises(NonFiniteValueError):
        validate_profile([math.inf])


@pytest.mark.parametrize(
    "values, error, index",
    [
        ([1.5, math.nan], ValueOutOfRangeError, 0),
        ([math.nan, 1.5], NonFiniteValueError, 0),
        ([0.5, -math.inf, -0.5], NonFiniteValueError, 1),
        ([0.5, -0.5, math.inf], ValueOutOfRangeError, 1),
        # A NaN after a value out of range: min and max are NaN, and the
        # value out of range still comes first.
        ([0.5, -0.5, 0.2, math.nan], ValueOutOfRangeError, 1),
        ([0.5, 1.5, math.nan, -0.5], ValueOutOfRangeError, 1),
        ([-0.0, 0.3, 2.0, math.nan, math.nan], ValueOutOfRangeError, 2),
    ],
    ids=[
        "range-then-nan", "nan-then-range", "inf-then-range", "range-then-inf",
        "below-then-nan", "above-then-nan-then-below", "neg-zero-above-then-nans",
    ],
)
def test_validate_reports_the_first_offending_value(values, error, index) -> None:
    # The first value outside [0, 1] in input order, NaN and inf included,
    # is reported; only then is its kind told apart.
    with pytest.raises(error) as excinfo:
        validate_profile(values)
    assert excinfo.value.index == index
    # Profile owns the check. Built directly, one used to take any value:
    # [2.0, 0.5] was fitted EXACT to 0.9 with a mean of 1.025, and
    # apply_exponent turned [1.5, 0.5, -0.2] into [2.25, 0.25, 0.0].
    with pytest.raises(error) as excinfo:
        Profile(np.array(values))
    assert excinfo.value.index == index


@pytest.mark.parametrize(
    "shape, error",
    [((0,), EmptyProfileError), ((2, 2), ValueError), ((1, 3), ValueError), ((), ValueError)],
)
def test_profile_refuses_an_array_that_is_empty_or_not_1d(shape, error) -> None:
    # Built directly, an empty Profile was fitted into a ZeroDivisionError,
    # and a 2-D one was fitted as its flattened values.
    with pytest.raises(error):
        Profile(np.full(shape, 0.5))
    with pytest.raises(error):
        validate_profile(np.full(shape, 0.5))


def test_profile_values_are_read_only() -> None:
    p = validate_profile([0.5, 0.6])
    with pytest.raises(ValueError):
        p.values[0] = 0.9


@pytest.mark.parametrize(
    "values",
    [
        pytest.param(np.zeros(3, dtype=dtype), id=dtype)
        for dtype in ["float16", "float32", ">f8", "complex128", "int64"]
    ]
    + [
        pytest.param(
            np.zeros(3, dtype=np.longdouble),
            id="longdouble",
            marks=pytest.mark.skipif(
                np.dtype(np.longdouble) == np.float64, reason="longdouble is float64 here"
            ),
        ),
        pytest.param([0.5], id="list"),
        pytest.param((0.5,), id="tuple"),
    ],
)
def test_profile_holds_float64_only(values) -> None:
    # The CSV writers' value tables key each value on its 64 bits.
    with pytest.raises(TypeError, match="float64"):
        Profile(values)


def test_profile_fields_are_just_values() -> None:
    # The value table, the bases of S(x), their logs and weights, the stats
    # and the last fitted values are cached on first use, not fields:
    # Profile stays frozen and compares by identity (its dtype check is
    # test_profile_holds_float64_only's). A fit caches nothing else.
    p = validate_profile([0.0, 0.5, 1.0])
    fitted = apply_exponent(p, find_solution(p, 0.4).exponent)
    fit_caches = {
        "values", "_table", "_bases", "_log_bases", "_weights", "_inner_logs",
        "_stats", "_last_fitted",
    }
    assert set(vars(p)) <= fit_caches and set(vars(fitted)) <= fit_caches
    assert [f.name for f in dataclasses.fields(Profile)] == ["values"]
    assert p == p and p != validate_profile([0.0, 0.5, 1.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.values = np.zeros(3)
    assert not p._bases[0].flags.writeable and not p._bases[1].flags.writeable
    assert not any(a.flags.writeable for a in p._weights)
    assert p._inner_logs == (1, math.log(0.5), math.log(0.5))


def _cached_bytes(p: Profile) -> int:
    """The bytes of the arrays cached on ``p``, each buffer once: the bases
    of S(x) and their counts are views of the value table."""
    buffers = {}
    items = [item for name, item in vars(p).items() if name != "values"]
    while items:
        item = items.pop()
        if isinstance(item, tuple):
            items.extend(item)
        elif isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            buffers[id(item)] = item.nbytes
    return sum(buffers.values())


@pytest.mark.parametrize("decimals", [3, None], ids=["3_decimals", "full_precision"])
def test_a_fit_and_its_apply_cache_at_most_the_stated_bytes_per_value(decimals) -> None:
    # The Profile docstring states the bound; all positive and distinct is
    # its worst case. The value table (8 bytes per value, 16 per distinct
    # value), three arrays per base of S(x) and the fitted values.
    stated = re.search(r"at most\s+(\d+)\s+bytes per value", Profile.__doc__)
    bound = int(stated.group(1))
    rng = np.random.default_rng(17)
    if decimals is None:
        v = rng.uniform(1e-6, 1.0, 8760)
    else:
        v = np.where(rng.random(8760) < 0.3, 0.0, np.round(rng.beta(2.0, 3.0, 8760), decimals))
    p = validate_profile(v)
    apply_exponent(p, find_solution(p, 0.2).exponent)
    m, d, k = v.size, p._table[0].size, p._bases[0].size
    assert _cached_bytes(p) == 8 * m + 16 * d + 24 * k + 8 * m
    if decimals is None:
        assert d == k == m and _cached_bytes(p) == bound * m
    else:
        assert d == k + 1 and _cached_bytes(p) <= 21 * m  # the docstring's figure
    assert _cached_bytes(p) <= bound * m


def test_a_fitted_profile_keeps_no_reference_to_its_source() -> None:
    p = validate_profile([0.0, 0.5, 1.0])
    fitted = apply_exponent(p, 2.0)
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None
    assert fitted.values.tolist() == [0.0, 0.25, 1.0]


def test_validate_neither_aliases_nor_freezes_the_callers_array() -> None:
    arr = np.array([0.5, 0.6])
    p = validate_profile(arr)
    assert not np.shares_memory(p.values, arr)
    assert arr.flags.writeable
    arr[0] = 0.9
    assert p.values[0] == 0.5


# ---------------------------------------------------------------------------
# profile_stats
# ---------------------------------------------------------------------------

def test_stats_counts_and_mean() -> None:
    s = profile_stats(validate_profile([0, 0.3, 0.9]))
    assert (s.m, s.r, s.n) == (3, 2, 0)
    assert s.mean == pytest.approx(0.4)


def test_stats_zero_and_one() -> None:
    s = profile_stats(validate_profile([0, 1]))
    assert (s.m, s.r, s.n) == (2, 1, 1)
    assert s.mean == 0.5


def test_stats_all_ones() -> None:
    s = profile_stats(validate_profile([1, 1, 1]))
    assert (s.m, s.r, s.n) == (3, 3, 3)
    assert s.mean == 1.0


# ---------------------------------------------------------------------------
# mean_power, and the reference slope mean_power_derivative
# ---------------------------------------------------------------------------

def test_mean_power_at_zero_is_nonzero_share() -> None:
    p = validate_profile([0, 0.3, 0.9])
    assert mean_power(p, 0.0) == 2.0 / 3.0


def test_mean_power_at_one_is_plain_mean() -> None:
    p = validate_profile([0, 0.3, 0.9])
    assert mean_power(p, 1.0) == pytest.approx(0.4)


def test_mean_power_exact_square() -> None:
    p = validate_profile([0.5, 0.5])
    assert mean_power(p, 2.0) == 0.25


def test_derivative_zero_for_all_ones() -> None:
    p = validate_profile([1, 1])
    for x in (0.0, 1.0, 7.5, 100.0):
        assert mean_power_derivative(p, x) == 0.0


def test_derivative_single_value() -> None:
    p = validate_profile([0.5])
    assert mean_power_derivative(p, 0.0) == pytest.approx(math.log(0.5))


def test_derivative_matches_closed_form_and_finite_difference() -> None:
    p = validate_profile([0, 0.5, 0.8])
    closed = (0.5 * math.log(0.5) + 0.8 * math.log(0.8)) / 3
    got = mean_power_derivative(p, 1.0)
    assert got == pytest.approx(closed, abs=1e-15)
    h = 1e-6
    fd = (mean_power(p, 1.0 + h) - mean_power(p, 1.0 - h)) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-6)
    # The exp-form S and slope that the solver's Newton steps read.
    for x in (0.0, 0.3, 1.0, 7.5):
        s, slope = fitcore._mean_and_slope(p, x)
        assert s == pytest.approx(mean_power(p, x), rel=1e-15)
        assert slope == pytest.approx(mean_power_derivative(p, x), rel=1e-14)


# ---------------------------------------------------------------------------
# the fit status: S(x) = mu has a root iff n/m < mu <= r/m
# ---------------------------------------------------------------------------

def test_classify_target_above_reachable_maximum() -> None:
    out = find_solution([0.0, 1.0], 0.6)  # r/m = n/m = 0.5
    assert out.status is FitStatus.CLAMPED_LOW
    assert out.bracket is None


def test_classify_target_at_or_below_asymptote() -> None:
    p = validate_profile([1.0, 1.0, 0.4, 0.4])  # n/m = 0.5
    assert find_solution(p, 0.4).status is FitStatus.CLAMPED_HIGH
    assert find_solution(p, 0.5).status is FitStatus.CLAMPED_HIGH  # mu == n/m
    assert find_solution(p, 0.5 + 1e-9).status is FitStatus.EXACT


def test_classify_feasible_band() -> None:
    p = validate_profile([0.0, 0.25, 0.5, 0.75])  # n/m = 0, r/m = 0.75
    assert find_solution(p, 0.3).status is FitStatus.EXACT
    assert find_solution(p, 0.75).status is FitStatus.EXACT  # mu == r/m
    assert find_solution(p, np.nextafter(0.75, 1.0)).status is FitStatus.CLAMPED_LOW


# ---------------------------------------------------------------------------
# find_search_interval
# ---------------------------------------------------------------------------

def _assert_bracket_holds_root(p, mu, opts=None):
    """The bracket's contract: a <= b, S(a) >= mu >= S(b) with S as
    ``p ** x``, and the fit finds the root inside it to the residual."""
    a, b = find_search_interval(p, mu)
    assert 0.0 <= a <= b
    assert mean_power(p, a) >= mu >= mean_power(p, b)
    out = find_solution(p, mu, opts)
    assert out.status is FitStatus.EXACT
    assert out.bracket == (a, b)
    assert a <= out.exponent <= b
    assert abs(mean_power(p, out.exponent) - mu) <= 1e-10
    assert out.achieved_mean == mean_power(p, out.exponent)
    return a, b, out


def test_bracket_first_interval() -> None:
    # Doubling bracketed this root (0.710) in (0, 1). The closed form's left
    # end, where Newton starts, is closer to it: 0.647.
    a, b, out = _assert_bracket_holds_root(validate_profile([0.25, 0.5, 0.75]), 0.6)
    assert 0.6 < a < out.exponent < b


def test_bracket_after_doubling() -> None:
    # Doubling bracketed log2(5) = 2.32 in (2, 4). Both closed-form bounds
    # are exact for a constant profile, so the bracket pins the root.
    a, b, out = _assert_bracket_holds_root(validate_profile([0.5, 0.5]), 0.2)
    assert 2.0 < a < b < 4.0
    assert b - a <= 1e-12
    assert out.exponent == pytest.approx(math.log2(5.0), rel=1e-12)


def test_bracket_degenerate_on_exact_hit() -> None:
    # Root 1 exactly: the bracket shrinks to the rounding slack around it.
    a, b, out = _assert_bracket_holds_root(validate_profile([0.5]), 0.5)
    assert a <= 1.0 <= b
    assert b - a <= 1e-12
    assert out.iterations == 0


def test_bracket_degenerate_at_zero() -> None:
    # mu == r/m exactly: the root is x = 0 itself, and +0.0, not -0.0,
    # which a report would print as "exponent": -0.0.
    p = validate_profile([0, 0.5])
    a, b = find_search_interval(p, 0.5)
    assert (a, b) == (0.0, 0.0)
    assert math.copysign(1.0, a) == math.copysign(1.0, b) == 1.0
    out = find_solution(p, 0.5)
    assert out.status is FitStatus.EXACT
    assert (out.exponent, out.iterations, out.achieved_mean) == (0.0, 0, 0.5)
    assert math.copysign(1.0, out.exponent) == 1.0


def test_bracket_not_found_past_cap() -> None:
    # One value just below 1: the root (6.9e8) lies far past the old cap of
    # 1000, where the doubling search gave up. The closed form brackets it.
    p = validate_profile([1 - 1e-9])
    a, b, out = _assert_bracket_holds_root(p, 0.5)
    assert a > 1000.0
    assert out.exponent == pytest.approx(math.log(0.5) / math.log(1 - 1e-9), rel=1e-9)


@pytest.mark.parametrize(
    ("values", "mu", "root"),
    [
        # S(512) = 0.600 > 0.5 > S(1000) = 0.368: the root lies below the old cap.
        pytest.param([0.999] * 999 + [1.0], 0.5, 693.8, id="below_the_old_cap"),
        # Above the old cap, and every value below 1 is equal, so the two
        # bounds differ by one ulp and came out in the wrong order unslacked.
        pytest.param([0.999] * 999 + [1.0], 0.3, 1205.7079490790087, id="equal_bounds"),
    ],
)
def test_bracket_holds_roots_past_the_old_cap(values, mu, root) -> None:
    a, b, out = _assert_bracket_holds_root(validate_profile(values), mu)
    assert out.exponent == pytest.approx(root, rel=1e-4)


def test_large_exponent_does_not_cap_exact_roots() -> None:
    # The root for mu = 0.1 is log(0.1) / log(0.999) = 2301.4, beyond the
    # fixed exponent of 1000 that a clamped_high fit gets.
    a, b, out = _assert_bracket_holds_root(validate_profile([0.999, 0.999]), 0.1)
    assert out.exponent == pytest.approx(math.log(0.1) / math.log(0.999), rel=1e-12)
    assert out.exponent > 1000.0
    # 1000 is only the exponent of a clamped_high fit.
    high = find_solution([1.0, 0.5], 0.5)
    assert (high.status, high.exponent) == (FitStatus.CLAMPED_HIGH, 1000.0)


@pytest.mark.parametrize("mu", [0.8, 0.5, 0.4])  # above r/m, at n/m, below n/m
def test_bracket_rejects_target_outside_the_band(mu) -> None:
    with pytest.raises(ValueError, match="outside the band"):
        find_search_interval(validate_profile([0.0, 0.5, 1.0, 1.0]), mu)


# ---------------------------------------------------------------------------
# bisect_root
# ---------------------------------------------------------------------------

def test_bisect_endpoint_hit_returns_immediately() -> None:
    p = validate_profile([0.5, 0.5])
    assert bisect_root(p, 0.25, 2.0, 3.0) == (2.0, 0, 0.25)
    # The right end is not evaluated up front; Newton reaches a root there.
    x, iterations, achieved = bisect_root(p, 0.25, 1.0, 2.0)
    assert abs(achieved - 0.25) <= 1e-10
    assert x == pytest.approx(2.0, rel=1e-9)


def test_bisect_matches_grid_oracle() -> None:
    p = validate_profile([0.25, 0.5, 0.75])
    x, iterations, achieved = bisect_root(p, 0.6, 0.0, 1.0)
    assert x == pytest.approx(GRID_ORACLE_X, abs=1e-6)
    assert achieved == mean_power(p, x)
    assert abs(achieved - 0.6) <= 1e-10
    assert iterations > 0


def test_bisect_finds_the_root_with_an_infinite_right_end() -> None:
    # Newton from a never reaches b, so b = inf is never evaluated.
    p = validate_profile([0.25, 0.5, 0.75])
    x, iterations, achieved = bisect_root(p, 0.6, 0.0, math.inf)
    assert x == pytest.approx(GRID_ORACLE_X, abs=1e-6)
    assert abs(achieved - 0.6) <= 1e-10
    assert achieved == mean_power(p, x)


def test_bisect_degenerate_bracket() -> None:
    p = validate_profile([0.5])
    assert bisect_root(p, 0.5, 1.0, 1.0) == (1.0, 0, 0.5)


# 8760 values of 0.999 and 10 zeros: S(x) = (8760/8770) * 0.999 ** x, so the
# root of S(x) = mu is known in closed form and grows past 8192, where
# ulp(x) = 1.8e-12, as mu falls below about 2.7e-4.
NEAR_ONE = np.concatenate([np.full(8760, 0.999), np.zeros(10)])


def near_one_root(mu: float) -> float:
    return math.log(mu * 8770 / 8760) / math.log(0.999)


@pytest.mark.parametrize("mu", [3e-3, 1e-4])  # roots 5805 and 9205
def test_bisect_stops_where_rounding_ends_the_newton_steps(mu) -> None:
    p = validate_profile(NEAR_ONE)
    a, b = find_search_interval(p, mu)
    x, iterations, achieved = bisect_root(p, mu, a, b, FitOptions(residual_tol=1e-300))
    # Not the residual test, which |achieved - mu| > 1e-300 fails: the steps
    # stopped moving x, within rounding of the root's closed form.
    assert achieved != mu
    assert abs(x - near_one_root(mu)) <= 2 * math.ulp(x)
    assert iterations <= 10


@pytest.mark.parametrize(
    ("values", "mu"),
    [
        # S'(x) = S(x) * log p is about 1e-320 here, a subnormal with a few
        # significant bits; a step on it landed past the root, and stopping
        # at the first step back left a relative residual of 3.5e-7.
        (1.0 - np.random.default_rng(0).random(30) * 1e-13, 5e-308),
        # The last Newton point is one float off the best one: 9.5e-14.
        (np.random.default_rng(0).random(3), 1e-300),
    ],
)
def test_bisect_ends_on_the_best_float_when_the_tolerance_cannot_be_met(values, mu) -> None:
    p = validate_profile(values)
    a, b = find_search_interval(p, mu)
    x, iterations, achieved = bisect_root(p, mu, a, b, FitOptions(residual_tol=5e-324))
    assert a <= x <= b
    assert achieved == mean_power(p, x)
    assert abs(achieved - mu) <= 1e-12 * mu
    for side in (-math.inf, math.inf):
        assert abs(achieved - mu) <= abs(mean_power(p, math.nextafter(x, side)) - mu)


def _count_fitted_builds(monkeypatch) -> list[float]:
    """Record each exponent at which a Profile builds its fitted values (one pow)."""
    builds = []
    fitted = Profile._fitted

    def counting(self, x):
        kept = self.__dict__.get("_last_fitted")
        if kept is None or kept[0] != x:
            builds.append(x)
        return fitted(self, x)

    monkeypatch.setattr(Profile, "_fitted", counting)
    return builds


def test_the_rounding_end_pays_one_pow_per_distinct_candidate(monkeypatch) -> None:
    # Where residual_tol cannot be met, the rounding end picks the best of
    # five candidate exponents. It used to pow at each, repeats included, and
    # then once more at the one it picked: 6 pows for this fit, not 5.
    pows = _count_fitted_builds(monkeypatch)
    p = validate_profile(np.random.default_rng(101).random(3))
    out = find_solution(p, 1e-100, FitOptions(residual_tol=5e-324))
    # The parent's (x, iterations, S), bit for bit.
    assert out.exponent.hex() == "0x1.ecd2506403b0cp+11"
    assert out.iterations == 2
    assert out.achieved_mean.hex() == "0x1.bff2ee48e0554p-333"
    assert len(pows) <= 5


@pytest.mark.parametrize("decimals", [3, None], ids=["3_decimals", "full_precision"])
def test_newton_steps_gather_nothing_to_input_order(monkeypatch, decimals) -> None:
    # A step reads S and S' as weighted dots over the bases of S(x); only the
    # confirming mean_power takes the fitted values to input order.
    rng = np.random.default_rng(7)
    v = np.where(rng.random(8760) < 0.4, 0.0, rng.beta(2.0, 3.0, 8760))
    p = validate_profile(v if decimals is None else np.round(v, decimals))
    find_solution(p, 0.2)  # builds the Profile's caches, which gather once
    gathers = []
    fitted = Profile._fitted

    def counting(self, x):
        gathers.append(x)
        return fitted(self, x)

    monkeypatch.setattr(Profile, "_fitted", counting)
    for mu in (0.05, 0.15, 0.3, 0.45):
        gathers.clear()
        out = find_solution(p, mu)
        assert out.status is FitStatus.EXACT and out.iterations >= 2
        assert len(gathers) <= 1


@pytest.mark.parametrize("decimals", [3, None], ids=["3_decimals", "full_precision"])
def test_a_fit_and_its_apply_build_the_fitted_values_once(monkeypatch, decimals) -> None:
    # apply_exponent at the exponent a fit returned wraps the fitted values
    # its last mean_power summed; it used to scatter and gather them again.
    rng = np.random.default_rng(11)
    v = np.where(rng.random(8760) < 0.3, 0.0, rng.beta(2.0, 3.0, 8760))
    p = validate_profile(v if decimals is None else np.round(v, decimals))
    builds = _count_fitted_builds(monkeypatch)
    for mu in (0.1, 0.3, 0.6):
        builds.clear()
        out = find_solution(p, mu)
        applied = apply_exponent(p, out.exponent)
        assert out.status is FitStatus.EXACT
        assert builds == [out.exponent]
        assert applied.values is p.__dict__["_last_fitted"][1]
        assert out.achieved_mean == profile_stats(applied).mean


@pytest.mark.parametrize("decimals", [2, None], ids=["2_decimals", "full_precision"])
@pytest.mark.parametrize(
    "bad, error",
    [
        # numpy 1.x compares a uint64 max with a Python int as float64, which
        # rounds these bits down to those of 1.0: the check would pass it.
        (math.nextafter(1.0, 2.0), ValueOutOfRangeError),
        (math.nan, NonFiniteValueError),
        (-0.25, ValueOutOfRangeError),
        (-0.0, None),  # fails the image's bit check, but lies in [0, 1]
    ],
    ids=["next_above_one", "nan", "negative", "negative_zero"],
)
def test_apply_exponent_refuses_a_pow_outside_the_unit_range(monkeypatch, decimals, bad, error) -> None:
    # apply_exponent checks the range of its values on the image of the
    # bases, not on all m values; a pow that strays must still be refused,
    # at the first value, in input order, that it lands on.
    rng = np.random.default_rng(5)
    v = np.where(rng.random(2000) < 0.3, 0.0, rng.beta(2.0, 3.0, 2000))
    p = validate_profile(v if decimals is None else np.round(v, decimals))
    bases, _, positive = p._bases
    slot = bases.size // 2
    first = np.flatnonzero(p._table[1] == positive.start + slot)[0]
    power = np.power

    def stray(b, x, out):
        power(b, x, out=out)
        out[slot] = bad
        return out

    monkeypatch.setattr(fitcore.np, "power", stray)
    if error is None:
        got = apply_exponent(p, 1.5).values
        assert math.copysign(1.0, got[first]) == -1.0
        return
    with pytest.raises(error) as excinfo:
        apply_exponent(p, 1.5)
    assert excinfo.value.index == first
    assert "_last_fitted" not in vars(p)
    monkeypatch.setattr(fitcore.np, "power", power)
    want = np.where(p.values > 0.0, p.values ** 1.5, 0.0)
    assert apply_exponent(p, 1.5).values.tobytes() == want.tobytes()


def test_the_image_check_compares_bits_with_a_uint64() -> None:
    # A Python int in its place passes the next float above 1 on numpy 1.x.
    assert type(fitcore._ONE_BITS) is np.uint64
    assert fitcore._ONE_BITS == np.array([1.0]).view(np.uint64)[0]
    image = np.array([0.0, 0.5, math.nextafter(1.0, 2.0), 0.0])
    assert image.view(np.uint64).max() > fitcore._ONE_BITS
    assert not np.array([0.0, 1.0, 0.0]).view(np.uint64).max() > fitcore._ONE_BITS


@pytest.mark.parametrize("decimals", [2, None], ids=["2_decimals", "full_precision"])
@pytest.mark.parametrize("x", [0.0, 1.0, 1000.0, math.inf])
def test_an_applied_profile_holds_the_kept_values_unchecked(decimals, x) -> None:
    # apply_exponent builds its Profile without the m-value scan of
    # Profile.__post_init__; it must still hold what that scan would accept.
    rng = np.random.default_rng(9)
    inner = rng.random(3000)
    edges = [0.0, -0.0, 1.0, 5e-324, 2.2e-308, 0.0, -0.0, 1.0]
    v = np.concatenate([inner if decimals is None else np.round(inner, decimals), edges])
    p = validate_profile(rng.permutation(v))
    applied = apply_exponent(p, x)
    got = applied.values
    assert got is p.__dict__["_last_fitted"][1]
    assert got.dtype == np.float64 and got.ndim == 1 and got.size == v.size
    assert not got.flags.writeable
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(p.values > 0.0, p.values ** x, 0.0)
    assert got.tobytes() == want.tobytes()
    Profile(got.copy())  # in [0, 1]: the full check takes it


@pytest.mark.parametrize(
    "values",
    [[0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]],
    ids=["zero", "negative_zero", "both", "both_repeated"],
)
def test_a_profile_with_no_positive_value_fits_to_zeros(values) -> None:
    # A value table with no positive key: the image holds no pow, only a
    # zero for each of 0.0 and -0.0 that the profile holds.
    p = validate_profile(values)
    for x in (0.0, 0.5, 1000.0, math.inf):
        assert mean_power(p, x) == 0.0
        assert apply_exponent(p, x).values.tobytes() == np.zeros(len(values)).tobytes()
    out = find_solution(p, 0.5)
    assert out.status is FitStatus.CLAMPED_LOW and out.achieved_mean == 0.0


def test_very_uneven_counts_fit_in_few_steps() -> None:
    # One base stands for 8000 values and six for one each, so its weight
    # dwarfs theirs in a step's dots; the steps must still find the root as
    # fast, and mean_power, over input order, must confirm it.
    rng = np.random.default_rng(3)
    others = [0.0, 0.001, 0.05, 0.6, 0.9, 0.999, 1.0]
    p = validate_profile(rng.permutation(np.concatenate([np.full(8000, 0.3), others])))
    s = profile_stats(p)
    asymptote, reachable = s.n / s.m, s.r / s.m
    # From 1% of the band above the asymptote up; nearer to it, where S is
    # flat, Newton from the bracket's left end takes more steps (9 at 1e-6).
    for f in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        mu = asymptote + f * (reachable - asymptote)
        out = find_solution(p, mu)
        assert out.status is FitStatus.EXACT
        assert out.iterations < 5
        assert out.achieved_mean == mean_power(p, out.exponent)
        assert abs(out.achieved_mean - mu) <= FitOptions().residual_tol


@pytest.mark.parametrize(
    ("values", "mu"),
    [
        # S'(x) underflows to -0.0 at the second step, where S is still
        # above mu: the step went to b and stopped 1.5e-9 off.
        pytest.param(
            [0.999999999999979, 0.9999999999999999, 0.9999999999999841,
             0.9999999999999818, 0.9999999999999994],
            1.029902527693698e-308,
            id="slope_underflows_to_zero",
        ),
        # S'(x) is -2.5e-323, a subnormal of 3 bits, at the third step: the
        # step on it landed past the root, and the fit stopped 16% off.
        pytest.param(
            1.0 - 10.0 ** np.random.default_rng(249).uniform(-16, -8, 10),
            1.3e-308,
            id="subnormal_slope",
        ),
    ],
)
def test_solution_reads_a_slope_below_the_normal_range_at_the_scale_of_s(values, mu) -> None:
    out = find_solution(values, mu, FitOptions(residual_tol=5e-324))
    assert out.status is FitStatus.EXACT
    assert abs(out.achieved_mean - mu) <= 1e-12 * mu
    assert out.iterations <= 5


def test_bisect_iteration_cap(monkeypatch) -> None:
    # Newton lands on this root (residual exactly 0) in 5 steps, so only a
    # cap below that can trigger; one step is far from the tolerance.
    monkeypatch.setattr(fitcore, "_MAX_ITER", 1)
    p = validate_profile([0.25, 0.5, 0.75])
    with pytest.raises(MaxIterationsExceededError):
        bisect_root(p, 0.6, 0.0, 1.0, FitOptions(residual_tol=1e-300))


@pytest.mark.parametrize("mu", [0.0, -0.5, math.nan])
def test_bisect_rejects_a_target_that_is_not_positive(mu) -> None:
    with pytest.raises(ValueError, match="must be positive"):
        bisect_root(validate_profile([0.25, 0.5]), mu, 0.0, 1.0)


@pytest.mark.parametrize(("a", "b"), [(1.0, 0.0), (math.nan, 1.0), (0.0, math.nan)])
def test_bisect_rejects_an_invalid_bracket(a, b) -> None:
    with pytest.raises(ValueError, match="invalid bracket"):
        bisect_root(validate_profile([0.25, 0.5, 0.75]), 0.6, a, b)


def test_bisect_rejects_sign_preserving_bracket() -> None:
    p = validate_profile([0.25, 0.5, 0.75])
    with pytest.raises(ValueError, match="does not straddle"):
        bisect_root(p, 0.6, 2.0, 4.0)  # S < mu on both endpoints
    with pytest.raises(ValueError, match="does not straddle"):
        bisect_root(p, 0.6, 0.0, 0.5)  # S > mu on both endpoints
    with pytest.raises(ValueError, match="does not straddle"):
        bisect_root(p, 0.6, 0.5, 0.5)  # a degenerate bracket off the root
    ones = validate_profile([1.0, 1.0])  # S = 1 for every x: its slope is 0
    for b in (5.0, math.inf):
        with pytest.raises(ValueError, match="does not straddle"):
            bisect_root(ones, 0.5, 0.0, b)


# ---------------------------------------------------------------------------
# find_solution
# ---------------------------------------------------------------------------

def test_solution_clamps_low_for_unreachable_target() -> None:
    out = find_solution([0, 1], 0.6)
    assert out.status is FitStatus.CLAMPED_LOW
    assert out.exponent == 0.0
    assert out.achieved_mean == 0.5
    assert out.bracket is None


def test_solution_clamps_high_at_asymptote() -> None:
    out = find_solution([1, 1, 0.5, 0], 0.4)
    assert out.status is FitStatus.CLAMPED_HIGH
    assert out.exponent == 1000.0
    # 0.5**1000 is ~1e-301; the achieved mean is n/m to machine precision.
    assert out.achieved_mean == pytest.approx(0.5, abs=1e-12)


def test_solution_exact_analytic_root() -> None:
    out = find_solution([0.5, 0.5], 0.25)
    assert out.status is FitStatus.EXACT
    # The bracket is the root widened by its rounding slack. Its left end
    # already meets the residual, so no step is taken, and the Newton
    # correction from there lands within rounding of the root.
    assert out.exponent == pytest.approx(2.0, rel=1e-15)
    assert abs(out.achieved_mean - 0.25) <= 1e-15
    assert out.iterations == 0
    a, b = out.bracket
    assert a <= 2.0 <= b
    assert b - a <= 1e-12


def test_solution_matches_grid_oracle() -> None:
    out = find_solution([0.25, 0.5, 0.75], 0.6)
    assert out.status is FitStatus.EXACT
    assert out.exponent == pytest.approx(GRID_ORACLE_X, abs=1e-6)
    assert abs(out.achieved_mean - 0.6) <= 1e-10
    a, b = out.bracket
    assert 0.0 < a <= out.exponent <= b


def test_solution_propagates_bracket_not_found() -> None:
    # This target once raised out of find_solution; it is now an exact fit.
    out = find_solution([1 - 1e-9], 0.5)
    assert out.status is FitStatus.EXACT
    assert out.exponent == pytest.approx(math.log(0.5) / math.log(1 - 1e-9), rel=1e-9)
    assert abs(out.achieved_mean - 0.5) <= 1e-10


def test_solution_rejects_target_outside_open_interval() -> None:
    for mu in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(TargetOutOfRangeError):
            find_solution([0.5, 0.5], mu)


def test_solution_validates_raw_sequences() -> None:
    with pytest.raises(ValueOutOfRangeError):
        find_solution([0.5, 1.2], 0.6)


def test_solution_all_zero_profile_clamps_low_to_zero_mean() -> None:
    out = find_solution([0, 0, 0], 0.3)
    assert out.status is FitStatus.CLAMPED_LOW
    assert out.exponent == 0.0
    assert out.achieved_mean == 0.0
    fitted = apply_exponent([0, 0, 0], out.exponent)
    np.testing.assert_array_equal(fitted.values, [0.0, 0.0, 0.0])


def _baseload_year() -> np.ndarray:
    """Hourly values 1 - |N(0, 0.01)| at 3 decimals, with a two-week outage."""
    rng = np.random.default_rng(3)
    values = np.round(1.0 - np.abs(rng.normal(0.0, 0.01, 8760)), 3)
    values[4000:4336] = 0.0
    return values


@pytest.mark.parametrize(
    ("values", "mu"),
    [
        ([0.999] * 999 + [1.0], 0.5),  # root 693.8, doubling bracket (512, 1000)
        (_baseload_year(), 0.2),  # root 355.6, doubling bracket (256, 512)
        (_baseload_year(), 0.3),  # root 216.9, doubling bracket (128, 256)
    ],
)
def test_solution_converges_in_few_steps(values, mu) -> None:
    # Plain bisection needs 25-30 halvings on the doubling brackets.
    p = validate_profile(values)
    out = find_solution(p, mu)
    assert out.status is FitStatus.EXACT
    assert out.exponent > 100.0
    assert out.iterations <= 10
    assert abs(mean_power(p, out.exponent) - mu) <= 1e-10


@pytest.mark.parametrize("mu", [1e-4, 1e-5, 1e-6])  # roots 9205, 11506 and 13807
def test_solution_is_exact_past_8192_at_any_residual_tol(mu) -> None:
    # Past 8192, ulp(x) > 1e-12: a tight residual_tol must still end the solve.
    for residual_tol in (1e-20, 1e-300):
        out = find_solution(NEAR_ONE, mu, FitOptions(residual_tol=residual_tol))
        assert out.status is FitStatus.EXACT
        a, b = out.bracket
        assert a <= out.exponent <= b
        assert out.exponent == pytest.approx(near_one_root(mu), rel=1e-15)


def longdouble_root(values, mu: float, x: float) -> np.longdouble:
    """Newton's root of log S(x) = log mu in np.longdouble, started at x."""
    v = np.array(values, dtype=np.longdouble)
    lp = np.log(v[v > 0.0])
    x, log_mu = np.longdouble(x), np.log(np.longdouble(mu))
    for _ in range(10):
        e = np.exp(x * lp)
        x -= (np.log(e.sum() / v.size) - log_mu) * e.sum() / (e * lp).sum()
    return x


# No float sum meets a residual_tol of 1e-300 at these targets, so each fit
# ends where rounding stops the Newton steps from moving x. The root lies
# far beyond where S(a) is: Newton steps on S, which lower S by at most a
# factor e each, would need hundreds of steps to get there, past the
# 200-step cap; Newton on log S needs 2.
@pytest.mark.parametrize(
    ("values", "mu"),
    [([0.999, 0.5, 0.1], 1e-70), ([1 - 2**-52, 0.5], 1e-75), ([1 - 2**-52, 0.5], 1e-300)],
)
def test_solution_reaches_tiny_targets_at_a_tight_residual_tol(values, mu) -> None:
    out = find_solution(values, mu, FitOptions(residual_tol=1e-300))
    assert out.status is FitStatus.EXACT
    assert out.iterations <= 5
    root = longdouble_root(values, mu, out.exponent)
    assert abs(np.longdouble(out.exponent) - root) <= 4 * math.ulp(out.exponent)


@pytest.mark.parametrize("mu", [0.9, 0.6, 0.1])  # clamped low, exact, clamped high
def test_solution_carries_profile_stats(mu) -> None:
    p = validate_profile([0.0, 0.25, 0.5, 1.0])
    out = find_solution(p, mu)
    assert out.stats == profile_stats(p)


# ---------------------------------------------------------------------------
# apply_exponent
# ---------------------------------------------------------------------------

def test_apply_exponent_squares_values() -> None:
    fitted = apply_exponent([0.25, 0.5, 0.75], 2.0)
    np.testing.assert_allclose(fitted.values, [0.0625, 0.25, 0.5625], rtol=0, atol=0)


def test_apply_exponent_identity() -> None:
    p = validate_profile([0.1, 0.9, 1.0, 0.0])
    np.testing.assert_array_equal(apply_exponent(p, 1.0).values, p.values)


def test_apply_exponent_zero_keeps_zeros() -> None:
    fitted = apply_exponent([0, 0.4, 1], 0.0)
    np.testing.assert_array_equal(fitted.values, [0.0, 1.0, 1.0])


def test_apply_exponent_rejects_negative_exponent() -> None:
    with pytest.raises(ValueError):
        apply_exponent([0.5], -1.0)


def test_apply_exponent_rejects_nan_but_takes_inf() -> None:
    p = validate_profile([0, 0.5, 1])
    with pytest.raises(ValueError):
        apply_exponent(p, math.nan)  # would give [0, nan, 1]
    np.testing.assert_array_equal(apply_exponent(p, math.inf).values, [0.0, 0.0, 1.0])


def test_an_exponent_is_taken_as_its_float() -> None:
    # A Fraction went through numpy's object path (libm pow): 49 of these
    # 1000 fitted values and the mean's last digit differed from those at
    # its float. Kept powers matched on Fraction(1, 2) == 0.5 would also
    # hand back the bits of whichever of the two came first.
    v = np.random.default_rng(0).uniform(0, 1, 1000)
    p = validate_profile(v)
    for x in (Fraction(17, 10), Fraction(1, 2), 0.5, np.float32(0.25), 3):
        assert mean_power(p, x) == float(np.sum(v ** float(x)) / v.size)
        expected = np.where(v > 0.0, v ** float(x), 0.0)
        assert apply_exponent(p, x).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "x", [True, False, "2", None, Decimal("2"), 2j], ids=["true", "false", "str", "none", "decimal", "complex"]
)
def test_apply_exponent_refuses_a_value_that_is_not_a_real_number(x) -> None:
    # True and False were taken as 1 and 0; "2", None and 2j raised TypeError.
    with pytest.raises(ValueError, match="exponent must be a real number"):
        apply_exponent([0.5], x)


def test_threads_sharing_a_profile_fit_as_one_thread_does() -> None:
    # The powers a Profile keeps change with every exponent it takes, so
    # four threads fitting one Profile at different targets must still each
    # get the fit and the fitted bytes of a serial run.
    rng = np.random.default_rng(11)
    values = np.concatenate([np.round(rng.uniform(0, 1, 3000) ** 2, 3), np.zeros(60), np.ones(30)])
    targets = [[0.05, 0.3, 0.6], [0.1, 0.35, 0.99], [0.2, 0.4, 0.5], [0.25, 0.45, 0.001]]

    def fit(p, mu):
        out = find_solution(p, mu)
        return out, apply_exponent(p, out.exponent).values.tobytes()

    serial = {mu: fit(validate_profile(values), mu) for row in targets for mu in row}
    shared = validate_profile(values)
    results = [[] for _ in targets]
    barrier = threading.Barrier(len(targets), timeout=30)

    def work(i):
        barrier.wait()
        for _ in range(40):
            results[i] += [(mu, fit(shared, mu)) for mu in targets[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(targets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert {serial[mu][0].status for mu in serial} == set(FitStatus)
    for i, row in enumerate(results):
        assert len(row) == 40 * len(targets[i])
        assert all(got == serial[mu] for mu, got in row)


# ---------------------------------------------------------------------------
# boundary behaviour and options validation
# ---------------------------------------------------------------------------

def test_mean_power_approaches_asymptote() -> None:
    # With non-one values capped at 0.97, x=1000 puts every term below 1e-13.
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.uniform(0.01, 0.97, size=40),
        np.ones(10),
        np.zeros(10),
    ])
    p = validate_profile(values)
    s = profile_stats(p)
    assert mean_power(p, 1000.0) == pytest.approx(s.n / s.m, abs=1e-9)


def test_fit_options_validation() -> None:
    with pytest.raises(ValueError):
        FitOptions(residual_tol=0.0)


@pytest.mark.parametrize("name", ["residual_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_fit_options_reject_non_finite(name, value) -> None:
    with pytest.raises(ValueError, match=name):
        FitOptions(**{name: value})


@pytest.mark.parametrize(
    "value", [True, "1e-8", None, Decimal("1e-8")], ids=["bool", "str", "none", "decimal"]
)
def test_fit_options_refuse_a_value_that_is_not_a_real_number(value) -> None:
    # True was taken as a tolerance of 1, and "1e-8" raised TypeError.
    with pytest.raises(ValueError, match="residual_tol must be a real number"):
        FitOptions(residual_tol=value)


def test_fit_options_take_any_positive_real_number() -> None:
    for value in (np.float64(1e-8), Fraction(1, 10**8), 1):
        assert FitOptions(residual_tol=value).residual_tol == value
