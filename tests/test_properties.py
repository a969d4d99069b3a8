"""Property tests for the numerical core invariants."""

import sys

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from profilefit.fitcore import (
    BracketNotFoundError,
    FitStatus,
    apply_exponent,
    find_search_interval,
    find_solution,
    mean_power,
    profile_stats,
    validate_profile,
)

# Any float in [0, 1], with endpoints over-weighted to exercise r and n.
any_values = st.lists(
    st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)

# Positive values bounded away from 0 so that |ln p| stays moderate; used
# where default solver tolerances assume a sanely-scaled profile.
tame_values = st.lists(
    st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)

exponents = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)

NUL_UNREADABLE = "\0" if sys.version_info < (3, 11) else ""


@given(any_values, exponents)
def test_apply_exponent_preserves_range_and_endpoints(values, x) -> None:
    p = validate_profile(values)
    fitted = apply_exponent(p, x)
    assert len(fitted) == len(p)
    assert np.all(fitted.values >= 0.0)
    assert np.all(fitted.values <= 1.0)
    # 0 and 1 are fixed points for every exponent, so they never move.
    zeros = p.values == 0.0
    ones = p.values == 1.0
    assert np.all(fitted.values[zeros] == 0.0)
    assert np.all(fitted.values[ones] == 1.0)


@given(any_values, exponents, exponents)
def test_mean_power_is_non_increasing(values, x1, x2) -> None:
    assume(x1 != x2)
    lo, hi = min(x1, x2), max(x1, x2)
    p = validate_profile(values)
    # Weak inequality with a few-ulp allowance for libm pow rounding.
    assert mean_power(p, lo) >= mean_power(p, hi) - 1e-14


@given(any_values)
def test_mean_power_at_zero_equals_nonzero_share(values) -> None:
    p = validate_profile(values)
    s = profile_stats(p)
    assert mean_power(p, 0.0) == s.r / s.m


@given(any_values, exponents)
def test_apply_exponent_preserves_order(values, x) -> None:
    p = validate_profile(values)
    fitted = apply_exponent(p, x)
    order = np.argsort(p.values, kind="stable")
    assert np.all(np.diff(fitted.values[order]) >= 0.0)


@given(tame_values, st.floats(min_value=1e-6, max_value=1.0, exclude_max=False))
def test_search_interval_straddles_target(values, band_fraction) -> None:
    p = validate_profile(values)
    s = profile_stats(p)
    mu = s.asymptote + band_fraction * (s.max_reachable - s.asymptote)
    assume(0.0 < mu < 1.0)
    assume(s.asymptote < mu <= s.max_reachable)
    try:
        a, b = find_search_interval(p, mu)
    except BracketNotFoundError:
        return  # contractually allowed: root beyond the exponent cap
    fa = mean_power(p, a) - mu
    fb = mean_power(p, b) - mu
    assert fa * fb <= 0.0
    if a == b:
        assert fa == 0.0


@given(
    tame_values,
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_fit_status_encodes_feasibility(values, mu) -> None:
    p = validate_profile(values)
    s = profile_stats(p)
    try:
        out = find_solution(p, mu)
    except BracketNotFoundError:
        return
    if out.status is FitStatus.CLAMPED_LOW:
        assert mu > s.max_reachable
        assert out.exponent == 0.0
        assert out.achieved_mean == s.max_reachable
    elif out.status is FitStatus.CLAMPED_HIGH:
        assert mu <= s.asymptote
        assert out.exponent == 1000.0
    else:
        assert s.asymptote < mu <= s.max_reachable
        assert abs(out.achieved_mean - mu) <= 1e-10


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=20),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_fitted_profile_round_trips_through_csv(values, x) -> None:
    import tempfile
    from pathlib import Path

    from profilefit.profile_io import CsvLayout, read_profile, write_profile

    p = validate_profile(values)
    fitted = apply_exponent(p, x)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fit.csv"
        write_profile(path, None, p, fitted, CsvLayout())
        layout = CsvLayout(preamble_lines=0, value_column="fitted", time_column=None)
        back, timestamps = read_profile(path, layout)
        assert timestamps is None
        np.testing.assert_allclose(back.values, fitted.values, rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            # Any text but lone surrogates, which UTF-8 cannot encode, and,
            # before Python 3.11, NUL, which csv.reader rejects there
            # whatever the writer does.
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=NUL_UNREADABLE)),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    st.floats(min_value=0.0, max_value=8.0),
    st.sampled_from([",", ";", "\t"]),
)
def test_read_returns_what_write_wrote(rows, x, delimiter) -> None:
    import tempfile
    from pathlib import Path

    from profilefit.profile_io import CsvLayout, read_profile, write_profile

    stamps = [t for t, _ in rows]
    p = validate_profile([v for _, v in rows])
    fitted = apply_exponent(p, x)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fit.csv"
        write_profile(path, stamps, p, fitted, CsvLayout(delimiter=delimiter))
        for column, want in (("original", p), ("fitted", fitted)):
            layout = CsvLayout(preamble_lines=0, value_column=column, delimiter=delimiter)
            back, back_stamps = read_profile(path, layout)
            np.testing.assert_array_equal(back.values, want.values)
            assert back_stamps == stamps
