"""Property tests for the numerical core invariants."""

import functools
import math
import sys

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from profilefit import fitcore
from profilefit.fitcore import (
    FitOptions,
    FitStatus,
    Profile,
    ProfileFitError,
    ProfileStats,
    apply_exponent,
    find_search_interval,
    find_solution,
    mean_power,
    profile_stats,
    validate_profile,
)
from profilefit.profile_io import FittedPair, _image_table

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

# The values at the edges of the positive mask and its log: both zeros
# (-0.0 is not > 0), the smallest subnormal, the largest float below 1, and 1.
edge_values = st.lists(
    st.sampled_from([0.0, -0.0, 5e-324, 1 - 2**-53, 1.0]), min_size=1, max_size=40
)

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
    asymptote, reachable = s.n / s.m, s.r / s.m
    mu = asymptote + band_fraction * (reachable - asymptote)
    assume(0.0 < mu < 1.0)
    assume(asymptote < mu <= reachable)
    a, b = find_search_interval(p, mu)
    assert 0.0 <= a <= b
    fa = mean_power(p, a) - mu
    fb = mean_power(p, b) - mu
    assert fa >= 0.0 >= fb
    if a == b:
        assert fa == 0.0


@given(
    tame_values,
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_fit_status_encodes_feasibility(values, mu) -> None:
    p = validate_profile(values)
    s = profile_stats(p)
    out = find_solution(p, mu)
    if out.status is FitStatus.CLAMPED_LOW:
        assert mu > s.r / s.m
        assert out.exponent == 0.0
        assert out.achieved_mean == s.r / s.m
    elif out.status is FitStatus.CLAMPED_HIGH:
        assert mu <= s.n / s.m
        assert out.exponent == 1000.0
    else:
        assert s.n / s.m < mu <= s.r / s.m
        assert abs(out.achieved_mean - mu) <= 1e-10


@given(any_values, st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_fit_status_is_the_classified_one(values, mu) -> None:
    p = validate_profile(values)
    try:
        out = find_solution(p, mu)
    except ProfileFitError:
        return
    # S(x) = mu has a root iff n/m < mu <= r/m, counted here from the values.
    v = np.array(values)
    if mu > np.count_nonzero(v > 0.0) / v.size:
        assert out.status is FitStatus.CLAMPED_LOW
    elif mu <= np.count_nonzero(v == 1.0) / v.size:
        assert out.status is FitStatus.CLAMPED_HIGH
    else:
        assert out.status is FitStatus.EXACT


# Profiles of few distinct values, so that values repeat, with both zeros,
# 1, subnormals and a random value; exponents at the edges of pow and random.
kept_power_values = st.lists(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-308, 1e-300, 0.5, 1 - 2**-53, 1.0])
    | st.floats(min_value=0.0, max_value=1.0),
    min_size=1,
    max_size=40,
)
kept_power_calls = st.lists(
    st.tuples(
        st.sampled_from(["mean_power", "apply_exponent"]),
        st.sampled_from([0.0, 5e-324, 0.5, 1.0, 1000.0, math.inf])
        | st.floats(min_value=0.0, max_value=2000.0),
    ),
    min_size=1,
    max_size=12,
)


@given(kept_power_values, kept_power_calls)
def test_kept_powers_match_a_fresh_pow(values, calls) -> None:
    v = np.array(values)
    p = validate_profile(values)
    for name, x in calls:
        if name == "mean_power":
            assert mean_power(p, x) == float(np.sum(v[v > 0.0] ** x) / v.size)
        else:
            expected = np.where(v > 0.0, v ** x, 0.0)
            assert apply_exponent(p, x).values.tobytes() == expected.tobytes()
        kept_x, kept = p.__dict__["_last_powers"]
        assert kept_x == x and not kept.flags.writeable


@st.composite
def repeated_or_distinct_values(draw):
    """Up to 300 values, so that the tails of numpy's vector loops are run:
    draws with repeats from a pool of edge and random values, where the fit
    evaluates S once per distinct value, or the pool itself in random order,
    where it evaluates S once per value."""
    pool = draw(
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 2.5e-308, 1e-300, 0.001, 0.5, 1 - 2**-53, 1.0])
            | st.floats(min_value=0.0, max_value=1.0),
            min_size=1,
            max_size=300,
            unique=True,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.permutation(np.array(pool))
    return rng.choice(np.array(pool), draw(st.integers(1, 300)))


def _bits(*floats) -> bytes:
    return np.array(floats, dtype=np.float64).tobytes()


@settings(deadline=None)
@given(
    repeated_or_distinct_values(),
    st.sampled_from([0.0, 5e-324, 0.5, 1.0, 1000.0]) | st.floats(min_value=0.0, max_value=2000.0),
)
def test_terms_of_distinct_values_match_one_term_per_value(v, x) -> None:
    p = Profile(v)
    pos = v[v > 0.0]
    keys, counts = np.unique(pos.view(np.uint64), return_counts=True)
    per_distinct = keys.size <= fitcore._DISTINCT_SHARE * pos.size
    assert (p._bases[1] is not None) == per_distinct
    # A Newton step's S, S' and S'/S: one exp per base of S(x), each term
    # weighted by the count of positive values it stands for, bit for bit.
    if per_distinct:
        bases, w = keys.view(np.float64), counts.astype(np.float64)
    else:
        bases, w = pos, np.ones(pos.size)
    lb = np.log(bases)
    wl = w * lb
    e = np.exp(x * lb)
    s = float(e.dot(w) / v.size)
    assert _bits(*fitcore._mean_and_slope(p, x)) == _bits(s, float(e.dot(wl) / v.size))
    if s > 0.0:
        e = np.exp(x * lb - math.log(s))
        assert _bits(fitcore._log_slope(p, x, s)) == _bits(float(e.dot(wl) / e.dot(w)))
    # They sum the same same-signed terms as one term per positive value
    # does, in another order and with counts multiplied in, so they lie
    # within 4 eps per term of those sums, plus one subnormal unit per term
    # where the terms underflow.
    def near(got, want):
        tol = 4 * pos.size * sys.float_info.epsilon * abs(want)
        return abs(got - want) <= tol + (pos.size + 1) * math.ulp(0.0)

    lp = np.log(pos)
    e = np.exp(x * lp)
    s_one, slope_one = float(e.sum() / v.size), float(e.dot(lp) / v.size)
    s_step, slope_step = fitcore._mean_and_slope(p, x)
    assert near(s_step, s_one) and near(slope_step, slope_one)
    if s_one > 0.0:
        e = np.exp(x * lp - math.log(s_one))
        assert near(fitcore._log_slope(p, x, s_one), float(e.dot(lp) / e.sum()))
    # The kept powers, gathered, and the fitted values, at x and at inf.
    for y in (x, math.inf):
        assert _bits(mean_power(p, y)) == _bits(float(np.sum(pos**y) / v.size))
        _, kept = p.__dict__["_last_powers"]
        assert p._in_input_order(kept).tobytes() == (pos**y).tobytes()
        assert apply_exponent(p, y).values.tobytes() == np.where(v > 0.0, v**y, 0.0).tobytes()


@given(
    edge_values,
    exponents,
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_cached_arrays_match_the_uncached_references(values, x, mu) -> None:
    v = np.array(values)
    pos = v[v > 0.0]
    p = validate_profile(values)
    assert profile_stats(p) == ProfileStats(
        m=v.size, r=pos.size, n=int(np.count_nonzero(v == 1.0)), mean=float(v.sum() / v.size)
    )
    assert mean_power(p, x) == float(np.sum(pos ** x) / v.size)
    # Bit for bit, -0.0 included: the rule the benchmark's checker applies.
    fitted = apply_exponent(p, x)
    assert fitted.values.tobytes() == np.where(v > 0.0, v ** x, 0.0).tobytes()
    # A refit, after a fit of another Profile, matches a fit from scratch:
    # the cached arrays neither go stale nor leak between Profiles.
    first = find_solution(p, mu)
    find_solution(fitted, mu)
    assert find_solution(p, mu) == first == find_solution(validate_profile(values), mu)


@given(
    tame_values,
    st.one_of(
        # Targets just above the asymptote n/m, where S is flat and the
        # root sits at a large exponent, and targets across the whole band.
        st.floats(min_value=1e-9, max_value=1e-2),
        st.floats(min_value=1e-6, max_value=1.0),
    ),
    # The default, and one that few fits can meet, so that most stop where
    # rounding ends the Newton steps.
    st.sampled_from([1e-10, 1e-300]),
)
@example([0.999], 1e-4, 1e-300)  # root 9206, where ulp(x) = 1.8e-12
def test_exact_fit_lies_in_its_bracket_and_meets_the_residual(
    values, band_fraction, residual_tol
) -> None:
    p = validate_profile(values)
    s = profile_stats(p)
    asymptote, reachable = s.n / s.m, s.r / s.m
    mu = asymptote + band_fraction * (reachable - asymptote)
    assume(0.0 < mu < 1.0)
    assume(asymptote < mu <= reachable)
    out = find_solution(p, mu, FitOptions(residual_tol=residual_tol))
    assert out.status is FitStatus.EXACT
    a, b = out.bracket
    assert a <= out.exponent <= b
    assert abs(mean_power(p, out.exponent) - mu) <= 1e-10


@st.composite
def near_constant_values(draw):
    """Values within a few ulps of one base, some of them replaced by 1 or 0.

    The two closed-form bounds of the bracket then meet, so only its
    rounding slack keeps the target straddled.
    """
    base = draw(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
    size = draw(st.integers(min_value=1, max_value=60))
    offsets = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    values = [min(max(base + k * math.ulp(base), 0.0), 1.0) for k in offsets]
    ones = draw(st.integers(min_value=0, max_value=size))
    zeros = draw(st.integers(min_value=0, max_value=size - ones))
    values[:ones] = [1.0] * ones
    values[ones:ones + zeros] = [0.0] * zeros
    return values


@given(
    near_constant_values(),
    st.one_of(
        # Targets next to the asymptote n/m, and across the whole band.
        st.floats(min_value=1e-12, max_value=1e-2),
        st.floats(min_value=1e-6, max_value=1.0),
    ),
)
def test_near_constant_profile_bracket_straddles_and_fit_meets_the_residual(
    values, band_fraction
) -> None:
    p = validate_profile(values)
    s = profile_stats(p)
    asymptote, reachable = s.n / s.m, s.r / s.m
    mu = asymptote + band_fraction * (reachable - asymptote)
    assume(0.0 < mu < 1.0)
    assume(asymptote < mu <= reachable)
    a, b = find_search_interval(p, mu)
    assert 0.0 <= a <= b
    assert mean_power(p, a) >= mu >= mean_power(p, b)
    out = find_solution(p, mu)
    assert out.status is FitStatus.EXACT
    assert a <= out.exponent <= b
    assert abs(mean_power(p, out.exponent) - mu) <= 1e-10


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
        write_profile(path, None, FittedPair(p, fitted), delimiter=",")
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
        write_profile(path, stamps, FittedPair(p, fitted), delimiter=delimiter)
        for column, want in (("original", p), ("fitted", fitted)):
            layout = CsvLayout(preamble_lines=0, value_column=column, delimiter=delimiter)
            back, back_stamps = read_profile(path, layout)
            np.testing.assert_array_equal(back.values, want.values)
            assert back_stamps == stamps


# Data cells: mostly values in range, some padded with spaces, some the
# csv path must refuse or validation must reject.
read_cells = st.sampled_from(
    ["0.5", "0", "1", "0.125", "0.007", " 0.25", "0.75 ", " 1e-3 ", "1.5", "nan", "x", ""]
)
# A row as the file holds it: whole, with one extra field, short, blank, or
# a line of whitespace, which csv does not skip.
read_rows = st.lists(
    st.tuples(read_cells, st.sampled_from(["whole"] * 6 + ["extra", "short", "blank", "space"])),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    read_rows,
    st.sampled_from([",", ";", "\t", "§"]),
    st.sampled_from([("time", "electricity"), ("electricity", "time"), ("electricity",)]),
    st.booleans(),
    st.sampled_from([8, 64, 16384]),
    st.sampled_from(["\n", "\r\n"]),
)
def test_read_fast_path_agrees_with_the_csv_path(
    rows, delimiter, header, final_newline, block_chars, newline
) -> None:
    # Small read blocks put block edges between rows of different widths.
    import tempfile
    from pathlib import Path
    from unittest import mock

    from profilefit import profile_io
    from profilefit.profile_io import CsvLayout, CsvParseError, read_profile

    lines = ["meta", delimiter.join(header)]
    for i, (cell, kind) in enumerate(rows):
        fields = [cell if name == "electricity" else f"t {i}" for name in header]
        if kind == "extra":
            fields.append("more")
        elif kind == "short":
            fields = fields[:1] if len(fields) > 1 else []
        lines.append({"blank": "", "space": " \t"}.get(kind, delimiter.join(fields)))
    text = newline.join(lines) + (newline if final_newline else "")

    def outcome(path):
        try:
            profile, stamps = read_profile(path, CsvLayout(preamble_lines=1, delimiter=delimiter))
        except ProfileFitError as exc:
            line = exc.line_number if isinstance(exc, CsvParseError) else getattr(exc, "line", None)
            return type(exc), line
        return profile.values.view(np.uint64).tolist(), stamps

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(profile_io, "_READ_BLOCK_CHARS", block_chars):
            got = outcome(path)
        with mock.patch.object(profile_io, "_parse_blocks", lambda fh, layout, path: None):
            want = outcome(path)
    assert got == want


# Values a column may repeat: both signed zeros, the smallest subnormal, 1.0
# and the float below it, and values at 3 decimals, as in a
# renewables.ninja export.
pooled_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 1 - 2**-53]),
    st.integers(0, 1000).map(lambda k: k / 1000),
)


# Long columns with every value distinct.
distinct_values = st.tuples(st.integers(1, 9000), st.integers(0, 2**32 - 1)).map(
    lambda a: (np.random.default_rng(a[1]).permutation(a[0]) / a[0]).tolist()
)


@settings(deadline=None)
@given(
    st.one_of(
        st.lists(pooled_values, min_size=1, max_size=300),
        distinct_values,
    )
)
def test_column_text_is_repr_of_each_value(values) -> None:
    v = np.array(values)
    p = Profile(v)
    # The writers take each row's text through the value table's inverse.
    # A pair's first table comes from np.unique, its second from the first.
    for (_, inverse, _), text in FittedPair(p, p)._tables:
        assert text[inverse].tolist() == list(map(repr, v.tolist()))


def _assert_same_table(got, want) -> None:
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


@settings(deadline=None)
@given(
    st.one_of(st.lists(pooled_values, min_size=1, max_size=300), distinct_values),
    st.sampled_from([[], [-0.0], [-0.0, 0.0], [0.0, -0.0]]),
    st.sampled_from([0.0, 5e-324, 0.3, 1.0, 7.0, 1000.0, math.inf]),
)
@example([0.5, 0.25, 1.0], [], 1.0)  # distinct images in order: no sort
@example([5e-324, 1e-310, 0.5], [], 1.0)  # subnormals keep their own images
@example([5e-324, 1e-310, 0.5], [], 7.0)  # ... and underflow to one 0.0 here
@example([0.5], [0.0, -0.0], 1.0)  # both zeros map to 0.0
@example([0.5], [-0.0], 1.0)  # -0.0 is the last key, its image 0.0 the first
@example([0.25, 0.5], [], 5e-324)  # every image is 1.0
def test_fitted_table_comes_from_the_originals(values, zeros, x) -> None:
    v = np.array(values + zeros)
    p = Profile(v)
    fitted = apply_exponent(p, x)
    want_values = np.where(v > 0.0, v**x, 0.0)
    np.testing.assert_array_equal(fitted.values.view(np.uint64), want_values.view(np.uint64))
    unique = functools.partial(np.unique, return_inverse=True, return_counts=True)
    want = unique(fitted.values.view(np.uint64))
    table = unique(v.view(np.uint64))
    derived = _image_table(table, fitted.values)
    assert derived is not None  # the original's partition was used
    _assert_same_table(derived, want)
    # The sort is skipped, and the original's inverse reused, exactly where
    # np.unique's keys are the images of the distinct values in their order.
    image = fitted.values.view(np.uint64)[np.unique(v.view(np.uint64), return_index=True)[1]]
    assert (derived[1] is table[1]) == np.array_equal(want[0], image)
    (keys, inverse, counts), _ = FittedPair(p, fitted)._tables[1]
    _assert_same_table((keys.view(np.uint64), inverse, counts), want)
