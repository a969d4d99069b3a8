"""Numerical core for fitting an availability profile to a target capacity factor.

A profile is a series of per-unit values p_i in [0, 1]. Raising every
positive value to a common exponent x >= 0 moves the profile mean

    S(x) = (1/m) * sum(p_i ** x  for p_i > 0)

monotonically from r/m at x = 0 (r = count of nonzero values) down to
n/m as x grows (n = count of values equal to 1). Fitting a target mean
mu therefore reduces to a scalar root solve of S(x) = mu: a closed-form
bracket (:func:`find_search_interval`), so no root is out of reach, then
Newton steps on log S(x) = log mu from the bracket's left end
(:func:`bisect_root`, a historical name: it no longer bisects). log S is
convex and decreasing, so those steps approach the root from one side and
need no fallback; the solve stops at the residual tolerance, or where
rounding ends their progress. Targets outside the reachable band
(n/m, r/m] are clamped to x = 0 or to a fixed exponent of 1000, and
:func:`find_solution` records which case applied as a :class:`FitStatus`.

The fit's operations read the profile's value table (one ``np.unique`` of
its values, which the CSV writers reuse), the mask of positive values, the
bases of S(x), their logs and weights and the profile's :class:`ProfileStats`
from the :class:`Profile`, which builds each on first use and keeps it, so a
refit of the same profile rebuilds none of them. Where few of the positive
values are distinct, as in a series rounded to 3 decimals, the bases are the
distinct positive values, else every positive value, and each exp and pow of
a fit runs once per base. A Newton step weights the term of each base by the
count of positive values it stands for, so its S and S' may differ from one
term per value in their last bits; they only steer the step. A root is
accepted by :func:`mean_power`, which gathers its powers to input order and
sums them there, so the S(x) a fit reports and every fitted value are the
same to the bit as one term per value would give. The Profile also keeps
the powers ``p ** x`` of the last exponent that :func:`mean_power` or
:func:`apply_exponent` took, so :func:`apply_exponent` at the exponent a fit
returned reuses the powers of the fit's last S(x), and a fit plus its
application pays for one pow.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmptyProfileError",
    "FitOptions",
    "FitOutcome",
    "FitStatus",
    "MaxIterationsExceededError",
    "NonFiniteValueError",
    "Profile",
    "ProfileFitError",
    "ProfileStats",
    "ProfileValidationError",
    "TargetOutOfRangeError",
    "ValueOutOfRangeError",
    "apply_exponent",
    "bisect_root",
    "find_search_interval",
    "find_solution",
    "mean_power",
    "profile_stats",
    "validate_profile",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ProfileFitError(Exception):
    """Base class for every error raised by this package."""


class ProfileValidationError(ProfileFitError):
    """A candidate profile violates the per-unit value contract."""


class EmptyProfileError(ProfileValidationError):
    def __init__(self, message: str = "profile contains no values"):
        super().__init__(message)


class NonFiniteValueError(ProfileValidationError):
    """A profile value is NaN or infinite."""

    def __init__(self, index: int, line: int | None = None):
        self.index = index
        self.line = line
        where = f"line {line}" if line is not None else f"index {index}"
        super().__init__(f"non-finite profile value at {where}")


class ValueOutOfRangeError(ProfileValidationError):
    """A profile value lies outside [0, 1]."""

    def __init__(self, index: int, value: float, line: int | None = None):
        self.index = index
        self.value = value
        self.line = line
        where = f"line {line}" if line is not None else f"index {index}"
        super().__init__(f"profile value {value!r} at {where} is outside [0, 1]")


class TargetOutOfRangeError(ProfileFitError):
    """A target capacity factor is not strictly between 0 and 1."""

    def __init__(self, value: float, path: str | None = None):
        self.value = value
        self.path = path
        origin = f" for {path}" if path else ""
        super().__init__(f"target capacity factor {value!r}{origin} must lie in (0, 1)")


class MaxIterationsExceededError(ProfileFitError):
    def __init__(self, max_iter: int):
        self.max_iter = max_iter
        super().__init__(f"root solve did not converge within {max_iter} iterations")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

# The bases of S(x) are the distinct positive values when there are at most
# this many distinct positive values per positive value; otherwise every
# positive value. A Newton step takes one exp per base and gathers nothing
# either way. mean_power and apply_exponent pow once per base, and on the
# distinct side gather the powers to input order, where the other side
# scatters them through the mask. With numpy 2.4 and 8760 values on an
# AVX-512 Xeon, a fit plus apply_exponent per target on the distinct side
# took, against the per-value side, 0.37x at 1% distinct, 0.54x at 30%,
# 0.70x at 50% and 0.97x at 100% for targets in the band, and 0.36x, 0.51x,
# 0.67x and 0.90x for targets across (0, 1) on a profile with zeros and
# ones, whose clamped fits pow at exponent 1000. So the distinct side is no
# slower at any share measured. The share is kept, since the last bits of
# every full-precision fit's steps depend on it, until a benchmark of
# full-precision profiles decides whether the per-value side pays.
_DISTINCT_SHARE = 1 / 3


@dataclass(frozen=True, eq=False)
class Profile:
    """A validated per-unit availability series.

    Holds a read-only, non-empty, 1-D float64 array with every value in
    [0, 1]. :func:`validate_profile` builds one from any sequence of
    numbers. The array is not copied, only made read-only, and its values
    must not change once the Profile is built: the fit reuses arrays
    derived from them.

    Refuses, in this order, anything but a float64 array (a list, float32
    or big-endian float64 too) with TypeError, one that is not 1-D with
    ValueError, and an empty one with :class:`EmptyProfileError`. Then the
    first value outside [0, 1], in input order, raises
    :class:`NonFiniteValueError` if it is NaN or infinite, else
    :class:`ValueOutOfRangeError`.

    The fit's derived data are built on first use and kept, read-only, for
    the Profile's lifetime; they are not fields. One is the value table
    ``(distinct, inverse, counts)`` of one ``np.unique`` over the values'
    bits, 8 bytes per value plus 16 per distinct value, which the CSV
    writers of :class:`~profilefit.profile_io.FittedPair` reuse. The others
    are the mask of positive values (1 byte per value); the bases of S(x),
    which are the distinct positive values where these repeat (see
    :data:`_DISTINCT_SHARE`) and else every positive value; their logs,
    their weights (the count of positive values each base stands for, as
    float64), the weights times the logs (none more where every weight is
    1) and the powers ``p ** x`` of the last exponent taken, 8 bytes per
    base each; on the distinct side, the index that gathers one power per
    base to one per positive value in input order (8 bytes per positive
    value); the :class:`ProfileStats`; and three numbers for the bracket.
    That is at most 57 bytes per value, about 500 KB for an annual hourly
    profile whose values are all positive and distinct, and 150-195 KB for
    one at 3 decimals. Only the kept powers change after they are built:
    they are replaced, never written to, by a call at another exponent, so
    threads may share a Profile.
    """

    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.values, np.ndarray) or self.values.dtype != np.float64:
            got = getattr(self.values, "dtype", type(self.values).__name__)
            raise TypeError(f"Profile values must be a float64 array, got {got}")
        if self.values.ndim != 1:
            raise ValueError(f"expected a 1-D sequence of values, got shape {self.values.shape}")
        if self.values.size == 0:
            raise EmptyProfileError()
        # min and max are NaN if a value is, and so fail; -0.0 >= 0.0 holds.
        if not (self.values.min() >= 0.0 and self.values.max() <= 1.0):
            ok = (self.values >= 0.0) & (self.values <= 1.0)  # False for NaN and +-inf too
            idx = int(np.argmin(ok))
            value = float(self.values[idx])
            if not math.isfinite(value):
                raise NonFiniteValueError(idx)
            raise ValueOutOfRangeError(idx, value)
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.size

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(distinct, inverse, counts)``: each distinct bit pattern of the
        values once, as float64 in uint64 order (``0.0`` first, then the
        positive values ascending, then ``-0.0``), with ``values ==
        distinct[inverse]`` bit for bit and each pattern's count."""
        keys, inverse, counts = np.unique(
            self.values.view(np.uint64), return_inverse=True, return_counts=True
        )
        table = (keys.view(np.float64), inverse, counts)
        for array in table:
            array.setflags(write=False)
        return table

    @functools.cached_property
    def _mask(self) -> np.ndarray:
        """``values > 0.0``: where the terms of S(x) sit in :attr:`values`."""
        mask = self.values > 0.0
        mask.setflags(write=False)
        return mask

    @functools.cached_property
    def _bases(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The bases of S(x) and the index that gathers one term per base to
        one per positive value, in input order: the distinct positive values
        and that index where they are few enough (:data:`_DISTINCT_SHARE`),
        else the positive values themselves in input order and None."""
        distinct, inverse, counts = self._table
        positive = distinct > 0.0
        bases = distinct[positive]
        if bases.size > _DISTINCT_SHARE * counts[positive].sum():
            bases, index = self.values[self._mask], None
        else:
            # The positive keys are contiguous, from the first one on.
            index = inverse[self._mask] - np.argmax(positive)
            index.setflags(write=False)
        bases.setflags(write=False)
        return bases, index

    def _in_input_order(self, terms: np.ndarray) -> np.ndarray:
        """``terms``, one per base of S(x), as one per positive value in input order."""
        index = self._bases[1]
        return terms if index is None else terms.take(index)

    @functools.cached_property
    def _log_bases(self) -> np.ndarray:
        """``np.log`` of the bases of S(x); 0 exactly where a base is 1."""
        lb = np.log(self._bases[0])
        lb.setflags(write=False)
        return lb

    @functools.cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The count of positive values each base of S(x) stands for, as
        float64 (its table count on the distinct side, else 1), and that
        count times the base's log: the weights of a Newton step's S and S'."""
        distinct, _, counts = self._table
        if self._bases[1] is None:
            w, wl = np.ones(self._bases[0].size), self._log_bases  # 1 * log b is log b
        else:
            w = counts[distinct > 0.0].astype(np.float64)
            wl = w * self._log_bases
            wl.setflags(write=False)
        w.setflags(write=False)
        return w, wl

    @functools.cached_property
    def _inner_logs(self) -> tuple[int, float, float]:
        """k, the count of values in (0, 1), and the mean and the largest of
        their logs (NaN when k is 0): the data of :func:`find_search_interval`.
        The mean runs over the logs in input order, which are not kept."""
        lp = self._in_input_order(self._log_bases)
        inner = lp[lp < 0.0]  # each 1 has log 0
        if inner.size == 0:
            return (0, math.nan, math.nan)
        return (inner.size, float(inner.mean()), float(inner.max()))

    @functools.cached_property
    def _stats(self) -> ProfileStats:
        """The counts and the mean that :func:`profile_stats` returns."""
        v = self.values
        m = int(v.size)
        r = int(np.count_nonzero(self._mask))
        n = int(np.count_nonzero(v == 1.0))
        return ProfileStats(m=m, r=r, n=n, mean=float(v.sum() / m))

    def _powers(self, x: float) -> np.ndarray:
        """``bases ** x`` for a float ``x``, one per base of S(x), kept,
        read-only, until a call at another exponent replaces it. The key and
        the array are stored as one tuple, so a thread reads a matching pair
        or computes its own."""
        kept = self.__dict__.get("_last_powers")
        if kept is not None and kept[0] == x:
            return kept[1]
        powers = self._bases[0] ** x
        powers.setflags(write=False)
        self.__dict__["_last_powers"] = (x, powers)
        return powers


@dataclass(frozen=True)
class ProfileStats:
    """Counts that bound the reachable mean band (n/m, r/m]: S(0) = r/m, and
    S(x) falls towards n/m as x grows."""

    m: int      # total number of values
    r: int      # values strictly greater than 0
    n: int      # values exactly equal to 1
    mean: float  # arithmetic mean of all values, the current capacity factor


@dataclass(frozen=True)
class FitOptions:
    """The residual tolerance of the root solve; ValueError unless a real
    number, not a bool, that is positive and finite."""

    residual_tol: float = 1e-10

    def __post_init__(self):
        tol = self.residual_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValueError(f"residual_tol must be a real number, got {tol!r}")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"residual_tol must be positive and finite, got {tol!r}")


class FitStatus(enum.Enum):
    EXACT = "exact"
    CLAMPED_LOW = "clamped_low"    # exponent forced to 0
    CLAMPED_HIGH = "clamped_high"  # exponent forced to 1000


@dataclass(frozen=True)
class FitOutcome:
    """Result of a fit: the exponent, what it achieves, and how it was found."""

    exponent: float
    achieved_mean: float
    status: FitStatus
    iterations: int
    stats: ProfileStats  # of the profile that was fitted
    bracket: tuple[float, float] | None = None  # of an EXACT fit only


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def validate_profile(values) -> Profile:
    """Wrap a sequence of numbers as a :class:`Profile` of its float64 copy.

    Input order is preserved. The profile holds its own copy, so a
    caller's array is neither aliased nor made read-only. :class:`Profile`
    refuses a sequence that is not 1-D, is empty, or holds a value outside
    [0, 1].
    """
    return Profile(np.array(values, dtype=np.float64))


def profile_stats(p: Profile) -> ProfileStats:
    """Count total, nonzero and exactly-one values, and the current mean,
    once per Profile, which keeps them."""
    return p._stats


def mean_power(p: Profile, x: float) -> float:
    """Transformed mean S(x) = (1/m) * sum of p_i ** x over nonzero values.

    Division is by the total count m, zeros included, so the result lies
    in [0, r/m]. Underflow of tiny bases at large exponents rounds to 0,
    which is the correct limit. ``x`` is taken as ``float(x)``, and the
    powers are kept on ``p`` for :func:`apply_exponent` at the same exponent.
    """
    return float(np.sum(p._in_input_order(p._powers(float(x)))) / p.values.size)


# Each bracket end moves out by this many units of b + mu / ((mu - n/m) * |l_max|).
# Rounding q, the logs and S (a sum of p ** x) moves the computed ends, or
# the root as computed, by a few eps of those units. Random, near-constant
# and annual-like profiles, with targets up to 1e-16 of the band's edges,
# needed at most 8 eps for S(a) >= mu >= S(b) to hold as computed.
_BRACKET_SLACK = 64.0 * math.ulp(1.0)
_MAX_ITER = 200  # the step cap of bisect_root
_MIN_NORMAL = sys.float_info.min  # an S' below it has lost bits to underflow
_CLAMPED_HIGH_EXPONENT = 1000.0  # the exponent of a CLAMPED_HIGH fit


def find_search_interval(p: Profile, mu: float) -> tuple[float, float]:
    """Bracket the root of S(x) = mu in closed form, without evaluating S.

    With k values in (0, 1), l_mean and l_max the mean and the largest of
    their logs and q = (mu - n/m) * m / k, the root solves
    mean(exp(x * log p)) = q over those k values. Jensen's inequality, and
    p <= exp(l_max), put it in [log q / l_mean, log q / l_max], however
    large it is. Both ends move out by a rounding slack, so S(a) >= mu >= S(b)
    holds for S computed as ``p ** x`` also where the bounds meet, as for a
    constant profile. mu = r/m gives (0.0, 0.0), and a target outside the
    band (n/m, r/m] raises ValueError.
    """
    m, r = p.values.size, p._stats.r
    k, l_mean, l_max = p._inner_logs
    asymptote, reachable = (r - k) / m, r / m
    if not asymptote < mu <= reachable:
        raise ValueError(f"target mean {mu!r} is outside the band ({asymptote!r}, {reachable!r}]")
    if mu == reachable:
        return (0.0, 0.0)
    excess = mu - asymptote
    log_q = min(math.log(excess * m / k), 0.0)
    b = log_q / l_max
    slack = _BRACKET_SLACK * (b + mu / excess / -l_max)  # no underflow for a subnormal mu
    return (max(0.0, log_q / l_mean - slack), b + slack)


def _mean_and_slope(p: Profile, x: float) -> tuple[float, float]:
    """S(x) and S'(x) of a Newton step, from one ``e = exp(x * log p)`` over
    the bases p of S(x): the dots of ``e`` with each base's count and with
    count times log, over m. Their last bits may differ from :func:`mean_power`'s."""
    e = np.exp(x * p._log_bases)
    w, wl = p._weights
    m = p.values.size
    return float(e.dot(w) / m), float(e.dot(wl) / m)


def _log_slope(p: Profile, x: float, s: float) -> float:
    """S'(x) / S(x) from ``exp(x * log p - log S)``, whose weighted terms sum to about m.

    Where S is near the smallest normal float or below it, S'(x) is a
    subnormal of a few bits or underflows to 0, but this keeps full
    precision. It is 0 where S is flat.
    """
    e = np.exp(x * p._log_bases - math.log(s))
    w, wl = p._weights
    return float(e.dot(wl) / e.dot(w))


def bisect_root(
    p: Profile,
    mu: float,
    a: float,
    b: float,
    opts: FitOptions | None = None,
) -> tuple[float, int, float]:
    """Solve S(x) = mu on a bracket [a, b] with S(a) >= mu >= S(b).

    Returns ``(x, iterations, S(x))``, with S(x) as :func:`mean_power`
    computes it. The name is historical: the solve takes only Newton steps
    on log S(x) = log mu, ``x - log(S / mu) * S / S'``, from ``a``, each
    reading S and S' from one ``exp(x * log p)`` over the bases p of S(x),
    each term weighted by the count of positive values its base stands for;
    where S' is below the smallest normal float, S'/S is read again at S's
    own scale, from ``exp(x * log p - log S)``, so that no bits are lost.
    Those sums only steer the steps: their last bits may differ from
    :func:`mean_power`'s, which alone accepts a root. log S is convex and
    decreasing, so a step from where S > mu never passes the root, and it
    lowers S by any factor, where a step on S itself lowers it by at most a
    factor e. Where S is flat and above mu the step goes to ``b``, which is
    read only when a step reaches it: the step stops there unless S(b)
    exceeds mu by more than residual_tol / 2. That, an S(a) below mu by
    more than residual_tol / 2, a ``b`` below ``a`` or NaN, and a mu that
    is not positive raise ValueError.

    Once the step's residual is within residual_tol / 2 (at ``a``, after
    zero iterations), the step, which lands within rounding of the root, is
    returned if |S(x) - mu| <= residual_tol holds there for
    :func:`mean_power`. A step that does not move x right shows that
    rounding has set in; from then on each step must be shorter than the last.
    When a step does not move x or no longer shrinks, rounding has the last
    word: of x, the step, the point before x and the floats either side of
    x, the one whose :func:`mean_power` is closest to mu is returned. It
    raises :class:`MaxIterationsExceededError` after 200 steps.
    """
    if opts is None:
        opts = FitOptions()
    if not a <= b:  # also catches nan
        raise ValueError(f"invalid bracket [{a!r}, {b!r}]: need a <= b")
    if not mu > 0.0:  # also catches nan; log S has no root at mu <= 0
        raise ValueError(f"target mean must be positive, got {mu!r}")
    tol = opts.residual_tol

    def no_straddle() -> ValueError:
        return ValueError(f"bracket [{a!r}, {b!r}] does not straddle the target mean {mu!r}")

    prev = x = float(a)
    turned = False
    s, slope = _mean_and_slope(p, x)
    if s - mu < -0.5 * tol:
        raise no_straddle()
    for iteration in range(_MAX_ITER + 1):
        if s > 0.0 and abs(slope) >= _MIN_NORMAL:
            # log1p of the residual, which s - mu gives exactly near the
            # root, where log(s) - log(mu) would carry |log mu| rounding units.
            step = x - math.log1p((s - mu) / mu) * s / slope
        elif s > 0.0 and (log_slope := _log_slope(p, x, s)) < 0.0:
            # S' is subnormal or 0, but S'/S, read at S's own scale, is not.
            step = x - math.log1p((s - mu) / mu) / log_slope
        else:  # S underflowed to 0, or is flat
            step = math.inf if s > mu else x
        if step >= b:  # >=, so that a step to b = inf is checked too
            if mean_power(p, b) - mu > 0.5 * tol:
                raise no_straddle()
            step = b
        if abs(s - mu) <= 0.5 * tol:
            root = max(step, a)
            achieved = mean_power(p, root)
            if abs(achieved - mu) <= tol:
                return (root, iteration, achieved)
        turned = turned or not step > x  # also catches nan
        if step == x or turned and not abs(step - x) < abs(x - prev):
            near = (x, max(step, a), prev, math.nextafter(x, a), math.nextafter(x, b))
            # One S per distinct candidate; a tie goes to the first, as in min.
            means = {t: mean_power(p, t) for t in dict.fromkeys(near)}
            root = min(means, key=lambda t: abs(means[t] - mu))
            return (root, iteration, means[root])
        prev, x = x, max(step, a)
        s, slope = _mean_and_slope(p, x)
    raise MaxIterationsExceededError(_MAX_ITER)


def find_solution(p, mu: float, opts: FitOptions | None = None) -> FitOutcome:
    """Find the exponent whose transformed mean matches the target ``mu``.

    ``p`` may be a :class:`Profile` or any raw sequence, which is validated
    first; ``mu`` must lie in (0, 1), else :class:`TargetOutOfRangeError`.
    S(x) = mu has a root iff n/m < mu <= r/m. Targets in that band are
    solved exactly (closed-form bracket + Newton from its left end),
    whatever the size of the root; a target above r/m clamps to exponent 0
    (``CLAMPED_LOW``), a target at or below n/m to a fixed exponent of 1000
    (``CLAMPED_HIGH``). The outcome carries the profile's
    :class:`ProfileStats`.
    """
    if not isinstance(p, Profile):
        p = validate_profile(p)
    mu = float(mu)
    if not 0.0 < mu < 1.0:
        raise TargetOutOfRangeError(mu)

    stats = profile_stats(p)
    if mu > stats.r / stats.m:
        status, x = FitStatus.CLAMPED_LOW, 0.0
    elif mu <= stats.n / stats.m:
        status, x = FitStatus.CLAMPED_HIGH, _CLAMPED_HIGH_EXPONENT
    else:
        a, b = find_search_interval(p, mu)
        x, iterations, achieved = bisect_root(p, mu, a, b, opts)
        return FitOutcome(x, achieved, FitStatus.EXACT, iterations, stats, bracket=(a, b))
    return FitOutcome(x, mean_power(p, x), status, iterations=0, stats=stats)


def apply_exponent(p, x: float) -> Profile:
    """Raise every value to the exponent, keeping zeros at zero.

    Each positive value p becomes p ** x. A zero stays 0 for every x,
    x = 0 included (not 0 ** 0 = 1), so the map is continuous in x and the
    mean of the result is S(x). Order and length are preserved and the
    result is again a valid profile: values stay within [0, 1] for any
    x >= 0, ``inf`` included. The exponent is taken as ``float(x)``; a bool,
    a value that is not a real number, and a negative or NaN exponent raise
    ValueError. The powers are those of the last :func:`mean_power` at the
    same exponent, when it was the last exponent ``p`` took.
    """
    if not isinstance(p, Profile):
        p = validate_profile(p)
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"exponent must be a real number, got {x!r}")
    x = float(x)
    if not x >= 0.0:  # also catches nan
        raise ValueError(f"exponent must be nonnegative, got {x!r}")
    powers = p._powers(x)
    if p._bases[1] is None:
        out = np.zeros_like(p.values)
        out[p._mask] = powers
    else:  # one power per distinct value, 0 for both zeros, gathered
        distinct, inverse, _ = p._table
        image = np.zeros_like(distinct)
        image[distinct > 0.0] = powers
        out = image.take(inverse)
    return Profile(out)
