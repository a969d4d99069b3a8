"""Seeded input generator for the profilefit benchmark.

Everything here depends only on numpy and the seed, never on profilefit, so
the program under test receives nothing but the files (or arrays) made here.
Profiles imitate renewables.ninja hourly exports: three metadata lines, a
``time,local_time,electricity`` header and per-unit values at 3 decimals.

Three profile kinds cover the shapes the solver meets in practice:

* ``solar``: zero at night (about half the hours), no value reaches 1;
* ``wind``: autocorrelated Rayleigh wind speed through a power curve, so
  some hours sit exactly at rated output (1.000) and some at 0;
* ``baseload``: values just below 1 with a maintenance outage at 0, so the
  root sits at large exponents and the doubling bracket runs deep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

KINDS = ("solar", "wind", "baseload")
HOURS_PER_YEAR = 8760
HOURS_PER_WEEK = 168
_EPOCH = "2019-01-01T00:00"


@dataclass
class ProfileInput:
    """One generated profile: the values its file holds, its target, where it lives."""

    name: str
    kind: str
    values: np.ndarray          # float64, exactly the numbers written
    timestamps: list[str]       # the ``time`` column, verbatim
    target: float
    refusal: str | None = None  # why the program must refuse the file, if it must
    path: str = ""
    size_bytes: int = 0


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """A generator that depends on the seed and the workload name only."""
    return np.random.default_rng([seed, *workload.encode()])


def _format3(x: np.ndarray) -> list[str]:
    return [f"{v:.3f}" for v in np.clip(x, 0.0, 1.0)]


def _solar(rng: np.random.Generator, hours: np.ndarray) -> np.ndarray:
    day = hours // 24
    hour = (hours % 24).astype(np.float64) + rng.uniform(-1.0, 1.0)
    daylength = 12.0 + 3.5 * np.sin(2 * np.pi * (day - 80) / 365.0)
    sunrise = 12.5 - daylength / 2
    phase = (hour - sunrise) / daylength
    shape = np.where((phase > 0) & (phase < 1), np.sin(np.pi * np.clip(phase, 0, 1)), 0.0)
    season = 0.75 + 0.1 * np.sin(2 * np.pi * (day - 80) / 365.0)
    ndays = int(day.max() - day.min()) + 1
    daily_clear = rng.beta(4.0, 1.6, size=ndays)[day - day.min()]
    hourly = np.clip(1.0 + rng.normal(0.0, 0.05, size=hours.size), 0.0, None)
    return shape * season * daily_clear * hourly


def _ar1(rng: np.random.Generator, size: int, phi: float) -> np.ndarray:
    eps = rng.normal(0.0, np.sqrt(1 - phi * phi), size=size)
    out = np.empty(size)
    out[0] = rng.normal()
    for i in range(1, size):
        out[i] = phi * out[i - 1] + eps[i]
    return out


def _wind(rng: np.random.Generator, hours: np.ndarray) -> np.ndarray:
    scale = 6.25  # Rayleigh scale, m/s
    speed = scale * np.hypot(_ar1(rng, hours.size, 0.97), _ar1(rng, hours.size, 0.97))
    cut_in, rated, cut_out = 3.0, 12.0, 25.0
    ramp = (speed**3 - cut_in**3) / (rated**3 - cut_in**3)
    power = np.where(speed < cut_in, 0.0, np.where(speed < rated, ramp, 1.0))
    return np.where(speed >= cut_out, 0.0, power)


def _baseload(rng: np.random.Generator, hours: np.ndarray) -> np.ndarray:
    values = 1.0 - np.abs(rng.normal(0.0, 0.01, size=hours.size))
    if hours.size >= HOURS_PER_YEAR:
        length = 336  # a two-week outage
        start = int(rng.integers(0, hours.size - length))
        values[start:start + length] = 0.0
    return values


_GENERATORS = {"solar": _solar, "wind": _wind, "baseload": _baseload}


def make_values(rng: np.random.Generator, kind: str, start_hour: int, length: int):
    """Values (as parsed back from 3-decimal text) and their text form."""
    hours = np.arange(start_hour, start_hour + length)
    text = _format3(_GENERATORS[kind](rng, hours))
    return np.array([float(s) for s in text], dtype=np.float64), text


def _timestamps(start_hour: int, length: int, utc_offset: int) -> tuple[list[str], list[str]]:
    hours = np.arange(start_hour, start_hour + length).astype("timedelta64[h]")
    utc = np.datetime64(_EPOCH, "m") + hours
    as_text = lambda t: [s.replace("T", " ") for s in np.datetime_as_string(t, unit="m").tolist()]  # noqa: E731
    return as_text(utc), as_text(utc + np.timedelta64(utc_offset, "h"))


def render_csv(kind: str, times: list[str], local: list[str], cells: list[str]) -> str:
    head = [
        f"# renewables.ninja-style {kind} profile (synthetic)",
        "# Units: time in UTC, local_time in local time, electricity in per unit",
        "# Generated for benchmarking; values at 3 decimals",
        "time,local_time,electricity",
    ]
    rows = [f"{t},{lt},{c}" for t, lt, c in zip(times, local, cells)]
    return "\n".join(head + rows) + "\n"


def make_profile(
    rng: np.random.Generator, name: str, kind: str, length: int, start_hour: int = 0
) -> tuple[ProfileInput, str]:
    """Generate one profile and the CSV text that encodes it."""
    values, cells = make_values(rng, kind, start_hour, length)
    times, local = _timestamps(start_hour, length, int(rng.integers(-8, 9)))
    prof = ProfileInput(name=name, kind=kind, values=values, timestamps=times, target=0.0)
    return prof, render_csv(kind, times, local, cells)


def corrupt(rng: np.random.Generator, prof: ProfileInput, text: str, how: str) -> str:
    """Break one data row so the program must refuse the whole file."""
    lines = text.split("\n")
    row = 4 + int(rng.integers(0, len(prof.values)))
    t, lt, _ = lines[row].split(",")
    bad = {"above_one": "1.500", "unparseable": "n/a"}[how]
    lines[row] = f"{t},{lt},{bad}"
    prof.refusal = how
    return "\n".join(lines)


def write_inputs(directory: str, profiles_and_text) -> list[ProfileInput]:
    os.makedirs(directory, exist_ok=True)
    out = []
    for prof, text in profiles_and_text:
        prof.path = os.path.join(directory, f"{prof.name}.csv")
        with open(prof.path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        prof.size_bytes = len(text.encode("utf-8"))
        out.append(prof)
    return out


def counts(values: np.ndarray) -> tuple[int, int, int]:
    """m, r, n: all values, values above 0, values exactly 1."""
    return int(values.size), int(np.count_nonzero(values > 0.0)), int(np.count_nonzero(values == 1.0))


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

ANNUAL_FILES = 24
SMALL_FILES = 600
SMALL_REFUSED = {"above_one": 3, "unparseable": 3}


def annual_batch(seed: int, directory: str) -> tuple[list[ProfileInput], float]:
    """24 annual hourly files (8 of each kind) and one shared target.

    The target is a typical planning capacity factor, drawn from [0.25, 0.45].
    """
    rng = rng_for(seed, "batch_8760_plot")
    target = float(rng.uniform(0.25, 0.45))
    made = []
    for i in range(ANNUAL_FILES):
        kind = KINDS[i % 3]
        prof, text = make_profile(rng, f"y{i:03d}_{kind}", kind, HOURS_PER_YEAR)
        prof.target = target
        made.append((prof, text))
    return write_inputs(directory, made), target


def stratified(rng: np.random.Generator, k: int) -> np.ndarray:
    """``k`` draws from [0, 1), one from each of ``k`` equal strata, in random order."""
    return (rng.permutation(k) + rng.random(k)) / k


def small_batch(seed: int, directory: str, manifest_path: str) -> list[ProfileInput]:
    """600 weekly files, 200 of each kind, with per-file targets in a manifest.

    Each kind's files get one stratified draw ``u`` each, which picks both the
    status the target asks for and its place in that status's band:
    u < 0.25 asks for ``clamped_low`` (a target above r/m), u < 0.40 for
    ``clamped_high`` (at or below n/m), the rest for ``exact``, spread
    evenly over the whole feasible band (n/m, r/m]. A week that has no room
    for a clamped target (r/m = 1, or no 1.000 value) gets an exact one.
    No target is left out because the program fails on it today. Six files
    carry a value above 1 or an unparseable cell and must be refused.
    """
    rng = rng_for(seed, "many_small_files")
    bad = [how for how, k in SMALL_REFUSED.items() for _ in range(k)]
    bad_at = dict(zip(rng.choice(SMALL_FILES, size=len(bad), replace=False).tolist(), bad))
    kinds = rng.permutation(np.arange(SMALL_FILES) % len(KINDS))
    u = np.empty(SMALL_FILES)
    for k in range(len(KINDS)):
        u[kinds == k] = stratified(rng, int(np.count_nonzero(kinds == k)))
    made = []
    for i in range(SMALL_FILES):
        kind = KINDS[int(kinds[i])]
        week = int(rng.integers(0, 52))
        prof, text = make_profile(rng, f"w{i:04d}_{kind}", kind, HOURS_PER_WEEK, week * HOURS_PER_WEEK)
        prof.target = _small_target(prof.values, float(u[i]))
        if i in bad_at:
            text = corrupt(rng, prof, text, bad_at[i])
        made.append((prof, text))
    profiles = write_inputs(directory, made)
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("path,target\n")
        for prof in profiles:
            fh.write(f"{prof.path},{prof.target!r}\n")
    return profiles


def _small_target(values: np.ndarray, u: float) -> float:
    m, r, n = counts(values)
    hi, lo = r / m, n / m
    if u < 0.25:
        ask, v = "clamped_low", u / 0.25
    elif u < 0.40:
        ask, v = "clamped_high", (u - 0.25) / 0.15
    else:
        ask, v = "exact", (u - 0.40) / 0.60
    if ask == "clamped_low" and hi < 0.999:
        return hi + 1e-3 + (1.0 - hi - 1e-3) * v
    if ask == "clamped_high" and lo > 0.0:
        return lo * (0.2 + 0.8 * v)
    return hi - (hi - lo) * v  # in (lo, hi]


def sweep_profiles(seed: int) -> list[tuple[str, np.ndarray]]:
    """One annual profile of each kind, as in-memory arrays."""
    rng = rng_for(seed, "target_sweep")
    return [(kind, make_values(rng, kind, 0, HOURS_PER_YEAR)[0]) for kind in KINDS]


def sweep_targets(seed: int, per_profile: int, rounds: int) -> list[list[float]]:
    """``rounds`` rounds of targets across (0, 1); entry j of a round is for profile j % 3.

    Each profile's ``per_profile * rounds`` targets take one draw from each
    of as many equal strata of (0, 1), and round r gets strata
    ``r, r + rounds, r + 2 * rounds, ...`` in random order. So every round
    asks for the same mix of clamped, exact and hard fits, and the whole set
    covers (0, 1) evenly.
    """
    rng = rng_for(seed, "target_sweep/targets")
    strata = np.arange(per_profile * rounds).reshape(per_profile, rounds)
    u = (strata[None] + rng.random((len(KINDS), per_profile, rounds))) / strata.size
    u = np.where(u > 0.0, u, np.nextafter(0.0, 1.0))
    out = []
    for r in range(rounds):
        per_kind = np.stack([rng.permutation(u[k, :, r]) for k in range(len(KINDS))])
        out.append(per_kind.T.reshape(-1).tolist())
    return out
