"""Independent output checker for the profilefit benchmark.

Every expected outcome is recomputed here with plain numpy from the values
the generator wrote; nothing is imported from profilefit. An operation (one
input file of a batch, a batch's exit status, or one API fit) either
matches, is *wrong* (the program produced an output that disagrees), or is
*missing* (the program refused or crashed where an output was due).
``failed`` counts both; ``correct`` is false only when something was wrong.
Each operation counts once per run, with the worst verdict any repeat got.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from inputs import ProfileInput, counts

EXACT, CLAMPED_LOW, CLAMPED_HIGH = "exact", "clamped_low", "clamped_high"
RESIDUAL_TOL = 1e-10      # the CLI and API default
LARGE_EXPONENT = 1000.0   # the CLI and API default
SUM_TOL = 1e-12           # summation-order slack between two float64 means
MAX_PROBLEMS = 20


_RANK = {"ok": 0, "missing": 1, "wrong": 2}


@dataclass
class Tally:
    """One verdict per operation, however often a run repeats it.

    An operation is named by its input (a file, a batch's exit status, a
    fit's target), and a repeat keeps the worst verdict seen. So
    ``attempted`` and ``failed`` depend only on the seed's inputs and the
    program, not on how many repeats fitted into the measuring time.
    """

    verdicts: dict[str, str] = field(default_factory=dict)
    checks: int = 0  # outputs checked, repeats included
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def wrong(self) -> int:
        return sum(v == "wrong" for v in self.verdicts.values())

    @property
    def missing(self) -> int:
        return sum(v == "missing" for v in self.verdicts.values())

    @property
    def failed(self) -> int:
        return self.wrong + self.missing

    def record(self, op: str, verdict: str, message: str = "") -> None:
        """Check one output of operation ``op``: verdict is "ok", "wrong" or "missing"."""
        self.checks += 1
        old = self.verdicts.get(op)
        if old is not None and _RANK[verdict] <= _RANK[old]:
            return
        self.verdicts[op] = verdict
        if verdict != "ok" and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{verdict}: {op}: {message}")


def expected_status(values: np.ndarray, mu: float) -> str:
    """Feasibility from the counts: a root exists iff n/m < mu <= r/m."""
    m, r, n = counts(values)
    if mu > r / m:
        return CLAMPED_LOW
    if mu <= n / m:
        return CLAMPED_HIGH
    return EXACT


def expected_fitted(values: np.ndarray, exponent: float) -> np.ndarray:
    with np.errstate(under="ignore"):
        return np.where(values > 0.0, values ** exponent, 0.0)


def fit_problems(
    values: np.ndarray,
    mu: float,
    status: str,
    exponent: float,
    achieved: float,
    fitted: np.ndarray,
) -> list[str]:
    """Everything wrong with one fit, judged against the checker's own numbers."""
    want = expected_status(values, mu)
    out = []
    if status != want:
        out.append(f"status {status} but counts give {want}")
    if not (np.isfinite(exponent) and exponent >= 0.0):
        return out + [f"exponent {exponent!r} is not a finite nonnegative number"]
    if want == CLAMPED_LOW and exponent != 0.0:
        out.append(f"clamped_low with exponent {exponent!r}")
    if want == CLAMPED_HIGH and exponent != LARGE_EXPONENT:
        out.append(f"clamped_high with exponent {exponent!r}")
    if fitted.shape != values.shape:
        return out + [f"fitted has {fitted.size} values, input {values.size}"]
    if not np.array_equal(fitted, expected_fitted(values, exponent)):
        bad = int(np.argmax(fitted != expected_fitted(values, exponent)))
        out.append(f"fitted[{bad}]={float(fitted[bad])!r} != {float(values[bad])!r}**{exponent!r}")
    if fitted.min() < 0.0 or fitted.max() > 1.0:
        out.append("fitted value outside [0, 1]")
    if np.any(fitted[values == 0.0] != 0.0) or np.any(fitted[values == 1.0] != 1.0):
        out.append("a zero or a one moved")
    own_mean = float(fitted.sum() / fitted.size)
    if abs(achieved - own_mean) > SUM_TOL:
        out.append(f"achieved {achieved!r} but fitted mean is {own_mean!r}")
    if want == EXACT and abs(achieved - mu) > RESIDUAL_TOL:
        out.append(f"exact fit misses target {mu!r} by {abs(achieved - mu):.3g}")
    return out


# ---------------------------------------------------------------------------
# CLI batches
# ---------------------------------------------------------------------------

def _read_columns(path: str, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[0] != header:
        raise ValueError(f"{os.path.basename(path)}: header {lines[0]!r}, want {header!r}")
    if lines[-1] != "":
        raise ValueError(f"{os.path.basename(path)}: no final newline")
    return [list(col) for col in zip(*(line.split(",") for line in lines[1:-1]))]


def _floats(cells: list[str]) -> np.ndarray:
    return np.array([float(c) for c in cells], dtype=np.float64)


def output_paths(out_dir: str, prof: ProfileInput, plot: bool) -> dict[str, str]:
    stem = os.path.join(out_dir, prof.name)
    paths = {"fitted": f"{stem}_fitted.csv", "report": f"{stem}_report.json"}
    if plot:
        paths["chronological"] = f"{stem}_chronological.csv"
        paths["sorted"] = f"{stem}_sorted.csv"
    return paths


def _file_problems(prof: ProfileInput, paths: dict[str, str], summary: str) -> list[str]:
    with open(paths["report"], encoding="utf-8") as fh:
        rep = json.load(fh)
    m, r, n = counts(prof.values)
    out = []
    if (rep["m"], rep["r"], rep["n"]) != (m, r, n):
        out.append(f"report counts {(rep['m'], rep['r'], rep['n'])} != {(m, r, n)}")
    if rep["target_cf"] != prof.target:
        out.append(f"report target {rep['target_cf']!r} != {prof.target!r}")
    if abs(rep["current_cf"] - float(prof.values.sum() / m)) > SUM_TOL:
        out.append(f"report current_cf {rep['current_cf']!r} is not the input mean")
    if f"status={rep['status']}" not in summary:
        out.append(f"summary line {summary!r} disagrees with report status {rep['status']}")

    time_col, original, fitted = _read_columns(paths["fitted"], "time,original,fitted")
    if time_col != prof.timestamps:
        out.append("time column does not round-trip")
    if not np.array_equal(_floats(original), prof.values):
        out.append("original column does not round-trip")
    fitted = _floats(fitted)
    out += fit_problems(
        prof.values, prof.target, rep["status"], rep["exponent"], rep["achieved_cf"], fitted
    )

    if "chronological" in paths:
        idx, c_orig, c_fit = _read_columns(paths["chronological"], "index,original,fitted")
        if idx != [str(i) for i in range(1, m + 1)]:
            out.append("chronological index is not 1..m")
        if not (np.array_equal(_floats(c_orig), prof.values) and np.array_equal(_floats(c_fit), fitted)):
            out.append("chronological columns differ from the input and fitted series")
        idx, s_orig, s_fit = _read_columns(paths["sorted"], "index,original,fitted")
        if idx != [str(i) for i in range(1, m + 1)]:
            out.append("sorted index is not 1..m")
        if not (
            np.array_equal(_floats(s_orig), np.sort(prof.values)[::-1])
            and np.array_equal(_floats(s_fit), np.sort(fitted)[::-1])
        ):
            out.append("sorted columns are not descending permutations of the series")
    return out


def expected_exit(profiles: list[ProfileInput], allow_clamp: bool) -> int:
    if any(p.refusal for p in profiles):
        return 1
    clamped = any(expected_status(p.values, p.target) != EXACT for p in profiles)
    return 2 if clamped and not allow_clamp else 0


class BatchChecker:
    """Checks CLI batches over one fixed set of inputs.

    Each file's outputs are fingerprinted (their bytes, the report without
    its run-dependent ``elapsed_ms``, and the summary line). A fingerprint
    seen before gets the verdict it got then, so repeated batches that write
    identical bytes cost a hash, not a full re-check. Checking is untimed
    but shares the measuring window: on a 2-vCPU x86-64 VM a full check of a
    ``batch_8760_plot`` batch took 1.3 s against 2.5 s for the batch itself
    (``many_small_files``: 0.19 s against 1.2 s), and the fingerprints 0.04 s,
    so without them a run would measure about a third fewer batches.
    """

    def __init__(self, profiles: list[ProfileInput], out_dir: str, plot: bool, allow_clamp: bool):
        self.profiles = profiles
        self.out_dir = out_dir
        self.plot = plot
        self.exit_code = expected_exit(profiles, allow_clamp)
        self.tally = Tally()
        self.bytes_written = 0
        self._verdicts: dict[str, tuple[str, str]] = {}

    def check(self, stdout: str, exit_code: int) -> None:
        lines = stdout.splitlines()
        by_path = {}
        for line in lines:
            path, _, rest = line.partition(": ")
            by_path[path] = rest
        order_ok = [line.partition(": ")[0] for line in lines] == [p.path for p in self.profiles]
        if exit_code != self.exit_code or not order_ok:
            self.tally.record(
                "batch", "wrong", f"exit {exit_code} (want {self.exit_code}), summary order ok={order_ok}"
            )
        else:
            self.tally.record("batch", "ok")
        for prof in self.profiles:
            verdict, message = self._check_file(prof, by_path.get(prof.path))
            self.tally.record(prof.name, verdict, message)

    def _check_file(self, prof: ProfileInput, summary: str | None) -> tuple[str, str]:
        paths = output_paths(self.out_dir, prof, self.plot)
        present = [k for k, p in paths.items() if os.path.exists(p)]
        if summary is None:
            return "missing", "no summary line"
        if prof.refusal:
            if not summary.startswith("error:"):
                return "wrong", f"accepted a file with an {prof.refusal} value"
            if present:
                return "wrong", f"refused file left outputs {present}"
            return "ok", ""
        if summary.startswith("error:"):
            return "missing", f"refused a valid file: {summary}"
        if len(present) < len(paths):
            return "missing", f"outputs missing: {sorted(set(paths) - set(present))}"
        unasked = set(output_paths(self.out_dir, prof, True).values()) - set(paths.values())
        if any(os.path.exists(p) for p in unasked):
            return "wrong", "plot data written without --plot-data"
        key = self._fingerprint(paths, summary)
        if key not in self._verdicts:
            try:
                problems = _file_problems(prof, paths, summary)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc}"]
            self._verdicts[key] = ("wrong", "; ".join(problems)) if problems else ("ok", "")
        return self._verdicts[key]

    def _fingerprint(self, paths: dict[str, str], summary: str) -> str:
        h = hashlib.blake2b(summary.encode())
        for kind, path in sorted(paths.items()):
            with open(path, "rb") as fh:
                data = fh.read()
            self.bytes_written += len(data)
            if kind == "report":
                try:
                    rep = json.loads(data)
                    rep.pop("elapsed_ms", None)
                    data = json.dumps(rep, sort_keys=True).encode()
                except (ValueError, AttributeError):
                    pass  # unreadable: the full check reports it
            h.update(kind.encode())
            h.update(data)
        return h.hexdigest()
