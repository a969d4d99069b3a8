"""The three benchmark workloads and the metrics each one reports.

Load comes from one closed loop: the next batch (or fit) starts only after
the previous one returned and was checked. Checking is never timed.

* ``batch_8760_plot``: the CLI on 24 annual hourly files with one ``-t`` and
  ``--plot-data``; row-level CSV writing dominates.
* ``many_small_files``: the CLI on 600 weekly files with ``--manifest`` and
  ``--allow-clamp``; per-file costs (open/close, report JSON, target
  resolution, pool dispatch) dominate.
* ``target_sweep``: ``find_solution`` then ``apply_exponent`` on three
  in-memory annual profiles with targets across (0, 1); no I/O at all.

A run repeats one fixed set of operations per seed (a batch's files, or
``SWEEP_ROUNDS`` rounds of fits) and does each at least once, so the
checker's ``attempted`` and ``failed`` do not depend on the timing.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checker
import inputs
import spans

SWEEP_ROUND = 30   # fits per closed-loop round in target_sweep
SWEEP_ROUNDS = 20  # distinct rounds of a seed; a run repeats them in turn
RSS_RUNS = 3       # fresh processes whose peak RSS gives peak_rss_mb


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""  # sample count and provenance, for the human-readable lines


@dataclass
class Outcome:
    tally: checker.Tally
    metrics: dict[str, Metric] = field(default_factory=dict)
    extra: dict[str, Metric] = field(default_factory=dict)  # printed, not in the JSON line
    tracer: spans.Tracer | None = None  # the traced run's spans


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _loop(step, seconds: float, at_least: int, between=None) -> list[float]:
    """Run ``step`` back to back for ``seconds`` (and ``at_least`` times)."""
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < at_least or time.perf_counter() < deadline:
        times.append(step())
        if between is not None:
            between()
    return times


def program_env(src: str) -> dict[str, str]:
    """The environment for a fresh process that imports profilefit from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Put before every child program: at exit, prints the process's own peak RSS
# (kB) on stderr. VmHWM belongs to the child's address space alone;
# getrusage() and wait4() would also report the parent's peak, which exec
# carries over.
_PEAK_AT_EXIT = """
import atexit, sys
def _print_peak():
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
atexit.register(_print_peak)
"""


def run_child(code: str, args: list[str], env: dict[str, str]) -> tuple[str, int, float, float]:
    """Run the Python ``code`` in a fresh interpreter: stdout, exit code, wall seconds, peak RSS (MB)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_AT_EXIT + code, *args],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    try:
        peak_kb = float(proc.stderr.split()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"child exited with {proc.returncode} and no peak RSS: {proc.stderr[-2000:]}")
    return proc.stdout, proc.returncode, elapsed, peak_kb / 1024


class SetupTimer:
    """Wall time of a fresh interpreter that runs ``import profilefit.cli``.

    Samples are spread over the measuring window (between closed-loop
    operations, never inside one), so a slow phase of the machine moves
    only some of them; the median is reported. The peak RSS of the same
    processes shows how much of ``peak_rss_mb`` is the interpreter, numpy
    and the import alone.
    """

    def __init__(self, env: dict[str, str], samples: int, seconds: float):
        self._env = env
        self.samples = samples
        self.times: list[float] = []
        self.rss: list[float] = []
        self._every = seconds / samples
        self._last = time.perf_counter()
        self._once()  # warm-up: writes the bytecode cache

    def _once(self) -> float:
        _, code, elapsed, rss = run_child("import profilefit.cli", [], self._env)
        if code != 0:
            raise RuntimeError(f"import profilefit.cli exited with {code}")
        self.rss.append(rss)
        return elapsed

    def maybe(self) -> None:
        if len(self.times) < self.samples and time.perf_counter() - self._last >= self._every:
            self.times.append(self._once())
            self._last = time.perf_counter()

    def median(self) -> float:
        while len(self.times) < self.samples:
            self.times.append(self._once())
        return statistics.median(self.times)


def _rss_metric(rss: list[float], what: str) -> Metric:
    return Metric(statistics.median(rss), "MB", f"peak RSS of a fresh process running {what}, median of {len(rss)}")


def _q(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# CLI batches
# ---------------------------------------------------------------------------

# What the ``profilefit`` console script runs.
_CLI_CHILD = """
from profilefit.cli import main
sys.exit(main(sys.argv[1:]))
"""


class _Batch:
    """One workload's generated inputs, its CLI arguments and its checker."""

    def __init__(self, pf, name: str, seed: int, workdir: str, env: dict[str, str]):
        self.pf = pf
        self.env = env
        in_dir = os.path.join(workdir, "in")
        self.out_dir = os.path.join(workdir, "out")
        argv = ["-i", os.path.join(in_dir, "*.csv"), "-o", self.out_dir]
        if name == "batch_8760_plot":
            self.profiles, target = inputs.annual_batch(seed, in_dir)
            argv += ["-t", repr(target), "--plot-data"]
            plot, allow_clamp = True, False
        else:
            manifest = os.path.join(workdir, "targets.csv")
            self.profiles = inputs.small_batch(seed, in_dir, manifest)
            argv += ["--manifest", manifest, "--allow-clamp"]
            plot, allow_clamp = False, True
        self.argv = argv
        self.check = checker.BatchChecker(self.profiles, self.out_dir, plot, allow_clamp)
        self.count = 0

    def run(self, jobs: int, tracer: spans.Tracer | None = None) -> float:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.argv + ["-j", str(jobs)]
        out, err = io.StringIO(), io.StringIO()
        self.count += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is None:
                code = self.pf.cli.main(argv)
            else:
                with tracer.span("batch", op=f"batch-{self.count}"):
                    code = self.pf.cli.main(argv)
            elapsed = time.perf_counter() - start
        self.check.check(out.getvalue(), code)
        return elapsed

    def run_in_child(self, jobs: int) -> float:
        """One batch through the CLI's ``main`` in a fresh process; its peak RSS (MB)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        out, code, _, rss = run_child(_CLI_CHILD, [*self.argv, "-j", str(jobs)], self.env)
        self.check.check(out, code)
        return rss


def run_batch(
    pf, name: str, seed: int, seconds: float, workdir: str, env: dict[str, str], setup: SetupTimer | None
) -> Outcome:
    """Untraced when ``setup`` is given (it is sampled between batches), else traced."""
    batch = _Batch(pf, name, seed, workdir, env)
    files = len(batch.profiles)
    jobs = nproc()
    res = Outcome(batch.check.tally)
    if setup is not None:
        rss = [batch.run_in_child(jobs) for _ in range(RSS_RUNS)]
        res.metrics["peak_rss_mb"] = _rss_metric(rss, f"one batch at -j {jobs}")
    batch.run(jobs)  # warm-up: fills the page cache and fully checks every file
    if setup is not None:
        times = _loop(lambda: batch.run(jobs), seconds, at_least=3, between=setup.maybe)
        med = statistics.median(times)
        res.metrics["ops_per_s"] = Metric(
            files / med, "1/s", f"files/s, {files} files/batch, median of {len(times)} batches at -j {jobs}"
        )
        res.metrics["latency_ms.p50"] = Metric(
            med * 1e3, "ms", f"batch wall time, median of {len(times)} batches"
        )
        return res

    # Traced run: untraced -j 1 and -j nproc batches give the speed-up and
    # the tracing overhead; traced -j 1 batches give the per-layer numbers.
    # The three kinds alternate, and speed-up and overhead are medians of
    # per-cycle ratios and differences, so slow drift of the machine cancels.
    serial, parallel, traced = [], [], []
    tracer = spans.Tracer()
    layers = {"cli": pf.cli, "fitcore": pf.fitcore, "profile_io": pf.profile_io}
    written = 0

    def cycle() -> float:
        nonlocal written
        serial.append(batch.run(1))
        parallel.append(batch.run(jobs))
        before = batch.check.bytes_written
        tracer.install(layers)
        try:
            traced.append(batch.run(1, tracer))
        finally:
            tracer.uninstall()
        written += batch.check.bytes_written - before
        return traced[-1]

    _loop(cycle, seconds, at_least=2)
    res.tracer = tracer
    n_batches = len(traced)
    n_files = files * n_batches
    by_name, by_layer = spans.summarize(tracer.spans)
    root_ns = by_name["batch"].total_ns
    res.metrics.update(_layer_metrics(by_name, by_layer, root_ns))
    bytes_read = sum(p.size_bytes for p in batch.profiles) * n_batches
    read = by_name["cli.read_profile"]
    res.metrics["profile_io.read_profile.MB_per_s"] = Metric(
        bytes_read / 1e6 / (read.total_ns / 1e9), "MB/s", f"{bytes_read} bytes over {read.calls} reads"
    )
    res.metrics["profile_io.bytes_read_per_file"] = Metric(bytes_read / n_files, "bytes")
    res.metrics["profile_io.bytes_written_per_file"] = Metric(
        written / n_files, "bytes", "all outputs of an input file"
    )
    res.metrics["cli.speedup"] = Metric(
        statistics.median(s / p for s, p in zip(serial, parallel)),
        "ratio",
        f"median over {n_batches} cycles of -j 1 wall / next -j {jobs} wall",
    )
    res.metrics["cli.other_self_ms_per_file"] = Metric(
        by_name["batch"].self_ns / 1e6 / n_files, "ms", "batch wall outside every wrapped call"
    )
    res.metrics["cli.expand_inputs.calls_per_batch"] = Metric(
        by_name["cli.expand_inputs"].calls / n_batches, "count"
    )
    res.metrics["cli.resolve_targets.ms"] = _per_call(by_name["cli.resolve_targets"])
    res.metrics["trace.overhead_ms_per_op"] = Metric(
        statistics.median(t - s for t, s in zip(traced, serial)) * 1e3 / files,
        "ms",
        f"median over {n_batches} cycles of traced minus untraced -j 1 wall, per file",
    )
    accounted = sum(by_layer.values()) / root_ns
    res.extra["trace.accounted_share"] = Metric(
        accounted, "ratio", "layer self times plus cli other over traced -j 1 batch wall"
    )
    return res


def _per_call(st: spans.NameStats, scale: float = 1e6, unit: str = "ms") -> Metric:
    if st.calls == 0:
        return Metric(0.0, unit, "not exercised on this workload")
    return Metric(st.total_ns / scale / st.calls, unit, f"mean of {st.calls} calls")


def _merge(by_name, *names: str) -> spans.NameStats:
    out = spans.NameStats()
    for n in names:
        st = by_name.get(n)
        if st is not None:
            out.calls += st.calls
            out.total_ns += st.total_ns
            out.self_ns += st.self_ns
            out.result_sum += st.result_sum
    return out


def _layer_metrics(by_name, by_layer, root_ns: int) -> dict[str, Metric]:
    """Per-layer metrics common to every workload.

    Times per call are inclusive (children counted); the shares use self
    times, so they add up with ``cli.other_self_ms_per_file`` to the wall.
    """
    get = lambda *names: _merge(by_name, *names)  # noqa: E731
    fits = get("cli.find_solution", "fitcore.find_solution")
    mp = get("fitcore.mean_power")
    bis = get("fitcore.bisect_root")
    stats = get("cli.profile_stats", "fitcore.profile_stats")
    return {
        "profile_io.read_profile.ms_per_file": _per_call(get("cli.read_profile")),
        "profile_io.write_profile.ms_per_file": _per_call(get("cli.write_profile")),
        "profile_io.write_plot_data.ms_per_file": _per_call(get("cli.write_plot_data")),
        "profile_io.write_report.ms_per_file": _per_call(get("cli.write_report")),
        "profile_io.share": Metric(by_layer.get("profile_io", 0) / root_ns, "ratio", "self time / wall"),
        "fitcore.find_solution.ms": _per_call(fits),
        "fitcore.find_search_interval.ms": _per_call(get("fitcore.find_search_interval")),
        "fitcore.bisect_root.ms": _per_call(bis),
        "fitcore.mean_power.us_per_call": _per_call(mp, 1e3, "us"),
        "fitcore.apply_exponent.ms": _per_call(get("cli.apply_exponent", "fitcore.apply_exponent")),
        "fitcore.validate_profile.ms": _per_call(
            get("profile_io.validate_profile", "fitcore.validate_profile")
        ),
        "fitcore.share": Metric(by_layer.get("fitcore", 0) / root_ns, "ratio", "self time / wall"),
        "fitcore.mean_power.calls_per_fit": Metric(
            mp.calls / fits.calls if fits.calls else 0.0, "count", f"S(x) evaluations over {fits.calls} fits"
        ),
        "fitcore.bisect_root.iterations_per_fit": Metric(
            bis.result_sum / bis.calls if bis.calls else 0.0, "count", f"over {bis.calls} exact fits"
        ),
        "fitcore.profile_stats.calls_per_file": Metric(
            stats.calls / fits.calls if fits.calls else 0.0, "count", "per fitted file (per fit in the sweep)"
        ),
    }


# ---------------------------------------------------------------------------
# API sweep
# ---------------------------------------------------------------------------

# One round of fits in a fresh process. argv: profiles .npz, targets as JSON,
# output directory. Prints one JSON list: [status, exponent, achieved] per
# fit, or the name of the exception it raised; fitted values go to <i>.npy.
_SWEEP_CHILD = """
import json, os
import numpy as np
from profilefit import fitcore
arrays = np.load(sys.argv[1])
profiles = [fitcore.validate_profile(arrays[k]) for k in arrays.files]
results = []
for i, mu in enumerate(json.loads(sys.argv[2])):
    profile = profiles[i % len(profiles)]
    try:
        out = fitcore.find_solution(profile, mu)
        np.save(os.path.join(sys.argv[3], f"{i}.npy"), fitcore.apply_exponent(profile, out.exponent).values)
        results.append([out.status.value, out.exponent, out.achieved_mean])
    except Exception as exc:
        results.append(type(exc).__name__)
print(json.dumps(results))
"""


def run_sweep(
    pf, seed: int, seconds: float, workdir: str, env: dict[str, str], setup: SetupTimer | None
) -> Outcome:
    """Untraced when ``setup`` is given (it is sampled between rounds), else traced."""
    generated = inputs.sweep_profiles(seed)
    profiles = [(kind, values, pf.fitcore.validate_profile(values)) for kind, values in generated]
    rounds_of_targets = itertools.cycle(
        enumerate(inputs.sweep_targets(seed, SWEEP_ROUND // len(profiles), SWEEP_ROUNDS))
    )
    tally = checker.Tally()
    fit_times: list[float] = []
    raised: dict[str, str] = {}  # fit id -> the exception it raised

    def fit_id(r: int, i: int) -> str:
        return f"fit-{r}.{i}"

    def failed_fit(op: str, kind: str, mu: float, error: str) -> None:
        raised[op] = error
        tally.record(op, "missing", f"{kind} mu={mu!r}: {error}")

    def round_in_child() -> float:
        """Peak RSS (MB) of a fresh process that fits one round; its outputs are checked."""
        npz = os.path.join(workdir, "profiles.npz")
        np.savez(npz, *(values for _, values in generated))
        r, targets = next(rounds_of_targets)
        out, code, _, rss = run_child(_SWEEP_CHILD, [npz, json.dumps(targets), workdir], env)
        results = json.loads(out) if code == 0 else [f"exit {code}"] * len(targets)
        for i, (mu, got) in enumerate(zip(targets, results)):
            kind, values, _ = profiles[i % len(profiles)]
            if isinstance(got, str):
                failed_fit(fit_id(r, i), kind, mu, got)
                continue
            fitted = np.load(os.path.join(workdir, f"{i}.npy"))
            problems = checker.fit_problems(values, mu, *got, fitted)
            verdict = "wrong" if problems else "ok"
            tally.record(fit_id(r, i), verdict, f"{kind} mu={mu!r}: {'; '.join(problems)}")
        return rss

    def one_round(tracer: spans.Tracer | None = None) -> float:
        total = 0.0
        r, targets = next(rounds_of_targets)
        for i, mu in enumerate(targets):
            kind, values, profile = profiles[i % len(profiles)]
            op = fit_id(r, i)
            ctx = tracer.span("fit", op=op) if tracer else contextlib.nullcontext()
            outcome = fitted = error = None
            with ctx:
                start = time.perf_counter()
                try:
                    outcome = pf.fitcore.find_solution(profile, mu)
                    fitted = pf.fitcore.apply_exponent(profile, outcome.exponent)
                except Exception as exc:  # noqa: BLE001 - any raise is a failed fit, counted below
                    error = exc
                elapsed = time.perf_counter() - start
            total += elapsed
            fit_times.append(elapsed)
            if error is not None:
                failed_fit(op, kind, mu, type(error).__name__)
                continue
            problems = checker.fit_problems(
                values, mu, outcome.status.value, outcome.exponent, outcome.achieved_mean, fitted.values
            )
            tally.record(op, "wrong" if problems else "ok", f"{kind} mu={mu!r}: {'; '.join(problems)}")
        return total

    res = Outcome(tally)
    if setup is not None:
        rss = [round_in_child() for _ in range(RSS_RUNS)]
        res.metrics["peak_rss_mb"] = _rss_metric(rss, f"one round of {SWEEP_ROUND} fits")
    one_round()  # warm-up
    fit_times.clear()
    if setup is not None:
        rounds = _loop(one_round, seconds, at_least=SWEEP_ROUNDS, between=setup.maybe)
        ms = [t * 1e3 for t in fit_times]
        res.metrics["ops_per_s"] = Metric(
            SWEEP_ROUND / statistics.median(rounds), "1/s",
            f"fits/s, {SWEEP_ROUND} fits/round, median of {len(rounds)} rounds",
        )
        res.metrics["latency_ms.p50"] = Metric(statistics.median(ms), "ms", f"per fit, n={len(ms)}")
        res.extra["fit_ms.p99"] = Metric(_q(ms, 99), "ms", f"per fit, n={len(ms)}, {len(ms) // 100} beyond")
    else:
        # Untraced and traced rounds alternate and the overhead is a median of
        # per-pair differences, so slow drift of the machine cancels.
        tracer = spans.Tracer()
        layers = {"cli": pf.cli, "fitcore": pf.fitcore, "profile_io": pf.profile_io}
        plain: list[float] = []
        traced: list[float] = []

        def pair() -> float:
            plain.append(one_round())
            tracer.install(layers)
            try:
                traced.append(one_round(tracer))
            finally:
                tracer.uninstall()
            return traced[-1]

        _loop(pair, seconds, at_least=(SWEEP_ROUNDS + 1) // 2)
        res.tracer = tracer
        by_name, by_layer = spans.summarize(tracer.spans)
        res.metrics.update(_layer_metrics(by_name, by_layer, by_name["fit"].total_ns))
        absent = "not exercised: no files in this workload"
        for key, unit in [
            ("profile_io.read_profile.MB_per_s", "MB/s"),
            ("profile_io.bytes_read_per_file", "bytes"),
            ("profile_io.bytes_written_per_file", "bytes"),
            ("cli.speedup", "ratio"),
            ("cli.other_self_ms_per_file", "ms"),
            ("cli.expand_inputs.calls_per_batch", "count"),
            ("cli.resolve_targets.ms", "ms"),
        ]:
            res.metrics[key] = Metric(0.0, unit, absent)
        res.metrics["trace.overhead_ms_per_op"] = Metric(
            statistics.median(t - p for t, p in zip(traced, plain)) * 1e3 / SWEEP_ROUND,
            "ms",
            f"median over {len(traced)} pairs of traced minus untraced round, per fit",
        )
    for name, k in sorted(Counter(raised.values()).items()):
        res.extra[f"missing.{name}"] = Metric(k, "count", "distinct fits that raised instead of returning")
    return res
