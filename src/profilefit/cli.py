"""Command-line driver: fit one or many profiles to target capacity factors.

Each input file is processed independently (read, fit, write outputs), so a
batch can run on a pool of worker processes. Outputs per input are
``<stem>_fitted.csv`` and ``<stem>_report.json``, plus plot-data CSVs when
requested. Exit codes: 0 all fits exact (or clamps permitted), 1 any I/O or
validation error, 2 any unpermitted clamp, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import glob
import math
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .fitcore import (
    FitOptions,
    FitStatus,
    ProfileFitError,
    TargetOutOfRangeError,
    apply_exponent,
    find_solution,
    profile_stats,
)
from .profile_io import (
    CsvLayout,
    FitReport,
    read_profile,
    write_plot_data,
    write_profile,
    write_report,
)

__all__ = [
    "CliConfig",
    "ManifestMissingEntryError",
    "main",
    "parse_args",
    "resolve_targets",
    "run_fit",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CLAMPED = 2
EXIT_USAGE = 64

JOBS_ENV_VAR = "PROFILEFIT_JOBS"


class ManifestMissingEntryError(ProfileFitError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"manifest has no target for input {path!r}")


class _UsageError(Exception):
    pass


def _default_jobs() -> int:
    """The CPUs this process may run on (its affinity mask), else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class CliConfig:
    """Resolved command-line options for one batch run."""

    inputs: list[str]
    target: float | None = None
    manifest: str | None = None
    column: str = "electricity"
    preamble_lines: int = 3
    delimiter: str = ","
    out_dir: str = "."
    emit_plot_data: bool = False
    allow_clamp: bool = False
    jobs: int = field(default_factory=_default_jobs)
    residual_tol: float = 1e-10
    large_exponent: float = 1000.0


def expand_inputs(patterns: list[str]) -> list[str]:
    """Expand glob patterns, dropping duplicates but keeping input order."""
    paths: list[str] = []
    seen: set[str] = set()
    for pattern in patterns:
        matches = sorted(glob.glob(pattern)) if glob.has_magic(pattern) else [pattern]
        for p in matches:
            key = os.path.normpath(p)
            if key not in seen:
                seen.add(key)
                paths.append(p)
    return paths


def _load_manifest(path: str) -> dict[str, float]:
    mapping: dict[str, float] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 2 or not row[0].strip():
                continue
            key, raw = row[0].strip(), row[1].strip()
            try:
                value = float(raw)
            except ValueError:
                if key.lower() == "path":  # header row
                    continue
                raise ProfileFitError(
                    f"manifest {path}: cannot parse target {raw!r} for {key!r}"
                ) from None
            mapping[os.path.normpath(key)] = value
    return mapping


def resolve_targets(config: CliConfig) -> dict[str, float]:
    """Map every input path to its target capacity factor.

    A single ``target`` applies to all inputs; manifest entries override it
    per file. Raises :class:`ManifestMissingEntryError` for inputs with no
    target at all and :class:`TargetOutOfRangeError` for values outside (0, 1).
    """
    paths = expand_inputs(config.inputs)
    manifest = _load_manifest(config.manifest) if config.manifest else {}
    targets: dict[str, float] = {}
    for p in paths:
        key = os.path.normpath(p)
        if key in manifest:
            mu = manifest[key]
        elif config.target is not None:
            mu = config.target
        else:
            raise ManifestMissingEntryError(p)
        if not 0.0 < mu < 1.0:
            raise TargetOutOfRangeError(mu, path=p)
        targets[p] = mu
    return targets


@dataclass
class _FileResult:
    path: str
    report: FitReport | None = None
    error: str | None = None


def _fit_one(path: str, mu: float, layout: CsvLayout, config: CliConfig) -> _FileResult:
    try:
        profile, timestamps = read_profile(path, layout)
        stats = profile_stats(profile)
        opts = FitOptions(
            target_mu=mu,
            residual_tol=config.residual_tol,
            large_exponent=config.large_exponent,
        )
        start = time.perf_counter()
        outcome = find_solution(profile, mu, opts)
        fitted = apply_exponent(profile, outcome.exponent)
        elapsed_ms = (time.perf_counter() - start) * 1000.0

        stem = Path(path).stem
        out_dir = Path(config.out_dir)
        write_profile(out_dir / f"{stem}_fitted.csv", timestamps, profile, fitted, layout)
        report = FitReport(
            input_path=str(path),
            m=stats.m,
            r=stats.r,
            n=stats.n,
            current_cf=stats.mean,
            target_cf=float(mu),
            exponent=float(outcome.exponent),
            achieved_cf=float(outcome.achieved_mean),
            status=outcome.status.value,
            iterations=int(outcome.iterations),
            elapsed_ms=elapsed_ms,
        )
        write_report(out_dir / f"{stem}_report.json", report)
        if config.emit_plot_data:
            write_plot_data(out_dir / stem, profile, fitted)
        return _FileResult(path, report=report)
    except Exception as exc:  # one bad file never stops the batch
        return _FileResult(path, error=f"{type(exc).__name__}: {exc}")


def _fit_chunk(
    paths: list[str], mus: list[float], layout: CsvLayout, config: CliConfig
) -> list[_FileResult]:
    return [_fit_one(p, mu, layout, config) for p, mu in zip(paths, mus)]


def _fit_pooled(
    paths: list[str], mus: list[float], layout: CsvLayout, config: CliConfig, jobs: int
):
    """Yield each file's result in input order, fitted on ``jobs`` worker processes.

    Files go out in chunks of about ``len(paths) / (4 * jobs)``. If a worker
    dies, each file of every chunk without a result gets an error result.
    """
    # Imported here: they add ~18 ms to ``import profilefit.cli``, which a
    # serial run does not need.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # A forked worker starts with numpy and profilefit already imported; a
    # spawned one re-imports them (~0.2 s). Windows has only spawn. The pool
    # forks every worker before it starts its own threads; the one other
    # thread is numpy's BLAS pool (why Python >= 3.12 warns), and profilefit
    # calls no BLAS routine.
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    size = math.ceil(len(paths) / (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        # One future per chunk, not pool.map: map gives up at the first chunk
        # a dead worker broke, dropping the chunks that did finish.
        parts = [slice(i, i + size) for i in range(0, len(paths), size)]
        pending = deque(
            (part, pool.submit(_fit_chunk, paths[part], mus[part], layout, config))
            for part in parts
        )
        while pending:
            part, chunk = pending.popleft()  # a printed chunk's results are freed
            try:
                yield from chunk.result()
            except BrokenProcessPool as exc:
                error = f"{type(exc).__name__}: {exc}"
                for path in paths[part]:
                    yield _FileResult(path, error=error)


def run_fit(config: CliConfig) -> int:
    """Fit every input and print one summary line each, in input order.

    ``config.jobs`` worker processes share the files; one job, or one file,
    runs in this process.
    """
    paths = expand_inputs(config.inputs)
    if not paths:
        print("error: no input files matched", file=sys.stderr)
        return EXIT_USAGE

    stems: dict[str, str] = {}
    for p in paths:
        stem = Path(p).stem
        if stem in stems and os.path.normpath(stems[stem]) != os.path.normpath(p):
            print(
                f"error: inputs {stems[stem]!r} and {p!r} would both write "
                f"{stem}_fitted.csv; rename one or split the batch",
                file=sys.stderr,
            )
            return EXIT_USAGE
        stems[stem] = p

    try:
        targets = resolve_targets(config)
    except (ProfileFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    layout = CsvLayout(
        preamble_lines=config.preamble_lines,
        value_column=config.column,
        delimiter=config.delimiter,
    )
    os.makedirs(config.out_dir, exist_ok=True)

    jobs = max(1, min(config.jobs, len(paths)))
    mus = [targets[p] for p in paths]
    if jobs == 1:
        results = _fit_chunk(paths, mus, layout, config)
    else:
        results = _fit_pooled(paths, mus, layout, config, jobs)

    any_error = False
    any_clamp = False
    for res in results:
        if res.error is not None:
            any_error = True
            print(f"{res.path}: error: {res.error}")
            continue
        rep = res.report
        if rep.status != FitStatus.EXACT.value:
            any_clamp = True
        print(
            f"{res.path}: current_cf={rep.current_cf:.6f} target={rep.target_cf:g} "
            f"exponent={rep.exponent:.6g} achieved={rep.achieved_cf:.6f} "
            f"status={rep.status}"
        )

    if any_error:
        return EXIT_ERROR
    if any_clamp and not config.allow_clamp:
        return EXIT_CLAMPED
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise _UsageError(message)


def _target_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"target capacity factor must lie strictly between 0 and 1, got {text}"
        )
    return value


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="profilefit",
        description=(
            "Fit renewable availability profiles to a target capacity factor "
            "by raising values to a solved exponent."
        ),
    )
    parser.add_argument(
        "-i",
        "--input",
        dest="inputs",
        action="append",
        metavar="PATH",
        help="input CSV (repeatable; glob patterns allowed)",
    )
    parser.add_argument(
        "-t",
        "--target",
        type=_target_value,
        help="target capacity factor in (0, 1), applied to all inputs",
    )
    parser.add_argument(
        "--manifest",
        help="CSV with columns path,target giving per-file targets",
    )
    parser.add_argument(
        "--column",
        default="electricity",
        help="name of the value column (default: electricity)",
    )
    parser.add_argument(
        "--preamble-lines",
        type=int,
        default=3,
        help="metadata lines before the header row (default: 3)",
    )
    parser.add_argument(
        "--delimiter",
        default=",",
        help="field delimiter (default: ,)",
    )
    parser.add_argument(
        "-o",
        "--out-dir",
        default=".",
        help="directory for output files (default: current directory)",
    )
    parser.add_argument(
        "--plot-data",
        action="store_true",
        dest="emit_plot_data",
        help="also write chronological and duration-curve CSVs",
    )
    parser.add_argument(
        "--allow-clamp",
        action="store_true",
        help="treat clamped fits as success (exit 0 instead of 2)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help=f"worker processes (default: ${JOBS_ENV_VAR} or the usable CPU count)",
    )
    parser.add_argument(
        "--residual-tol",
        type=float,
        default=1e-10,
        help="convergence tolerance on |achieved - target| (default: 1e-10)",
    )
    parser.add_argument(
        "--large-exponent",
        type=float,
        default=1000.0,
        help="fallback exponent for targets at or below n/m (default: 1000)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def parse_args(argv: list[str] | None = None) -> CliConfig:
    """Turn argv into a validated CliConfig; raises on usage errors."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if not ns.inputs:
        raise _UsageError("at least one --input is required")
    if ns.target is None and ns.manifest is None:
        raise _UsageError("either --target or --manifest is required")

    jobs = ns.jobs
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise _UsageError(f"{JOBS_ENV_VAR} must be an integer, got {env!r}") from None
        else:
            jobs = _default_jobs()
    if jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    if ns.preamble_lines < 0:
        raise _UsageError("--preamble-lines must be >= 0")
    if len(ns.delimiter) != 1:
        raise _UsageError("--delimiter must be a single character")
    for flag, value in (
        ("--residual-tol", ns.residual_tol),
        ("--large-exponent", ns.large_exponent),
    ):
        if not (math.isfinite(value) and value > 0):
            raise _UsageError(f"{flag} must be positive and finite, got {value!r}")

    return CliConfig(
        inputs=list(ns.inputs),
        target=ns.target,
        manifest=ns.manifest,
        column=ns.column,
        preamble_lines=ns.preamble_lines,
        delimiter=ns.delimiter,
        out_dir=ns.out_dir,
        emit_plot_data=ns.emit_plot_data,
        allow_clamp=ns.allow_clamp,
        jobs=jobs,
        residual_tol=ns.residual_tol,
        large_exponent=ns.large_exponent,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run 'profilefit --help' for details", file=sys.stderr)
        return EXIT_USAGE
    return run_fit(config)


if __name__ == "__main__":
    sys.exit(main())
