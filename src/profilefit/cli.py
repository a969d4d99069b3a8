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
import numbers
import os
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .fitcore import (
    FitOptions,
    FitOutcome,
    FitStatus,
    ProfileFitError,
    TargetOutOfRangeError,
    apply_exponent,
    find_solution,
    profile_stats,  # noqa: F401  unused here; perfbench's tracer wraps cli.profile_stats
)
from .profile_io import (
    CsvLayout,
    FittedPair,
    _temp_dir_for,
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


@dataclass(frozen=True)
class CliConfig:
    """Resolved command-line options for one batch run.

    Every rule of a batch is checked here, or by ``layout`` and ``options``
    when they are built, so a config made in code obeys the same rules as
    one parsed from argv. Raises ValueError, naming the field, for
    ``inputs`` that are a str or empty, neither ``target`` nor ``manifest``,
    a ``target`` that is a bool, is not a real number, or lies outside
    (0, 1) or is NaN, and a ``jobs`` that is a bool or not an int >= 1.
    Manifest targets are checked when read, by :func:`resolve_targets`.
    """

    inputs: list[str]
    target: float | None = None
    manifest: str | None = None
    layout: CsvLayout = CsvLayout()
    options: FitOptions = FitOptions()
    out_dir: str = "."
    emit_plot_data: bool = False
    allow_clamp: bool = False
    jobs: int = field(default_factory=_default_jobs)

    def __post_init__(self):
        if isinstance(self.inputs, str):  # else each character is a pattern
            raise ValueError(f"inputs must be a list of patterns, not the str {self.inputs!r}")
        if not self.inputs:
            raise ValueError("inputs must name at least one file or pattern")
        if self.target is None and self.manifest is None:
            raise ValueError("target or manifest is required")
        if self.target is not None:
            if isinstance(self.target, bool) or not isinstance(self.target, numbers.Real):
                raise ValueError(f"target must be a real number, got {self.target!r}")
            if not 0.0 < self.target < 1.0:  # also catches nan
                raise ValueError(f"target must lie in (0, 1), got {self.target!r}")
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, int) or self.jobs < 1:
            raise ValueError(f"jobs must be an integer >= 1, got {self.jobs!r}")


def expand_inputs(patterns: list[str]) -> list[str]:
    """Glob each pattern that names no existing path; drop duplicates, keep order."""
    paths: list[str] = []
    seen: set[str] = set()
    for pattern in patterns:
        literal = not glob.has_magic(pattern) or os.path.exists(pattern)
        matches = [pattern] if literal else sorted(glob.glob(pattern))
        for p in matches:
            key = os.path.normpath(p)
            if key not in seen:
                seen.add(key)
                paths.append(p)
    return paths


def _load_manifest(path: str) -> dict[str, float]:
    mapping: dict[str, float] = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
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


def resolve_targets(config: CliConfig, paths: list[str]) -> dict[str, float]:
    """Map every path (the expanded ``config.inputs``) to its target capacity factor.

    A single ``target`` applies to all inputs; manifest entries override it
    per file. Raises :class:`ManifestMissingEntryError` for inputs with no
    target at all and :class:`TargetOutOfRangeError` for values outside (0, 1).
    """
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
    target: float | None = None
    outcome: FitOutcome | None = None
    error: str | None = None


def _fit_one(path: str, mu: float, config: CliConfig) -> _FileResult:
    try:
        profile, timestamps = read_profile(path, config.layout)
        outcome = find_solution(profile, mu, config.options)
        pair = FittedPair(profile, apply_exponent(profile, outcome.exponent))

        stem = Path(path).stem
        out_dir = Path(config.out_dir)
        write_profile(out_dir / f"{stem}_fitted.csv", timestamps, pair, config.layout.delimiter)
        write_report(out_dir / f"{stem}_report.json", path, mu, outcome)
        if config.emit_plot_data:
            write_plot_data(out_dir / stem, pair)
        # As a float, as the report has it: a Fraction target has no :g format.
        return _FileResult(path, target=float(mu), outcome=outcome)
    except Exception as exc:  # one bad file never stops the batch
        return _FileResult(path, error=f"{type(exc).__name__}: {exc}")


def _fit_chunk(paths: list[str], mus: list[float], config: CliConfig) -> list[_FileResult]:
    # One private directory under the out dir holds the chunk's temp files,
    # so pool workers do not create and rename them in one shared directory.
    with _temp_dir_for(config.out_dir):
        return [_fit_one(p, mu, config) for p, mu in zip(paths, mus)]


def _fit_pooled(paths: list[str], mus: list[float], config: CliConfig, jobs: int):
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
            (part, pool.submit(_fit_chunk, paths[part], mus[part], config))
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

    suffixes = ["_fitted.csv", "_report.json"]
    if config.emit_plot_data:
        suffixes += ["_chronological.csv", "_sorted.csv"]
    # Temp files are written in a new private directory under the out dir,
    # which holds no input, so only the outputs themselves need checking.
    # Each directory resolved once, so an --out-dir that links to an input's
    # is caught; an input that is itself a link is resolved whole.
    real = {d: os.path.realpath(d) for d in {config.out_dir, *map(os.path.dirname, paths)}}
    by_realpath = {
        os.path.realpath(p)
        if os.path.islink(p)
        else os.path.join(real[os.path.dirname(p)], os.path.basename(p)): p
        for p in paths
    }
    stems: dict[str, str] = {}
    for p in paths:
        stem = Path(p).stem
        if stem in stems:  # expand_inputs already dropped duplicate paths
            print(
                f"error: inputs {stems[stem]!r} and {p!r} would both write "
                f"{stem}_fitted.csv; rename one or split the batch",
                file=sys.stderr,
            )
            return EXIT_USAGE
        stems[stem] = p
        for suffix in suffixes:
            out = os.path.join(config.out_dir, stem + suffix)
            victim = by_realpath.get(os.path.join(real[config.out_dir], stem + suffix))
            if victim is not None:
                print(
                    f"error: output {out!r} of input {p!r} would overwrite input "
                    f"{victim!r}; choose another --out-dir",
                    file=sys.stderr,
                )
                return EXIT_USAGE

    try:
        targets = resolve_targets(config, paths)
    except (ProfileFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    jobs = min(config.jobs, len(paths))
    mus = [targets[p] for p in paths]
    if jobs == 1:
        results = _fit_chunk(paths, mus, config)
    else:
        results = _fit_pooled(paths, mus, config, jobs)

    any_error = False
    any_clamp = False
    for res in results:
        if res.error is not None:
            any_error = True
            print(f"{res.path}: error: {res.error}")
            continue
        out = res.outcome
        if out.status is not FitStatus.EXACT:
            any_clamp = True
        print(
            f"{res.path}: current_cf={out.stats.mean:.6f} target={res.target:g} "
            f"exponent={out.exponent:.6g} achieved={out.achieved_mean:.6f} "
            f"status={out.status.value}"
        )

    if any_error:
        return EXIT_ERROR
    if any_clamp and not config.allow_clamp:
        return EXIT_CLAMPED
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise _UsageError(message)


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
        type=float,
        help="target capacity factor in (0, 1), applied to all inputs",
    )
    parser.add_argument(
        "--manifest",
        help="CSV with columns path,target giving per-file targets",
    )
    parser.add_argument(
        "--column",
        default=CsvLayout.value_column,
        help="name of the value column (default: %(default)s)",
    )
    parser.add_argument(
        "--preamble-lines",
        type=int,
        default=CsvLayout.preamble_lines,
        help="metadata lines before the header row (default: %(default)s)",
    )
    parser.add_argument(
        "--delimiter",
        default=CsvLayout.delimiter,
        help="field delimiter (default: %(default)s)",
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
        help="worker processes (default: the usable CPU count)",
    )
    parser.add_argument(
        "--residual-tol",
        type=float,
        default=FitOptions.residual_tol,
        help="convergence tolerance on |achieved - target| (default: %(default)s)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def parse_args(argv: list[str] | None = None) -> CliConfig:
    """Turn argv into a validated CliConfig; raises on usage errors."""
    ns = _build_parser().parse_args(argv)
    try:  # every rule lives in the types themselves
        return CliConfig(
            inputs=ns.inputs or [],
            target=ns.target,
            manifest=ns.manifest,
            layout=CsvLayout(
                preamble_lines=ns.preamble_lines, value_column=ns.column, delimiter=ns.delimiter
            ),
            options=FitOptions(residual_tol=ns.residual_tol),
            out_dir=ns.out_dir,
            emit_plot_data=ns.emit_plot_data,
            allow_clamp=ns.allow_clamp,
            jobs=_default_jobs() if ns.jobs is None else ns.jobs,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


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
