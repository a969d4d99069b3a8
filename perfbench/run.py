"""profilefit benchmark: one workload per process, metrics on stdout.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_8760_plot --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed``; the program is imported from ``src/``
of the checkout this script sits in. Every output is checked by an
independent numpy checker. With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` the calls into each layer are wrapped and the
per-layer metrics are printed, and the spans are written to
``.perfbench_out/``. Human-readable lines come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("batch_8760_plot", "many_small_files", "target_sweep")
SETUP_RUNS = 9


def _load_program():
    """Import profilefit from this checkout's ``src/``, or fail loudly."""
    if not (SRC / "profilefit" / "cli.py").is_file():
        raise SystemExit(f"error: no profilefit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import profilefit
    import profilefit.cli
    import profilefit.fitcore
    import profilefit.profile_io

    if Path(profilefit.__file__).resolve().parent != SRC / "profilefit":
        raise SystemExit(f"error: imported profilefit from {profilefit.__file__}, not {SRC}")
    return profilefit


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    pf = _load_program()
    sys.path.insert(0, str(HERE))
    import numpy
    import workloads

    env = workloads.program_env(str(SRC))
    setup = None if args.trace else workloads.SetupTimer(env, SETUP_RUNS, args.seconds)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "target_sweep":
            res = workloads.run_sweep(pf, args.seed, args.seconds, str(workdir), env, setup)
        else:
            res = workloads.run_batch(pf, args.workload, args.seed, args.seconds, str(workdir), env, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if setup is not None:
        res.metrics["setup_s"] = workloads.Metric(
            setup.median(), "s",
            f"interpreter start + import profilefit.cli, median of {setup.samples} fresh processes",
        )
        res.extra["rss.import_only_mb"] = workloads.Metric(
            statistics.median(setup.rss), "MB", "peak RSS of the setup_s processes (interpreter, numpy, profilefit.cli)"
        )
        res.metrics["ok_ratio"] = workloads.Metric(
            1 - res.tally.failed / res.tally.attempted, "ratio", "1 - fail_ratio: operations with the right outcome"
        )

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "profilefit": pf.__version__,
    }
    if res.tracer is not None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
        res.tracer.dump(str(span_file), env)
        env["spans"] = str(span_file.relative_to(ROOT))

    tally = res.tally
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    fail_ratio = tally.failed / tally.attempted
    rows = dict(res.metrics)
    rows.update(res.extra)
    rows["fail_ratio"] = workloads.Metric(
        fail_ratio, "ratio",
        f"{tally.failed} of {tally.attempted} operations ({tally.wrong} wrong, {tally.missing} missing),"
        f" {tally.checks} outputs checked",
    )
    for name in sorted(rows):
        m = rows[name]
        print(f"  {name:42s} {m.value:14.6g} {m.unit:6s} {m.note}")
    for problem in tally.problems:
        print(f"  check: {problem}")

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
