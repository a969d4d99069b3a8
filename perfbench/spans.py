"""In-memory span recording around the names each profilefit layer looks up.

A :class:`Tracer` replaces module attributes such as
``profilefit.cli.read_profile`` with a wrapper that records one span per
call: name, start, end, parent span and the file or fit it belongs to.
Because callers look these names up at call time, the program itself is
unchanged. Spans stay in memory until :meth:`Tracer.dump`.

The tracer keeps one stack of open spans, so every wrapped call must run on
one thread: traced batches run at ``-j 1``, where the CLI uses no pool.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

# Span name -> layer. The root spans ("batch", "fit") are made by the
# benchmark around each closed-loop operation and count as the cli layer
# (batch) or as the caller (fit).
LAYER = {
    "batch": "cli",
    "cli.expand_inputs": "cli",
    "cli.resolve_targets": "cli",
    "cli.read_profile": "profile_io",
    "cli.write_profile": "profile_io",
    "cli.write_plot_data": "profile_io",
    "cli.write_report": "profile_io",
    "cli.find_solution": "fitcore",
    "cli.apply_exponent": "fitcore",
    "cli.profile_stats": "fitcore",
    "fitcore.find_solution": "fitcore",
    "fitcore.apply_exponent": "fitcore",
    "fitcore.find_search_interval": "fitcore",
    "fitcore.bisect_root": "fitcore",
    "fitcore.mean_power": "fitcore",
    "fitcore.profile_stats": "fitcore",
    "fitcore.validate_profile": "fitcore",
    "profile_io.validate_profile": "fitcore",
    "fit": "caller",
}

# (module attribute, span name) pairs wrapped in a traced run.
WRAPPED = [
    ("cli", "expand_inputs"),
    ("cli", "resolve_targets"),
    ("cli", "read_profile"),
    ("cli", "write_profile"),
    ("cli", "write_plot_data"),
    ("cli", "write_report"),
    ("cli", "find_solution"),
    ("cli", "apply_exponent"),
    ("cli", "profile_stats"),
    ("fitcore", "find_solution"),
    ("fitcore", "apply_exponent"),
    ("fitcore", "find_search_interval"),
    ("fitcore", "bisect_root"),
    ("fitcore", "mean_power"),
    ("fitcore", "profile_stats"),
    ("fitcore", "validate_profile"),
    ("profile_io", "validate_profile"),
]


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: int  # perf_counter_ns
    end: int
    op: str | None  # input path or fit id
    result: int | None = None  # a count taken from the return value, if any


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op: str | None = None  # the file or fit the next spans belong to

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attr in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, f"{mod_name}.{attr}"))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, func, name: str):
        tracer = self
        starts_op = name == "cli.read_profile"
        counts_result = name == "fitcore.bisect_root"

        def wrapper(*args, **kwargs):
            if starts_op:
                tracer.op = str(args[0])
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                value = func(*args, **kwargs)
                if counts_result:
                    result = int(value[1])
                return value
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, start, end, tracer.op, result))

        wrapper.__wrapped__ = func
        return wrapper

    def span(self, name: str, op: str | None = None) -> "_RootSpan":
        return _RootSpan(self, name, op)

    def dump(self, path: str, header: dict) -> None:
        """One JSON header line (with the span field names), then one array per span."""
        fields = [f.name for f in dataclasses.fields(Span)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": fields}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(dataclasses.astuple(s)) + "\n")


class _RootSpan:
    """A span the benchmark opens around one closed-loop operation."""

    def __init__(self, tracer: Tracer, name: str, op: str | None):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        t = self.tracer
        self.sid = next(t._ids)
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.sid)
        t.op = self.op
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        t = self.tracer
        t._stack.pop()
        t.op = None
        t.spans.append(Span(self.sid, self.parent, self.name, self.start, end, self.op))
        return False


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the durations of its child spans (ns)."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


@dataclass
class NameStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    result_sum: int = 0


def summarize(spans: list[Span]) -> tuple[dict[str, NameStats], dict[str, int]]:
    """Per span name: calls, inclusive and self time; per layer: self time."""
    own = self_times(spans)
    by_name: dict[str, NameStats] = defaultdict(NameStats)
    by_layer: dict[str, int] = defaultdict(int)
    for s in spans:
        st = by_name[s.name]
        st.calls += 1
        st.total_ns += s.end - s.start
        st.self_ns += own[s.sid]
        st.result_sum += s.result or 0
        by_layer[LAYER[s.name]] += own[s.sid]
    return by_name, by_layer
