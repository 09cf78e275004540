"""Span tracing around the public functions of ``norts``, for the traced run.

Each traced function is wrapped once and the wrapper is bound under every
``norts.*`` module name that binds the original, because modules import by
name (``norts.rp.epps_test``) and wrapping one binding would miss the
others.  A span is ``(name, start, end, parent, op)``; spans stay in memory
until the run ends, and each gets the id of the op whose interval holds its
start.
Worker processes forked by the harness inherit the wrappers, start with an
empty span list and write their spans to one file each when they exit.
All times are ``time.perf_counter`` (CLOCK_MONOTONIC, shared by every
process on the machine), so worker spans are placed under the parent
process span that was open when they started.
"""

from __future__ import annotations

import bisect
import functools
import os
import pickle
import sys
import time
from collections import Counter
from multiprocessing import util as mp_util
from pathlib import Path

# (module, qualified name) of every traced function.
TRACED = (
    ("epps", "epps_test"),
    ("epps", "spectral_zero"),
    ("series", "autocovariances"),
    ("series", "simulate_arma"),
    ("series", "read_series_csv"),
    ("lobato", "lobato_test"),
    ("lobato", "fk_hat"),
    ("stationarity", "adf_test"),
    ("stationarity", "kpss_test"),
    ("stationarity", "ljung_box"),
    ("rng", "RngStream.substream"),
    ("rng", "RngStream.uniform"),
    ("dist", "sample"),
    ("vavra", "vavra_test"),
    ("vavra", "fit_ar_sieve"),
    ("vavra", "anderson_darling"),
    ("rp", "rp_test"),
    ("rp", "stick_breaking_h"),
    ("rp", "project_series"),
    ("harness", "run_scenario"),
    ("report", "test_dispatch"),
    ("report", "check"),
    ("report", "render_check_json"),
    ("report", "render_text"),
    ("cli", "main"),
)


def _observe_epps(counts, args, kwargs, result):
    counts["epps.converged"] += bool(result.converged)


def _observe_vavra(counts, args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    counts["vavra.replications_requested"] += cfg.replications
    counts["vavra.replications_used"] += result.replications_used


def _observe_scenario(counts, args, kwargs, result):
    counts["harness.trials_failed"] += len(result.failures)


# Counts taken from a traced function's arguments and result.
_OBSERVERS = {
    "epps.epps_test": _observe_epps,
    "vavra.vavra_test": _observe_vavra,
    "harness.run_scenario": _observe_scenario,
}


class Tracer:
    """Collects spans and counts in this process and in forked workers."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function under every ``norts.*`` binding."""
        modules = [m for key, m in sys.modules.items() if key == "norts" or key.startswith("norts.")]
        for module_name, qualname in TRACED:
            module = sys.modules[f"norts.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:  # a method: bind the wrapper on its class
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def reset(self) -> None:
        """Forget every span and count recorded so far, workers' too."""
        self.spans.clear()
        self.counts.clear()
        for path in self.worker_dir.glob("worker-*.pkl"):
            path.unlink()

    def _after_fork(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()
        mp_util.Finalize(self, self._write_worker_file, exitpriority=10)

    def _write_worker_file(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}-{time.perf_counter_ns()}.pkl"
        with open(path, "wb") as fh:
            pickle.dump((self.spans, self.counts), fh)

    def collect(self, ops) -> tuple[list, Counter]:
        """All spans (workers' top-level spans re-parented), each tagged with
        its op id (-1 outside every op of ``ops``, a list of sorted, disjoint
        ``(start, end)`` intervals), and all counts."""
        spans = list(self.spans)
        counts = Counter(self.counts)
        starts = sorted((s[1], i) for i, s in enumerate(spans))
        start_keys = [t for t, _ in starts]
        for path in sorted(self.worker_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                worker_spans, worker_counts = pickle.load(fh)
            counts.update(worker_counts)
            offset = len(spans)
            for name, start, end, parent in worker_spans:
                if parent < 0:
                    parent = _open_span_at(spans, starts, start_keys, start)
                else:
                    parent += offset
                spans.append((name, start, end, parent))
        op_starts = [start for start, _ in ops]
        tagged = []
        for name, start, end, parent in spans:
            k = bisect.bisect_right(op_starts, start) - 1
            op = k if k >= 0 and start <= ops[k][1] else -1
            tagged.append((name, start, end, parent, op))
        return tagged, counts


def _open_span_at(spans, starts, start_keys, t: float) -> int:
    """Innermost parent-process span open at time t, or -1.

    Parent-process spans nest, so the innermost open span is an ancestor
    (or self) of the latest span started before t.
    """
    k = bisect.bisect_right(start_keys, t) - 1
    index = starts[k][1] if k >= 0 else -1
    while index >= 0 and spans[index][2] < t:
        index = spans[index][3]
    return index


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    children: dict[int, list] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def unattributed(spans, ops) -> list[float]:
    """Per op: its wall time minus the time its top-level spans cover."""
    tops: dict[int, list] = {}
    for _, start, end, parent, op in spans:
        if parent < 0 and op >= 0:
            tops.setdefault(op, []).append((start, end))
    return [(end - start) - _covered(tops.get(k, ()), start, end) for k, (start, end) in enumerate(ops)]
