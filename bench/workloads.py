"""The benchmark workloads: inputs made from a seed, and one kind of op each.

Inputs come from numpy's own generator, never from ``norts``, so a change
to the program's random streams or simulators leaves the benchmark's
inputs unchanged.  Every program call is looked up through its module at
call time (``norts.cli.main``, ``norts.reproduce_tables``), so the traced run's
wrappers see it.

A workload object has ``make_inputs(seed, workdir)``, ``warm_up(inputs)``
and ``call(inputs, i)``.  ``call`` returns one ``(start, end, error)``
triple per op it ran, in ``time.perf_counter`` seconds (``error`` is None
for a passed op, else an error-class tag); ``mc_study`` runs a whole grid
per call and so returns 25 triples.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np

import norts
import norts.cli

# The paper's innovation laws and AR(1) coefficients (the harness grid).
_LAWS = ("normal", "lognormal", "t3", "chisq10", "beta71")
_PHIS = (-0.4, -0.25, 0.0, 0.25, 0.4)
_BURN_IN = 500


def _innovations(gen: np.random.Generator, law: str, size: int) -> np.ndarray:
    if law == "normal":
        return gen.standard_normal(size)
    if law == "lognormal":
        return gen.lognormal(size=size)
    if law == "t3":
        return gen.standard_t(3, size)
    if law == "chisq10":
        return gen.chisquare(10, size)
    return gen.beta(7, 1, size)


def ar1_series(gen: np.random.Generator, law: str, phi: float, n: int) -> np.ndarray:
    """AR(1) path of length n after a burn-in, as the MA(inf) sum truncated
    where |phi|^k drops below double precision (|phi| <= 0.4 here)."""
    eps = _innovations(gen, law, _BURN_IN + n)
    weights = phi ** np.arange(64) if phi != 0.0 else np.ones(1)
    return np.convolve(eps, weights)[: eps.size][_BURN_IN:]


def _grid_cell(i: int) -> tuple[str, float]:
    return _LAWS[(i // len(_PHIS)) % len(_LAWS)], _PHIS[i % len(_PHIS)]


def _check_p(p) -> str | None:
    if p is None or not math.isfinite(p) or not 0.0 <= p <= 1.0:
        return "CheckError:p_value"
    return None


def _timed(fn):
    """Run fn(); return (start, end, error tag or None, result)."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failed op is counted, not fatal to the run
        return start, time.perf_counter(), type(exc).__name__, None
    return start, time.perf_counter(), None, result


class McStudy:
    """``norts simulate`` with its default method and worker count: one op is
    one grid cell.  One worker runs the trials in this process: two pool
    workers keep two cores busy, and on a shared host runs of the same code
    then spread past the bounds."""

    tail_percentile = 90
    trials = 200
    workers = 1

    def make_inputs(self, seed: int, workdir: Path):
        gen = np.random.default_rng(seed)
        return {"seeds": [int(s) for s in gen.integers(0, 2**63, 256)], "out": workdir / "table.csv"}

    def _grid(self, seed: int, out: Path, **grid) -> list:
        results = []
        last = [time.perf_counter()]

        def progress(row):
            now = time.perf_counter()
            ok = 0.0 <= row.rate <= 1.0 and row.trials == self.trials
            results.append((last[0], now, None if ok else "CheckError:row"))
            last[0] = now

        try:
            norts.reproduce_tables(
                methods=("lobato",), ns=(100,), m=self.trials, out=out, seed=seed,
                workers=self.workers, progress=progress, **grid,
            )
        except Exception as exc:  # the cell in progress failed
            results.append((last[0], time.perf_counter(), type(exc).__name__))
        return results

    def warm_up(self, inputs) -> None:
        from norts.harness import TABLE_LAWS

        self._grid(inputs["seeds"][-1], inputs["out"], phis=(0.25,), laws=TABLE_LAWS)

    def setup_op(self, inputs) -> None:
        from norts.harness import TABLE_LAWS

        self._grid(inputs["seeds"][-1], inputs["out"], phis=(0.25,), laws=TABLE_LAWS[:1])

    def call(self, inputs, i: int) -> list:
        seeds = inputs["seeds"]
        results = self._grid(seeds[i % (len(seeds) - 1)], inputs["out"])
        grid_size = len(_LAWS) * len(_PHIS)
        # an aborted grid leaves its remaining cells attempted but not run
        now = time.perf_counter()
        results += [(now, now, "Aborted")] * (grid_size - len(results))
        return results


class _CliWorkload:
    """In-process ``norts.cli.main`` on one CSV file per op; stdout captured."""

    n: int
    files = 128
    warm_ups = 3

    def make_inputs(self, seed: int, workdir: Path):
        gen = np.random.default_rng(seed)
        paths = []
        for i in range(self.files):
            x = ar1_series(gen, *_grid_cell(i), self.n)
            path = workdir / f"series{i:03d}.csv"
            path.write_text("".join(f"{v!r}\n" for v in x.tolist()))
            paths.append((path, x))
        seeds = [str(s) for s in gen.integers(0, 2**63, self.files)]
        out = workdir / "plots"
        out.mkdir()
        return {"files": paths, "seeds": seeds, "out": out}

    def argv(self, inputs, i: int) -> list[str]:
        """The op's arguments; runs untimed, before the op."""
        raise NotImplementedError

    def check(self, inputs, i: int, stdout: str) -> str | None:
        raise NotImplementedError

    def _run(self, inputs, i: int):
        buf = io.StringIO()
        argv = self.argv(inputs, i)

        def op():
            with contextlib.redirect_stdout(buf):
                return norts.cli.main(argv)

        start, end, error, code = _timed(op)
        if error is None:
            error = "ExitCode" if code != 0 else self.check(inputs, i, buf.getvalue())
        return start, end, error

    def warm_up(self, inputs) -> None:
        for k in range(self.warm_ups):
            self._run(inputs, self.files - 1 - k)

    def setup_op(self, inputs) -> None:
        self._run(inputs, self.files - 1)

    def call(self, inputs, i: int) -> list:
        return [self._run(inputs, i % (self.files - self.warm_ups))]


class CliCheck(_CliWorkload):
    """``norts check`` with adf, rp (k=64), plot data and JSON output."""

    tail_percentile = 85
    n = 250
    plot_files = ("residuals.csv", "hist.csv", "qq.csv", "acf.csv")

    def argv(self, inputs, i: int) -> list[str]:
        for name in self.plot_files:
            (inputs["out"] / name).unlink(missing_ok=True)
        path = inputs["files"][i][0]
        return ["check", "--unit-root", "adf", "--normality", "rp", "--k", "64",
                "--seed", inputs["seeds"][i], "--plot-data", "--out", str(inputs["out"]),
                "--format", "json", str(path)]

    def check(self, inputs, i: int, stdout: str) -> str | None:
        try:
            report = json.loads(stdout)
            pvalues = (report["stationarity"]["p_value"], report["normality"]["p_value"])
        except (ValueError, KeyError, TypeError):
            return "CheckError:json"
        error = next(filter(None, (_check_p(p) for p in pvalues)), None)
        if error:
            return error
        x = inputs["files"][i][1]
        bins = np.histogram_bin_edges(x, bins="fd").size - 1
        max_lag = min(int(np.floor(10.0 * np.log10(self.n))), self.n - 1)
        expected = {"residuals.csv": self.n, "hist.csv": bins, "qq.csv": self.n, "acf.csv": max_lag}
        for name, rows in expected.items():
            path = inputs["out"] / name
            if not path.exists() or len(path.read_text().splitlines()) != rows + 1:
                return f"CheckError:{name}"
        return None


class CliVavra(_CliWorkload):
    """``norts test --method vavra`` with 1000 bootstrap replications, text output."""

    tail_percentile = 90
    n = 1000
    _p_value = re.compile(r"p-value = (\S+)")

    def argv(self, inputs, i: int) -> list[str]:
        path = inputs["files"][i][0]
        return ["test", "--method", "vavra", "--reps", "1000", "--seed", inputs["seeds"][i], str(path)]

    def check(self, inputs, i: int, stdout: str) -> str | None:
        match = self._p_value.search(stdout)
        return _check_p(float(match.group(1)) if match else None)


WORKLOADS = {
    "mc_study": McStudy(),
    "cli_check": CliCheck(),
    "cli_vavra": CliVavra(),
}
