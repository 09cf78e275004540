"""Benchmark of ``norts``: closed-loop workloads with one caller each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced phase;
``BENCHMARK.json`` names both sets and their units.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it state the environment, the tail percentile
with its sample count, the machine's speed during the run (hypervisor
steal and a reference loop timed before and after) and any failed ops by
error class.  ``--smoke`` runs a few ops of every workload in both modes
and checks that every named metric prints with its unit; it makes no
timing assertion.  ``bench/record.json`` records why each workload was
chosen and where its time goes.
"""

from __future__ import annotations

import os

# Before numpy loads, and inherited by every process started from here:
# BLAS threads would otherwise outnumber the cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 3  # fresh starts per run; setup_s is their median


def _import_program():
    """Import ``norts`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "norts" / "__init__.py").is_file():
        sys.exit(f"bench: no norts sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import norts

    if Path(norts.__file__).resolve().parent != SRC / "norts":
        sys.exit(f"bench: imported norts from {norts.__file__}, not from {SRC}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "env_set": THREAD_ENV,
    }


def _cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _machine_jiffies() -> list[int] | None:
    """The machine's CPU time counters (user ... steal), or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float | None:
    """Share of the machine's CPU time the hypervisor took between two
    readings of its counters: a run measured under more steal is slower."""
    if before is None or after is None or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def _reference_ms(seconds: float = 0.3) -> float:
    """Milliseconds per pass of a fixed loop that calls no norts code: a
    gauge of the machine's speed when a run was measured."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 2000)
    passes, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds:
        total = 0.0
        for i in range(20_000):
            total += i * 0.5
        np.correlate(x, x, mode="full")
        passes += 1
    return (time.perf_counter() - start) * 1e3 / passes


def _setup_seconds(args, workdir: Path) -> float:
    """Median wall time of fresh interpreter -> import -> inputs -> one op.

    Runs after this process has imported everything and run its ops, so
    byte-code is compiled and the file cache warm before the first start.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _probe_setup(args) -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(dir=args.workdir))
    workload.setup_op(workload.make_inputs(args.seed, workdir))


def _measure(workload, inputs, seconds: float, min_ops: int) -> dict:
    """Closed loop: calls until `seconds` have passed and `min_ops` ops ran.

    Returns each op's (latency, error), its (start, end) interval, and the
    loop's wall and CPU seconds.
    """
    ops, intervals = [], []
    jiffies0 = _machine_jiffies()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    call = 0
    while time.perf_counter() - start < seconds or len(ops) < min_ops:
        for op_start, op_end, error in workload.call(inputs, call):
            intervals.append((op_start, op_end))
            ops.append((op_end - op_start, error))
        call += 1
    wall = time.perf_counter() - start
    # read after the last call returned, so pool workers are reaped
    cpu = _cpu_seconds() - cpu0
    steal = _steal_share(jiffies0, _machine_jiffies())
    return {"ops": ops, "intervals": intervals, "wall": wall, "cpu": cpu, "steal": steal}


def _percentile(values, p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _min_ops(percentile: int) -> int:
    """Ops needed for at least ten samples beyond the tail percentile."""
    return math.ceil(10 / (1 - percentile / 100.0)) + 1


def _run_length(args, workload) -> tuple[float, int]:
    """Seconds and minimum op count of one measured loop; ``--ops`` (smoke
    mode) replaces both with a plain op count."""
    if args.ops:
        return 0.0, args.ops
    return args.seconds, _min_ops(workload.tail_percentile)


def _end_to_end(args, workload, inputs, workdir: Path) -> tuple[dict, dict]:
    gauge = [_reference_ms()]
    run = _measure(workload, inputs, *_run_length(args, workload))
    gauge.append(_reference_ms())
    print("machine: " + json.dumps({"steal_share": run["steal"], "reference_loop_ms": gauge}))
    passed = [lat for lat, err in run["ops"] if err is None]
    tail = _percentile(passed, workload.tail_percentile) if passed else float("nan")
    beyond = sum(1 for x in passed if x > tail)
    print(f"op_tail_s: p{workload.tail_percentile} of {len(passed)} passed ops, {beyond} beyond it")
    values = {
        "ops_per_s": len(passed) / run["wall"],
        "op_p50_s": statistics.median(passed) if passed else float("nan"),
        "op_tail_s": tail,
        "cpu_s_per_op": run["cpu"] / len(run["ops"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": _setup_seconds(args, workdir),
    }
    return run, values


def _per_layer(args, workload, inputs, workdir: Path) -> tuple[dict, dict]:
    """Untraced half, then traced half; spans give the per-layer numbers.

    The ops of both halves count as attempted, and their failures as failed.
    """
    from spans import TRACED, Tracer, self_times, unattributed

    seconds, min_ops = _run_length(args, workload)
    seconds, min_ops = seconds / 2, max(1, min_ops // 2)
    plain = _measure(workload, inputs, seconds, min_ops)
    tracer = Tracer(workdir / "worker-spans")
    tracer.install()
    workload.warm_up(inputs)  # the wrappers' first calls stay out of the traced phase
    tracer.reset()
    run = _measure(workload, inputs, seconds, min_ops)
    ops = run["intervals"]
    spans, counts = tracer.collect(ops)
    calls, busy = Counter(), Counter()
    for (name, _, _, _, op), own in zip(spans, self_times(spans)):
        if op >= 0:
            calls[name] += 1
            busy[name] += own
    n = len(ops)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name in (f"{module}.{qualname}" for module, qualname in TRACED):
        values[f"{name}.calls"] = calls.get(name, 0) / n
        values[f"{name}.self_s"] = busy.get(name, 0.0) / n
    values["epps.converged_ratio"] = ratio(counts["epps.converged"], calls.get("epps.epps_test", 0))
    values["vavra.replications_used_ratio"] = ratio(
        counts["vavra.replications_used"], counts["vavra.replications_requested"])
    values["rp.draws_per_projection"] = ratio(
        calls.get("rp.stick_breaking_h", 0), calls.get("rp.project_series", 0))
    values["harness.trials_failed"] = counts["harness.trials_failed"] / n
    values["trace.unattributed_s"] = statistics.mean(unattributed(spans, ops))
    plain_rate = len(plain["ops"]) / plain["wall"]
    traced_rate = len(run["ops"]) / run["wall"]
    values["trace.overhead_ratio"] = plain_rate / traced_rate
    _print_layer_shares(busy, n, run["wall"] / n)
    return {"ops": plain["ops"] + run["ops"]}, values


def _print_layer_shares(busy: dict, ops: int, wall_per_op: float) -> None:
    """Self time per module, per op and as a share of the op's wall time."""
    modules: dict[str, float] = {}
    for name, seconds in busy.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + seconds / ops
    shares = {m: {"self_s_per_op": round(s, 6), "share_of_wall": round(s / wall_per_op, 4)}
              for m, s in sorted(modules.items(), key=lambda kv: -kv[1])}
    print("layer_shares: " + json.dumps({"wall_s_per_op": round(wall_per_op, 6), "modules": shares}))


def _run(args) -> int:
    from workloads import WORKLOADS

    spec = _spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    print("environment: " + json.dumps(_environment()))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        inputs = workload.make_inputs(args.seed, workdir)
        workload.warm_up(inputs)
        measure = _per_layer if args.trace else _end_to_end
        run, values = measure(args, workload, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [err for _, err in run["ops"] if err is not None]
    if failed:
        print("failures: " + json.dumps({e: failed.count(e) for e in sorted(set(failed))}))
    result = {
        "correct": not failed,
        "attempted": len(run["ops"]),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


def _smoke() -> int:
    """Each workload briefly in both modes; every named metric must print
    with its unit and a finite value, and every op must pass its checks."""
    spec = _spec()
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                   "--seed", "1", "--ops", "4", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{label}: metric {metric['name']} printed as {got}")
            print(f"{label}: {len(result['metrics'])} metrics, {result['attempted']} ops")
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.probe_setup:
        _probe_setup(args)
        return 0
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
