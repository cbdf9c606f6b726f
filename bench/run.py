"""cdpulse benchmark: four oracle-checked workloads, timed and traced.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one row each

Workloads (see workloads.py): figures, sweep, targets, costs.  Load is one
closed-loop client: this process runs one task after another, and it and
its BLAS use at most nproc threads.

A run repeats passes over the workload's task list until --seconds of task
time are measured (at least three passes), then checks every output
against an exact oracle (oracle.py).  Task inputs come from --seed alone;
seed 1 is the default and seed 1604 is held out for confirming claims.

With --trace 0 the last line reports the end-to-end metrics:
  wall_s       median over passes of one pass's summed task time
  task_p50_ms  percentiles over distinct tasks of the task latency (a task
  task_p95_ms  is one CLI command for figures and sweep, which repeat every
               pass and count at their median; one design/evolve/metrics
               chain with fresh inputs for targets and costs)
  setup_s      median of five fresh-interpreter ``import cdpulse, cdpulse.cli``
  peak_rss_mb  the run's peak resident set size
With --trace 1 it reports per-layer metrics instead: half the time runs
untraced, half with wrappers on the program's public names (tracing.py),
and ``trace.overhead_s`` is the difference of the two wall_s.  Per-layer
times and counts are medians over traced passes, per pass.

Times are speed-calibrated.  On a shared host the core's speed flips
between states about 1.7x apart every 0.05-3 s, which moves a raw median
by 20-50% from run to run.  While tasks run, a SIGALRM every 10 ms times a
short fixed reference computation on the main thread (SpeedSampler).  A
task's wall time, less the sampler's own time inside it, is multiplied by
REFERENCE_NS over the mean sample time during and around the task: the
time the task would take on an uncontended core.  Raw pass times are kept
in the record.

Each run also writes .bench_out/<workload>-seed<n>-trace<t>.json with the
environment, sample counts, sha256 digests of every output file, failure
messages and (traced) the spans.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 1
HELD_OUT_SEED = 1604
SETUP_REPEATS = 5
MIN_PASSES = 3
TRACE_MIN_PASSES = 2  # per phase of a traced run
WORKLOAD_NAMES = ("figures", "sweep", "targets", "costs")
# Speed calibration: the reference unit's time on an uncontended core of the
# 2-core Xeon box the benchmark was defined on, and the sampling period.
REFERENCE_NS = 150_000
SAMPLE_EVERY_NS = 10_000_000

_clock = time.perf_counter_ns

# Modules that load numpy or cdpulse (numpy, oracle, tracing, workloads) are
# imported inside functions: main() first sets the BLAS thread count and
# puts src/ and bench/ on sys.path.


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_setup() -> float:
    """Median seconds from a fresh interpreter to ``import cdpulse, cdpulse.cli`` done.

    The children run pinned to the sampler's core, so their time is scaled
    by the speed that core had meanwhile.
    """
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        with SpeedSampler() as sampler:
            for _ in range(SETUP_REPEATS):
                start = _clock()
                subprocess.run([sys.executable, "-c", "import cdpulse, cdpulse.cli"],
                               env=env, cwd=ROOT, check=True)
                end = _clock()
                times.append((end - start) * sampler.factor(start, end) / 1e9)
    finally:
        os.sched_setaffinity(0, cpus)
    return _median(times)


def _reference_unit() -> None:
    """Fixed work of the same kind as the program's: small numpy calls,
    scalar float math and number formatting."""
    import numpy as np

    acc = 0.0
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    for i in range(10):
        t = np.linspace(0.0, 1.0, 65)
        h = np.array([[0.0, -1j * t[i], 0.0], [1j * t[i], 0.0, -0.5j], [0.0, 0.5j, 0.0]])
        v = v + 1e-3 * (h @ v)
        acc += float(np.hypot(t, 1.0 - t).sum()) + math.sin(0.1 * i) * math.sqrt(i + 1.0)
        acc += len(f"{acc:.17g},{v[0].real:.17g}")


class SpeedSampler:
    """Samples the speed of the core the main thread runs on.

    While active, a SIGALRM every SAMPLE_EVERY_NS runs the reference unit
    from a signal handler, i.e. on the main thread between two bytecodes of
    whatever it is doing, and records when it ran and how long it took.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.probes: list[int] = []

    def _sample(self, signum, frame) -> None:
        begin = _clock()
        _reference_unit()  # warms the caches the task has just evicted
        start = _clock()
        _reference_unit()
        end = _clock()
        self.starts.append(begin)
        self.ends.append(end)
        self.probes.append(end - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        interval = SAMPLE_EVERY_NS / 1e9
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def _span(self, start: int, end: int) -> range:
        return range(bisect.bisect_left(self.starts, start),
                     bisect.bisect_left(self.starts, end))

    def stolen(self, start: int, end: int) -> int:
        """Nanoseconds the sampler itself ran inside [start, end]."""
        return sum(self.ends[j] - self.starts[j] for j in self._span(start, end))

    def factor(self, start: int, end: int) -> float:
        """REFERENCE_NS over the mean sample time around [start, end]."""
        window = self._span(start - SAMPLE_EVERY_NS, end + SAMPLE_EVERY_NS)
        if not window:  # the last sample before the interval
            j = max(bisect.bisect_left(self.starts, start) - 1, 0)
            window = range(j, j + 1)
        mean = sum(self.probes[j] for j in window) / len(window)
        return REFERENCE_NS / mean


def run_passes(workload, seconds: float, min_passes: int, first: int = 0,
               tracer=None) -> list[dict]:
    """Run passes first, first+1, ... until ``seconds`` of task time; check each.

    Each task's wall time, less the sampler's own time inside it, is scaled
    to reference speed by the samples taken during and around it.
    """
    import tracing

    passes, measured, k = [], 0.0, first
    while k - first < min_passes or measured < seconds:
        tasks = workload.make_pass(k)
        results = []
        if tracer is not None:
            tracer.reset()
            tracer.install()
        elif tracing.installed():
            raise RuntimeError("tracing wrappers are installed in an untraced pass")
        try:
            with SpeedSampler() as sampler:
                for i, task in enumerate(tasks):
                    call = task.run
                    if tracer is not None:
                        tracer.task = f"{k}:{i}"
                        call = tracer.timed("task", call)
                    start = _clock()
                    try:
                        output, error = call(), None
                    except Exception as exc:  # a failed task is counted, not fatal
                        output, error = None, f"{type(exc).__name__}: {exc}"
                    results.append((start, _clock(), output, error))
        finally:
            if tracer is not None:
                tracer.uninstall()
                stats, extra = tracer.take()
        record = {"index": k, "keys": [], "latencies_ns": [], "scaled_ns": [], "errors": [],
                  "rows": 0, "bytes": 0, "global_error": 0.0, "infidelity": 0.0,
                  "cost_error": 0.0, "digests": {}}
        if tracer is not None:
            record["stats"], record["extra"] = stats, extra
        for i, (task, (start, end, output, error)) in enumerate(zip(tasks, results)):
            latency = end - start - sampler.stolen(start, end)
            record["keys"].append(task.label if task.repeats else f"{k}:{i}")
            record["latencies_ns"].append(latency)
            record["scaled_ns"].append(latency * sampler.factor(start, end))
            if error is None:
                try:
                    outcome = workload.check(task, output)
                except Exception as exc:  # any check error fails the task
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                record["errors"].append(f"pass {k} {task.label}: {error}")
                continue
            for key in ("global_error", "infidelity", "cost_error"):
                record[key] = max(record[key], getattr(outcome, key))
            record["rows"] += outcome.rows
            record["bytes"] += outcome.bytes
            if outcome.digests is not None:
                record["digests"][task.label] = outcome.digests
        record["raw_wall_s"] = sum(record["latencies_ns"]) / 1e9
        record["wall_s"] = sum(record["scaled_ns"]) / 1e9
        measured += record["raw_wall_s"]
        passes.append(record)
        k += 1
    return passes


def task_latencies_ms(passes: list[dict]) -> list[float]:
    """One latency per distinct task: the median over the passes it ran in.

    Targets and costs draw new inputs every pass, so each run is its own
    task; figures and sweep repeat the same commands every pass.
    """
    runs: dict[str, list[float]] = {}
    for p in passes:
        for key, ns in zip(p["keys"], p["scaled_ns"]):
            runs.setdefault(key, []).append(ns / 1e6)
    return [_median(v) for v in runs.values()]


def end_to_end(passes: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    import numpy as np

    p50, p95 = np.percentile(task_latencies_ms(passes), [50, 95])
    return {
        "wall_s": {"value": _median([p["wall_s"] for p in passes]), "unit": "s"},
        "task_p50_ms": {"value": float(p50), "unit": "ms"},
        "task_p95_ms": {"value": float(p95), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def _layer_values(p: dict) -> dict:
    """Per-layer figures of one traced pass, times speed-calibrated like wall_s."""
    stats, extra = p["stats"], p["extra"]
    scale = p["wall_s"] / p["raw_wall_s"]

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def self_ms(*names):
        return sum(stats.get(n, (0, 0, 0))[1] for n in names) * scale / 1e6

    def total_us(name):
        return stats.get(name, (0, 0, 0))[2] * scale / 1e3

    def per(value, count):
        return value / count if count else 0.0

    steps = extra.get("dynamics.evolve.steps", 0)
    points = extra.get("metrics.ratio_surface.points", 0)
    return {
        "dynamics.evolve.calls": calls("dynamics.evolve"),
        "dynamics.evolve.steps": steps,
        "dynamics.evolve.self_ms": self_ms("dynamics.evolve"),
        "dynamics.evolve.us_per_step": per(total_us("dynamics.evolve"), steps),
        "dynamics.hamiltonian.evals": calls("dynamics.hamiltonian"),
        "dynamics.hamiltonian.self_ms": self_ms("dynamics.hamiltonian"),
        "dynamics.observables.self_ms": self_ms("dynamics.observables"),
        "basis.vectors.calls": calls("basis.vectors"),
        "basis.self_ms": self_ms("basis.vectors", "basis.vector_derivatives"),
        "cli.commands": calls("cli.command"),
        "cli.parse_ms": self_ms("cli.parse"),
        "cli.self_ms": self_ms("cli.command"),
        "cli.rows_written": p["rows"],
        "cli.bytes_written": p["bytes"],
        "cli.us_per_row": per(self_ms("cli.command") * 1e3, p["rows"]),
        "metrics.ratio_surface.points": points,
        "metrics.ratio_surface.self_ms": self_ms("metrics.ratio_surface"),
        "metrics.ratio_surface.us_per_point": per(total_us("metrics.ratio_surface"), points),
        "metrics.mode_comparison_ratio.calls": calls("metrics.mode_comparison_ratio"),
        "metrics.drive_metrics.calls": calls("metrics.drive_metrics"),
        "metrics.drive_metrics.self_ms": self_ms("metrics.drive_metrics"),
        "metrics.drive_metrics.us_per_call": per(total_us("metrics.drive_metrics"),
                                                 calls("metrics.drive_metrics")),
        "protocols.design.calls": calls("protocols.design"),
        "protocols.design.self_ms": self_ms("protocols.design"),
        "protocols.design.us_per_call": per(total_us("protocols.design"),
                                            calls("protocols.design")),
        "schedules.cubic.calls": calls("schedules.cubic"),
    }


def per_layer(untraced: list[dict], traced: list[dict], spec: list[dict]) -> dict:
    units = {m["name"]: m["unit"] for m in spec}
    rows = [_layer_values(p) for p in traced]
    values = {name: _median([r[name] for r in rows]) for name in rows[0]}
    everything = untraced + traced
    values["dynamics.max_global_error"] = max(p["global_error"] for p in everything)
    values["dynamics.max_infidelity"] = max(p["infidelity"] for p in everything)
    values["trace.overhead_s"] = (_median([p["wall_s"] for p in traced])
                                  - _median([p["wall_s"] for p in untraced]))
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def environment() -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "cdpulse").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import oracle
    import tracing
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_out"
    workload = WORKLOADS[name](seed, out_dir / f"work-{name}-{os.getpid()}")
    tracer = None
    try:
        if trace:
            untraced = run_passes(workload, seconds / 2, TRACE_MIN_PASSES)
            tracer = tracing.Tracer()
            traced = run_passes(workload, seconds / 2, TRACE_MIN_PASSES,
                                first=len(untraced), tracer=tracer)
            passes = untraced + traced
            metrics = per_layer(untraced, traced, spec["per_layer"])
        else:
            setup_s = measure_setup()
            passes = run_passes(workload, seconds, MIN_PASSES)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(passes, setup_s, peak_rss_mb)
    finally:
        workload.close()
    errors = [e for p in passes for e in p["errors"]]
    # every pass reproduced the first pass's files, or failed a task
    digests = next((p["digests"] for p in passes if p["digests"]), {})
    attempted = sum(len(p["latencies_ns"]) for p in passes)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "environment": environment(),
        "tolerances": oracle.TOLERANCES,
        "accuracy": {key: max(p[key] for p in passes)
                     for key in ("global_error", "infidelity", "cost_error")},
        "passes": len(passes),
        "samples": {"task_runs": attempted,
                    "distinct_tasks": len(task_latencies_ms(passes)),
                    "setup_runs": 0 if trace else SETUP_REPEATS},
        "pass_wall_s": [p["wall_s"] for p in passes],
        "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
        "digests": digests,
        "outputs_sha256": hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()).hexdigest() if digests else None,
        "errors": errors,
        "metrics": metrics,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),  # one message per failed task
        "metrics": metrics,
        "record": record,
        "record_path": path,
    }


def _print_summary(result: dict) -> None:
    rec = result["record"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  passes {rec['passes']}  "
          f"task runs {result['attempted']}  distinct tasks "
          f"{rec['samples']['distinct_tasks']}  failed {result['failed']}  "
          f"record {result['record_path'].relative_to(ROOT)}")
    if rec["outputs_sha256"]:
        print(f"  outputs sha256 {rec['outputs_sha256']}")
    for error in rec["errors"][:5]:
        print(f"  FAIL {error}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in a fresh process; one table row per workload."""
    rows, combined = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[name] = result["metrics"]
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    names = list(next(iter(rows.values())))
    units = {n: rows[WORKLOAD_NAMES[0]][n]["unit"] for n in names}
    cells = [f"{n} [{units[n]}]" for n in names]
    width = max(12, *(len(c) for c in cells))
    print("workload  " + "  ".join(f"{c:>{width}}" for c in cells))
    for name, metrics in rows.items():
        print(f"{name:8s}  " + "  ".join(
            f"{metrics[n]['value']:>{width}.6g}" for n in names))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)  # before numpy loads its BLAS
    if not (SRC / "cdpulse" / "__init__.py").is_file():
        print(f"run.py: no cdpulse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
