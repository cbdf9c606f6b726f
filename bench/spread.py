"""Run one workload under several seeds and report each metric's spread.

    python3 bench/spread.py --workload sweep --runs 10 [--first-seed 1]

Prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({elapsed:.0f} s): correct {result['correct']} "
              f"failed {result['failed']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        print(f"{args.workload:8s} {metric['name']:12s} median {q2:12.6g} "
              f"spread {(q3 - q1) / q2:6.3f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
