"""Steadiness check: run one workload N times and summarise each metric.

    python3 perfbench/steady.py --workload service-open --runs 10 \\
        --first-seed 1 [--seconds 20] [--trace 0]

Each run is a fresh ``perfbench/run.py`` process with its own seed,
exactly as a benchmark harness would start it.  For every metric the
script prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread -- the quartile distance as a share of the median --
next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        result = json.loads(lines[-1])
        failures += not result["correct"]
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {args.runs} runs, {failures} failed")
    print(f"{'metric':28} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:28} {med:11.4g} {q1:11.4g} {q3:11.4g} "
              f"{spread:7.3f} {'' if bound is None else bound:>6}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
