"""Run the benchmark once per seed and print each metric's median and spread.

    python3 perfbench/spread.py --workload evaluate-hull

Runs seeds 1 to 10 untraced, each for the run_seconds of BENCHMARK.json.
The spread is the distance between the first and the third quartile of
the runs' values (statistics.quantiles, n=4) as a share of their median.
Runs go one after another, from the root of the checkout, so that no two
compete for the CPUs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    values: dict[str, list[float]] = {}
    for seed in SEEDS:
        started = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - started:.1f}s, {result['failed']} of "
              f"{result['attempted']} operations failed", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        middle = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{name}: median {middle:.6g}, spread {(q3 - q1) / middle:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
