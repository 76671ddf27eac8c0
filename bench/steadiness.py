"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/steadiness.py --workload lookup-mix --runs 10 --first-seed 1

Run from the root of a checkout.  For each end-to-end metric it prints the
median over the runs and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json.  It also prints the share of
failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        print(f"{metric['name']}: median {median:.4f} {metric['unit']}, quartiles "
              f"{q1:.4f}..{q3:.4f}, spread {(q3 - q1) / median:.4f} "
              f"(bound {metric['bound']})")
    ratios = {Fraction(f, a) for f, a in shares}
    print(f"failed share: {', '.join(map(str, sorted(ratios)))}"
          f"{'' if len(ratios) == 1 else '  (differs between runs)'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
