"""Benchmark of the ``superelliptic`` command line.

    python3 bench/run.py --workload lookup-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every operation is one CLI call made as a
user makes it, ``python -m superelliptic.cli ...`` with ``PYTHONPATH=src``,
one child process at a time (a closed loop with one client).  The workload's
inputs and the order of its calls come from ``--seed``.  Each call's output
is checked against independent computations (:mod:`checks`) outside the
timed region.  Call latency is reported in multiples of a reference call
(:data:`workloads.REFERENCE`) made just before each call, and set-up time in
seconds of a machine on which that call takes ``REFERENCE_SECONDS``.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, taken in-process by :mod:`layers`.  Per-call
results go to ``.bench_out/`` in the checkout.  See README.md beside this
file for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time

import checks
from checks import EXIT_OK
from workloads import (REFERENCE_SECONDS, REFERENCE_TERMS, ROOT, TAIL_MIN_SAMPLES,
                       TAIL_RANK, WORKLOADS, Workload, call, reference_call)

OUT = ROOT / ".bench_out"


# -- the run -------------------------------------------------------------------------

def set_up(workload: Workload) -> float:
    """One set-up (the warm-up call, then the workload's input files), in
    multiples of a reference call made just before it."""
    unit = reference_call(REFERENCE_TERMS)
    start = time.perf_counter()
    for argv in workload.setup_calls():
        _, code, _, err = call(argv)
        if code != EXIT_OK:
            raise RuntimeError(f"set-up call {argv} failed: {err.strip()}")
    return (time.perf_counter() - start) / unit


def measure(workload: Workload, seconds: float, log) -> dict:
    """Whole rounds of checked, timed calls until ``seconds`` have passed.

    The set-up is repeated before every round, so that its median spans the
    run like the calls do.
    """
    setups = [set_up(workload)]
    ref = workload.prepare()
    ratios: dict[str, list[float]] = {}
    attempted = failed = unexpected = 0
    begin = time.perf_counter()
    while True:
        for op in workload.round(ref):
            unit = reference_call(workload.reference_terms)
            elapsed, code, out, err = call(op["argv"])
            problems = checks.check(op, code, out, err, ref)
            attempted += 1
            failed += bool(problems)
            unexpected += bool(problems) and not op.get("known_fault")
            ratios.setdefault(op["kind"], []).append(elapsed / unit)
            log.write(json.dumps({"kind": op["kind"], "input": op.get("input"),
                                  "argv": op["argv"], "seconds": elapsed,
                                  "reference_seconds": unit, "problems": problems,
                                  "known_fault": op.get("known_fault", False)}) + "\n")
            if problems and not op.get("known_fault"):
                print(f"FAILED {' '.join(op['argv'])}: {problems[:3]}", file=sys.stderr)
        if (time.perf_counter() - begin >= seconds
                and len(workload.samples(ratios)) >= workload.min_samples):
            break
        setups.append(set_up(workload))

    calls = sorted(workload.samples(ratios))
    median = statistics.median(calls)
    metrics = {
        "setup_s": (statistics.median(setups) * REFERENCE_SECONDS, "s"),
        "call_x": (median, "x"),
        "call_tail_x": (calls[-TAIL_RANK] if len(calls) >= TAIL_MIN_SAMPLES else median, "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    return {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "superelliptic" / "cli.py").is_file():
        print(f"error: no superelliptic sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2

    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](random.Random(args.seed), work)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    if args.trace:
        import layers
        result = layers.run_traced(workload, args.seconds, stem.with_suffix(".trace.jsonl"))
    else:
        with open(stem.with_suffix(".ops.jsonl"), "w", encoding="utf-8") as log:
            result = measure(workload, args.seconds, log)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
