#!/usr/bin/env python3
"""Steadiness report for the benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--out results.json]
    python3 perfbench/steadiness.py --trace

Run from the repository root. The default mode runs every workload of
BENCHMARK.json on seeds 1 to `--runs`, for BENCHMARK.json's `run_seconds`
each, and prints for each end-to-end metric the median, the first and
third quartiles (Python's `statistics.quantiles(values, n=4)`), and the
interquartile spread as a share of the median next to the metric's bound.
A spread above its bound is flagged OUT; above a third of its bound, WIDE.
`--out` keeps every raw result so two sets taken at different times can be
compared with `--compare`:

    python3 perfbench/steadiness.py --compare first.json second.json

which flags every metric whose second median is worse than the first by
more than its bound.

`--trace` runs each workload's traced run twice with the same seed and
checks that every count-valued per-layer metric repeats exactly.

Exits 1 when anything is flagged OUT or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench, workload, seed, trace):
    command = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: correctness check failed")
    return result


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(bench, results):
    """Prints the spread table; returns True when nothing is OUT."""
    steady = True
    print(f"{'workload':<14} {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = spread_of(values)
            flag = ""
            if spread > bound:
                flag, steady = "OUT", False
            elif spread > bound / 3:
                flag = "WIDE"
            print(f"{workload:<14} {name:<22} {median:>12.5g} {q1:>12.5g} {q3:>12.5g}"
                  f" {spread:>8.2%} {bound:>6.2f} {flag}")
    return steady


def compare(bench, first, second):
    """Flags metrics whose second median is worse than the first by more
    than the bound; returns True when none is."""
    agree = True
    print(f"{'workload':<14} {'metric':<22} {'first':>12} {'second':>12} {'change':>8} {'bound':>6}")
    for workload in first:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            change = (b - a) / a
            worse = change if metric["better"] == "lower" else -change
            flag = ""
            if worse > bound:
                flag, agree = "OUT", False
            print(f"{workload:<14} {name:<22} {a:>12.5g} {b:>12.5g} {change:>8.2%} {bound:>6.2f} {flag}")
    return agree


def check_trace(bench, workloads):
    """Runs each traced workload twice on one seed; returns True when every
    count repeats exactly."""
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    repeat = True
    for workload in workloads:
        a, b = (run_once(bench, workload, 1, True) for _ in range(2))
        differ = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        print(f"{workload:<14} {len(counts)} counts, {'all repeat' if not differ else 'differ: ' + ', '.join(differ)}")
        for metric in bench["per_layer"]:
            value = a["metrics"][metric["name"]]["value"]
            print(f"    {metric['name']:<30} {value:>14.6g} {metric['unit']}")
        repeat = repeat and not differ
    return repeat


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(bench, first, second) else 1
    try:
        if args.trace:
            return 0 if check_trace(bench, names) else 1
        results = {}
        for workload in names:
            results[workload] = []
            for seed in range(1, args.runs + 1):
                results[workload].append(run_once(bench, workload, seed, False))
                print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
