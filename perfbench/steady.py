#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and judge the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload wild_corpus --runs 10 --sets 2

Each set runs the workload ``--runs`` times for BENCHMARK.json's
``run_seconds``, one seed per run (seeds 1 to ``--runs``, the same seeds
in every set), exactly as BENCHMARK.json's command would.  For each end-to-end metric it prints
the median, the quartiles and the spread (quartile distance over the
median), and next to every run the CPU/wall ratio of its measured
phase: a single-threaded measurement (``wild_corpus``'s measuring child,
``cli_cold``'s invocations) well under 1 waited for a CPU; ``fleet_mix``
counts client and fleet together, out of 2 CPUs.  With two sets it also checks what a
second set of runs of the same code must satisfy: every spread but
``setup_s``'s within the metric's bound, every median within the bound
of the first set's, better or worse, and the same share of failed
operations.  ``setup_s`` is the median of a few launches in each run; its
spread is printed but, as in the regression gate, only its median is
held to the bound.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    ratio = re.search(r"cpu/wall=([0-9.]+)", proc.stdout)
    result["cpu_wall"] = float(ratio.group(1)) if ratio else float("nan")
    return result


def quartiles(values):
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, declared) -> dict:
    summary = {}
    for entry in declared:
        values = [run["metrics"][entry["name"]]["value"] for run in runs]
        q1, q2, q3 = quartiles(values)
        summary[entry["name"]] = {
            "median": q2,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"),
        }
    return summary


def print_set(label, runs, summary, declared) -> None:
    print(f"{label}:")
    for index, run in enumerate(runs):
        values = " ".join(
            f"{entry['name']}={run['metrics'][entry['name']]['value']:.4g}"
            for entry in declared
        )
        print(
            f"  run {index + 1:>2} seed={run['seed']} "
            f"cpu/wall={run['cpu_wall']:.3f} failed={run['failed']}/"
            f"{run['attempted']} correct={run['correct']}  {values}"
        )
    for entry in declared:
        stats = summary[entry["name"]]
        print(
            f"  {entry['name']:<16} median={stats['median']:.4f} "
            f"q1={stats['q1']:.4f} q3={stats['q3']:.4f} "
            f"spread={stats['spread']:.3f} (bound {entry['bound']}, "
            f"a third {entry['bound'] / 3:.3f}) {entry['unit']}"
        )


def compare(first, second, declared, runs_a, runs_b) -> bool:
    ok = True
    for entry in declared:
        name, bound = entry["name"], entry["bound"]
        for label, summary in (("set 1", first), ("set 2", second)):
            if name != "setup_s" and summary[name]["spread"] > bound:
                print(f"  FAIL {label} {name}: spread "
                      f"{summary[name]['spread']:.3f} > bound {bound}")
                ok = False
        a, b = first[name]["median"], second[name]["median"]
        change = (b - a) / a
        status = "ok" if abs(change) <= bound else "FAIL"
        ok &= abs(change) <= bound
        print(f"  {status} {name}: second median moved by {change:+.3f} "
              f"(bound {bound}, either way)")
    shares = {
        (run["failed"], run["attempted"]) for run in runs_a + runs_b
    }
    ratios = {failed / attempted for failed, attempted in shares}
    if len(ratios) != 1:
        print(f"  FAIL failed share differs between runs: {sorted(shares)}")
        ok = False
    if not all(run["correct"] for run in runs_a + runs_b):
        print("  FAIL a run reported correct=false")
        ok = False
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    declared = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    seeds = range(1, args.runs + 1)
    ok = True
    for workload in args.workload:
        print(f"== {workload} ({args.runs} runs x {args.sets} set(s), "
              f"{seconds} s each)", flush=True)
        sets = []
        for number in range(args.sets):
            runs = []
            for seed in seeds:
                run = one_run(workload, seed, seconds)
                run["seed"] = seed
                runs.append(run)
            summary = summarize(runs, declared)
            print_set(f"set {number + 1}", runs, summary, declared)
            sys.stdout.flush()
            sets.append((runs, summary))
        if len(sets) == 2:
            ok &= compare(sets[0][1], sets[1][1], declared,
                          sets[0][0], sets[1][0])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
