#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wild_corpus --seed 1 --seconds 20 --trace 0

Workloads: ``wild_corpus`` (library API, in one process), ``cli_cold``
(``repro deobfuscate FILE``, one process per script) and ``fleet_mix``
(``repro fleet`` over HTTP).  ``--trace 0`` measures and prints the
end-to-end metrics; ``--trace 1`` is a separate traced run that prints
the per-layer metrics and the per-layer table, and writes its spans
under ``.perfbench-work/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
BENCHMARK.json at the root lists every metric with its unit.

The program is imported from the checkout's ``src``; without it the
run fails before measuring anything.
"""

import argparse
import json
import os
import shutil
import sys

# Bytecode of the benchmark's own modules goes with the program's, into
# the work directory, never next to the sources.
sys.pycache_prefix = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".perfbench-work",
    "pycache",
)

import common  # noqa: E402

WORKLOADS = ("wild_corpus", "cli_cold", "fleet_mix")


def _declared(kind: str):
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not common.source_tree_present():
        print(
            f"error: no program source at {common.SRC}; run from the root "
            "of a checkout",
            file=sys.stderr,
        )
        return 2
    common.use_source_tree()

    if args.workload == "wild_corpus":
        import wild as workload
    elif args.workload == "cli_cold":
        import cli_cold as workload
    else:
        import fleet_mix as workload
    try:
        correct, attempted, failed, values = workload.run(
            args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(common.run_dir(), ignore_errors=True)

    # Every workload reports every declared metric.  End-to-end metrics
    # are all measured; a layer the workload never enters reads 0.
    declared = _declared("per_layer" if args.trace else "end_to_end")
    names = {entry["name"] for entry in declared}
    if set(values) - names:
        raise RuntimeError(f"undeclared metrics: {sorted(set(values) - names)}")
    if not args.trace and names - set(values):
        raise RuntimeError(f"unmeasured metrics: {sorted(names - set(values))}")
    metrics = {
        entry["name"]: common.metric(
            values.get(entry["name"], 0), entry["unit"]
        )
        for entry in declared
    }
    common.print_result(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
