"""``wild_corpus``: one thread calls ``Deobfuscator.deobfuscate`` on a
seeded wild corpus, heavy tail included.

The corpus (``inputs.wild_corpus``) is handed to a fresh child process
(``child_pipeline.py``) that makes a fixed number of passes over it,
each in a seeded order.  This machine changes speed in phases that last
seconds, so a script's latency is the fastest of its passes: the passes
are spread over the run, and a slow phase seldom covers all of them.

End-to-end metrics (tracing off):

* ``ops_per_s``: scripts per second, the corpus size over the sum of the
  per-script latencies;
* ``latency_p50_ms``, ``latency_p75_ms``: quantiles of those latencies
  (the p90 and p95 are printed too; they vary too much from seed to
  seed to gate on);
* ``setup_s``: a fresh interpreter to ``import repro`` to the first
  result (median of several launches, each timed from spawn to exit);
* ``peak_rss_mb``: the measuring child's peak resident set.

The traced run alternates untraced and traced passes and reports the
per-layer self times, the counters ``PipelineStats`` returns, and the
tracing overhead between the two kinds of pass.
"""

import json
import os
import sys
import time

import common
import inputs
import tracing

# Nominal length of one pass on the reference machine: --seconds buys
# this many passes, so the work a run does is fixed by --seconds alone
# and two commits measured with the same settings do the same work.
PASS_SECONDS = 7.5
SETUP_LAUNCHES = 9
BARE_LAUNCHES = 5


def passes_for(seconds: int) -> int:
    return max(2, round(seconds / PASS_SECONDS))


def _probe(script_path: str):
    wall, code, out, err, _usage = common.spawn_and_wait(
        [sys.executable, os.path.join(common.HERE, "child_setup.py"),
         script_path],
        timeout=60,
    )
    if code != 0:
        raise RuntimeError(
            f"set-up probe exited {code}: {err.decode(errors='replace')}"
        )
    return wall, json.loads(out.decode().strip().splitlines()[-1])


def measure_setup(work: str, one_liner, trace: bool):
    """Median spawn-to-exit time of ``import repro`` + first result."""
    path = os.path.join(work, "setup.ps1")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(one_liner.script)
    _probe(path)  # compiles bytecode into the cache if it is cold
    walls, reports = [], []
    for _ in range(SETUP_LAUNCHES):
        wall, report = _probe(path)
        walls.append(wall)
        reports.append(report)
    ok = all(
        inputs.fold(report["script"]) == inputs.fold(one_liner.clean)
        for report in reports
    )
    layers = {}
    if trace:
        bare = [
            common.spawn_and_wait([sys.executable, "-c", "pass"])[0]
            for _ in range(BARE_LAUNCHES)
        ]
        layers = {
            "cli.interpreter_ms": common.median(bare) * 1000,
            "cli.import_ms": common.median(r["import_ms"] for r in reports),
            "cli.first_run_ms": common.median(
                r["first_run_ms"] for r in reports
            ),
            "cli.modules_imported": reports[0]["modules_imported"],
        }
    return common.median(walls), ok, layers


def check_outputs(samples, outputs):
    """Reparse, idempotence and ground truth, per script.

    Returns ``(failed_indices, unexpected)``: every script whose output
    fails a check, and the subset that is not a known fault.
    """
    from repro import Deobfuscator
    from repro.pslang.parser import try_parse

    tool = Deobfuscator()
    failed, unexpected = [], []
    for index, (sample, texts) in enumerate(zip(samples, outputs)):
        output = texts[0]
        problems = []
        if try_parse(output)[0] is None:
            problems.append("output does not reparse")
        elif tool.deobfuscate(output).script != output:
            problems.append("deobfuscating the output again changes it")
        missing = inputs.missing_indicators(sample, texts)
        if missing:
            problems.append(f"indicators not recovered: {missing}")
        if problems:
            failed.append(index)
            if not sample.known_fault:
                unexpected.append((sample.ident, problems))
    return failed, unexpected


def run(seed: int, seconds: int, trace: bool):
    work = common.run_dir()
    samples = inputs.wild_corpus(seed)
    print(f"wild_corpus: {json.dumps(inputs.describe(samples))}")
    setup_line = next(
        item for item in inputs.one_liners(seed) if item.technique == "concat"
    )
    setup_s, setup_ok, cli_layers = measure_setup(work, setup_line, trace)

    passes = passes_for(seconds)
    job = {
        "scripts": [sample.script for sample in samples],
        "passes": 2 * passes if trace else passes,
        "seed": seed,
    }
    spans_path = os.path.join(common.WORK, f"spans-wild_corpus-{seed}.jsonl")
    if trace:
        job["spans_path"] = spans_path
    job_path = os.path.join(work, "job.json")
    result_path = os.path.join(work, "result.json")
    common.write_json(job_path, job)
    started = time.perf_counter()
    _wall, code, _out, err, _usage = common.spawn_and_wait(
        [sys.executable, os.path.join(common.HERE, "child_pipeline.py"),
         job_path, result_path],
        timeout=170,
    )
    if code != 0:
        raise RuntimeError(
            f"pipeline child exited {code}: {err.decode(errors='replace')}"
        )
    measured = time.perf_counter() - started
    result = common.read_json(result_path)

    failed_idx, unexpected = check_outputs(samples, result["outputs"])
    for ident, problems in unexpected:
        print(f"  FAILED {ident}: {'; '.join(problems)}")
    if not result["deterministic"]:
        print("  FAILED: outputs differ between passes")
    if not setup_ok:
        print("  FAILED: set-up probe output differs from the clean statement")
    correct = (
        not unexpected and result["deterministic"] and setup_ok
    )
    attempted = len(samples) * job["passes"]
    failed = len(failed_idx) * job["passes"]

    best = [min(times) for times in result["times"]["untraced"]]
    print(f"  cpu/wall={result['cpu_wall']:.3f} (measuring child, passes)")
    print(
        f"  passes={job['passes']} scripts={len(samples)} "
        f"measured_s={measured:.1f} "
        f"latency_p90_ms={common.percentile(best, 90) * 1000:.2f} "
        f"latency_p95_ms={common.percentile(best, 95) * 1000:.2f}"
    )
    if not trace:
        metrics = {
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": common.median(best) * 1000,
            "latency_p75_ms": common.percentile(best, 75) * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return correct, attempted, failed, metrics

    traced_best = [min(times) for times in result["times"]["traced"]]
    layers = result["layers"]
    for line in tracing.layer_table(layers["self_times"], layers["traced_total"]):
        print(line)
    print(f"  spans -> {os.path.relpath(spans_path, common.ROOT)}")
    return correct, attempted, failed, {
        **tracing.layer_metrics(layers),
        "trace.overhead_pct": tracing.overhead_pct(best, traced_best),
        **cli_layers,
    }
