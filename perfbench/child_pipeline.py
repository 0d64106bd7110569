"""The measured process of ``wild_corpus``: one thread, the library API.

Usage: ``python perfbench/child_pipeline.py JOB.json RESULT.json``

The job names the scripts, the number of passes and, for a traced run,
where to write the spans.  Every pass runs every script once through
one ``Deobfuscator`` in a seeded order; each script's latency is kept
per pass.  A traced run alternates untraced and traced passes, so the
tracing overhead comes from the same process and the same scripts.
The result holds the latencies, the first pass's outputs (checked by
the parent), the counters ``PipelineStats`` returns, the process's peak
resident set, and its CPU time per wall second over the passes.
"""

import json
import random
import sys
import time

import tracing


def peak_rss_mb() -> float:
    """This process's own peak resident set (``VmHWM``).

    ``getrusage`` would not do: Linux carries the peak of the address
    space a process had before ``exec`` into it, so a child's figure
    would include its parent's size at the time of the fork.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str, result_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    scripts = job["scripts"]
    passes = job["passes"]
    traced = job.get("spans_path")

    from repro import Deobfuscator

    tool = Deobfuscator()
    log = tracing.SpanLog() if traced else None
    times = {"untraced": [[] for _ in scripts], "traced": [[] for _ in scripts]}
    outputs = [None] * len(scripts)
    deterministic = True
    counts = {}
    order = list(range(len(scripts)))
    shuffle = random.Random(f"passes-{job['seed']}")
    clock = time.perf_counter
    cpu_started, wall_started = time.process_time(), clock()
    for number in range(passes):
        tracing_now = log is not None and number % 2 == 1
        if tracing_now:
            log.install()
        mode = "traced" if tracing_now else "untraced"
        shuffle.shuffle(order)
        for index in order:
            if tracing_now:
                log.op = f"{number}:{index}"
            started = clock()
            result = tool.deobfuscate(scripts[index])
            times[mode][index].append(clock() - started)
            text = [result.script, *result.layers]
            if outputs[index] is None:
                outputs[index] = text
            elif outputs[index] != text:
                deterministic = False
            if tracing_now:
                tracing.add_counts(counts, result)
        if tracing_now:
            log.uninstall()

    cpu_wall = (time.process_time() - cpu_started) / (clock() - wall_started)
    payload = {
        "cpu_wall": cpu_wall,
        "times": times,
        "outputs": outputs,
        "deterministic": deterministic,
        "peak_rss_mb": peak_rss_mb(),
    }
    if log is not None:
        payload["layers"] = tracing.summary(log, counts)
        log.write(traced)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
