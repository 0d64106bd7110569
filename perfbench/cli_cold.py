"""``cli_cold``: ``repro deobfuscate FILE``, one process after another.

Each round runs one invocation per Table II technique of the
obfuscation catalog, in a seeded order, each on a one-liner the
benchmark obfuscated from a clean statement (``inputs.one_liners``).
Interpreter start, the import graph and the first, cold pipeline run
make up almost all of an invocation; the pipeline does little work.

Bytecode state: every timed invocation finds the program's bytecode
cached (outside the source tree, see ``common``), which is the state of
an installed package.  ``setup_s`` is the price of getting there: the
first invocation with an empty bytecode cache, which compiles and
writes every module it imports, the standard library's included, since
the cache lives outside every source tree (median of three, each from
empty).

This machine changes speed in phases that last seconds, so a one-liner's
latency is its fastest invocation (spawn to exit, output read) over the
rounds, which are spread over the run.  End-to-end metrics (tracing
off): ``ops_per_s`` (one-liners over the sum of their latencies),
``latency_p50_ms`` and ``latency_p75_ms`` (quantiles of the latencies),
``setup_s`` and ``peak_rss_mb`` (the largest child).  The traced run times the same
invocations through ``cli_launcher.py``, which splits each into import
and first-run time, next to a bare interpreter.
"""

import os
import random
import shutil
import sys
import time

import common
import inputs
import tracing

# Nominal length of one round on the reference machine; --seconds buys
# this many rounds, so the work a run does is fixed by --seconds alone.
ROUND_SECONDS = 5.0
COLD_LAUNCHES = 3
BARE_LAUNCHES = 5


def rounds_for(seconds: int) -> int:
    return max(2, round(seconds / ROUND_SECONDS))


def _invoke(path: str, launcher: bool = False, env=None):
    entry = (
        [os.path.join(common.HERE, "cli_launcher.py")]
        if launcher
        else ["-m", "repro"]
    )
    return common.spawn_and_wait(
        [sys.executable, *entry, "deobfuscate", path], timeout=60, env=env
    )


def measure_setup(work: str, path: str) -> float:
    """Median first invocation with an empty bytecode cache."""
    walls = []
    for number in range(COLD_LAUNCHES):
        prefix = os.path.join(work, f"pycache-cold-{number}")
        env = common.child_env()
        env["PYTHONPYCACHEPREFIX"] = prefix
        wall, code, _out, err, _usage = _invoke(path, env=env)
        shutil.rmtree(prefix, ignore_errors=True)
        if code != 0:
            raise RuntimeError(
                f"cold invocation exited {code}: "
                f"{err.decode(errors='replace')}"
            )
        walls.append(wall)
    return common.median(walls)


def run(seed: int, seconds: int, trace: bool):
    work = common.run_dir()
    liners = inputs.one_liners_in_child(seed)
    paths = []
    for index, liner in enumerate(liners):
        path = os.path.join(work, f"{index:02d}-{liner.technique}.ps1")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(liner.script)
        paths.append(path)

    setup_s = measure_setup(work, paths[0])
    _invoke(paths[0])  # warms the shared bytecode cache

    order = list(range(len(liners)))
    shuffle = random.Random(f"rounds-{seed}")
    walls = [[] for _ in liners]
    launched = []
    peak_rss = cpu = 0.0
    failed = 0
    unexpected = []
    for _round in range(rounds_for(seconds)):
        shuffle.shuffle(order)
        for index in order:
            liner = liners[index]
            wall, code, out, err, usage = _invoke(paths[index])
            walls[index].append(wall)
            cpu += usage.ru_utime + usage.ru_stime
            peak_rss = max(peak_rss, common.rss_mb(usage))
            if trace:
                spawned = time.perf_counter()
                traced = _invoke(paths[index], launcher=True)
                launched.append(
                    (spawned, traced[0], common.json_last_line(traced[3]),
                     liner.technique)
                )
            good = code == 0 and inputs.fold(
                out.decode("utf-8", errors="replace")
            ) == inputs.fold(liner.clean)
            if not good:
                failed += 1
                if not liner.known_fault:
                    unexpected.append(
                        (liner.technique, code, out.decode(errors="replace"),
                         err.decode(errors="replace")[-500:])
                    )
    for technique, code, out, err in unexpected:
        print(f"  FAILED {technique}: exit {code}: {out.strip()[:200]!r} "
              f"{err.strip()!r}")
    correct = not unexpected
    attempted = sum(len(times) for times in walls)
    best = [min(times) for times in walls]
    every = [wall for times in walls for wall in times]
    print(f"  cpu/wall={cpu / sum(every):.3f} (timed invocations)")
    print(
        f"  invocations={attempted} measured_s={sum(every):.1f} "
        f"bytecode=cached(PYTHONPYCACHEPREFIX) "
        f"all_invocations_p50_ms={common.median(every) * 1000:.1f} "
        f"latency_p90_ms={common.percentile(best, 90) * 1000:.1f}"
    )
    if not trace:
        return correct, attempted, failed, {
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": common.median(best) * 1000,
            "latency_p75_ms": common.percentile(best, 75) * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
        }

    bare = [
        common.spawn_and_wait([sys.executable, "-c", "pass"])[0]
        for _ in range(BARE_LAUNCHES)
    ]
    log = tracing.SpanLog()
    for spawned, wall, report, technique in launched:
        log.op = technique
        root = log.add("cli.invocation", spawned, spawned + wall, -1)
        log.add("cli.interpreter", spawned, report["started"], root)
        log.add("cli.import", report["started"], report["imported"], root)
        log.add("cli.first_run", report["imported"], report["finished"], root)
    spans_path = os.path.join(common.WORK, f"spans-cli_cold-{seed}.jsonl")
    log.write(spans_path)
    layers = {
        "cli.interpreter_ms": common.median(bare) * 1000,
        "cli.import_ms": common.median(
            (r["imported"] - r["started"]) * 1000 for _s, _w, r, _t in launched
        ),
        "cli.first_run_ms": common.median(
            (r["finished"] - r["imported"]) * 1000 for _s, _w, r, _t in launched
        ),
        "cli.modules_imported": launched[0][2]["modules_imported"],
        "trace.overhead_pct": (
            common.median(w for _s, w, _r, _t in launched)
            / common.median(every) - 1
        ) * 100,
    }
    for line in tracing.layer_table(
        log.self_times(),
        log.traced_total(),
        layers=["cli.invocation", "cli.interpreter", "cli.import",
                "cli.first_run"],
        root="cli.invocation",
    ):
        print(line)
    print(f"  spans -> {os.path.relpath(spans_path, common.ROOT)}")
    return correct, attempted, failed, layers
