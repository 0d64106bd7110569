"""``fleet_mix``: ``repro fleet`` over keep-alive HTTP, first sights and
repeats.

The fleet runs 2 instances with 1 worker each behind its router.  One
client process (this one) runs a closed loop: 2 callers, each on its own
keep-alive connection to the router, each sending its next request only
when the previous verdict is in.  Requests come in rounds; a round holds
``NEW_PER_ROUND`` first-sight scripts (a pipeline run in a worker, the
result cache written) and ``REPEATS_PER_ROUND`` repeats of scripts
answered in earlier rounds (read from the result cache), in a seeded
order.  Rounds are separated, so a repeat is never still in flight.  A
priming round of first sights comes first, so the first round has
something to repeat.

Two thirds of the requests are repeats, so ``latency_p50_ms`` is a cache
hit's latency and ``latency_p75_ms`` a miss's (the lower quartile of the
misses, since every miss takes longer than every hit).

End-to-end metrics (tracing off): ``ops_per_s`` (requests per second of
load), ``latency_p50_ms``, ``latency_p75_ms``, ``setup_s`` (launch to the
router's ``/healthz`` reporting every instance ok, median of three
launches; a launch that died during start-up and was made again counts
from its first try) and ``peak_rss_mb`` (summed peak resident sets of
the router, the instances and their workers).

The traced run adds, after the load: hits sent through the router and
straight to the instance that holds them (the router hop), first sights
sent straight to an instance and repeated (the worker round trip, net of
the pipeline time the same script takes in this process), the service's
and the router's own counters, the launches that died during start-up
and were made again (``fleet.launch_retries``), and the pipeline's
per-layer self times on the fleet's scripts, replayed in this process
under ``tracing``.
"""

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlsplit

import common
import inputs
import tracing

NEW_PER_ROUND = 3
REPEATS_PER_ROUND = 6
PRIMING = 6
# Nominal length of one round on the reference machine; --seconds buys
# this many rounds, so the work a run does is fixed by --seconds alone.
ROUND_SECONDS = 0.36
LAUNCHES = 3
# Traced-run extras.
HOP_SAMPLES = 40
ROUNDTRIP_SAMPLES = 16


def rounds_for(seconds: int) -> int:
    return max(4, round(seconds / ROUND_SECONDS))


# What ``repro fleet`` prints when its manager read an empty port file.
PORT_FILE_RACE = "invalid literal for int() with base 10: ''"


class PortFileRace(Exception):
    pass


class Fleet:
    """One ``repro fleet`` process and everything it spawned."""

    def __init__(self, work: str, index: str):
        self.workdir = os.path.join(work, f"fleet-{index}")
        os.makedirs(self.workdir, exist_ok=True)
        self.port_file = os.path.join(self.workdir, "router.port")
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        self.log = open(os.path.join(self.workdir, "fleet.log"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet",
             "--instances", "2", "--jobs", "1", "--port", "0",
             "--port-file", self.port_file, "--workdir", self.workdir],
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=self.log,
            env=common.child_env(),
            cwd=common.ROOT,
        )
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Wait until ``/healthz`` says every instance is ok."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self.log.flush()
                with open(self.log.name, "rb") as handle:
                    tail = handle.read()[-3000:].decode(errors="replace")
                if PORT_FILE_RACE in tail:
                    raise PortFileRace()
                raise RuntimeError(
                    f"fleet exited {self.proc.returncode}:\n{tail}"
                )
            if self.port is None:
                try:
                    with open(self.port_file, encoding="utf-8") as handle:
                        self.port = int(handle.read().strip())
                except (OSError, ValueError):
                    time.sleep(0.002)
                    continue
            health = self.get("/healthz")
            if health and health.get("status") == "ok" and all(
                report.get("status") == "ok"
                for report in health["instances"].values()
            ):
                return
            time.sleep(0.002)
        raise RuntimeError("fleet did not become healthy")

    def get(self, path: str, base: str = None):
        url = urlsplit(base) if base else None
        host = url.hostname if url else "127.0.0.1"
        port = url.port if url else self.port
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            return json.loads(body) if response.status == 200 else None
        except (OSError, ValueError):
            return None
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        """CPU time used so far by the fleet's processes."""
        ticks = 0
        for pid in self.processes():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        total = 0.0
        for pid in self.processes():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                continue
        return total

    def processes(self):
        """Pids of every process started for this fleet: the router and
        the instances and workers that name its work directory on their
        command line, including instances a dying router left behind."""
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    args = handle.read().decode(errors="replace").split("\0")
            except OSError:
                continue
            if any(
                arg == self.workdir or arg.startswith(self.workdir + os.sep)
                for arg in args
            ):
                found.append(int(entry))
        return found

    def stop(self) -> None:
        """Kill the fleet and everything it spawned, and wait until each
        process has ended.  A graceful drain would add seconds to every
        launch and is not part of the workload."""
        pids = self.processes()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        for pid in pids:
            while time.monotonic() < deadline and _alive(pid):
                time.sleep(0.005)
        self.log.close()


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Caller:
    """One keep-alive connection and the requests it sent."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )

    def send(self, script: str):
        body = json.dumps({"script": script}).encode("utf-8")
        started = time.perf_counter()
        self.connection.request(
            "POST", "/deobfuscate", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        payload = response.read()
        elapsed = time.perf_counter() - started
        return (
            elapsed,
            response.status,
            json.loads(payload),
            response.getheader("X-Repro-Instance"),
        )

    def close(self) -> None:
        self.connection.close()


def run_round(callers, requests, results) -> None:
    """Send *requests* through *callers* in a closed loop; each result
    is ``(script index, repeat, elapsed, status, payload, instance)``."""
    pending = list(reversed(requests))
    lock = threading.Lock()
    errors = []

    def loop(caller):
        while True:
            with lock:
                if not pending:
                    return
                index, repeat, script = pending.pop()
            try:
                outcome = caller.send(script)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                errors.append(exc)
                return
            with lock:
                results.append((index, repeat, *outcome))

    threads = [threading.Thread(target=loop, args=(c,)) for c in callers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"request failed: {errors[0]!r}")


def _start(work: str, index: int):
    """Launch a fleet and wait until it is healthy; ``(fleet, seconds,
    relaunches)``.

    ``FleetManager.start`` reads an instance's port file as soon as it
    exists, and ``repro serve`` creates it before writing the port, so
    now and then the manager reads an empty file and ``repro fleet``
    exits.  The fleet is then launched again, as a user would, and the
    time to a healthy fleet runs from the first launch.
    """
    started = time.perf_counter()
    for attempt in range(3):
        fleet = Fleet(work, f"{index}-{attempt}")
        try:
            fleet.wait_ready()
            return fleet, time.perf_counter() - started, attempt
        except PortFileRace:
            fleet.stop()
            print(f"  launch {index}: empty port file read; launched again")
        except BaseException:
            fleet.stop()
            raise
    raise RuntimeError("fleet launch kept reading empty port files")


def launch(work: str):
    """``LAUNCHES`` timed launches after one that warms the bytecode
    cache; all but the last are stopped again.  Returns ``(fleet,
    median seconds, relaunches over every launch)``."""
    times = []
    relaunches = 0
    for index in range(LAUNCHES + 1):
        fleet, ready, again = _start(work, index)
        relaunches += again
        if index:
            times.append(ready)
        if index < LAUNCHES:
            fleet.stop()
    return fleet, common.median(times), relaunches


def schedule(seed: int, rounds: int):
    """The request rounds: ``[(script index, repeat), ...]`` per round."""
    rng = random.Random(f"fleet-{seed}")
    plan = [[(index, False) for index in range(PRIMING)]]
    seen = PRIMING
    for _round in range(rounds):
        batch = [(seen + k, False) for k in range(NEW_PER_ROUND)]
        batch += [(rng.randrange(seen), True) for _ in range(REPEATS_PER_ROUND)]
        rng.shuffle(batch)
        plan.append(batch)
        seen += NEW_PER_ROUND
    return plan, seen


def _trace_extras(fleet, samples, results, reserve, rng):
    """Router hop, edge hit and worker round trip, measured directly."""
    from repro import Deobfuscator

    health = fleet.get("/healthz")
    instances = sorted(health["instances"])
    routed = Caller(fleet.port)
    direct = {
        url: Caller(urlsplit(url).port) for url in instances
    }
    holder = {index: instance for index, _r, _e, _s, _p, instance in results}
    chosen = rng.sample(sorted(holder), min(HOP_SAMPLES, len(holder)))
    routed_ms, direct_ms = [], []
    for index in chosen:
        routed_ms.append(routed.send(samples[index].script)[0] * 1000)
        direct_ms.append(
            direct[holder[index]].send(samples[index].script)[0] * 1000
        )
    tool = Deobfuscator()
    roundtrip = []
    for number, sample in enumerate(reserve):
        caller = direct[instances[number % len(instances)]]
        miss = caller.send(sample.script)
        hit = caller.send(sample.script)
        if miss[2].get("cache_hit") or not hit[2].get("cache_hit"):
            raise RuntimeError("direct miss/hit pair did not miss then hit")
        pipeline = min(
            _timed(tool, sample.script) for _ in range(3)
        )
        roundtrip.append((miss[0] - hit[0] - pipeline) * 1000)
    routed.close()
    for caller in direct.values():
        caller.close()

    hits = misses = restarts = 0
    for url in instances:
        snapshot = fleet.get("/metrics.json", base=url)
        hits += snapshot["counters"]["cache_hits"]
        misses += snapshot["counters"]["executions"]
        restarts += sum(snapshot["worker_restarts"].values())
    router = fleet.get("/healthz")["router"]
    return {
        "service.edge_hit_ms": common.median(direct_ms),
        "fleet.router_hop_ms": common.median(routed_ms)
        - common.median(direct_ms),
        "batch.worker_roundtrip_ms": common.median(roundtrip),
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "batch.restarts": restarts,
        "fleet.routed": sum(router["routed"].values()),
        "fleet.fallback_routed": router["fallbacks"],
    }


def _timed(tool, script: str) -> float:
    started = time.perf_counter()
    tool.deobfuscate(script)
    return time.perf_counter() - started


def check(samples, results, trace: bool, seed: int):
    """Library/service agreement, cache behaviour and ground truth.

    Returns ``(failed requests, problems, per-layer replay metrics)``.
    """
    from repro import Deobfuscator

    tool = Deobfuscator()
    indices = sorted({result[0] for result in results})
    expected = {
        index: tool.deobfuscate(samples[index].script).script
        for index in indices
    }
    layers = {}
    if trace:
        # A traced pass, then an untraced one, over the same scripts: the
        # process-wide parse cache is in the same state for both.
        log = tracing.SpanLog()
        counts = {}
        traced, untraced = [], []
        log.install()
        for index in indices:
            log.op = samples[index].ident
            started = time.perf_counter()
            tracing.add_counts(counts, tool.deobfuscate(samples[index].script))
            traced.append(time.perf_counter() - started)
        log.uninstall()
        for index in indices:
            untraced.append(_timed(tool, samples[index].script))
        data = tracing.summary(log, counts)
        for line in tracing.layer_table(
            data["self_times"], data["traced_total"]
        ):
            print(line)
        spans_path = os.path.join(common.WORK, f"spans-fleet_mix-{seed}.jsonl")
        log.write(spans_path)
        print(f"  spans -> {os.path.relpath(spans_path, common.ROOT)}")
        layers = {
            **tracing.layer_metrics(data),
            "trace.overhead_pct": tracing.overhead_pct(untraced, traced),
        }
    failed, problems = 0, []
    for index, repeat, _elapsed, status, payload, _instance in results:
        sample = samples[index]
        issue = None
        if status != 200:
            issue = f"HTTP {status}: {payload.get('error')}"
        elif payload.get("script") != expected[index]:
            issue = "service output differs from repro.deobfuscate"
        elif repeat and not payload.get("cache_hit"):
            issue = "repeat was not a cache hit"
        elif inputs.missing_indicators(sample, [payload["script"]]):
            issue = "ground-truth indicators missing"
        if issue:
            failed += 1
            problems.append((sample.ident, issue))
    return failed, problems, layers


def run(seed: int, seconds: int, trace: bool):
    work = common.run_dir()
    plan, distinct = schedule(seed, rounds_for(seconds))
    samples = inputs.fleet_scripts(
        seed, distinct + (ROUNDTRIP_SAMPLES if trace else 0)
    )
    reserve = samples[distinct:]
    samples = samples[:distinct]

    fleet, setup_s, relaunches = launch(work)
    extras = {}
    try:
        callers = [Caller(fleet.port) for _ in range(2)]
        results = []
        run_round(callers, [(i, r, samples[i].script) for i, r in plan[0]],
                  results)
        measured_from = len(results)
        cpu_before = fleet.cpu_seconds() + time.process_time()
        started = time.perf_counter()
        for batch in plan[1:]:
            run_round(
                callers, [(i, r, samples[i].script) for i, r in batch],
                results,
            )
        load_seconds = time.perf_counter() - started
        cpu = fleet.cpu_seconds() + time.process_time() - cpu_before
        for caller in callers:
            caller.close()
        peak_rss = fleet.peak_rss_mb()
        if trace:
            extras = _trace_extras(
                fleet, samples, results, reserve,
                random.Random(f"hop-{seed}"),
            )
    finally:
        fleet.stop()

    failed, problems, layers = check(samples, results, trace, seed)
    for ident, issue in problems:
        print(f"  FAILED {ident}: {issue}")
    measured = results[measured_from:]
    latencies = [result[2] for result in measured]
    hits = [result[2] for result in measured if result[4].get("cache_hit")]
    misses = [
        result[2] for result in measured if not result[4].get("cache_hit")
    ]
    print(f"  cpu/wall={cpu / load_seconds:.3f} (client and fleet, load; "
          f"2 CPUs)")
    print(
        f"  requests={len(results)} measured={len(measured)} "
        f"load_s={load_seconds:.1f} hits={len(hits)} misses={len(misses)} "
        f"hit_p50_ms={common.median(hits) * 1000:.2f} "
        f"miss_p50_ms={common.median(misses) * 1000:.2f} "
        f"latency_p90_ms={common.percentile(latencies, 90) * 1000:.2f} "
        f"launch_retries={relaunches}"
    )
    correct = not problems
    if not trace:
        return correct, len(results), failed, {
            "ops_per_s": len(measured) / load_seconds,
            "latency_p50_ms": common.median(latencies) * 1000,
            "latency_p75_ms": common.percentile(latencies, 75) * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
        }
    for name in ("service.edge_hit_ms", "fleet.router_hop_ms",
                 "batch.worker_roundtrip_ms"):
        print(f"  {name:<28} {extras[name]:>10.2f}")
    return correct, len(results), failed, {
        **layers, **extras, "fleet.launch_retries": relaunches,
    }
