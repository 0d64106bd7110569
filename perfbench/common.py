"""Shared plumbing for the benchmark: paths, child processes, statistics.

Every file the benchmark writes goes under ``WORK`` (``.perfbench-work``
at the root of the checkout).  Child processes run the program from the
checkout's own ``src`` with a fixed environment, so a run never depends
on the caller's Python settings:

* ``PYTHONDONTWRITEBYTECODE`` is removed and ``PYTHONPYCACHEPREFIX``
  points into ``WORK``: bytecode is cached outside the source tree, and
  every timed child starts with it warm (the state an installed package
  is in).  Nothing is written under ``src/``.
* ``PYTHONHASHSEED`` is fixed, so set iteration orders, and with them
  every counter, repeat exactly.
* ``TMPDIR`` points into ``WORK``, so temporary files stay in the
  checkout.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
PYCACHE = os.path.join(WORK, "pycache")
TMP = os.path.join(WORK, "tmp")


def source_tree_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_source_tree() -> None:
    """Import the program from the checkout, caching bytecode in WORK."""
    os.makedirs(TMP, exist_ok=True)
    sys.pycache_prefix = PYCACHE
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def run_dir() -> str:
    """This run's scratch directory (removed when the run ends)."""
    path = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def child_env(extra_path: Sequence[str] = ()) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONSTARTUP", None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *extra_path])
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = TMP
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn_and_wait(
    argv: List[str], timeout: float = 120.0, env=None
) -> Tuple[float, int, bytes, bytes, "resource.struct_rusage"]:
    """Spawn *argv*, read all of its output, reap it with ``wait4``.

    Returns ``(wall_seconds, exit_code, stdout, stderr, rusage)``: wall
    time runs from spawn to exit with the output read, and ``rusage`` is
    the child's own (peak resident set, CPU time), as ``wait4`` reports
    it.  A child still running after *timeout* seconds is killed.
    """
    with tempfile.TemporaryFile(dir=TMP) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            env=env or child_env(),
            cwd=ROOT,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return wall, proc.returncode, out, err.read(), usage


def rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """The *pct*-th percentile (``statistics.quantiles`` exclusive)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def print_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, object]],
) -> None:
    """Human-readable lines, then the one-line JSON result (last line)."""
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:>14.4f} {entry['unit']}")
    print(f"  attempted={attempted} failed={failed} correct={correct}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def json_last_line(data: bytes):
    """The JSON object on the last line of a child's output."""
    return json.loads(data.decode("utf-8").strip().splitlines()[-1])
