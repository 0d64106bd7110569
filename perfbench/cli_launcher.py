"""``repro`` CLI entry with its start-up timed from inside.

Usage: ``python perfbench/cli_launcher.py deobfuscate FILE``

Does what ``python -m repro`` does (import ``repro.cli``, call
``main``), and writes one JSON line to standard error as its last line:
when it started, when ``repro.cli`` was imported and when ``main``
returned (``time.perf_counter``, the system-wide monotonic clock, so the
parent can place them next to its own spawn and exit times), and how
many modules the process imported on the way.  ``main`` covers argument
parsing, the pipeline's lazy imports, its first, cold run and printing.
"""

import json
import sys
import time


def launch(argv) -> int:
    started = time.perf_counter()
    modules_before = len(sys.modules)
    from repro.cli import main

    imported = time.perf_counter()
    code = main(argv)
    finished = time.perf_counter()
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "started": started,
                "imported": imported,
                "finished": finished,
                "modules_imported": len(sys.modules) - modules_before,
            }
        ),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
