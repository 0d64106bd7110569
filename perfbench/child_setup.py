"""A fresh interpreter's road to its first result, timed from inside.

Usage: ``python perfbench/child_setup.py SCRIPT_FILE``

Prints one JSON line: the time ``import repro`` and the pipeline's
import took, the first ``deobfuscate`` call's time, the number of
modules it imported on the way, and the deobfuscated script.  The
parent times the whole process from spawn to exit.
"""

import json
import sys
import time


def main(path: str) -> int:
    started = time.perf_counter()
    modules_before = len(sys.modules)
    from repro import Deobfuscator

    imported = time.perf_counter()
    with open(path, "r", encoding="utf-8") as handle:
        script = handle.read()
    result = Deobfuscator().deobfuscate(script)
    finished = time.perf_counter()
    print(
        json.dumps(
            {
                "import_ms": (imported - started) * 1000,
                "first_run_ms": (finished - imported) * 1000,
                "modules_imported": len(sys.modules) - modules_before,
                "script": result.script,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
