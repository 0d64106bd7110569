"""Write the seed's Table II one-liners (see ``inputs.one_liners``) as
JSON, in a process of their own.

Usage::

    python perfbench/generate.py SEED OUT
"""

import dataclasses
import json
import sys

import inputs


def main(argv) -> int:
    liners = [
        dataclasses.asdict(liner) for liner in inputs.one_liners(int(argv[0]))
    ]
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(liners, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
