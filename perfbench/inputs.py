"""Seeded inputs for every workload, and the references they are checked
against.

Every input is made from ``--seed`` with the program's own generators
(``repro.dataset`` for wild scripts, ``repro.obfuscation`` for Table II
one-liners); the program only ever receives the generated text.  The
references are computed here, outside the program: the generator's
ground truth, or the clean statement before it was obfuscated.

Two kinds of input are fixed and do not depend on the seed: the
whitespace-encoded samples.  The deobfuscator never recovers whitespace
encoding (Table II's one ✗: the decode loop assigns inside a loop and
variable tracing gives up there), so these inputs fail on every run.
They count as failed operations, the same share of every run, so a fix
has something to move.
"""

import json
import math
import os
import random
import re
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import common

# Wild scripts larger than this are left out: the generator's depth-2
# layers can reach hundreds of KB, which no single-script latency
# figure can absorb.  The heavy tail of decode loops stays in.
WILD_SIZE_CAP = 8192
# Generated scripts per wild corpus (the whitespace samples come on top).
WILD_COUNT = 200
# fleet_mix scripts stay small: a miss must be dominated by the request
# path, not by one script's decode loop.
FLEET_SIZE_CAP = 4096

# What a wild script costs follows its size and whether it decodes in a
# loop; a plain random corpus of a few hundred scripts varies from seed
# to seed by more than a benchmark bound.  So the corpus is matched to a
# fixed ladder: sizes in bytes at 0%, 5%, ..., 100% of each class,
# measured once over generate_corpus(300, seed) for seeds 11-16 (<= 8 KB,
# no whitespace encoding; 1636 scripts), and the share of the class
# with decode loops.  Each seed picks, from its own pool, the scripts
# nearest to the ladder's rungs.
REFERENCE_SIZES = {
    True: [217, 334, 391, 474, 554, 630, 708, 769, 837, 918, 1003, 1126,
           1270, 1473, 1721, 2023, 2513, 3371, 4374, 5896, 8189],
    False: [91, 117, 146, 178, 204, 230, 257, 273, 297, 325, 355, 400,
            442, 526, 618, 715, 918, 1364, 1991, 3751, 7918],
}
DECODE_LOOP_SHARE = 0.45
# Pool drawn per seed, as a multiple of the scripts kept.
POOL_FACTOR = 1.4
# A sample the generator has not finished after this long is left out.
GENERATION_LIMIT_S = 15.0

KNOWN_FAULT = "whitespace_encoding"
# Encoders whose decoder is a ``ForEach-Object`` loop over char codes
# (bxor and the char-code encodings): where the heavy tail spends its time.
DECODE_LOOP_TECHNIQUES = {
    "bxor", "encode_ascii", "encode_hex", "encode_octal", "encode_binary",
}

_WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
    "victor", "whiskey", "xray", "yankee", "zulu",
]


@dataclass
class Sample:
    """One script and the indicators its output must expose."""

    ident: str
    script: str
    indicators: List[str] = field(default_factory=list)
    # The named program fault this input runs into, if any.
    known_fault: Optional[str] = None
    techniques: List[str] = field(default_factory=list)


def _indicators(truth) -> List[str]:
    if truth is None:
        return []
    return sorted(set(truth.urls) | set(truth.ips) | set(truth.ps1_files))


def _from_wild(sample) -> Sample:
    return Sample(
        ident=sample.identifier,
        script=sample.script,
        indicators=_indicators(sample.truth),
        techniques=sorted(sample.techniques),
    )


class _TooSlow(Exception):
    pass


def _raise_too_slow(signum, frame):
    raise _TooSlow()


def make_sample(seed: int, index: int, size_cap: int) -> Optional[Sample]:
    """Wild sample *index* of *seed*, or None when it is larger than
    *size_cap*, whitespace-encoded, or not generated within
    ``GENERATION_LIMIT_S``."""
    from repro.dataset.generator import generate_sample

    signal.signal(signal.SIGALRM, _raise_too_slow)
    signal.setitimer(signal.ITIMER_REAL, GENERATION_LIMIT_S)
    try:
        sample = generate_sample(
            f"sample-{index:05d}", random.Random(f"{seed}:{index}")
        )
    except _TooSlow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if len(sample.script) > size_cap or KNOWN_FAULT in sample.techniques:
        return None
    return _from_wild(sample)


def _pool(seed: int, count: int, size_cap: int) -> List[Sample]:
    """The first *count* usable samples of the seed's stream.

    Sample *i* comes from its own random stream, seeded with the seed and
    *i*, so leaving one out never changes another; that is what lets a
    sample the generator cannot finish be left out (a depth-2 sample can
    spend minutes in the generator's second string pass).
    """
    kept: List[Sample] = []
    index = 0
    while len(kept) < count:
        sample = make_sample(seed, index, size_cap)
        if sample is not None:
            kept.append(sample)
        index += 1
    return kept


def _has_loop(sample: Sample) -> bool:
    return bool(DECODE_LOOP_TECHNIQUES & set(sample.techniques))


def _rung(loops: bool, fraction: float) -> float:
    """The reference size at *fraction* of a class, log-interpolated."""
    ladder = REFERENCE_SIZES[loops]
    position = fraction * (len(ladder) - 1)
    low = min(int(position), len(ladder) - 2)
    weight = position - low
    return math.exp(
        (1 - weight) * math.log(ladder[low])
        + weight * math.log(ladder[low + 1])
    )


def _matched(pool: List[Sample], count: int) -> Optional[List[Sample]]:
    """*count* samples of *pool* nearest to the reference ladder, in pool
    order; None when the pool is too small for a class."""
    chosen = set()
    loop_count = round(count * DECODE_LOOP_SHARE)
    for loops, wanted in ((True, loop_count), (False, count - loop_count)):
        members = [
            index for index, sample in enumerate(pool)
            if _has_loop(sample) == loops
        ]
        if len(members) < wanted:
            return None
        for rank in range(wanted):
            target = math.log(_rung(loops, (rank + 0.5) / wanted))
            best = min(
                (index for index in members if index not in chosen),
                key=lambda index: abs(
                    math.log(len(pool[index].script)) - target
                ),
            )
            chosen.add(best)
    return [pool[index] for index in sorted(chosen)]


def whitespace_samples() -> List[Sample]:
    """Two whitespace-encoded wild scripts, the same for every seed."""
    from repro.dataset.skeletons import build_skeleton
    from repro.obfuscation.catalog import get_technique

    samples = []
    for index, skeleton in enumerate(("downloader", "dropper")):
        rng = random.Random(f"whitespace-{index}")
        clean, truth = build_skeleton(skeleton, rng)
        samples.append(
            Sample(
                ident=f"whitespace-{index}",
                script=get_technique(KNOWN_FAULT).apply_to_script(
                    clean, rng
                ),
                indicators=_indicators(truth),
                known_fault=KNOWN_FAULT,
                techniques=[KNOWN_FAULT],
            )
        )
    return samples


def wild_corpus(seed: int) -> List[Sample]:
    """``WILD_COUNT`` seeded wild scripts matched to the reference
    ladder, plus the whitespace samples, in a seeded order."""
    size = int(WILD_COUNT * POOL_FACTOR)
    while True:
        samples = _matched(_pool(seed, size, WILD_SIZE_CAP), WILD_COUNT)
        if samples is not None:
            break
        size *= 2
    samples += whitespace_samples()
    random.Random(f"order-{seed}").shuffle(samples)
    return samples


def fleet_scripts(seed: int, count: int) -> List[Sample]:
    """*count* distinct small wild scripts for the fleet mix."""
    return _pool(seed + 7919, count, FLEET_SIZE_CAP)


# -- Table II one-liners ------------------------------------------------------


@dataclass
class OneLiner:
    technique: str
    clean: str
    script: str
    known_fault: Optional[str] = None


def _clean_statement(technique: str, rng: random.Random) -> str:
    first, second = rng.choice(_WORDS), rng.choice(_WORDS)
    if technique == "alias":
        # The alias technique needs a command that has aliases; the
        # deobfuscator expands them back to the full name.
        return f"Get-ChildItem 'C:\\{first}\\{second}'"
    if technique == "random_name":
        # Written in the deobfuscator's canonical form (renamed
        # variables become $var0, $var1, ...; traced uses are inlined),
        # so the expected output is the clean statement itself.
        return f"$var0 = '{first}-{second}'; Write-Host '{first}-{second}'"
    return f"Write-Host '{first}-{second}'"


def one_liners(seed: int) -> List[OneLiner]:
    """One one-liner per Table II technique of the obfuscation catalog.

    The whitespace-encoded one is the Table II payload with a fixed
    random stream, the same for every seed.
    """
    from repro.obfuscation.catalog import TECHNIQUES

    rng = random.Random(f"one-liners-{seed}")
    out = []
    for name, technique in TECHNIQUES.items():
        if name == KNOWN_FAULT:
            fixed = random.Random(99)
            clean = "Write-Host 'hello'"
            script = technique.apply_to_script(clean, fixed)
            out.append(OneLiner(name, clean, script, KNOWN_FAULT))
            continue
        clean = _clean_statement(name, rng)
        out.append(OneLiner(name, clean, technique.apply_to_script(clean, rng)))
    return out


def one_liners_in_child(seed: int) -> List[OneLiner]:
    """:func:`one_liners`, made in a child process.

    ``cli_cold`` reads each invocation's peak resident set from
    ``wait4``, and Linux carries into a child the size its parent had
    when it forked; a parent that never imports the program stays
    smaller than any invocation.
    """
    out = os.path.join(common.TMP, f"one-liners-{os.getpid()}.json")
    subprocess.run(
        [sys.executable, os.path.join(common.HERE, "generate.py"),
         str(seed), out],
        env=common.child_env(),
        cwd=common.ROOT,
        check=True,
    )
    with open(out, encoding="utf-8") as handle:
        liners = [OneLiner(**fields) for fields in json.load(handle)]
    os.unlink(out)
    return liners


# -- references ---------------------------------------------------------------


def fold(text: str) -> str:
    """Case and whitespace folded, for comparing statements."""
    return re.sub(r"\s+", " ", text).strip().lower()


def missing_indicators(sample: Sample, texts: List[str]) -> List[str]:
    """Ground-truth indicators that appear in none of *texts*."""
    haystack = "\n".join(texts).lower()
    return [item for item in sample.indicators if item.lower() not in haystack]


def describe(samples: List[Sample]) -> dict:
    """What a corpus is made of (for the README and the run log)."""
    from collections import Counter

    sizes = sorted(len(sample.script) for sample in samples)

    def quantile(q: float) -> int:
        return sizes[min(len(sizes) - 1, int(q * len(sizes)))]

    techniques = Counter(
        name for sample in samples for name in sample.techniques
    )
    decode_loops = sum(
        1
        for sample in samples
        if DECODE_LOOP_TECHNIQUES & set(sample.techniques)
    )
    return {
        "scripts": len(samples),
        "size_p10_p50_p90_max": [
            quantile(0.1), quantile(0.5), quantile(0.9), sizes[-1]
        ],
        "decode_loop_share": round(decode_loops / len(samples), 3),
        "whitespace_encoded": sum(
            1 for sample in samples if sample.known_fault
        ),
        "technique_share": {
            name: round(count / len(samples), 3)
            for name, count in techniques.most_common()
        },
    }
