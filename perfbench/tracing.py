"""Outside-in tracing: spans around the public functions of each layer.

Nothing in the program is changed on disk.  :class:`SpanLog` replaces
the module or class attributes named in ``LAYER_POINTS`` with wrappers
that record one span per call (name, start, end, parent span, and the
id of the script being processed), and puts the originals back on
:meth:`SpanLog.uninstall`.  Callers inside the program look these names
up at call time (the front end imports each phase function inside its
hook; the parser and lexer are reached through their classes), so every
call made by the pipeline goes through a wrapper.

Spans stay in memory and are written out once, at the end of the run.
A layer's self time is its spans' durations minus the part covered by
their child spans; the self times of all layers, ``pipeline`` included,
add up to the summed duration of the root spans, the traced total.
"""

import importlib
import json
import time
from collections import Counter
from typing import Dict, List

# (layer, module, attribute path).  ``pipeline`` is the root: its self
# time is the part of a run no wrapped layer accounts for.
LAYER_POINTS = [
    ("pipeline", "repro.core.pipeline", "Deobfuscator.deobfuscate"),
    ("pslang.parse", "repro.pslang.parser", "Parser.parse"),
    ("pslang.tokenize", "repro.pslang.lexer", "Lexer.tokenize"),
    ("token.pass", "repro.core.token_deobfuscator", "deobfuscate_tokens"),
    ("ast.pass", "repro.core.reconstruction", "AstDeobfuscator.process"),
    # Piece recovery and variable tracing both run text through here.
    ("runtime.evaluate", "repro.runtime.evaluator", "Evaluator.run_script_text"),
    ("multilayer.unwrap", "repro.core.multilayer", "unwrap_layers_detailed"),
    ("rename", "repro.core.rename", "rename_random_identifiers"),
    ("reformat", "repro.core.reformat", "reformat_script"),
    ("techniques.tag", "repro.obs", "tag_techniques"),
]

LAYERS = [name for name, _module, _attr in LAYER_POINTS]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class SpanLog:
    """In-memory spans for the layer boundaries in ``LAYER_POINTS``."""

    def __init__(self) -> None:
        # Each span: [layer, start, end, parent index or -1, op id].
        self.spans: List[list] = []
        self.chars_parsed = 0
        self.op = ""
        self._stack: List[int] = []
        self._originals: List[tuple] = []

    def _wrapper(self, layer: str, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        log = self
        count_chars = layer == "pslang.parse"

        def traced(*args, **kwargs):
            if count_chars:
                log.chars_parsed += len(args[0].source)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, log.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def add(self, layer: str, start: float, end: float, parent: int) -> int:
        """Record a span measured elsewhere; returns its id."""
        self.spans.append([layer, start, end, parent, self.op])
        return len(self.spans) - 1

    def install(self) -> None:
        for layer, module_name, path in LAYER_POINTS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(layer, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer, summed over every span."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        totals = {layer: 0.0 for layer in LAYERS}
        for span, seconds in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def calls(self) -> Dict[str, int]:
        counts = Counter(span[0] for span in self.spans)
        return {layer: counts.get(layer, 0) for layer in LAYERS}

    def traced_total(self) -> float:
        """Summed duration of the root spans, in seconds."""
        return sum(span[2] - span[1] for span in self.spans if span[3] < 0)

    def write(self, path: str) -> None:
        """One JSON object per span, times in seconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, start, end, parent, op) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": layer,
                            "start": round(start - origin, 7),
                            "end": round(end - origin, 7),
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


# PipelineStats counters (and DeobfuscationResult fields) summed over the
# traced runs, by per-layer metric name.
COUNTERS = {
    "token.tokens_rewritten": lambda r: r.stats.tokens_rewritten,
    "ast.iterations": lambda r: r.iterations,
    "ast.pieces_attempted": lambda r: sum(r.stats.recovery_outcomes.values()),
    "ast.pieces_recovered": lambda r: r.stats.pieces_recovered,
    "ast.recovery_cache_hits": lambda r: r.stats.recovery_cache_hits,
    "runtime.evaluator_steps": lambda r: r.stats.evaluator_steps,
    "runtime.memo_hits": lambda r: r.stats.subtree_memo_hits,
    "runtime.memo_misses": lambda r: r.stats.subtree_memo_misses,
    "multilayer.layers_unwrapped": lambda r: r.layers_unwrapped,
}


def add_counts(counts: Dict[str, int], result) -> None:
    """Add one ``DeobfuscationResult``'s counters to *counts*."""
    for name, read in COUNTERS.items():
        counts[name] = counts.get(name, 0) + read(result)


def summary(log: "SpanLog", counts: Dict[str, int]) -> dict:
    """Everything the per-layer metrics need, as plain data."""
    return {
        "self_times": log.self_times(),
        "calls": log.calls(),
        "chars_parsed": log.chars_parsed,
        "traced_total": log.traced_total(),
        "counts": counts,
    }


def layer_metrics(data: dict) -> Dict[str, float]:
    """The pipeline's per-layer metrics from a :func:`summary`."""
    ms = {layer: seconds * 1000 for layer, seconds in data["self_times"].items()}
    calls = data["calls"]
    return {
        "pslang.parse_calls": calls["pslang.parse"],
        "pslang.parse_ms": ms["pslang.parse"],
        "pslang.tokenize_calls": calls["pslang.tokenize"],
        "pslang.tokenize_ms": ms["pslang.tokenize"],
        "pslang.chars_parsed": data["chars_parsed"],
        "token.pass_ms": ms["token.pass"],
        "ast.pass_self_ms": ms["ast.pass"],
        "runtime.evaluate_ms": ms["runtime.evaluate"],
        "runtime.evaluate_calls": calls["runtime.evaluate"],
        "multilayer.unwrap_ms": ms["multilayer.unwrap"],
        "rename.ms": ms["rename"],
        "reformat.ms": ms["reformat"],
        "techniques.tag_ms": ms["techniques.tag"],
        "pipeline.unattributed_ms": ms["pipeline"],
        "pipeline.traced_ms": data["traced_total"] * 1000,
        **data["counts"],
    }


def overhead_pct(untraced: List[float], traced: List[float]) -> float:
    """Tracing overhead: the median over scripts of traced over untraced
    latency, paired per script, as a percentage."""
    ratios = sorted(t / u for u, t in zip(untraced, traced))
    middle = len(ratios) // 2
    ratio = (
        ratios[middle]
        if len(ratios) % 2
        else (ratios[middle - 1] + ratios[middle]) / 2
    )
    return (ratio - 1) * 100


def layer_table(
    self_times: Dict[str, float],
    total: float,
    layers: List[str] = LAYERS,
    root: str = "pipeline",
) -> List[str]:
    """The per-layer table: self time and its share of the traced total.

    The root layer's self time is what no other layer accounts for."""
    lines = [f"  {'layer':<20} {'self ms':>12} {'share':>8}"]
    for layer in layers:
        seconds = self_times.get(layer, 0.0)
        share = seconds / total if total else 0.0
        label = "(unattributed)" if layer == root else layer
        lines.append(f"  {label:<20} {seconds * 1000:>12.1f} {share:>8.1%}")
    covered = sum(self_times.get(layer, 0.0) for layer in layers)
    lines.append(
        f"  {'traced total':<20} {total * 1000:>12.1f} "
        f"{covered / total if total else 0.0:>8.1%}"
    )
    return lines
