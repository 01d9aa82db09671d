"""Spans around the calls into tripsem's modules, for the traced run only.

``Tracer.install`` replaces every public function of each layer module
(the names in its ``__all__``) by a wrapper, in every tripsem module that
refers to it, so calls between modules are seen as well as calls from
the benchmark. ``uninstall`` puts the originals back; the untraced run
never installs anything. Each wrapper appends one span
``(id, name, start, end, parent id, operation id, size, steps)`` to a list
in memory; the list is written out when the run ends.

Two kinds of call are counted instead of timed, because a span would
cost more than the call: the per-step composition functions and the
construction of ``core.LexicalEntry``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "lexicon", "analysis", "numerics", "composition", "core", "treeio")
COUNTED = {"composition.compose_pair", "composition.compose_baseline", "composition.compose_improved"}
STEP = "composition.compose_pair"
ENTRY_BUILT = "core.LexicalEntry"


def _text_size(args, kwargs, result):
    return len(args[0]) if args else len(kwargs.get("text", ""))


def _design_size(args, kwargs, result):
    design = args[0] if args else kwargs["design"]
    shape = getattr(design, "data", design).shape
    return shape[0] * shape[1] * 8


# Bytes handled by a call, for the throughput and size metrics.
SIZES = {
    "lexicon.loads": _text_size,
    "lexicon.dumps": lambda args, kwargs, result: len(result),
    "treeio.parse_forest": _text_size,
    "numerics.least_squares": _design_size,
}


def _span_name(name, args, kwargs):
    if name == "analysis.fit_negation_baseline":
        constraints = kwargs.get("constraints", args[3] if len(args) > 3 else "both")
        return f"analysis.fit_baseline.{constraints}"
    if name == "analysis.fit_negation_improved":
        return "analysis.fit_improved"
    return name


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patches = self._plan()

    # -- instrumentation ------------------------------------------------

    def _plan(self):
        """(owner, attribute, original, wrapper) for every patch."""
        modules = [m for name, m in sys.modules.items()
                   if name == "tripsem" or name.startswith("tripsem.")]
        patches = []
        for layer in LAYERS:
            module = sys.modules[f"tripsem.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._counter(name, fn) if name in COUNTED else self._span(name, fn)
                patches += [(m, a, fn, wrapper) for m in modules
                            for a, value in vars(m).items() if value is fn]
        sample_set = sys.modules["tripsem.analysis"].SampleSet
        from_lexicon = sample_set.__dict__["from_lexicon"]
        patches.append((sample_set, "from_lexicon", from_lexicon, classmethod(
            self._span("analysis.SampleSet.from_lexicon", from_lexicon.__func__))))
        entry = sys.modules["tripsem.core"].LexicalEntry
        post_init = entry.__dict__["__post_init__"]
        patches.append((entry, "__post_init__", post_init, self._counter(ENTRY_BUILT, post_init)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, base, fn):
        stack, counts, size_of = self._stack, self.counts, SIZES.get(base)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == base:
                # A recursive call belongs to the span already open.
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((sid, base))
            steps = counts[STEP]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            size = size_of(args, kwargs, result) if size_of else 0
            self.spans.append((sid, _span_name(base, args, kwargs), start, end,
                               parent, self.op, size, counts[STEP] - steps))
            return result

        return wrapper

    def operation(self, op_id, fn):
        """Run one benchmark operation as the root span of its calls."""
        self.op = op_id
        try:
            return self._span("benchmark.op", fn)()
        finally:
            self.op = None

    def write(self, path):
        """One JSON object per span, then one with the counters."""
        keys = ("id", "name", "start", "end", "parent", "op", "bytes", "steps")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, kind, span or counter). Kinds: ``self`` median self time per
# call; ``total`` median duration per call; ``rate`` median MB per second of
# a call's whole duration; ``size`` median MB per call; ``max_size`` median
# over operations of the largest MB of one call; ``calls`` spans per
# operation; ``count`` counter per operation; ``per_step`` summed duration
# over summed composition steps.
LAYER_METRICS = (
    ("cli.run.self_ms", "ms", "self", "cli.run"),
    ("lexicon.load.ms", "ms", "self", "lexicon.load"),
    ("lexicon.loads.mb_per_s", "MB/s", "rate", "lexicon.loads"),
    ("lexicon.dumps.mb_per_s", "MB/s", "rate", "lexicon.dumps"),
    ("lexicon.save.ms", "ms", "self", "lexicon.save"),
    ("lexicon.init_random.ms", "ms", "self", "lexicon.init_random"),
    ("lexicon.file_mb", "MB", "size", "lexicon.loads"),
    ("analysis.fit_baseline.both.ms", "ms", "self", "analysis.fit_baseline.both"),
    ("analysis.fit_baseline.value.ms", "ms", "self", "analysis.fit_baseline.value"),
    ("analysis.fit_baseline.function.ms", "ms", "self", "analysis.fit_baseline.function"),
    ("analysis.fit_improved.ms", "ms", "self", "analysis.fit_improved"),
    ("analysis.check_double_negation.us", "us", "self", "analysis.check_double_negation"),
    ("analysis.scope_invariance_report.ms", "ms", "self", "analysis.scope_invariance_report"),
    ("numerics.least_squares.ms", "ms", "self", "numerics.least_squares"),
    ("numerics.least_squares.calls", "count", "calls", "numerics.least_squares"),
    ("numerics.least_squares.design_mb", "MB", "max_size", "numerics.least_squares"),
    ("composition.compose_tree.ms", "ms", "total", "composition.compose_tree"),
    ("composition.step_us", "us", "per_step", "composition.compose_tree"),
    ("composition.compose_pair.calls", "count", "count", STEP),
    ("core.LexicalEntry.built", "count", "count", ENTRY_BUILT),
    ("core.negate_vector.us", "us", "self", "core.negate_vector"),
    ("core.negate_vector.calls", "count", "calls", "core.negate_vector"),
    ("treeio.parse_forest.mb_per_s", "MB/s", "rate", "treeio.parse_forest"),
    ("treeio.binarize.ms", "ms", "self", "treeio.binarize"),
)
SCALE = {"ms": 1e3, "us": 1e6}


def layer_metrics(spans, counts, n_ops) -> dict[str, float | None]:
    """Every LAYER_METRICS value; None where the workload never calls it."""
    child_time = defaultdict(float)
    for sid, name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    out: dict[str, float | None] = {}
    for metric, unit, kind, source in LAYER_METRICS:
        if kind == "count":
            out[metric] = counts[source] / n_ops if counts[source] else None
            continue
        calls = by_name.get(source)
        if not calls:
            out[metric] = None
        elif kind == "self":
            out[metric] = SCALE[unit] * statistics.median(
                (end - start) - child_time[sid] for sid, _, start, end, *_ in calls)
        elif kind == "total":
            out[metric] = SCALE[unit] * statistics.median(s[3] - s[2] for s in calls)
        elif kind == "rate":
            out[metric] = statistics.median(s[6] / 1e6 / (s[3] - s[2]) for s in calls)
        elif kind == "size":
            out[metric] = statistics.median(s[6] / 1e6 for s in calls)
        elif kind == "max_size":
            largest = defaultdict(int)
            for s in calls:
                largest[s[5]] = max(largest[s[5]], s[6])
            out[metric] = statistics.median(largest.values()) / 1e6
        elif kind == "calls":
            out[metric] = len(calls) / n_ops
        elif kind == "per_step":
            steps = sum(s[7] for s in calls)
            out[metric] = 1e6 * sum(s[3] - s[2] for s in calls) / steps if steps else None
    return out
