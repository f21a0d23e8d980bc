"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the periodica modules at run time, in
the benchmark process only, and records one span per call: name, start,
end, parent, the number of vectors `fplin.enumerate_vectors` yielded while
the span was open, and an outcome.  Nothing in the package changes; the
original attributes come back when `installed()` exits.  Spans stay in
memory until the caller clears them or writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# Public module functions wrapped as spans.  Every periodica module
# attribute bound to the same function object is patched too, so a
# `from .steenrod import verify_action` inside corpus is traced as well.
FUNCTIONS = {
    "fplin": ("rref", "restricted_matrix"),
    "corpus": ("parse_spec", "build"),
    "algebra": ("verify_poincare_duality",),
    "steenrod": ("verify_action", "induced_action_on_window"),
    "periodicity": ("minimum_period", "find_inducing_element", "subquotient"),
    "decomposition": ("multiplication_operator", "decompose", "verify_decomposition"),
    "connectivity": ("derive", "verify_derivation",
                     "codim_cascade_scenario", "four_weight_scenario"),
}

# Methods wrapped as spans, and the label prefix of each receiver class.  A
# method span is named after the class of its receiver, not the class that
# defines the method, so the names keep their meaning if the two table
# classes come to share one implementation.
METHODS = ("cup", "cup_matrix", "validate")
CLASSES = {
    ("algebra", "GradedAlgebra"): "algebra",
    ("periodicity", "SubquotientAlgebra"): "periodicity.SubquotientAlgebra",
}

COUNT, SECONDS, RATIO = "count", "s", "ratio"

# Every per-layer metric a traced run reports, with its unit.  `*.calls`
# counts spans of that name and `*.self_s` sums their self time.
PER_LAYER = (
    ("fplin.rref.calls", COUNT),
    ("fplin.rref.self_s", SECONDS),
    ("fplin.restricted_matrix.calls", COUNT),
    ("fplin.restricted_matrix.self_s", SECONDS),
    ("fplin.enumerate_vectors.yielded", COUNT),
    ("algebra.cup.calls", COUNT),
    ("algebra.cup.self_s", SECONDS),
    ("algebra.cup_matrix.calls", COUNT),
    ("algebra.cup_matrix.self_s", SECONDS),
    ("algebra.validate.self_s", SECONDS),
    ("steenrod.verify_action.self_s", SECONDS),
    ("corpus.build.self_s", SECONDS),
    ("steenrod.induced_action_on_window.self_s", SECONDS),
    ("periodicity.subquotient.self_s", SECONDS),
    ("periodicity.SubquotientAlgebra.cup_matrix.calls", COUNT),
    ("periodicity.SubquotientAlgebra.cup_matrix.self_s", SECONDS),
    ("periodicity.find_inducing_element.calls", COUNT),
    ("periodicity.find_inducing_element.self_s", SECONDS),
    ("periodicity.candidate_yield", RATIO),
    ("decomposition.multiplication_operator.calls", COUNT),
    ("decomposition.multiplication_operator.self_s", SECONDS),
    ("decomposition.decompose.self_s", SECONDS),
    ("decomposition.verify_decomposition.self_s", SECONDS),
    ("decomposition.split_yield", RATIO),
    ("connectivity.derive.calls", COUNT),
    ("connectivity.derive.saturated", COUNT),
    ("connectivity.derive.self_s", SECONDS),
    ("connectivity.derive_yield", RATIO),
    ("connectivity.verify_derivation.self_s", SECONDS),
    ("trace.overhead_s", SECONDS),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1
    yielded: int = 0
    outcome: object = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    yielded: int = 0

    def call(self, name: str, fn, *args, outcome=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; a raised exception's class
        name becomes the span's outcome, otherwise outcome(result) does."""
        span = Span(name, parent=self.stack[-1] if self.stack else -1)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        before = self.yielded
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.outcome = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            span.yielded = self.yielded - before
            self.stack.pop()
        if outcome is not None:
            span.outcome = outcome(result)
        return result

    def clear(self) -> None:
        self.spans = []
        self.stack = []
        self.yielded = 0

    def write(self, path) -> None:
        """Write the spans held in memory as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "yielded": s.yielded, "outcome": s.outcome}))
                fh.write("\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the traced names for the duration of the block."""
    modules = {name: importlib.import_module(f"periodica.{name}") for name in FUNCTIONS}
    namespaces = list(modules.values()) + [importlib.import_module("periodica")]
    certificate = modules["periodicity"].PeriodicityCertificate
    outcomes = {
        "periodicity.find_inducing_element": lambda r: isinstance(r, certificate),
        "decomposition.decompose": lambda r: r.summand_count,
        "connectivity.derive": lambda r: "derived",
    }
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
        setattr(owner, attr, new)

    def spanned(label, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(label, fn, *args, outcome=outcomes.get(label), **kwargs)
        return traced

    def counted(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for v in fn(*args, **kwargs):
                tracer.yielded += 1
                yield v
        return traced

    def method(name, fn, labels, default):
        @functools.wraps(fn)
        def traced(self, *args, **kwargs):
            label = f"{labels.get(type(self), default)}.{name}"
            return tracer.call(label, fn, self, *args, **kwargs)
        return traced

    try:
        wrappers = {}
        for mod, names in FUNCTIONS.items():
            for name in names:
                fn = getattr(modules[mod], name)
                wrappers[id(fn)] = spanned(f"{mod}.{name}", fn)
        fn = modules["fplin"].enumerate_vectors
        wrappers[id(fn)] = counted(fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if callable(value) and id(value) in wrappers:
                    patch(ns, attr, wrappers[id(value)])
        classes = {getattr(modules[mod], cls): label for (mod, cls), label in CLASSES.items()}
        originals = [(cls, name, getattr(cls, name)) for cls in classes
                     for name in METHODS if hasattr(cls, name)]
        for cls, name, fn in originals:
            patch(cls, name, method(name, fn, classes, classes[cls]))
        yield tracer
    finally:
        for owner, attr, own, old in reversed(patches):
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of the spans the tracer holds, except the
    tracing overhead, which the caller measures; self times are multiplied
    by scale (see hostclock.py)."""
    by_name, own = defaultdict(list), defaultdict(float)
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        by_name[s.name].append(s)
        own[s.name] += t
    find = by_name["periodicity.find_inducing_element"]
    derives = by_name["connectivity.derive"]
    special = {
        "fplin.enumerate_vectors.yielded": tracer.yielded,
        "periodicity.candidate_yield": _ratio(
            sum(s.outcome is True for s in find), sum(s.yielded for s in find)),
        "decomposition.split_yield": _ratio(
            sum(s.outcome for s in by_name["decomposition.decompose"]
                if isinstance(s.outcome, int)),
            len(by_name["decomposition.multiplication_operator"])),
        "connectivity.derive.saturated": sum(s.outcome == "Saturated" for s in derives),
        "connectivity.derive_yield": _ratio(
            sum(s.outcome == "derived" for s in derives), len(derives)),
    }
    out = {}
    for name, _unit in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = len(by_name[name[:-len(".calls")]])
        elif name.endswith(".self_s"):
            out[name] = own[name[:-len(".self_s")]] * scale
    return out


def median_metrics(samples: list[dict]) -> dict[str, float]:
    """Per-metric median over the traced iterations of one run; the lower
    median, so that a count stays a count an iteration actually made."""
    return {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
