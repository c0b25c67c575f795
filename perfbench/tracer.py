"""In-memory span recorder for the traced benchmark run.

The recorder wraps realstrata's functions from outside the package: every
public module-level function of each layer module, plus the fqf methods that
build or transform whole forms.  A name is wrapped wherever callers look it
up, so the from-imports in ``detector`` and ``oracle`` (``disc_involutions``,
``genus_tilde_nonempty``, ``ambient_with_a_block``, ``subquotient``, ...) are
replaced in those namespaces too, and ``restore`` puts every original back.

A span is ``(name, start, end, parent, stratum)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``stratum`` is the id the benchmark
set before the call.  A span's self time is its duration minus the time its
direct children cover; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# Module name -> layer name used in metric names (metric names must start
# with a letter, so ``_intmat`` reports as ``intmat``).
LAYERS = {
    "_intmat": "intmat",
    "fqf": "fqf",
    "isotropy": "isotropy",
    "lattices": "lattices",
    "nikulin": "nikulin",
    "detector": "detector",
    "oracle": "oracle",
    "cli": "cli",
}

# Element-level helpers run hundreds of thousands of times per pass; their
# cost is left in the caller's self time, like fqf's element arithmetic
# methods (add, eval_q, eval_b, ...), which are not wrapped either.
UNWRAPPED = {"fqf.canon_mod2", "fqf.canon_mod1", "fqf.display_rep"}

# fqf methods that mark the layer boundary: building and transforming forms.
# Constructors are reported as ``form_init`` and ``subgroup_init``.
FQF_METHODS = {
    "FiniteQuadraticForm": {
        "__init__": "form_init", "direct_sum": "direct_sum",
        "p_part": "p_part", "subgroup": "subgroup",
        "orthogonal_complement": "orthogonal_complement",
        "smith_presentation": "smith_presentation",
        "subgroup_as_form": "subgroup_as_form",
    },
    "Subgroup": {"__init__": "subgroup_init", "elements": "elements"},
}

Span = Tuple[str, float, float, int, Optional[str]]


class Tracer:
    """Records spans and outcome counts while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.stratum: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._observers: Dict[str, Callable[[object], None]] = {
            "lattices.disc_involutions": self._count_involutions,
            "nikulin.genus_tilde_nonempty": self._count_genus,
            "oracle.revalidate_witness": self._count_revalidation,
            "detector.detect": self._count_candidates,
        }

    # ------------------------------------------------------------ outcomes

    def _count_involutions(self, result) -> None:
        self.counts["lattices.involutions"] += len(result)

    def _count_genus(self, result) -> None:
        self.counts["nikulin.genus_true"] += bool(result[0])

    def _count_revalidation(self, result) -> None:
        if result is True:
            self.counts["oracle.revalidated"] += 1
        elif result == "skipped_cutoff":
            self.counts["oracle.skipped_cutoff"] += 1

    def _count_candidates(self, report) -> None:
        # Each evaluated candidate ends as a trace row with a kappa, or as
        # the witness.
        rows = sum(1 for row in report.trace if row["kappa"] is not None)
        found = report.witness is not None
        self.counts["detector.candidates"] += rows + found

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.stratum)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {mod: importlib.import_module(f"realstrata.{mod}")
                   for mod in LAYERS}
        namespaces = [*modules.values(), importlib.import_module("realstrata")]
        wrappers: Dict[int, Callable] = {}
        for mod, module in modules.items():
            for attr, obj in vars(module).items():
                span = f"{LAYERS[mod]}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)
                        or f"{mod}.{attr}" in UNWRAPPED):
                    continue
                wrappers[id(obj)] = self._wrap(span, obj)
        # Replace every binding of a wrapped function, in the defining
        # module and in each module that imported it by name.
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])
        fqf = modules["fqf"]
        for cls_name, methods in FQF_METHODS.items():
            cls = getattr(fqf, cls_name)
            for method, label in methods.items():
                self._patch(cls, method,
                            self._wrap(f"fqf.{label}", vars(cls)[method]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def summarize(spans: List[Span], lo: int, hi: int
              ) -> Dict[str, Tuple[float, int]]:
    """Per span name: (self seconds, calls) over spans[lo:hi], a range that
    starts and ends at top level."""
    child = [0.0] * (hi - lo)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += end - start
    out: Dict[str, Tuple[float, int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans[lo:hi]):
        self_s, calls = out.get(name, (0.0, 0))
        out[name] = (self_s + (end - start) - child[i], calls + 1)
    return out


def write_spans(spans: List[Span], path) -> None:
    """One tab-separated line per span: name, start, end, parent, stratum."""
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\tstratum\n")
        for name, start, end, parent, stratum in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                     f"{stratum or ''}\n")
