"""Outside-in tracing of the package's layers.

For a traced run only, each public function listed in ``LAYERS`` is
rebound to a wrapper in every package module that holds it (so
``geometry.rank`` and ``experiments.tverberg_search`` are wrapped as
well as ``linalg.rank``), and methods are rebound on their class. A
wrapper records one span per call: name, start, end, parent span and
run id, plus a few counts read from the arguments and the result.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics. Nothing under ``src/`` knows about any of this, and untraced
runs import the package untouched.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "kneser_tverberg"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run: str
    attrs: Optional[dict] = None


def _cells(args, kwargs) -> int:
    rows = args[0] if args else kwargs["rows"]
    return len(rows) * len(rows[0]) if rows else 0


# span name -> (module, attribute, counts read from (args, kwargs, result)).
# An attribute "Class.method" is rebound on the class.
Recorder = Optional[Callable[[tuple, dict, object], dict]]
LAYERS: dict[str, tuple[str, str, Recorder]] = {
    "linalg.rank": ("linalg", "rank", lambda a, k, res: {"cells": _cells(a, k)}),
    "linalg.feasible_nonneg": (
        "linalg",
        "feasible_nonneg",
        lambda a, k, res: {"cells": _cells(a, k), "infeasible": res is None},
    ),
    "geometry.strong_general_position_report": (
        "geometry",
        "strong_general_position_report",
        lambda a, k, res: {"tuples_checked": res[2]},
    ),
    "geometry.conv_intersect": (
        "geometry",
        "conv_intersect",
        lambda a, k, res: {"witnesses": res is not None},
    ),
    "geometry.tverberg_search": (
        "geometry",
        "tverberg_search",
        lambda a, k, res: {
            "absences": type(res).__name__ == "AbsenceReport",
            "certificates": type(res).__name__ == "TverbergCertificate",
        },
    ),
    "geometry.avg_stable_placement": ("geometry", "avg_stable_placement", None),
    "geometry.intertwined_pair": ("geometry", "intertwined_pair", None),
    "geometry.separating_polynomial": (
        "geometry",
        "separating_polynomial",
        lambda a, k, res: {"certificates": res is not None},
    ),
    "coloring.chromatic_number": (
        "coloring",
        "chromatic_number",
        lambda a, k, res: {
            "search_nodes": res.search_nodes,
            "refutation_nodes": res.refutation_nodes or 0,
        },
    ),
    "coloring.greedy_least_label": ("coloring", "greedy_least_label", None),
    "coloring.verify_constraint_property": ("coloring", "verify_constraint_property", None),
    **{
        f"hypergraphs.{fn}": ("hypergraphs", fn, lambda a, k, res: {"edges": res.n_edges})
        for fn in (
            "kneser_hypergraph",
            "intersection_hypergraph",
            "generalized_kneser",
            "stable_avg_hypergraph",
        )
    },
    "simplicial.face_masks": ("simplicial", "SimplicialComplex.face_masks", None),
    "simplicial.minimal_nonfaces": ("simplicial", "SimplicialComplex.minimal_nonfaces", None),
    "simplicial.complex_from_forbidden": ("simplicial", "complex_from_forbidden", None),
}

# Extra per-layer metrics beyond calls, self_s and the recorded counts.
_LOWER, _HIGHER = "lower", "higher"
_EXTRA: dict[str, list[tuple[str, str, str]]] = {
    "linalg.rank": [("cells", "count", _LOWER)],
    "linalg.feasible_nonneg": [("cells", "count", _LOWER), ("infeasible", "count", _LOWER)],
    "geometry.strong_general_position_report": [("tuples_checked", "count", _LOWER)],
    "geometry.conv_intersect": [("bbox_rejects", "count", _HIGHER), ("witnesses", "count", _HIGHER)],
    "geometry.tverberg_search": [
        ("tuples_examined", "count", _LOWER),
        ("certificates", "count", _HIGHER),
        ("absences", "count", _HIGHER),
    ],
    "geometry.avg_stable_placement": [("total_s", "s", _LOWER), ("sgp_attempts", "count", _LOWER)],
    "geometry.separating_polynomial": [("certificates", "count", _HIGHER)],
    "coloring.chromatic_number": [
        ("search_nodes", "count", _LOWER),
        ("refutation_nodes", "count", _LOWER),
    ],
    **{f"hypergraphs.{fn}": [("edges", "count", _LOWER)] for fn in (
        "kneser_hypergraph", "intersection_hypergraph", "generalized_kneser", "stable_avg_hypergraph",
    )},
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", _LOWER))
        out.append((f"{layer}.self_s", "s", _LOWER))
        out.extend((f"{layer}.{q}", unit, better) for q, unit, better in _EXTRA.get(layer, ()))
    out.append(("experiments.self_s", "s", _LOWER))
    out.append(("trace.spans", "count", _LOWER))
    out.append(("trace.overhead_frac", "ratio", _LOWER))
    return out


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self, run: str):
        self.spans: list[Span] = []
        self.run = run
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, record: Recorder) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if record is not None:
                span.attrs = record(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        __import__(PACKAGE)
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        experiments = sys.modules[PACKAGE + ".experiments"]
        targets = dict(LAYERS)
        for attr, fn in vars(experiments).items():
            if attr.startswith("verify_") and getattr(fn, "__module__", None) == experiments.__name__:
                targets[f"experiments.{attr}"] = ("experiments", attr, None)
        undo: list[tuple[object, str, object]] = []
        try:
            for name, (mod, attr, record) in targets.items():
                owner = sys.modules[f"{PACKAGE}.{mod}"]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                    holders = [owner]
                else:
                    holders = modules
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig, record)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            undo.append((holder, key, value))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    def write(self, fh) -> None:
        """Write the spans as JSON lines: name, start, end, parent, run, counts."""
        for s in self.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run, s.attrs]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run, zero for layers never called.

    ``trace.overhead_frac`` needs an untraced run and is left to the caller.
    """
    metrics: dict[str, float] = {
        name: 0 for name, _, _ in metric_specs() if name != "trace.overhead_frac"
    }
    child_names: list[list[str]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            child_names[s.parent].append(s.name)
    for s, own, kids in zip(spans, self_times(spans), child_names):
        if s.name.startswith("experiments."):
            metrics["experiments.self_s"] += own
            continue
        metrics[f"{s.name}.calls"] += 1
        metrics[f"{s.name}.self_s"] += own
        for key, value in (s.attrs or {}).items():
            metrics[f"{s.name}.{key}"] += value
        # Counts that need the span tree, not just one call.
        if s.name == "geometry.conv_intersect" and s.attrs and not s.attrs["witnesses"]:
            metrics[f"{s.name}.bbox_rejects"] += "linalg.feasible_nonneg" not in kids
        elif s.name == "geometry.tverberg_search":
            metrics[f"{s.name}.tuples_examined"] += kids.count("geometry.conv_intersect")
        elif s.name == "geometry.avg_stable_placement":
            metrics[f"{s.name}.total_s"] += s.end - s.start
            metrics[f"{s.name}.sgp_attempts"] += kids.count("geometry.strong_general_position_report")
    metrics["trace.spans"] = len(spans)
    return metrics
