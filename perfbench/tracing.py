"""Spans and counters recorded from outside the program.

Timing wrappers are patched onto the names where callers look the public
functions up (``cinestagger.cli.solve_all``, ``cinestagger.cluster.certify``
and so on); nothing in the package changes.  Each span records its name,
start, end, parent span and op id.  Spans stay in memory until the run
writes them out.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    op: int


def _add(key: str, amount: Callable) -> Callable:
    def count(counts, result, args):
        counts[key] += amount(result, args)
    return count


def _bytes_in(result, args) -> int:
    return os.path.getsize(args[0]) if isinstance(args[0], (str, os.PathLike)) else 0


def _augmentations(counts, result, args) -> None:
    counts["solver.solve_assignment.augmentations"] += result.stats.nodes
    counts["solver.screens"] += len(args[0].screen_ids)


# (module, attribute the caller looks up, span name, counter)
PATCHES: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("cinestagger.cli", "load_instance", "domain.load_instance", _add("domain.bytes_in", _bytes_in)),
    ("cinestagger.domain", "parse_document", "domain.parse_document", None),
    ("cinestagger.domain", "validate_instance", "domain.validate_instance", None),
    ("cinestagger.cli", "dumps_instance", "domain.dumps_instance", None),
    ("cinestagger.cli", "generate_configurations", "confgen.generate_configurations",
     _add("confgen.configurations", lambda r, a: len(r))),
    ("cinestagger.confgen", "generate_configurations", "confgen.generate_configurations",
     _add("confgen.configurations", lambda r, a: len(r))),
    ("cinestagger.cli", "build_model", "formulation.build_model",
     _add("formulation.variables", lambda r, a: r.variable_count)),
    ("cinestagger.cluster", "build_model", "formulation.build_model",
     _add("formulation.variables", lambda r, a: r.variable_count)),
    ("cinestagger.cli", "export_lp_text", "formulation.export_lp_text",
     _add("formulation.lp_bytes", lambda r, a: len(r))),
    ("cinestagger.solver", "check_feasible", "formulation.check_feasible",
     _add("formulation.check_feasible.calls", lambda r, a: 1)),
    ("cinestagger.cli", "solve_all", "cluster.solve_all",
     _add("cluster.clusters", lambda r, a: len(r.per_cluster))),
    ("cinestagger.cli", "build_joint_model", "cluster.build_joint_model", None),
    ("cinestagger.cluster", "certify", "solver.certify", None),
    ("cinestagger.solver", "solve_assignment", "solver.solve_assignment", _augmentations),
    ("cinestagger.solver", "solve_branch_and_bound", "solver.solve_branch_and_bound",
     _add("solver.solve_branch_and_bound.nodes", lambda r, a: r.stats.nodes)),
    ("cinestagger.solver", "solve_brute_force", "solver.solve_brute_force",
     _add("solver.solve_brute_force.leaves", lambda r, a: r.stats.nodes)),
]

ROOT = "cli.main"
TIMED = [ROOT] + sorted({name for _, _, name, _ in PATCHES})
CROSS_CHECK = ["solver.solve_branch_and_bound", "solver.solve_brute_force",
               "formulation.check_feasible", "solver.certify"]
COUNTS = {  # per-op counter -> unit
    "solver.solve_assignment.augmentations": "count",
    "solver.solve_branch_and_bound.nodes": "count",
    "solver.solve_brute_force.leaves": "count",
    "domain.bytes_in": "B",
    "confgen.configurations": "count",
    "formulation.variables": "count",
    "formulation.check_feasible.calls": "count",
    "formulation.lp_bytes": "B",
    "cluster.clusters": "count",
    "cli.bytes_out": "B",
}


class Tracer:
    """In-memory span recorder with install/remove of the timing wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.op))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    def end_op(self) -> None:
        """Close whatever an aborted op left open, at the current time."""
        now = time.perf_counter()
        for index in self._stack:
            if self.spans[index].end is None:
                self.spans[index].end = now
        self._stack.clear()

    def wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self.counts, result, args)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, count in PATCHES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((s.end - s.start) - covered)
    return result


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, overhead: float) -> Dict[str, tuple]:
    """Per-layer metrics of a traced pass of ``ops`` ops taking ``traced_s``: name -> (value, unit).

    ``overhead`` is 1 - untraced time / traced time of the same ops.
    """
    self_s: Dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span.name] += own
    metrics: Dict[str, tuple] = {}
    for name in TIMED:
        metrics[f"{name}.self_ms"] = (self_s[name] * 1000 / ops, "ms")
        metrics[f"{name}.share"] = (self_s[name] / traced_s, "frac")
    for name, unit in COUNTS.items():
        metrics[name] = (tracer.counts[name] / ops, unit)
    screens = tracer.counts["solver.screens"]
    augmentations = tracer.counts["solver.solve_assignment.augmentations"]
    metrics["solver.augmentations_per_screen"] = (augmentations / screens if screens else 0.0, "ratio")
    metrics["solver.cross_check_share"] = (sum(self_s[n] for n in CROSS_CHECK) / traced_s, "frac")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics
