"""In-memory span tracing around the engine's layer entry points.

The traced run wraps the public entry point of each layer (the table in
``README.md``) with a function that records a span: name, start, end,
parent span, operation id, thread and phase, plus counts taken from the
call's arguments or result.  Each wrapper replaces the original under
every name a ``repro`` module holds it by, so a caller that imported the
function into its own namespace is traced too.  Spans stay in a list
until the run ends; :func:`layer_metrics` folds them into per-layer self
times and counts.

Nothing here runs in the untraced end-to-end runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.metrics.timing import clock


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    thread: str
    phase: str
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Records spans; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_op(self, op: str) -> None:
        self._local.op = op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        counts: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
        op_of: Callable[[tuple], str] | None = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if op_of is not None:
                tracer._local.op = op_of(args)
            span = Span(
                name=name,
                start=clock(),
                end=0.0,
                parent=stack[-1] if stack else -1,
                op=getattr(tracer._local, "op", ""),
                thread=threading.current_thread().name,
                phase=tracer.phase,
            )
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if op_of is not None:
                    tracer._local.op = ""
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with path.open("w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "thread": s.thread,
                    "phase": s.phase, "counts": s.counts,
                }) + "\n")


def _join_rows(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"rows": float(len(result.relation))}


def _check_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    cells = args[1] if len(args) > 1 else kwargs["cells"]
    return {"cells": float(len(cells)), "violations": float(len(result))}


def _dc_candidates(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    if result is None:
        return {"candidates": 0.0}
    return {"candidates": float(sum(len(f.candidates) for f in result.fixes.values()))}


def _request_op(args: tuple) -> str:
    request = args[1]
    return f"{request.client}:{request.seq}"


#: (layer, module, attribute, counts, op_of).  An attribute ``Class.method``
#: patches the method on the class; a plain name patches the function in
#: its defining module and in every ``repro`` module that imported it.
SITES: list[tuple[str, str, str, Any, Any]] = [
    ("query.parse", "repro.query.sql", "parse_sql", None, None),
    ("query.plan", "repro.query.planner", "resolve_query", None, None),
    ("query.plan", "repro.query.planner", "build_plan", None, None),
    ("query.exec", "repro.query.executor", "Executor.execute_resolved", None, None),
    ("query.join", "repro.probabilistic.lineage", "join_with_lineage", _join_rows, None),
    ("api.execute", "repro.api.session", "Session.execute", None, None),
    ("core.clean", "repro.core.operators", "clean_sigma", None, None),
    ("core.clean", "repro.core.operators", "clean_join", None, None),
    ("core.relax", "repro.core.relaxation", "relax_fd", None, None),
    ("core.relax", "repro.parallel.clean", "parallel_relax_fd", None, None),
    ("core.apply_updates", "repro.core.state", "TableState.apply_updates", None, None),
    ("detection.decide", "repro.detection.estimator", "decide_cleaning", None, None),
    ("detection.check", "repro.detection.thetajoin", "ThetaJoinMatrix.check_cells",
     _check_counts, None),
    ("detection.matrix", "repro.core.state", "TableState.matrix_for", None, None),
    ("repair.fd_fixes", "repro.repair.fd_repair", "compute_fd_fixes", None, None),
    ("repair.dc_fixes", "repro.repair.dc_repair", "compute_dc_fixes", _dc_candidates, None),
    ("repair.merge", "repro.repair.merge", "merge_deltas", None, None),
    ("repair.apply", "repro.repair.fd_repair", "apply_fd_delta", None, None),
    ("relation.load", "repro.relation.io", "read_csv", None, None),
    ("service.turnstile_wait", "repro.service.scheduler", "TableTurnstile.wait_for", None, None),
    ("service.admit", "repro.core.costmodel", "AdaptivePlanner.choose_admission", None, None),
    ("service.execute", "repro.service.runner", "RequestRunner.run", None, _request_op),
]


def install(tracer: Tracer) -> None:
    """Patch every site with a traced wrapper."""
    repro_modules = [
        m for name, m in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    for layer, module_name, attr, counts, op_of in SITES:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(layer, cls.__dict__[method], counts, op_of))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, original, counts, op_of)
        for holder in repro_modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)


#: Layers whose self time is reported, as ``<layer>_s``.
TIMED_LAYERS = [
    "query.parse", "query.plan", "query.exec", "query.join", "api.execute",
    "core.clean", "core.relax", "core.apply_updates", "detection.decide",
    "detection.check", "detection.matrix", "repair.fd_fixes", "repair.dc_fixes",
    "repair.merge", "repair.apply", "service.turnstile_wait", "service.admit",
    "service.execute",
]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], phase: str = "ops") -> dict[str, float]:
    """Per-layer self seconds and counts over the spans of one phase;
    ``relation.load_s`` comes from the set-up phase."""
    selfs = self_times(spans)
    out: dict[str, float] = {f"{layer}_s": 0.0 for layer in TIMED_LAYERS}
    out["relation.load_s"] = 0.0
    out["service.execute_total_s"] = 0.0
    counts = {"query.join_rows": 0.0, "detection.cells_checked": 0.0,
              "detection.violations": 0.0, "repair.candidates": 0.0}
    for span, own in zip(spans, selfs):
        if span.name == "relation.load":
            if span.phase == "setup":
                out["relation.load_s"] += own
            continue
        if span.phase != phase:
            continue
        out[f"{span.name}_s"] += own
        if span.name == "service.execute":
            out["service.execute_total_s"] += span.end - span.start
        c = span.counts
        counts["query.join_rows"] += c.get("rows", 0.0)
        counts["detection.cells_checked"] += c.get("cells", 0.0)
        counts["detection.violations"] += c.get("violations", 0.0)
        counts["repair.candidates"] += c.get("candidates", 0.0)
    out.update(counts)
    return out
