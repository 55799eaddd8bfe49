"""Span recorder that wraps the program's public callables from outside.

Tracing lives entirely in the benchmark: :class:`Tracer` replaces each
listed callable on its defining module or class, and on every ``repro``
module that imported it by name (``from x import f`` copies the binding,
so patching ``x.f`` alone would miss those callers).  Each span records
its group name, start, end, parent and run id; spans stay in memory and
are written out when the benchmark ends.  Worker processes are out of
reach, so distributed work shows only as the driver-side step spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (group, "module:qualname", draw counter or None).  A group's time is the
#: inclusive time of its outermost spans; self time subtracts child spans.
TARGETS: Sequence[Tuple[str, str, Optional[Callable[..., int]]]] = (
    ("graph.to_csr", "repro.graph.csr:as_csr", None),
    ("graph.to_csr", "repro.graph.csr:CSRGraph.from_graph", None),
    ("graph.validate", "repro.graph.properties:is_independent_set", None),
    ("graph.validate", "repro.graph.properties:is_maximal_independent_set", None),
    ("graph.validate", "repro.graph.properties:is_matching", None),
    ("graph.validate", "repro.graph.properties:is_maximal_matching", None),
    ("graph.validate", "repro.graph.properties:is_vertex_cover", None),
    ("graph.validate", "repro.graph.properties:is_valid_fractional_matching", None),
    ("core.mis", "repro.core.mis_mpc:mis_mpc", None),
    ("core.fractional", "repro.core.matching_mpc:mpc_fractional_matching", None),
    ("core.rounding", "repro.core.rounding:round_fractional_matching", None),
    ("core.matching_driver", "repro.core.integral:mpc_maximum_matching", None),
    ("core.cover", "repro.core.vertex_cover:mpc_vertex_cover", None),
    ("core.threshold", "repro.core.thresholds:ThresholdOracle.crosses_batch", None),
    (
        "utils.rng",
        "repro.utils.rng:RngStream.random_batch",
        lambda self, entities, *key: len(entities),
    ),
    ("api.canonical", "repro.api.report:canonical_solution", None),
    ("verify.certify", "repro.verify.certify:certify_report", None),
    ("dist.step", "repro.dist.executor:DistExecutor.map_tasks", None),
    ("dist.step", "repro.dist.executor:DistExecutor.scatter_step", None),
    ("dist.step", "repro.dist.executor:DistExecutor.broadcast_step", None),
    ("stream.repair", "repro.stream.maintain:Maintainer.step", None),
    ("stream.apply", "repro.stream.dynamic:DynamicGraph.apply_edges", None),
    ("stream.compact", "repro.stream.dynamic:DynamicGraph.snapshot", None),
    ("stream.compact", "repro.stream.dynamic:DynamicGraph.compact", None),
    ("serve.process", "repro.serve.session:TenantSession.process", None),
    ("serve.dispatch", "repro.serve.service:ServeService._dispatch", None),
    ("serve.snapshot_payload", "repro.serve.session:TenantSession.snapshot_payload", None),
    ("serve.snapshot_write", "repro.serve.snapshot:write_snapshot", None),
)


class Span:
    __slots__ = ("group", "start", "end", "parent", "run", "draws", "child_s")

    def __init__(self, group: str, start: float, parent: Optional["Span"], run: int):
        self.group = group
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.draws = 0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def nested_in_group(self) -> bool:
        """True when an ancestor span belongs to the same group."""
        node = self.parent
        while node is not None:
            if node.group == self.group:
                return True
            node = node.parent
        return False


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores everything."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run = 0
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, group: str, fn: Callable, draws: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span = Span(group, time.perf_counter(), stack[-1] if stack else None, self.run)
            if draws is not None:
                span.draws = draws(*args, **kwargs)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every target; the program's modules must be imported first."""
        for group, target, draws in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self._wrap(group, raw.__func__, draws))
                else:
                    patched = self._wrap(group, raw, draws)
                self._set(owner, attr, patched)
                continue
            original = getattr(module, qualname)
            patched = self._wrap(group, original, draws)
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and getattr(
                    loaded, qualname, None
                ) is original:
                    self._set(loaded, qualname, patched)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading ------------------------------------------------------------

    def totals(self, run: int) -> Dict[str, Dict[str, float]]:
        """Per group for one run id: inclusive/self seconds, calls, draws."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.run != run or span.nested_in_group():
                continue
            entry = out.setdefault(
                span.group, {"time_s": 0.0, "self_s": 0.0, "calls": 0, "draws": 0}
            )
            entry["time_s"] += span.duration
            entry["self_s"] += span.duration - span.child_s
            entry["calls"] += 1
            entry["draws"] += span.draws
        return out

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (name, start, end, parent, run)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span.parent)) if span.parent else None
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.group,
                            "start": span.start,
                            "end": span.end,
                            "parent": parent,
                            "run": span.run,
                        }
                    )
                    + "\n"
                )
