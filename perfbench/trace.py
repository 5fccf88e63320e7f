"""In-memory spans, self times, and the proxies that record them from outside.

A span is ``[name, layer, start, end, parent, ident]``: ``layer`` is the
module under ``src/repro`` the time is attributed to, ``parent`` the index of
the span that caused it (-1 for a root) and ``ident`` the job, batch or
request it belongs to.  Spans stay in a list while the benchmark runs and are
written out once, when it ends.

:class:`TracedKernel` and :class:`TracedPlan` wrap a kernel / a plan and time
their public ``run`` — the engine's own ``process`` and ``EnginePlan.run``
code executes unchanged around them, so outputs are the program's own and the
parent spans' self times are the program's own overheads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

NAME, LAYER, START, END, PARENT, IDENT = range(6)


class Tracer:
    """Span store with a begin/end stack for the single-threaded engine path."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str, layer: str, ident=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, ident])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def add(self, name: str, layer: str, start: float, end: float, parent: int = -1,
            ident=None) -> int:
        """Record a span whose endpoints were measured elsewhere (futures)."""
        self.spans.append([name, layer, start, end, parent, ident])
        return len(self.spans) - 1

    def extend(self, other: "Tracer") -> None:
        """Append another tracer's spans, keeping their parent links."""
        base = len(self.spans)
        for span in other.spans:
            parent = span[PARENT] + base if span[PARENT] >= 0 else -1
            self.spans.append([*span[:PARENT], parent, span[IDENT]])

    # ------------------------------------------------------------ analysis --
    def self_times(self) -> List[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def self_time_by_layer(self) -> Dict[str, float]:
        """Total self time per layer."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[LAYER]] += own
        return dict(totals)

    def skeleton_hash(self, root: int = 0) -> str:
        """Hash of the span tree under ``root`` without its timings.

        Names, layers, identifiers and parent links of one job are a function
        of the schedule alone, so the same seed must give the same hash.
        """
        keep = {root}
        rows = []
        for index, span in enumerate(self.spans):
            if index == root or span[PARENT] in keep:
                keep.add(index)
                parent = self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
                rows.append([span[NAME], span[LAYER], parent, span[IDENT]])
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    def dump(self, path, meta: dict, limit: int = 200_000) -> None:
        """Write the spans as JSON; ``limit`` bounds the file, not the metrics."""
        fields = ["name", "layer", "start", "end", "parent", "ident"]
        payload = {
            "meta": dict(meta, spans_recorded=len(self.spans), spans_written=min(
                limit, len(self.spans))),
            "fields": fields,
            "spans": self.spans[:limit],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class TracedKernel:
    """Times ``kernel.run``; every other attribute is the wrapped kernel's."""

    def __init__(self, kernel, tracer: Tracer) -> None:
        self._kernel = kernel
        self._tracer = tracer
        self._name = getattr(kernel, "name", None) or f"{kernel.kind}{kernel.index}"

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def run(self, x, task, ws, recorder, ctx=None):
        self._tracer.begin(self._name, "engine.kernels", self._kernel.kind)
        try:
            return self._kernel.run(x, task, ws, recorder, ctx)
        finally:
            self._tracer.end()


class TracedPlan:
    """Times ``plan.run`` / ``plan.run_mixed`` over a kernel-traced copy of a plan.

    The copy shares every tensor, task table and workspace pool with the
    original (``dataclasses.replace`` is shallow); only the kernel list holds
    proxies, so ``EnginePlan``'s own loop, transposes and head GEMM run as
    they do untraced and land in this span's self time.
    """

    def __init__(self, plan, tracer: Tracer) -> None:
        self._plan = dataclasses.replace(
            plan, kernels=[TracedKernel(kernel, tracer) for kernel in plan.kernels]
        )
        self._tracer = tracer
        self.batches = 0

    def __getattr__(self, name):
        return getattr(self._plan, name)

    def _timed(self, name: str, call, *args, **kwargs):
        self._tracer.begin(name, "engine.plan", self.batches)
        self.batches += 1
        try:
            return call(*args, **kwargs)
        finally:
            self._tracer.end()

    def run(self, *args, **kwargs):
        return self._timed("plan.run", self._plan.run, *args, **kwargs)

    def run_mixed(self, *args, **kwargs):
        return self._timed("plan.run_mixed", self._plan.run_mixed, *args, **kwargs)


def overhead_share(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Share of throughput that recording spans costs: wall times of traced
    jobs against those of the untraced jobs interleaved with them.  Medians
    over a few hundred alternating jobs, so neither a stall nor a drift of the
    host's speed during the window reads as overhead."""
    return 1.0 - statistics.median(untraced) / statistics.median(traced)


def kernel_breakdown(tracer: Tracer) -> Optional[dict]:
    """Kernel self time by kind and the largest single kernel's share of it."""
    by_kind: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, float] = defaultdict(float)
    calls = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span[LAYER] == "engine.kernels":
            by_kind[span[IDENT]] += own
            by_name[span[NAME]] += own
            calls += 1
    total = sum(by_kind.values())
    if not total:
        return None
    return {
        "conv": by_kind.get("conv", 0.0),
        "linear": by_kind.get("linear", 0.0),
        "pool": by_kind.get("pool", 0.0),
        "other": total - sum(by_kind.get(kind, 0.0) for kind in ("conv", "linear", "pool")),
        "total": total,
        "calls": calls,
        "top_share": max(by_name.values()) / total,
    }
