"""In-memory span tracing around the program's layer entry points.

The traced run patches a fixed list of methods and functions of the
``repro`` package for the duration of one pass and restores the
originals afterwards, so untraced passes run the unmodified program and
no file under ``src/`` knows about the tracer.  Every call of a patched
entry point becomes one span: its name, the layer it belongs to (the
name's prefix), its start and end on the host clock, the span that was
open when it started (its parent) and the pass it ran in.  Spans stay in
memory and are written out once, when the run ends.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans, so the self times of every layer plus the
benchmark's own root span add up to the pass wall time exactly; the root
span's self time is the work no layer span covers (``bench.unattributed_s``).

The same hooks count work at the layer boundaries: encoder calls and the
sample points they evaluated, pricing-plan builds, frames priced, serving
quanta, and the modelled engine cycles of every delivered frame's
``SimReport``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Span that wraps one whole pass; its self time is the unattributed time.
ROOT_SPAN = "bench.pass"
#: Plan building is reported apart from the rest of the exec layer.
PLAN_BUILD_SPAN = "exec.plan_build"
#: Spans whose ``SimReport`` is a delivered frame's price.
REPORT_SPANS = frozenset({"exec.finish", "exec.abandon", "exec.scanout"})
#: Spans that price frames nobody receives: the server's alone-run
#: reference and its scan-out estimates.  Reports under them are host
#: work but not delivered modelled cycles.
REFERENCE_SPANS = frozenset({"exec.alone_cycles", "exec.scanout_estimate"})
#: A report priced under any of these is not a delivered frame's price.
_UNDELIVERED = REPORT_SPANS | REFERENCE_SPANS


class Span:
    """One call of a traced entry point (times in host seconds)."""

    __slots__ = ("name", "parent", "start", "end", "pass_id")

    def __init__(self, name: str, parent: int, start: float, pass_id: int) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.pass_id = pass_id

    @property
    def duration(self) -> float:
        return self.end - self.start


# ----------------------------------------------------------------------
# Count hooks: called as hook(tracer, args, result) after the call.
# ----------------------------------------------------------------------
def _count_encode(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("nerf.encode_calls")
    tracer.count("nerf.points_queried", len(args[1]))


def _count_plans(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("exec.plan_builds", len(args[0]))


def _count_quantum(tracer: "Tracer", args: tuple, result) -> None:
    if tracer.parent_name() == "serving.serve":
        tracer.count("serving.quanta")


def _count_report(tracer: "Tracer", args: tuple, result) -> None:
    """Count one priced frame; add its engine cycles to the modelled
    breakdown when it is a delivered frame (not nested in another
    report-producing span, not a reference or estimate)."""
    tracer.count("exec.frames_priced")
    if tracer.inside(_UNDELIVERED):
        return
    tracer.count("arch.frames")
    tracer.count("arch.total_cycles", result.total_cycles)
    tracer.count("arch.encoding_cycles", result.encoding.cycles)
    tracer.count("arch.mlp_cycles", result.mlp.cycles)
    tracer.count("arch.render_cycles", result.render.cycles)
    tracer.count("arch.bus_cycles", result.bus_cycles)
    tracer.count("arch.stall_cycles", result.buffer_stall_cycles)
    tracer.count("arch.temporal_hits", result.encoding.temporal_hits)
    tracer.count("arch.lookups", result.encoding.lookups)


#: (module, attribute path, span name, count hook).  The public entry
#: points the benchmark calls, plus the layer boundaries inside them that
#: the per-layer metrics need: the model's encoder and MLPs, the frame
#: execution cursor, the plan builder (imported by name into the server,
#: so patched in both modules) and the server's reference pricing.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.nerf.hashgrid", "HashGridEncoder.encode", "nerf.encode", _count_encode),
    ("repro.nerf.mlp", "MLP.forward", "nerf.mlp", None),
    ("repro.core.pipeline", "ASDRRenderer.render_sequence", "core.render_sequence", None),
    ("repro.core.pipeline", "ASDRRenderer.render_image", "core.render_image", None),
    ("repro.arch.accelerator", "ASDRAccelerator.simulate_sequence", "exec.simulate_sequence", None),
    ("repro.arch.accelerator", "ASDRAccelerator.simulate_trace", "exec.simulate_trace", None),
    ("repro.arch.accelerator", "ASDRAccelerator.simulate_scanout", "exec.scanout", _count_report),
    ("repro.exec.execution", "FrameExecution.run", "exec.run", _count_quantum),
    ("repro.exec.execution", "FrameExecution.finish", "exec.finish", _count_report),
    ("repro.exec.execution", "FrameExecution.abandon", "exec.abandon", _count_report),
    ("repro.exec.batch", "build_frame_plans", PLAN_BUILD_SPAN, _count_plans),
    ("repro.serving.server", "build_frame_plans", PLAN_BUILD_SPAN, _count_plans),
    ("repro.serving.server", "SequenceServer.alone_cycles", "exec.alone_cycles", None),
    ("repro.serving.server", "SequenceServer._scanout_cycles", "exec.scanout_estimate", None),
    ("repro.serving.server", "SequenceServer.submit", "serving.submit", None),
    ("repro.serving.server", "SequenceServer.serve", "serving.serve", None),
)


class Tracer:
    """Collects spans and boundary counts over any number of passes."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[int, Counter] = {}
        self._stack: List[int] = []
        self._pass_id = -1
        self._origin = time.perf_counter()

    # -- recording ------------------------------------------------------
    def count(self, key: str, n: int = 1) -> None:
        self.counts[self._pass_id][key] += n

    def parent_name(self) -> Optional[str]:
        """Name of the span enclosing the one that just closed."""
        return self.spans[self._stack[-1]].name if self._stack else None

    def inside(self, names) -> bool:
        """Whether any currently open span has one of ``names``."""
        return any(self.spans[i].name in names for i in self._stack)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), self._pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    def _wrap(self, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def run_pass(self, pass_id: int, fn: Callable[[], object]):
        """Run ``fn`` as one traced pass: patch every target, open the
        root span, and restore the originals however ``fn`` exits."""
        self._pass_id = pass_id
        self.counts[pass_id] = Counter()
        patched = []
        try:
            for module_name, path, name, hook in TARGETS:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, hook))
                patched.append((owner, attr, original))
            index = self._open(ROOT_SPAN)
            try:
                return fn()
            finally:
                self._close(index)
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def self_times(self, pass_id: int) -> Dict[str, float]:
        """Per span name: summed duration minus the time child spans
        cover, over the spans of one pass."""
        members = [i for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        covered: Dict[int, float] = {}
        for i in members:
            parent = self.spans[i].parent
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + self.spans[i].duration
        totals: Dict[str, float] = {}
        for i in members:
            span = self.spans[i]
            own = span.duration - covered.get(i, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def pass_wall(self, pass_id: int) -> float:
        return next(
            s.duration
            for s in self.spans
            if s.pass_id == pass_id and s.name == ROOT_SPAN
        )

    def write(self, path: Path) -> None:
        """Write every span (times relative to the tracer's creation)."""
        origin = self._origin
        records = [
            {
                "name": s.name,
                "start": round(s.start - origin, 9),
                "end": round(s.end - origin, 9),
                "parent": s.parent,
                "pass": s.pass_id,
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": "perfbench_spans/v1", "spans": records}))
