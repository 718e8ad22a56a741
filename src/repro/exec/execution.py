"""The resumable execution engine: frames as cursors over wavefront steps.

:class:`FrameExecution` is the execution unit behind every simulation
entry point of :class:`~repro.arch.accelerator.ASDRAccelerator`.  A
``FrameExecution`` is a *cursor* over one frame's wavefront steps: one
step per budget-group wavefront slice (re-chunked to the design's
``wavefront_rays``; the Phase I adaptive-sampling tail is the final
step).  The frame is priced once, in fused passes, into a
:class:`~repro.exec.batch.FramePlan`; :meth:`~FrameExecution.run` replays
the next steps' plan records into a partial
:class:`~repro.arch.accelerator.SimReport`.

Because each frame owns its plan and the steps replay in exactly the
order of the per-slice pricing model, an execution can be **suspended
after any step and resumed later — even with other frames' wavefronts
executed in between — and still produce bit-identical cycles and
energy** to an uninterrupted run (pinned by the golden test in
``tests/test_execution.py``).  That property is what makes
wavefront-granularity preemption in the serving layer
(:class:`~repro.serving.server.SequenceServer`) free of pricing
artefacts: the interleaved total always equals the sum of per-client
service cycles.

Lifecycle::

    ex = accelerator.frame_execution(sequence, k, temporal=cache)
    while not ex.done:
        charged = ex.run(max_steps=quantum)   # suspend point
    report = ex.finish()                      # bus + energy + cache commit

``finish()`` finalises the frame exactly once: RGB scan-out bus traffic,
energy for the accumulated busy time, and — for sequence frames — the
temporal vertex-cache commit at the frame boundary.  A client departing
mid-frame calls :meth:`~FrameExecution.abandon` instead, which charges
energy for the work actually executed but never commits the cache and
never bills the (undelivered) scan-out.

Frames recorded as pose replays execute in *scan-out mode*: a single
step charging the framebuffer scan-out, identical to
:meth:`~repro.arch.accelerator.ASDRAccelerator.simulate_scanout`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.events import (
    EV_EXEC_BATCH,
    EV_EXEC_STEP,
    EV_FRAME_FINISH,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.accelerator import ASDRAccelerator, SimReport
    from repro.exec.batch import FramePlan
    from repro.obs.recorder import Recorder


#: Sentinel distinguishing "commit with tag None" from "do not commit".
_NO_COMMIT = object()


def _build_frame_setup(
    accelerator, trace, config, group_size, color_fraction, resolutions
):
    """The per-frame pricing setup shared by every execution of a trace.

    A pure function of the trace and the pricing knobs in its key (see
    the constructor), cached on ``trace._setup_cache``.  Every array and
    list returned is treated as read-only by the executions sharing it.
    """
    # Empty slices charge nothing in any consumer; dropping them up
    # front keeps `step` meaningful (every step prices real work).
    slices = [
        sl for sl in trace.split(config.wavefront_rays) if sl.num_points > 0
    ]
    total_points = sum(sl.num_points for sl in slices)
    if color_fraction is not None:
        slice_color_points = [
            math.ceil(sl.num_points * color_fraction) for sl in slices
        ]
    else:
        color_used = accelerator._effective_color_used(trace, group_size)
        slice_color_points = [
            int(color_used[sl.index][sl.rays].sum()) for sl in slices
        ]
    slice_in_flight = [
        min(sl.num_points, config.wavefront_rays) for sl in slices
    ]
    # Slices of one wavefront are consecutive, so concatenating each
    # visited wavefront's voxel bases once yields the frame's point order.
    wavefront_order = list(dict.fromkeys(sl.index for sl in slices))
    corner_bases = [
        (
            np.concatenate(
                [trace.voxel_base(w, resolution) for w in wavefront_order]
            )
            if wavefront_order
            else np.empty((0, 3), dtype=np.int64)
        )
        for resolution in resolutions
    ]
    return (
        slices,
        total_points,
        slice_color_points,
        slice_in_flight,
        corner_bases,
    )


class FrameExecution:
    """Cursor-style execution of one frame on one accelerator design.

    Do not construct directly — use
    :meth:`~repro.arch.accelerator.ASDRAccelerator.frame_execution` (for
    sequence frames) or
    :meth:`~repro.arch.accelerator.ASDRAccelerator.trace_execution` (for
    bare frame traces).  The constructor mirrors the keyword surface of
    the old ``simulate_trace``; every override keeps its exact meaning.

    Attributes:
        trace: The frame's :class:`~repro.exec.frame_trace.FrameTrace`.
        report: The partial :class:`~repro.arch.accelerator.SimReport`
            accumulated so far (finalised by :meth:`finish`).
    """

    def __init__(
        self,
        accelerator: "ASDRAccelerator",
        trace,
        *,
        group_size: Optional[int] = None,
        color_fraction: Optional[float] = None,
        difficulty_evals: Optional[int] = None,
        rendered_pixels: Optional[int] = None,
        temporal=None,
        memo_scope=None,
        wavefront_log: Optional[List[Tuple[Tuple, int]]] = None,
        scanout: bool = False,
        commit_tag=_NO_COMMIT,
        recorder: Optional["Recorder"] = None,
    ) -> None:
        # The encoding engine lives under repro.arch, which imports this
        # module back through the accelerator; resolve it lazily so the
        # two layers can load in either order.
        from repro.arch.encoding_engine import EncodingEngine
        from repro.exec.frame_trace import FrameTrace

        if not isinstance(trace, FrameTrace):
            raise SimulationError(
                f"simulate_trace expects a FrameTrace, got {type(trace).__name__}"
            )
        self.accelerator = accelerator
        self.trace = trace
        self.report: "SimReport" = accelerator._new_report()
        self._temporal = temporal
        self._commit_tag = commit_tag
        self._wavefront_log = wavefront_log
        self._rendered_pixels = rendered_pixels
        self._scanout = scanout
        self._cursor = 0
        self._points_done = 0
        self._finalised = False
        self._plan: Optional["FramePlan"] = None
        # Telemetry is observer-only: a disabled recorder is normalised to
        # None here so every hot-path hook is one identity check, and the
        # emitted fields are values the engine computed anyway — the
        # cycle accounting above this line never depends on the recorder.
        self._recorder = (
            recorder if recorder is not None and recorder.enabled else None
        )

        if scanout:
            self._slices: List = []
            self._total_points = 0
            self._evals = 0
            self._steps_total = 1
            return

        config = accelerator.config
        self._memo_scope = trace if memo_scope is None else memo_scope
        self._encoding_engine = EncodingEngine(config, accelerator.grid)
        self._resolutions = [int(r) for r in accelerator.grid.level_resolutions]
        self._evals = (
            trace.difficulty_evals if difficulty_evals is None else difficulty_evals
        )

        # Everything below is a pure, read-only function of the trace and
        # the pricing knobs — slicing, per-slice color-point counts,
        # buffer-model in-flight inputs, and contiguous per-frame voxel
        # bases per level — so it is computed once per (trace, knobs) and
        # shared by every FrameExecution over the trace.  Serving
        # constructs many executions per frame (scheduling probes, plan
        # prefetch, per-policy replays); sharing the setup keeps
        # construction O(1) after the first.
        setup_key = (
            config.wavefront_rays,
            group_size,
            color_fraction,
            tuple(self._resolutions),
        )
        setup = trace._setup_cache.get(setup_key)
        if setup is None:
            setup = _build_frame_setup(
                accelerator, trace, config, group_size, color_fraction,
                self._resolutions,
            )
            trace._setup_cache[setup_key] = setup
        (
            self._slices,
            self._total_points,
            self._slice_color_points,
            self._slice_in_flight,
            self._corner_bases,
        ) = setup
        self._steps_total = len(self._slices) + (1 if self._evals else 0)

    # ------------------------------------------------------------------
    # Cursor state
    # ------------------------------------------------------------------
    @property
    def steps_total(self) -> int:
        """Wavefront steps this frame comprises (adaptive tail included)."""
        return self._steps_total

    @property
    def steps_done(self) -> int:
        return self._cursor

    @property
    def done(self) -> bool:
        """All steps executed (the frame still needs :meth:`finish`)."""
        return self._cursor >= self._steps_total

    @property
    def service_cycles(self) -> int:
        """Cycles charged so far — the partial frame's accelerator time."""
        return self.report.total_cycles

    @property
    def points_done(self) -> int:
        """Density-MLP points executed so far (cost-model feedback)."""
        return self._points_done

    @property
    def remaining_points(self) -> int:
        """Density-MLP points the remaining steps will execute — the
        scheduler's remaining-work signal for preemption-aware estimates
        (queried every scheduling decision, so it must stay O(1))."""
        return self._total_points - self._points_done

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Execute the next wavefront step (``run(1)``); returns the cycles
        it charged.

        Raises:
            SimulationError: When the execution already completed.
        """
        if self.done:
            raise SimulationError("FrameExecution already ran to completion")
        return self.run(1)

    def run(self, max_steps: Optional[int] = None) -> int:
        """Execute up to ``max_steps`` steps (all remaining when ``None``);
        returns the cycles charged.  This is the preemption quantum: the
        serving event loop calls ``run(quantum)`` and may hand the
        accelerator to another client before calling it again.

        The steps replay the frame's :class:`~repro.exec.batch.FramePlan`,
        merging the pre-priced report fragments in step order.  The plan
        is built on first use and revalidated against the temporal cache's
        resident token on every call, so an elastic re-partition that
        trims the resident set between quanta rebuilds the remaining
        steps' pricing against the new content.  A scan-out frame is one
        step charging the framebuffer read-out."""
        if max_steps is not None and max_steps <= 0:
            raise SimulationError("max_steps must be positive")
        steps = self._steps_total - self._cursor
        if max_steps is not None:
            steps = min(steps, max_steps)
        if steps <= 0:
            return 0
        if self._scanout:
            charge = self._scanout_cycles()
            self._cursor = 1
            self.report.total_cycles += charge
            if self._recorder is not None:
                self._recorder.emit(
                    EV_EXEC_STEP,
                    self.report.total_cycles,
                    step=0,
                    cycles=charge,
                    scanout=True,
                )
            return charge
        token = (
            self._temporal.resident_token if self._temporal is not None else None
        )
        if self._plan is None or self._plan.temporal_token != token:
            from repro.exec.batch import build_frame_plans

            build_frame_plans([self])
        end = self._cursor + steps
        charged = 0
        points = 0
        for planned in self._plan.steps[self._cursor : end]:
            if planned.encoding is not None:
                self.report.encoding.merge(planned.encoding)
            if planned.mlp is not None:
                self.report.mlp.merge(planned.mlp)
            self.report.render.merge(planned.render)
            self.report.buffer_stall_cycles += planned.stall
            self.report.total_cycles += planned.charge
            if self._wavefront_log is not None:
                self._wavefront_log.append((planned.log_key, planned.charge))
            charged += planned.charge
            points += planned.num_points
        self._cursor = end
        self._points_done += points
        if self.done and self._temporal is not None:
            # The frame's working set joins the cache's pending set once
            # every wavefront has executed; the frame-boundary commit in
            # `finish()` makes it visible.
            for level, unique_stream in self._plan.records:
                self._temporal.record(unique_stream, level, assume_unique=True)
        if self._recorder is not None:
            self._recorder.emit(
                EV_EXEC_BATCH,
                self.report.total_cycles,
                steps=steps,
                cycles=charged,
                points=points,
            )
        return charged

    def attach_plan(self, plan: "FramePlan") -> bool:
        """Adopt a plan built elsewhere (the serving layer prices several
        tenants' head frames in one fused batch and caches the results).
        Returns ``False`` — leaving the execution untouched — unless the
        plan is provably valid for this execution's current state: fresh
        cursor, matching step/point counts, and a temporal resident token
        equal to the one the plan's hit masks were computed against."""
        if self._scanout or self._finalised or self._cursor != 0:
            return False
        token = (
            self._temporal.resident_token if self._temporal is not None else None
        )
        if plan.temporal_token != token:
            return False
        if len(plan.steps) != self._steps_total:
            return False
        if plan.total_points != self._total_points:
            return False
        self._plan = plan
        return True

    @property
    def plan(self) -> Optional["FramePlan"]:
        """The attached :class:`~repro.exec.batch.FramePlan`, if any —
        consumers (the serving layer's plan cache) may re-attach it to a
        later execution of the same frame via :meth:`attach_plan`."""
        return self._plan

    def _scanout_cycles(self) -> int:
        from repro.arch.bus import BusTraffic, bus_cycles

        pixels = (
            self.trace.rendered_pixels
            if self._rendered_pixels is None
            else self._rendered_pixels
        )
        return bus_cycles(BusTraffic(pixels=pixels))

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def finish(self) -> "SimReport":
        """Run any remaining steps, then finalise the frame exactly once:
        bus traffic, energy for the accumulated busy time and — when this
        execution was created for a sequence frame — the temporal
        vertex-cache commit at the frame boundary."""
        if self._finalised:
            raise SimulationError("FrameExecution already finalised")
        self.run()
        self._finalised = True
        if self._scanout:
            self.report.bus_cycles = self.report.total_cycles
        else:
            self.report.bus_cycles = self._scanout_cycles()
        self.accelerator._charge_energy(self.report)
        if (
            not self._scanout
            and self._temporal is not None
            and self._commit_tag is not _NO_COMMIT
        ):
            # Tag the committed working set with its frame so memoised
            # temporal hit masks are keyed by which resident set they were
            # computed against — a serving schedule that skips a frame the
            # alone run executed must not inherit the alone run's masks.
            self._temporal.commit_frame(tag=self._commit_tag)
        if self._recorder is not None:
            self._recorder.emit(
                EV_FRAME_FINISH,
                self.report.total_cycles,
                total_cycles=self.report.total_cycles,
                encoding_cycles=self.report.encoding.cycles,
                mlp_cycles=self.report.mlp.cycles,
                render_cycles=self.report.render.cycles,
                stall_cycles=self.report.buffer_stall_cycles,
                bus_cycles=self.report.bus_cycles,
                energy_joules=self.report.energy_joules,
                scanout=self._scanout,
            )
        return self.report

    def abandon(self) -> "SimReport":
        """Finalise a suspended execution whose client departed: charge
        energy for the work actually executed, but never bill the
        (undelivered) scan-out and never commit the temporal cache — the
        frame boundary was never reached."""
        if self._finalised:
            raise SimulationError("FrameExecution already finalised")
        self._finalised = True
        self.accelerator._charge_energy(self.report)
        return self.report


def sequence_executions(
    accelerator: "ASDRAccelerator",
    sequence,
    group_size: Optional[int] = None,
    temporal=None,
):
    """Yield one :class:`FrameExecution` per frame of ``sequence`` in path
    order — the generator behind
    :meth:`~repro.arch.accelerator.ASDRAccelerator.simulate_sequence`.
    Each execution must be finished before the next frame's lookups are
    meaningful (the temporal cache commits at frame boundaries)."""
    for frame in range(sequence.num_frames):
        yield accelerator.frame_execution(
            sequence, frame, group_size=group_size, temporal=temporal
        )
