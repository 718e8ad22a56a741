"""Shared execution layer: FrameTrace/SequenceTrace IR and scheduling.

One frame is rendered exactly once; everything downstream — the cycle-level
accelerator simulator, the encoding-engine corner streams, and the locality
profilers — replays the :class:`~repro.exec.frame_trace.FrameTrace` the
renderer emitted instead of re-deriving rays, sample points and voxel
corners from ``(camera, budgets)``.  Multi-frame (video) workloads lift the
same idea across frames: a :class:`~repro.exec.sequence.SequenceTrace`
orders the per-frame traces along a camera path and records the temporal
structure (pose replays, plan reuse, corner-stream overlap) the sequence
simulator prices.  The dataflow is::

    renderer (core.pipeline / nerf.renderer)
        └─ emits FrameTrace (per-wavefront ray ids, sample points, hit
           masks, post-early-termination used counts, anchor structure)
            ├─ arch.accelerator.ASDRAccelerator.simulate_trace
            ├─ arch.trace.encoding_corner_stream / hash_address_trace
            └─ arch.trace.repetition_profile
    CameraPath └─ render_sequence ─ emits SequenceTrace (FrameTrace list)
            └─ arch.accelerator.ASDRAccelerator.simulate_sequence

Multi-tenant serving (:mod:`repro.serving`) schedules at one granularity
up again: a :class:`~repro.exec.scheduler.FrameWorkItem` is one frame of
one client's SequenceTrace, and
:class:`~repro.exec.scheduler.TemporalCachePartitions` splits the
temporal vertex cache among tenants sharing an accelerator.

:mod:`repro.exec.scheduler` holds the budget-group wavefront scheduler the
renderer, the trace generator and the simulator all share, plus those
frame-granularity serving primitives.  Every frame is priced one way: a
resumable :class:`~repro.exec.execution.FrameExecution` cursor replays the
:class:`~repro.exec.batch.FramePlan` that
:func:`~repro.exec.batch.build_frame_plans` builds in fused passes.
"""

from repro.exec.batch import FramePlan, PlannedStep, build_frame_plans
from repro.exec.execution import FrameExecution, sequence_executions
from repro.exec.frame_trace import (
    PHASE_MAIN,
    PHASE_PROBE,
    FrameTrace,
    TraceWavefront,
    WavefrontSlice,
)
from repro.exec.scheduler import (
    WORK_PROBE,
    WORK_REPLAY,
    WORK_REUSE,
    FrameWorkItem,
    TemporalCachePartitions,
    budget_groups,
    iter_budget_wavefronts,
    iter_wavefronts,
    sequence_work_items,
)
from repro.exec.sequence import (
    SequenceRender,
    SequenceTrace,
    TemporalDelta,
    pose_key,
    render_camera_path,
)

__all__ = [
    "FrameExecution",
    "FramePlan",
    "PHASE_MAIN",
    "PHASE_PROBE",
    "PlannedStep",
    "build_frame_plans",
    "sequence_executions",
    "WORK_PROBE",
    "WORK_REPLAY",
    "WORK_REUSE",
    "FrameTrace",
    "FrameWorkItem",
    "TemporalCachePartitions",
    "TraceWavefront",
    "WavefrontSlice",
    "SequenceRender",
    "SequenceTrace",
    "TemporalDelta",
    "pose_key",
    "render_camera_path",
    "budget_groups",
    "iter_budget_wavefronts",
    "iter_wavefronts",
    "sequence_work_items",
]
