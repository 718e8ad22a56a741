"""Typed telemetry events: the vocabulary of the ``obs_events/v1`` stream.

Every instrumented layer — the resumable execution engine, the serving
event loop, the cluster routing layer — describes what happened as one of
the event kinds below, stamped with the virtual clock it happened at.
Events are *observations of already-computed values*: an emitter may only
read state the simulation produced anyway, never compute anything the
disabled path would not (the zero-perturbation contract; see
:mod:`repro.obs.recorder`).

Two clock domains appear in the stream and are never mixed:

* **serving events** (quantum, scan-out, admission, …) carry the server's
  virtual clock — the timeline exporters key on these;
* **execution events** (``exec_step``, ``exec_batch``, ``frame_finish``)
  carry the *frame-local* cycle count of their ``FrameExecution`` cursor,
  because an execution does not know where the scheduler placed it.

The ``fields`` of each kind are pinned by the golden schema test
(``tests/golden/obs_schema.json``): adding a field is an additive schema
change, renaming or removing one is a break.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Schema identifier written into every exported event log.
OBS_EVENTS_SCHEMA = "obs_events/v1"

# --- serving-loop events (server virtual clock) -----------------------
EV_SERVE_START = "serve_start"  #: one serve() run begins (policy, clients)
EV_SERVE_END = "serve_end"  #: run complete (makespan, busy cycles)
EV_ADMISSION = "admission"  #: tenant admitted, partition created
EV_DEPARTURE = "departure"  #: tenant departed, pending frames aborted
EV_SCHED = "sched"  #: one scheduling decision (queue/blocked depth)
EV_QUANTUM = "quantum"  #: one execution quantum ran (duration event)
EV_SCANOUT = "scanout"  #: a frame delivered by scan-out (duration event)
EV_FRAME_COMPLETE = "frame_complete"  #: frame delivered (engine splits)
EV_FRAME_ABORT = "frame_abort"  #: in-flight frame abandoned (departure)
EV_PREEMPTION = "preemption"  #: engine state set aside for another tenant
EV_TWIN_DEFER = "twin_defer"  #: frame deferred behind its content leader
EV_PLAN_CACHE = "plan_cache"  #: batched-plan cache consulted (hit/miss)
EV_TEMPORAL_CACHE = "temporal_cache"  #: per-quantum vertex-cache delta

# --- SLO / overload-control events (server virtual clock; admission
# rejection happens at submit time, before the clock starts, so it is
# stamped 0 like the cluster admission-order events) --------------------
EV_ADMISSION_REJECT = "admission_reject"  #: submit refused (backlog cap)
EV_SHED = "shed"  #: batch-class frame dropped under overload
EV_DEGRADE = "degrade"  #: frame served at reduced sampling budget
EV_REPROJECT = "reproject"  #: frame's converged rays warped, not marched
EV_KEYFRAME_PROBE = "keyframe_probe"  #: Phase I keyframe started serving
EV_QUANTUM_TUNE = "quantum_tune"  #: auto-tuner resized the quantum

# --- cluster events (admission/serve wall order, no single clock) -----
EV_ROUTE = "route"  #: request placed on a shard (reason attached)
EV_SCALE_OUT = "scale_out"  #: spare accelerator joined the fleet
EV_MIGRATION = "migration"  #: tenant tail handed to another shard

# --- execution-engine events (frame-local cycles) ---------------------
EV_EXEC_STEP = "exec_step"  #: a scan-out frame's single step priced
EV_EXEC_BATCH = "exec_batch"  #: a run() span of plan steps priced
EV_PLAN_BUILD = "plan_build"  #: a FramePlan assembled for this execution
EV_FRAME_FINISH = "frame_finish"  #: finish(): engine totals + bus + energy

#: Every kind the exporters and the golden schema test recognise.
EVENT_KINDS = (
    EV_SERVE_START,
    EV_SERVE_END,
    EV_ADMISSION,
    EV_DEPARTURE,
    EV_SCHED,
    EV_QUANTUM,
    EV_SCANOUT,
    EV_FRAME_COMPLETE,
    EV_FRAME_ABORT,
    EV_PREEMPTION,
    EV_TWIN_DEFER,
    EV_PLAN_CACHE,
    EV_TEMPORAL_CACHE,
    EV_ADMISSION_REJECT,
    EV_SHED,
    EV_DEGRADE,
    EV_REPROJECT,
    EV_KEYFRAME_PROBE,
    EV_QUANTUM_TUNE,
    EV_ROUTE,
    EV_SCALE_OUT,
    EV_MIGRATION,
    EV_EXEC_STEP,
    EV_EXEC_BATCH,
    EV_PLAN_BUILD,
    EV_FRAME_FINISH,
)


@dataclass(frozen=True)
class Event:
    """One telemetry observation.

    Attributes:
        kind: One of the ``EV_*`` constants.
        clock: Virtual-clock stamp in cycles (server clock for serving
            events, frame-local cycles for execution events, 0 for
            admission-order cluster events).
        fields: Kind-specific payload — plain JSON-serialisable values
            only, so the JSONL exporter never needs custom encoders.
    """

    kind: str
    clock: int
    fields: Dict[str, object] = field(default_factory=dict)

    def to_json_obj(self) -> Dict[str, object]:
        """The JSONL line shape (``obs_events/v1`` body rows)."""
        return {"kind": self.kind, "clock": int(self.clock),
                "fields": dict(self.fields)}

    @classmethod
    def from_json_obj(cls, obj: Dict[str, object]) -> "Event":
        return cls(
            kind=str(obj["kind"]),
            clock=int(obj["clock"]),  # type: ignore[arg-type]
            fields=dict(obj.get("fields", {})),  # type: ignore[arg-type]
        )
