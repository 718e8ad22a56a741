"""Multi-tenant sequence serving: many clients, one simulated accelerator.

The serving layer turns the single-sequence video stack into a shared
service: N concurrent clients each request a scene, a camera trajectory
and a quality target (:class:`~repro.serving.request.ClientRequest`); the
:class:`~repro.serving.server.SequenceServer` interleaves their work on
one :class:`~repro.arch.accelerator.ASDRAccelerator` under a scheduling
policy — frame-atomic (FIFO, round-robin fair share, deadline-aware
earliest-slack-first) or wavefront-granularity preemptive (quantum-based
round-robin and preemptive ESF, riding the resumable
:class:`~repro.exec.execution.FrameExecution` engine) — and reports
per-client latency percentiles, aggregate throughput, fairness and
context switches against running the clients back-to-back.  Clients may
arrive and depart mid-run; the temporal-cache budget re-partitions
elastically as the tenant set changes.  The dataflow is::

    ClientRequest (scene, CameraPath, quality target, arrival/departure)
        └─ Workbench.client_sequence  (memoised SequenceRender per client;
           twins share one trace)
            └─ SequenceServer.submit / .serve(policy)
                ├─ exec.scheduler.FrameWorkItem  (scheduling unit, carries
                │    the suspend/resume state of an in-flight frame)
                ├─ exec.scheduler.TemporalCachePartitions (elastic
                │    per-tenant temporal vertex-cache partitions)
                └─ ASDRAccelerator.frame_execution (resumable cursor;
                     per-client cycle/energy attribution)
                    └─ ServeReport (latency p50/p95, throughput, Jain
                         fairness, preemptions, back-to-back comparison)

``repro serve`` drives it from the command line (``--preemptive
--quantum N``, ``--json`` for the machine-readable summary); the
``serve`` experiment prints the policy comparison table.

Requests carry an **SLO class** (``interactive`` / ``standard`` /
``batch``; see :mod:`repro.serving.slo`): deadline multipliers and
priority weights feed the deadline-aware policies' slack computation,
and an optional :class:`~repro.serving.slo.SLOConfig` arms overload
control — admission rejection at submit time, batch-class load shedding,
degraded-quality delivery with a PSNR guard, and (with ``quantum="auto"``)
p95-latency-targeted quantum auto-tuning.  Reports expose per-class SLO
attainment next to Jain fairness.

Above the single box, :class:`~repro.serving.cluster.ClusterServer`
shards tenants across a *fleet* of accelerators (``repro serve --shards
N --router affinity``): content-affinity routing keeps twin and
pose-overlapping tenants co-located so the sharing levers still fire,
migrations hand temporal-cache state between shards, and spare
accelerators join elastically under load.  A
:class:`~repro.serving.cluster.ClusterReport` nests the per-shard
reports under fleet-level utilisation/fairness/latency aggregates.
"""

from repro.serving.cluster import (
    ROUTER_NAMES,
    ClusterReport,
    ClusterServer,
    Migration,
    ShardUtilisation,
    cluster_bench_summary,
)
from repro.serving.policies import (
    ALL_POLICY_NAMES,
    DEADLINE_POLICY_NAMES,
    DEFAULT_QUANTUM,
    POLICY_NAMES,
    PREEMPTIVE_POLICY_NAMES,
    DeadlineAwarePolicy,
    FIFOPolicy,
    PendingFrame,
    PreemptiveDeadlinePolicy,
    PreemptiveRoundRobinPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.serving.report import (
    ClientServeReport,
    ScheduledFrame,
    ServeReport,
    bench_summary,
    jain_fairness,
)
from repro.serving.request import ClientRequest
from repro.serving.server import SequenceServer, WavefrontCostModel
from repro.serving.slo import (
    AUTO_QUANTUM,
    DEFAULT_SLO_CLASS,
    KEYFRAME_GRACE_INTERVALS,
    SLO_CLASSES,
    SLO_DEADLINE_MULTIPLIER,
    SLO_PRIORITY_WEIGHT,
    AdmissionError,
    QuantumAutoTuner,
    SLOConfig,
    weighted_slack,
)

__all__ = [
    "ALL_POLICY_NAMES",
    "AUTO_QUANTUM",
    "DEADLINE_POLICY_NAMES",
    "DEFAULT_QUANTUM",
    "DEFAULT_SLO_CLASS",
    "KEYFRAME_GRACE_INTERVALS",
    "POLICY_NAMES",
    "PREEMPTIVE_POLICY_NAMES",
    "ROUTER_NAMES",
    "SLO_CLASSES",
    "SLO_DEADLINE_MULTIPLIER",
    "SLO_PRIORITY_WEIGHT",
    "AdmissionError",
    "ClientRequest",
    "ClientServeReport",
    "ClusterReport",
    "ClusterServer",
    "DeadlineAwarePolicy",
    "FIFOPolicy",
    "Migration",
    "PendingFrame",
    "PreemptiveDeadlinePolicy",
    "PreemptiveRoundRobinPolicy",
    "QuantumAutoTuner",
    "RoundRobinPolicy",
    "SLOConfig",
    "ScheduledFrame",
    "SchedulingPolicy",
    "SequenceServer",
    "ServeReport",
    "ShardUtilisation",
    "WavefrontCostModel",
    "bench_summary",
    "cluster_bench_summary",
    "jain_fairness",
    "make_policy",
    "weighted_slack",
]
