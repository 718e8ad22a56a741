"""ClusterServer: tenants sharded across a simulated accelerator fleet.

One :class:`~repro.serving.server.SequenceServer` tops out at one
accelerator's event loop; the "millions of users" step is horizontal — N
accelerators, each running the existing single-box loop *unchanged*, with
a routing layer deciding which tenants land together.  That placement is
not load balancing trivia: the serving layer's two strongest sharing
levers — cross-client content replay and the temporal vertex cache — only
fire between tenants on the *same* shard, so a router that splits twin
clients across boxes pays the full render twice while one that co-locates
them delivers the second stream at scan-out cost.

:class:`ClusterServer` models exactly the placement problems that move
aggregate cycles:

* **Content-affinity routing** (:data:`ROUTER_AFFINITY`) — a request
  whose :meth:`~repro.serving.request.ClientRequest.content_key` matches
  a tenant already placed lands on that tenant's shard; failing that, a
  request probing bit-identical keyframe poses (same scene/backend, an
  overlapping pose key) follows the overlap; only genuinely novel content
  falls through to least-loaded.  Compare against
  :data:`ROUTER_RANDOM` / :data:`ROUTER_ROUND_ROBIN` to price what
  placement is worth.
* **Tenant migration with temporal-cache hand-off** — a
  :class:`Migration` moves a tenant's remaining frames to another shard
  mid-sequence.  With ``handoff=True`` the source shard's partition
  state travels (:meth:`~repro.exec.scheduler.TemporalCachePartitions.
  export_state` → :meth:`~repro.exec.scheduler.TemporalCachePartitions.
  admit` seeding), so the first post-migration frame keeps its temporal
  hits; ``handoff=False`` models a cold restart, and the cycle delta
  between the two *is* the value of moving cache state.
* **Elastic scale-out** — spare accelerators join the fleet when the
  router would push a shard's queued fresh work past a threshold
  (admission-time scaling, the knob a capacity planner sweeps).

The fleet is optionally **heterogeneous**: pass any mix of accelerator
design points (an edge box next to a server box); routing normalises
load by each shard's clock, and cross-shard latency percentiles convert
cycles to milliseconds per shard before merging.

Verifiability is inherited, not re-argued: everything below one shard is
already conservation-pinned, so the cluster only adds two invariants —
fleet totals are sums of shard totals, and a 1-shard cluster is
bit-identical to calling :meth:`SequenceServer.serve` directly (the
routing layer degenerates to a pass-through).  Both are pinned in
``tests/test_cluster.py``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.arch.accelerator import ASDRAccelerator
from repro.errors import ConfigurationError
from repro.exec.sequence import SequenceRender, SequenceTrace, pose_key
from repro.obs.events import EV_MIGRATION, EV_ROUTE, EV_SCALE_OUT
from repro.obs.recorder import NULL_RECORDER, Recorder, ScopedRecorder
from repro.serving.policies import SchedulingPolicy
from repro.serving.report import ServeReport, jain_fairness
from repro.serving.request import ClientRequest
from repro.serving.server import SequenceServer, pose_content_id
from repro.serving.slo import SLOConfig

#: Router policy names (the ``--router`` choices).
ROUTER_AFFINITY = "affinity"
ROUTER_LEAST_LOADED = "least_loaded"
ROUTER_ROUND_ROBIN = "round_robin"
ROUTER_RANDOM = "random"
ROUTER_NAMES = (
    ROUTER_AFFINITY,
    ROUTER_LEAST_LOADED,
    ROUTER_ROUND_ROBIN,
    ROUTER_RANDOM,
)


@dataclass(frozen=True)
class Migration:
    """Move one tenant's remaining frames to another shard mid-sequence.

    Attributes:
        client_id: The tenant to move.
        after_frame: First frame served on the destination (the source
            delivers frames ``[start, after_frame)``).
        to_shard: Destination shard name.
        handoff: Carry the tenant's temporal-cache partition state to the
            destination (``True``) or restart cold (``False``).
    """

    client_id: str
    after_frame: int
    to_shard: str
    handoff: bool = True


@dataclass(frozen=True)
class ShardUtilisation:
    """One shard's occupancy summary inside a :class:`ClusterReport`."""

    name: str
    clients: int
    frames: int
    busy_cycles: int
    makespan_cycles: int
    clock_hz: float

    @property
    def utilisation(self) -> float:
        """Busy fraction of the shard's serving makespan (0 when idle)."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.busy_cycles / self.makespan_cycles


@dataclass
class ClusterReport:
    """Outcome of one fleet-wide serving run.

    Nests the per-shard :class:`~repro.serving.report.ServeReport`\\ s —
    every single-box metric stays inspectable — and adds the fleet view:
    per-shard utilisation, Jain fairness over *merged* client slowdowns
    (a migrated tenant's slowdown spans both its shards), cross-shard
    latency percentiles in milliseconds (heterogeneous clocks make raw
    cycles incomparable) and the migration/scale-out history.
    """

    router: str
    policy: str
    shard_names: List[str]
    shards: List[ServeReport]
    placements: Dict[str, str]
    migrations: List[Dict]
    scale_out_events: List[Dict]

    # ------------------------------------------------------------------
    # Fleet aggregates
    # ------------------------------------------------------------------
    @property
    def utilisations(self) -> List[ShardUtilisation]:
        return [
            ShardUtilisation(
                name=name,
                clients=len(shard.clients),
                frames=shard.total_frames,
                busy_cycles=shard.busy_cycles,
                makespan_cycles=shard.makespan_cycles,
                clock_hz=shard.clock_hz,
            )
            for name, shard in zip(self.shard_names, self.shards)
        ]

    @property
    def total_busy_cycles(self) -> int:
        """Fleet aggregate cycles — the sum of every shard's busy cycles
        (the router-comparison currency: placement that keeps sharing
        levers firing makes this smaller for the same delivered frames)."""
        return sum(s.busy_cycles for s in self.shards)

    @property
    def total_frames(self) -> int:
        return sum(s.total_frames for s in self.shards)

    @property
    def makespan_seconds(self) -> float:
        """Wall-clock end of the fleet run: the slowest shard's makespan
        in seconds (shards run concurrently on independent clocks)."""
        return max(
            (s.makespan_cycles / s.clock_hz for s in self.shards),
            default=0.0,
        )

    def client_slowdowns(self) -> Dict[str, float]:
        """Per-tenant slowdown merged across shards.

        A migrated tenant has partial reports on two shards; its fleet
        slowdown is total served time over total alone-reference time,
        both in seconds so heterogeneous shard clocks compare.
        """
        served: Dict[str, float] = {}
        alone: Dict[str, float] = {}
        for shard in self.shards:
            for c in shard.clients:
                served[c.client_id] = served.get(c.client_id, 0.0) + (
                    c.makespan_cycles / shard.clock_hz
                )
                alone[c.client_id] = alone.get(c.client_id, 0.0) + (
                    c.alone_cycles / shard.clock_hz
                )
        return {
            cid: served[cid] / alone[cid] if alone[cid] else 1.0
            for cid in served
        }

    @property
    def fairness(self) -> float:
        """Jain's index over merged per-tenant slowdowns."""
        return jain_fairness(list(self.client_slowdowns().values()))

    @property
    def slo_attainment(self) -> Dict[str, float]:
        """Fleet-wide per-class SLO attainment.

        Attained and expected frame counts merge across shards before the
        ratio is taken (a migrated tenant's head and tail both count), so
        the fleet number is frame-weighted, not a mean of shard ratios.
        """
        attained: Dict[str, int] = {}
        expected: Dict[str, int] = {}
        for shard in self.shards:
            for c in shard.clients:
                attained[c.slo_class] = (
                    attained.get(c.slo_class, 0) + c.slo_attained_frames
                )
                expected[c.slo_class] = (
                    expected.get(c.slo_class, 0) + c.slo_expected_frames
                )
        return {
            cls: (attained[cls] / expected[cls]) if expected[cls] else 1.0
            for cls in sorted(expected)
        }

    def latency_percentile_ms(self, q: float) -> float:
        """Cross-shard latency percentile in milliseconds (per-shard
        cycles convert at that shard's clock before merging)."""
        lats_ms: List[float] = []
        for shard in self.shards:
            ms = 1e3 / shard.clock_hz
            for c in shard.clients:
                lats_ms.extend(lat * ms for lat in c.latencies_cycles)
        if not lats_ms:
            return 0.0
        return float(np.percentile(np.asarray(lats_ms), q))

    @property
    def num_migrations(self) -> int:
        return len(self.migrations)

    # ------------------------------------------------------------------
    def shard(self, name: str) -> ServeReport:
        try:
            return self.shards[self.shard_names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def to_rows(self) -> List[Dict[str, object]]:
        """Table rows: one per shard plus a fleet aggregate row."""
        rows: List[Dict[str, object]] = []
        for u in self.utilisations:
            rows.append(
                {
                    "shard": u.name,
                    "clients": str(u.clients),
                    "frames": str(u.frames),
                    "busy_kc": u.busy_cycles / 1e3,
                    "makespan_kc": u.makespan_cycles / 1e3,
                    "util": f"{u.utilisation:.2f}",
                    "p50_ms": "",
                    "p95_ms": "",
                    "fairness": "",
                }
            )
        rows.append(
            {
                "shard": "(fleet)",
                "clients": str(len(self.placements)),
                "frames": str(self.total_frames),
                "busy_kc": self.total_busy_cycles / 1e3,
                "makespan_kc": self.makespan_seconds * 1e3,
                "util": f"{self.num_migrations}mig",
                "p50_ms": f"{self.latency_percentile_ms(50):.3f}",
                "p95_ms": f"{self.latency_percentile_ms(95):.3f}",
                "fairness": f"{self.fairness:.3f}",
            }
        )
        return rows

    def to_dict(self) -> Dict:
        """JSON-style form (used by the determinism test)."""
        return {
            "router": self.router,
            "policy": self.policy,
            "shard_names": list(self.shard_names),
            "placements": dict(self.placements),
            "migrations": [dict(m) for m in self.migrations],
            "scale_out_events": [dict(e) for e in self.scale_out_events],
            "total_busy_cycles": int(self.total_busy_cycles),
            "total_frames": int(self.total_frames),
            "fairness": self.fairness,
            "slo_attainment": self.slo_attainment,
            "p50_ms": self.latency_percentile_ms(50),
            "p95_ms": self.latency_percentile_ms(95),
            "shards": [s.to_dict() for s in self.shards],
        }


def cluster_bench_summary(reports: Dict[str, "ClusterReport"]) -> Dict:
    """Machine-readable cluster summary (``BENCH_cluster.json`` shape).

    One entry per router with the headline fleet numbers the CI smoke
    job schema-validates: aggregate busy cycles, per-shard utilisation,
    fairness, cross-shard latency percentiles and migration counts.
    """
    out: Dict = {"schema": "cluster_bench/v1", "routers": {}}
    for name, report in reports.items():
        out["routers"][name] = {
            "router": report.router,
            "policy": report.policy,
            "shards": len(report.shards),
            "total_busy_cycles": int(report.total_busy_cycles),
            "total_frames": int(report.total_frames),
            "makespan_seconds": report.makespan_seconds,
            "fairness": report.fairness,
            "slo_attainment": report.slo_attainment,
            "p50_ms": report.latency_percentile_ms(50),
            "p95_ms": report.latency_percentile_ms(95),
            "migrations": report.num_migrations,
            "scale_out_events": len(report.scale_out_events),
            "utilisation": {
                u.name: {
                    "clients": u.clients,
                    "frames": u.frames,
                    "busy_cycles": int(u.busy_cycles),
                    "utilisation": u.utilisation,
                }
                for u in report.utilisations
            },
        }
    return out


class ClusterServer:
    """Routes client requests across a fleet of simulated accelerators.

    Each shard wraps one :class:`~repro.serving.server.SequenceServer`
    (the single-box event loop, unchanged); this class only decides
    *placement* — which tenants share a box — plus migrations and elastic
    scale-out.  With one shard it is a pass-through: routing has a single
    choice and the shard report is bit-identical to serving directly.

    Args:
        accelerators: One design point per initial shard (heterogeneous
            mixes welcome — an edge box next to a server box).
        names: Shard names (default ``shard0``, ``shard1``, …).
        router: One of :data:`ROUTER_NAMES`.  ``affinity`` co-locates
            matching/overlapping content, ``least_loaded`` balances
            estimated work, ``round_robin`` cycles submissions,
            ``random`` hashes the client id (the placement-blind
            baseline).
        group_size / temporal_capacity / shared_content /
        context_switch_cycles / slo: Forwarded to
            every shard's :class:`~repro.serving.server.SequenceServer`
            (the SLO/overload config applies per shard — each box guards
            its own backlog, exactly as a fleet of independent admission
            controllers would).
        spare_accelerators: Reserve design points that join the fleet on
            demand (elastic scale-out).
        scale_out_threshold: Estimated density-MLP points of queued fresh
            work on the routed shard above which a spare is activated
            *instead* (``None`` disables scale-out).
        recorder: Optional :class:`~repro.obs.recorder.Recorder` for the
            fleet's telemetry stream.  Routing/scale-out/migration events
            are emitted at the cluster layer; every shard's serving loop
            emits through a per-shard scoped view (``shard=<name>``).
            Observer-only: reports are bit-identical with or without it.

    Example lifecycle::

        cluster = ClusterServer([edge, edge, server], router="affinity")
        for request in requests:
            cluster.submit(request, wb.client_sequence(request))
        report = cluster.serve("round_robin_preemptive")
    """

    def __init__(
        self,
        accelerators: Sequence[ASDRAccelerator],
        *,
        names: Optional[Sequence[str]] = None,
        router: str = ROUTER_AFFINITY,
        group_size: int = 1,
        temporal_capacity: Optional[int] = None,
        shared_content: bool = True,
        context_switch_cycles: int = 0,
        spare_accelerators: Sequence[ASDRAccelerator] = (),
        scale_out_threshold: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        slo: Optional[SLOConfig] = None,
    ) -> None:
        accelerators = list(accelerators)
        if not accelerators:
            raise ConfigurationError("a cluster needs at least one shard")
        if router not in ROUTER_NAMES:
            raise ConfigurationError(
                f"unknown router {router!r}; choose from {ROUTER_NAMES}"
            )
        if scale_out_threshold is not None and scale_out_threshold <= 0:
            raise ConfigurationError("scale_out_threshold must be positive")
        self.router = router
        #: Fleet-level telemetry sink (see :mod:`repro.obs`).  Routing,
        #: scale-out and migration events are emitted here directly;
        #: each shard's serving loop gets a
        #: :class:`~repro.obs.recorder.ScopedRecorder` view tagging its
        #: events with ``shard=<name>``.  Observer-only by contract.
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._rec = self.recorder if self.recorder.enabled else None
        self._server_kwargs = dict(
            group_size=group_size,
            temporal_capacity=temporal_capacity,
            shared_content=shared_content,
            context_switch_cycles=context_switch_cycles,
            slo=slo,
        )
        self.shared_content = shared_content
        self._spares = list(spare_accelerators)
        self.scale_out_threshold = scale_out_threshold
        self._shards: List[SequenceServer] = []
        self._names: List[str] = []
        names = list(names) if names is not None else []
        if names and len(names) != len(accelerators):
            raise ConfigurationError(
                f"{len(names)} names for {len(accelerators)} accelerators"
            )
        for i, accel in enumerate(accelerators):
            self._add_shard(accel, names[i] if names else None)
        #: client id -> shard index (submission placement).
        self._placements: Dict[str, int] = {}
        self._requests: Dict[str, ClientRequest] = {}
        self._traces: Dict[str, SequenceTrace] = {}
        #: Estimated density-MLP points of fresh work queued per shard.
        self._load_points: List[int] = [0] * len(self._shards)
        #: content_key -> shard index of the first tenant carrying it.
        self._content_index: Dict[Tuple, int] = {}
        #: keyframe pose id -> shard index (pose-overlap affinity).
        self._pose_index: Dict[Tuple, int] = {}
        self._rr_next = 0
        self.scale_out_events: List[Dict] = []

    def _add_shard(
        self, accelerator: ASDRAccelerator, name: Optional[str] = None
    ) -> int:
        if name is None:
            name = f"shard{len(self._shards)}"
        if name in self._names:
            raise ConfigurationError(f"duplicate shard name {name!r}")
        self._shards.append(
            SequenceServer(
                accelerator,
                recorder=(
                    None
                    if self._rec is None
                    else ScopedRecorder(self._rec, shard=name)
                ),
                **self._server_kwargs,
            )
        )
        self._names.append(name)
        return len(self._shards) - 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_names(self) -> List[str]:
        return list(self._names)

    def shard(self, name: str) -> SequenceServer:
        try:
            return self._shards[self._names.index(name)]
        except ValueError:
            raise ConfigurationError(f"unknown shard {name!r}") from None

    def placement_of(self, client_id: str) -> str:
        try:
            return self._names[self._placements[client_id]]
        except KeyError:
            raise ConfigurationError(
                f"unknown client {client_id!r}"
            ) from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _fresh_points(trace: SequenceTrace) -> int:
        """Estimated fresh work of a sequence, in density-MLP points."""
        return sum(
            trace.frames[k].density_points
            for k in range(trace.num_frames)
            if trace.replays[k] is None
        )

    def _keyframe_pose_ids(
        self, request: ClientRequest, trace: SequenceTrace
    ) -> List[Tuple]:
        """Pose-level content ids of the sequence's Phase I keyframes —
        the same identities the shard scheduler replays across clients,
        so pose-overlap affinity co-locates exactly the tenants whose
        keyframes can cross-replay."""
        cameras = request.path.cameras()
        return [
            pose_content_id(request, pose_key(cameras[k]))
            for k in range(trace.num_frames)
            if trace.replays[k] is None and trace.planned[k]
        ]

    def _least_loaded(self) -> int:
        """Shard with the least queued work, normalised by clock speed
        (a faster box drains the same points sooner); ties break on
        index, keeping routing deterministic."""
        return min(
            range(len(self._shards)),
            key=lambda i: (
                self._load_points[i]
                / self._shards[i].accelerator.config.clock_hz,
                i,
            ),
        )

    def _route(
        self, request: ClientRequest, trace: SequenceTrace
    ) -> Tuple[int, str]:
        """Pick a shard for one request; returns ``(index, reason)``."""
        if self.router == ROUTER_ROUND_ROBIN:
            idx = self._rr_next % len(self._shards)
            self._rr_next += 1
            return idx, "round_robin"
        if self.router == ROUTER_RANDOM:
            # Salted-hash-free: crc32 keeps placement stable across runs
            # and processes (Python's `hash` is deliberately not).
            digest = zlib.crc32(request.client_id.encode("utf-8"))
            return digest % len(self._shards), "random"
        if self.router == ROUTER_AFFINITY and self.shared_content:
            shard = self._content_index.get(request.content_key())
            if shard is not None:
                return shard, "content_affinity"
            for pid in self._keyframe_pose_ids(request, trace):
                shard = self._pose_index.get(pid)
                if shard is not None:
                    return shard, "pose_affinity"
        return self._least_loaded(), "least_loaded"

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: ClientRequest,
        sequence: Union[SequenceRender, SequenceTrace],
    ) -> str:
        """Admit one client: route it to a shard and submit it there.

        Returns the chosen shard's name.  Routing happens at admission —
        the placement is recorded and visible via :meth:`placement_of`
        before :meth:`serve` runs, exactly like a front-end dispatcher.

        Raises:
            AdmissionError: When the fleet runs with an
                :class:`~repro.serving.slo.SLOConfig` admission cap and
                the routed shard's projected backlog would exceed it.
                The request was routed (an ``admission_reject`` event is
                on the stream) but no placement is recorded — the caller
                may retry later or against a bigger fleet.
        """
        trace = getattr(sequence, "trace", sequence)
        if not isinstance(trace, SequenceTrace):
            raise ConfigurationError(
                "submit needs a SequenceRender or SequenceTrace, got "
                f"{type(sequence).__name__}"
            )
        if request.client_id in self._placements:
            raise ConfigurationError(
                f"duplicate client id {request.client_id!r}"
            )
        idx, reason = self._route(request, trace)
        fresh = self._fresh_points(trace)
        # Affinity matches ride existing content: the second copy
        # delivers at scan-out cost, so it adds (approximately) no fresh
        # work to the shard's queue.
        marginal = 0 if reason in ("content_affinity",) else fresh
        if (
            self.scale_out_threshold is not None
            and self._spares
            and reason in ("least_loaded", "round_robin", "random")
            and self._load_points[idx] + marginal > self.scale_out_threshold
        ):
            accel = self._spares.pop(0)
            idx = self._add_shard(accel)
            self._load_points.append(0)
            reason = "scale_out"
            self.scale_out_events.append(
                {
                    "client": request.client_id,
                    "shard": self._names[idx],
                    "trigger_points": int(marginal),
                }
            )
            if self._rec is not None:
                self._rec.emit(
                    EV_SCALE_OUT,
                    0,
                    client=request.client_id,
                    shard=self._names[idx],
                    trigger_points=int(marginal),
                    fleet_size=len(self._shards),
                )
        if self._rec is not None:
            # Routing happens at admission time, before any shard's
            # virtual clock starts — cluster events carry clock 0.
            self._rec.emit(
                EV_ROUTE,
                0,
                client=request.client_id,
                shard=self._names[idx],
                reason=reason,
            )
        self._shards[idx].submit(request, trace)
        self._placements[request.client_id] = idx
        self._requests[request.client_id] = request
        self._traces[request.client_id] = trace
        self._load_points[idx] += marginal
        self._content_index.setdefault(request.content_key(), idx)
        for pid in self._keyframe_pose_ids(request, trace):
            self._pose_index.setdefault(pid, idx)
        return self._names[idx]

    @property
    def num_clients(self) -> int:
        return len(self._placements)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _migration_order(
        self, migrations: Sequence[Migration]
    ) -> List[int]:
        """Topological shard order over migration edges (source before
        destination — the hand-off needs the source's final cache state).

        Raises:
            ConfigurationError: When migrations form a cycle between
                shards (A hands to B while B hands to A cannot be
                sequenced on virtual clocks).
        """
        edges: Dict[int, Set[int]] = {i: set() for i in range(len(self._shards))}
        for m in migrations:
            src = self._placements[m.client_id]
            dst = self._names.index(m.to_shard)
            if dst != src:
                edges[src].add(dst)
        order: List[int] = []
        state: Dict[int, int] = {}  # 0=unvisited 1=visiting 2=done

        def visit(i: int) -> None:
            if state.get(i) == 2:
                return
            if state.get(i) == 1:
                raise ConfigurationError(
                    "migrations form a cycle between shards; hand-offs "
                    "must be sequenceable (source serves before "
                    "destination)"
                )
            state[i] = 1
            for j in edges[i]:
                visit(j)
            state[i] = 2
            order.append(i)

        for i in range(len(self._shards)):
            visit(i)
        order.reverse()
        return order

    def _convert_cycles(
        self, cycles: int, src: SequenceServer, dst: SequenceServer
    ) -> int:
        """Re-express a source-shard cycle count on the destination's
        clock (ceil — the tenant cannot arrive early); exact for a
        homogeneous fleet."""
        src_hz = src.accelerator.config.clock_hz
        dst_hz = dst.accelerator.config.clock_hz
        if src_hz == dst_hz:
            return cycles
        return int(math.ceil(cycles * dst_hz / src_hz))

    def serve(
        self,
        policy: Union[str, SchedulingPolicy] = "round_robin",
        migrations: Sequence[Migration] = (),
    ) -> ClusterReport:
        """Serve every admitted client fleet-wide under ``policy``.

        Shards run their event loops independently (they share no
        hardware); ``migrations`` sequence them — each migration's source
        shard serves before its destination so the tenant's completion
        time and (with ``handoff=True``) exported temporal-cache state
        can cross.  The migrated tail arrives on the destination at the
        cycle its head completed (converted between shard clocks), and
        the run is **re-entrant**: migrated tails are withdrawn and
        truncations undone after the report is built, so the same
        cluster can serve under several policies or migration plans.

        Returns:
            A :class:`ClusterReport` nesting every shard's
            :class:`~repro.serving.report.ServeReport`.
        """
        if not self._placements:
            raise ConfigurationError("no clients submitted")
        migrations = list(migrations)
        seen: Set[str] = set()
        for m in migrations:
            if m.client_id not in self._placements:
                raise ConfigurationError(
                    f"migration of unknown client {m.client_id!r}"
                )
            if m.client_id in seen:
                raise ConfigurationError(
                    f"client {m.client_id!r} migrates more than once"
                )
            seen.add(m.client_id)
            if m.to_shard not in self._names:
                raise ConfigurationError(
                    f"migration to unknown shard {m.to_shard!r}"
                )
            src = self._placements[m.client_id]
            if self._names.index(m.to_shard) == src:
                raise ConfigurationError(
                    f"client {m.client_id!r} already lives on {m.to_shard!r}"
                )
            frames = self._traces[m.client_id].num_frames
            if not 0 < m.after_frame < frames:
                raise ConfigurationError(
                    f"after_frame {m.after_frame} outside (0, {frames}) "
                    f"for client {m.client_id!r}"
                )

        by_source: Dict[int, List[Migration]] = {}
        for m in migrations:
            by_source.setdefault(self._placements[m.client_id], []).append(m)
        # Truncate every migrating tenant's source copy before any shard
        # runs, so source reports only count head-window frames.
        for m in migrations:
            src = self._shards[self._placements[m.client_id]]
            src.truncate_client(m.client_id, m.after_frame)

        order = self._migration_order(migrations)
        reports: Dict[int, ServeReport] = {}
        migration_records: List[Dict] = []
        migrated_tails: List[Tuple[int, str]] = []
        try:
            for idx in order:
                shard = self._shards[idx]
                if shard.num_clients == 0:
                    reports[idx] = ServeReport(
                        policy=policy if isinstance(policy, str) else policy.name,
                        clock_hz=shard.accelerator.config.clock_hz,
                    )
                    continue
                reports[idx] = shard.serve(policy)
                for m in by_source.get(idx, ()):
                    dst_idx = self._names.index(m.to_shard)
                    dst = self._shards[dst_idx]
                    request = self._requests[m.client_id]
                    head = reports[idx].client(m.client_id)
                    done_cycle = (
                        request.arrival_cycle + head.makespan_cycles
                    )
                    arrival = self._convert_cycles(done_cycle, shard, dst)
                    departure = request.departure_cycle
                    if departure is not None:
                        departure = max(
                            arrival + 1,
                            self._convert_cycles(departure, shard, dst),
                        )
                    seed = None
                    if m.handoff:
                        cache = shard.last_run_caches.get(m.client_id)
                        if cache is not None:
                            seed = cache.export_state()
                    dst.submit(
                        replace(
                            request,
                            arrival_cycle=arrival,
                            departure_cycle=departure,
                        ),
                        self._traces[m.client_id],
                        start_frame=m.after_frame,
                        cache_seed=seed,
                    )
                    migrated_tails.append((dst_idx, m.client_id))
                    migration_records.append(
                        {
                            "client": m.client_id,
                            "from": self._names[idx],
                            "to": m.to_shard,
                            "after_frame": m.after_frame,
                            "handoff": bool(m.handoff and seed is not None),
                            "tail_arrival_cycle": int(arrival),
                        }
                    )
                    if self._rec is not None:
                        self._rec.emit(
                            EV_MIGRATION,
                            int(arrival),
                            client=m.client_id,
                            src=self._names[idx],
                            dst=m.to_shard,
                            after_frame=m.after_frame,
                            handoff=bool(m.handoff and seed is not None),
                        )
            report = ClusterReport(
                router=self.router,
                policy=next(iter(reports.values())).policy
                if reports
                else (policy if isinstance(policy, str) else policy.name),
                shard_names=list(self._names),
                shards=[reports[i] for i in range(len(self._shards))],
                placements={
                    cid: self._names[idx]
                    for cid, idx in self._placements.items()
                },
                migrations=migration_records,
                scale_out_events=[dict(e) for e in self.scale_out_events],
            )
        finally:
            # Re-entrancy: withdraw migrated tails and undo truncations,
            # restoring the admitted state for the next serve() call.
            for dst_idx, cid in migrated_tails:
                self._shards[dst_idx].release(cid)
            for m in migrations:
                src = self._shards[self._placements[m.client_id]]
                src.truncate_client(m.client_id, None)
        return report
