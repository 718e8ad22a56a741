"""The multi-tenant sequence server: N clients, one simulated accelerator.

:class:`SequenceServer` admits concurrent :class:`~repro.serving.request.
ClientRequest`\\ s whose sequences are already rendered (the Workbench
memoises them — see :meth:`repro.experiments.workbench.Workbench.
client_sequence`), then interleaves their work on one
:class:`~repro.arch.accelerator.ASDRAccelerator` under a scheduling
policy.  The scheduling unit is the :class:`~repro.exec.scheduler.
FrameWorkItem` — one frame of one client's
:class:`~repro.exec.sequence.SequenceTrace` — and a client's frames
always execute in path order (sampling-plan reuse and the temporal vertex
cache both depend on it).

:meth:`SequenceServer.serve` is an **event loop over wavefront steps**:
each selected frame executes through a resumable
:class:`~repro.exec.execution.FrameExecution` cursor.  Non-preemptive
policies run the cursor to completion in one go (frame-atomic, the
pre-refactor behaviour, bit-identical); preemptive policies run at most
``quantum`` wavefront steps before re-taking the scheduling decision, so
an expensive Phase I probe no longer blocks cheap replay frames for
millions of cycles — they slot in at the next quantum boundary.  The
loop also handles the full tenancy lifecycle on the virtual clock:
**mid-run admission** (a request's ``arrival_cycle`` may land inside
another client's frame; the arrival is seen at the next quantum
boundary), **departure/abort** (``departure_cycle`` cancels undelivered
frames, abandoning an in-flight cursor) and **elastic re-partitioning**
of the temporal-cache budget as the tenant set changes.

Sharing levers, strongest first:

* **Cross-client content replay** — a frame whose content another client
  already executed this run (same scene/backend/trajectory/probe cadence,
  or a bit-identical pose both clients probe as a keyframe) is delivered
  at framebuffer scan-out cost, like an in-sequence pose replay.  This is
  why serving N overlapping clients costs *less* than running them
  back-to-back.
* **Temporal-cache partitioning** — each tenant owns a private partition
  of the temporal vertex cache
  (:class:`~repro.exec.scheduler.TemporalCachePartitions`), so one
  client's working set never evicts another's, no matter how the policy
  interleaves tenants — at frame or at wavefront granularity.  The
  interleaved total always equals the sum of per-client service cycles
  (context-switch overhead, when configured, is accounted separately);
  with the default *unbounded* budget each partition equals the cache a
  client would have alone, so that total also equals back-to-back exactly
  when content sharing is off.  A *bounded* budget divides capacity among
  the tenants *currently present* — real contention — and a client may
  then pay more than it would alone.
* **Trace sharing** — clients with identical requests share one memoised
  :class:`~repro.exec.sequence.SequenceTrace` object (the Workbench's
  sequence memo), so serving twins costs no extra rendering or trace
  memory.

Everything is priced on a virtual cycle clock, so serving reports are
deterministic for a fixed arrival order.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.arch.accelerator import ASDRAccelerator
from repro.cim.cache import TemporalVertexCache
from repro.errors import ConfigurationError
from repro.exec.batch import build_frame_plans
from repro.exec.execution import sequence_executions
from repro.exec.frame_trace import FrameTrace
from repro.exec.scheduler import (
    WORK_PROBE,
    WORK_REPLAY,
    WORK_REUSE,
    FrameWorkItem,
    TemporalCachePartitions,
    sequence_work_items,
)
from repro.exec.sequence import SequenceRender, SequenceTrace, pose_key
from repro.obs.events import (
    EV_ADMISSION,
    EV_ADMISSION_REJECT,
    EV_DEGRADE,
    EV_DEPARTURE,
    EV_FRAME_ABORT,
    EV_FRAME_COMPLETE,
    EV_KEYFRAME_PROBE,
    EV_PLAN_CACHE,
    EV_PREEMPTION,
    EV_QUANTUM,
    EV_QUANTUM_TUNE,
    EV_REPROJECT,
    EV_SCANOUT,
    EV_SCHED,
    EV_SERVE_END,
    EV_SERVE_START,
    EV_SHED,
    EV_TEMPORAL_CACHE,
    EV_TWIN_DEFER,
)
from repro.obs.recorder import NULL_RECORDER, Recorder, ScopedRecorder
from repro.serving.policies import PendingFrame, SchedulingPolicy, make_policy
from repro.serving.report import ClientServeReport, ScheduledFrame, ServeReport
from repro.serving.request import ClientRequest
from repro.serving.slo import (
    AUTO_QUANTUM,
    KEYFRAME_GRACE_INTERVALS,
    SLO_DEADLINE_MULTIPLIER,
    SLO_SHED_ORDER,
    AdmissionError,
    QuantumAutoTuner,
    SLOConfig,
)

#: Cycles-per-density-point prior used before the first measured wavefront
#: charges calibrate the cost model (the value only shapes
#: pre-calibration ordering and derived deadlines; every policy is
#: deterministic for any choice).
INITIAL_CYCLES_PER_POINT = 2.0


def pose_content_id(request: ClientRequest, pose: bytes) -> Tuple:
    """Content id of a Phase I keyframe rendered at ``pose`` (a
    :func:`~repro.exec.sequence.pose_key`).  Its pixels depend on nothing
    but the scene model and the pose, so any two clients probing a
    bit-identical pose render bit-identical frames: the scheduler
    replays keyframes across clients by this id, and the cluster's pose
    affinity co-locates tenants by it."""
    return ("pose", request.scene, request.tensorf, pose)


class _LRUCache:
    """Small bounded mapping with least-recently-used eviction.

    The server's cross-run caches (pricing plans, scan-out prices) must
    not grow without limit on a long-lived server that admits and
    releases clients forever, so both are bounded; ``get`` refreshes
    recency, ``__contains__`` deliberately does not (membership probes
    are not uses).
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ConfigurationError("LRU cache size must be positive")
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()

    def get(self, key, default=None):
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


class WavefrontCostModel:
    """Cycles-per-point estimator learned from measured wavefront charges.

    The scheduler needs cycle estimates before frames run (slack, derived
    deadlines).  Instead of the old 2-tap EMA over whole-frame averages,
    this model accumulates the *measured* charges the execution engine
    reports — every quantum feeds back ``(cycles_charged,
    points_executed)`` straight from the frame's wavefront accounting, so
    the estimate converges after the first few wavefronts of the run and
    keeps sharpening from partially executed frames that the EMA (which
    only saw completed frames) had to ignore.

    The estimate is the cumulative ratio ``sum(cycles) / sum(points)``;
    charges with zero points (the Phase I adaptive-sampling tail) still
    contribute cycles, so fixed per-frame overheads are amortised into
    the rate rather than silently dropped.

    Example:
        >>> model = WavefrontCostModel(prior=2.0)
        >>> model.cycles_per_point
        2.0
        >>> model.observe(300, 100)
        >>> model.observe(100, 100)
        >>> model.cycles_per_point
        2.0
        >>> model.estimate(50)
        100.0
    """

    def __init__(self, prior: float = INITIAL_CYCLES_PER_POINT) -> None:
        if prior <= 0:
            raise ConfigurationError("prior cycles-per-point must be positive")
        self._prior = prior
        self._cycles = 0
        self._points = 0

    def observe(self, cycles: int, points: int) -> None:
        """Feed one measured charge (a quantum's or a frame's)."""
        if cycles < 0 or points < 0:
            raise ConfigurationError("observed cycles/points must be >= 0")
        self._cycles += cycles
        self._points += points

    @property
    def calibrated(self) -> bool:
        return self._points > 0

    @property
    def cycles_per_point(self) -> float:
        if self._points == 0:
            return self._prior
        return self._cycles / self._points

    def estimate(self, points: int) -> float:
        """Estimated cycles for ``points`` density-MLP points of work."""
        return points * self.cycles_per_point


@dataclass
class _Client:
    """Admitted request plus its rendered sequence and schedule state.

    ``start_frame``/``end_frame`` bound the delivered window — a migrated
    tenant serves only the tail of its sequence on the destination shard
    (and only the head on the source).  ``cache_seed`` optionally carries
    an exported temporal-cache state adopted at admission (the hand-off).
    """

    request: ClientRequest
    trace: SequenceTrace
    items: List[FrameWorkItem]
    #: Per frame, its content ids (:meth:`SequenceServer._content_ids`).
    content_ids: List[Tuple[Tuple, ...]]
    order: int
    deadlines: List[Optional[int]] = field(default_factory=list)
    start_frame: int = 0
    end_frame: Optional[int] = None
    cache_seed: Optional[Dict] = None

    @property
    def id(self) -> str:
        return self.request.client_id

    @property
    def end(self) -> int:
        """Exclusive end of the delivered frame window."""
        return (
            len(self.items) if self.end_frame is None else self.end_frame
        )

    @property
    def window(self) -> Tuple[int, int]:
        return (self.start_frame, self.end)

    @property
    def alone_key(self) -> Tuple:
        """What the alone-run reference depends on: the sequence content
        and the delivered window (the server's pricing knobs are fixed)."""
        return (self.trace.content_token(),) + self.window


class SequenceServer:
    """Interleaves N clients' sequence frames on one simulated accelerator.

    Args:
        accelerator: The shared design point every client runs on.
        group_size: Color-decoupling group size applied to every frame
            (as in :meth:`~repro.arch.accelerator.ASDRAccelerator.
            simulate_sequence`).
        temporal_capacity: Combined temporal vertex-cache budget,
            partitioned evenly among the tenants present at any moment
            (``None`` = unbounded partitions).
        shared_content: Enable cross-client content replay.  Disable to
            price every client as if its content were unique (the
            back-to-back-equivalent configuration).
        context_switch_cycles: Overhead cycles charged whenever the
            engines' in-flight frame state is set aside for another
            tenant (preemptive policies only; 0 = free switches).  The
            overhead is accounted *next to* per-client service cycles,
            never inside them, so conservation stays exact.
        recorder: Optional :class:`~repro.obs.recorder.Recorder` that
            receives the serving event stream (quantum/scan-out charges,
            admission, preemption, cache outcomes — see
            :mod:`repro.obs.events`).  Observer-only by contract: it can
            never change the cycles priced.  ``None`` = the no-op
            :data:`~repro.obs.recorder.NULL_RECORDER`.
        slo: Optional :class:`~repro.serving.slo.SLOConfig` enabling the
            overload responses — admission control at :meth:`submit`
            (:class:`~repro.serving.slo.AdmissionError` when the
            projected backlog exceeds the cap), ``batch``-class load
            shedding, and degraded-quality serving of non-keyframe
            frames while some deadlined frame's slack is negative.
            ``None`` = best-effort (pre-SLO behaviour, bit-identical).

    Example lifecycle::

        server = SequenceServer(accelerator)
        for request in requests:
            server.submit(request, wb.client_sequence(request))
        report = server.serve("round_robin_preemptive")
    """

    #: Bounds of the cross-run caches — generous for any realistic tenant
    #: mix, small enough that a never-restarted server stays flat.
    PLAN_CACHE_SIZE = 512
    SCANOUT_MEMO_SIZE = 1024
    THINNED_MEMO_SIZE = 256

    #: Under preemptive policies, a frame whose content is executing
    #: fresh on another tenant (a mid-flight twin) is *deferred* until
    #: the leader's scan-out commit — it then delivers as a cross-client
    #: replay instead of double-charging the shared content.  The limit
    #: is the starvation guard: after this many deferred scheduling
    #: decisions the follower executes fresh regardless.
    TWIN_DEFER_LIMIT = 256

    def __init__(
        self,
        accelerator: ASDRAccelerator,
        group_size: int = 1,
        temporal_capacity: Optional[int] = None,
        shared_content: bool = True,
        context_switch_cycles: int = 0,
        recorder: Optional[Recorder] = None,
        slo: Optional[SLOConfig] = None,
    ) -> None:
        if context_switch_cycles < 0:
            raise ConfigurationError("context_switch_cycles must be >= 0")
        self.accelerator = accelerator
        #: Telemetry sink for the serving event loop (see
        #: :mod:`repro.obs`).  Observer-only: every event carries values
        #: the loop computed anyway, and with the default
        #: :data:`~repro.obs.recorder.NULL_RECORDER` each emit site is a
        #: single hoisted ``None`` check — reports are bit-identical with
        #: telemetry on or off.
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.group_size = group_size
        self.temporal_capacity = temporal_capacity
        self.shared_content = shared_content
        self.context_switch_cycles = context_switch_cycles
        self.slo = slo
        self._clients: List[_Client] = []
        self._order_counter = 0
        self._alone_cycles: Dict[Tuple, int] = {}
        self._scanout_memo = _LRUCache(self.SCANOUT_MEMO_SIZE)
        # Thinned trace copies for degraded-quality serving, keyed by
        # frame content digest + thinning (twins of popular content share
        # one copy; never keyed by object identity).
        self._thinned_memo = _LRUCache(self.THINNED_MEMO_SIZE)
        # Batched pricing plans, content-addressed by (sequence content
        # token, frame, temporal resident token).  A plan depends only on
        # the frame trace, the accelerator, the pricing knobs (fixed per
        # server) and the temporal resident content; the token is the
        # cache's commit/trim history, and for equal-content sequences
        # equal histories commit equal streams — so equal keys imply
        # equal plans.  Keying by *content* (never ``id()`` — CPython
        # reuses object ids after garbage collection, which on a
        # long-lived server serves a stale plan for the wrong trace) lets
        # twin clients of popular sequences share builds, and entries
        # survive across policies and serve() runs.
        # `FrameExecution.attach_plan` revalidates the token on every
        # reuse regardless.  Both caches are LRU-bounded.
        self._plan_cache = _LRUCache(self.PLAN_CACHE_SIZE)
        #: Per-tenant temporal partitions as they stood when each client
        #: left the most recent serve() run (retired or aborted) — the
        #: source side of a migration hand-off reads its exported state
        #: from here.  Reset at the start of every run.
        self.last_run_caches: Dict[str, TemporalVertexCache] = {}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: ClientRequest,
        sequence: Union[SequenceRender, SequenceTrace],
        start_frame: int = 0,
        end_frame: Optional[int] = None,
        cache_seed: Optional[Dict] = None,
    ) -> None:
        """Admit one client with its rendered sequence.

        Args:
            request: The client's request (identity, trajectory, targets).
            sequence: The rendered sequence for ``request.path`` — a
                :class:`~repro.exec.sequence.SequenceRender` (as returned
                by the Workbench) or its
                :class:`~repro.exec.sequence.SequenceTrace` directly.
            start_frame: First frame this server delivers (a migrated
                tenant resumes mid-sequence; earlier frames were served
                elsewhere).
            end_frame: Exclusive end of the delivered window (``None`` =
                the whole sequence) — the source side of a migration
                serves only the head.
            cache_seed: Exported temporal-cache state (see
                :meth:`~repro.exec.scheduler.TemporalCachePartitions.
                export_state`) adopted when the tenant's partition is
                created — the migration hand-off.  ``None`` = cold.

        Raises:
            ConfigurationError: On duplicate client ids, a sequence whose
                frame count does not match the request's path, or an
                invalid frame window.
            AdmissionError: When admission control is configured
                (:attr:`~repro.serving.slo.SLOConfig.admit_cycles`) and
                the projected backlog — every admitted client's estimated
                window cost plus this request's — exceeds the cap.  The
                server's state is unchanged; the caller may retry after
                load drains or route the request elsewhere.
        """
        trace = getattr(sequence, "trace", sequence)
        if not isinstance(trace, SequenceTrace):
            raise ConfigurationError(
                "submit needs a SequenceRender or SequenceTrace, got "
                f"{type(sequence).__name__}"
            )
        if any(c.id == request.client_id for c in self._clients):
            raise ConfigurationError(
                f"duplicate client id {request.client_id!r}"
            )
        cameras = request.path.cameras()
        if len(cameras) != trace.num_frames:
            raise ConfigurationError(
                f"client {request.client_id!r}: path has {len(cameras)} "
                f"frames but the sequence has {trace.num_frames}"
            )
        end = trace.num_frames if end_frame is None else end_frame
        if not 0 <= start_frame < end <= trace.num_frames:
            raise ConfigurationError(
                f"client {request.client_id!r}: invalid frame window "
                f"[{start_frame}, {end}) for {trace.num_frames} frames"
            )
        new_items = sequence_work_items(request.client_id, trace)
        if self.slo is not None and self.slo.admit_cycles is not None:
            projected = self.projected_backlog_cycles() + (
                self._window_est_cycles(trace, new_items, start_frame, end)
            )
            if projected > self.slo.admit_cycles:
                if self.recorder.enabled:
                    self.recorder.emit(
                        EV_ADMISSION_REJECT,
                        0,
                        client=request.client_id,
                        slo_class=request.slo_class,
                        projected_cycles=projected,
                        admit_cycles=self.slo.admit_cycles,
                    )
                raise AdmissionError(
                    f"client {request.client_id!r} rejected: projected "
                    f"backlog {projected:.0f} cycles exceeds the admission "
                    f"cap of {self.slo.admit_cycles}"
                )
        self._clients.append(
            _Client(
                request=request,
                trace=trace,
                items=new_items,
                content_ids=self._content_ids(request, trace, cameras),
                order=self._order_counter,
                start_frame=start_frame,
                end_frame=end_frame,
                cache_seed=cache_seed,
            )
        )
        self._order_counter += 1

    def release(self, client_id: str) -> None:
        """Forget an admitted client entirely.

        After release the server holds no reference to the client's trace
        — CPython may garbage-collect it and *reuse its* ``id()`` for a
        later submission's trace, which is exactly why every server cache
        is keyed by content, never by object identity.
        """
        client = self._find(client_id)
        self._clients.remove(client)
        # Twins share alone references; keep the ones still read.
        live = {c.alone_key for c in self._clients}
        self._alone_cycles = {
            k: v for k, v in self._alone_cycles.items() if k in live
        }
        self.last_run_caches.pop(client_id, None)

    def truncate_client(
        self, client_id: str, end_frame: Optional[int]
    ) -> None:
        """Re-bound a client's delivered window (``None`` = full length).

        The cluster layer truncates the source copy of a migrating tenant
        at the migration frame — and un-truncates it afterwards so the
        server stays re-entrant across cluster runs.
        """
        client = self._find(client_id)
        if end_frame is not None and not (
            client.start_frame < end_frame <= client.trace.num_frames
        ):
            raise ConfigurationError(
                f"client {client_id!r}: invalid end_frame {end_frame} for "
                f"window starting at {client.start_frame} with "
                f"{client.trace.num_frames} frames"
            )
        client.end_frame = end_frame

    @property
    def num_clients(self) -> int:
        return len(self._clients)

    # ------------------------------------------------------------------
    # Reference costs
    # ------------------------------------------------------------------
    def alone_cycles(self, client_id: str) -> int:
        """Cycles the client's delivered window costs running alone on
        this accelerator — the back-to-back reference and the slowdown
        denominator.  Alone means the *full* temporal-cache budget, so
        with a bounded ``temporal_capacity`` a served client (holding
        only its partition) can legitimately cost more than this.

        For a windowed (migrated-tail) client, frames before
        ``start_frame`` still execute to warm the temporal cache — the
        reference assumes the hand-off carried the working set — but only
        the window's frames count.  A cold restart therefore shows up as
        extra measured slowdown, which is the point.

        The reference is a pure function of the sequence content and the
        window, so it runs once per distinct pair: twins of popular
        content share one run.
        """
        client = self._find(client_id)
        memo_key = client.alone_key
        if memo_key not in self._alone_cycles:
            start, end = client.window
            # Equivalent to `accelerator.simulate_sequence(...)`, unrolled
            # so the per-frame batched pricing plans it builds seed the
            # server's plan cache: when a partition's resident token later
            # matches the alone run's (the unbounded-capacity default, no
            # trims), serving replays these plans instead of rebuilding.
            cache = TemporalVertexCache(self.temporal_capacity)
            total = 0
            for k, ex in enumerate(
                sequence_executions(
                    self.accelerator,
                    client.trace,
                    group_size=self.group_size,
                    temporal=cache,
                )
            ):
                key = (client.trace.content_token(), k, cache.resident_token)
                cached = self._plan_cache.get(key)
                if cached is not None:
                    ex.attach_plan(cached)
                cycles = ex.finish().total_cycles
                if start <= k:
                    total += cycles
                if ex.plan is not None and key not in self._plan_cache:
                    self._plan_cache.put(key, ex.plan)
                if k + 1 >= end:
                    break
            self._alone_cycles[memo_key] = total
        return self._alone_cycles[memo_key]

    def back_to_back_cycles(self) -> int:
        """Sum of every admitted client's alone cycles — what the same
        workload costs with no sharing at all."""
        return sum(self.alone_cycles(c.id) for c in self._clients)

    def _find(self, client_id: str) -> _Client:
        for c in self._clients:
            if c.id == client_id:
                return c
        raise ConfigurationError(f"unknown client {client_id!r}")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _scanout_cycles(self, trace: SequenceTrace, frame: int) -> int:
        """Exact cycles of delivering a frame by scan-out, priced by the
        accelerator itself (memoised) so the scheduler's estimates stay
        definitionally equal to the eventual charge.  Scan-out is a pure
        function of the frame's rendered pixel count (one framebuffer bus
        transfer plus fixed per-pixel energy), so that count *is* the
        content key — no object identity involved."""
        key = ("scanout", trace.frames[frame].rendered_pixels)
        cached = self._scanout_memo.get(key)
        if cached is None:
            cached = self.accelerator.simulate_scanout(
                trace.frames[frame]
            ).total_cycles
            self._scanout_memo.put(key, cached)
        return cached

    def _window_est_cycles(
        self,
        trace: SequenceTrace,
        items: List[FrameWorkItem],
        start: int,
        end: int,
    ) -> float:
        """Pre-run cycle estimate of one client's delivered window —
        exact scan-out prices for replays, the cycles-per-point prior for
        everything else.  Feeds derived deadlines and the admission-
        control backlog projection, so both see the same arithmetic."""
        return sum(
            self._scanout_cycles(trace, item.frame)
            if item.mode == WORK_REPLAY
            else item.cost_hint * INITIAL_CYCLES_PER_POINT
            for item in items[start:end]
        )

    def projected_backlog_cycles(self) -> float:
        """The admission controller's current backlog projection: the
        summed pre-run cycle estimate of every admitted client's
        delivered window.  This is exactly the quantity
        :meth:`submit` compares against
        :attr:`~repro.serving.slo.SLOConfig.admit_cycles` (plus the
        candidate's own estimate), exposed so capacity planners and the
        overload experiments can pick caps from the same arithmetic."""
        return sum(
            self._window_est_cycles(c.trace, c.items, *c.window)
            for c in self._clients
        )

    def _thinned_trace(
        self, full: FrameTrace, mask, fraction: float
    ) -> FrameTrace:
        """The thinned copy of one frame's trace a degraded start runs:
        with a skip ``mask``, converged rays (True) are dropped from every
        wavefront and priced as scan-out-only reprojected pixels; without
        one, every ray's budget is capped at ``fraction``.  Memoised by
        content digest plus the thinning, so twins and repeated serve()
        runs share one copy."""
        key = (
            full.content_digest(),
            fraction if mask is None else mask.tobytes(),
        )
        cached = self._thinned_memo.get(key)
        if cached is None:
            cached = (
                full.with_budget_cap(fraction)
                if mask is None
                else full.with_reprojection(mask)
            )
            self._thinned_memo.put(key, cached)
        return cached

    def _derive_deadlines(self) -> None:
        """Fix per-frame deadlines before the run starts.

        A request with an explicit ``frame_interval_cycles`` keeps it;
        otherwise the server derives a proportional-share cadence — the
        client's estimated alone pace stretched by the number of admitted
        tenants — so deadline misses measure interference, not ambition.
        The derived cadence is then scaled by the request's SLO class
        (:data:`~repro.serving.slo.SLO_DEADLINE_MULTIPLIER`): interactive
        clients are due ahead of their fair share, batch clients well
        behind it.  The default ``standard`` multiplier is 1.0, so
        class-less workloads keep their exact pre-SLO deadlines.

        Keyframes (planned frames, which pay a Phase I plan pass on top
        of rendering) are charged
        :data:`~repro.serving.slo.KEYFRAME_GRACE_INTERVALS` extra
        interval(s) of grace: a cadence SLO paces the steady reuse
        stream, and no steady-pace cadence can absorb a keyframe's
        one-off planning cost.
        """
        n = len(self._clients)
        for client in self._clients:
            start, end = client.window
            window_items = client.items[start:end]
            interval = client.request.frame_interval_cycles
            if interval is None:
                est = self._window_est_cycles(
                    client.trace, client.items, start, end
                )
                interval = max(1, math.ceil(est / len(window_items))) * n
                factor = SLO_DEADLINE_MULTIPLIER.get(
                    client.request.slo_class, 1.0
                )
                interval = max(1, int(interval * factor))
            client.deadlines = [
                client.request.arrival_cycle
                + (
                    k
                    - start
                    + 1
                    + (
                        KEYFRAME_GRACE_INTERVALS
                        if client.trace.planned[k]
                        else 0
                    )
                )
                * interval
                for k in range(len(client.items))
            ]

    @staticmethod
    def _content_ids(
        request: ClientRequest, trace: SequenceTrace, cameras
    ) -> List[Tuple[Tuple, ...]]:
        """Content identities of every frame: the sequence-level id, then
        — for Phase I keyframes only — the pose-level id.  Computed once
        per client at :meth:`submit` (a frame's ids never change).

        The sequence-level id resolves in-sequence replays to their source
        frame, so twin requests (equal :meth:`~repro.serving.request.
        ClientRequest.content_key`) share ids frame by frame.  The
        pose-level id is :func:`pose_content_id`.
        """
        content_key = request.content_key()
        ids: List[Tuple[Tuple, ...]] = []
        for frame, camera in enumerate(cameras):
            replay_of = trace.replays[frame]
            seq_id = content_key + (frame if replay_of is None else replay_of,)
            if replay_of is None and trace.planned[frame]:
                ids.append((seq_id, pose_content_id(request, pose_key(camera))))
            else:
                ids.append((seq_id,))
        return ids

    # ------------------------------------------------------------------
    # The serving event loop
    # ------------------------------------------------------------------
    def serve(
        self, policy: Union[str, SchedulingPolicy] = "round_robin"
    ) -> ServeReport:
        """Run every admitted client under ``policy`` on a virtual clock.

        Each iteration of the event loop (one :class:`_ServeRun` step):
        departed clients abort (their in-flight execution is abandoned,
        their temporal-cache share is redistributed), newly arrived
        clients are admitted (elastic re-partitioning), the policy picks
        among the ready clients' head frames, and the chosen frame
        executes — to completion for a non-preemptive policy, for at most
        ``policy.quantum`` wavefront steps otherwise — advancing the clock
        by exactly the cycles charged.  Serving the same submissions twice
        yields identical reports — all pricing is deterministic
        arithmetic on the traces.

        Returns:
            A :class:`~repro.serving.report.ServeReport` with the
            schedule, per-client latency percentiles, throughput,
            fairness, context-switch counts and the back-to-back
            reference.
        """
        if not self._clients:
            raise ConfigurationError("no clients submitted")
        if isinstance(policy, str):
            policy = make_policy(policy)
        self._derive_deadlines()
        run = _ServeRun(self, policy)
        while run.step():
            pass
        return run.report()


class _ServeRun:
    """One :meth:`SequenceServer.serve` call: its state (fresh work items,
    an initially empty partition set, a cold cost model) and the steps of
    its event loop.  A disabled recorder is normalised to ``None`` once,
    so every emit site costs one identity check; events only *read*
    values the loop computed anyway — nothing feeds back into pricing or
    scheduling.
    """

    def __init__(self, server: SequenceServer, policy: SchedulingPolicy):
        self.server = server
        self.policy = policy
        self.slo = server.slo
        self.rec = server.recorder if server.recorder.enabled else None
        self.clients = server._clients
        # Quantum auto-tuning: with `quantum="auto"` every decision runs
        # the tuner's current quantum, re-sized from the measured
        # cycles-per-step distribution after each charge.  The tuner sees
        # only values the loop computes anyway, so auto-tuned schedules
        # are deterministic and engine/recorder independent.
        self.tuner = (
            QuantumAutoTuner()
            if policy.preemptive and policy.quantum == AUTO_QUANTUM
            else None
        )
        self.items: Dict[str, List[FrameWorkItem]] = {
            c.id: [item.fresh() for item in c.items] for c in self.clients
        }
        self.partitions = TemporalCachePartitions([], server.temporal_capacity)
        self.cost_model = WavefrontCostModel()
        self.executed: Set[Tuple] = set()
        # Content currently executing *fresh* on some tenant: content id
        # -> leader client id.  Under a preemptive policy an unstarted
        # twin of an in-flight frame defers (bounded by the starvation
        # guard) so it can deliver as a scan-out replay after the
        # leader's commit instead of double-charging shared content.
        self.in_flight_content: Dict[Tuple, str] = {}
        self.defer_counts: Dict[Tuple[str, int], int] = {}
        server.last_run_caches = {}
        self.reports = {
            c.id: ClientServeReport(
                client_id=c.id,
                scene=c.request.scene,
                preset=c.request.path.preset,
                arrival_cycle=c.request.arrival_cycle,
                alone_cycles=server.alone_cycles(c.id),
                slo_class=c.request.slo_class,
            )
            for c in self.clients
        }
        # Frames dropped by load shedding, per client — an in-sequence
        # replay whose source frame was shed cascades (there are no
        # rendered pixels to scan out).
        self.shed_sets: Dict[str, Set[int]] = {
            c.id: set() for c in self.clients
        }
        self.next_frame = {c.id: c.start_frame for c in self.clients}
        self.finished: Set[str] = set()  # departed or fully served
        self.admitted: Set[str] = set()
        self.schedule: List[ScheduledFrame] = []
        self.clock = 0
        self.context_switches = 0
        self.context_switch_cycles = 0
        # The tenant whose fresh-frame wavefronts ran last — switching
        # away from it while its frame is in flight is a context switch
        # (scan-out deliveries ride the bus and disturb no engine state).
        self.engine_owner: Optional[str] = None
        # The current decision's view, rebuilt by `candidates`.
        self.ready: List[_Client] = []
        self.pending: List[PendingFrame] = []
        self.hits: List[bool] = []
        self.blocked: List[bool] = []
        self.overloaded = False
        if self.rec is not None:
            self.rec.emit(
                EV_SERVE_START,
                self.clock,
                policy=policy.name,
                clients=len(self.clients),
                quantum=policy.quantum if policy.preemptive else None,
                preemptive=policy.preemptive,
                shared_content=server.shared_content,
            )

    def step(self) -> bool:
        """One event-loop iteration; ``False`` once every client is done."""
        self.depart()
        remaining = self.unfinished()
        if not remaining:
            return False
        self.ready = [
            c for c in remaining if c.request.arrival_cycle <= self.clock
        ]
        if not self.ready:
            self.clock = min(c.request.arrival_cycle for c in remaining)
            return True
        self.admit()
        if self.shed_cascade():
            return True
        self.candidates()
        if self.shed_victim():
            return True
        chosen = self.pick(waiting=len(remaining) - len(self.ready))
        client = self.ready[chosen]
        item = self.items[client.id][self.next_frame[client.id]]
        hit = self.hits[chosen]
        if not item.started and (item.mode == WORK_REPLAY or hit):
            self.scan_out(client, item, cross=hit and item.mode != WORK_REPLAY)
            return True
        self.switch(client)
        if not item.started:
            self.start(client, item)
        self.run_quantum(client, item)
        return True

    def unfinished(self) -> List[_Client]:
        # A client retires as its head reaches its window's end.
        return [c for c in self.clients if c.id not in self.finished]

    def depart(self) -> None:
        """Departures first: a client gone by the clock receives nothing
        from this point on."""
        for c in self.unfinished():
            dep = c.request.departure_cycle
            if dep is not None and dep <= self.clock:
                self.abort(c)

    def admit(self) -> None:
        """Mid-run admission: tenants joining at this clock get a
        partition; everyone present re-splits the budget."""
        rec = self.rec
        for c in self.ready:
            if c.id in self.admitted:
                continue
            cache = self.partitions.admit(c.id, seed=c.cache_seed)
            self.admitted.add(c.id)
            if rec is None:
                continue
            rec.emit(
                EV_ADMISSION,
                self.clock,
                client=c.id,
                tenants=len(self.partitions.tenants),
                warm=c.cache_seed is not None,
                frames=c.end - c.start_frame,
            )
            # Per-lookup temporal-cache telemetry, attributed to the
            # tenant.  The hook reads the run's clock when it fires, so
            # events carry the start of the quantum whose lookups they are.
            cache.observer = lambda level, accesses, hits, _cid=c.id: (
                rec.emit(
                    EV_TEMPORAL_CACHE,
                    self.clock,
                    client=_cid,
                    level=level,
                    accesses=accesses,
                    hits=hits,
                )
            )

    def shed_cascade(self) -> bool:
        """Shed every head frame that replays a shed frame (there are no
        rendered pixels to scan out) before it can enter the candidate
        set; ``True`` when anything was shed."""
        if self.slo is None or not self.slo.shed:
            return False
        cascaded = False
        for c in self.ready:
            while c.id not in self.finished:
                k = self.next_frame[c.id]
                src = c.trace.replays[k]
                if src is None or src not in self.shed_sets[c.id]:
                    break
                self.shed(c, float(self.server._scanout_cycles(c.trace, k)))
                cascaded = True
        return cascaded

    def candidates(self) -> None:
        """Estimate one head frame per ready client, and the overload
        signal: a deadlined head frame already past recoverable (raw
        slack below zero).  A candidate is *blocked* while its content is
        mid-flight on another tenant (the leader), so the leader's commit
        can turn it into a replay; :attr:`SequenceServer.TWIN_DEFER_LIMIT`
        bounds the wait, and a leader is never blocked.
        """
        server = self.server
        self.pending, self.hits, self.blocked = [], [], []
        for c in self.ready:
            k = self.next_frame[c.id]
            item = self.items[c.id][k]
            hit = blocked = False
            if item.started:
                # Locked in as a fresh execution; estimate remaining.
                est = self.cost_model.estimate(item.execution.remaining_points)
            else:
                ids = c.content_ids[k]
                hit = not self.executed.isdisjoint(ids)
                if item.mode == WORK_REPLAY or hit:
                    est = float(server._scanout_cycles(c.trace, k))
                else:
                    est = self.cost_model.estimate(item.cost_hint)
                    leaders = map(self.in_flight_content.get, ids)
                    leader = next(filter(None, leaders), None)
                    blocked = (
                        leader not in (None, c.id)
                        and self.defer_counts.get((c.id, k), 0)
                        < server.TWIN_DEFER_LIMIT
                    )
            self.hits.append(hit)
            self.blocked.append(blocked)
            self.pending.append(
                PendingFrame(
                    item=item,
                    order=c.order,
                    arrival_cycle=c.request.arrival_cycle,
                    completed=k,
                    total_frames=len(self.items[c.id]),
                    est_cycles=est,
                    deadline_cycle=c.deadlines[k],
                    started=item.started,
                    client_service_cycles=(
                        self.reports[c.id].service_cycles
                        + item.service_cycles
                    ),
                    slo_class=c.request.slo_class,
                )
            )
        self.overloaded = (
            self.slo is not None
            and self.slo.active
            and any(
                p.deadline_cycle is not None
                and p.deadline_cycle - self.clock - p.est_cycles < 0
                for p in self.pending
            )
        )

    def shed_victim(self) -> bool:
        """While overloaded, shed the priciest pending batch-class frame —
        the biggest relief per drop; the next step re-evaluates, and
        overload may have cleared.  Started, replay-mode, content-hit and
        twin-blocked frames are exempt — they are cheap or already paid
        for.  ``True`` when a frame was shed."""
        if not (self.overloaded and self.slo.shed):
            return False
        victims = [
            i
            for i, p in enumerate(self.pending)
            if p.slo_class in SLO_SHED_ORDER
            and not p.started
            and p.item.mode != WORK_REPLAY
            and not self.hits[i]
            and not self.blocked[i]
        ]
        if not victims:
            return False
        victim = max(
            victims,
            key=lambda i: (self.pending[i].est_cycles, self.ready[i].id),
        )
        self.shed(self.ready[victim], self.pending[victim].est_cycles)
        return True

    def pick(self, waiting: int) -> int:
        """The policy's choice among the ready head frames.  Blocked twins
        are deferred — unless every candidate is blocked, in which case
        deferral is waived rather than stalling."""
        rec = self.rec
        blocked = self.blocked
        if rec is not None:
            rec.emit(
                EV_SCHED,
                self.clock,
                ready=len(self.ready),
                blocked=sum(blocked),
                waiting=waiting,
            )
        selectable = [i for i, b in enumerate(blocked) if not b]
        deferred = [c for c, b in zip(self.ready, blocked) if b]
        for twin in deferred if selectable else ():
            key = (twin.id, self.next_frame[twin.id])
            self.defer_counts[key] = self.defer_counts.get(key, 0) + 1
            self.reports[twin.id].twin_deferrals += 1
            if rec is not None:
                rec.emit(
                    EV_TWIN_DEFER,
                    self.clock,
                    client=twin.id,
                    frame=key[1],
                    deferrals=self.defer_counts[key],
                )
        selectable = selectable or list(range(len(blocked)))
        pending = [self.pending[i] for i in selectable]
        rel = self.policy.select(pending, self.clock)
        if not 0 <= rel < len(selectable):
            raise ConfigurationError(
                f"policy {self.policy.name!r} selected invalid index {rel}"
            )
        return selectable[rel]

    def scan_out(
        self, client: _Client, item: FrameWorkItem, cross: bool
    ) -> None:
        """Deliver the frame by scan-out (an in-sequence replay or a
        cross-client content hit): atomic, one bus transfer, no engines."""
        frame_report = self.server.accelerator.simulate_scanout(
            client.trace.frames[item.frame]
        )
        item.start_cycle = self.clock
        item.service_cycles = frame_report.total_cycles
        self.clock += frame_report.total_cycles
        if self.rec is not None:
            self.rec.emit(
                EV_SCANOUT,
                item.start_cycle,
                client=client.id,
                frame=item.frame,
                cycles=frame_report.total_cycles,
                cross=cross,
            )
        self.complete(client, item, frame_report, cross=cross)

    def switch(self, client: _Client) -> None:
        """Hand the engines to ``client``; setting aside another tenant's
        in-flight frame is a context switch, charged apart from service
        cycles and before any start cycle is stamped."""
        owner, self.engine_owner = self.engine_owner, client.id
        if owner in (None, client.id):
            return
        suspended = self.items[owner][self.next_frame[owner]]
        if not suspended.in_flight:
            return
        overhead = self.server.context_switch_cycles
        suspended.preemptions += 1
        self.reports[owner].preemptions += 1
        self.context_switches += 1
        if self.rec is not None:
            self.rec.emit(
                EV_PREEMPTION,
                self.clock,
                preempted=owner,
                by=client.id,
                overhead=overhead,
            )
        self.clock += overhead
        self.context_switch_cycles += overhead

    def start(self, client: _Client, item: FrameWorkItem) -> None:
        """Open the frame's execution cursor — over its :meth:`thin`-ned
        trace when overload degrades it — then claim its content and
        prefetch plans for a full-quality start."""
        server = self.server
        k = item.frame
        cache = self.partitions.cache_for(client.id)
        scoped = (
            None
            if self.rec is None
            else ScopedRecorder(self.rec, client=client.id, frame=k)
        )
        thinned = self.thin(client, item)
        if thinned is None:
            item.execution = server.accelerator.frame_execution(
                client.trace,
                k,
                group_size=server.group_size,
                temporal=cache,
                recorder=scoped,
            )
        else:
            # A thinned frame commits a different working set than the
            # full frame k, so its commit tag names the thinned content:
            # plans keyed by the resident token must not mistake one
            # resident set for the other.
            item.thinned = True
            item.execution = server.accelerator.trace_execution(
                thinned,
                group_size=server.group_size,
                temporal=cache,
                commit_tag=(k, thinned.content_digest()),
                recorder=scoped,
            )
        item.start_cycle = self.clock
        if self.rec is not None and item.mode == WORK_PROBE:
            self.rec.emit(
                EV_KEYFRAME_PROBE,
                self.clock,
                client=client.id,
                frame=k,
                points=item.cost_hint,
            )
        if item.thinned:
            return
        if server.shared_content:
            # This tenant now leads its content: unstarted twins defer
            # until the commit in `complete` (or this client's abort)
            # clears the claim.  A thinned frame never leads — its pixels
            # are not the full-quality content a twin would scan out.
            for cid in client.content_ids[k]:
                self.in_flight_content.setdefault(cid, client.id)
        self.prefetch_plans(client, item)

    def thin(
        self, client: _Client, item: FrameWorkItem
    ) -> Optional[FrameTrace]:
        """The degraded trace a starting frame runs, or ``None`` for full
        quality.  While overloaded, a plan-reuse frame prefers *temporal
        reprojection* (its converged rays warped from the previous
        frame) and falls back to a budget-capped copy when no mask is
        armed or the warp guard fails.  With a PSNR floor, only a known
        measured PSNR at or above it degrades; unknown quality does not.
        """
        slo = self.slo
        if not (self.overloaded and slo.degrade and item.mode == WORK_REUSE):
            return None
        key = (client.id, item.frame)
        mask = (slo.reproject_masks or {}).get(key)
        options = [] if mask is None else [(mask, slo.reproject_psnr)]
        options.append((None, slo.degrade_psnr))
        for mask, measured in options:
            psnr = None if measured is None else measured.get(key)
            floor = slo.degrade_min_psnr
            if floor is None or (psnr is not None and psnr >= floor):
                break
        else:
            return None
        if mask is None:
            kind, detail = EV_DEGRADE, {"fraction": slo.degrade_fraction}
            entry = {"frame": item.frame}
        else:
            kind, detail = EV_REPROJECT, {"pixels": int(mask.sum())}
            entry = {"frame": item.frame, "mode": "reproject"}
        entry.update(detail, psnr=psnr)
        self.reports[client.id].degraded.append(entry)
        if self.rec is not None:
            self.rec.emit(
                kind, self.clock, client=client.id, frame=item.frame,
                **detail, psnr=psnr,
            )
        return self.server._thinned_trace(
            client.trace.frames[item.frame], mask, slo.degrade_fraction
        )

    def prefetch_plans(self, client: _Client, item: FrameWorkItem) -> None:
        """The cross-tenant batching seam of the serving loop.

        Called once per freshly started full-quality frame: attach the
        execution's cached pricing plan when one is still valid for its
        partition's resident content, and otherwise price it in **one
        fused batch** together with every other ready client's unstarted
        fresh head frame that lacks a valid plan.  Those head frames'
        pricing is independent of how the policy will interleave the
        quanta — each client's resident set was committed by its own
        previous frame and only changes at frame boundaries or elastic
        re-partitions (which invalidate the plan token) — so pre-pricing
        them cannot disturb the schedule; the throwaway executions built
        here are never started, keeping `item.started` (and therefore the
        policy's view) untouched.
        """
        server = self.server
        plan_cache = server._plan_cache
        k = item.frame
        cache = self.partitions.cache_for(client.id)
        key = (client.trace.content_token(), k, cache.resident_token)
        cached = plan_cache.get(key)
        hit = cached is not None and item.execution.attach_plan(cached)
        to_build = [] if hit else [(key, item.execution)]
        if self.rec is not None:
            self.rec.emit(
                EV_PLAN_CACHE,
                self.clock,
                client=client.id,
                frame=k,
                outcome="hit" if hit else "miss",
            )
        queued = {key for key, _ in to_build}
        for i, c in enumerate(self.ready):
            kc = self.next_frame[c.id]
            it = self.items[c.id][kc]
            if (
                c.id == client.id
                or it.started
                or it.mode == WORK_REPLAY
                or self.hits[i]
                # Blocked twins are deferred expecting a scan-out
                # delivery — pre-pricing them would waste the build.
                or self.blocked[i]
            ):
                continue
            cache = self.partitions.cache_for(c.id)
            key = (c.trace.content_token(), kc, cache.resident_token)
            if key in plan_cache or key in queued:
                continue
            ex = server.accelerator.frame_execution(
                c.trace, kc, group_size=server.group_size, temporal=cache
            )
            to_build.append((key, ex))
            queued.add(key)
        if to_build:
            plans = build_frame_plans([ex for _, ex in to_build])
            for (key, _), plan in zip(to_build, plans):
                plan_cache.put(key, plan)

    def run_quantum(self, client: _Client, item: FrameWorkItem) -> None:
        """Run the started frame for one quantum (to completion under a
        non-preemptive policy), advancing the clock by exactly the cycles
        charged; an unfinished frame's cursor (and its engines) wait on
        the work item for the policy's next decision."""
        ex, tuner, rec = item.execution, self.tuner, self.rec
        points_before, steps_before = ex.points_done, ex.steps_done
        quantum_start = self.clock
        max_steps = None
        if self.policy.preemptive:
            max_steps = self.policy.quantum if tuner is None else tuner.quantum
        charged = ex.run(max_steps=max_steps)
        points = ex.points_done - points_before
        self.cost_model.observe(charged, points)
        item.service_cycles += charged
        self.clock += charged
        if rec is not None:
            rec.emit(
                EV_QUANTUM,
                quantum_start,
                client=client.id,
                frame=item.frame,
                cycles=charged,
                points=points,
                mode=item.mode,
                done=ex.done,
            )
        if (
            tuner is not None
            and tuner.observe(charged, ex.steps_done - steps_before)
            and rec is not None
        ):
            rec.emit(
                EV_QUANTUM_TUNE,
                self.clock,
                quantum=tuner.quantum,
                p95_step_cycles=tuner.p95_step_cycles,
                target_cycles=tuner.target_cycles,
            )
        if ex.done:
            self.complete(client, item, ex.finish(), cross=False)

    def complete(
        self, client: _Client, item: FrameWorkItem, frame_report, cross: bool
    ) -> None:
        """Deliver a finished frame: schedule row, latency, modes."""
        k = item.frame
        clock = self.clock
        if self.server.shared_content and not item.thinned:
            # Thinned frames never register their content: their pixels
            # are not the full-quality frames a twin expects to scan out.
            # With sharing off nothing registers, so nothing is a hit.
            self.executed.update(client.content_ids[k])
        self.row(client, item, frame_report, delivered=True, cross=cross)
        rep = self.reports[client.id]
        rep.latencies_cycles.append(clock - client.request.arrival_cycle)
        if cross:
            rep.cross_replays += 1
        if item.mode == WORK_REPLAY:
            rep.replays += 1
        elif item.mode == WORK_PROBE:
            rep.probes += 1
        else:
            rep.reuses += 1
        deadline = client.deadlines[k]
        missed = deadline is not None and clock > deadline
        if missed:
            rep.deadline_misses += 1
        if self.rec is not None:
            self.rec.emit(
                EV_FRAME_COMPLETE,
                clock,
                client=client.id,
                frame=k,
                mode=item.mode,
                cross=cross,
                start=item.start_cycle,
                cycles=item.service_cycles,
                preemptions=item.preemptions,
                encoding_cycles=frame_report.encoding.cycles,
                mlp_cycles=frame_report.mlp.cycles,
                render_cycles=frame_report.render.cycles,
                bus_cycles=frame_report.bus_cycles,
                stall_cycles=frame_report.buffer_stall_cycles,
                energy_joules=frame_report.energy_joules,
                deadline_missed=missed,
            )
        self.release_claims(client.id)
        self.advance(client)

    def abort(self, client: _Client) -> None:
        """Client departure: cancel undelivered frames, abandon the
        in-flight execution (its partial cycles stay attributed to the
        client — conservation), free the cache share."""
        head = self.next_frame[client.id]
        item = self.items[client.id][head]
        self.reports[client.id].aborted_frames += client.end - head
        rec = self.rec
        if rec is not None:
            rec.emit(
                EV_DEPARTURE,
                self.clock,
                client=client.id,
                aborted=client.end - head,
                delivered=head - client.start_frame,
            )
        if item.in_flight:
            if rec is not None:
                rec.emit(
                    EV_FRAME_ABORT,
                    self.clock,
                    client=client.id,
                    frame=item.frame,
                    cycles=item.service_cycles,
                    start=item.start_cycle,
                )
            self.row(client, item, item.execution.abandon(), delivered=False)
        self.release_claims(client.id)
        self.retire(client)

    def shed(self, client: _Client, est: float) -> None:
        """Drop the client's head frame under overload: zero cycles, an
        undelivered schedule row, and the frame counts against the
        client's SLO attainment (never against conservation)."""
        k = self.next_frame[client.id]
        self.reports[client.id].shed_frames += 1
        self.shed_sets[client.id].add(k)
        # A shed frame never started: its row reads start -1, 0 cycles.
        self.row(client, self.items[client.id][k], None, delivered=False)
        if self.rec is not None:
            self.rec.emit(
                EV_SHED,
                self.clock,
                client=client.id,
                frame=k,
                slo_class=client.request.slo_class,
                est_cycles=est,
            )
        self.advance(client)

    def row(
        self,
        client: _Client,
        item: FrameWorkItem,
        frame_report,
        delivered: bool,
        cross: bool = False,
    ) -> None:
        """Book a frame leaving the run — delivered, aborted or shed
        (``frame_report`` ``None``): its schedule row, completed at the
        clock, and its cycles and energy on the client's report."""
        rep = self.reports[client.id]
        rep.service_cycles += item.service_cycles
        if frame_report is not None:
            rep.energy_joules += frame_report.energy_joules
        self.schedule.append(
            ScheduledFrame(
                client=client.id,
                frame=item.frame,
                mode=item.mode,
                cross_replay=cross,
                start_cycle=item.start_cycle,
                cycles=item.service_cycles,
                completion_cycle=self.clock,
                preemptions=item.preemptions,
                delivered=delivered,
            )
        )

    def release_claims(self, client_id: str) -> None:
        """Drop the content leads a client holds, so deferred twins fall
        back to scan-out (after a commit) or their own execution."""
        self.in_flight_content = {
            cid: owner
            for cid, owner in self.in_flight_content.items()
            if owner != client_id
        }

    def advance(self, client: _Client) -> None:
        """Move past the head frame; a client out of frames retires."""
        self.next_frame[client.id] += 1
        if self.next_frame[client.id] == client.end:
            self.retire(client)

    def retire(self, client: _Client) -> None:
        """Remove a finished/departed tenant from the elastic set.

        The released partition is kept on ``last_run_caches`` so a
        cluster can export the tenant's temporal state for a migration
        hand-off after this run completes.
        """
        self.finished.add(client.id)
        if client.id in self.partitions.tenants:
            cache = self.partitions.release(client.id)
            # Drop the telemetry hook with the run that owned it — a
            # retired partition may outlive this serve() call (it is the
            # migration export source).
            cache.observer = None
            self.server.last_run_caches[client.id] = cache
        if self.engine_owner == client.id:
            self.engine_owner = None

    def report(self) -> ServeReport:
        policy = self.policy
        if self.rec is not None:
            self.rec.emit(
                EV_SERVE_END,
                self.clock,
                policy=policy.name,
                makespan=self.clock,
                context_switches=self.context_switches,
                frames_delivered=sum(1 for s in self.schedule if s.delivered),
            )
        return ServeReport(
            policy=policy.name,
            clock_hz=self.server.accelerator.config.clock_hz,
            clients=[self.reports[c.id] for c in self.clients],
            schedule=self.schedule,
            makespan_cycles=self.clock,
            back_to_back_cycles=self.server.back_to_back_cycles(),
            context_switches=self.context_switches,
            context_switch_cycles=self.context_switch_cycles,
            quantum=policy.quantum if policy.preemptive else None,
        )
