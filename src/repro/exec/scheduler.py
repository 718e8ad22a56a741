"""Scheduling shared by renderer, trace, simulator and the serving layer.

Two granularities live here:

* **Wavefronts** (within one frame).  The ASDR execution model processes
  rays in *wavefronts*: rays sharing a sample budget are grouped
  (ascending budget order, as the adaptive renderer executes them) and
  dispatched in fixed-size batches.  Before this module,
  ``core/pipeline.py``, ``arch/trace.py`` and ``arch/accelerator.py`` each
  carried their own copy of the ``unique-budget -> chunk`` double loop;
  they now all iterate the generators below.

* **Frames** (across clients).  Multi-tenant serving interleaves many
  clients' sequences on one accelerator; the scheduling unit is one frame
  of one client's :class:`~repro.exec.sequence.SequenceTrace`, described
  by a :class:`FrameWorkItem` (execution mode + cost hint, so policies can
  tell a cheap pose-replay from an expensive Phase I probe without
  simulating anything — plus the suspend/resume state of an in-flight
  :class:`~repro.exec.execution.FrameExecution` under wavefront-
  granularity preemption).  :class:`TemporalCachePartitions` splits one
  temporal vertex-cache budget among the tenants so one client's working
  set never evicts another's, and re-partitions elastically as tenants
  arrive and depart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cim.cache import TemporalVertexCache
from repro.errors import ConfigurationError


def budget_groups(
    budgets: np.ndarray, ray_ids: Optional[np.ndarray] = None
) -> Iterator[Tuple[int, np.ndarray]]:
    """Group rays by sample budget.

    Args:
        budgets: ``(R,)`` per-ray sample budgets.
        ray_ids: Optional ``(R,)`` ray ids aligned with ``budgets``; defaults
            to ``arange(R)`` (i.e. ``budgets`` covers the whole image).

    Yields:
        ``(budget, ray_ids)`` with ascending budgets; non-positive budgets
        are skipped (rays with nothing to render).

    Example:
        >>> import numpy as np
        >>> [(b, ids.tolist()) for b, ids in budget_groups(np.array([2, 4, 2, 0]))]
        [(2, [0, 2]), (4, [1])]
    """
    budgets = np.asarray(budgets)
    if ray_ids is None:
        ray_ids = np.arange(len(budgets), dtype=np.int64)
    for budget in np.unique(budgets):
        if budget <= 0:
            continue
        yield int(budget), ray_ids[budgets == budget]


def iter_wavefronts(
    ray_ids: np.ndarray, wavefront_rays: int
) -> Iterator[np.ndarray]:
    """Split one budget group into wavefronts of at most ``wavefront_rays``.

    Example:
        >>> import numpy as np
        >>> [w.tolist() for w in iter_wavefronts(np.arange(5), 2)]
        [[0, 1], [2, 3], [4]]
    """
    for start in range(0, len(ray_ids), wavefront_rays):
        yield ray_ids[start : start + wavefront_rays]


def iter_budget_wavefronts(
    budgets: np.ndarray,
    wavefront_rays: int,
    ray_ids: Optional[np.ndarray] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(budget, wavefront_ray_ids)`` in execution order.

    Example:
        >>> import numpy as np
        >>> [(b, w.tolist())
        ...  for b, w in iter_budget_wavefronts(np.array([2, 4, 2, 2]), 2)]
        [(2, [0, 2]), (2, [3]), (4, [1])]
    """
    for budget, ids in budget_groups(budgets, ray_ids):
        for chunk in iter_wavefronts(ids, wavefront_rays):
            yield budget, chunk


# ----------------------------------------------------------------------
# Frame-granularity scheduling (multi-tenant serving)
# ----------------------------------------------------------------------

#: Execution modes of a frame work item, cheapest first: a bit-identical
#: pose replay (framebuffer scan-out only), a sampling-plan-reuse frame
#: (no Phase I probe) and a keyframe that runs its own Phase I probe.
WORK_REPLAY = "replay"
WORK_REUSE = "reuse"
WORK_PROBE = "probe"


@dataclass
class FrameWorkItem:
    """One frame of one client's sequence — the serving scheduling unit.

    The identity fields (``client`` / ``frame`` / ``mode`` /
    ``cost_hint``) describe the frame; the remaining fields are the
    *suspend/resume state* a preemptive serving run accumulates: the
    in-flight :class:`~repro.exec.execution.FrameExecution` cursor, the
    cycle its first wavefront ran, service cycles charged so far and how
    often the frame was set aside for another tenant.  Runtime state is
    per serving run — schedulers take a :meth:`fresh` copy so one
    submitted sequence can be served under many policies.

    Attributes:
        client: Tenant identifier the frame belongs to.
        frame: Index into the client's
            :class:`~repro.exec.sequence.SequenceTrace`.
        mode: :data:`WORK_REPLAY`, :data:`WORK_REUSE` or
            :data:`WORK_PROBE` — how the frame executes, which is also a
            strong cost signal (replays are scan-out only; reuse frames
            skip Phase I; probes pay everything).
        cost_hint: Density-MLP points the frame will execute (0 for
            replays).  Policies multiply it by a calibrated
            cycles-per-point estimate; it is *not* a cycle count itself.
        execution: In-flight execution cursor (``None`` until the frame's
            first wavefront runs; cleared state means not started).
        start_cycle: Virtual-clock cycle the first wavefront ran at
            (``-1`` = not started).
        service_cycles: Accelerator cycles charged to this frame so far.
        preemptions: Times this frame was suspended with work remaining
            while another tenant's wavefronts ran.
        thinned: True when the server's degraded-quality mode ran the
            frame over a thinned trace (reprojected or budget-capped);
            set before the first wavefront.
    """

    client: str
    frame: int
    mode: str
    cost_hint: int
    execution: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    start_cycle: int = field(default=-1, compare=False)
    service_cycles: int = field(default=0, compare=False)
    preemptions: int = field(default=0, compare=False)
    thinned: bool = field(default=False, compare=False)

    @property
    def started(self) -> bool:
        """True once the frame's first wavefront has executed."""
        return self.execution is not None

    @property
    def in_flight(self) -> bool:
        """Started but not yet complete — the suspend/resume window."""
        return self.execution is not None and not self.execution.done

    def fresh(self) -> "FrameWorkItem":
        """A copy with pristine runtime state (one per serving run)."""
        return replace(
            self,
            execution=None,
            start_cycle=-1,
            service_cycles=0,
            preemptions=0,
            thinned=False,
        )


def sequence_work_items(client: str, trace) -> List[FrameWorkItem]:
    """Expand a :class:`~repro.exec.sequence.SequenceTrace` into the
    per-frame work items a serving scheduler interleaves.

    The mode of each frame comes from the trace's recorded temporal
    structure: ``replays[k]`` marks bit-identical pose replays and
    ``planned[k]`` separates Phase I keyframes from sampling-plan-reuse
    frames.
    """
    items: List[FrameWorkItem] = []
    for k in range(trace.num_frames):
        if trace.replays[k] is not None:
            mode, hint = WORK_REPLAY, 0
        else:
            mode = WORK_PROBE if trace.planned[k] else WORK_REUSE
            hint = trace.frames[k].density_points
        items.append(FrameWorkItem(client=client, frame=k, mode=mode, cost_hint=hint))
    return items


class TemporalCachePartitions:
    """Elastic per-tenant partitions of one temporal vertex-cache budget.

    Interleaving many clients on one accelerator must not let client A's
    voxel working set evict client B's between B's consecutive frames, so
    the serving layer partitions the temporal cache: each tenant owns a
    private :class:`~repro.cim.cache.TemporalVertexCache` holding
    ``total_capacity // num_tenants`` entries per level (unbounded when
    ``total_capacity`` is ``None``).  Private partitions make a client's
    temporal state independent of how tenants interleave; with an
    unbounded budget each partition equals the cache the client would
    have running alone, so serving prices its frames identically to a
    solo run.  A bounded budget deliberately models contention — each
    tenant's share is smaller than the whole cache, and reuse may drop
    accordingly.

    The partitioning is **elastic**: :meth:`admit` and :meth:`release`
    change the tenant set mid-run (online admission, client departure)
    and re-split the budget among the tenants now present.  Shrinking a
    surviving tenant's share trims its resident set to the new bound;
    growing it never invents entries.  Conservation holds throughout —
    the shares always sum to at most ``total_capacity`` — and a resize
    that trims resident content extends the cache's resident-content
    key, so hit masks memoised against an earlier share are never served
    against the re-partitioned resident set (see
    :meth:`~repro.cim.cache.TemporalVertexCache.resize`).

    Args:
        tenants: Tenant ids present at construction (may be empty — a
            serving run admits clients as they arrive).
        total_capacity: Combined per-level entry budget (``None`` =
            unbounded, the idealised buffer the video experiment uses).
    """

    def __init__(
        self, tenants, total_capacity: Optional[int] = None
    ) -> None:
        tenants = list(tenants)
        if len(set(tenants)) != len(tenants):
            raise ConfigurationError("tenant ids must be unique")
        self.total_capacity = total_capacity
        self.per_tenant_capacity: Optional[int] = None
        self._caches: Dict[str, TemporalVertexCache] = {}
        for tenant in tenants:
            self.admit(tenant)

    def _rebalance(self) -> None:
        """Re-split the budget evenly among the tenants now present."""
        if self.total_capacity is None or not self._caches:
            self.per_tenant_capacity = None
            return
        if self.total_capacity < len(self._caches):
            raise ConfigurationError(
                f"total_capacity {self.total_capacity} cannot be split among "
                f"{len(self._caches)} tenants"
            )
        share = self.total_capacity // len(self._caches)
        self.per_tenant_capacity = share
        for cache in self._caches.values():
            cache.resize(share)

    def admit(
        self, tenant: str, seed: Optional[Dict] = None
    ) -> TemporalVertexCache:
        """Add a tenant mid-run; every partition shrinks to the new share.

        Returns the new tenant's partition — empty unless ``seed`` is an
        exported cache state (see :meth:`export_state`), in which case the
        partition adopts the seeded resident set before the rebalance;
        this is the migration hand-off path, where a tenant arrives on a
        shard carrying the temporal working set it built on another.

        Raises:
            ConfigurationError: On a duplicate tenant id, or when the
                budget cannot cover one more tenant.
        """
        if tenant in self._caches:
            raise ConfigurationError(f"tenant {tenant!r} already admitted")
        if (
            self.total_capacity is not None
            and self.total_capacity < len(self._caches) + 1
        ):
            raise ConfigurationError(
                f"total_capacity {self.total_capacity} cannot be split among "
                f"{len(self._caches) + 1} tenants"
            )
        # Insert with the current share (rebalance below tightens it), so
        # the new cache is constructed under a valid bound.
        cache = TemporalVertexCache(self.per_tenant_capacity)
        if seed is not None:
            cache.adopt(seed)
        self._caches[tenant] = cache
        self._rebalance()
        return self._caches[tenant]

    def export_state(self, tenant: str) -> Dict:
        """Snapshot a tenant's partition for cross-shard hand-off.

        The snapshot is self-contained (see
        :meth:`~repro.cim.cache.TemporalVertexCache.export_state`) and
        can seed :meth:`admit` on another shard's partitions.
        """
        return self.cache_for(tenant).export_state()

    def release(self, tenant: str) -> TemporalVertexCache:
        """Remove a departing tenant; survivors inherit its budget share.

        Returns the released partition (its owner may still hold a
        suspended execution draining against it — the partition object
        stays valid, it just no longer counts against the budget).
        """
        try:
            cache = self._caches.pop(tenant)
        except KeyError:
            raise ConfigurationError(
                f"unknown tenant {tenant!r}; cannot release"
            ) from None
        self._rebalance()
        return cache

    def cache_for(self, tenant: str) -> TemporalVertexCache:
        """The tenant's private temporal cache partition."""
        try:
            return self._caches[tenant]
        except KeyError:
            raise ConfigurationError(
                f"unknown tenant {tenant!r}; admit it first"
            ) from None

    @property
    def tenants(self) -> List[str]:
        return list(self._caches)
