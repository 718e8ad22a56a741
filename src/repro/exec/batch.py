"""Frame pricing: every wavefront slice of a frame in fused numpy passes.

A frame's wavefront slices are priced by the per-slice model of Section
5.2 — corner addresses, register-cache window hits, temporal hits,
crossbar conflicts, MLP/render engines and buffer stalls — but not one
slice at a time: that spelling spends its wall clock in per-slice,
per-level numpy calls.  :func:`build_frame_plans` prices every slice of
one or more frames with **one numpy pass per resolution level per
frame** (and a few row-bounded crossbar conflict replays for the whole
batch) and stores the results as a :class:`FramePlan` — a per-step list
of pre-assembled report fragments the execution cursor merges in plain
Python, plus the per-level unique address sets the temporal cache
records before the frame-boundary commit.

**Bit-identity with the per-slice model is the contract** (the
per-slice reference pricer in ``tests/reference_pricer.py`` is the
oracle).  A plan entry holds exactly what pricing that slice alone
produces, computed with the same arithmetic in the same order:

* per-slice register-cache hits come from *one* pass over the frame's
  concatenated stream, keyed as ``slice_id * stride + address`` — chunk
  offsets larger than any address make cross-slice matches impossible
  while preserving exact within-slice distances;
* per-slice crossbar conflicts come from
  :meth:`~repro.cim.memxbar.MemXbarBank.read_cycles_segments` passes (the
  conflict model is additive over issue groups, so segment sums equal
  per-slice replays exactly; bank outputs depend only on the crossbar
  geometry, never on a level's entry count, so every level — and every
  tenant sharing an accelerator design — batches into one call, cut into
  several at slice boundaries only when the rows exceed a fixed cap that
  bounds the pass's temporaries);
* the non-linear per-slice arithmetic — ``ceil`` address-generation and
  fusion terms, ``max`` stage combining, MLP/render engine pricing,
  buffer stalls — is *not* vectorised across slices: it is replicated
  verbatim per slice (cheap scalar math), because those expressions do
  not distribute over batches;
* float accumulation (crossbar/MLP energy) keeps the per-slice model's
  left-fold order: per level within a slice, then per slice.

Temporal-cache state: lookups are evaluated against the resident set at
plan-build time and the plan carries the cache's
:attr:`~repro.cim.cache.TemporalVertexCache.resident_token`; the
execution cursor revalidates the token on every advance (and at
:meth:`~repro.exec.execution.FrameExecution.attach_plan`), so an elastic
re-partition that trims the resident set mid-frame forces a rebuild
against the new content instead of replaying stale hit masks.  Recorded
working sets are deferred: the pending set is invisible to every lookup
until the frame-boundary commit, and
:meth:`~repro.cim.cache.TemporalVertexCache.commit_frame` re-uniques the
union of all pending chunks, so one deduplicated per-level record at the
frame's end commits exactly what per-slice recording would have.

Plan building is *observably* side-effect free: it touches no
``SimReport`` and never records into or commits the temporal cache.
(Only the temporal cache's diagnostic lookup statistics advance, and the
derived streams memoise on the trace.)  That is what makes the
cross-tenant seam in :class:`~repro.serving.server.SequenceServer` sound:
when several ready clients have unstarted fresh head frames, their plans
are built in one fused batch and held until each frame is actually
scheduled — every head frame's resident set is already committed by its
predecessor, so the prices cannot depend on how the quanta interleave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cim.cache import previous_occurrence_gaps
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.encoding_engine import EncodingReport
    from repro.exec.execution import FrameExecution


@dataclass(frozen=True)
class PlannedStep:
    """One wavefront step's pre-assembled pricing.

    ``encoding``/``mlp`` are ``None`` for the Phase I adaptive-sampling
    tail step (which only exercises the render engine).  The fragments
    are immutable once built — a plan may be replayed by several
    executions (the server's cross-run plan cache), so consumers merge
    *from* them and never into them.
    """

    charge: int
    num_points: int
    encoding: Optional["EncodingReport"]
    mlp: Optional[object]
    render: object
    stall: int
    log_key: Tuple


@dataclass
class FramePlan:
    """Pre-priced wavefront steps of one frame, plus deferred records.

    Attributes:
        steps: One :class:`PlannedStep` per execution step, in step order.
        records: ``(level, unique_addresses)`` pairs — the frame's
            per-level temporal working set, recorded into the cache's
            pending set once the cursor has executed every step (always
            before the frame-boundary commit that makes it visible).
        temporal_token: The resident-content token the temporal hit masks
            were computed against (``None`` when priced without a cache).
        total_points: Density-MLP points over all steps (plan/execution
            compatibility check).
    """

    steps: List[PlannedStep]
    records: List[Tuple[int, np.ndarray]]
    temporal_token: Optional[tuple]
    total_points: int


def build_frame_plans(
    executions: Sequence["FrameExecution"],
) -> List[FramePlan]:
    """Price every wavefront slice of ``executions`` in fused numpy passes.

    Accepts any number of (non-scanout) executions — one frame resuming
    its own cursor, or the head frames of several serving tenants batched
    together.  Each execution's plan is attached to it and also returned,
    in order.
    """
    pricings = [_price_encoding(ex) for ex in executions]
    _fused_bank_pass(executions, pricings)
    plans = [_assemble_plan(ex, pricing) for ex, pricing in zip(executions, pricings)]
    for ex, plan in zip(executions, plans):
        ex._plan = plan
        if ex._recorder is not None:
            from repro.obs.events import EV_PLAN_BUILD

            ex._recorder.emit(
                EV_PLAN_BUILD,
                ex.report.total_cycles,
                steps=len(plan.steps),
                points=plan.total_points,
                batch_size=len(executions),
            )
    return plans


# ----------------------------------------------------------------------
# Pass 1: encoding streams (addresses, gaps, cache + temporal hits)
# ----------------------------------------------------------------------
@dataclass
class _ExecutionPricing:
    """Scratch state of one execution between the builder's passes."""

    #: Per-slice point counts, in step order.
    sizes: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: Per level: the frame's miss issue groups, ``(total_points, 8)``.
    miss_blocks: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    #: Per level: per-slice register-cache / temporal hit counts.
    cache_hits: Dict[int, np.ndarray] = field(default_factory=dict)
    temporal_hits: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Per level: per-slice (cycles, accesses, conflicts, energy) arrays.
    read_segments: Dict[int, Tuple] = field(default_factory=dict)
    records: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    temporal_token: Optional[tuple] = None


def _price_encoding(ex: "FrameExecution") -> _ExecutionPricing:
    """Stream pass: one fused call per resolution level over the whole
    frame — logical/striped addresses (built from the frame's voxel
    bases), register-cache hits (composite-keyed gaps), temporal hits and
    working sets, miss issue groups and per-slice hit counts.
    Frame-level arrays memoise on the trace."""
    if ex._scanout:
        raise SimulationError("scan-out executions have no wavefront plan")
    out = _ExecutionPricing()
    engine = ex._encoding_engine
    temporal = ex._temporal
    if temporal is not None:
        out.temporal_token = temporal.resident_token
    gen = engine.generator
    config = ex.accelerator.config
    num_levels = ex.accelerator.grid.num_levels
    sk = engine.stream_key
    uint16_max = int(np.iinfo(np.uint16).max)

    slices = ex._slices
    out.sizes = sizes = np.array([sl.num_points for sl in slices], dtype=np.int64)
    total = int(sizes.sum())
    if total == 0 or num_levels == 0:
        return out
    # Segment starts of each slice in the flat 8-wide address stream
    # (`np.add.reduceat` on bools is `or`, so counts widen to int64 first).
    starts = np.concatenate([[0], np.cumsum(sizes * 8)[:-1]])
    hook = ex._memo_scope.memo_hook(("fplan", config.wavefront_rays))
    request_ids: Optional[np.ndarray] = None

    for level in range(num_levels):
        base = ex._corner_bases[level]
        compact = engine.compact_dtype(level)
        logical = hook(
            ("addr", level) + sk,
            lambda: gen.addresses(base, level, None).astype(compact),
        )
        stream = logical.reshape(-1)
        window = engine.caches[level].window
        if window <= 0:
            hits = np.zeros(stream.size, dtype=bool)
        elif window <= _SHIFT_WINDOW_MAX:
            # Small windows (every swept design point): `window` shifted
            # equality passes beat the sort previous-occurrence gaps
            # need, and yield the hit mask directly.
            hits = hook(
                ("whits", level, window) + sk,
                lambda: _window_hits(stream, sizes, window),
            )
        elif window < uint16_max:
            gaps = hook(
                ("gaps", level) + sk,
                lambda: np.minimum(
                    _composite_gaps(stream, sizes), uint16_max
                ).astype(np.uint16),
            )
            hits = gaps <= window
        else:  # pragma: no cover - no swept design reaches this
            hits = _composite_gaps(stream, sizes) <= window
        served = hits
        if temporal is not None:
            t_full = temporal.lookup(stream, level, memo=hook, stream_key=sk)
            t_hits = t_full & ~hits
            served = hits | t_full
            unique_stream = hook(
                ("uniq", level) + sk, lambda: _working_set(stream)
            )
            out.records.append((level, unique_stream))
            out.temporal_hits[level] = np.add.reduceat(
                t_hits.astype(np.int64), starts
            )
        else:
            out.temporal_hits[level] = np.zeros(len(sizes), dtype=np.int64)
        if gen.striped(level):
            # Request ids restart per execution and advance one per point,
            # so a request's id equals its global point index in the frame.
            if request_ids is None:
                request_ids = np.arange(total, dtype=np.int64)
            physical = hook(
                ("addr_striped", level) + sk,
                lambda: gen.addresses(base, level, request_ids).astype(compact),
            )
        else:
            physical = logical
        misses = np.where(served, -1, physical.reshape(-1)).reshape(total, 8)
        out.miss_blocks.append((level, misses))
        out.cache_hits[level] = np.add.reduceat(hits.astype(np.int64), starts)
    return out


def _working_set(stream: np.ndarray) -> np.ndarray:
    """``np.unique(stream)`` — sorted distinct addresses in the stream's
    dtype — from a bitmap instead of a sort.  The bitmap is sized from the
    stream's own maximum: naive-mode addresses can exceed the level's
    storage entries, so the mapping does not bound them."""
    seen = np.zeros(int(stream.max()) + 1 if stream.size else 0, dtype=bool)
    seen[stream] = True
    return np.flatnonzero(seen).astype(stream.dtype)


#: Largest register-cache window priced by shifted comparisons instead of
#: sort-based gaps (cost scales with the window, so huge windows fall
#: back to the gap array).
_SHIFT_WINDOW_MAX = 64


def _composite_keys(stream: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Slice-disjoint keys: each slice's addresses offset into their own
    range, so equal keys mean "same address, same slice"."""
    slice_ids = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes * 8)
    stride = int(stream.max()) + 1
    return slice_ids * stride + stream.astype(np.int64)


def _window_hits(
    stream: np.ndarray, sizes: np.ndarray, window: int
) -> np.ndarray:
    """Register-cache hit mask of every slice in one fused pass.

    An access hits iff its address recurs within the previous ``window``
    accesses of its own slice — i.e. iff any of the ``window`` shifted
    composite-key comparisons matches.  Identical to
    ``previous_occurrence_gaps(...) <= window`` per slice (a previous
    occurrence at distance ``d0 <= window`` matches shift ``d0``; a match
    at shift ``d`` means the nearest occurrence is at most ``d`` away).
    """
    if stream.size == 0:
        return np.zeros(0, dtype=bool)
    keys = _composite_keys(stream, sizes)
    hits = np.zeros(keys.size, dtype=bool)
    for d in range(1, min(window, keys.size - 1) + 1):
        np.logical_or(hits[d:], keys[d:] == keys[:-d], out=hits[d:])
    return hits


def _composite_gaps(stream: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-slice access-distance gaps from one fused call.

    Offsetting each slice's addresses into a disjoint key range keeps
    within-slice index distances exact (the chunks stay contiguous) while
    making a repeat across a slice boundary look like a first occurrence —
    exactly the per-slice :func:`~repro.cim.cache.previous_occurrence_gaps`
    results, concatenated.
    """
    if stream.size == 0:
        return previous_occurrence_gaps(stream)
    return previous_occurrence_gaps(_composite_keys(stream, sizes))


# ----------------------------------------------------------------------
# Pass 2: fused crossbar conflict replay
# ----------------------------------------------------------------------
#: Most issue-group rows one conflict replay receives.  Each int64
#: temporary of the replay is ``rows x 8`` wide, so the cap bounds every
#: temporary at about 8 MB however large the frame or tenant batch.
_BANK_PASS_MAX_ROWS = 1 << 17


def _bank_calls(blocks: Sequence[Tuple]) -> List[List[Tuple]]:
    """Pack ``(sizes, misses)`` blocks, in order, into calls of at most
    :data:`_BANK_PASS_MAX_ROWS` rows.  Only a block above the cap on its
    own is cut, into its slices, so every cut falls on a slice boundary
    (a single slice above the cap is a call of its own)."""
    calls: List[List[Tuple]] = [[]]
    rows = 0
    for sizes, misses in blocks:
        pieces = [(sizes, misses)]
        if len(misses) > _BANK_PASS_MAX_ROWS:
            pieces = zip(
                np.split(sizes, np.arange(1, len(sizes))),
                np.split(misses, np.cumsum(sizes)[:-1]),
            )
        for piece_sizes, piece in pieces:
            if calls[-1] and rows + len(piece) > _BANK_PASS_MAX_ROWS:
                calls.append([])
                rows = 0
            calls[-1].append((piece_sizes, piece))
            rows += len(piece)
    return calls


def _fused_bank_pass(
    executions: Sequence["FrameExecution"],
    pricings: Sequence[_ExecutionPricing],
) -> None:
    """Segmented conflict replays per bank geometry, across every
    execution and level.  Bank outputs depend only on the crossbar row
    count and memory device (never on a level's entry count), so all
    levels — and all tenants sharing an accelerator config — batch into
    :meth:`~repro.cim.memxbar.MemXbarBank.read_cycles_segments` calls of
    at most :data:`_BANK_PASS_MAX_ROWS` rows each (one call when the
    batch fits)."""
    geometries: dict = {}
    for ei, (ex, pricing) in enumerate(zip(executions, pricings)):
        if not pricing.miss_blocks:
            continue
        config = ex.accelerator.config
        key = (config.crossbar.rows, id(config.memory_device))
        bank = ex._encoding_engine.banks[0]
        entry = geometries.setdefault(key, {"bank": bank, "blocks": []})
        for level, misses in pricing.miss_blocks:
            entry["blocks"].append((ei, level, pricing.sizes, misses))
    for entry in geometries.values():
        blocks = entry["blocks"]
        outputs = []
        for call in _bank_calls([(b[2], b[3]) for b in blocks]):
            sizes_all = np.concatenate([piece[0] for piece in call])
            outputs.append(
                entry["bank"].read_cycles_segments(
                    np.concatenate([piece[1] for piece in call], axis=0),
                    np.concatenate([[0], np.cumsum(sizes_all)]),
                )
            )
        cycles, accesses, conflicts, energy = (
            np.concatenate(parts) for parts in zip(*outputs)
        )
        offset = 0
        for ei, level, sizes, _ in blocks:
            n = len(sizes)
            pricings[ei].read_segments[level] = (
                cycles[offset : offset + n],
                accesses[offset : offset + n],
                conflicts[offset : offset + n],
                energy[offset : offset + n],
            )
            offset += n


# ----------------------------------------------------------------------
# Pass 3: per-slice report assembly (scalar arithmetic, step order)
# ----------------------------------------------------------------------
def _assemble_plan(
    ex: "FrameExecution", pricing: _ExecutionPricing
) -> FramePlan:
    """Replicate the per-slice model's arithmetic verbatim over the fused
    pass results, producing the plan's report fragments."""
    from repro.arch.buffers import BufferModel, default_buffers
    from repro.arch.encoding_engine import EncodingReport

    accelerator = ex.accelerator
    config = accelerator.config
    num_levels = accelerator.grid.num_levels
    hybrid = config.mapping_mode == "hybrid"
    # Stall cycles are a pure function of the buffer specs and the
    # wavefront's working set.
    buffers = BufferModel(
        default_buffers("edge" if "edge" in config.name else "server")
    )
    levels = range(num_levels)
    steps: List[PlannedStep] = []
    for si, sl in enumerate(ex._slices):
        p = sl.num_points
        enc = EncodingReport()
        level_read: List[int] = []
        for level in levels:
            seg_cycles, seg_accesses, seg_conflicts, seg_energy = (
                pricing.read_segments[level]
            )
            enc.lookups += p * 8
            enc.cache_hits += int(pricing.cache_hits[level][si])
            enc.temporal_hits += int(pricing.temporal_hits[level][si])
            enc.xbar_accesses += int(seg_accesses[si])
            enc.conflict_cycles += int(seg_conflicts[si])
            enc.xbar_energy_pj += float(seg_energy[si])
            level_read.append(int(seg_cycles[si]))
        # Hybrid mapping gives every level a dedicated crossbar bank, so
        # levels read in parallel; the hash layout interleaves tables
        # across shared crossbars (Section 3 Challenge 3), so they
        # serialise.
        if level_read:
            read_cycles = max(level_read) if hybrid else sum(level_read)
        else:
            read_cycles = 0
        addr_gen_cycles = math.ceil(p * 8 * num_levels / config.address_units)
        # One trilinear interpolation per fusion lane per cycle.
        fusion_cycles = math.ceil(p * num_levels / config.fusion_lanes)
        enc.read_cycles = read_cycles
        enc.cycles = max(addr_gen_cycles, read_cycles, fusion_cycles)

        color_points = ex._slice_color_points[si]
        mlp = accelerator.mlp_engine.process(p, color_points)
        ren = accelerator.render_engine.process(
            composited_points=p,
            interpolated_points=p - color_points,
        )
        stall = buffers.observe_wavefront(
            in_flight_points=ex._slice_in_flight[si],
            levels=num_levels,
            ray_working_points=p,
        )
        steps.append(
            PlannedStep(
                charge=max(enc.cycles, mlp.cycles, ren.cycles) + stall,
                num_points=p,
                encoding=enc,
                mlp=mlp,
                render=ren,
                stall=stall,
                log_key=("wavefront", sl.index, sl.rays.start, sl.rays.stop),
            )
        )
    if ex._evals:
        # The adaptive sampling unit compares candidate renders at the
        # tail of Phase I (it cannot overlap the batches that produce its
        # inputs' final samples).
        ren = accelerator.render_engine.process(0, 0, ex._evals)
        steps.append(
            PlannedStep(
                charge=ren.cycles,
                num_points=0,
                encoding=None,
                mlp=None,
                render=ren,
                stall=0,
                log_key=("adaptive_tail",),
            )
        )
    return FramePlan(
        steps=steps,
        records=pricing.records,
        temporal_token=pricing.temporal_token,
        total_points=ex._total_points,
    )
