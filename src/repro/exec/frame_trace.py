"""The FrameTrace IR: one frame's execution, captured once, replayed many times.

A :class:`FrameTrace` records what the renderer *actually executed* for one
frame, wavefront by wavefront: which rays ran at which budget, where their
sample points lie, which rays hit the scene, how many samples each ray
really marched (after early termination) and how many of those ran the
color MLP (the anchor/interpolation structure of Section 4.3).

Downstream consumers replay the trace instead of re-deriving the frame:

* :meth:`repro.arch.accelerator.ASDRAccelerator.simulate_trace` charges the
  engines exactly the points the renderer produced — early termination and
  per-ray anchor counts are reflected in simulated cycles;
* :func:`repro.arch.trace.encoding_corner_stream` replays the voxel-vertex
  stream of the encoding engine;
* the locality profilers (:func:`repro.arch.trace.repetition_profile`,
  :func:`repro.arch.trace.hash_address_trace`) read sample positions
  straight from the trace.

Voxel-corner generation is memoised per wavefront and grid resolution (the
integer base coordinate is stored compactly; the eight corner offsets are
re-broadcast on demand), so repeated simulations of one render — the
fig17/fig18/fig19 experiment trio simulates the same frame three times —
pay for corner derivation once.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.exec.scheduler import budget_groups
from repro.nerf.hashgrid import CORNER_OFFSETS, voxel_floor
from repro.nerf.rays import sample_along_rays

#: Phase tags of a wavefront: Phase I probe rendering vs Phase II image.
PHASE_PROBE = "probe"
PHASE_MAIN = "main"

#: Per-trace ceiling on memoised voxel-base values (3 ints per point per
#: resolution).  Keeps a long-lived workbench full of memoised traces from
#: hoarding memory; beyond the cap corners are derived on the fly.
CORNER_CACHE_MAX_VALUES = 2**22

#: Per-trace ceiling on stream-derived memo values (:meth:`FrameTrace.memo`).
MEMO_CACHE_MAX_VALUES = 2**24


@dataclass
class TraceWavefront:
    """One wavefront of rays sharing a sample budget.

    Attributes:
        phase: :data:`PHASE_PROBE` (Phase I) or :data:`PHASE_MAIN`.
        budget: Nominal per-ray sample budget of the wavefront.
        ray_ids: ``(R,)`` flat pixel indices.
        hit: ``(R,)`` scene-intersection mask.
        used: ``(R,)`` samples actually marched per ray — 0 for misses,
            post-early-termination counts otherwise.
        color_used: ``(R,)`` samples whose color MLP ran (anchors under
            decoupling; equals ``used`` without it).
        points: ``(P, 3)`` active sample positions in ray-major order,
            where ``P == used.sum()`` (ray ``r`` contributes its first
            ``used[r]`` samples).
    """

    phase: str
    budget: int
    ray_ids: np.ndarray
    hit: np.ndarray
    used: np.ndarray
    color_used: np.ndarray
    points: np.ndarray = field(repr=False)
    _offsets: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        total = int(self.used.sum())
        if self.points.shape != (total, 3):
            raise SimulationError(
                f"wavefront points shape {self.points.shape} does not match "
                f"used counts (expected ({total}, 3))"
            )
        if not (
            len(self.ray_ids) == len(self.hit) == len(self.used) == len(self.color_used)
        ):
            raise SimulationError("wavefront per-ray arrays must share one length")

    @classmethod
    def from_samples(
        cls,
        phase: str,
        budget: int,
        ray_ids: np.ndarray,
        hit: np.ndarray,
        points: np.ndarray,
        used: np.ndarray,
        color_used: np.ndarray,
    ) -> "TraceWavefront":
        """Build a wavefront from full ``(R, budget, 3)`` sample positions,
        keeping only each ray's first ``used[r]`` (marched) samples."""
        used = np.asarray(used, dtype=np.int64)
        mask = np.arange(budget)[None, :] < used[:, None]
        return cls(
            phase=phase,
            budget=int(budget),
            ray_ids=np.asarray(ray_ids, dtype=np.int64),
            hit=np.asarray(hit, dtype=bool),
            used=used,
            color_used=np.asarray(color_used, dtype=np.int64),
            points=points[mask],
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form (schema pinned by the golden test)."""
        return {
            "phase": self.phase,
            "budget": int(self.budget),
            "ray_ids": self.ray_ids.tolist(),
            "hit": self.hit.tolist(),
            "used": self.used.tolist(),
            "color_used": self.color_used.tolist(),
            "points": np.asarray(self.points, dtype=np.float64).tolist(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TraceWavefront":
        return cls(
            phase=data["phase"],
            budget=int(data["budget"]),
            ray_ids=np.asarray(data["ray_ids"], dtype=np.int64),
            hit=np.asarray(data["hit"], dtype=bool),
            used=np.asarray(data["used"], dtype=np.int64),
            color_used=np.asarray(data["color_used"], dtype=np.int64),
            # One flat pass over the rows: about 2x faster than letting
            # numpy discover the nested-list shape.
            points=np.fromiter(
                itertools.chain.from_iterable(data["points"]), np.float64
            ).reshape(-1, 3),
        )

    # ------------------------------------------------------------------
    @property
    def num_rays(self) -> int:
        return len(self.ray_ids)

    @property
    def num_points(self) -> int:
        return int(self.used.sum())

    @property
    def offsets(self) -> np.ndarray:
        """``(R+1,)`` prefix sums of ``used`` — ray ``r`` owns points
        ``offsets[r]:offsets[r+1]``."""
        if self._offsets is None:
            self._offsets = np.concatenate(
                [[0], np.cumsum(self.used, dtype=np.int64)]
            )
        return self._offsets

    def point_ray(self, rays: Optional[slice] = None) -> np.ndarray:
        """Ray index of each active point (for locality studies)."""
        if rays is None:
            return np.repeat(self.ray_ids, self.used)
        return np.repeat(self.ray_ids[rays], self.used[rays])


@dataclass(frozen=True)
class WavefrontSlice:
    """A consumer-sized chunk of one trace wavefront.

    Consumers batch rays at their own width (the renderer at
    ``batch_rays``, the simulator at ``ArchConfig.wavefront_rays``), so a
    trace wavefront is re-chunked on replay; a slice addresses a contiguous
    ray range and the matching active-point range.
    """

    trace: "FrameTrace"
    index: int
    rays: slice
    points: slice

    @property
    def wavefront(self) -> TraceWavefront:
        return self.trace.wavefronts[self.index]

    @property
    def num_points(self) -> int:
        return self.points.stop - self.points.start

    @property
    def used(self) -> np.ndarray:
        return self.wavefront.used[self.rays]

    def point_ray(self) -> np.ndarray:
        return self.wavefront.point_ray(self.rays)

    def sample_points(self) -> np.ndarray:
        return self.wavefront.points[self.points]

    def corners(self, resolution: int) -> np.ndarray:
        """``(P, 8, 3)`` voxel-vertex coordinates at ``resolution``."""
        return self.trace.corners(self.index, self.points, resolution)


@dataclass
class FrameTrace:
    """Execution trace of one rendered frame.

    Attributes:
        num_pixels: Rays in the frame (``H * W``).
        full_budget: The un-optimised fixed budget ``ns``.
        kind: ``"asdr"`` (two-phase render), ``"baseline"`` (fixed budget)
            or ``"budgets"`` (synthesised from a budget map, see
            :meth:`from_budgets`).
        group_size: Renderer's color-decoupling group size (1 = disabled).
        difficulty_evals: Eq. (3) candidate comparisons of Phase I.
        wavefronts: Execution order: probe wavefronts first, then main.
        reprojected_pixels: Pixels delivered by temporal reprojection —
            warped from the previous frame instead of marched, so they
            appear in no wavefront yet still cross the scan-out bus.
            Zero for ordinary (non-reprojected) frames.
    """

    num_pixels: int
    full_budget: int
    kind: str = "baseline"
    group_size: int = 1
    difficulty_evals: int = 0
    wavefronts: List[TraceWavefront] = field(default_factory=list)
    reprojected_pixels: int = 0
    _corner_cache: Dict[Tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _corner_cache_values: int = field(default=0, init=False, repr=False, compare=False)
    _memo_cache: Dict[Tuple, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Read-only per-(config, pricing) frame setup shared by every
    # FrameExecution over this trace — see FrameExecution.__init__.
    _setup_cache: Dict[Tuple, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _memo_seen: set = field(default_factory=set, init=False, repr=False, compare=False)
    _memo_values: int = field(default=0, init=False, repr=False, compare=False)
    _ray_index: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _content_digest: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )
    _rendered_pixels: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_budgets(cls, camera, budgets: np.ndarray) -> "FrameTrace":
        """Synthesise a trace from a per-pixel budget map.

        This is the compatibility path for consumers that only have
        ``(camera, budgets)`` — rays are traced and sampled here, once,
        through the shared scheduler; every ray is assumed fully marched
        (no early termination) with full color evaluation.
        """
        budgets = np.asarray(budgets, dtype=np.int64)
        wavefronts: List[TraceWavefront] = []
        for budget, ids in budget_groups(budgets):
            origins, directions = camera.rays_for_pixels(ids)
            points, _, hit = sample_along_rays(origins, directions, budget)
            used = np.where(hit, budget, 0).astype(np.int64)
            wavefronts.append(
                TraceWavefront(
                    phase=PHASE_MAIN,
                    budget=budget,
                    ray_ids=ids,
                    hit=hit,
                    used=used,
                    color_used=used.copy(),
                    points=points[hit].reshape(-1, 3),
                )
            )
        full = int(budgets.max()) if budgets.size else 0
        return cls(
            num_pixels=len(budgets),
            full_budget=full,
            kind="budgets",
            wavefronts=wavefronts,
        )

    def with_budget_cap(self, fraction: float) -> "FrameTrace":
        """A reduced-sampling copy of this trace for degraded serving.

        Every marched ray keeps its first ``max(1, floor(used * fraction))``
        samples (misses stay at zero); ``color_used`` is clamped to the new
        march depth and the ray-major ``points`` stream is masked to
        match, so the copy prices through the ordinary engines with no
        special-casing.  Ray coverage is untouched — every pixel the full
        trace rendered is still rendered (at least one sample), so
        :attr:`rendered_pixels` and therefore scan-out bus cost are
        identical; only the compute/bandwidth *per ray* shrinks.  The
        copy shares no caches with the original.
        """
        if not 0.0 < fraction < 1.0:
            raise SimulationError(
                f"budget-cap fraction must be in (0, 1), got {fraction}"
            )
        capped: List[TraceWavefront] = []
        for wf in self.wavefronts:
            new_used = np.where(
                wf.used > 0,
                np.maximum(1, (wf.used * fraction).astype(np.int64)),
                0,
            ).astype(np.int64)
            if wf.num_points:
                starts = wf.offsets[:-1]
                within = np.arange(wf.num_points, dtype=np.int64) - np.repeat(
                    starts, wf.used
                )
                points = wf.points[within < np.repeat(new_used, wf.used)]
            else:
                points = wf.points
            capped.append(
                TraceWavefront(
                    phase=wf.phase,
                    budget=wf.budget,
                    ray_ids=wf.ray_ids,
                    hit=wf.hit,
                    used=new_used,
                    color_used=np.minimum(wf.color_used, new_used),
                    points=points,
                )
            )
        return FrameTrace(
            num_pixels=self.num_pixels,
            full_budget=self.full_budget,
            kind=self.kind,
            group_size=self.group_size,
            difficulty_evals=self.difficulty_evals,
            wavefronts=capped,
            reprojected_pixels=self.reprojected_pixels,
        )

    def with_reprojection(self, skip_mask: np.ndarray) -> "FrameTrace":
        """A temporally-reprojected copy of this trace.

        Rays flagged in ``skip_mask`` (a ``(num_pixels,)`` boolean map)
        are dropped from every wavefront: their pixels are delivered by
        warping the previous frame's scan-out instead of being marched,
        so they skip encoding **and** MLP work entirely and cost scan-out
        only.  Dropped rays the full trace actually rendered are counted
        in :attr:`reprojected_pixels`, keeping :attr:`rendered_pixels` —
        and therefore scan-out bus cost — identical to the full trace;
        only the per-ray compute disappears.  The copy shares no caches
        with the original and prices through the ordinary pricing (and
        the per-slice reference) with no special-casing, which is what
        keeps reprojected frames inside the bit-identity envelope.
        """
        skip_mask = np.asarray(skip_mask, dtype=bool)
        if skip_mask.shape != (self.num_pixels,):
            raise SimulationError(
                f"reprojection skip mask shape {skip_mask.shape} does not "
                f"match the frame ({self.num_pixels} pixels)"
            )
        reprojected = int(self.reprojected_pixels)
        kept: List[TraceWavefront] = []
        for wf in self.wavefronts:
            keep = ~skip_mask[wf.ray_ids]
            reprojected += int((wf.used[~keep] > 0).sum())
            if not keep.any():
                continue
            if wf.num_points:
                points = wf.points[np.repeat(keep, wf.used)]
            else:
                points = wf.points
            kept.append(
                TraceWavefront(
                    phase=wf.phase,
                    budget=wf.budget,
                    ray_ids=wf.ray_ids[keep],
                    hit=wf.hit[keep],
                    used=wf.used[keep],
                    color_used=wf.color_used[keep],
                    points=points,
                )
            )
        return FrameTrace(
            num_pixels=self.num_pixels,
            full_budget=self.full_budget,
            kind=self.kind,
            group_size=self.group_size,
            difficulty_evals=self.difficulty_evals,
            wavefronts=kept,
            reprojected_pixels=reprojected,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form (schema pinned by the golden test).

        The reprojection record is emitted only when present, so
        ordinary frames serialise byte-identically to the pre-reprojection
        schema the golden file pins.
        """
        out = {
            "num_pixels": int(self.num_pixels),
            "full_budget": int(self.full_budget),
            "kind": self.kind,
            "group_size": int(self.group_size),
            "difficulty_evals": int(self.difficulty_evals),
            "wavefronts": [wf.to_dict() for wf in self.wavefronts],
        }
        if self.reprojected_pixels:
            out["reprojected_pixels"] = int(self.reprojected_pixels)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FrameTrace":
        """Rebuild a trace from :meth:`to_dict` output (fresh caches)."""
        return cls(
            num_pixels=int(data["num_pixels"]),
            full_budget=int(data["full_budget"]),
            kind=data["kind"],
            group_size=int(data["group_size"]),
            difficulty_evals=int(data["difficulty_evals"]),
            wavefronts=[TraceWavefront.from_dict(w) for w in data["wavefronts"]],
            reprojected_pixels=int(data.get("reprojected_pixels", 0)),
        )

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def _phase_sum(self, attr: str, phase: Optional[str] = None) -> int:
        return int(
            sum(
                getattr(wf, attr).sum()
                for wf in self.wavefronts
                if phase is None or wf.phase == phase
            )
        )

    @property
    def density_points(self) -> int:
        """Sample points whose density MLP ran (both phases)."""
        return self._phase_sum("used")

    @property
    def color_points(self) -> int:
        """Sample points whose color MLP ran (both phases)."""
        return self._phase_sum("color_used")

    @property
    def interpolated_points(self) -> int:
        """Points whose color the approximation unit interpolated."""
        return self.density_points - self.color_points

    @property
    def probe_points(self) -> int:
        """Phase I sample points (subset of :attr:`density_points`)."""
        return self._phase_sum("used", PHASE_PROBE)

    @property
    def rendered_pixels(self) -> int:
        """Pixels the frame delivers over the scan-out bus: rays that
        marched at least one sample plus pixels filled by temporal
        reprojection (warped pixels are scanned out like any other).
        Computed once and cached on the instance, like
        :meth:`content_digest` (the serving scheduler reads it on every
        scan-out estimate)."""
        if self._rendered_pixels is None:
            marched = int(sum((wf.used > 0).sum() for wf in self.wavefronts))
            self._rendered_pixels = marched + int(self.reprojected_pixels)
        return self._rendered_pixels

    @property
    def is_uniform(self) -> bool:
        """True when every ray ran the full budget (no adaptive sampling,
        no early termination) — the regime the locality profilers study."""
        return all(
            wf.budget == self.full_budget
            and np.array_equal(wf.used, np.where(wf.hit, wf.budget, 0))
            for wf in self.wavefronts
        )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def split(self, wavefront_rays: int) -> Iterator[WavefrontSlice]:
        """Re-chunk the trace into consumer-sized wavefront slices."""
        for index, wf in enumerate(self.wavefronts):
            offsets = wf.offsets
            for start in range(0, wf.num_rays, wavefront_rays):
                stop = min(start + wavefront_rays, wf.num_rays)
                yield WavefrontSlice(
                    trace=self,
                    index=index,
                    rays=slice(start, stop),
                    points=slice(int(offsets[start]), int(offsets[stop])),
                )

    def voxel_base(self, index: int, resolution: int) -> np.ndarray:
        """``(P, 3)`` integer voxel-base coordinates of wavefront ``index``
        at ``resolution`` (memoised; the expensive float->int conversion of
        corner generation happens once per wavefront and resolution)."""
        key = (index, int(resolution))
        cached = self._corner_cache.get(key)
        if cached is not None:
            return cached
        base = voxel_floor(self.wavefronts[index].points * resolution, resolution)
        if self._corner_cache_values + base.size <= CORNER_CACHE_MAX_VALUES:
            dtype = np.int16 if resolution < 2**15 else np.int32
            self._corner_cache[key] = base.astype(dtype)
            self._corner_cache_values += base.size
            return self._corner_cache[key]
        return base

    def corners(self, index: int, points: slice, resolution: int) -> np.ndarray:
        """``(P, 8, 3)`` voxel-vertex coordinates for a point range of one
        wavefront — identical to
        :meth:`repro.nerf.hashgrid.HashGridEncoder.voxel_vertices` corners,
        without recomputing trilinear weights the consumers discard."""
        base = self.voxel_base(index, resolution)[points].astype(np.int64)
        return base[:, None, :] + CORNER_OFFSETS[None, :, :]

    def content_digest(self) -> bytes:
        """Stable digest of the trace *content* — everything pricing can
        depend on (structure fields plus every wavefront's arrays).

        Two traces with equal digests price identically on any
        accelerator, so consumers that cache per-trace results across
        object lifetimes (the serving layer's plan and scan-out caches)
        key by this digest instead of ``id()``: a recycled object address
        can never alias a different trace's cached prices, and twin
        tenants whose traces are distinct objects with equal content
        share entries.  Computed once and cached on the instance (traces
        are immutable once recorded).
        """
        if self._content_digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(
                repr(
                    (
                        self.num_pixels,
                        self.full_budget,
                        self.kind,
                        self.group_size,
                        self.difficulty_evals,
                        self.reprojected_pixels,
                        len(self.wavefronts),
                    )
                ).encode()
            )
            for wf in self.wavefronts:
                h.update(repr((wf.phase, wf.budget)).encode())
                h.update(np.ascontiguousarray(wf.ray_ids, np.int64).tobytes())
                h.update(np.ascontiguousarray(wf.hit, bool).tobytes())
                h.update(np.ascontiguousarray(wf.used, np.int64).tobytes())
                h.update(
                    np.ascontiguousarray(wf.color_used, np.int64).tobytes()
                )
                h.update(
                    np.ascontiguousarray(wf.points, np.float64).tobytes()
                )
            self._content_digest = h.digest()
        return self._content_digest

    def memo(self, key: Tuple, compute) -> np.ndarray:
        """Memoise a stream-derived array under ``key`` (bounded).

        Entries are cached on their *second* request: a trace that is
        simulated once (e.g. a sweep design point) only pays a key-set
        entry, while traces replayed repeatedly — the fig17/18/19 trio, or
        a cache-size sweep re-simulating one frame — keep the derived
        streams (register-cache access distances, …) alive across calls.
        """
        cached = self._memo_cache.get(key)
        if cached is not None:
            return cached
        value = compute()
        if (
            key in self._memo_seen
            and self._memo_values + value.size <= MEMO_CACHE_MAX_VALUES
        ):
            self._memo_cache[key] = value
            self._memo_values += value.size
        else:
            self._memo_seen.add(key)
        return value

    def memo_hook(self, prefix: Tuple):
        """A ``(key, compute)`` hook scoped to ``prefix``, handed to the
        frame pricer (:mod:`repro.exec.batch`)."""
        return lambda key, compute: self.memo(prefix + key, compute)

    # ------------------------------------------------------------------
    # Profiler access
    # ------------------------------------------------------------------
    def hit_mask(self) -> np.ndarray:
        """``(num_pixels,)`` scene-hit mask (False for uncovered rays)."""
        mask = np.zeros(self.num_pixels, dtype=bool)
        for wf in self.wavefronts:
            mask[wf.ray_ids] = wf.hit
        return mask

    def _build_ray_index(self) -> np.ndarray:
        index = np.full((self.num_pixels, 2), -1, dtype=np.int64)
        for w, wf in enumerate(self.wavefronts):
            if wf.phase == PHASE_PROBE:
                continue  # probe rays re-appear in no main wavefront
            index[wf.ray_ids, 0] = w
            index[wf.ray_ids, 1] = np.arange(wf.num_rays)
        # Probe rays fill remaining slots (Phase I fully rendered them).
        for w, wf in enumerate(self.wavefronts):
            if wf.phase != PHASE_PROBE:
                continue
            vacant = index[wf.ray_ids, 0] < 0
            index[wf.ray_ids[vacant], 0] = w
            index[wf.ray_ids[vacant], 1] = np.arange(wf.num_rays)[vacant]
        return index

    def gather_points(self, ray_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Full per-ray sample positions for fully-marched rays.

        Returns:
            ``(points, hit)`` with shapes ``(len(ray_ids), N, 3)`` and
            ``(len(ray_ids),)`` where ``N`` is each ray's budget (must be
            uniform across the requested rays).  Missed rays return zeros
            with ``hit=False``.

        Raises:
            SimulationError: If a ray is absent from the trace or was only
                partially marched (early-terminated rays cannot be replayed
                as full-budget geometry).
        """
        if self._ray_index is None:
            self._ray_index = self._build_ray_index()
        budgets = set()
        rows = []
        for rid in np.asarray(ray_ids, dtype=np.int64):
            w = int(self._ray_index[rid, 0])
            if w < 0:
                raise SimulationError(f"ray {rid} is not covered by this trace")
            rows.append((w, int(self._ray_index[rid, 1])))
            budgets.add(self.wavefronts[w].budget)
        if len(budgets) > 1:
            raise SimulationError(
                f"requested rays span multiple budgets: {sorted(budgets)}"
            )
        budget = budgets.pop() if budgets else 0
        out = np.zeros((len(rows), budget, 3))
        hit = np.zeros(len(rows), dtype=bool)
        for i, (w, row) in enumerate(rows):
            wf = self.wavefronts[w]
            if not wf.hit[row]:
                continue
            if wf.used[row] != wf.budget:
                raise SimulationError(
                    f"ray {wf.ray_ids[row]} marched {wf.used[row]} of "
                    f"{wf.budget} samples; full geometry is unavailable"
                )
            start = int(wf.offsets[row])
            out[i] = wf.points[start : start + budget]
            hit[i] = True
        return out, hit

    def active_points(self, limit: Optional[int] = None) -> np.ndarray:
        """Concatenated ``(P, 3)`` active sample positions in render order."""
        chunks: List[np.ndarray] = []
        total = 0
        for wf in self.wavefronts:
            chunks.append(wf.points)
            total += wf.points.shape[0]
            if limit is not None and total >= limit:
                break
        if not chunks:
            return np.empty((0, 3))
        flat = np.concatenate(chunks, axis=0)
        return flat[:limit] if limit is not None else flat
