"""The two-phase ASDR renderer (Sections 4 and 5.5).

Phase I — *initial computation for adaptive sampling*: a sparse probe grid
of pixels is rendered at the full budget; re-compositing the cached MLP
outputs at each candidate prefix yields the Eq. (3) difficulty, from which
each probe's budget is selected; budgets for the remaining pixels come from
bilinear interpolation.

Phase II — *full image rendering*: every non-probe ray is rendered with its
assigned budget; the color MLP runs only on group anchors and the
approximation unit interpolates the rest (Section 4.3); optional early
termination truncates rays whose accumulated opacity saturates.

Both phases dispatch rays through the shared wavefront scheduler
(:mod:`repro.exec.scheduler`) and record what they execute into a
:class:`~repro.exec.frame_trace.FrameTrace` — per wavefront: ray ids,
sample points, hit masks, post-early-termination used counts and the
anchor/interpolation structure.  The trace rides on the returned
:class:`~repro.core.stats.ASDRRenderResult` so the accelerator simulator
and the profilers replay this render instead of re-deriving it.

Video sequences are rendered by :meth:`ASDRRenderer.render_sequence`,
which adds two temporal-reuse levers on top of the per-frame path:
bit-identical camera poses replay the earlier frame outright, and
non-keyframes skip Phase I entirely, rendering with the previous
keyframe's sampling plan (:meth:`ASDRRenderer.render_with_plan`) — the
profile-guided shortcut temporal coherence buys.

The renderer works with any model exposing the Instant-NGP query interface
(InstantNGP or TensoRF), mirroring Section 6.8.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.approximation import anchor_indices, interpolate_group_colors
from repro.core.config import ASDRConfig
from repro.core.difficulty import select_sample_budgets
from repro.core.reprojection import (
    ReprojectionConfig,
    classify_rays,
    plan_overlap,
    warp_sources,
)
from repro.core.sampling_plan import (
    SamplingPlan,
    interpolate_budgets,
    probe_pixel_indices,
)
from repro.core.stats import ASDRRenderResult
from repro.errors import ConfigurationError
from repro.exec.frame_trace import (
    PHASE_MAIN,
    PHASE_PROBE,
    FrameTrace,
    TraceWavefront,
)
from repro.exec.scheduler import iter_budget_wavefronts, iter_wavefronts
from repro.exec.sequence import SequenceRender, render_camera_path
from repro.metrics.image import psnr
from repro.nerf.rays import sample_along_rays
from repro.nerf.renderer import PhaseCounts
from repro.nerf.volume import composite, early_termination_counts
from repro.scenes.cameras import Camera


def _new_phase_counts() -> Dict[str, PhaseCounts]:
    return {name: PhaseCounts() for name in ("embedding", "density", "color", "volume")}


class ASDRRenderer:
    """Adaptive-sampling, color-decoupled renderer.

    Args:
        model: Radiance field with ``query_density`` / ``query_color``.
        config: Algorithm configuration (see :class:`ASDRConfig`).
        num_samples: Full per-ray budget ``ns`` (paper: 192).
        background: Background intensity.
        batch_rays: Ray batch size bounding peak memory.
    """

    def __init__(
        self,
        model,
        config: Optional[ASDRConfig] = None,
        num_samples: int = 64,
        background: float = 1.0,
        batch_rays: int = 4096,
    ) -> None:
        self.model = model
        self.config = config or ASDRConfig()
        self.num_samples = num_samples
        self.background = background
        self.batch_rays = batch_rays

    # ------------------------------------------------------------------
    # Phase I
    # ------------------------------------------------------------------
    def plan_sampling(self, camera: Camera) -> Tuple[SamplingPlan, np.ndarray, Dict[str, PhaseCounts], int]:
        """Run Phase I and return the sampling plan.

        Returns:
            ``(plan, probe_rgb, phase_counts, probe_points)`` where
            ``probe_rgb`` holds the probes' full-budget colors (reused for
            their pixels so Phase II never re-renders them).
        """
        plan, probe_rgb, counts, probe_points, _ = self._phase1(camera)
        return plan, probe_rgb, counts, probe_points

    def _phase1(
        self, camera: Camera
    ) -> Tuple[SamplingPlan, np.ndarray, Dict[str, PhaseCounts], int, List[TraceWavefront]]:
        """Phase I plus the probe wavefronts it executed (for the trace)."""
        counts = _new_phase_counts()
        n_pixels = camera.height * camera.width
        adaptive = self.config.adaptive
        if adaptive is None:
            budgets = np.full(n_pixels, self.num_samples, dtype=np.int64)
            plan = SamplingPlan(
                budgets=budgets,
                probe_indices=np.empty(0, dtype=np.int64),
                probe_budgets=np.empty(0, dtype=np.int64),
                full_budget=self.num_samples,
            )
            return plan, np.empty((0, 3)), counts, 0, []

        probe_idx, rows, cols = probe_pixel_indices(
            camera.height, camera.width, adaptive.probe_stride
        )
        origins, directions = camera.rays_for_pixels(probe_idx)
        candidates = adaptive.candidate_counts(self.num_samples)

        probe_budgets = np.empty(len(probe_idx), dtype=np.int64)
        probe_rgb = np.empty((len(probe_idx), 3))
        probe_points = 0
        wavefronts: List[TraceWavefront] = []
        for ids in iter_wavefronts(np.arange(len(probe_idx)), self.batch_rays):
            sl = slice(int(ids[0]), int(ids[-1]) + 1)
            sigmas, colors, deltas, hit, points = self._predict(
                origins[sl], directions[sl], self.num_samples, counts
            )
            probe_points += int(hit.sum()) * self.num_samples
            budgets_b, rgb_b = select_sample_budgets(
                sigmas, colors, deltas, candidates, adaptive.threshold, self.background
            )
            # Rays that miss the scene need only the minimum budget.
            budgets_b = np.where(hit, budgets_b, candidates[0])
            probe_budgets[sl] = budgets_b
            probe_rgb[sl] = rgb_b
            # Adaptive-sampling unit work: one subtract/compare per
            # candidate per channel (Eq. 3 hardware of Section 5.4).
            counts["volume"].add(len(budgets_b) * len(candidates) * 6)
            used = np.where(hit, self.num_samples, 0).astype(np.int64)
            wavefronts.append(
                TraceWavefront.from_samples(
                    phase=PHASE_PROBE,
                    budget=self.num_samples,
                    ray_ids=probe_idx[sl],
                    hit=hit,
                    points=points,
                    used=used,
                    color_used=used,
                )
            )

        budgets = interpolate_budgets(
            probe_budgets, rows, cols, camera.height, camera.width
        )
        budgets[probe_idx] = probe_budgets
        plan = SamplingPlan(
            budgets=budgets,
            probe_indices=probe_idx,
            probe_budgets=probe_budgets,
            full_budget=self.num_samples,
            num_candidates=len(candidates),
        )
        return plan, probe_rgb, counts, probe_points, wavefronts

    # ------------------------------------------------------------------
    # Phase II
    # ------------------------------------------------------------------
    def render_image(self, camera: Camera) -> ASDRRenderResult:
        """Render a full image through both ASDR phases."""
        plan, probe_rgb, counts, probe_points, wavefronts = self._phase1(camera)
        n_pixels = camera.height * camera.width
        image = np.zeros((n_pixels, 3))
        sample_counts = np.zeros(n_pixels, dtype=np.int64)

        # Probe pixels were fully rendered in Phase I; reuse their colors.
        rendered = np.zeros(n_pixels, dtype=bool)
        if len(plan.probe_indices):
            image[plan.probe_indices] = probe_rgb
            sample_counts[plan.probe_indices] = self.num_samples
            rendered[plan.probe_indices] = True

        remaining = np.nonzero(~rendered)[0]
        totals = self._render_main(
            camera, plan.budgets, remaining, image, sample_counts, counts, wavefronts
        )
        return self._build_result(
            camera,
            plan,
            image,
            sample_counts,
            counts,
            wavefronts,
            density_points=probe_points + totals[0],
            color_points=probe_points + totals[1],
            interpolated_points=totals[2],
            probe_points=probe_points,
            difficulty_evals=len(plan.probe_indices) * plan.num_candidates,
        )

    def render_with_plan(self, camera: Camera, plan: SamplingPlan) -> ASDRRenderResult:
        """Render a frame steered by a *reused* sampling plan (no Phase I).

        The profile-guided path of sequence rendering: temporal coherence
        makes the previous keyframe's per-pixel budget map a good proxy
        for this frame's difficulty, so probe rendering, difficulty
        evaluation and budget interpolation are all skipped — every pixel
        renders through Phase II at the budget the plan assigns it.  The
        emitted trace records no probe wavefronts and zero difficulty
        evaluations, so the simulator automatically prices the skipped
        Phase I work.
        """
        n_pixels = camera.height * camera.width
        if len(plan.budgets) != n_pixels:
            raise ConfigurationError(
                f"reused plan covers {len(plan.budgets)} pixels, camera has "
                f"{n_pixels}"
            )
        counts = _new_phase_counts()
        image = np.zeros((n_pixels, 3))
        sample_counts = np.zeros(n_pixels, dtype=np.int64)
        wavefronts: List[TraceWavefront] = []
        totals = self._render_main(
            camera,
            plan.budgets,
            np.arange(n_pixels, dtype=np.int64),
            image,
            sample_counts,
            counts,
            wavefronts,
        )
        reused = SamplingPlan(
            budgets=plan.budgets,
            probe_indices=np.empty(0, dtype=np.int64),
            probe_budgets=np.empty(0, dtype=np.int64),
            full_budget=plan.full_budget,
            num_candidates=0,
        )
        return self._build_result(
            camera,
            reused,
            image,
            sample_counts,
            counts,
            wavefronts,
            density_points=totals[0],
            color_points=totals[1],
            interpolated_points=totals[2],
            probe_points=0,
            difficulty_evals=0,
        )

    def render_reprojected(
        self,
        camera: Camera,
        plan: SamplingPlan,
        prev_camera: Camera,
        prev_image: np.ndarray,
        config: ReprojectionConfig,
        accum_sens: Optional[np.ndarray] = None,
    ) -> ASDRRenderResult:
        """Render a plan-reuse frame with forward temporal reprojection.

        The previous rendered frame's delivered pixels are warped along
        the camera delta (:func:`~repro.core.reprojection.warp_sources`)
        and every ray is classified:

        * **converged** — parallax-insensitive warp: the warped pixel is
          reused outright, so the ray appears in *no* wavefront and the
          engines charge it nothing; it is counted in the trace's
          ``reprojected_pixels`` so scan-out still prices its delivery;
        * **refinable** — the warp is plausible but not trusted: the ray
          re-renders at ``refine_fraction`` of its plan budget;
        * **fresh** — disoccluded or out-of-view: full plan budget.

        Classification uses each ray's *accumulated* sensitivity: its
        per-step parallax bound plus ``accum_sens``, the sensitivity the
        ray has carried since it last actually rendered (sub-pixel warps
        reuse the same source pixel, so warp error compounds invisibly
        across chained frames — the accumulator makes the total drift
        the thresholded quantity, bounding chain error by
        ``converged_px``).  The updated accumulator (warped rays carry
        their total, rendered rays reset to zero) is returned under
        ``result.reprojection["accum"]``.

        A sparse validation subset of the converged rays renders anyway;
        the PSNR between their warped and rendered colors is the guard —
        below ``config.min_psnr`` the frame falls back to ordinary plan
        reuse (the validation work already executed stays in the trace),
        so quality never silently regresses.
        """
        n_pixels = camera.height * camera.width
        if len(plan.budgets) != n_pixels:
            raise ConfigurationError(
                f"reused plan covers {len(plan.budgets)} pixels, camera has "
                f"{n_pixels}"
            )
        prev_flat = np.asarray(prev_image, dtype=np.float64).reshape(-1, 3)
        if prev_flat.shape[0] != prev_camera.height * prev_camera.width:
            raise ConfigurationError(
                f"previous image holds {prev_flat.shape[0]} pixels, previous "
                f"camera has {prev_camera.height * prev_camera.width}"
            )
        src_ids, valid, sensitivity = warp_sources(
            camera, prev_camera, depth=config.depth
        )
        if accum_sens is not None:
            if accum_sens.shape != (n_pixels,):
                raise ConfigurationError(
                    f"accum_sens covers {accum_sens.shape} pixels, camera "
                    f"has {n_pixels}"
                )
            sensitivity = sensitivity + accum_sens
        converged_m, refinable_m, _fresh_m = classify_rays(
            sensitivity, valid, config
        )
        converged = np.nonzero(converged_m)[0]
        if config.validation_stride > 0 and len(converged):
            validation = converged[:: config.validation_stride]
        else:
            validation = np.empty(0, dtype=np.int64)
        skipped = np.setdiff1d(converged, validation, assume_unique=True)

        counts = _new_phase_counts()
        image = np.zeros((n_pixels, 3))
        sample_counts = np.zeros(n_pixels, dtype=np.int64)
        wavefronts: List[TraceWavefront] = []
        full_budgets = np.asarray(plan.budgets, dtype=np.int64)
        totals = [0, 0, 0]

        def run(budgets: np.ndarray, ray_ids: np.ndarray) -> None:
            got = self._render_main(
                camera, budgets, ray_ids, image, sample_counts, counts,
                wavefronts,
            )
            for i in range(3):
                totals[i] += got[i]

        # The validation subset renders first, at full plan budget — the
        # guard must measure warp error before any pixel is committed.
        if len(validation):
            run(full_budgets, validation)
        warped = prev_flat[src_ids]
        guard_psnr = float("inf")
        if len(validation):
            guard_psnr = float(psnr(warped[validation], image[validation]))
        fallback = bool(len(converged)) and guard_psnr < config.min_psnr
        if fallback:
            # Guard tripped: warp is untrustworthy this frame.  Everything
            # not yet rendered runs at its plan budget — the frame
            # degenerates to ordinary plan reuse, with the validation
            # wavefronts kept in the trace (their work really ran).
            rest = np.setdiff1d(
                np.arange(n_pixels, dtype=np.int64), validation,
                assume_unique=True,
            )
            run(full_budgets, rest)
            skipped = np.empty(0, dtype=np.int64)
        else:
            refined = full_budgets.copy()
            refinable = np.nonzero(refinable_m)[0]
            refined[refinable] = np.maximum(
                1,
                (refined[refinable] * config.refine_fraction).astype(np.int64),
            )
            remaining = np.nonzero(~converged_m)[0]
            if len(remaining):
                run(refined, remaining)
            image[skipped] = warped[skipped]
            sample_counts[skipped] = 0

        new_accum = np.zeros(n_pixels)
        if len(skipped):
            new_accum[skipped] = sensitivity[skipped]

        reused = SamplingPlan(
            budgets=plan.budgets,
            probe_indices=np.empty(0, dtype=np.int64),
            probe_budgets=np.empty(0, dtype=np.int64),
            full_budget=plan.full_budget,
            num_candidates=0,
        )
        return self._build_result(
            camera,
            reused,
            image,
            sample_counts,
            counts,
            wavefronts,
            density_points=totals[0],
            color_points=totals[1],
            interpolated_points=totals[2],
            probe_points=0,
            difficulty_evals=0,
            reprojected_pixels=int(len(skipped)),
            reprojection={
                "converged": int(converged_m.sum()),
                "refinable": int(refinable_m.sum()),
                "fresh": int(_fresh_m.sum()),
                "validated": int(len(validation)),
                "reprojected": int(len(skipped)),
                "psnr": guard_psnr,
                "fallback": fallback,
                "accum": new_accum,
            },
        )

    def render_sequence(
        self,
        cameras: Sequence[Camera],
        probe_interval: int = 1,
        reuse_poses: bool = True,
        path_key: Tuple = (),
        reproject: Optional[ReprojectionConfig] = None,
        adaptive_overlap: Optional[float] = None,
    ) -> SequenceRender:
        """Render a camera path with cross-frame temporal reuse.

        Four reuse levers run on top of the per-frame pipeline:

        * **pose replay** — a camera whose pose/intrinsics are
          bit-identical to an earlier frame's replays that frame's result
          (images and counts match exactly by construction);
        * **plan reuse** — Phase I runs only on keyframes (every
          ``probe_interval``-th rendered frame; ``0`` means the first
          frame only); the frames between render with the last keyframe's
          budget map via :meth:`render_with_plan`;
        * **temporal reprojection** (``reproject``) — non-keyframes warp
          the previous rendered frame's pixels along the camera delta and
          skip converged rays entirely (:meth:`render_reprojected`),
          PSNR-guarded;
        * **adaptive keyframing** (``adaptive_overlap``) — the fixed
          ``probe_interval`` cadence is replaced by an online staleness
          measurement: Phase I re-probes only when the measured
          plan/keyframe ray-budget overlap
          (:func:`~repro.core.reprojection.plan_overlap`) drops below the
          threshold.

        Args:
            cameras: The path's cameras (e.g.
                :meth:`repro.scenes.cameras.CameraPath.cameras`).
            probe_interval: Phase I cadence; ``1`` re-probes every frame
                (plan reuse off), ``0`` probes the first frame only.
            reuse_poses: Disable to force every frame to render fresh.
            path_key: Identity recorded on the
                :class:`~repro.exec.sequence.SequenceTrace`.
            reproject: Arm temporal reprojection for non-keyframes.
            adaptive_overlap: Overlap threshold in ``(0, 1]``; when set,
                the fixed cadence is ignored and re-probing is driven by
                the measured overlap (recorded per frame on
                ``result.reprojection["overlap"]``).
        """
        if probe_interval < 0:
            raise ConfigurationError("probe_interval must be >= 0")
        if adaptive_overlap is not None and not 0.0 < adaptive_overlap <= 1.0:
            raise ConfigurationError(
                f"adaptive_overlap must be in (0, 1], got {adaptive_overlap}"
            )
        # Pose replay lives in the shared driver; this closure only
        # decides, per freshly rendered frame, whether Phase I runs and
        # whether Phase II reprojects.
        state: Dict[str, object] = {
            "plan": None,
            "since": 0,
            "keyframe_camera": None,
            "prev_camera": None,
            "prev_image": None,
            "accum": None,
        }
        planned_fresh: List[bool] = []

        def render_fn(camera: Camera) -> ASDRRenderResult:
            plan: Optional[SamplingPlan] = state["plan"]
            overlap: Optional[float] = None
            if plan is None or len(plan.budgets) != camera.height * camera.width:
                fresh = True
            elif adaptive_overlap is not None:
                overlap = plan_overlap(
                    camera,
                    state["keyframe_camera"],
                    plan.budgets,
                    depth=reproject.depth if reproject is not None else None,
                )
                fresh = overlap < adaptive_overlap
            else:
                fresh = probe_interval > 0 and state["since"] >= probe_interval
            if fresh:
                result = self.render_image(camera)
                state["plan"] = result.plan
                state["keyframe_camera"] = camera
                state["since"] = 1
                state["accum"] = None
            else:
                if reproject is not None and state["prev_image"] is not None:
                    result = self.render_reprojected(
                        camera,
                        plan,
                        state["prev_camera"],
                        state["prev_image"],
                        reproject,
                        accum_sens=state["accum"],
                    )
                    info = dict(result.reprojection)
                    state["accum"] = info.pop("accum")
                    result.reprojection = info
                else:
                    result = self.render_with_plan(camera, plan)
                    state["accum"] = None
                state["since"] += 1
            if overlap is not None:
                info = dict(result.reprojection or {})
                info["overlap"] = overlap
                result.reprojection = info
            state["prev_camera"] = camera
            state["prev_image"] = result.image
            planned_fresh.append(fresh)
            return result

        outcome = render_camera_path(
            render_fn,
            cameras,
            path_key=path_key,
            kind="asdr",
            reuse_poses=reuse_poses,
        )
        fresh_flags = iter(planned_fresh)
        outcome.trace.planned = [
            False if source is not None else next(fresh_flags)
            for source in outcome.trace.replays
        ]
        return outcome

    # ------------------------------------------------------------------
    def _render_main(
        self,
        camera: Camera,
        budgets: np.ndarray,
        ray_ids: np.ndarray,
        image: np.ndarray,
        sample_counts: np.ndarray,
        counts: Dict[str, PhaseCounts],
        wavefronts: List[TraceWavefront],
    ) -> Tuple[int, int, int]:
        """Run Phase II over ``ray_ids`` at their budgets, accumulating
        into the frame buffers; returns
        ``(density, color, interpolated)`` point totals."""
        density_points = color_points = interpolated_points = 0
        for budget, ids in iter_budget_wavefronts(
            budgets[ray_ids], self.batch_rays, ray_ids=ray_ids
        ):
            rgb, used, color_used, points, hit, evals = self._render_group(
                camera, ids, budget, counts
            )
            image[ids] = rgb
            sample_counts[ids] = used
            density_points += evals[0]
            color_points += evals[1]
            interpolated_points += evals[2]
            wavefronts.append(
                TraceWavefront.from_samples(
                    phase=PHASE_MAIN,
                    budget=budget,
                    ray_ids=ids,
                    hit=hit,
                    points=points,
                    used=used,
                    color_used=color_used,
                )
            )
        return density_points, color_points, interpolated_points

    def _build_result(
        self,
        camera: Camera,
        plan: SamplingPlan,
        image: np.ndarray,
        sample_counts: np.ndarray,
        counts: Dict[str, PhaseCounts],
        wavefronts: List[TraceWavefront],
        density_points: int,
        color_points: int,
        interpolated_points: int,
        probe_points: int,
        difficulty_evals: int,
        reprojected_pixels: int = 0,
        reprojection: Optional[Dict[str, object]] = None,
    ) -> ASDRRenderResult:
        n_pixels = camera.height * camera.width
        approx = self.config.approximation
        trace = FrameTrace(
            num_pixels=n_pixels,
            full_budget=self.num_samples,
            kind="asdr",
            group_size=approx.group_size if approx is not None and approx.enabled else 1,
            difficulty_evals=difficulty_evals,
            wavefronts=wavefronts,
            reprojected_pixels=reprojected_pixels,
        )
        return ASDRRenderResult(
            image=image.reshape(camera.height, camera.width, 3),
            plan=plan,
            num_rays=n_pixels,
            density_points=density_points,
            color_points=color_points,
            interpolated_points=interpolated_points,
            probe_points=probe_points,
            phase_counts=counts,
            sample_counts=sample_counts,
            trace=trace,
            reprojection=reprojection,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _predict(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        num_samples: int,
        counts: Dict[str, PhaseCounts],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Full (density + color) prediction used by Phase I probes."""
        points, deltas, hit = sample_along_rays(origins, directions, num_samples)
        flat = points.reshape(-1, 3)
        dirs_rep = np.repeat(directions, num_samples, axis=0)
        sigma, geo = self.model.query_density(flat)
        rgb = self.model.query_color(geo, dirs_rep)
        r = origins.shape[0]
        sigmas = sigma.reshape(r, num_samples) * hit[:, None]
        colors = rgb.reshape(r, num_samples, 3)
        n_points = int(hit.sum()) * num_samples
        self._charge(counts, n_points, n_points)
        counts["volume"].add(n_points * 10)
        return sigmas, colors, deltas, hit, points

    def _render_group(
        self,
        camera: Camera,
        ray_ids: np.ndarray,
        budget: int,
        counts: Dict[str, PhaseCounts],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, Tuple[int, int, int]]:
        """Render one wavefront of rays sharing a sample budget.

        Returns:
            ``(rgb, used, color_used, points, hit,
            (density_evals, color_evals, interpolated))``.
        """
        origins, directions = camera.rays_for_pixels(ray_ids)
        points, deltas, hit = sample_along_rays(origins, directions, budget)
        r = len(ray_ids)
        t_vals = np.cumsum(deltas, axis=-1)

        flat = points.reshape(-1, 3)
        sigma, geo = self.model.query_density(flat)
        sigmas = sigma.reshape(r, budget) * hit[:, None]
        geo = geo.reshape(r, budget, -1)

        used = np.full(r, budget, dtype=np.int64)
        if self.config.early_termination is not None:
            used = early_termination_counts(sigmas, deltas, self.config.early_termination)
            mask = np.arange(budget)[None, :] < used[:, None]
            sigmas = sigmas * mask
        used = used * hit

        # Hardware marches rays incrementally, so early termination saves
        # MLP work even though this vectorised implementation evaluates the
        # full budget; operation accounting therefore uses ``used``.
        approx = self.config.approximation
        if approx is not None and approx.enabled and budget > approx.group_size:
            anchors = anchor_indices(budget, approx.group_size)
            anchor_geo = geo[:, anchors, :].reshape(-1, geo.shape[-1])
            anchor_dirs = np.repeat(directions, len(anchors), axis=0)
            anchor_rgb = self.model.query_color(anchor_geo, anchor_dirs)
            anchor_rgb = anchor_rgb.reshape(r, len(anchors), 3)
            colors = interpolate_group_colors(anchor_rgb, anchors, t_vals)
            # Anchors at or beyond a ray's termination point never run.
            color_used = np.searchsorted(anchors, used, side="left").astype(np.int64)
            color_evals = int(color_used.sum())
            interpolated = int(used.sum()) - color_evals
            # Approximation unit: one lerp (4 FLOPs x 3 channels) per
            # interpolated point.
            counts["volume"].add(interpolated * 12)
        else:
            dirs_rep = np.repeat(directions, budget, axis=0)
            colors = self.model.query_color(
                geo.reshape(-1, geo.shape[-1]), dirs_rep
            ).reshape(r, budget, 3)
            color_used = used.copy()
            color_evals = int(used.sum())
            interpolated = 0

        density_evals = int(used.sum())
        self._charge(counts, density_evals, color_evals)
        counts["volume"].add(density_evals * 10)
        rgb, _ = composite(sigmas, colors, deltas, self.background)
        return rgb, used, color_used, points, hit, (density_evals, color_evals, interpolated)

    def _charge(
        self, counts: Dict[str, PhaseCounts], density_points: int, color_points: int
    ) -> None:
        m = self.model
        counts["embedding"].add(
            density_points * m.flops_embedding_per_point(),
            density_points * m.bytes_embedding_per_point(),
        )
        counts["density"].add(density_points * m.flops_density_per_point())
        counts["color"].add(color_points * m.flops_color_per_point())
