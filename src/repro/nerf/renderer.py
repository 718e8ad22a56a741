"""Baseline (Instant-NGP style) renderer with operation accounting.

Renders images with a *fixed* per-ray sample budget — the red path of
Figure 1 — and records the FLOP and memory-traffic statistics that drive
the Figure 5 breakdown and the roofline baselines.  The ASDR renderer in
:mod:`repro.core.pipeline` reuses the same primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.nerf.rays import sample_along_rays
from repro.nerf.volume import composite, early_termination_counts
from repro.scenes.cameras import Camera

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.exec.frame_trace import FrameTrace


@dataclass
class PhaseCounts:
    """Operation counts for one rendering phase."""

    flops: int = 0
    bytes: int = 0

    def add(self, flops: int, bytes_: int = 0) -> None:
        self.flops += int(flops)
        self.bytes += int(bytes_)


@dataclass
class RenderResult:
    """Output of a render: the image plus operation statistics.

    Attributes:
        image: ``(H, W, 3)`` float RGB in [0, 1].
        num_rays: Rays traced (== pixels).
        points_total: Sample points whose density was evaluated.
        color_points: Sample points whose *color MLP* actually ran (can be
            fewer than ``points_total`` under ASDR's approximation).
        phase_counts: FLOPs/bytes per phase: embedding / density / color /
            volume.
        sample_counts: ``(H*W,)`` per-ray sample budgets actually used.
        trace: The :class:`~repro.exec.frame_trace.FrameTrace` this render
            executed (replayed by the simulator and the profilers).
    """

    image: np.ndarray
    num_rays: int
    points_total: int
    color_points: int
    phase_counts: Dict[str, PhaseCounts]
    sample_counts: np.ndarray
    trace: Optional["FrameTrace"] = None

    @property
    def total_flops(self) -> int:
        return sum(pc.flops for pc in self.phase_counts.values())

    def flops_fraction(self, phase: str) -> float:
        total = self.total_flops
        return self.phase_counts[phase].flops / total if total else 0.0


def _new_phase_counts() -> Dict[str, PhaseCounts]:
    return {name: PhaseCounts() for name in ("embedding", "density", "color", "volume")}


class BaselineRenderer:
    """Fixed-budget volume renderer over any model with the query interface.

    Args:
        model: Object exposing ``query_density`` / ``query_color`` and the
            ``flops_*_per_point`` accessors (InstantNGP or TensoRF).
        num_samples: Fixed per-ray sample count (paper: 192).
        early_termination: When set, stop each ray once accumulated opacity
            exceeds this threshold (Section 6.6); ``None`` disables it.
        background: Background intensity (Synthetic-NeRF uses white).
    """

    def __init__(
        self,
        model,
        num_samples: int = 64,
        early_termination: Optional[float] = None,
        background: float = 1.0,
        batch_rays: int = 4096,
    ) -> None:
        self.model = model
        self.num_samples = num_samples
        self.early_termination = early_termination
        self.background = background
        self.batch_rays = batch_rays

    # ------------------------------------------------------------------
    def render_rays(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Predict along rays without compositing.

        Returns:
            ``(points, sigmas, colors, deltas, hit)`` with shapes
            ``(R, N, 3)``, ``(R, N)``, ``(R, N, 3)``, ``(R, N)``, ``(R,)``.
        """
        points, deltas, hit = sample_along_rays(origins, directions, self.num_samples)
        flat = points.reshape(-1, 3)
        dirs_rep = np.repeat(directions, self.num_samples, axis=0)
        sigma, geo = self.model.query_density(flat)
        rgb = self.model.query_color(geo, dirs_rep)
        n_rays = origins.shape[0]
        sigmas = sigma.reshape(n_rays, self.num_samples)
        colors = rgb.reshape(n_rays, self.num_samples, 3)
        sigmas = sigmas * hit[:, None]
        return points, sigmas, colors, deltas, hit

    def render_image(self, camera: Camera) -> RenderResult:
        """Render a full image through the fixed-budget pipeline."""
        from repro.exec.frame_trace import PHASE_MAIN, FrameTrace, TraceWavefront

        origins, directions = camera.pixel_rays()
        n_rays = origins.shape[0]
        image = np.zeros((n_rays, 3))
        counts = _new_phase_counts()
        sample_counts = np.zeros(n_rays, dtype=np.int64)
        points_total = 0
        color_points = 0
        wavefronts: List[TraceWavefront] = []

        for start in range(0, n_rays, self.batch_rays):
            sl = slice(start, min(start + self.batch_rays, n_rays))
            points, sigmas, colors, deltas, hit = self.render_rays(
                origins[sl], directions[sl]
            )
            used = np.full(sigmas.shape[0], self.num_samples, dtype=np.int64)
            if self.early_termination is not None:
                used = early_termination_counts(
                    sigmas, deltas, self.early_termination
                )
                mask = np.arange(self.num_samples)[None, :] < used[:, None]
                sigmas = sigmas * mask
            used = used * hit  # missed rays cost nothing
            rgb, _ = composite(sigmas, colors, deltas, self.background)
            image[sl] = rgb
            sample_counts[sl] = used

            batch_points = int(used.sum())
            points_total += batch_points
            color_points += batch_points
            self._charge(counts, batch_points, batch_points)
            wavefronts.append(
                TraceWavefront.from_samples(
                    phase=PHASE_MAIN,
                    budget=self.num_samples,
                    ray_ids=np.arange(sl.start, sl.stop, dtype=np.int64),
                    hit=hit,
                    points=points,
                    used=used,
                    color_used=used,
                )
            )

        h, w = camera.height, camera.width
        return RenderResult(
            image=image.reshape(h, w, 3),
            num_rays=n_rays,
            points_total=points_total,
            color_points=color_points,
            phase_counts=counts,
            sample_counts=sample_counts,
            trace=FrameTrace(
                num_pixels=n_rays,
                full_budget=self.num_samples,
                kind="baseline",
                wavefronts=wavefronts,
            ),
        )

    # ------------------------------------------------------------------
    def _charge(
        self,
        counts: Dict[str, PhaseCounts],
        density_points: int,
        color_points: int,
    ) -> None:
        """Account FLOPs/bytes for a batch of point evaluations."""
        m = self.model
        counts["embedding"].add(
            density_points * m.flops_embedding_per_point(),
            density_points * m.bytes_embedding_per_point(),
        )
        counts["density"].add(density_points * m.flops_density_per_point())
        counts["color"].add(color_points * m.flops_color_per_point())
        counts["volume"].add(density_points * 10)
