"""Result/statistics containers for the ASDR renderer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.sampling_plan import SamplingPlan
from repro.exec.frame_trace import FrameTrace
from repro.nerf.renderer import PhaseCounts


@dataclass
class ASDRRenderResult:
    """Output of a two-phase ASDR render.

    Attributes:
        image: ``(H, W, 3)`` rendered image.
        plan: The sampling plan chosen in Phase I (``None``-like plan with
            uniform budgets when adaptive sampling is disabled).
        num_rays: Total rays (pixels).
        density_points: Sample points whose density MLP ran (both phases).
        color_points: Sample points whose color MLP ran (both phases).
        interpolated_points: Points whose color came from the approximation
            unit instead of the color MLP.
        probe_points: Phase I sample points (subset of ``density_points``).
        phase_counts: FLOPs/bytes per pipeline phase.
        sample_counts: ``(H*W,)`` per-ray points actually marched in
            Phase II (after early termination, if enabled).
        trace: The :class:`~repro.exec.frame_trace.FrameTrace` this render
            executed — the simulator and profilers replay it instead of
            re-deriving rays/samples from ``(camera, budgets)``.
        reprojection: Temporal-reprojection record for frames rendered by
            :meth:`~repro.core.pipeline.ASDRRenderer.render_reprojected`
            (ray classification counts, guard PSNR, fallback flag);
            ``None`` for ordinary renders.
    """

    image: np.ndarray
    plan: SamplingPlan
    num_rays: int
    density_points: int
    color_points: int
    interpolated_points: int
    probe_points: int
    phase_counts: Dict[str, PhaseCounts]
    sample_counts: np.ndarray
    trace: Optional[FrameTrace] = None
    reprojection: Optional[Dict[str, object]] = None

    @property
    def total_flops(self) -> int:
        return sum(pc.flops for pc in self.phase_counts.values())

    @property
    def average_samples_per_ray(self) -> float:
        return self.density_points / self.num_rays if self.num_rays else 0.0

    def summary(self) -> Dict[str, float]:
        """Compact dictionary for experiment tables."""
        return {
            "rays": self.num_rays,
            "density_points": self.density_points,
            "color_points": self.color_points,
            "interpolated_points": self.interpolated_points,
            "probe_points": self.probe_points,
            "avg_samples_per_ray": round(self.average_samples_per_ray, 2),
            "total_flops": self.total_flops,
        }
