"""Common workload/report types for baseline platform models.

A :class:`Workload` captures everything a platform model needs to price a
render: per-phase FLOPs and bytes plus point/lookup counts.  It is built
directly from the renderer's operation accounting, so every platform prices
*exactly the same work*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Workload:
    """Operation counts of one rendered image.

    Attributes:
        embedding_flops / embedding_bytes: Encoding-phase interpolation
            FLOPs and table bytes gathered.
        density_flops / color_flops: MLP FLOPs per network.
        volume_flops: Compositing/approximation FLOPs.
        density_points / color_points: MLP evaluations per network.
        lookups: Individual table-entry fetches (8 per level per point).
    """

    embedding_flops: int
    embedding_bytes: int
    density_flops: int
    color_flops: int
    volume_flops: int
    density_points: int
    color_points: int
    lookups: int

    @classmethod
    def from_render_result(cls, result, model) -> "Workload":
        """Build a workload from a render result and its model."""
        pc = result.phase_counts
        color_points = getattr(result, "color_points", result.points_total
                               if hasattr(result, "points_total") else 0)
        density_points = getattr(
            result, "density_points", getattr(result, "points_total", 0)
        )
        levels = getattr(model.config, "grid", None)
        lookups_per_point = 8 * (levels.num_levels if levels else 3)
        return cls(
            embedding_flops=pc["embedding"].flops,
            embedding_bytes=pc["embedding"].bytes,
            density_flops=pc["density"].flops,
            color_flops=pc["color"].flops,
            volume_flops=pc["volume"].flops,
            density_points=density_points,
            color_points=color_points,
            lookups=density_points * lookups_per_point,
        )

    @property
    def total_flops(self) -> int:
        return (
            self.embedding_flops
            + self.density_flops
            + self.color_flops
            + self.volume_flops
        )

    @property
    def mlp_flops(self) -> int:
        return self.density_flops + self.color_flops


@dataclass
class PlatformReport:
    """Time/energy of a workload on one platform.

    Attributes:
        name: Platform label.
        phase_seconds: Seconds per phase (``encoding`` / ``mlp`` /
            ``volume``).
        energy_joules: Total energy.
    """

    name: str
    phase_seconds: Dict[str, float]
    energy_joules: float

    @property
    def time_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def encoding_seconds(self) -> float:
        return self.phase_seconds.get("encoding", 0.0)

    @property
    def mlp_seconds(self) -> float:
        return self.phase_seconds.get("mlp", 0.0)


class PlatformModel:
    """Interface of all baseline platform models."""

    name: str = "platform"

    def run(self, workload: Workload) -> PlatformReport:
        """Price ``workload`` on this platform."""
        raise NotImplementedError
