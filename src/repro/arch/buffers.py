"""On-chip buffer modelling (the "Buffers" row of Table 2, Figure 10).

Three buffers decouple the pipeline stages:

* **address buffer** — generated addresses awaiting crossbar issue;
* **embed buffer** — fetched embeddings awaiting fusion (absorbing the
  cache-hit/miss latency variance the paper's dataflow section describes);
* **density & color buffer** — MLP outputs awaiting volume rendering.

The model tracks per-wavefront occupancy against the configured capacity
and reports stalls: a wavefront whose working set exceeds a buffer must
drain in ``ceil(need / capacity)`` passes, each adding a refill latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BufferSpec:
    """Capacity of one on-chip buffer.

    Attributes:
        name: Buffer label.
        capacity_bytes: Usable capacity.
        entry_bytes: Bytes per buffered element.
        refill_cycles: Latency added per extra drain pass.
    """

    name: str
    capacity_bytes: int
    entry_bytes: int
    refill_cycles: int = 4

    def __post_init__(self) -> None:
        if self.capacity_bytes < self.entry_bytes:
            raise ConfigurationError(
                f"{self.name}: capacity must hold at least one entry"
            )

    @property
    def capacity_entries(self) -> int:
        return self.capacity_bytes // self.entry_bytes


def default_buffers(scale: str = "server") -> Dict[str, BufferSpec]:
    """Table 2's buffer budget (256 KB server / 64 KB edge) split across
    the three Figure 10 buffers in traffic proportion."""
    total = 256 * 1024 if scale == "server" else 64 * 1024
    return {
        "address": BufferSpec("address", total // 8, entry_bytes=4),
        # An embedding entry: 8 vertices x feature_dim(2) x 2 bytes.
        "embed": BufferSpec("embed", total // 2, entry_bytes=32),
        # Density (2B) + color (3 x 2B) per sample point.
        "density_color": BufferSpec("density_color", total // 4, entry_bytes=8),
    }


@dataclass
class BufferReport:
    """Occupancy/stall outcome of one buffer over a render.

    Attributes:
        peak_entries: Largest single-wavefront working set observed.
        stall_cycles: Total refill penalty from capacity overflows.
        overflow_wavefronts: Wavefronts that exceeded capacity.
    """

    peak_entries: int = 0
    stall_cycles: int = 0
    overflow_wavefronts: int = 0

    def merge(self, other: "BufferReport") -> None:
        self.peak_entries = max(self.peak_entries, other.peak_entries)
        self.stall_cycles += other.stall_cycles
        self.overflow_wavefronts += other.overflow_wavefronts


class BufferModel:
    """Tracks wavefront working sets against buffer capacities."""

    def __init__(self, specs: Dict[str, BufferSpec]) -> None:
        self.specs = specs
        self.reports: Dict[str, BufferReport] = {
            name: BufferReport() for name in specs
        }

    def observe(self, name: str, entries: int) -> int:
        """Record a wavefront needing ``entries`` slots of buffer ``name``.

        Returns the stall cycles this wavefront incurs (0 when it fits).
        """
        spec = self.specs[name]
        report = self.reports[name]
        report.peak_entries = max(report.peak_entries, entries)
        passes = math.ceil(entries / spec.capacity_entries)
        if passes <= 1:
            return 0
        stall = (passes - 1) * spec.refill_cycles
        report.stall_cycles += stall
        report.overflow_wavefronts += 1
        return stall

    def observe_wavefront(
        self,
        in_flight_points: int,
        levels: int,
        ray_working_points: int,
        lookups_per_point: int = 8,
    ) -> int:
        """Charge one pipeline wavefront against all three buffers.

        Args:
            in_flight_points: Points simultaneously between address
                generation and fusion (the pipeline's look-ahead window —
                one point per ray of the wavefront).
            levels: Resolution levels (each holds its slice in flight).
            ray_working_points: MLP outputs that must be retained until
                their rays composite (rays x budget of the wavefront) —
                the density & color buffer's working set.

        Returns the total stall cycles.
        """
        stall = self.observe(
            "address", in_flight_points * lookups_per_point * levels
        )
        stall += self.observe("embed", in_flight_points * levels)
        stall += self.observe("density_color", ray_working_points)
        return stall

    def total_stalls(self) -> int:
        return sum(r.stall_cycles for r in self.reports.values())
