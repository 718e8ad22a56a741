"""MLP engine simulation (Section 5.3).

The density and color sub-engines execute their networks layer by layer on
CIM crossbar PEs; layers of one point are serial (data dependence) but the
sub-engine pipelines across points, and multiple sub-engines process
disjoint points in parallel.  Under the decoupling optimisation only
anchor points enter the color sub-engine — non-anchor points bypass it
entirely (the skippable pathway of Figure 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.config import ArchConfig
from repro.cim.crossbar import CIMCrossbarModel, CrossbarConfig
from repro.nerf.mlp import MLPConfig


@dataclass
class MLPReport:
    """Aggregate MLP-engine outcome.

    Attributes:
        cycles: Total cycles (max of the two sub-engine pipelines).
        density_cycles / color_cycles: Per-sub-engine busy cycles.
        density_points / color_points: Points processed.
        energy_pj: CIM MVM + ADC energy.
    """

    cycles: int = 0
    density_cycles: int = 0
    color_cycles: int = 0
    density_points: int = 0
    color_points: int = 0
    energy_pj: float = 0.0

    def merge(self, other: "MLPReport") -> None:
        self.cycles += other.cycles
        self.density_cycles += other.density_cycles
        self.color_cycles += other.color_cycles
        self.density_points += other.density_points
        self.color_points += other.color_points
        self.energy_pj += other.energy_pj


class MLPEngine:
    """Analytic throughput/energy model of both MLP sub-engines."""

    def __init__(
        self,
        config: ArchConfig,
        density_mlp: MLPConfig,
        color_mlp: MLPConfig,
    ) -> None:
        self.config = config
        xbar_cfg = CrossbarConfig(
            rows=config.crossbar.rows,
            cols=config.crossbar.cols,
            adc_bits=config.crossbar.adc_bits,
            input_bits=config.crossbar.input_bits,
            weight_bits=config.crossbar.weight_bits,
            device=config.mlp_device,
        )
        self.model = CIMCrossbarModel(xbar_cfg)
        self.density_mlp = density_mlp
        self.color_mlp = color_mlp
        self._density_point = self._network_cost(density_mlp)
        self._color_point = self._network_cost(color_mlp)

    def _network_cost(self, mlp: MLPConfig):
        """(initiation interval cycles, energy_pj) per point.

        Layers of one point are data-dependent but the sub-engine pipelines
        points through its layer stages, so steady-state throughput is set
        by the slowest layer's MVM (the initiation interval), not the sum.
        """
        interval = 0
        energy = 0.0
        for fan_in, fan_out in mlp.layer_dims:
            cost = self.model.mvm_cost(
                fan_in, fan_out, parallel_arrays=self.config.pes_per_engine
            )
            interval = max(interval, cost.cycles)
            energy += cost.energy_pj
        return interval, energy

    @property
    def density_cycles_per_point(self) -> int:
        return self._density_point[0]

    @property
    def color_cycles_per_point(self) -> int:
        return self._color_point[0]

    def process(self, density_points: int, color_points: int) -> MLPReport:
        """Cost of a batch with the given density/color point counts.

        The two sub-engine groups run concurrently, so the batch's latency
        is the slower pipeline; both contribute energy.
        """
        d_cycles_total = math.ceil(
            density_points / self.config.density_engines
        ) * self._density_point[0]
        c_cycles_total = math.ceil(
            color_points / self.config.color_engines
        ) * self._color_point[0]
        energy = (
            density_points * self._density_point[1]
            + color_points * self._color_point[1]
        )
        return MLPReport(
            cycles=max(d_cycles_total, c_cycles_total),
            density_cycles=d_cycles_total,
            color_cycles=c_cycles_total,
            density_points=density_points,
            color_points=color_points,
            energy_pj=energy,
        )
