"""CIM crossbar MVM timing and energy model.

A weight matrix is tiled over 64x64 crossbars; inputs stream in bit-serial
through DACs and columns are read out by 5-bit ADCs (the paper's
configuration).  Multi-bit weights span ``ceil(weight_bits / cell_bits)``
adjacent columns whose partial sums are shifted and added digitally.

The model is deterministic: given a layer shape it returns cycles and
energy per input vector, which the MLP engine aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cim.reram import RERAM, DeviceParams
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CrossbarConfig:
    """Array geometry and data precision of a CIM PE.

    Attributes:
        rows / cols: Crossbar dimensions (paper: 64x64).
        adc_bits: ADC precision (paper: 5).
        input_bits: Bit-serial input precision (activations).
        weight_bits: Weight precision.
        device: The memory technology.
    """

    rows: int = 64
    cols: int = 64
    adc_bits: int = 5
    input_bits: int = 8
    weight_bits: int = 8
    device: DeviceParams = RERAM

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("crossbar dimensions must be positive")
        if min(self.adc_bits, self.input_bits, self.weight_bits) < 1:
            raise ConfigurationError("bit precisions must be positive")

    @property
    def cells_per_weight(self) -> int:
        return math.ceil(self.weight_bits / self.device.cell_bits)

    @property
    def weights_per_array(self) -> int:
        """Distinct matrix entries one array stores."""
        return self.rows * (self.cols // self.cells_per_weight)


@dataclass(frozen=True)
class MVMCost:
    """Cost of one matrix-vector product on the CIM fabric.

    Attributes:
        cycles: Latency in clock cycles assuming ``parallel_arrays``
            crossbars operate concurrently.
        energy_pj: Total dynamic energy.
        arrays_used: Crossbar tiles the matrix occupies.
    """

    cycles: int
    energy_pj: float
    arrays_used: int


class CIMCrossbarModel:
    """Maps weight matrices onto crossbars and prices MVMs."""

    def __init__(self, config: CrossbarConfig) -> None:
        self.config = config

    def tiles_for_matrix(self, in_dim: int, out_dim: int) -> int:
        """Number of crossbar tiles an ``in_dim x out_dim`` matrix needs."""
        c = self.config
        row_tiles = math.ceil(in_dim / c.rows)
        col_tiles = math.ceil(out_dim * c.cells_per_weight / c.cols)
        return row_tiles * col_tiles

    def mvm_cost(self, in_dim: int, out_dim: int, parallel_arrays: int = 1) -> MVMCost:
        """Cost of one MVM through an ``in_dim x out_dim`` layer.

        Args:
            parallel_arrays: Crossbar tiles that can fire concurrently
                (set by the engine's PE budget).
        """
        if parallel_arrays < 1:
            raise ConfigurationError("parallel_arrays must be >= 1")
        c = self.config
        tiles = self.tiles_for_matrix(in_dim, out_dim)
        waves = math.ceil(tiles / parallel_arrays)
        # Bit-serial input: one analog activation per input bit per wave.
        cycles = c.input_bits * waves * c.device.read_latency_cycles
        activations = c.input_bits * tiles
        adc_reads = activations * c.cols
        energy = (
            activations * c.device.mvm_energy_pj
            + adc_reads * c.device.adc_energy_pj
        )
        return MVMCost(cycles=cycles, energy_pj=energy, arrays_used=tiles)

    def write_energy_pj(self, in_dim: int, out_dim: int) -> float:
        """One-time programming energy for a layer's weights."""
        c = self.config
        return in_dim * out_dim * c.cells_per_weight * c.device.write_energy_pj
