"""Encoding engine simulation (Section 5.2, Figure 10 left).

Per wavefront the engine (a) generates addresses with the hybrid address
generator, (b) filters them through the per-level register caches, (c)
issues the misses to the memory crossbars where same-crossbar accesses
serialise, and (d) fuses the fetched embeddings by trilinear interpolation.
Stages are pipelined, so a wavefront's cycle cost is the maximum of the
stage costs; levels own independent banks and caches and proceed in
parallel, contending only for address-generation bandwidth.

:class:`EncodingEngine` holds one design's address generator, register
caches and crossbar banks; :mod:`repro.exec.batch` prices every wavefront
of a frame against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.arch.config import ArchConfig
from repro.cim.address import HybridAddressGenerator
from repro.cim.cache import RegisterCache
from repro.cim.memxbar import MemXbarBank
from repro.nerf.hashgrid import HashGridConfig


@dataclass
class EncodingReport:
    """Aggregate outcome of the encoding engine over a render.

    Attributes:
        cycles: Total pipelined cycles.
        read_cycles: Memory-crossbar busy cycles (the read stage alone —
            the quantity the register cache relieves).
        lookups: Vertex lookups issued (before cache filtering).
        cache_hits: Lookups served by the register caches.
        temporal_hits: Lookups served by the cross-frame temporal vertex
            cache (sequence simulation only; 0 for single frames).
        xbar_accesses: Memory-crossbar row reads.
        conflict_cycles: Cycles lost to same-crossbar serialisation.
        xbar_energy_pj: Dynamic read energy of the memory crossbars.
    """

    cycles: int = 0
    read_cycles: int = 0
    lookups: int = 0
    cache_hits: int = 0
    temporal_hits: int = 0
    xbar_accesses: int = 0
    conflict_cycles: int = 0
    xbar_energy_pj: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.lookups if self.lookups else 0.0

    @property
    def temporal_hit_rate(self) -> float:
        return self.temporal_hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "EncodingReport") -> None:
        self.cycles += other.cycles
        self.read_cycles += other.read_cycles
        self.lookups += other.lookups
        self.cache_hits += other.cache_hits
        self.temporal_hits += other.temporal_hits
        self.xbar_accesses += other.xbar_accesses
        self.conflict_cycles += other.conflict_cycles
        self.xbar_energy_pj += other.xbar_energy_pj


class EncodingEngine:
    """One design's encoding-engine hardware: the hybrid address
    generator, the per-level register caches and memory-crossbar banks."""

    def __init__(self, config: ArchConfig, grid: HashGridConfig) -> None:
        self.config = config
        self.grid = grid
        self.generator = HybridAddressGenerator(grid, mode=config.mapping_mode)
        self.caches: Dict[int, RegisterCache] = {
            level: RegisterCache(config.cache_entries)
            for level in range(grid.num_levels)
        }
        self.banks: Dict[int, MemXbarBank] = {
            level: MemXbarBank(
                self.generator.level_storage_entries(level),
                rows=config.crossbar.rows,
                device=config.memory_device,
            )
            for level in range(grid.num_levels)
        }
        # Identifies this engine's address mapping in trace memo keys: two
        # engines sharing grid + mode generate identical address streams.
        self._stream_key = (
            grid.num_levels,
            grid.table_size,
            grid.base_resolution,
            grid.max_resolution,
            config.mapping_mode,
        )

    @property
    def stream_key(self) -> tuple:
        """Identity of this engine's address mapping, for trace memo keys."""
        return self._stream_key

    def compact_dtype(self, level: int):
        """Narrowest integer dtype that holds every address of ``level``
        (what memoised address/miss streams are stored as)."""
        return (
            np.int32
            if self.generator.level_storage_entries(level) < 2**31
            else np.int64
        )
