"""Storage-utilisation analysis of table mappings (Figures 11-13).

Under the original all-hash mapping, a low-resolution level with
``(res+1)^3`` vertices touches only that many of its ``T`` table entries —
the rest of the crossbar storage is dead.  The hybrid mapping de-hashes
those levels and fills the headroom with replicated copies, driving
utilisation from ~62 % to ~86 % in the paper's Figure 13.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cim.address import HybridAddressGenerator
from repro.nerf.hashgrid import HashGridConfig, hash_coords


def _distinct_hash_fraction(resolution: int, table_size: int) -> float:
    """Fraction of table entries a full ``(res+1)^3`` grid touches via hash.

    Computed exactly for small grids and by the standard occupancy formula
    ``1 - (1 - 1/T)^V`` for large ones (hashing is effectively uniform).
    """
    vertices = (resolution + 1) ** 3
    if vertices <= 2**21:
        coords = np.stack(
            np.meshgrid(*([np.arange(resolution + 1)] * 3), indexing="ij"), axis=-1
        ).reshape(-1, 3)
        distinct = len(np.unique(hash_coords(coords, table_size)))
        return distinct / table_size
    return 1.0 - (1.0 - 1.0 / table_size) ** vertices


def storage_utilization(grid: HashGridConfig) -> List[float]:
    """Per-level utilisation under the original all-hash mapping."""
    out = []
    for level in range(grid.num_levels):
        res = int(grid.level_resolutions[level])
        out.append(min(1.0, _distinct_hash_fraction(res, grid.table_size)))
    return out


def hybrid_utilization(grid: HashGridConfig) -> List[float]:
    """Per-level utilisation under ASDR's hybrid mapping.

    De-hashed levels pack ``copies`` replicas; every stored entry is a live
    grid vertex, so utilisation is the packed fraction of the table
    capacity.  Hashed levels are unchanged.
    """
    gen = HybridAddressGenerator(grid, mode="hybrid")
    baseline = storage_utilization(grid)
    out = []
    for level, mapping in enumerate(gen.levels):
        if not mapping.dense:
            out.append(baseline[level])
            continue
        live_entries = (mapping.resolution + 1) ** 3 * mapping.copies
        out.append(min(1.0, live_entries / grid.table_size))
    return out


def average_utilization(values: List[float]) -> float:
    """Mean utilisation across levels (the Figure 13 'Avg.' annotation)."""
    return float(np.mean(values)) if values else 0.0
