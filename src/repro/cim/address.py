"""Hybrid address generation (Section 5.2.1, Figures 12 and 14).

Low-resolution embedding tables fit their full dense grid into the table
capacity, so ASDR de-hashes them: vertex coordinates are turned into
addresses by *bit reorder and concatenation* — the low (parity) bits of
``(x, y, z)`` become the high bits of the address, so the eight vertices of
any voxel land on eight different memory crossbars and can be read in one
parallel cycle.  The leftover capacity stores replicated copies of the
table, letting concurrent sample points read the same entry from different
copies.  High-resolution tables keep the original Eq. (2) hash mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nerf.hashgrid import HashGridConfig, hash_mix


def naive_concat_address(corners: np.ndarray, resolution: int) -> np.ndarray:
    """Figure 14(a)'s strawman: concatenate x|y|z bit fields.

    Vertices of one voxel share their high bits, so they pile onto the same
    crossbar — this mapping exists as the conflict-prone comparison point.
    """
    bits = max(1, math.ceil(math.log2(resolution + 1)))
    c = np.asarray(corners, dtype=np.int64)
    return (c[..., 0] << (2 * bits)) | (c[..., 1] << bits) | c[..., 2]


def bit_reorder_address(
    corners: np.ndarray,
    resolution: int,
    copy_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Figure 14(b)'s mapping: parity bits become the address high bits.

    Args:
        corners: ``(..., 3)`` integer vertex coordinates in
            ``[0, resolution]``.
        resolution: Grid resolution of the level.
        copy_ids: Optional ``(...)`` replica selector; copy ``k`` addresses
            the ``k``-th replicated table instance.

    Returns:
        ``(...)`` addresses.  The 8 vertices of any voxel always receive 8
        distinct parity prefixes, hence distinct crossbars.
    """
    c = np.asarray(corners, dtype=np.int64)
    parity = (c[..., 0] & 1) | ((c[..., 1] & 1) << 1) | ((c[..., 2] & 1) << 2)
    half = resolution // 2 + 1
    rest = ((c[..., 2] >> 1) * half + (c[..., 1] >> 1)) * half + (c[..., 0] >> 1)
    addr = parity * half**3 + rest
    if copy_ids is not None:
        addr = addr + np.asarray(copy_ids, dtype=np.int64) * dense_slot_size(resolution)
    return addr


def dense_slot_size(resolution: int) -> int:
    """Address-space footprint of one de-hashed table copy."""
    half = resolution // 2 + 1
    return 8 * half**3


def _axis_terms(base: np.ndarray, tables) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per axis, the ``(low, high)`` table entries of each voxel's base
    coordinate and its successor: six ``(N,)`` arrays."""
    return [
        (np.take(table, base[:, axis]), np.take(table[1:], base[:, axis]))
        for axis, table in enumerate(tables)
    ]


def _combine_corners(terms, op) -> np.ndarray:
    """``(N, 8)`` corner values in ``CORNER_OFFSETS`` order: corner ``i``
    combines axis ``a``'s high term where bit ``a`` of ``i`` is set.  Each
    corner is built as one contiguous row, then transposed once."""
    x, y, z = terms
    out = np.empty((8, len(x[0])), dtype=x[0].dtype)
    for i, row in enumerate(out):
        op(z[i >> 2], y[(i >> 1) & 1], out=row)
        op(row, x[i & 1], out=row)
    return out.T.copy()


@dataclass
class LevelMapping:
    """How one resolution level's table is mapped into crossbar storage.

    Attributes:
        level: Level index.
        resolution: Grid resolution.
        table_size: Logical table entries (capacity).
        dense: True when the level is de-hashed (low resolution).
        copies: Replicated table instances (1 for hashed levels).
    """

    level: int
    resolution: int
    table_size: int
    dense: bool
    copies: int

    @property
    def address_space(self) -> int:
        """Entries of physical storage the mapping occupies."""
        if self.dense:
            return dense_slot_size(self.resolution) * self.copies
        return self.table_size


class HybridAddressGenerator:
    """Per-level address generation for the encoding engine.

    Args:
        grid: The hash-grid configuration being accelerated.
        mode: ``"hybrid"`` (the ASDR design), ``"hash"`` (original mapping
            everywhere) or ``"naive"`` (de-hash by plain concatenation —
            the Figure 14a strawman).
    """

    MODES = ("hybrid", "hash", "naive")

    def __init__(self, grid: HashGridConfig, mode: str = "hybrid") -> None:
        if mode not in self.MODES:
            raise ConfigurationError(f"mode must be one of {self.MODES}")
        self.grid = grid
        self.mode = mode
        self.levels: List[LevelMapping] = []
        resolutions = grid.level_resolutions
        for level in range(grid.num_levels):
            res = int(resolutions[level])
            dense = mode != "hash" and grid.level_is_dense(level)
            copies = 1
            if dense and mode == "hybrid":
                copies = max(1, grid.table_size // dense_slot_size(res))
            self.levels.append(
                LevelMapping(
                    level=level,
                    resolution=res,
                    table_size=grid.table_size,
                    dense=dense,
                    copies=copies,
                )
            )

    def addresses(
        self,
        base: np.ndarray,
        level: int,
        request_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Physical addresses of the eight vertices of each voxel at ``level``.

        Every mapping splits over the axes: bit reorder is a sum of
        per-axis terms, naive concatenation an OR of disjoint per-axis
        fields (so a sum too), the Eq. (2) hash an XOR of per-axis
        products taken modulo the table size, and a replicated copy adds
        ``copy_id * dense_slot_size``.  So a voxel's corners combine six
        per-axis terms — each base coordinate and its successor, looked up
        in per-axis tables — with no ``(N, 8, 3)`` corner tensor.

        Args:
            base: ``(N, 3)`` integer voxel bases in ``[0, resolution - 1]``
                (:func:`~repro.nerf.hashgrid.voxel_floor`); corner ``i`` of
                a voxel is ``base + CORNER_OFFSETS[i]``.
            request_ids: Optional ``(N,)`` sequence numbers of the issuing
                sample points; replicated levels stripe consecutive
                requests across copies (round-robin), which is what lets
                concurrent points read the same entry conflict-free.

        Returns:
            ``(N, 8)`` int64 addresses in corner order: the level's mapping
            (:func:`~repro.nerf.hashgrid.hash_coords`,
            :func:`naive_concat_address` or :func:`bit_reorder_address`)
            of every corner.
        """
        mapping = self.levels[level]
        base = np.asarray(base)
        # Every mapping sends the origin to 0, so an axis's table is the
        # mapping (before any modulus) of the grid points on that axis.
        on_axis = np.zeros((3, mapping.resolution + 1, 3), dtype=np.int64)
        for axis in range(3):
            on_axis[axis, :, axis] = np.arange(mapping.resolution + 1)
        if not mapping.dense:
            terms = _axis_terms(base, hash_mix(on_axis))
            mixed = _combine_corners(terms, np.bitwise_xor)
            return (mixed % np.uint64(mapping.table_size)).astype(np.int64)
        layout = naive_concat_address if self.mode == "naive" else bit_reorder_address
        terms = _axis_terms(base, layout(on_axis, mapping.resolution))
        if mapping.copies > 1 and request_ids is not None:
            copy_ids = np.asarray(request_ids, dtype=np.int64) % mapping.copies
            shift = copy_ids * dense_slot_size(mapping.resolution)
            terms[0] = (terms[0][0] + shift, terms[0][1] + shift)
        return _combine_corners(terms, np.add)

    def striped(self, level: int) -> bool:
        """Whether the level's physical addresses depend on request ids
        (replicated dense levels round-robin across copies; every other
        mapping is request-independent)."""
        mapping = self.levels[level]
        return self.mode == "hybrid" and mapping.dense and mapping.copies > 1

    def level_storage_entries(self, level: int) -> int:
        """Physical entries backing the level (for bank sizing)."""
        return max(self.levels[level].address_space, self.grid.table_size)
