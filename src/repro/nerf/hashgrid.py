"""Multi-resolution hash-grid encoding (Instant-NGP, Eq. 2 of the paper).

Each of ``num_levels`` resolution levels stores per-vertex feature vectors
in an embedding table of ``table_size`` entries.  A sample point is located
in its voxel at every level; the features of the voxel's eight vertices are
fetched (dense indexing when the grid fits, hashed otherwise) and blended
by trilinear interpolation; per-level features are concatenated.
:class:`HashGridEncoder` stacks the level tables in one ``(L, T, F)``
array and evaluates every level and corner of a batch in one pass.

Besides encoding, this module exports the *addressing* primitives, the
information the hybrid address generator of Section 5.2.1 consumes:

* :data:`CORNER_OFFSETS` — the eight voxel-corner offsets, in corner order;
* :func:`voxel_floor` — the voxel-base rule (floor, then clip into the grid);
* :meth:`HashGridEncoder.voxel_vertices` — one level's vertex coordinates
  and trilinear weights;
* :attr:`HashGridConfig.level_resolutions` and
  :meth:`HashGridConfig.level_is_dense` — each level's grid and whether it
  is indexed densely or hash-compressed;
* :func:`dense_coords_index` and :func:`hash_coords` (Eq. 2) — the two
  table addressing functions — and :func:`hash_mix`, Eq. 2 before its
  modulus.

The encoder locates and addresses vertices with these same functions.  The
architecture simulator and the CIM address model replay the voxel bases,
the level split and Eq. 2 (through :func:`hash_mix`); dense levels there
use the physical layouts of :mod:`repro.cim.address` instead of
:func:`dense_coords_index`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import seeded_rng

# The paper's Eq. (2) primes (pi_1 = 1 keeps x-locality in Instant-NGP's
# reference implementation; we follow it).
HASH_PRIMES = (1, 2654435761, 805459861)

# Offsets of a voxel's eight corners, in (x, y, z) minor-to-major order.
CORNER_OFFSETS = np.array(
    [[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)], dtype=np.int64
)

@dataclass
class HashGridConfig:
    """Configuration of the multi-resolution hash encoding.

    Attributes:
        num_levels: Number of resolution levels (paper: 16).
        table_size: Entries per level's embedding table (paper: 2**19).
        feature_dim: Features per table entry (paper: 2).
        base_resolution: Grid resolution of the coarsest level.
        max_resolution: Grid resolution of the finest level.
    """

    num_levels: int = 16
    table_size: int = 2**19
    feature_dim: int = 2
    base_resolution: int = 16
    max_resolution: int = 512

    def __post_init__(self) -> None:
        if self.num_levels < 1:
            raise ConfigurationError("num_levels must be >= 1")
        if self.table_size < 8:
            raise ConfigurationError("table_size must be >= 8")
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")
        if not (1 < self.base_resolution <= self.max_resolution):
            raise ConfigurationError(
                "need 1 < base_resolution <= max_resolution"
            )

    @property
    def level_resolutions(self) -> np.ndarray:
        """Per-level grid resolutions, geometrically spaced (Instant-NGP)."""
        if self.num_levels == 1:
            return np.array([self.base_resolution], dtype=np.int64)
        growth = np.exp(
            (np.log(self.max_resolution) - np.log(self.base_resolution))
            / (self.num_levels - 1)
        )
        res = np.floor(
            self.base_resolution * growth ** np.arange(self.num_levels)
        ).astype(np.int64)
        return np.maximum(res, 2)

    @property
    def output_dim(self) -> int:
        """Dimensionality of the concatenated encoding."""
        return self.num_levels * self.feature_dim

    def level_is_dense(self, level: int) -> bool:
        """True when the level's full grid fits in the table without hashing.

        These are the paper's "low-resolution" levels: their tables can be
        de-hashed, bit-reorder addressed and replicated (Section 5.2.1).
        """
        res = int(self.level_resolutions[level])
        return (res + 1) ** 3 <= self.table_size


def hash_mix(coords: np.ndarray) -> np.ndarray:
    """Eq. (2) before the modulus: the XOR of each coordinate times its
    prime, in wrapping ``uint64`` arithmetic.

    Args:
        coords: ``(..., 3)`` integer vertex coordinates.

    Returns:
        ``(...)`` ``uint64`` mixes; :func:`hash_coords` reduces them.
    """
    coords = np.asarray(coords, dtype=np.uint64)
    result = coords[..., 0] * np.uint64(HASH_PRIMES[0])
    result ^= coords[..., 1] * np.uint64(HASH_PRIMES[1])
    result ^= coords[..., 2] * np.uint64(HASH_PRIMES[2])
    return result


def hash_coords(coords: np.ndarray, table_size: int) -> np.ndarray:
    """Spatial hash of integer vertex coordinates, Eq. (2).

    Args:
        coords: ``(..., 3)`` integer vertex coordinates.
        table_size: Modulus ``T`` (need not be a power of two).

    Returns:
        ``(...)`` indices in ``[0, table_size)``.
    """
    return (hash_mix(coords) % np.uint64(table_size)).astype(np.int64)


def dense_coords_index(
    coords: np.ndarray, resolution: Union[int, np.ndarray]
) -> np.ndarray:
    """Row-major dense index of vertex coordinates on a ``(res+1)^3`` grid.

    ``resolution`` is one grid's resolution, or an integer array that
    broadcasts against ``coords[..., 0]`` (one resolution per level).
    """
    coords = np.asarray(coords, dtype=np.int64)
    stride = resolution + 1
    return (coords[..., 2] * stride + coords[..., 1]) * stride + coords[..., 0]


def voxel_floor(scaled: np.ndarray, resolution) -> np.ndarray:
    """Integer voxel bases of grid-scaled positions: floor, then clip to
    ``[0, resolution - 1]`` so points on the far face stay in the last
    voxel.  ``resolution`` broadcasts against ``scaled`` (one grid, or one
    per level).  The one voxel-base rule of the encoder and of
    :meth:`repro.exec.frame_trace.FrameTrace.voxel_base`."""
    base = np.floor(scaled).astype(np.int64)
    # Two ufuncs rather than np.clip, whose Python-level wrapper costs
    # as much as the work on the small per-wavefront arrays seen here.
    np.maximum(base, 0, out=base)
    np.minimum(base, resolution - 1, out=base)
    return base


def _locate(
    points: np.ndarray, resolutions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Voxel vertices and trilinear weights of points on several grids.

    Args:
        points: ``(N, 3)`` positions in the unit cube.
        resolutions: ``(L,)`` grid resolutions.

    Returns:
        ``(corners, weights)``: the ``(3, 8, L, N)`` vertex coordinates per
        axis, corner (in :data:`CORNER_OFFSETS` order), grid and point,
        and the ``(8, L, N)`` weights, each ``(wx*wy)*wz``.
    """
    res = resolutions[:, None]
    # numpy lays a result out like its inputs: a contiguous axis-major copy
    # keeps the point axis innermost in every array below (``points.T``
    # itself would put the axis of three there, about 2x slower).
    scaled = np.ascontiguousarray(points.T)[:, None, :] * res  # (3, L, N)
    base = voxel_floor(scaled, res)
    frac = scaled - base
    offsets = CORNER_OFFSETS.T[:, :, None, None]  # (3, 8, 1, 1)
    corners = base[:, None] + offsets
    # Weight of corner (ox, oy, oz) is prod over axes of
    # frac if offset==1 else (1-frac).
    w = np.where(offsets == 1, frac[:, None], 1.0 - frac[:, None])
    weights = (w[0] * w[1]) * w[2]
    return corners, weights


class HashGridEncoder:
    """Trainable multi-resolution hash-grid encoder.

    The level tables live in one stacked ``(L, T, F)`` array that the
    distillation trainer updates through :meth:`encode_backward`;
    :attr:`tables` exposes per-level views of it.  :meth:`voxel_vertices`
    gives the architecture simulator the per-level corners it replays.
    """

    def __init__(self, config: HashGridConfig, seed: int = 0) -> None:
        self.config = config
        rng = seeded_rng(seed)
        scale = 1e-2
        num_levels, table_size = config.num_levels, config.table_size
        self._table = rng.uniform(
            -scale, scale, size=(num_levels, table_size, config.feature_dim)
        )
        self._resolutions = config.level_resolutions
        # Resolutions never decrease, so the dense levels are a prefix.
        self._num_dense = sum(
            config.level_is_dense(level) for level in range(num_levels)
        )
        # Each level's first row in the stacked table, shaped to broadcast
        # over (level, point).
        self._row_offsets = np.arange(num_levels, dtype=np.int64)[:, None] * table_size

    @property
    def tables(self) -> List[np.ndarray]:
        """Per-level ``(T, F)`` embedding tables (views of the stack)."""
        return list(self._table)

    @tables.setter
    def tables(self, tables: Sequence[np.ndarray]) -> None:
        """Replace every level table; the encoder gets a new stacked array,
        so an encoder copied with :func:`copy.copy` stops sharing it."""
        table = np.stack(tables)
        cfg = self.config
        expected = (cfg.num_levels, cfg.table_size, cfg.feature_dim)
        if table.shape != expected:
            raise ConfigurationError(
                f"tables stack to {table.shape}, expected {expected}"
            )
        self._table = table

    # ------------------------------------------------------------------
    # Addressing primitives (shared with the architecture simulator)
    # ------------------------------------------------------------------
    def voxel_vertices(
        self, points: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Locate points in their voxel at ``level``.

        Args:
            points: ``(N, 3)`` positions in the unit cube.

        Returns:
            ``(corners, weights)``: the ``(N, 8, 3)`` integer coordinates of
            each point's voxel vertices and the ``(N, 8)`` trilinear weights.
        """
        corners, weights = _locate(
            np.asarray(points), self._resolutions[level : level + 1]
        )
        return corners[:, :, 0].T, weights[:, 0].T

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _corners(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked-table rows and trilinear weights of every level's corners.

        Returns ``(rows, weights)``, both ``(8, L, N)``: every level's
        :meth:`voxel_vertices` and addressing function at once, corner
        axis first.  ``rows`` index the stacked table viewed as
        ``(L*T, F)``.
        """
        corners, weights = _locate(points, self._resolutions)
        coords = np.moveaxis(corners, 0, -1)  # (8, L, N, 3)
        dense = self._num_dense
        rows = np.empty(weights.shape, dtype=np.int64)
        rows[:, :dense] = dense_coords_index(
            coords[:, :dense], self._resolutions[:dense, None]
        )
        rows[:, dense:] = hash_coords(coords[:, dense:], self.config.table_size)
        rows += self._row_offsets
        return rows, weights

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Concatenated multi-resolution encoding, ``(N, L*F)``.

        Every level and corner is evaluated at once: one gather per
        feature plane from the stacked table, then the eight corner terms
        are added to ``+0.0`` in corner order.  That left fold is exactly
        the per-level ``np.sum(weights[..., None] * feats, axis=1)`` for
        ``feature_dim >= 2``.  An ``np.sum`` over the corner axis would not
        always be: numpy adds pairwise along a contiguous reduction axis,
        which the corner axis becomes with one level and one point.
        """
        points = np.atleast_2d(points)
        rows, weights = self._corners(points)
        fdim = self.config.feature_dim
        flat = self._table.reshape(-1)
        first = rows * fdim  # feature f of row r sits at flat[r*F + f]
        planes = np.zeros((fdim,) + rows.shape[1:])  # (F, L, N)
        for f, acc in enumerate(planes):
            for term in weights * np.take(flat[f:], first):
                acc += term
        return planes.transpose(2, 1, 0).reshape(len(points), self.config.output_dim)

    def encode_backward(
        self,
        points: np.ndarray,
        grad_output: np.ndarray,
        learning_rate: float,
    ) -> None:
        """SGD update of the tables given d(loss)/d(encoding).

        ``grad_output`` has shape ``(N, L*F)``; gradients are scattered to
        the eight vertices of each point's voxel with trilinear weights in
        one ``np.add.at`` over the stacked table.  Updates are ordered by
        level, then point, then corner, so every entry receives its
        updates in the order of a per-level scatter.
        """
        points = np.atleast_2d(points)
        rows, weights = self._corners(points)
        cfg = self.config
        fdim = cfg.feature_dim
        grad = np.reshape(grad_output, (len(points), cfg.num_levels, fdim))
        contrib = -learning_rate * (weights[..., None] * grad.transpose(1, 0, 2))
        np.add.at(
            self._table.reshape(-1, fdim),
            rows.transpose(1, 2, 0).reshape(-1),
            contrib.transpose(1, 2, 0, 3).reshape(-1, fdim),
        )

    def parameter_count(self) -> int:
        """Total number of trainable table entries times feature dim."""
        return self._table.size

    def lookup_flops_per_point(self) -> int:
        """FLOPs of one point's encoding (trilinear blend, all levels).

        Eight vertices x feature_dim multiply-adds per level plus the
        weight products; matches the accounting behind Figure 5.
        """
        per_level = 8 * self.config.feature_dim * 2 + 8 * 3
        return per_level * self.config.num_levels
