"""Trace replay and locality profiling.

The simulator replays the exact voxel-vertex streams the renderer touches.
:func:`encoding_corner_stream` yields, for a frame's
:class:`~repro.exec.frame_trace.FrameTrace` (or, compatibly, a
``(camera, budgets)`` pair from which one is synthesised), the per-level
voxel corner coordinates in render order.  :func:`repetition_profile`
measures the inter-ray / intra-ray voxel repetition rates of Figure 15,
and :func:`hash_address_trace` produces the Figure 4 address-scatter data;
both read sample positions from a renderer-emitted trace when one is
supplied instead of re-tracing rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exec.frame_trace import FrameTrace
from repro.nerf.hashgrid import HashGridConfig, HashGridEncoder, hash_coords
from repro.nerf.rays import sample_along_rays
from repro.scenes.cameras import Camera


@dataclass
class EncodingBatch:
    """One wavefront of sample points headed into the encoding engine.

    Attributes:
        corners: Per level: ``(P, 8, 3)`` voxel-vertex coordinates of the
            batch's sample points, in render order.
        point_ray: ``(P,)`` ray index of each point (for locality studies).
        num_points: Points in the batch.
    """

    corners: Dict[int, np.ndarray]
    point_ray: np.ndarray
    num_points: int


def _points_for_rays(
    camera: Camera, ray_ids: np.ndarray, budget: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample positions for rays sharing a budget -> ``(points, hit)``."""
    origins, directions = camera.rays_for_pixels(ray_ids)
    points, _, hit = sample_along_rays(origins, directions, budget)
    return points, hit


def encoding_corner_stream(
    camera: Camera,
    budgets: np.ndarray,
    grid: HashGridConfig,
    wavefront_rays: int = 64,
    encoder: HashGridEncoder = None,
    trace: Optional[FrameTrace] = None,
) -> Iterator[EncodingBatch]:
    """Yield encoding-engine wavefronts for an image render.

    Rays are grouped by sample budget (as the renderer executes them) and
    split into wavefronts of ``wavefront_rays``; rays that miss the scene
    produce no lookups.  When ``trace`` is given, its recorded sample
    points are replayed (``camera``/``budgets`` are ignored and may be
    ``None``); otherwise a trace is synthesised from the budget map.  The
    ``encoder`` argument is kept for API compatibility — corner
    coordinates depend only on ``grid``'s level resolutions.
    """
    del encoder  # corners derive from the grid's resolutions alone
    if trace is None:
        trace = FrameTrace.from_budgets(camera, budgets)
    resolutions = grid.level_resolutions
    for sl in trace.split(wavefront_rays):
        if sl.num_points == 0:
            continue
        yield EncodingBatch(
            corners={
                level: sl.corners(int(resolutions[level]))
                for level in range(grid.num_levels)
            },
            point_ray=sl.point_ray(),
            num_points=sl.num_points,
        )


# ----------------------------------------------------------------------
# Locality profiling (Figures 4, 8, 15)
# ----------------------------------------------------------------------
def voxel_ids(corners: np.ndarray, resolution: int) -> np.ndarray:
    """Scalar voxel id of each point from its corner-0 coordinates."""
    base = corners[:, 0, :]
    stride = resolution + 1
    return (base[:, 2] * stride + base[:, 1]) * stride + base[:, 0]


def _neighbour_pairs(hit: np.ndarray, width: int) -> List[Tuple[int, int]]:
    """Horizontally adjacent pixel pairs ``(r, r+1)`` that both hit the
    scene.  The right neighbour must exist (no wrap past the last pixel)
    and lie in the same raster row — the seed's ``min(r + 1, n - 1)``
    clamp could pair the final hit pixel with itself."""
    hit = np.asarray(hit)
    n = len(hit)
    return [
        (int(r), int(r) + 1)
        for r in np.nonzero(hit)[0]
        if (r + 1) % width != 0 and r + 1 < n and hit[r + 1]
    ]


def repetition_profile(
    camera: Camera,
    grid: HashGridConfig,
    num_samples: int,
    max_ray_pairs: int = 256,
    trace: Optional[FrameTrace] = None,
) -> Tuple[List[float], List[int]]:
    """Measure inter-ray and intra-ray voxel locality (Figure 15).

    When ``trace`` holds a uniform full-budget render at ``num_samples``
    (e.g. a baseline render's trace), ray geometry is read from it instead
    of being re-traced.

    Returns:
        ``(inter_ray_rates, intra_ray_peaks)`` per level: the average
        fraction of a ray's sample voxels that also appear in the
        neighbouring ray's voxel set, and the maximum number of one ray's
        samples sharing a voxel.
    """
    encoder = HashGridEncoder(grid)
    resolutions = grid.level_resolutions
    width = camera.width
    if trace is not None and not (
        trace.full_budget == num_samples
        and trace.num_pixels == camera.width * camera.height
        and trace.is_uniform
    ):
        trace = None  # incompatible trace: fall back to re-tracing rays
    if trace is not None:
        t_near_hits = trace.hit_mask()
    else:
        origins, directions = camera.pixel_rays()
        t_near_hits = sample_along_rays(origins, directions, 1)[2]
    pairs = _neighbour_pairs(t_near_hits, width)[:max_ray_pairs]

    inter = [[] for _ in range(grid.num_levels)]
    intra = [0] * grid.num_levels
    for left, right in pairs:
        ids = np.array([left, right])
        if trace is not None:
            points, hit = trace.gather_points(ids)
        else:
            points, hit = _points_for_rays(camera, ids, num_samples)
        if not hit.all():
            continue
        for level in range(grid.num_levels):
            res = int(resolutions[level])
            c_l, _ = encoder.voxel_vertices(points[0], level)
            c_r, _ = encoder.voxel_vertices(points[1], level)
            v_l = voxel_ids(c_l, res)
            v_r = voxel_ids(c_r, res)
            shared = np.isin(v_l, v_r).mean()
            inter[level].append(float(shared))
            _, counts = np.unique(v_l, return_counts=True)
            intra[level] = max(intra[level], int(counts.max()))
    rates = [float(np.mean(x)) if x else 0.0 for x in inter]
    return rates, intra


def hash_address_trace(
    camera: Camera,
    grid: HashGridConfig,
    num_samples: int,
    num_points: int = 1500,
    level: int = None,
    trace: Optional[FrameTrace] = None,
) -> np.ndarray:
    """Hash-table addresses of consecutive sample points (Figure 4).

    Returns the ``(num_points,)`` table index of each consecutive sample's
    first voxel vertex at the finest (default) level — the scatter the
    paper plots to show poor spatial locality of hashed accesses.  A
    compatible ``trace`` supplies the sample stream without re-tracing.
    """
    if level is None:
        level = grid.num_levels - 1
    res = int(grid.level_resolutions[level])
    if trace is not None and not (
        trace.full_budget == num_samples
        and trace.num_pixels == camera.width * camera.height
        and trace.is_uniform
    ):
        trace = None
    if trace is not None:
        flat = trace.active_points(limit=num_points)
    else:
        origins, directions = camera.pixel_rays()
        points, _, hit = sample_along_rays(origins, directions, num_samples)
        flat = points[hit].reshape(-1, 3)[:num_points]
    base = np.clip(np.floor(flat * res).astype(np.int64), 0, res - 1)
    return hash_coords(base, grid.table_size)
