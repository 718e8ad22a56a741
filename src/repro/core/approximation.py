"""Color/density decoupled approximation (Section 4.3).

Along each ray the samples are split into groups of ``n``; the color MLP
runs only on each group's first point (the *anchor*), and the colors of the
remaining points are linearly interpolated between the surrounding anchors
using the distances between sample points.  Densities are always computed
exactly — only the (dominant) color MLP cost shrinks, by roughly ``1/n``.
"""

from __future__ import annotations

import numpy as np


def anchor_indices(num_points: int, group_size: int) -> np.ndarray:
    """Indices of the anchor points: ``0, n, 2n, ...`` (always non-empty)."""
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    return np.arange(0, num_points, group_size, dtype=np.int64)


def interpolate_group_colors(
    anchor_colors: np.ndarray,
    anchors: np.ndarray,
    t_vals: np.ndarray,
) -> np.ndarray:
    """Reconstruct all sample colors from anchor colors.

    Args:
        anchor_colors: ``(R, A, 3)`` colors computed by the color MLP at the
            anchor points.
        anchors: ``(A,)`` ascending anchor indices (from
            :func:`anchor_indices`).
        t_vals: ``(R, N)`` ray parameters (distances along the ray) of all
            sample points; interpolation weights use these actual distances
            as the paper specifies.

    Returns:
        ``(R, N, 3)`` colors; anchor positions carry their exact colors.
    """
    num_points = t_vals.shape[-1]
    positions = np.arange(num_points)
    # Index of the anchor at or before each position.
    seg = np.searchsorted(anchors, positions, side="right") - 1
    seg = np.clip(seg, 0, len(anchors) - 1)
    nxt = np.minimum(seg + 1, len(anchors) - 1)

    t_left = t_vals[:, anchors[seg]]
    t_right = t_vals[:, anchors[nxt]]
    span = t_right - t_left
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(span > 1e-12, (t_vals - t_left) / np.maximum(span, 1e-12), 0.0)
    frac = np.clip(frac, 0.0, 1.0)

    left_c = anchor_colors[:, seg, :]
    right_c = anchor_colors[:, nxt, :]
    return left_c + frac[..., None] * (right_c - left_c)


def color_mlp_savings(num_points: int, group_size: int) -> float:
    """Fraction of color-MLP evaluations avoided for an ``num_points`` ray."""
    if num_points == 0:
        return 0.0
    anchors = len(anchor_indices(num_points, group_size))
    return 1.0 - anchors / num_points
