"""Pixel rendering difficulty (Eq. 3) and per-probe budget selection.

A probe ray is rendered once at the full budget ``ns``; volume rendering is
then *re-composited* with each candidate prefix ``ns_i`` (cheap — the MLP
outputs are reused, Section 4.2).  The difficulty of candidate ``ns_i`` is

    rd_i = max(|r_ns - r_nsi|, |g_ns - g_nsi|, |b_ns - b_nsi|)

and the pixel's budget is the smallest candidate with ``rd_i <= delta``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.nerf.volume import composite, composite_subsample


def rendering_difficulty(full_rgb: np.ndarray, candidate_rgb: np.ndarray) -> np.ndarray:
    """Eq. (3): max channel deviation from the full-budget render.

    Args:
        full_rgb: ``(R, 3)`` colors at the full budget.
        candidate_rgb: ``(R, 3)`` colors at a candidate budget.

    Returns:
        ``(R,)`` difficulties.
    """
    return np.max(np.abs(full_rgb - candidate_rgb), axis=-1)


def select_sample_budgets(
    sigmas: np.ndarray,
    colors: np.ndarray,
    deltas: np.ndarray,
    candidates: Sequence[int],
    threshold: float,
    background: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Choose each probe ray's budget from candidate prefix renders.

    Args:
        sigmas / colors / deltas: Full-budget predictions, ``(R, N[,3])``.
        candidates: Ascending candidate budgets; the last entry must be the
            full budget ``N``.
        threshold: Difficulty threshold ``delta``.

    Returns:
        ``(budgets, full_rgb)``: the ``(R,)`` selected budgets and the
        ``(R, 3)`` full-budget colors (Phase I's render of the probes).
    """
    n = sigmas.shape[-1]
    candidates = list(candidates)
    if candidates[-1] != n:
        raise ValueError(
            f"last candidate must equal the full budget ({n}), got {candidates[-1]}"
        )
    full_rgb, _ = composite(sigmas, colors, deltas, background)
    num_rays = sigmas.shape[0]
    budgets = np.full(num_rays, n, dtype=np.int64)
    undecided = np.ones(num_rays, dtype=bool)
    for ns_i in candidates[:-1]:
        if not undecided.any():
            break
        rgb_i = composite_subsample(sigmas, colors, deltas, ns_i, background)
        rd = rendering_difficulty(full_rgb, rgb_i)
        accept = undecided & (rd <= threshold)
        budgets[accept] = ns_i
        undecided &= ~accept
    return budgets, full_rgb
