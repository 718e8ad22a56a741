"""Volume rendering (Eq. 1 of the paper) and helpers.

Given per-sample densities ``sigma_i``, colors ``c_i`` and inter-sample
distances ``delta_i`` along each ray, the pixel color is

    C = sum_i T_i * alpha_i * c_i,   alpha_i = 1 - exp(-sigma_i * delta_i),
    T_i = prod_{j<i} (1 - alpha_j).

All functions are batched over rays: inputs have shape ``(R, N)`` or
``(R, N, 3)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def alphas_from_sigmas(sigmas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Per-sample opacity ``alpha_i = 1 - exp(-sigma_i * delta_i)``."""
    return 1.0 - np.exp(-np.maximum(sigmas, 0.0) * deltas)


def transmittance(alphas: np.ndarray) -> np.ndarray:
    """Accumulated transparency ``T_i = prod_{j<i} (1 - alpha_j)``.

    Returns an array of the same shape as ``alphas``; ``T_0 = 1``.
    """
    trans = np.cumprod(1.0 - alphas + 1e-10, axis=-1)
    return np.concatenate(
        [np.ones_like(trans[..., :1]), trans[..., :-1]], axis=-1
    )


def composite(
    sigmas: np.ndarray,
    colors: np.ndarray,
    deltas: np.ndarray,
    background: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Composite samples into pixel colors.

    Args:
        sigmas: ``(R, N)`` densities.
        colors: ``(R, N, 3)`` sample colors.
        deltas: ``(R, N)`` inter-sample distances.
        background: Background intensity blended in through residual
            transmittance (Synthetic-NeRF uses a white background).

    Returns:
        ``(rgb, opacity)`` where ``rgb`` is ``(R, 3)`` and ``opacity`` is
        the ``(R,)`` accumulated alpha.
    """
    alphas = alphas_from_sigmas(sigmas, deltas)
    trans = transmittance(alphas)
    weights = trans * alphas
    rgb = np.sum(weights[..., None] * colors, axis=-2)
    opacity = np.sum(weights, axis=-1)
    rgb = rgb + (1.0 - opacity)[..., None] * background
    return rgb, opacity


def composite_prefix(
    sigmas: np.ndarray,
    colors: np.ndarray,
    deltas: np.ndarray,
    counts: np.ndarray,
    background: float = 1.0,
) -> np.ndarray:
    """Composite using only the first ``counts[r]`` samples of each ray.

    This is the primitive behind the adaptive-sampling probe (Section 4.2):
    one full-budget prediction pass supports volume rendering at many
    candidate sample counts, because rendering with ``ns_i < ns`` points
    just truncates the sum.

    Args:
        counts: ``(R,)`` integer prefix lengths, each in ``[0, N]``.

    Returns:
        ``(R, 3)`` colors.
    """
    n = sigmas.shape[-1]
    mask = np.arange(n)[None, :] < np.asarray(counts)[:, None]
    masked_sigmas = np.where(mask, sigmas, 0.0)
    rgb, _ = composite(masked_sigmas, colors, deltas, background)
    return rgb


def subsample_indices(num_samples: int, count: int) -> np.ndarray:
    """``count`` near-uniformly spread indices into ``num_samples`` samples.

    Rendering a ray "with ``ns_i`` points" (Section 4.2) means ``ns_i``
    points spread across the whole ray; reusing the full-budget predictions
    at these indices reproduces that render without new MLP work.
    """
    count = max(1, min(count, num_samples))
    return np.unique(np.round(np.linspace(0, num_samples - 1, count)).astype(np.int64))


def composite_subsample(
    sigmas: np.ndarray,
    colors: np.ndarray,
    deltas: np.ndarray,
    count: int,
    background: float = 1.0,
) -> np.ndarray:
    """Composite using ``count`` uniformly spread samples of each ray.

    The subset's inter-sample distances grow by ``N / count`` so the ray
    span (and therefore optical depth of homogeneous media) is preserved —
    this matches rendering the ray from scratch with ``count`` stratified
    samples.
    """
    n = sigmas.shape[-1]
    idx = subsample_indices(n, count)
    scale = n / len(idx)
    rgb, _ = composite(
        sigmas[:, idx], colors[:, idx, :], deltas[:, idx] * scale, background
    )
    return rgb


def early_termination_counts(
    sigmas: np.ndarray, deltas: np.ndarray, opacity_threshold: float = 0.99
) -> np.ndarray:
    """Samples each ray needs before accumulated opacity crosses threshold.

    Implements the classic early-termination optimisation (Section 6.6):
    once ``1 - T_i`` exceeds ``opacity_threshold`` the remaining samples
    contribute (almost) nothing.  Returns ``(R,)`` counts in ``[1, N]``.
    """
    alphas = alphas_from_sigmas(sigmas, deltas)
    trans = transmittance(alphas)
    weights = trans * alphas
    opacity = np.cumsum(weights, axis=-1)
    done = opacity >= opacity_threshold
    n = sigmas.shape[-1]
    first = np.where(done.any(axis=-1), done.argmax(axis=-1) + 1, n)
    return first.astype(np.int64)
