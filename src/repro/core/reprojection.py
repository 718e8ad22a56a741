"""Forward temporal reprojection: warp geometry and keyframe scheduling.

The video pipeline's profile-guided idiom turned on the time axis: the
previous frame already computed most of this frame's pixels, so measure
where they land under the camera delta and reuse them instead of
re-marching rays through the MLP.

Three pure-geometry primitives live here (no model evaluation — every
quantity is derived from camera intrinsics/poses and the keyframe's
budget map, which is exactly why the serving layer can afford to run
them per frame):

* :func:`warp_sources` — for every pixel of the new frame, the source
  pixel of the previous frame whose content lands there when the world
  is approximated by a proxy depth along each ray, plus a *parallax
  sensitivity* bound (how far the source moves when the unknown true
  depth varies around the proxy).  Depth-insensitive pixels warp
  reliably no matter what the scene actually contains.
* :func:`classify_rays` — the converged / refinable / fresh split that
  drives per-ray skipping: converged rays reuse the warped pixel at
  scan-out cost, refinable rays re-render at a reduced budget, fresh
  rays (disocclusions, out-of-view) pay the full trace.
* :func:`plan_overlap` — the adaptive keyframe scheduler's online
  estimate of ``temporal_deltas`` ray-budget overlap: the fraction of
  pixels whose warped keyframe budget still matches the budget the
  reused plan assigns them.  When the camera drifts far enough that the
  measured overlap drops below a calibrated threshold, the difficulty
  structure has moved and Phase I must re-probe.

Everything downstream (renderer, serving degrade, experiments) consumes
these through :class:`ReprojectionConfig`, the one knob bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Scene centre of the unit-cube scenes every workbench path orbits —
#: the default proxy-depth anchor (see :attr:`ReprojectionConfig.depth`).
SCENE_CENTER = np.array([0.5, 0.5, 0.5])

#: Relative spread of the proxy depth used to bound parallax sensitivity:
#: the source coordinate is projected at ``depth * (1 ± spread)`` and the
#: distance between the two projections bounds the warp error any true
#: depth inside that band can cause.
DEPTH_SPREAD = 0.25

@dataclass(frozen=True)
class ReprojectionConfig:
    """Knobs of the temporal-reprojection pass.

    Attributes:
        converged_px: Parallax-sensitivity ceiling (pixels) below which a
            ray is *converged* — its warped pixel is reused outright.
            The renderer thresholds the sensitivity a ray has
            *accumulated* since it last rendered, so this also bounds
            total drift across chained warped frames.
        refine_px: Sensitivity ceiling for *refinable* rays, which
            re-render at ``refine_fraction`` of their plan budget;
            anything above is *fresh* (full budget).
        refine_fraction: Budget multiplier of refinable rays, in (0, 1].
        validation_stride: Every ``stride``-th converged ray is rendered
            anyway and compared against its warped value — the measured
            PSNR feeds the guard.  ``0`` disables validation (the guard
            then never trips).
        min_psnr: PSNR guard (dB): when the validation rays' warp error
            exceeds this floor the whole frame falls back to ordinary
            plan reuse, so quality never silently regresses.
        depth: Proxy depth (distance along each ray) used by the warp;
            ``None`` measures the camera's distance to the scene centre.
    """

    converged_px: float = 1.0
    refine_px: float = 3.0
    refine_fraction: float = 0.5
    validation_stride: int = 16
    min_psnr: float = 24.0
    depth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.converged_px < 0 or self.refine_px < self.converged_px:
            raise ConfigurationError(
                "need 0 <= converged_px <= refine_px, got "
                f"{self.converged_px} / {self.refine_px}"
            )
        if not 0.0 < self.refine_fraction <= 1.0:
            raise ConfigurationError(
                f"refine_fraction must be in (0, 1], got {self.refine_fraction}"
            )
        if self.validation_stride < 0:
            raise ConfigurationError("validation_stride must be >= 0")

    def cache_key(self) -> Tuple:
        """Hashable identity for workbench memoisation."""
        return (
            "reproject",
            self.converged_px,
            self.refine_px,
            self.refine_fraction,
            self.validation_stride,
            self.min_psnr,
            self.depth,
        )


def _proxy_depth(camera, depth: Optional[float]) -> float:
    if depth is not None:
        return float(depth)
    return float(np.linalg.norm(camera.position - SCENE_CENTER))


def _project_into(prev_camera, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project world ``points`` into ``prev_camera``'s pixel grid.

    Returns float ``(rows, cols, in_front)`` under the repo's OpenGL
    convention (camera looks down ``-z``; see ``Camera.pixel_rays``).
    """
    pose = prev_camera.camera_to_world
    rot = pose[:3, :3]
    cam = (points - pose[:3, 3]) @ rot  # == rot.T @ (p - t), row-wise
    z = cam[:, 2]
    in_front = z < -1e-9
    safe = np.where(in_front, -z, 1.0)
    x = cam[:, 0] / safe
    y = cam[:, 1] / safe
    cols = x * prev_camera.focal + prev_camera.width / 2.0 - 0.5
    rows = -y * prev_camera.focal + prev_camera.height / 2.0 - 0.5
    return rows, cols, in_front


def warp_sources(
    camera,
    prev_camera,
    depth: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-warp correspondence from ``prev_camera`` to ``camera``.

    For every pixel of the new frame, walk its ray to the proxy depth and
    project that world point back into the previous frame.

    Returns:
        ``(src_ids, valid, sensitivity_px)`` — flat source pixel index in
        the previous frame (nearest neighbour), a validity mask (source
        in front of and inside the previous frame at every probed depth),
        and the parallax-sensitivity bound in pixels: the screen-space
        distance between the projections at ``depth * (1 ± DEPTH_SPREAD)``.
        Invalid pixels carry ``src_ids`` clamped in range and infinite
        sensitivity, so any threshold classifies them fresh.
    """
    origins, directions = camera.pixel_rays()
    t0 = _proxy_depth(camera, depth)
    h, w = prev_camera.height, prev_camera.width

    rows0, cols0, front0 = _project_into(prev_camera, origins + directions * t0)
    rows_n, cols_n, front_n = _project_into(
        prev_camera, origins + directions * (t0 * (1.0 - DEPTH_SPREAD))
    )
    rows_f, cols_f, front_f = _project_into(
        prev_camera, origins + directions * (t0 * (1.0 + DEPTH_SPREAD))
    )

    src_rows = np.rint(rows0).astype(np.int64)
    src_cols = np.rint(cols0).astype(np.int64)
    inside = (
        (src_rows >= 0) & (src_rows < h) & (src_cols >= 0) & (src_cols < w)
    )
    valid = front0 & front_n & front_f & inside
    sensitivity = np.where(
        valid, np.hypot(rows_n - rows_f, cols_n - cols_f), np.inf
    )
    src_ids = (
        np.clip(src_rows, 0, h - 1) * w + np.clip(src_cols, 0, w - 1)
    )
    return src_ids, valid, sensitivity


def classify_rays(
    sensitivity: np.ndarray,
    valid: np.ndarray,
    config: ReprojectionConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The converged / refinable / fresh split as boolean masks.

    Every pixel lands in exactly one class: converged pixels warp at
    scan-out cost, refinable pixels re-render at a reduced budget, fresh
    pixels pay the full trace (disocclusions and anything the parallax
    bound cannot vouch for).
    """
    converged = valid & (sensitivity <= config.converged_px)
    refinable = valid & ~converged & (sensitivity <= config.refine_px)
    fresh = ~(converged | refinable)
    return converged, refinable, fresh


def plan_overlap(
    camera,
    keyframe_camera,
    budgets: np.ndarray,
    depth: Optional[float] = None,
) -> float:
    """Measured ray-budget overlap between a reused plan and its keyframe.

    The online form of
    :meth:`~repro.exec.sequence.SequenceTrace.temporal_deltas` ray-budget
    overlap: the reused plan assigns pixel ``i`` the budget
    ``budgets[i]``, while the keyframe actually measured difficulty where
    pixel ``i``'s content used to be — ``budgets[warp(i)]``.  The
    returned fraction of pixels where the two agree (out-of-view pixels
    count as disagreement) is the staleness signal adaptive keyframe
    scheduling thresholds: identical poses score 1.0 and the score decays
    as the camera drifts off the keyframe.
    """
    budgets = np.asarray(budgets)
    if budgets.size != camera.height * camera.width:
        raise ConfigurationError(
            f"plan covers {budgets.size} pixels, camera has "
            f"{camera.height * camera.width}"
        )
    src_ids, valid, _ = warp_sources(camera, keyframe_camera, depth=depth)
    match = valid & (budgets[src_ids] == budgets)
    return float(np.mean(match)) if budgets.size else 1.0
