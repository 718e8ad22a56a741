"""Scene datasets: analytic scene + cameras + ground-truth renders.

The ground-truth reference image of a view is obtained by volume-rendering
the *analytic* field with a dense sample budget — the stand-in for the
datasets' photographs (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.nerf.rays import sample_along_rays
from repro.nerf.volume import composite
from repro.scenes.analytic import AnalyticScene, make_scene
from repro.scenes.cameras import Camera, orbit_cameras


@dataclass
class SceneDataset:
    """A scene with its evaluation cameras and reference images."""

    scene: AnalyticScene
    cameras: List[Camera]
    _references: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.scene.name

    def reference_image(
        self, view: int = 0, num_samples: int = 256, background: float = 1.0
    ) -> np.ndarray:
        """Ground-truth render of ``view`` from the analytic field (cached)."""
        if view not in self._references:
            self._references[view] = render_analytic(
                self.scene,
                self.cameras[view],
                num_samples=num_samples,
                background=background,
            )
        return self._references[view]


def render_analytic(
    scene: AnalyticScene,
    camera: Camera,
    num_samples: int = 256,
    background: float = 1.0,
    batch_rays: int = 2048,
) -> np.ndarray:
    """Volume-render the analytic field directly (no learned model)."""
    origins, directions = camera.pixel_rays()
    n_rays = origins.shape[0]
    image = np.zeros((n_rays, 3))
    for start in range(0, n_rays, batch_rays):
        sl = slice(start, min(start + batch_rays, n_rays))
        points, deltas, hit = sample_along_rays(origins[sl], directions[sl], num_samples)
        flat = points.reshape(-1, 3)
        dirs_rep = np.repeat(directions[sl], num_samples, axis=0)
        sigma = scene.density(flat).reshape(-1, num_samples)
        rgb = scene.color(flat, dirs_rep).reshape(-1, num_samples, 3)
        sigma = sigma * hit[:, None]
        image[sl], _ = composite(sigma, rgb, deltas, background)
    return image.reshape(camera.height, camera.width, 3)


def load_dataset(
    name: str,
    width: int = 72,
    height: int = 72,
    num_views: int = 4,
    radius: float = 1.4,
) -> SceneDataset:
    """Build the named dataset with an orbit of evaluation cameras.

    The default 72x72 resolution keeps the NumPy pipeline fast; the paper's
    800x800 is reachable by passing larger dimensions (slow-marked tests
    exercise this path).
    """
    scene = make_scene(name)
    cameras = orbit_cameras(num_views, width, height, radius=radius)
    return SceneDataset(scene=scene, cameras=cameras)
