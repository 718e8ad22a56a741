"""Shared experiment workbench: scenes, trained models, renders — cached.

The paper's evaluation renders ten scenes at 800x800 with 192 samples from
trained Instant-NGP checkpoints.  The workbench reproduces that setup at a
laptop-friendly scale (see DESIGN.md "Workload scaling"): each scene is
distilled once into a model checkpoint cached on disk under
``.cache/models``, and renders are memoised per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import ASDRConfig
from repro.errors import ConfigurationError
from repro.core.pipeline import ASDRRenderer
from repro.core.stats import ASDRRenderResult
from repro.exec.sequence import SequenceRender, SequenceTrace, render_camera_path
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.io import (
    load_instant_ngp,
    load_tensorf,
    save_instant_ngp,
    save_tensorf,
)
from repro.nerf.model import InstantNGPConfig, InstantNGPModel
from repro.nerf.renderer import BaselineRenderer, RenderResult
from repro.nerf.tensorf import TensoRFConfig, TensoRFModel
from repro.nerf.training import TrainingConfig, distill_scene
from repro.scenes.cameras import CameraPath
from repro.scenes.dataset import SceneDataset, load_dataset
from repro.utils.rng import derive_seed

#: Experiment-scale grid: 8 levels, 2^13 entries (the paper's 16 / 2^19
#: scaled down; the dense/hashed level split is preserved).
EXPERIMENT_GRID = HashGridConfig(
    num_levels=8, table_size=2**13, base_resolution=8, max_resolution=128
)

#: Experiment-scale model: widths chosen to preserve the paper's ~2/8/90
#: embedding/density/color FLOP split (Figure 5).
EXPERIMENT_MODEL = InstantNGPConfig(
    grid=EXPERIMENT_GRID,
    density_hidden_dim=32,
    color_hidden_dim=64,
    color_num_hidden=3,
)

EXPERIMENT_TENSORF = TensoRFConfig(
    resolution=48,
    num_components=8,
    density_hidden_dim=32,
    color_hidden_dim=64,
    color_num_hidden=3,
)


def experiment_accelerator(scale: str = "server"):
    """An :class:`~repro.arch.accelerator.ASDRAccelerator` for the
    experiment-scale model at the given design point (``server`` or
    ``edge``) — the single definition the video and serving experiments
    share, so a design-point change cannot diverge between them."""
    from repro.arch.accelerator import ASDRAccelerator
    from repro.arch.config import ArchConfig

    config = ArchConfig.server() if scale == "server" else ArchConfig.edge()
    return ASDRAccelerator(
        config,
        EXPERIMENT_GRID,
        EXPERIMENT_MODEL.density_mlp_config,
        EXPERIMENT_MODEL.color_mlp_config,
    )


@dataclass
class WorkbenchConfig:
    """Scale and caching knobs of the experiment workbench.

    Attributes:
        width / height: Render resolution.
        num_samples: Full per-ray budget ``ns``.
        train_steps / train_batch: Distillation effort per scene.
        seed: Master seed.
        cache_dir: Checkpoint directory (created on demand).
    """

    width: int = 56
    height: int = 56
    num_samples: int = 48
    train_steps: int = 250
    train_batch: int = 1024
    seed: int = 7
    cache_dir: str = ".cache/models"


class Workbench:
    """Builds and memoises datasets, models and renders for experiments."""

    def __init__(self, config: Optional[WorkbenchConfig] = None) -> None:
        self.config = config or WorkbenchConfig()
        self._datasets: Dict[str, SceneDataset] = {}
        self._models: Dict[str, InstantNGPModel] = {}
        self._tensorf_models: Dict[str, TensoRFModel] = {}
        self._renders: Dict[Tuple, object] = {}

    # ------------------------------------------------------------------
    def dataset(self, scene: str) -> SceneDataset:
        if scene not in self._datasets:
            self._datasets[scene] = load_dataset(
                scene, width=self.config.width, height=self.config.height
            )
        return self._datasets[scene]

    def reference(self, scene: str, view: int = 0) -> np.ndarray:
        return self.dataset(scene).reference_image(view, num_samples=192)

    # ------------------------------------------------------------------
    def _checkpoint_path(self, scene: str, kind: str) -> Path:
        cfg = self.config
        root = Path(cfg.cache_dir)
        root.mkdir(parents=True, exist_ok=True)
        tag = f"{kind}-{scene}-s{cfg.seed}-t{cfg.train_steps}x{cfg.train_batch}"
        return root / f"{tag}.npz"

    def model(self, scene: str) -> InstantNGPModel:
        """The scene's distilled Instant-NGP model (disk-cached)."""
        if scene in self._models:
            return self._models[scene]
        path = self._checkpoint_path(scene, "ingp")
        if path.exists():
            model = load_instant_ngp(path)
        else:
            model = InstantNGPModel(
                EXPERIMENT_MODEL, seed=derive_seed(self.config.seed, scene)
            )
            distill_scene(
                model,
                self.dataset(scene).scene,
                TrainingConfig(
                    steps=self.config.train_steps,
                    batch_size=self.config.train_batch,
                    seed=self.config.seed,
                ),
            )
            save_instant_ngp(model, path)
        self._models[scene] = model
        return model

    def tensorf_model(self, scene: str) -> TensoRFModel:
        """The scene's distilled TensoRF model (disk-cached)."""
        if scene in self._tensorf_models:
            return self._tensorf_models[scene]
        path = self._checkpoint_path(scene, "tensorf")
        if path.exists():
            model = load_tensorf(path)
        else:
            model = TensoRFModel(
                EXPERIMENT_TENSORF, seed=derive_seed(self.config.seed, scene, "t")
            )
            distill_scene(
                model,
                self.dataset(scene).scene,
                TrainingConfig(
                    steps=self.config.train_steps,
                    batch_size=self.config.train_batch,
                    seed=self.config.seed,
                ),
            )
            save_tensorf(model, path)
        self._tensorf_models[scene] = model
        return model

    # ------------------------------------------------------------------
    def baseline_render(
        self, scene: str, view: int = 0, tensorf: bool = False
    ) -> RenderResult:
        """Fixed-budget (original pipeline) render, memoised."""
        key = ("baseline", scene, view, tensorf)
        if key not in self._renders:
            model = self.tensorf_model(scene) if tensorf else self.model(scene)
            renderer = BaselineRenderer(model, num_samples=self.config.num_samples)
            self._renders[key] = renderer.render_image(self.dataset(scene).cameras[view])
        return self._renders[key]

    def asdr_render(
        self,
        scene: str,
        view: int = 0,
        asdr_config: Optional[ASDRConfig] = None,
        tensorf: bool = False,
    ) -> ASDRRenderResult:
        """ASDR two-phase render, memoised per configuration."""
        asdr_config = asdr_config or ASDRConfig()
        key = ("asdr", scene, view, tensorf, asdr_config.cache_key())
        if key not in self._renders:
            model = self.tensorf_model(scene) if tensorf else self.model(scene)
            renderer = ASDRRenderer(
                model, config=asdr_config, num_samples=self.config.num_samples
            )
            self._renders[key] = renderer.render_image(self.dataset(scene).cameras[view])
        return self._renders[key]

    def frame_trace(
        self,
        scene: str,
        view: int = 0,
        asdr_config: Optional[ASDRConfig] = None,
        tensorf: bool = False,
        baseline: bool = False,
    ):
        """The memoised render's :class:`~repro.exec.frame_trace.FrameTrace`.

        Render memoisation (keyed by the same canonical config key) makes
        the trace shared state: a render→simulate experiment pair, or the
        fig17/fig18/fig19 trio simulating one frame three times, replays
        one trace instead of re-deriving rays, samples and voxel corners.
        """
        result = (
            self.baseline_render(scene, view, tensorf)
            if baseline
            else self.asdr_render(scene, view, asdr_config, tensorf)
        )
        return result.trace

    def group_size(self, asdr_config: Optional[ASDRConfig] = None) -> int:
        asdr_config = asdr_config or ASDRConfig()
        approx = asdr_config.approximation
        return approx.group_size if approx else 1

    # ------------------------------------------------------------------
    def sequence_render(
        self,
        scene: str,
        path: CameraPath,
        asdr_config: Optional[ASDRConfig] = None,
        tensorf: bool = False,
        baseline: bool = False,
        probe_interval: int = 0,
        reuse_poses: bool = True,
        reproject=None,
        adaptive_overlap: Optional[float] = None,
    ) -> SequenceRender:
        """Render a whole camera-path sequence, memoised.

        Sequences are cached under
        ``(scene, CameraPath.cache_key(), config key, reuse knobs)`` — the
        sequence-level analogue of the per-frame render memo, so the video
        experiment, its benchmark and the CLI all replay one
        :class:`~repro.exec.sequence.SequenceTrace` (its frames' memoised
        streams included) instead of re-rendering the path.

        Args:
            scene: Scene name.
            path: The camera trajectory (its resolution applies, not the
                workbench's).
            asdr_config: ASDR algorithm settings (ignored for baseline).
            tensorf: Use the TensoRF backend instead of Instant-NGP.
            baseline: Render the fixed-budget pipeline instead of ASDR
                (no plan reuse — the original pipeline has no Phase I).
            probe_interval: ASDR Phase I cadence (see
                :meth:`repro.core.pipeline.ASDRRenderer.render_sequence`);
                default ``0`` probes the first frame only.
            reuse_poses: Replay bit-identical poses.
            reproject: Optional
                :class:`~repro.core.reprojection.ReprojectionConfig` —
                arm temporal reprojection for non-keyframes (ASDR only).
            adaptive_overlap: Optional overlap threshold replacing the
                fixed ``probe_interval`` cadence (ASDR only).
        """
        if baseline and (reproject is not None or adaptive_overlap is not None):
            raise ConfigurationError(
                "reprojection/adaptive keyframing need Phase I plans; the "
                "baseline pipeline has none"
            )
        asdr_config = asdr_config or ASDRConfig()
        key = (
            "sequence",
            scene,
            path.cache_key(),
            tensorf,
            baseline,
            probe_interval,
            reuse_poses,
            None if baseline else asdr_config.cache_key(),
            None if reproject is None else reproject.cache_key(),
            adaptive_overlap,
        )
        if key not in self._renders:
            model = self.tensorf_model(scene) if tensorf else self.model(scene)
            cameras = path.cameras()
            if baseline:
                renderer = BaselineRenderer(
                    model, num_samples=self.config.num_samples
                )
                outcome = render_camera_path(
                    renderer.render_image,
                    cameras,
                    path_key=path.cache_key(),
                    kind="baseline",
                    reuse_poses=reuse_poses,
                )
            else:
                asdr = ASDRRenderer(
                    model, config=asdr_config, num_samples=self.config.num_samples
                )
                outcome = asdr.render_sequence(
                    cameras,
                    probe_interval=probe_interval,
                    reuse_poses=reuse_poses,
                    path_key=path.cache_key(),
                    reproject=reproject,
                    adaptive_overlap=adaptive_overlap,
                )
            self._renders[key] = outcome
        return self._renders[key]

    def client_sequence(self, request) -> SequenceRender:
        """The memoised sequence render for one serving client.

        Maps a :class:`~repro.serving.request.ClientRequest` onto
        :meth:`sequence_render`, so every serving run — any policy, any
        client mix — shares one rendered
        :class:`~repro.exec.sequence.SequenceTrace` per distinct
        ``(scene, path, probe_interval, backend)``: twin clients cost no
        extra rendering, and repeated ``repro serve`` invocations against
        one workbench replay warm traces."""
        return self.sequence_render(
            request.scene,
            request.path,
            tensorf=request.tensorf,
            probe_interval=request.probe_interval,
        )

    def sequence_trace(
        self,
        scene: str,
        path: CameraPath,
        asdr_config: Optional[ASDRConfig] = None,
        tensorf: bool = False,
        baseline: bool = False,
        probe_interval: int = 0,
        reuse_poses: bool = True,
    ) -> SequenceTrace:
        """The memoised sequence render's
        :class:`~repro.exec.sequence.SequenceTrace` (shared state, like
        :meth:`frame_trace` for single frames)."""
        return self.sequence_render(
            scene,
            path,
            asdr_config=asdr_config,
            tensorf=tensorf,
            baseline=baseline,
            probe_interval=probe_interval,
            reuse_poses=reuse_poses,
        ).trace
