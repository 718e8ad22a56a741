"""Shared fixtures: tiny configurations and session-scoped trained models.

Everything here is sized for speed: 6-level grids with 2^11-entry tables,
16x16 to 24x24 images, and short distillation runs.  The session-scoped
model fixtures are trained once and reused by every test that needs a
plausible radiance field.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ASDRConfig
from repro.core.pipeline import ASDRRenderer
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.model import InstantNGPConfig, InstantNGPModel
from repro.nerf.renderer import BaselineRenderer
from repro.nerf.tensorf import TensoRFConfig, TensoRFModel
from repro.nerf.training import TrainingConfig, distill_scene
from repro.scenes.dataset import SceneDataset, load_dataset


TEST_GRID = HashGridConfig(
    num_levels=6, table_size=2**11, base_resolution=4, max_resolution=64
)

TEST_MODEL_CONFIG = InstantNGPConfig(
    grid=TEST_GRID,
    geo_feature_dim=15,
    density_hidden_dim=32,
    density_num_hidden=1,
    color_hidden_dim=32,
    color_num_hidden=2,
)

TEST_TENSORF_CONFIG = TensoRFConfig(
    resolution=32,
    num_components=4,
    density_hidden_dim=32,
    color_hidden_dim=32,
    color_num_hidden=2,
)

TEST_TRAINING = TrainingConfig(steps=120, batch_size=512, seed=3)


def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help=(
            "run the expensive randomized profiles (e.g. 200+ hypothesis "
            "examples in tests/test_serving_properties.py instead of the "
            "bounded CI budget)"
        ),
    )


def pytest_configure(config):
    # Register hypothesis profiles when the library is available; the
    # property harness skips itself otherwise.  ``deadline=None``: a
    # single serving example can legitimately take seconds.
    try:
        from hypothesis import settings
    except ImportError:
        return
    settings.register_profile("repro-ci", max_examples=25, deadline=None)
    settings.register_profile("repro-slow", max_examples=200, deadline=None)
    settings.load_profile(
        "repro-slow" if config.getoption("--slow") else "repro-ci"
    )


@pytest.fixture(scope="session")
def lego_dataset() -> SceneDataset:
    return load_dataset("lego", width=24, height=24)


@pytest.fixture(scope="session")
def trained_model(lego_dataset) -> InstantNGPModel:
    """A small Instant-NGP model distilled on the lego scene."""
    model = InstantNGPModel(TEST_MODEL_CONFIG, seed=11)
    distill_scene(model, lego_dataset.scene, TEST_TRAINING)
    return model


@pytest.fixture(scope="session")
def trained_tensorf(lego_dataset) -> TensoRFModel:
    """A small TensoRF model distilled on the lego scene."""
    model = TensoRFModel(TEST_TENSORF_CONFIG, seed=11)
    distill_scene(model, lego_dataset.scene, TEST_TRAINING)
    return model


@pytest.fixture(scope="session")
def baseline_result(trained_model, lego_dataset):
    renderer = BaselineRenderer(trained_model, num_samples=24)
    return renderer.render_image(lego_dataset.cameras[0])


@pytest.fixture(scope="session")
def asdr_result(trained_model, lego_dataset):
    renderer = ASDRRenderer(trained_model, num_samples=24)
    return renderer.render_image(lego_dataset.cameras[0])


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
