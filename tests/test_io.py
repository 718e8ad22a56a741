"""Tests for model checkpoint serialisation."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.nerf.io import (
    load_instant_ngp,
    load_tensorf,
    save_instant_ngp,
    save_tensorf,
)
from repro.nerf.model import InstantNGPModel
from repro.nerf.tensorf import TensoRFModel
from tests.conftest import TEST_MODEL_CONFIG, TEST_TENSORF_CONFIG


class TestInstantNGPCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path, rng):
        model = InstantNGPModel(TEST_MODEL_CONFIG, seed=3)
        path = tmp_path / "model.npz"
        save_instant_ngp(model, path)
        loaded = load_instant_ngp(path)
        pts = rng.random((20, 3))
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        s1, c1 = model.query(pts, dirs)
        s2, c2 = loaded.query(pts, dirs)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(c1, c2)

    def test_roundtrip_preserves_config(self, tmp_path):
        model = InstantNGPModel(TEST_MODEL_CONFIG, seed=3)
        path = tmp_path / "model.npz"
        save_instant_ngp(model, path)
        loaded = load_instant_ngp(path)
        assert loaded.config == TEST_MODEL_CONFIG

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ReproError):
            load_instant_ngp(path)


class TestTensoRFCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path, rng):
        model = TensoRFModel(TEST_TENSORF_CONFIG, seed=3)
        path = tmp_path / "tensorf.npz"
        save_tensorf(model, path)
        loaded = load_tensorf(path)
        pts = rng.random((15, 3))
        np.testing.assert_allclose(model.encode(pts), loaded.encode(pts))

    def test_roundtrip_preserves_config(self, tmp_path):
        model = TensoRFModel(TEST_TENSORF_CONFIG, seed=3)
        path = tmp_path / "tensorf.npz"
        save_tensorf(model, path)
        assert load_tensorf(path).config == TEST_TENSORF_CONFIG

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ReproError):
            load_tensorf(path)
