"""Tests for CIM-precision quantised inference."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.quality import QuantizedEncodingModel
from repro.metrics.image import psnr
from repro.nerf.quantization import (
    QuantizedInstantNGP,
    fake_quantize,
    quantization_error_profile,
    quantize_symmetric,
)
from repro.nerf.renderer import BaselineRenderer


class TestQuantizeSymmetric:
    def test_roundtrip_small_error(self, rng):
        values = rng.normal(size=(32, 16))
        q, scale = quantize_symmetric(values, 8)
        assert np.max(np.abs(q * scale - values)) <= scale / 2 + 1e-12

    def test_range_respected(self, rng):
        values = rng.normal(size=100)
        q, _ = quantize_symmetric(values, 4)
        assert q.max() <= 7 and q.min() >= -8

    def test_zeros_safe(self):
        q, scale = quantize_symmetric(np.zeros(5), 8)
        assert scale == 1.0
        np.testing.assert_array_equal(q, np.zeros(5))

    def test_too_few_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            quantize_symmetric(np.ones(3), 1)

    def test_fake_quantize_more_bits_less_error(self, rng):
        values = rng.normal(size=1000)
        err4 = np.abs(fake_quantize(values, 4) - values).mean()
        err8 = np.abs(fake_quantize(values, 8) - values).mean()
        assert err8 < err4


class TestQuantizedModel:
    def test_interface_preserved(self, trained_model, rng):
        q = QuantizedInstantNGP(trained_model)
        pts = rng.random((10, 3))
        sigma, geo = q.query_density(pts)
        assert sigma.shape == (10,)
        dirs = rng.normal(size=(10, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        assert q.query_color(geo, dirs).shape == (10, 3)

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda m: QuantizedInstantNGP(m, weight_bits=8, table_bits=3),
            lambda m: QuantizedEncodingModel(m, bits=3),
        ],
        ids=["cim", "neurex"],
    )
    def test_quantized_density_differs_float_bit_identical(
        self, trained_model, rng, wrap
    ):
        """The wrapper's encoder copy holds its own quantised tables."""
        pts = rng.random((20, 3))
        before, _ = trained_model.query_density(pts)
        quantized, _ = wrap(trained_model).query_density(pts)
        after, _ = trained_model.query_density(pts)
        assert not np.array_equal(quantized, before)
        assert after.tobytes() == before.tobytes()

    def test_original_model_untouched(self, trained_model, rng):
        pts = rng.random((20, 3))
        before, _ = trained_model.query_density(pts)
        QuantizedInstantNGP(trained_model, weight_bits=3, table_bits=3)
        after, _ = trained_model.query_density(pts)
        np.testing.assert_array_equal(before, after)

    def test_8bit_render_near_lossless(self, trained_model, lego_dataset):
        """8-bit crossbar weights preserve quality (NeuRex-style claim)."""
        camera = lego_dataset.cameras[0]
        full = BaselineRenderer(trained_model, num_samples=16).render_image(camera)
        q = QuantizedInstantNGP(trained_model, weight_bits=8, table_bits=8)
        quant = BaselineRenderer(q, num_samples=16).render_image(camera)
        assert psnr(quant.image, full.image) > 30.0

    def test_low_bits_degrade(self, trained_model, lego_dataset):
        camera = lego_dataset.cameras[0]
        full = BaselineRenderer(trained_model, num_samples=16).render_image(camera)
        q8 = QuantizedInstantNGP(trained_model, 8, 8)
        q3 = QuantizedInstantNGP(trained_model, 3, 3)
        p8 = psnr(
            BaselineRenderer(q8, num_samples=16).render_image(camera).image,
            full.image,
        )
        p3 = psnr(
            BaselineRenderer(q3, num_samples=16).render_image(camera).image,
            full.image,
        )
        assert p8 > p3

    def test_error_profile_trend(self, trained_model, rng):
        pts = rng.random((400, 3))
        profile = quantization_error_profile(trained_model, pts, [3, 5, 8])
        errors = [e for _, e in profile]
        assert errors[0] >= errors[-1]
        assert errors[-1] < 1.0
