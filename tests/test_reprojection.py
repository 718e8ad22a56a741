"""Temporal reprojection: warp geometry, guarded rendering, pricing.

Covers the reprojection contract end to end: the pure-geometry
primitives (forward warp, parallax-sensitivity classification, measured
plan/keyframe overlap), the PSNR-guarded reprojected render with its
accumulated-drift bound, the sequence-level wiring (including the
adaptive keyframe scheduler), and the trace/pricing invariants that keep
reprojected frames inside the engines' bit-identity envelope.
"""

import numpy as np
import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.core.pipeline import ASDRRenderer
from repro.core.reprojection import (
    ReprojectionConfig,
    classify_rays,
    plan_overlap,
    warp_sources,
)
from repro.errors import ConfigurationError, SimulationError
from repro.exec.frame_trace import FrameTrace
from repro.scenes.cameras import camera_path
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG
from tests.reference_pricer import reference_engine, reference_run


@pytest.fixture(scope="module")
def server_acc():
    return ASDRAccelerator(
        ArchConfig.server(),
        TEST_GRID,
        TEST_MODEL_CONFIG.density_mlp_config,
        TEST_MODEL_CONFIG.color_mlp_config,
    )


def _cams(frames, arc, size=16):
    return camera_path("orbit", frames, size, size, arc=arc).cameras()


class TestWarpGeometry:
    def test_identity_pose_warps_to_itself(self):
        cam = _cams(1, 0.1)[0]
        src_ids, valid, sensitivity = warp_sources(cam, cam)
        np.testing.assert_array_equal(src_ids, np.arange(16 * 16))
        assert valid.all()
        # The two probe depths project onto the same ray: zero parallax.
        assert np.allclose(sensitivity, 0.0, atol=1e-9)

    def test_sensitivity_grows_with_camera_delta(self):
        near = _cams(2, 0.02)
        far = _cams(2, 0.2)
        _, valid_n, sens_n = warp_sources(near[1], near[0])
        _, valid_f, sens_f = warp_sources(far[1], far[0])
        assert sens_n[valid_n].mean() < sens_f[valid_f].mean()

    def test_invalid_pixels_carry_infinite_sensitivity(self):
        # A quarter-orbit jump: part of the new frame's periphery falls
        # outside the previous camera's frustum at some probed depth.
        cams = _cams(2, 0.5)
        src_ids, valid, sensitivity = warp_sources(cams[1], cams[0])
        assert not valid.all()
        assert np.isinf(sensitivity[~valid]).all()
        # Clamped in range regardless, so fancy indexing stays safe.
        assert src_ids.min() >= 0 and src_ids.max() < 16 * 16

    def test_classification_partitions_every_ray(self):
        sensitivity = np.array([0.1, 0.9, 2.5, 9.0, 0.2])
        valid = np.array([True, True, True, True, False])
        cfg = ReprojectionConfig(converged_px=0.5, refine_px=3.0)
        converged, refinable, fresh = classify_rays(sensitivity, valid, cfg)
        np.testing.assert_array_equal(
            converged, [True, False, False, False, False]
        )
        np.testing.assert_array_equal(
            refinable, [False, True, True, False, False]
        )
        # Invalid rays are always fresh, however small their bound.
        np.testing.assert_array_equal(
            fresh, [False, False, False, True, True]
        )
        assert ((converged ^ refinable ^ fresh)).all()

    def test_plan_overlap_identity_and_decay(self):
        cams = _cams(3, 0.3)
        budgets = 1 + np.arange(16 * 16) % 7
        assert plan_overlap(cams[0], cams[0], budgets) == 1.0
        near = plan_overlap(cams[1], cams[0], budgets)
        far = plan_overlap(cams[2], cams[0], budgets)
        assert far <= near <= 1.0

    def test_plan_overlap_rejects_resolution_mismatch(self):
        cams = _cams(2, 0.1)
        with pytest.raises(ConfigurationError):
            plan_overlap(cams[1], cams[0], np.ones(9))


class TestReprojectionConfig:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            ReprojectionConfig(converged_px=-0.5)
        with pytest.raises(ConfigurationError):
            ReprojectionConfig(converged_px=2.0, refine_px=1.0)
        with pytest.raises(ConfigurationError):
            ReprojectionConfig(refine_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ReprojectionConfig(refine_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ReprojectionConfig(validation_stride=-1)

    def test_cache_key_stable_and_distinct(self):
        a = ReprojectionConfig()
        b = ReprojectionConfig()
        c = ReprojectionConfig(converged_px=0.5)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()


class TestRenderReprojected:
    @pytest.fixture(scope="class")
    def renderer(self, trained_model):
        return ASDRRenderer(trained_model, num_samples=16)

    @pytest.fixture(scope="class")
    def keyframe(self, renderer):
        cams = _cams(2, 0.02)
        return cams, renderer.render_image(cams[0])

    def test_converged_rays_skip_every_wavefront(self, renderer, keyframe):
        cams, base = keyframe
        result = renderer.render_reprojected(
            cams[1], base.plan, cams[0], base.image, ReprojectionConfig()
        )
        rec = result.reprojection
        assert rec["reprojected"] > 0 and not rec["fallback"]
        assert result.trace.reprojected_pixels == rec["reprojected"]
        marched = np.concatenate(
            [wf.ray_ids for wf in result.trace.wavefronts]
        )
        # Every ray is either marched exactly once or warped, never both.
        assert len(marched) == len(np.unique(marched))
        assert len(marched) + rec["reprojected"] == 16 * 16
        # Warped pixels are delivered, so scan-out sees the full frame.
        assert result.trace.rendered_pixels == 16 * 16

    def test_guard_fallback_degenerates_to_plan_reuse(
        self, renderer, keyframe
    ):
        cams, base = keyframe
        strict = ReprojectionConfig(min_psnr=1000.0, validation_stride=4)
        result = renderer.render_reprojected(
            cams[1], base.plan, cams[0], base.image, strict
        )
        assert result.reprojection["fallback"]
        assert result.trace.reprojected_pixels == 0
        reused = renderer.render_with_plan(cams[1], base.plan)
        np.testing.assert_array_equal(result.image, reused.image)

    def test_accumulated_sensitivity_bounds_chained_warps(
        self, renderer, keyframe
    ):
        cams, base = keyframe
        cfg = ReprojectionConfig()
        first = renderer.render_reprojected(
            cams[1], base.plan, cams[0], base.image, cfg
        )
        accum = first.reprojection["accum"]
        # Warped rays carry their drift bound; rendered rays reset to 0.
        assert (accum > 0).sum() == first.reprojection["reprojected"]
        # A saturated accumulator pushes every ray past converged_px, so
        # nothing warps and the returned accumulator fully resets.
        saturated = renderer.render_reprojected(
            cams[1],
            base.plan,
            cams[0],
            base.image,
            cfg,
            accum_sens=np.full(16 * 16, 100.0),
        )
        assert saturated.reprojection["reprojected"] == 0
        assert (saturated.reprojection["accum"] == 0).all()

    def test_shape_mismatches_rejected(self, renderer, keyframe):
        cams, base = keyframe
        cfg = ReprojectionConfig()
        other = _cams(1, 0.02, size=24)[0]
        with pytest.raises(ConfigurationError):
            renderer.render_reprojected(
                other, base.plan, cams[0], base.image, cfg
            )
        with pytest.raises(ConfigurationError):
            renderer.render_reprojected(
                cams[1], base.plan, cams[0], base.image[:4, :4], cfg
            )
        with pytest.raises(ConfigurationError):
            renderer.render_reprojected(
                cams[1], base.plan, cams[0], base.image, cfg,
                accum_sens=np.zeros(9),
            )


class TestSequenceReprojection:
    @pytest.fixture(scope="class")
    def renderer(self, trained_model):
        return ASDRRenderer(trained_model, num_samples=16)

    def test_reprojected_sequence_prices_cheaper(self, renderer, server_acc):
        cams = _cams(3, 0.02)
        plain = renderer.render_sequence(cams, probe_interval=0)
        warped = renderer.render_sequence(
            cams, probe_interval=0, reproject=ReprojectionConfig()
        )
        assert any(
            f.reprojected_pixels for f in warped.trace.frames[1:]
        )
        # The accumulator is sequence-internal state, not part of the
        # per-frame record the experiments consume.
        for result in warped.results[1:]:
            assert "accum" not in result.reprojection
        plain_rep = server_acc.simulate_sequence(plain.trace, group_size=2)
        warped_rep = server_acc.simulate_sequence(warped.trace, group_size=2)
        assert warped_rep.total_cycles < plain_rep.total_cycles

    def test_adaptive_overlap_drives_reprobing(self, renderer):
        # Identical poses keep the measured overlap at 1.0 — even the
        # strictest threshold never re-probes.
        held = camera_path("orbit", 2, 16, 16, hold=2).cameras()
        seq = renderer.render_sequence(
            held,
            probe_interval=0,
            reuse_poses=False,
            reproject=ReprojectionConfig(),
            adaptive_overlap=1.0,
        )
        assert seq.trace.planned == [True, False]
        assert seq.results[1].reprojection["overlap"] == 1.0
        # A violent pose change collapses the overlap and forces Phase I.
        cut = _cams(2, 0.9)
        seq = renderer.render_sequence(
            cut,
            probe_interval=0,
            reproject=ReprojectionConfig(),
            adaptive_overlap=0.9,
        )
        assert seq.trace.planned == [True, True]

    def test_adaptive_overlap_validated(self, renderer):
        cams = _cams(2, 0.02)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                renderer.render_sequence(cams, adaptive_overlap=bad)


class TestReprojectedTracePricing:
    def _budget_trace(self, size=12):
        camera = _cams(1, 0.1, size=size)[0]
        budgets = 1 + (np.arange(size * size) % 5) * 2
        return FrameTrace.from_budgets(camera, budgets.astype(np.int64))

    def test_with_reprojection_keeps_scanout_and_drops_compute(
        self, server_acc
    ):
        full = self._budget_trace()
        mask = np.zeros(full.num_pixels, dtype=bool)
        mask[::2] = True
        warped = full.with_reprojection(mask)
        assert warped.rendered_pixels == full.rendered_pixels
        assert warped.reprojected_pixels > 0
        assert warped.density_points < full.density_points
        full_rep = server_acc.simulate_trace(full)
        warped_rep = server_acc.simulate_trace(warped)
        assert warped_rep.total_cycles < full_rep.total_cycles
        assert warped_rep.bus_cycles <= full_rep.bus_cycles

    def test_with_reprojection_rejects_bad_mask(self):
        full = self._budget_trace()
        with pytest.raises(SimulationError):
            full.with_reprojection(np.zeros(7, dtype=bool))

    def test_serialisation_round_trips_reprojected_pixels(self):
        full = self._budget_trace()
        mask = np.zeros(full.num_pixels, dtype=bool)
        mask[:10] = True
        warped = full.with_reprojection(mask)
        assert "reprojected_pixels" not in full.to_dict()
        data = warped.to_dict()
        assert data["reprojected_pixels"] == warped.reprojected_pixels
        rebuilt = FrameTrace.from_dict(data)
        assert rebuilt.reprojected_pixels == warped.reprojected_pixels
        assert rebuilt.rendered_pixels == warped.rendered_pixels

    def test_engines_bit_identical_on_reprojected_trace(self, server_acc):
        full = self._budget_trace()
        mask = np.zeros(full.num_pixels, dtype=bool)
        mask[1::3] = True
        warped = full.with_reprojection(mask)

        def observables(report):
            return (
                report.total_cycles,
                report.bus_cycles,
                report.encoding.cycles,
                report.mlp.cycles,
                report.render.cycles,
                tuple(sorted(report.energy_by_component.items())),
            )

        with reference_engine():
            mono = server_acc.simulate_trace(warped)
        ex = server_acc.trace_execution(warped)
        while not ex.done:
            reference_run(ex, 1)
        stepped = ex.finish()
        batched_ex = server_acc.trace_execution(warped)
        while not batched_ex.done:
            batched_ex.run(max_steps=3)
        batched = batched_ex.finish()
        assert observables(mono) == observables(stepped)
        assert observables(stepped) == observables(batched)
