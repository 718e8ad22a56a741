"""Tests for the shared FrameTrace execution layer (repro.exec)."""

import numpy as np
import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.arch.trace import _neighbour_pairs, encoding_corner_stream
from repro.core.config import (
    ASDRConfig,
    AdaptiveSamplingConfig,
    ApproximationConfig,
)
from repro.core.pipeline import ASDRRenderer
from repro.errors import SimulationError
from repro.exec.frame_trace import PHASE_MAIN, PHASE_PROBE, FrameTrace, TraceWavefront
from repro.exec.scheduler import budget_groups, iter_budget_wavefronts
from repro.nerf.hashgrid import HashGridConfig, HashGridEncoder
from repro.nerf.renderer import BaselineRenderer
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG

GRID = HashGridConfig(
    num_levels=4, table_size=2**11, base_resolution=4, max_resolution=32
)


@pytest.fixture(scope="module")
def server_acc():
    return ASDRAccelerator(
        ArchConfig.server(),
        TEST_GRID,
        TEST_MODEL_CONFIG.density_mlp_config,
        TEST_MODEL_CONFIG.color_mlp_config,
    )


class TestScheduler:
    def test_groups_ascending_and_skip_nonpositive(self):
        budgets = np.array([4, 0, 8, 4, -1, 8, 8])
        groups = list(budget_groups(budgets))
        assert [b for b, _ in groups] == [4, 8]
        np.testing.assert_array_equal(groups[0][1], [0, 3])
        np.testing.assert_array_equal(groups[1][1], [2, 5, 6])

    def test_explicit_ray_ids(self):
        ids = np.array([10, 20, 30])
        budgets = np.array([2, 4, 2])
        groups = dict(budget_groups(budgets, ids))
        np.testing.assert_array_equal(groups[2], [10, 30])
        np.testing.assert_array_equal(groups[4], [20])

    def test_wavefront_chunking(self):
        budgets = np.full(10, 3)
        chunks = list(iter_budget_wavefronts(budgets, wavefront_rays=4))
        assert [len(c) for _, c in chunks] == [4, 4, 2]
        assert all(b == 3 for b, _ in chunks)


class TestTraceEmission:
    def test_asdr_result_carries_trace(self, asdr_result):
        trace = asdr_result.trace
        assert isinstance(trace, FrameTrace)
        assert trace.kind == "asdr"
        assert trace.group_size == 2  # default ApproximationConfig
        assert trace.num_pixels == asdr_result.num_rays

    def test_trace_totals_match_result(self, asdr_result):
        trace = asdr_result.trace
        assert trace.density_points == asdr_result.density_points
        assert trace.color_points == asdr_result.color_points
        assert trace.interpolated_points == asdr_result.interpolated_points
        assert trace.probe_points == asdr_result.probe_points

    def test_probe_wavefronts_precede_main(self, asdr_result):
        phases = [wf.phase for wf in asdr_result.trace.wavefronts]
        first_main = phases.index(PHASE_MAIN)
        assert all(p == PHASE_PROBE for p in phases[:first_main])
        assert all(p == PHASE_MAIN for p in phases[first_main:])

    def test_main_used_matches_sample_counts(self, asdr_result):
        for wf in asdr_result.trace.wavefronts:
            if wf.phase != PHASE_MAIN:
                continue
            np.testing.assert_array_equal(
                wf.used, asdr_result.sample_counts[wf.ray_ids]
            )

    def test_points_are_active_prefixes(self, asdr_result):
        for wf in asdr_result.trace.wavefronts:
            assert wf.points.shape == (int(wf.used.sum()), 3)
            assert len(wf.point_ray()) == wf.num_points

    def test_baseline_result_carries_trace(self, baseline_result):
        trace = baseline_result.trace
        assert trace.kind == "baseline"
        assert trace.density_points == baseline_result.points_total
        assert trace.is_uniform


class TestSimulatorConsistency:
    """Acceptance: what the renderer counted is exactly what the
    simulator charges when both consume the same FrameTrace."""

    def _assert_consistent(self, acc, result, group_size):
        report = acc.simulate_render(None, result, group_size=group_size)
        assert report.mlp.density_points == result.density_points
        assert report.mlp.color_points == result.color_points
        assert report.render.composited_points == result.density_points
        assert report.render.interpolated_points == result.interpolated_points
        return report

    def test_instant_ngp_counts(self, server_acc, trained_model, lego_dataset):
        result = ASDRRenderer(trained_model, num_samples=24).render_image(
            lego_dataset.cameras[0]
        )
        self._assert_consistent(server_acc, result, group_size=2)

    def test_tensorf_counts(self, server_acc, trained_tensorf, lego_dataset):
        result = ASDRRenderer(trained_tensorf, num_samples=24).render_image(
            lego_dataset.cameras[0]
        )
        self._assert_consistent(server_acc, result, group_size=2)

    def test_early_termination_counts_and_cycles(
        self, server_acc, trained_model, lego_dataset
    ):
        camera = lego_dataset.cameras[0]

        def render(et):
            config = ASDRConfig(adaptive=None, approximation=None,
                                early_termination=et)
            return ASDRRenderer(
                trained_model, config=config, num_samples=24
            ).render_image(camera)

        with_et, without = render(0.99), render(None)
        r_et = self._assert_consistent(server_acc, with_et, group_size=1)
        r_no = self._assert_consistent(server_acc, without, group_size=1)
        # Early termination is reflected in simulated work and cycles.
        assert r_et.mlp.density_points < r_no.mlp.density_points
        assert r_et.total_cycles < r_no.total_cycles

    def test_no_camera_needed_on_trace_path(self, server_acc, asdr_result):
        """No re-sampling of rays inside the simulator: camera unused."""
        report = server_acc.simulate_render(None, asdr_result, group_size=2)
        assert report.total_cycles > 0

    def test_accepts_frame_trace_directly(self, server_acc, asdr_result):
        direct = server_acc.simulate_render(None, asdr_result.trace, group_size=2)
        via_result = server_acc.simulate_render(None, asdr_result, group_size=2)
        assert direct.total_cycles == via_result.total_cycles

    def test_trace_less_result_rejected(self, server_acc, lego_dataset, asdr_result):
        """The legacy (camera, budgets) re-derivation path is retired: a
        result without a trace raises a clear error instead of silently
        re-sampling rays inside the simulator."""
        from dataclasses import replace

        with pytest.raises(SimulationError, match="FrameTrace-carrying"):
            server_acc.simulate_render(
                lego_dataset.cameras[0], replace(asdr_result, trace=None)
            )

    def test_budget_map_path_matches_trace_totals(
        self, server_acc, lego_dataset, baseline_result
    ):
        """simulate_pass (the explicit budget-map constructor) prices the
        same point totals as replaying the render's own trace."""
        traced = server_acc.simulate_render(None, baseline_result)
        from_budgets = server_acc.simulate_pass(
            lego_dataset.cameras[0], baseline_result.sample_counts
        )
        assert from_budgets.mlp.density_points == traced.mlp.density_points

    def test_group_size_repricing_without_resampling(self, server_acc, asdr_result):
        g1 = server_acc.simulate_render(None, asdr_result, group_size=1)
        g4 = server_acc.simulate_render(None, asdr_result, group_size=4)
        assert g4.mlp.color_points < g1.mlp.color_points
        assert g4.mlp.density_points == g1.mlp.density_points

    def test_rejects_non_trace(self, server_acc):
        with pytest.raises(SimulationError):
            server_acc.simulate_trace("not a trace")


class TestFromBudgets:
    def test_covers_budget_map(self, lego_dataset):
        camera = lego_dataset.cameras[0]
        budgets = np.full(24 * 24, 8, dtype=np.int64)
        budgets[: 24 * 12] = 4
        trace = FrameTrace.from_budgets(camera, budgets)
        assert trace.kind == "budgets"
        assert {wf.budget for wf in trace.wavefronts} == {4, 8}
        covered = np.concatenate([wf.ray_ids for wf in trace.wavefronts])
        np.testing.assert_array_equal(np.sort(covered), np.arange(24 * 24))

    def test_corner_stream_accepts_trace(self, lego_dataset, baseline_result):
        camera = lego_dataset.cameras[0]
        budgets = np.full(24 * 24, baseline_result.trace.full_budget,
                          dtype=np.int64)
        from_camera = list(encoding_corner_stream(camera, budgets, GRID, 64))
        from_trace = list(
            encoding_corner_stream(None, None, GRID, 64,
                                   trace=baseline_result.trace)
        )
        assert sum(b.num_points for b in from_camera) == sum(
            b.num_points for b in from_trace
        )
        assert set(from_trace[0].corners) == set(range(GRID.num_levels))
        assert from_trace[0].corners[0].shape == (from_trace[0].num_points, 8, 3)

    def test_corners_match_encoder(self, lego_dataset):
        camera = lego_dataset.cameras[0]
        budgets = np.full(24 * 24, 6, dtype=np.int64)
        trace = FrameTrace.from_budgets(camera, budgets)
        encoder = HashGridEncoder(GRID)
        sl = next(trace.split(64))
        for level in range(GRID.num_levels):
            res = int(GRID.level_resolutions[level])
            expected, _ = encoder.voxel_vertices(sl.sample_points(), level)
            np.testing.assert_array_equal(sl.corners(res), expected)


def _delivered_recount(trace: FrameTrace) -> int:
    """Scan-out pixels counted per pixel: marched at least one sample in
    some wavefront, plus the reprojected ones."""
    marched = np.zeros(trace.num_pixels, dtype=bool)
    for wf in trace.wavefronts:
        marched[wf.ray_ids[wf.used > 0]] = True
    return int(marched.sum()) + trace.reprojected_pixels


class TestRenderedPixels:
    def test_cached_count_equals_recount_for_every_constructor(
        self, lego_dataset
    ):
        camera = lego_dataset.cameras[0]
        budgets = np.full(24 * 24, 6, dtype=np.int64)
        budgets[::5] = 0  # never marched
        trace = FrameTrace.from_budgets(camera, budgets)
        skip = np.zeros(trace.num_pixels, dtype=bool)
        skip[1::3] = True
        warped = trace.with_reprojection(skip)
        derived = {
            "from_budgets": trace,
            "with_budget_cap": trace.with_budget_cap(0.5),
            "with_reprojection": warped,
            "from_dict": FrameTrace.from_dict(warped.to_dict()),
        }
        assert 0 < warped.reprojected_pixels < trace.rendered_pixels
        assert trace.rendered_pixels < trace.num_pixels
        for name, t in derived.items():
            recount = _delivered_recount(t)
            assert t.rendered_pixels == recount, name
            assert t.rendered_pixels == recount, name  # the cached read
        # Thinning and capping keep every delivered pixel.
        assert {t.rendered_pixels for t in derived.values()} == {
            trace.rendered_pixels
        }


class TestProfilerHelpers:
    def test_neighbour_pairs_guard(self):
        # Last pixel of the image hits: must not pair with itself or
        # index out of range (the seed's clamp bug).
        width = 4
        hit = np.array([True, True, False, True,
                        False, True, True, True])
        pairs = _neighbour_pairs(hit, width)
        assert (7, 8) not in pairs and (7, 7) not in pairs
        assert pairs == [(0, 1), (5, 6), (6, 7)]
        for left, right in pairs:
            assert right == left + 1 < len(hit)
            assert (left + 1) % width != 0

    def test_gather_points_matches_sampling(self, lego_dataset, baseline_result):
        from repro.arch.trace import _points_for_rays

        trace = baseline_result.trace
        hit = trace.hit_mask()
        ids = np.nonzero(hit)[0][:2]
        pts, h = trace.gather_points(ids)
        expected, eh = _points_for_rays(
            lego_dataset.cameras[0], ids, trace.full_budget
        )
        np.testing.assert_allclose(pts, expected)
        np.testing.assert_array_equal(h, eh)

    def test_profiled_figures_match_recompute(self, lego_dataset, baseline_result):
        from repro.arch.trace import hash_address_trace, repetition_profile

        camera = lego_dataset.cameras[0]
        n = baseline_result.trace.full_budget
        fresh = hash_address_trace(camera, GRID, n, num_points=200)
        replayed = hash_address_trace(camera, GRID, n, num_points=200,
                                      trace=baseline_result.trace)
        np.testing.assert_array_equal(fresh, replayed)
        inter_a, intra_a = repetition_profile(camera, GRID, n, max_ray_pairs=16)
        inter_b, intra_b = repetition_profile(
            camera, GRID, n, max_ray_pairs=16, trace=baseline_result.trace
        )
        assert inter_a == inter_b
        assert intra_a == intra_b


class TestCacheKey:
    def test_equal_configs_equal_keys(self):
        assert ASDRConfig().cache_key() == ASDRConfig().cache_key()

    def test_sequence_type_insensitive(self):
        a = ASDRConfig(adaptive=AdaptiveSamplingConfig(
            candidate_fractions=[1 / 4, 1 / 2]))
        b = ASDRConfig(adaptive=AdaptiveSamplingConfig(
            candidate_fractions=(1 / 4, 1 / 2)))
        assert repr(a) != repr(b) or True  # repr may differ; key must not
        assert a.cache_key() == b.cache_key()

    def test_differing_configs_differ(self):
        base = ASDRConfig()
        assert base.cache_key() != ASDRConfig(adaptive=None).cache_key()
        assert base.cache_key() != ASDRConfig(
            approximation=ApproximationConfig(4)).cache_key()
        assert base.cache_key() != ASDRConfig(
            early_termination=0.99).cache_key()

    def test_key_is_hashable(self):
        assert len({ASDRConfig().cache_key(), ASDRConfig().cache_key()}) == 1


class TestWorkbenchMemoisation:
    def test_frame_trace_shared_with_render(self, monkeypatch, tmp_path):
        from repro.experiments.workbench import Workbench, WorkbenchConfig

        wb = Workbench(WorkbenchConfig(width=16, height=16, num_samples=8,
                                       train_steps=30, train_batch=256,
                                       cache_dir=str(tmp_path)))
        r1 = wb.asdr_render("lego")
        # An equal-but-distinct config object must hit the memo.
        r2 = wb.asdr_render("lego", asdr_config=ASDRConfig())
        assert r1 is r2
        assert wb.frame_trace("lego") is r1.trace


class TestCLIList:
    def test_experiment_list(self, capsys):
        from repro.cli import main

        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig4", "fig17a", "fig25", "table2"):
            assert exp_id in out

    def test_experiment_requires_ids_without_list(self, capsys):
        from repro.cli import main

        assert main(["experiment"]) == 2
        assert "--list" in capsys.readouterr().err
