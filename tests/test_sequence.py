"""Tests for the sequence layer: CameraPath, SequenceTrace, temporal reuse.

Covers the cross-frame contract end to end: path generation, sequence
rendering with pose replay and plan reuse (bit-identical replays for both
model backends), the temporal diff pass, sequence simulation with the
temporal vertex cache, serialisation, and the golden schema/cycle pin in
``tests/golden/sequence_trace.json``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.core.pipeline import ASDRRenderer
from repro.errors import ConfigurationError, SimulationError
from repro.exec.frame_trace import PHASE_PROBE, FrameTrace, TraceWavefront
from repro.exec.sequence import (
    SequenceTrace,
    pose_key,
    render_camera_path,
)
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.renderer import BaselineRenderer
from repro.scenes.cameras import CameraPath, camera_path, orbit_cameras
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG

GOLDEN_PATH = Path(__file__).parent / "golden" / "sequence_trace.json"


@pytest.fixture(scope="module")
def server_acc():
    return ASDRAccelerator(
        ArchConfig.server(),
        TEST_GRID,
        TEST_MODEL_CONFIG.density_mlp_config,
        TEST_MODEL_CONFIG.color_mlp_config,
    )


class TestCameraPath:
    def test_presets_expand_to_frame_count(self):
        for preset in ("orbit", "dolly", "shake"):
            path = camera_path(preset, 5, 16, 16)
            assert len(path.cameras()) == 5

    def test_orbit_full_arc_matches_orbit_cameras(self):
        path = camera_path("orbit", 4, 24, 24, arc=1.0)
        for a, b in zip(path.cameras(), orbit_cameras(4, 24, 24)):
            assert pose_key(a) == pose_key(b)

    def test_hold_repeats_poses_bit_identically(self):
        cams = camera_path("orbit", 6, 16, 16, hold=2).cameras()
        assert pose_key(cams[0]) == pose_key(cams[1])
        assert pose_key(cams[2]) == pose_key(cams[3])
        assert pose_key(cams[0]) != pose_key(cams[2])

    def test_shake_poses_repeat_every_period(self):
        cams = camera_path("shake", 8, 16, 16, period=3).cameras()
        assert pose_key(cams[0]) == pose_key(cams[3])
        assert pose_key(cams[1]) == pose_key(cams[4])
        assert pose_key(cams[0]) != pose_key(cams[1])

    def test_dolly_moves_toward_center(self):
        cams = camera_path("dolly", 4, 16, 16, travel=0.5).cameras()
        center = np.array([0.5, 0.5, 0.5])
        dists = [np.linalg.norm(c.position - center) for c in cams]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_cache_key_stable_and_distinct(self):
        a = camera_path("orbit", 4, 16, 16, arc=0.1)
        b = camera_path("orbit", 4, 16, 16, arc=0.1)
        c = camera_path("orbit", 4, 16, 16, arc=0.2)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            camera_path("spiral", 4, 16, 16)
        with pytest.raises(ConfigurationError):
            camera_path("orbit", 0, 16, 16)
        with pytest.raises(ConfigurationError):
            camera_path("orbit", 4, 16, 16, hold=0)
        with pytest.raises(ConfigurationError):
            camera_path("dolly", 4, 16, 16, travel=1.0)


class TestSequenceTraceValidation:
    def _frame(self, pixels=4):
        return FrameTrace(num_pixels=pixels, full_budget=2)

    def test_requires_frames(self):
        with pytest.raises(SimulationError):
            SequenceTrace(frames=[])

    def test_replay_must_point_backwards(self):
        f = self._frame()
        with pytest.raises(SimulationError):
            SequenceTrace(frames=[f, f], replays=[None, 2], planned=[True, False])

    def test_replay_must_share_trace_object(self):
        with pytest.raises(SimulationError):
            SequenceTrace(
                frames=[self._frame(), self._frame()],
                replays=[None, 0],
                planned=[True, False],
            )

    def test_resolution_must_match(self):
        with pytest.raises(SimulationError):
            SequenceTrace(frames=[self._frame(4), self._frame(9)])

    def test_defaults_fill_replays_and_planned(self):
        seq = SequenceTrace(frames=[self._frame()])
        assert seq.replays == [None]
        assert seq.planned == [True]
        assert seq.num_frames == 1


class TestPoseReplayEquivalence:
    """Satellite acceptance: rendering frame N fresh vs replaying it via
    SequenceTrace reuse is bit-identical, for both model backends."""

    def _check_replay(self, model):
        renderer = ASDRRenderer(model, num_samples=16)
        # shake/period=3 revisits the base pose at frame 3.
        cams = camera_path("shake", 4, 16, 16, period=3).cameras()
        assert pose_key(cams[3]) == pose_key(cams[0])
        assert pose_key(cams[1]) != pose_key(cams[0])
        seq = renderer.render_sequence(cams, probe_interval=0)
        assert seq.trace.replays == [None, None, None, 0]
        assert seq.trace.planned == [True, False, False, False]

        fresh = renderer.render_image(cams[3])
        replayed = seq.results[3]
        np.testing.assert_array_equal(replayed.image, fresh.image)
        assert replayed.density_points == fresh.density_points
        assert replayed.color_points == fresh.color_points
        assert replayed.interpolated_points == fresh.interpolated_points
        np.testing.assert_array_equal(
            replayed.sample_counts, fresh.sample_counts
        )

    def test_instant_ngp_replay_bit_identical(self, trained_model):
        self._check_replay(trained_model)

    def test_tensorf_replay_bit_identical(self, trained_tensorf):
        self._check_replay(trained_tensorf)

    def test_baseline_driver_replay_bit_identical(self, trained_model):
        renderer = BaselineRenderer(trained_model, num_samples=16)
        cams = camera_path("orbit", 4, 16, 16, hold=2).cameras()
        seq = render_camera_path(renderer.render_image, cams, kind="baseline")
        assert seq.trace.replays == [None, 0, None, 2]
        fresh = renderer.render_image(cams[1])
        np.testing.assert_array_equal(seq.results[1].image, fresh.image)
        assert seq.results[1].points_total == fresh.points_total

    def test_reuse_poses_off_renders_every_frame(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        cams = camera_path("orbit", 3, 16, 16, hold=3).cameras()
        seq = renderer.render_sequence(cams, reuse_poses=False)
        assert seq.trace.replays == [None, None, None]
        assert len({id(t) for t in seq.trace.frames}) == 3

    def test_trace_less_render_fn_rejected(self, lego_dataset):
        class Bare:
            image = np.zeros((16, 16, 3))
            trace = None

        with pytest.raises(SimulationError, match="trace-carrying"):
            render_camera_path(
                lambda camera: Bare(),
                camera_path("orbit", 2, 16, 16).cameras(),
            )


class TestPlanReuse:
    def test_reused_frames_skip_phase1(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        cams = camera_path("orbit", 3, 16, 16, arc=0.05).cameras()
        seq = renderer.render_sequence(cams, probe_interval=0)
        assert seq.trace.planned == [True, False, False]
        for k in (1, 2):
            trace = seq.trace.frames[k]
            assert trace.difficulty_evals == 0
            assert all(wf.phase != PHASE_PROBE for wf in trace.wavefronts)
            assert seq.results[k].probe_points == 0
            # The keyframe's budget map steers the reused frames.
            np.testing.assert_array_equal(
                seq.results[k].plan.budgets, seq.results[0].plan.budgets
            )

    def test_probe_interval_cadence(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        cams = camera_path("orbit", 4, 16, 16, arc=0.05).cameras()
        seq = renderer.render_sequence(cams, probe_interval=2)
        assert seq.trace.planned == [True, False, True, False]

    def test_probe_every_frame_disables_reuse(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        cams = camera_path("orbit", 3, 16, 16, arc=0.05).cameras()
        seq = renderer.render_sequence(cams, probe_interval=1)
        assert seq.trace.planned == [True, True, True]

    def test_plan_resolution_mismatch_rejected(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        plan = renderer.render_image(
            camera_path("orbit", 1, 16, 16).cameras()[0]
        ).plan
        with pytest.raises(ConfigurationError):
            renderer.render_with_plan(
                camera_path("orbit", 1, 24, 24).cameras()[0], plan
            )


class TestTemporalDeltas:
    def test_deltas_bounded_and_coherent(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        near = renderer.render_sequence(
            camera_path("orbit", 3, 16, 16, arc=0.02).cameras(),
            probe_interval=0,
        ).trace
        far = renderer.render_sequence(
            camera_path("orbit", 3, 16, 16, arc=0.9).cameras(),
            probe_interval=0,
        ).trace
        res = 16
        d_near = near.temporal_deltas([res])
        d_far = far.temporal_deltas([res])
        assert len(d_near) == 2
        for d in d_near + d_far:
            assert 0.0 <= d.ray_budget_overlap <= 1.0
            assert 0.0 <= d.corner_overlap[res] <= 1.0
            assert 0.0 <= d.stream_overlap[res] <= 1.0
        # A tight arc keeps the voxel working set; a wide arc does not.
        mean_near = np.mean([d.stream_overlap[res] for d in d_near])
        mean_far = np.mean([d.stream_overlap[res] for d in d_far])
        assert mean_near > mean_far

    def test_deltas_cached(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        trace = renderer.render_sequence(
            camera_path("orbit", 2, 16, 16, arc=0.05).cameras()
        ).trace
        assert trace.temporal_deltas([8]) is trace.temporal_deltas([8])

    def test_single_frame_has_no_deltas(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        trace = renderer.render_sequence(
            camera_path("orbit", 1, 16, 16).cameras()
        ).trace
        assert trace.temporal_deltas([8]) == []

    def test_identical_pose_hold_scores_full_overlap(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        trace = renderer.render_sequence(
            camera_path("orbit", 2, 16, 16, hold=2).cameras()
        ).trace
        assert trace.replays == [None, 0]
        (delta,) = trace.temporal_deltas([8])
        assert delta.ray_budget_overlap == 1.0
        assert delta.corner_overlap[8] == 1.0
        assert delta.stream_overlap[8] == 1.0

    def test_camera_cut_zeroes_ray_budget_overlap(self):
        """A hard cut that rewrites every pixel's budget: nothing of the
        previous frame's execution structure survives the diff."""
        camera = camera_path("orbit", 1, 8, 8).cameras()[0]
        before = FrameTrace.from_budgets(camera, np.full(64, 4))
        after = FrameTrace.from_budgets(camera, np.full(64, 8))
        seq = SequenceTrace(frames=[before, after])
        (delta,) = seq.temporal_deltas([8])
        assert delta.ray_budget_overlap == 0.0
        # Same rays through the same scene: the voxel working set still
        # overlaps even though every per-pixel budget changed.
        assert delta.corner_overlap[8] > 0.0


class TestSimulateSequence:
    @pytest.fixture(scope="class")
    def orbit_seq(self, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        cams = camera_path("orbit", 3, 16, 16, arc=0.05).cameras()
        return renderer.render_sequence(cams, probe_interval=0).trace

    def test_temporal_cache_hits_and_saves_cycles(self, server_acc, orbit_seq):
        with_cache = server_acc.simulate_sequence(orbit_seq, group_size=2)
        without = server_acc.simulate_sequence(
            orbit_seq, group_size=2, temporal=False
        )
        assert with_cache.temporal_hits > 0
        assert with_cache.frames[0].encoding.temporal_hits == 0
        assert with_cache.total_cycles <= without.total_cycles
        # The cache only removes crossbar reads; the workload is unchanged.
        assert with_cache.merged().mlp.density_points == \
            without.merged().mlp.density_points
        assert with_cache.merged().encoding.xbar_accesses < \
            without.merged().encoding.xbar_accesses

    def test_replayed_frame_priced_at_scanout(self, server_acc, trained_model):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        cams = camera_path("orbit", 2, 16, 16, hold=2).cameras()
        seq = renderer.render_sequence(cams).trace
        report = server_acc.simulate_sequence(seq, group_size=2)
        assert report.replayed == [False, True]
        replay = report.frames[1]
        assert replay.total_cycles == replay.bus_cycles
        assert replay.mlp.density_points == 0
        assert replay.total_cycles < report.frames[0].total_cycles

    def test_deterministic_across_warm_replays(self, server_acc, orbit_seq):
        first = server_acc.simulate_sequence(orbit_seq, group_size=2)
        second = server_acc.simulate_sequence(orbit_seq, group_size=2)
        assert [f.total_cycles for f in first.frames] == \
            [f.total_cycles for f in second.frames]
        assert first.temporal_hits == second.temporal_hits

    def test_fresh_frames_memoise_on_their_own_trace(
        self, server_acc, orbit_seq
    ):
        """Each fresh frame keeps its address streams in its own memo
        from the second run on, and a run priced from them equals the
        cold first run."""
        seq = SequenceTrace.from_dict(orbit_seq.to_dict())  # fresh memos
        assert all(j is None for j in seq.replays)
        first = server_acc.simulate_sequence(seq, group_size=2)
        server_acc.simulate_sequence(seq, group_size=2)
        levels = set(range(server_acc.grid.num_levels))
        for frame in seq.frames:
            stored = {key[-1] for key in frame._memo_cache if key[-2] == "addr"}
            assert stored == levels
        third = server_acc.simulate_sequence(seq, group_size=2)
        assert third.frames == first.frames
        assert third.temporal_hits == first.temporal_hits > 0

    def test_capacity_bound_reduces_hits(self, server_acc, orbit_seq):
        unbounded = server_acc.simulate_sequence(orbit_seq, group_size=2)
        tiny = server_acc.simulate_sequence(
            orbit_seq, group_size=2, temporal_capacity=4
        )
        assert tiny.temporal_hits < unbounded.temporal_hits

    def test_rejects_non_sequence(self, server_acc):
        with pytest.raises(SimulationError):
            server_acc.simulate_sequence("not a sequence")

    def test_memo_isolated_across_address_mappings(self, server_acc, orbit_seq):
        """Two engines with different grids simulating one memoised
        sequence must not share derived streams (regression: a memo key
        once omitted the address-stream identity)."""
        other_grid = HashGridConfig(
            num_levels=4, table_size=2**10, base_resolution=6,
            max_resolution=12,
        )
        other_acc = ASDRAccelerator(
            ArchConfig.server(),
            other_grid,
            TEST_MODEL_CONFIG.density_mlp_config,
            TEST_MODEL_CONFIG.color_mlp_config,
        )
        server_acc.simulate_sequence(orbit_seq, group_size=2)  # warm memo
        warm = other_acc.simulate_sequence(orbit_seq, group_size=2)
        cold_seq = SequenceTrace.from_dict(orbit_seq.to_dict())
        cold = other_acc.simulate_sequence(cold_seq, group_size=2)
        assert warm.temporal_hits == cold.temporal_hits
        assert [f.total_cycles for f in warm.frames] == \
            [f.total_cycles for f in cold.frames]

    def test_report_aggregates(self, server_acc, orbit_seq):
        report = server_acc.simulate_sequence(orbit_seq, group_size=2)
        assert report.num_frames == 3
        assert report.total_cycles == sum(
            f.total_cycles for f in report.frames
        )
        assert report.amortised_cycles == pytest.approx(
            report.total_cycles / 3
        )
        assert report.energy_joules > 0
        assert 0.0 < report.temporal_hit_rate < 1.0


class TestSerialization:
    def test_sequence_round_trip(self, trained_model, server_acc):
        renderer = ASDRRenderer(trained_model, num_samples=16)
        path = camera_path("shake", 3, 16, 16, period=2)
        seq = renderer.render_sequence(
            path.cameras(), probe_interval=0, path_key=path.cache_key()
        ).trace
        clone = SequenceTrace.from_dict(seq.to_dict())
        assert clone.replays == seq.replays
        assert clone.planned == seq.planned
        assert clone.path_key == seq.path_key  # typed round trip
        assert clone.num_frames == seq.num_frames
        for a, b in zip(clone.frames, seq.frames):
            assert a.density_points == b.density_points
            assert len(a.wavefronts) == len(b.wavefronts)
            for wa, wb in zip(a.wavefronts, b.wavefronts):
                np.testing.assert_array_equal(wa.points, wb.points)
        # The clone simulates to the same cycles as the original.
        original = server_acc.simulate_sequence(seq, group_size=2)
        replayed = server_acc.simulate_sequence(clone, group_size=2)
        assert [f.total_cycles for f in original.frames] == \
            [f.total_cycles for f in replayed.frames]

    def test_unknown_schema_rejected(self):
        with pytest.raises(SimulationError):
            SequenceTrace.from_dict({"schema": "sequence_trace/v999"})


def _golden_sequence() -> SequenceTrace:
    """A tiny hand-built two-frame sequence (deterministic integers and
    exact binary-fraction coordinates; no rendering involved)."""

    def frame(shift: float) -> FrameTrace:
        points = (
            np.array(
                [
                    [4, 4, 4], [5, 4, 4], [6, 5, 4],      # ray 0 (3 samples)
                    [8, 8, 8], [9, 8, 8],                  # ray 1 (2 samples)
                    [12, 12, 12],                          # ray 3 (1 sample)
                ],
                dtype=np.float64,
            )
            + shift
        ) / 16.0
        wavefront = TraceWavefront(
            phase="main",
            budget=3,
            ray_ids=np.arange(4, dtype=np.int64),
            hit=np.array([True, True, False, True]),
            used=np.array([3, 2, 0, 1], dtype=np.int64),
            color_used=np.array([2, 1, 0, 1], dtype=np.int64),
            points=points,
        )
        return FrameTrace(
            num_pixels=4,
            full_budget=3,
            kind="asdr",
            group_size=2,
            difficulty_evals=0,
            wavefronts=[wavefront],
        )

    return SequenceTrace(
        frames=[frame(0.0), frame(1.0)],
        path_key=("golden",),
        kind="asdr",
        planned=[True, False],
    )


def _golden_accelerator() -> ASDRAccelerator:
    from repro.nerf.model import InstantNGPConfig

    grid = HashGridConfig(
        num_levels=2, table_size=2**8, base_resolution=4, max_resolution=8
    )
    cfg = InstantNGPConfig(
        grid=grid, density_hidden_dim=16, color_hidden_dim=16,
        color_num_hidden=1,
    )
    return ASDRAccelerator(
        ArchConfig.server(), grid, cfg.density_mlp_config, cfg.color_mlp_config
    )


class TestGoldenSequenceTrace:
    """Golden regression: the serialised IR schema and the cycles the
    simulator charges for a pinned tiny sequence.  A mismatch means the IR
    or the pricing model changed — update ``tests/golden/
    sequence_trace.json`` deliberately (see ``regenerate`` below) and call
    the change out in the PR.
    """

    @staticmethod
    def regenerate() -> dict:
        seq = _golden_sequence()
        report = _golden_accelerator().simulate_sequence(seq)
        return {
            "sequence": seq.to_dict(),
            "per_frame_cycles": [f.total_cycles for f in report.frames],
            "temporal_hits": report.temporal_hits,
        }

    def test_schema_and_cycles_match_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        current = self.regenerate()
        assert current["sequence"] == golden["sequence"], (
            "SequenceTrace serialisation schema/content drifted from the "
            "golden file — if intentional, regenerate it"
        )
        assert current["per_frame_cycles"] == golden["per_frame_cycles"], (
            "simulated per-frame cycles drifted from the golden file"
        )
        assert current["temporal_hits"] == golden["temporal_hits"]

    def test_golden_round_trips_through_serialisation(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        seq = SequenceTrace.from_dict(golden["sequence"])
        report = _golden_accelerator().simulate_sequence(seq)
        assert [f.total_cycles for f in report.frames] == \
            golden["per_frame_cycles"]


class TestVideoExperiment:
    @pytest.fixture(scope="class")
    def small_wb(self, tmp_path_factory):
        from repro.experiments.workbench import Workbench, WorkbenchConfig

        return Workbench(
            WorkbenchConfig(
                width=16, height=16, num_samples=12, train_steps=40,
                train_batch=256,
                cache_dir=str(tmp_path_factory.mktemp("models")),
            )
        )

    def test_video_rows_structure_and_reuse(self, small_wb):
        from repro.experiments.video import video_rows

        path = camera_path("orbit", 3, 16, 16, arc=0.05, hold=1)
        rows = video_rows(small_wb, scene="lego", path=path)
        assert len(rows) == 4  # 3 frames + amortised
        assert rows[0]["mode"] == "probe"
        assert rows[1]["mode"] == "reuse"
        amortised = rows[-1]
        assert amortised["frame"] == "amortised"
        assert amortised["video_kcycles"] <= amortised["asdr_kcycles"] * 1.05
        assert amortised["temporal_hit_pct"] > 0
        assert amortised["baseline_kcycles"] > amortised["asdr_kcycles"]

    def test_video_with_replay_amortises_hard(self, small_wb):
        from repro.experiments.video import video_rows

        path = camera_path("orbit", 4, 16, 16, arc=0.05, hold=2)
        rows = video_rows(small_wb, scene="lego", path=path)
        modes = [r["mode"] for r in rows[:-1]]
        assert modes.count("replay") == 2
        assert rows[-1]["video_speedup"] > 1.5

    def test_registered_in_harness(self):
        from repro.experiments.harness import load_experiments

        assert "video" in load_experiments()

    def test_cli_video_smoke(self, small_wb, capsys, monkeypatch):
        from repro import cli

        monkeypatch.setattr(
            "repro.cli.Workbench", lambda: small_wb
        )
        assert cli.main(
            ["video", "lego", "--frames", "2", "--size", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "amortised" in out

    def test_cli_video_unknown_scene(self, capsys):
        from repro import cli

        assert cli.main(["video", "nope"]) == 2
        assert "unknown scene" in capsys.readouterr().err


class TestWorkbenchSequenceMemo:
    def test_sequence_memoised_under_path_key(self, tmp_path):
        from repro.experiments.workbench import Workbench, WorkbenchConfig

        wb = Workbench(
            WorkbenchConfig(width=16, height=16, num_samples=8,
                            train_steps=30, train_batch=256,
                            cache_dir=str(tmp_path))
        )
        path_a = camera_path("orbit", 2, 16, 16, arc=0.05)
        path_b = camera_path("orbit", 2, 16, 16, arc=0.05)
        path_c = camera_path("orbit", 2, 16, 16, arc=0.5)
        s1 = wb.sequence_render("lego", path_a)
        s2 = wb.sequence_render("lego", path_b)
        s3 = wb.sequence_render("lego", path_c)
        assert s1 is s2  # equal-but-distinct paths hit the memo
        assert s1 is not s3
        assert wb.sequence_trace("lego", path_a) is s1.trace
        # Different reuse knobs are distinct sequence cache entries.
        s4 = wb.sequence_render("lego", path_a, probe_interval=1)
        assert s4 is not s1
