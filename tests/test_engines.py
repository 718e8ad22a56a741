"""Tests for the three engine models (encoding / MLP / rendering)."""

import numpy as np
import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.arch.mlp_engine import MLPEngine
from repro.arch.render_engine import RenderEngine
from repro.exec.frame_trace import FrameTrace
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.mlp import MLPConfig
from repro.scenes.cameras import camera_path

GRID = HashGridConfig(
    num_levels=4, table_size=2**11, base_resolution=4, max_resolution=32
)
DENSITY = MLPConfig(input_dim=8, hidden_dim=32, num_hidden=1, output_dim=16)
COLOR = MLPConfig(input_dim=31, hidden_dim=64, num_hidden=3, output_dim=3)


@pytest.fixture(scope="module")
def trace():
    """A small frame: 8x8 rays marching 8 samples each."""
    camera = camera_path("orbit", 1, 8, 8, arc=0.3).cameras()[0]
    return FrameTrace.from_budgets(camera, np.full(64, 8, dtype=np.int64))


def _encoding(trace, **config):
    """The encoding engine's report for ``trace`` on a server design."""
    accelerator = ASDRAccelerator(
        ArchConfig.server(**config), GRID, DENSITY, COLOR
    )
    return accelerator.simulate_trace(trace).encoding


class TestEncodingEngine:
    def test_report_counts(self, trace):
        report = _encoding(trace)
        assert trace.density_points > 0
        assert report.lookups == trace.density_points * 8 * GRID.num_levels
        assert report.cycles > 0
        assert 0 <= report.cache_hits <= report.lookups

    def test_cache_reduces_xbar_accesses(self, trace):
        cached = _encoding(trace, cache_entries=16)
        uncached = _encoding(trace, cache_entries=0)
        assert cached.xbar_accesses < uncached.xbar_accesses
        assert uncached.cache_hits == 0

    def test_hash_mode_serialises_levels(self, trace):
        hybrid = _encoding(trace, cache_entries=0)
        hashed = _encoding(trace, cache_entries=0, mapping_mode="hash")
        assert hashed.cycles > hybrid.cycles

    def test_energy_positive_with_misses(self, trace):
        report = _encoding(trace, cache_entries=0)
        assert report.xbar_energy_pj > 0


class TestMLPEngine:
    def test_initiation_interval(self):
        engine = MLPEngine(ArchConfig.server(), DENSITY, COLOR)
        assert engine.density_cycles_per_point > 0
        assert engine.color_cycles_per_point >= engine.density_cycles_per_point

    def test_throughput_scales_with_engines(self):
        one = MLPEngine(ArchConfig.server(density_engines=1, color_engines=1),
                        DENSITY, COLOR)
        four = MLPEngine(ArchConfig.server(density_engines=4, color_engines=4),
                         DENSITY, COLOR)
        r1 = one.process(1000, 1000)
        r4 = four.process(1000, 1000)
        assert r4.cycles < r1.cycles

    def test_color_decoupling_reduces_cycles(self):
        engine = MLPEngine(ArchConfig.server(), DENSITY, COLOR)
        full = engine.process(1000, 1000)
        decoupled = engine.process(1000, 500)
        assert decoupled.color_cycles < full.color_cycles
        assert decoupled.density_cycles == full.density_cycles

    def test_energy_scales_with_points(self):
        engine = MLPEngine(ArchConfig.server(), DENSITY, COLOR)
        assert engine.process(200, 200).energy_pj == pytest.approx(
            2 * engine.process(100, 100).energy_pj
        )

    def test_report_merge(self):
        engine = MLPEngine(ArchConfig.server(), DENSITY, COLOR)
        a = engine.process(100, 50)
        b = engine.process(200, 100)
        total_cycles = a.cycles + b.cycles
        a.merge(b)
        assert a.cycles == total_cycles
        assert a.density_points == 300


class TestRenderEngine:
    def test_throughput_lanes(self):
        engine = RenderEngine(ArchConfig.server(rgb_lanes=8))
        report = engine.process(composited_points=80)
        assert report.rgb_cycles == 10

    def test_units_overlap(self):
        engine = RenderEngine(ArchConfig.server())
        report = engine.process(
            composited_points=800, interpolated_points=160, difficulty_evals=80
        )
        assert report.cycles == max(
            report.rgb_cycles, report.approx_cycles, report.adaptive_cycles
        )

    def test_zero_work_zero_cycles(self):
        engine = RenderEngine(ArchConfig.server())
        assert engine.process(0, 0, 0).cycles == 0

    def test_merge_accumulates(self):
        engine = RenderEngine(ArchConfig.server())
        a = engine.process(100, 10, 5)
        b = engine.process(200, 20, 10)
        composited = a.composited_points + b.composited_points
        a.merge(b)
        assert a.composited_points == composited
