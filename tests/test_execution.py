"""The resumable execution engine: bit-identity, suspension, golden pin.

:class:`repro.exec.execution.FrameExecution` must be a *refactor*, not a
re-pricing: running a cursor to completion — in one go, step by step, or
interleaved with other cursors — has to reproduce the monolithic
simulator's cycles and energy exactly.  These tests pin that:

* **golden** — stepping the golden two-frame sequence one wavefront at a
  time reproduces the cycle counts stored in
  ``tests/golden/sequence_trace.json`` (the same numbers
  ``simulate_sequence`` is pinned to);
* **suspension** — two frames' executions interleaved step by step equal
  their uninterrupted runs bit-for-bit (cycles, energy, encoding stats);
* **accounting** — the wavefront log still sums to ``total_cycles``,
  ``remaining_points``/``points_done`` partition the frame's points, and
  ``abandon`` charges energy for exactly the executed prefix.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.cim.cache import TemporalVertexCache
from repro.errors import SimulationError
from repro.exec.execution import FrameExecution, sequence_executions
from repro.exec.frame_trace import FrameTrace
from repro.exec.sequence import SequenceTrace
from repro.scenes.cameras import camera_path
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG

GOLDEN_PATH = Path(__file__).parent / "golden" / "sequence_trace.json"


@pytest.fixture(scope="module")
def accelerator():
    return ASDRAccelerator(
        ArchConfig.server(),
        TEST_GRID,
        TEST_MODEL_CONFIG.density_mlp_config,
        TEST_MODEL_CONFIG.color_mlp_config,
    )


def _varied_trace(size: int = 16, seed_budgets: int = 8) -> FrameTrace:
    """A budget-map trace with several budget groups, so the execution
    splits into multiple wavefront steps at the server's 64-ray width."""
    camera = camera_path("orbit", 1, size, size, arc=0.3).cameras()[0]
    budgets = 1 + (np.arange(size * size) % seed_budgets) * 2
    return FrameTrace.from_budgets(camera, budgets.astype(np.int64))


def _sequence(frames: int = 3, size: int = 16) -> SequenceTrace:
    path = camera_path("orbit", frames, size, size, arc=0.4)
    traces = [
        FrameTrace.from_budgets(
            cam, (1 + (np.arange(size * size) % 5) * 3).astype(np.int64)
        )
        for cam in path.cameras()
    ]
    return SequenceTrace(
        frames=traces,
        path_key=path.cache_key(),
        kind="asdr",
        planned=[k == 0 for k in range(frames)],
    )


def _reports_equal(a, b) -> bool:
    return (
        a.total_cycles == b.total_cycles
        and a.bus_cycles == b.bus_cycles
        and a.buffer_stall_cycles == b.buffer_stall_cycles
        and a.encoding.cycles == b.encoding.cycles
        and a.encoding.cache_hits == b.encoding.cache_hits
        and a.encoding.temporal_hits == b.encoding.temporal_hits
        and a.mlp.cycles == b.mlp.cycles
        and a.render.cycles == b.render.cycles
        and a.energy_by_component == b.energy_by_component
    )


class TestRunToCompletion:
    def test_stepped_equals_monolithic_simulate_trace(self, accelerator):
        trace = _varied_trace()
        mono = accelerator.simulate_trace(trace)

        ex = accelerator.trace_execution(trace)
        assert ex.steps_total > 1, "fixture must be multi-step"
        while not ex.done:
            ex.step()
        stepped = ex.finish()
        assert _reports_equal(mono, stepped)

    def test_quantum_runs_equal_single_run(self, accelerator):
        trace = _varied_trace()
        mono = accelerator.simulate_trace(trace)
        for quantum in (1, 2, 3, 5):
            ex = accelerator.trace_execution(trace)
            while not ex.done:
                ex.run(max_steps=quantum)
            assert _reports_equal(mono, ex.finish()), f"quantum={quantum}"

    def test_cursor_accounting(self, accelerator):
        trace = _varied_trace()
        log = []
        ex = accelerator.trace_execution(trace, wavefront_log=log)
        total_points = trace.density_points
        assert ex.points_done == 0
        assert ex.remaining_points == total_points
        charges = []
        while not ex.done:
            before = ex.service_cycles
            charges.append(ex.step())
            assert ex.service_cycles - before == charges[-1]
            assert ex.points_done + ex.remaining_points == total_points
        report = ex.finish()
        assert report.total_cycles == sum(charges)
        assert report.total_cycles == sum(c for _, c in log)
        assert ex.steps_done == ex.steps_total

    def test_step_and_finish_guards(self, accelerator):
        trace = _varied_trace()
        ex = accelerator.trace_execution(trace)
        ex.finish()
        with pytest.raises(SimulationError):
            ex.step()
        with pytest.raises(SimulationError):
            ex.finish()
        with pytest.raises(SimulationError):
            ex.abandon()
        with pytest.raises(SimulationError):
            accelerator.trace_execution(trace).run(max_steps=0)

    def test_rejects_non_trace(self, accelerator):
        with pytest.raises(SimulationError):
            FrameExecution(accelerator, "not a trace")


class TestSuspension:
    def test_interleaved_executions_are_bit_identical(self, accelerator):
        """Alternate two frames' wavefronts (the preemption pattern) and
        compare against uninterrupted runs of the same frames."""
        seq = _sequence(frames=2)
        solo = [
            accelerator.frame_execution(seq, k).finish() for k in range(2)
        ]
        cold = SequenceTrace.from_dict(seq.to_dict())
        a = accelerator.frame_execution(cold, 0)
        b = accelerator.frame_execution(cold, 1)
        toggle = 0
        while not (a.done and b.done):
            ex = (a, b)[toggle % 2]
            if not ex.done:
                ex.step()
            toggle += 1
        assert _reports_equal(solo[0], a.finish())
        assert _reports_equal(solo[1], b.finish())

    def test_interleaving_with_private_temporal_caches(self, accelerator):
        """Two tenants' sequences advanced in alternating quanta, each
        with its own temporal cache, price exactly like two solo runs."""
        seq_a = _sequence(frames=3)
        seq_b = _sequence(frames=2, size=16)
        solo_a = accelerator.simulate_sequence(seq_a).total_cycles
        solo_b = accelerator.simulate_sequence(seq_b).total_cycles

        cold_a = SequenceTrace.from_dict(seq_a.to_dict())
        cold_b = SequenceTrace.from_dict(seq_b.to_dict())
        gens = {
            "a": sequence_executions(
                accelerator, cold_a, temporal=TemporalVertexCache()
            ),
            "b": sequence_executions(
                accelerator, cold_b, temporal=TemporalVertexCache()
            ),
        }
        active = {key: next(gen) for key, gen in gens.items()}
        totals = {"a": 0, "b": 0}
        turn = 0
        while active:
            key = sorted(active)[turn % len(active)]
            ex = active[key]
            totals[key] += ex.run(max_steps=2)
            if ex.done:
                ex.finish()
                nxt = next(gens[key], None)
                if nxt is None:
                    del active[key]
                else:
                    active[key] = nxt
            turn += 1
        assert totals["a"] == solo_a
        assert totals["b"] == solo_b

    def test_abandon_prices_executed_prefix_only(self, accelerator):
        trace = _varied_trace()
        full = accelerator.simulate_trace(trace)
        ex = accelerator.trace_execution(trace)
        partial_cycles = ex.step() + ex.step()
        report = ex.abandon()
        assert report.total_cycles == partial_cycles
        assert report.total_cycles < full.total_cycles
        assert report.bus_cycles == 0, "an undelivered frame bills no scan-out"
        assert 0 < report.energy_joules < full.energy_joules


class TestScanoutMode:
    def test_replay_frames_execute_as_single_scanout_step(self, accelerator):
        path = camera_path("orbit", 2, 8, 8, arc=0.3, hold=2)
        cams = path.cameras()
        budgets = np.full(64, 4, dtype=np.int64)
        frame = FrameTrace.from_budgets(cams[0], budgets)
        seq = SequenceTrace(
            frames=[frame, frame], replays=[None, 0], planned=[True, False]
        )
        direct = accelerator.simulate_scanout(frame)
        ex = accelerator.frame_execution(seq, 1)
        assert ex.steps_total == 1
        ex.step()
        report = ex.finish()
        assert report.total_cycles == direct.total_cycles
        assert report.bus_cycles == direct.bus_cycles
        assert report.energy_by_component == direct.energy_by_component


class TestGoldenResumability:
    """The pre-refactor cycle counts, pinned: stepping the golden sequence
    (suspending after every single wavefront) reproduces the per-frame
    cycles recorded in ``tests/golden/sequence_trace.json``."""

    def test_single_stepped_execution_matches_golden_cycles(self):
        from tests.test_sequence import _golden_accelerator

        golden = json.loads(GOLDEN_PATH.read_text())
        seq = SequenceTrace.from_dict(golden["sequence"])
        accelerator = _golden_accelerator()
        cache = TemporalVertexCache()
        cycles = []
        hits = 0
        for k in range(seq.num_frames):
            ex = accelerator.frame_execution(seq, k, temporal=cache)
            while not ex.done:
                ex.step()  # suspend point after every wavefront
            report = ex.finish()
            cycles.append(report.total_cycles)
            hits += report.encoding.temporal_hits
        assert cycles == golden["per_frame_cycles"], (
            "stepped FrameExecution drifted from the pinned pre-refactor "
            "cycle counts"
        )
        assert hits == golden["temporal_hits"]
