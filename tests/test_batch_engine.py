"""Property-based bit-identity of frame pricing against the reference.

The fused plan (:mod:`repro.exec.batch`) may only ever be a *faster
spelling* of the per-slice model in :mod:`tests.reference_pricer`: for
any trace, any quantum schedule and any batch boundaries, production ==
reference == monolithic bit-identically — cycles, energy, per-engine
report fields and temporal-cache state — including a client abandoning
mid-frame, and however the crossbar pass is cut into row-capped calls.
These tests drive both spellings over hypothesis-generated workloads and
a Workbench-rendered serving mix; ``tests/test_execution.py`` pins the
same contract on the golden trace.

Self-skips when ``hypothesis`` is absent (CI installs it; a bare
numpy+pytest checkout still collects cleanly).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

import tracemalloc  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.arch.accelerator import ASDRAccelerator  # noqa: E402
from repro.arch.config import ArchConfig  # noqa: E402
from repro.cim.cache import TemporalVertexCache  # noqa: E402
from repro.cim.memxbar import MemXbarBank  # noqa: E402
from repro.exec import batch  # noqa: E402
from repro.exec.execution import sequence_executions  # noqa: E402
from repro.exec.frame_trace import FrameTrace  # noqa: E402
from repro.exec.sequence import SequenceTrace  # noqa: E402
from repro.experiments.workbench import experiment_accelerator  # noqa: E402
from repro.scenes.cameras import camera_path  # noqa: E402
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG  # noqa: E402
from tests.reference_pricer import reference_engine, reference_run  # noqa: E402

_ACCELERATOR = None


def accelerator() -> ASDRAccelerator:
    global _ACCELERATOR
    if _ACCELERATOR is None:
        _ACCELERATOR = ASDRAccelerator(
            ArchConfig.server(),
            TEST_GRID,
            TEST_MODEL_CONFIG.density_mlp_config,
            TEST_MODEL_CONFIG.color_mlp_config,
        )
    return _ACCELERATOR


def _trace(size: int, mod: int, mult: int, frame: int = 0) -> FrameTrace:
    """A deterministic multi-step budget-map trace from small seeds (so
    hypothesis shrinks over three integers, not a budget array)."""
    cameras = camera_path("orbit", frame + 1, size, size, arc=0.35).cameras()
    budgets = 1 + (np.arange(size * size) % mod) * mult
    return FrameTrace.from_budgets(cameras[frame], budgets.astype(np.int64))


def _sequence(num_frames: int, size: int, mod: int, mult: int) -> SequenceTrace:
    return SequenceTrace(
        frames=[_trace(size, mod, mult, frame=k) for k in range(num_frames)],
        path_key=("prop", num_frames, size, mod, mult),
        kind="asdr",
        planned=[k == 0 for k in range(num_frames)],
    )


def _report_tuple(report):
    """Every observable of a SimReport, as an exact-comparison tuple."""
    return (
        report.total_cycles,
        report.bus_cycles,
        report.buffer_stall_cycles,
        report.encoding.cycles,
        report.encoding.read_cycles,
        report.encoding.lookups,
        report.encoding.cache_hits,
        report.encoding.temporal_hits,
        report.encoding.xbar_accesses,
        report.encoding.conflict_cycles,
        report.encoding.xbar_energy_pj,
        report.mlp.cycles,
        report.render.cycles,
        tuple(sorted(report.energy_by_component.items())),
    )


def _drive(ex, schedule):
    """Advance ``ex`` to completion with ``schedule`` as the repeating
    quantum pattern (0 entries take single ``step()`` calls)."""
    i = 0
    while not ex.done:
        quantum = schedule[i % len(schedule)] if schedule else 1
        i += 1
        if quantum <= 0:
            ex.step()
        else:
            ex.run(max_steps=quantum)
    return ex.finish()


class TestFrameBitIdentity:
    @given(
        size=st.integers(8, 12),
        mod=st.integers(2, 7),
        mult=st.integers(1, 3),
        schedule=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_vectorized_equals_stepwise_equals_monolithic(
        self, size, mod, mult, schedule
    ):
        acc = accelerator()
        trace = _trace(size, mod, mult)
        with reference_engine():
            mono = acc.simulate_trace(trace)
        ex = acc.trace_execution(trace)
        while not ex.done:
            reference_run(ex, 1)
        stepped = ex.finish()
        batched = _drive(acc.trace_execution(trace), schedule)
        assert _report_tuple(mono) == _report_tuple(stepped)
        assert _report_tuple(stepped) == _report_tuple(batched)

    @given(
        size=st.integers(8, 12),
        mod=st.integers(2, 7),
        mult=st.integers(1, 3),
        quantum=st.integers(1, 4),
        prefix=st.integers(0, 6),
    )
    @settings(max_examples=10, deadline=None)
    def test_abandon_mid_batch_matches_stepwise_prefix(
        self, size, mod, mult, quantum, prefix
    ):
        """Abandoning after a production prefix charges exactly what the
        reference charges for the same prefix of steps."""
        acc = accelerator()
        trace = _trace(size, mod, mult)
        ex_batched = acc.trace_execution(trace)
        while ex_batched.steps_done < prefix and not ex_batched.done:
            ex_batched.run(
                max_steps=min(quantum, prefix - ex_batched.steps_done)
            )
        ex_stepped = acc.trace_execution(trace)
        if ex_batched.steps_done:
            reference_run(ex_stepped, ex_batched.steps_done)
        a = ex_stepped.abandon()
        b = ex_batched.abandon()
        assert _report_tuple(a) == _report_tuple(b)

    @given(
        size=st.integers(8, 12),
        mod=st.integers(2, 6),
        mult=st.integers(1, 3),
        schedule=st.lists(st.integers(0, 4), min_size=1, max_size=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_mixed_step_and_batch_on_one_cursor(
        self, size, mod, mult, schedule
    ):
        """One execution may freely mix step() and run(max_steps) — the
        cursor keeps bit-identity however the steps are grouped."""
        acc = accelerator()
        trace = _trace(size, mod, mult)
        with reference_engine():
            mono = acc.simulate_trace(trace)
        mixed = _drive(acc.trace_execution(trace), schedule)
        assert _report_tuple(mono) == _report_tuple(mixed)


class TestSequenceBitIdentity:
    @given(
        num_frames=st.integers(2, 3),
        size=st.integers(8, 10),
        mod=st.integers(2, 5),
        mult=st.integers(1, 3),
        schedule=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        capacity=st.one_of(st.none(), st.integers(16, 512)),
    )
    @settings(max_examples=8, deadline=None)
    def test_temporal_cache_state_and_reports_match(
        self, num_frames, size, mod, mult, schedule, capacity
    ):
        """Across a sequence — temporal lookups, records and frame-boundary
        commits included — production leaves the temporal cache in the
        same state as the reference, frame by frame."""
        acc = accelerator()
        seq = _sequence(num_frames, size, mod, mult)

        with reference_engine():
            cache_s = TemporalVertexCache(capacity)
            stepped = [
                _report_tuple(ex.finish())
                for ex in sequence_executions(acc, seq, temporal=cache_s)
            ]

        cache_b = TemporalVertexCache(capacity)
        batched = [
            _report_tuple(_drive(ex, schedule))
            for ex in sequence_executions(acc, seq, temporal=cache_b)
        ]

        assert stepped == batched
        assert cache_s.resident_token == cache_b.resident_token
        assert set(cache_s._resident) == set(cache_b._resident)
        for level, resident in cache_s._resident.items():
            assert np.array_equal(resident, cache_b._resident[level]), level


class TestServeBitIdentity:
    """End-to-end: the serving loop produces identical ServeReports priced
    by production and by the reference — preemption, twin clients and the
    cross-tenant plan prefetch included."""

    def test_serve_rows_identical_scalar_vs_batched(self):
        from repro.serving.policies import make_policy
        from repro.serving.request import ClientRequest
        from repro.serving.server import SequenceServer
        from tests.test_serving import synthetic_sequence

        acc = accelerator()
        paths = [
            camera_path("orbit", 3, 8, 8, arc=0.3),
            camera_path("orbit", 3, 8, 8, arc=0.5),
            camera_path("orbit", 3, 8, 8, arc=0.3),  # twin of the first
        ]

        def run_rows():
            server = SequenceServer(acc)
            for i, path in enumerate(paths):
                server.submit(
                    ClientRequest(
                        client_id=f"c{i}", scene="synthetic", path=path
                    ),
                    synthetic_sequence(path, varied=True),
                )
            return {
                name: server.serve(
                    make_policy(name, quantum=2 if "preemptive" in name else None)
                ).to_rows()
                for name in ("fifo", "round_robin_preemptive")
            }

        with reference_engine():
            rows_scalar = run_rows()
        rows_batched = run_rows()
        assert rows_scalar == rows_batched

    def test_rendered_client_mix_identical(self):
        """Workbench-rendered ASDR sequences carry what a budget-map trace
        lacks — Phase I probe wavefronts, the adaptive-sampling tail
        step, colour decoupling and a cross-client pose replay — and
        serve to the same reports priced by production and by the
        reference, under every frame-atomic policy and a preemptive one."""
        from repro.experiments.serving import default_client_mix, serve_reports
        from repro.experiments.workbench import Workbench
        from repro.serving.policies import POLICY_NAMES

        wb = Workbench()
        requests = default_client_mix(clients=2, frames=2, size=8)
        policies = (*POLICY_NAMES, "round_robin_preemptive")
        frames = [
            t for r in requests for t in wb.client_sequence(r).trace.frames
        ]
        assert any(t.probe_points for t in frames)
        assert any(t.difficulty_evals for t in frames)
        assert any(t.color_points < t.density_points for t in frames)

        def serve():
            return serve_reports(wb, requests, policies=policies, quantum=2)

        with reference_engine():
            reference = serve()
        production = serve()
        assert any(
            s.cross_replay for r in production.values() for s in r.schedule
        )
        assert {name: r.to_dict() for name, r in production.items()} == {
            name: r.to_dict() for name, r in reference.items()
        }


class TestRowCappedBankPass:
    """The crossbar pass is cut into calls of at most
    ``batch._BANK_PASS_MAX_ROWS`` issue-group rows, at slice boundaries
    only; the cut must never change a price."""

    @given(
        frames=st.lists(
            st.tuples(
                st.integers(8, 11), st.integers(2, 6), st.integers(1, 3)
            ),
            min_size=2,
            max_size=4,
        ),
        warm=st.lists(st.booleans(), min_size=4, max_size=4),
        max_rows=st.integers(1, 400),
    )
    @settings(max_examples=15, deadline=None)
    def test_capped_plans_equal_reference(self, frames, warm, max_rows):
        """Several tenants' frames priced in one ``build_frame_plans``
        call with a cap of a few rows — some against a warm temporal
        cache — replay to the reference's per-step charges and reports."""
        acc = accelerator()
        traces = [_trace(*spec, frame=k) for k, spec in enumerate(frames)]

        def cache_for(i):
            if not warm[i]:
                return None
            cache = TemporalVertexCache()
            acc.trace_execution(traces[i - 1], temporal=cache).finish()
            cache.commit_frame(tag=("warm", i))
            return cache

        def logged_executions():
            logs = [[] for _ in traces]
            executions = [
                acc.trace_execution(t, temporal=cache_for(i), wavefront_log=log)
                for i, (t, log) in enumerate(zip(traces, logs))
            ]
            return executions, logs

        executions, logs = logged_executions()
        with mock.patch.object(batch, "_BANK_PASS_MAX_ROWS", max_rows):
            plans = batch.build_frame_plans(executions)
        production = [_report_tuple(ex.finish()) for ex in executions]

        with reference_engine():
            ref_executions, ref_logs = logged_executions()
            reference = [_report_tuple(ex.finish()) for ex in ref_executions]

        assert production == reference
        assert logs == ref_logs
        for plan, ref_log in zip(plans, ref_logs):
            assert [(s.log_key, s.charge) for s in plan.steps] == ref_log

    def test_small_batches_stay_one_call(self):
        """A batch under the cap is one conflict replay, as before."""
        acc = accelerator()
        executions = [
            acc.trace_execution(_trace(10, 5, 2, frame=k)) for k in (0, 1)
        ]
        with mock.patch.object(
            MemXbarBank,
            "read_cycles_segments",
            autospec=True,
            side_effect=MemXbarBank.read_cycles_segments,
        ) as replay:
            batch.build_frame_plans(executions)
        assert replay.call_count == 1

    def test_cold_frame_pricing_memory_per_point(self):
        """Pricing a cold 64x64 frame (47,104 points) peaks at most
        1.5 KB of traced allocations per point: the row cap bounds the
        conflict replay's temporaries instead of letting them grow with
        the frame (an uncapped pass needs about 3.4 KB per point)."""
        acc = experiment_accelerator("server")
        camera = camera_path("orbit", 1, 64, 64, arc=0.4).cameras()[0]
        budgets = (1 + (np.arange(64 * 64) % 8) * 3).astype(np.int64)
        trace = FrameTrace.from_budgets(camera, budgets)
        assert trace.density_points == 47_104
        tracemalloc.start()
        try:
            acc.trace_execution(trace).finish()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / trace.density_points <= 1536


class TestWorkingSet:
    """A level's temporal working set is ``np.unique`` of its stream."""

    @given(
        values=st.lists(st.integers(0, 1 << 20), max_size=300),
        dtype=st.sampled_from([np.int32, np.int64]),
    )
    def test_bitmap_equals_unique(self, values, dtype):
        stream = np.array(values, dtype=dtype)
        got = batch._working_set(stream)
        expected = np.unique(stream)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_stream(self, dtype):
        got = batch._working_set(np.empty(0, dtype=dtype))
        assert got.dtype == dtype and got.size == 0
