"""Timing: FrameTrace reuse vs budget-map re-derivation.

The seed pipeline rendered a frame, then ``simulate_render`` re-derived
every ray, sample point and voxel corner from ``(camera, budgets)`` before
charging the engines.  That implicit path is retired — trace-less results
are rejected — but the cost it paid is still reachable explicitly through
``simulate_pass``, which synthesises a fresh ``FrameTrace`` from a budget
map on every call.  This benchmark pins the win of replaying the
renderer's memoised trace (its derived streams kept in
``FrameTrace.memo`` from the second request on) over that re-derivation,
on the fig17 experiment path (one scene, server design).
"""

from __future__ import annotations

import time

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.experiments.workbench import EXPERIMENT_GRID, EXPERIMENT_MODEL


def _best_of(fn, rounds: int = 3) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_trace_reuse_faster_than_recompute(wb):
    scene = "palace"
    camera = wb.dataset(scene).cameras[0]
    result = wb.asdr_render(scene)
    accelerator = ASDRAccelerator(
        ArchConfig.server(),
        EXPERIMENT_GRID,
        EXPERIMENT_MODEL.density_mlp_config,
        EXPERIMENT_MODEL.color_mlp_config,
    )
    group = wb.group_size()

    def traced():
        return accelerator.simulate_render(None, result, group_size=group)

    def recomputed():
        # The explicit budget-map path re-traces rays, re-samples points
        # and re-derives corners on every call (what the seed's implicit
        # legacy path used to do inside simulate_render).
        return accelerator.simulate_pass(camera, result.sample_counts)

    # Warm both paths (numpy, model caches); the trace memo keeps its
    # streams from the second run on.
    traced(), recomputed()
    t_trace = _best_of(traced)
    t_legacy = _best_of(recomputed)
    print(
        f"\nsimulate_render on {scene}: trace replay {t_trace * 1e3:.0f} ms "
        f"vs budget-map re-derivation {t_legacy * 1e3:.0f} ms "
        f"({t_legacy / t_trace:.2f}x)"
    )
    assert t_trace < t_legacy, (
        f"trace replay ({t_trace:.3f}s) should beat ray/corner re-derivation "
        f"({t_legacy:.3f}s)"
    )
    # Both paths must price the same density workload (color pricing
    # differs: the trace carries per-ray anchor counts, the budget map a
    # uniform fraction).
    assert traced().mlp.density_points == recomputed().mlp.density_points
