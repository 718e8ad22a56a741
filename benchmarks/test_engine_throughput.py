"""Engine throughput: production frame pricing vs the per-slice reference.

Production prices each frame once in fused passes and replays the plan
(:mod:`repro.exec.batch`); ``tests/reference_pricer.py`` prices the same
steps one wavefront slice at a time from the model's primitives.  The
reference is the stepped baseline here, timed against production on the
*same* workload so the numbers are comparable run to run:

* **serve wall-clock** — the full ``repro serve`` client mix, timed once
  priced by the reference (the ``scalar`` keys of the payload) and once
  by production (the ``batched`` keys).  Each mode gets its own
  :class:`Workbench` and its own untimed warmup run, so neither mode is
  flattered by memo caches the other populated.
* **frame microbench** — wavefront steps per second through one
  multi-step :class:`FrameExecution`, reference vs production.
* **cold frames** — fresh traces of growing size, reference vs
  production, so plan assembly is timed with nothing memoised.

Speed claims are only meaningful if production computes the same thing,
so every measurement *asserts bit-identity* — every
``ServeReport.to_rows()`` row, every policy, every frame report —
between the two before it reports a speedup.  A divergence fails the
benchmark (and the CI smoke job) rather than shipping a fast wrong
number.

Runs two ways:

* under pytest (with ``pytest-benchmark``) at smoke scale, as part of
  the tier-1 suite;
* as a script (numpy-only, no pytest needed) emitting the
  machine-readable ``BENCH_engine.json`` (schema ``engine_bench/v1``)::

      PYTHONPATH=src python benchmarks/test_engine_throughput.py \
          --clients 6 --frames 4 --size 16 --out BENCH_engine.json

The committed ``BENCH_engine.json`` snapshots the full six-client palace
mix; CI regenerates a small-config one per push and fails on divergence.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exec.frame_trace import FrameTrace
from repro.experiments.serving import default_client_mix, serve_reports
from repro.experiments.workbench import Workbench, experiment_accelerator
from repro.scenes.cameras import camera_path

try:  # CI's serve-smoke job runs script mode on a bare numpy install
    import pytest
except ImportError:  # pragma: no cover
    pytest = None  # type: ignore[assignment]


def _load_reference_pricer():
    """Import ``tests/reference_pricer.py`` by path (script mode runs
    without the repo root on ``sys.path``)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "reference_pricer.py"
    spec = importlib.util.spec_from_file_location("reference_pricer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference_engine = _load_reference_pricer().reference_engine


def _best_of(fn: Callable[[], object], rounds: int) -> float:
    """Best wall-clock of ``rounds`` calls — the standard noise filter
    for a shared machine (the minimum estimates the undisturbed cost)."""
    best = float("inf")
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _serve_rows(
    wb: Workbench, requests: Sequence, quantum: int
) -> Dict[str, List[Dict[str, object]]]:
    reports = serve_reports(wb, requests, quantum=quantum)
    return {policy: report.to_rows() for policy, report in reports.items()}


def serve_benchmark(
    scene: str = "palace",
    clients: int = 6,
    frames: int = 4,
    size: int = 16,
    quantum: int = 2,
    rounds: int = 3,
) -> Dict[str, object]:
    """Time the serving mix reference (``scalar``) vs production
    (``batched``); assert bit-identity.

    Each mode builds a fresh :class:`Workbench`, pre-renders every client
    sequence (rendering is outside the engine being measured), runs one
    untimed warmup pass, then keeps the best of ``rounds`` timed passes.
    """
    results: Dict[str, object] = {}
    rows_by_mode: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
    for mode in ("scalar", "batched"):
        wb = Workbench()
        requests = default_client_mix(
            scene=scene, clients=clients, frames=frames, size=size
        )
        for request in requests:
            wb.client_sequence(request)  # pre-render, untimed

        def run() -> None:
            rows_by_mode[mode] = _serve_rows(wb, requests, quantum)

        if mode == "scalar":
            with reference_engine():
                run()  # warmup
                seconds = _best_of(run, rounds)
        else:
            run()  # warmup
            seconds = _best_of(run, rounds)
        results[f"{mode}_seconds"] = round(seconds, 4)

    identical = rows_by_mode["scalar"] == rows_by_mode["batched"]
    assert identical, (
        "production serving diverged from the reference pricer — it must "
        "be bit-identical before its speed means anything"
    )
    results["identical_rows"] = identical
    results["policies"] = sorted(rows_by_mode["batched"])
    results["speedup"] = round(
        results["scalar_seconds"] / max(results["batched_seconds"], 1e-9), 2
    )
    return results


def _report_key(report) -> tuple:
    return (
        report.total_cycles,
        report.encoding.cycles,
        report.mlp.cycles,
        report.render.cycles,
        tuple(sorted(report.energy_by_component.items())),
    )


def frame_microbenchmark(
    size: int = 16, groups: int = 8, rounds: int = 3
) -> Dict[str, object]:
    """Wavefront steps per second through one serving-scale frame,
    reference (stepped) vs production, on the acceptance-scale
    accelerator.

    Sized like the frames the serve mix actually schedules (16x16, a
    handful of budget groups); larger frames are timed cold by
    :func:`cold_plan_benchmark`."""
    acc = experiment_accelerator("server")
    cam = camera_path("orbit", 1, size, size, arc=0.4).cameras()[0]
    budgets = (1 + (np.arange(size * size) % groups) * 3).astype(np.int64)
    trace = FrameTrace.from_budgets(cam, budgets)

    state: Dict[str, object] = {}

    def run_stepped() -> None:
        with reference_engine():
            ex = acc.trace_execution(trace)
            while not ex.done:
                ex.step()
            state["stepped"] = _report_key(ex.finish())
        state["n"] = ex.steps_done

    def run_batched() -> None:
        ex = acc.trace_execution(trace)
        while not ex.done:
            ex.run()
        state["batched"] = _report_key(ex.finish())
        state["n"] = ex.steps_done

    run_stepped()  # warmup
    stepped_s = _best_of(run_stepped, rounds)
    run_batched()  # warmup
    batched_s = _best_of(run_batched, rounds)
    assert state["stepped"] == state["batched"], (
        "production frame pricing diverged from the reference pricer"
    )
    return {
        "steps": int(state["n"]),
        "identical_reports": True,
        "stepped_seconds": round(stepped_s, 5),
        "batched_seconds": round(batched_s, 5),
        "stepped_steps_per_s": round(state["n"] / stepped_s, 1),
        "batched_steps_per_s": round(state["n"] / batched_s, 1),
        "speedup": round(stepped_s / max(batched_s, 1e-9), 2),
    }


def cold_plan_benchmark(
    sizes: Sequence[int] = (16, 32),
    budget_scale: int = 1,
    rounds: int = 2,
) -> Dict[str, object]:
    """Reference (stepped) vs production (planned) wall-clock on *cold*
    frames.

    Every timed pass builds a **fresh** trace (no memoised streams, no
    plan — the case a one-shot large frame hits), so production pays its
    whole plan assembly.  Both price bit-identically (asserted here).
    ``sizes`` are frame edges in pixels; each doubling quadruples the
    density points (16 → 2,944, 32 → 11,776, 64 → 47,104).
    """
    acc = experiment_accelerator("server")
    points_list: List[Dict[str, object]] = []
    for size in sizes:
        def make_trace() -> FrameTrace:
            cam = camera_path("orbit", 1, size, size, arc=0.4).cameras()[0]
            budgets = (
                (1 + (np.arange(size * size) % 8) * 3) * budget_scale
            ).astype(np.int64)
            return FrameTrace.from_budgets(cam, budgets)

        state: Dict[str, object] = {}

        def run_cold(mode: str) -> None:
            trace = make_trace()  # fresh: cold memo, cold setup cache
            ex = acc.trace_execution(trace)
            if mode == "stepped":
                with reference_engine():
                    state["stepped"] = _report_key(ex.finish())
            else:
                state["planned"] = _report_key(ex.finish())
            state["points"] = trace.density_points

        stepped_s = _best_of(lambda: run_cold("stepped"), rounds)
        planned_s = _best_of(lambda: run_cold("planned"), rounds)
        assert state["stepped"] == state["planned"], (
            "production cold-frame pricing diverged from the reference"
        )
        points_list.append(
            {
                "size": size,
                "points": int(state["points"]),
                "stepped_seconds": round(stepped_s, 5),
                "planned_seconds": round(planned_s, 5),
                "planned_over_stepped": round(
                    planned_s / max(stepped_s, 1e-9), 3
                ),
            }
        )
    return {"frames": points_list}


def engine_bench_payload(
    scene: str = "palace",
    clients: int = 6,
    frames: int = 4,
    size: int = 16,
    quantum: int = 2,
    rounds: int = 3,
) -> Dict[str, object]:
    """The full ``engine_bench/v1`` document."""
    return {
        "schema": "engine_bench/v1",
        "config": {
            "scene": scene,
            "clients": clients,
            "frames": frames,
            "size": size,
            "quantum": quantum,
            "rounds": rounds,
        },
        "serve": serve_benchmark(
            scene=scene,
            clients=clients,
            frames=frames,
            size=size,
            quantum=quantum,
            rounds=rounds,
        ),
        "frame_micro": frame_microbenchmark(rounds=rounds),
        "cold_plan": cold_plan_benchmark(rounds=rounds),
    }


if pytest is not None:

    @pytest.mark.parametrize("quantum", [2])
    def test_serve_bit_identity_and_speedup(benchmark, quantum):
        """Smoke scale: production serving is bit-identical to the
        reference pricer.  The speedup lives in the committed full-scale
        ``BENCH_engine.json``; at 2 clients x 2 frames x 8x8 fixed
        overheads dominate, so nothing about speed is asserted here."""
        wb = Workbench()
        requests = default_client_mix(clients=2, frames=2, size=8)
        for request in requests:
            wb.client_sequence(request)
        with reference_engine():
            scalar_rows = _serve_rows(wb, requests, quantum)
        rows = benchmark.pedantic(
            lambda: _serve_rows(wb, requests, quantum),
            rounds=1,
            iterations=1,
        )
        assert rows == scalar_rows

    def test_frame_micro_identity(benchmark):
        """The single-frame hot loop: production pricing matches the
        reference bit-for-bit (asserted inside the microbenchmark); the
        speedup is reported, not thresholded — wall-clock gates live in
        the committed snapshot, not in CI-noise territory."""
        micro = benchmark.pedantic(
            lambda: frame_microbenchmark(size=16, groups=8, rounds=1),
            rounds=1,
            iterations=1,
        )
        print(
            f"\n== engine micro | {micro['steps']} steps: "
            f"reference {micro['stepped_steps_per_s']}/s vs "
            f"production {micro['batched_steps_per_s']}/s "
            f"({micro['speedup']}x)"
        )
        assert micro["identical_reports"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Engine throughput benchmark (emits engine_bench/v1)"
    )
    parser.add_argument("--scene", default="palace")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--size", type=int, default=16)
    parser.add_argument("--quantum", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args(argv)

    payload = engine_bench_payload(
        scene=args.scene,
        clients=args.clients,
        frames=args.frames,
        size=args.size,
        quantum=args.quantum,
        rounds=args.rounds,
    )
    serve = payload["serve"]
    micro = payload["frame_micro"]
    print(
        f"serve   : reference {serve['scalar_seconds']}s -> "
        f"production {serve['batched_seconds']}s "
        f"({serve['speedup']}x, identical rows)"
    )
    print(
        f"frame   : reference {micro['stepped_steps_per_s']}/s -> "
        f"{micro['batched_steps_per_s']}/s steps ({micro['speedup']}x)"
    )
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
