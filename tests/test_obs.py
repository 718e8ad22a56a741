"""Observability layer: neutrality, schemas, exporters, tools.

The headline invariant is **zero perturbation**: serving with a live
recorder produces bit-identical reports to serving with the default
no-op recorder — priced by production and by the per-slice reference,
frame-atomic and preemptive policies, single servers and clusters.  It is pinned here
the same way stepped-vs-monolithic execution is pinned in
``tests/test_execution.py``: full ``to_dict()`` equality.

The ``obs_events/v1`` record shape and the Chrome trace-event structure
are pinned against ``tests/golden/obs_schema.json`` — field *names*
per event kind, not cycle values, so pricing changes do not churn the
golden while schema drift still fails loudly.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.errors import ConfigurationError
from repro.obs import (
    EVENT_KINDS,
    Event,
    MemoryRecorder,
    MetricsRegistry,
    NullRecorder,
    ScopedRecorder,
    chrome_trace,
    read_events_jsonl,
    render_dashboard,
    render_timeline,
    split_runs,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.events import (
    EV_MIGRATION,
    EV_QUANTUM,
    EV_ROUTE,
    EV_SCALE_OUT,
    EV_SCHED,
    EV_SERVE_START,
)
from repro.obs.schemas import (
    validate_cluster_bench,
    validate_file,
    validate_obs_events,
    validate_serving_bench,
    validate_slo_bench,
    validate_trace_events,
    validate_video_bench,
)
from repro.serving.cluster import ClusterServer, Migration
from repro.serving.policies import make_policy
from repro.serving.report import bench_table_rows
from repro.serving.server import SequenceServer
from repro.serving.slo import AUTO_QUANTUM, AdmissionError, SLOConfig
from repro.scenes.cameras import camera_path
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG
from tests.reference_pricer import reference_engine
from tests.test_serving import (
    _distinct_paths,
    _request,
    synthetic_sequence,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden" / "obs_schema.json"

SIZE = 8
FRAMES = 4


@pytest.fixture(scope="module")
def accelerator():
    return ASDRAccelerator(
        ArchConfig.server(),
        TEST_GRID,
        TEST_MODEL_CONFIG.density_mlp_config,
        TEST_MODEL_CONFIG.color_mlp_config,
    )


def _mixed_requests():
    """Twins + a departing client + a distinct orbit: every serving
    event kind short of the cluster ones fires under preemption."""
    twin_path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
    other = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.6)
    quitter = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.9)
    return [
        _request("orig", twin_path),
        _request("twin", twin_path),
        _request("other", other),
        _request("quit", quitter, departure_cycle=40),
    ]


def _server(accelerator, requests, recorder=None, varied=True):
    server = SequenceServer(accelerator, recorder=recorder)
    for request in requests:
        server.submit(
            request, synthetic_sequence(request.path, varied=varied)
        )
    return server


def _serve_events(accelerator, policy="round_robin_preemptive"):
    rec = MemoryRecorder()
    _server(accelerator, _mixed_requests(), recorder=rec).serve(policy)
    return rec.events


def _abort_events(accelerator):
    """A departure timed to land mid-frame under a 1-step quantum, so the
    in-flight ``frame_abort`` path fires (same setup as
    ``test_departure_abandons_in_flight_execution``)."""
    paths = _distinct_paths(2)
    quit_seq = synthetic_sequence(paths[1], varied=True)
    first_cycles = (
        accelerator.frame_execution(quit_seq, 0).finish().total_cycles
    )
    rec = MemoryRecorder()
    server = SequenceServer(accelerator, shared_content=False, recorder=rec)
    server.submit(
        _request("stay", paths[0]),
        synthetic_sequence(paths[0], varied=True),
    )
    server.submit(
        _request(
            "quit", paths[1], departure_cycle=max(2, first_cycles // 4)
        ),
        quit_seq,
    )
    server.serve(make_policy("round_robin_preemptive", quantum=1))
    return rec.events


def _reproject_masks(clients=("urgent",), frames=(1,)):
    """Boolean skip masks (every other ray converged) keyed like
    :attr:`SLOConfig.reproject_masks` for the module's SIZE."""
    mask = np.zeros(SIZE * SIZE, dtype=bool)
    mask[::2] = True
    return {(c, k): mask for c in clients for k in frames}


def _slo_events(accelerator):
    """Overload-control scenario: an interactive tenant with an
    impossible cadence plus batch ballast under an armed
    :class:`SLOConfig` — admission reject, batch shedding, degraded
    serving, temporal reprojection (one armed frame) and auto-quantum
    tuning all fire."""
    paths = _distinct_paths(4)
    sequences = {p: synthetic_sequence(p, varied=True) for p in paths}
    scratch = SequenceServer(accelerator)
    admitted = [
        _request(
            "urgent",
            paths[0],
            frame_interval_cycles=50,
            slo_class="interactive",
        ),
        _request("bulk0", paths[1], slo_class="batch"),
        _request("bulk1", paths[2], slo_class="batch"),
    ]
    for request in admitted:
        scratch.submit(request, sequences[request.path])
    cap = int(scratch.projected_backlog_cycles()) + 1
    rec = MemoryRecorder()
    server = SequenceServer(
        accelerator,
        slo=SLOConfig(
            admit_cycles=cap,
            shed=True,
            degrade=True,
            degrade_fraction=0.5,
            reproject_masks=_reproject_masks(),
            reproject_psnr={("urgent", 1): 35.0},
        ),
        recorder=rec,
    )
    for request in admitted:
        server.submit(request, sequences[request.path])
    with pytest.raises(AdmissionError):
        server.submit(
            _request("over", paths[3], slo_class="batch"),
            sequences[paths[3]],
        )
    server.serve(make_policy("deadline_preemptive", quantum=AUTO_QUANTUM))
    return rec.events


def _cluster_events(accelerator):
    """A two-shard fleet with a spare, a scale-out and a migration."""
    rec = MemoryRecorder()
    cluster = ClusterServer(
        [accelerator, accelerator],
        router="affinity",
        spare_accelerators=[accelerator],
        scale_out_threshold=1,
        recorder=rec,
    )
    for request in _mixed_requests()[:3]:
        cluster.submit(
            request, synthetic_sequence(request.path, varied=True)
        )
    home = cluster.placement_of("other")
    away = next(n for n in cluster.shard_names if n != home)
    cluster.serve(
        "round_robin_preemptive",
        migrations=[
            Migration(client_id="other", after_frame=2, to_shard=away)
        ],
    )
    return rec.events


# ----------------------------------------------------------------------
# The headline invariant: telemetry never changes a report
# ----------------------------------------------------------------------
class TestNeutrality:
    @pytest.mark.parametrize("policy", ["fifo", "round_robin",
                                        "round_robin_preemptive",
                                        "deadline_preemptive"])
    def test_serve_reports_bit_identical(self, accelerator, policy):
        requests = _mixed_requests()
        off = _server(accelerator, requests).serve(policy)
        rec = MemoryRecorder(metrics=MetricsRegistry())
        on = _server(accelerator, requests, recorder=rec).serve(policy)
        assert on.to_dict() == off.to_dict()
        assert rec.events, "an enabled recorder must actually record"

    def test_null_recorder_equals_no_recorder(self, accelerator):
        requests = _mixed_requests()
        off = _server(accelerator, requests).serve("round_robin")
        null = SequenceServer(accelerator, recorder=NullRecorder())
        for request in requests:
            null.submit(request, synthetic_sequence(request.path, varied=True))
        assert null.serve("round_robin").to_dict() == off.to_dict()

    def test_scalar_engine_bit_identical(self, accelerator):
        """Recorder on/off identity holds with the reference pricer too."""
        requests = _mixed_requests()
        with reference_engine():
            off = _server(accelerator, requests).serve(
                "round_robin_preemptive"
            )
            on = _server(
                accelerator, requests, recorder=MemoryRecorder()
            ).serve("round_robin_preemptive")
        assert on.to_dict() == off.to_dict()

    def test_cluster_reports_bit_identical(self, accelerator):
        def run(recorder):
            cluster = ClusterServer(
                [accelerator, accelerator],
                router="affinity",
                recorder=recorder,
            )
            for request in _mixed_requests():
                cluster.submit(
                    request, synthetic_sequence(request.path, varied=True)
                )
            return cluster.serve("round_robin_preemptive").to_dict()

        assert run(MemoryRecorder()) == run(None)

    def test_recorder_sees_exec_and_serving_domains(self, accelerator):
        kinds = {e.kind for e in _serve_events(accelerator)}
        assert "quantum" in kinds and "serve_start" in kinds
        assert "exec_batch" in kinds or "exec_step" in kinds

    def test_reprojected_serve_bit_identical(self, accelerator):
        """Temporal-reprojection degrade keeps the neutrality contract:
        recorder on/off reports match bit-for-bit and the reprojected
        frames actually fire."""
        paths = _distinct_paths(3)
        requests = [
            _request(
                "urgent",
                paths[0],
                frame_interval_cycles=50,
                slo_class="interactive",
            ),
            _request("bulk0", paths[1], slo_class="batch"),
            _request("bulk1", paths[2], slo_class="batch"),
        ]
        slo = SLOConfig(
            degrade=True,
            degrade_min_psnr=30.0,
            reproject_masks=_reproject_masks(
                clients=("urgent", "bulk0", "bulk1"), frames=(1, 2, 3)
            ),
            reproject_psnr={
                (c, k): 35.0
                for c in ("urgent", "bulk0", "bulk1")
                for k in (1, 2, 3)
            },
        )

        def run(recorder):
            server = SequenceServer(accelerator, slo=slo, recorder=recorder)
            for request in requests:
                server.submit(
                    request, synthetic_sequence(request.path, varied=True)
                )
            return server.serve(
                make_policy("deadline_preemptive", quantum=2)
            )

        rec = MemoryRecorder()
        on = run(rec)
        assert any(e.kind == "reproject" for e in rec.events)
        assert any(
            d.get("mode") == "reproject"
            for c in on.clients
            for d in c.degraded
        )
        assert on.to_dict() == run(None).to_dict()
        with reference_engine():
            assert run(None).to_dict() == on.to_dict()


# ----------------------------------------------------------------------
# Recorder contract
# ----------------------------------------------------------------------
class TestRecorder:
    def test_null_recorder_is_disabled_noop(self):
        rec = NullRecorder()
        assert rec.enabled is False
        rec.emit("quantum", 1, cycles=2)  # must not raise, must not store

    def test_memory_recorder_records_and_folds_metrics(self):
        metrics = MetricsRegistry()
        rec = MemoryRecorder(metrics=metrics)
        rec.emit(EV_QUANTUM, 10, client="a", frame=0, cycles=120)
        rec.emit(EV_QUANTUM, 130, client="a", frame=0, cycles=80)
        assert len(rec) == 2
        assert rec.events[0].clock == 10
        hist = metrics.histogram("quantum_cycles", shard="")
        assert hist.count == 2
        rec.clear()
        assert len(rec) == 0

    def test_scoped_recorder_merges_labels(self):
        base = MemoryRecorder()
        scoped = ScopedRecorder(base, shard="s0")
        scoped.emit(EV_QUANTUM, 5, client="a", cycles=3)
        assert base.events[0].fields["shard"] == "s0"
        assert base.events[0].fields["client"] == "a"
        # Event fields win over scope labels on collision.
        ScopedRecorder(base, client="scope").emit(EV_QUANTUM, 6, client="ev")
        assert base.events[1].fields["client"] == "ev"

    def test_scoped_recorder_inherits_disabled(self):
        assert ScopedRecorder(NullRecorder(), shard="x").enabled is False


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.counter("frames", client="a").inc()
        m.counter("frames", client="a").inc(2)
        assert m.counter("frames", client="a").value == 3
        g = m.gauge("depth")
        g.set(5)
        g.set(2)
        assert (g.value, g.min_seen, g.max_seen) == (2, 2, 5)
        h = m.histogram("lat", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1]
        assert h.mean == pytest.approx(185.0)

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_from_events_and_to_dict(self, accelerator):
        m = MetricsRegistry.from_events(_serve_events(accelerator))
        d = m.to_dict()
        assert set(d) == {"counters", "gauges", "histograms"}
        totals = [
            row for row in d["counters"] if row["name"] == "obs_events_total"
        ]
        assert totals and all(r["value"] > 0 for r in totals)


# ----------------------------------------------------------------------
# Exporters and the golden schema
# ----------------------------------------------------------------------
class TestExport:
    def test_jsonl_round_trip(self, accelerator, tmp_path):
        events = _serve_events(accelerator)
        path = tmp_path / "events.jsonl"
        write_events_jsonl(path, events, clock_hz=1e9, meta={"run": "t"})
        header, loaded = read_events_jsonl(path)
        assert header["clock_hz"] == 1e9
        assert header["meta"] == {"run": "t"}
        assert loaded == events
        assert validate_file(path) == []

    def test_read_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "nope/v1"}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            read_events_jsonl(bad)

    def test_chrome_trace_valid_and_deterministic(self, accelerator, tmp_path):
        events = _serve_events(accelerator)
        trace = chrome_trace(events, clock_hz=1e9)
        assert validate_trace_events(trace) == []
        assert trace == chrome_trace(events, clock_hz=1e9)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, events, clock_hz=1e9)
        assert validate_file(path) == []

    def test_golden_event_and_trace_schema(self, accelerator):
        """Field names per event kind and trace-event key structure are
        pinned — values are free to change with pricing, shapes are not."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        batched = _serve_events(accelerator)
        with reference_engine():
            scalar = _serve_events(accelerator)
        cluster = _cluster_events(accelerator)
        aborts = _abort_events(accelerator)
        slo = _slo_events(accelerator)
        seen = {}
        for ev in batched + scalar + cluster + aborts + slo:
            fields = {k for k in ev.fields if k != "shard"}
            seen.setdefault(ev.kind, set()).update(fields)
        assert set(seen) == set(EVENT_KINDS), (
            "reference runs must exercise every event kind; missing: "
            f"{sorted(set(EVENT_KINDS) - set(seen))}"
        )
        assert {k: sorted(v) for k, v in seen.items()} == golden["events"]
        trace = chrome_trace(batched + cluster)
        shapes = {}
        for tev in trace["traceEvents"]:
            shapes.setdefault(tev["ph"], set()).update(tev.keys())
        assert {ph: sorted(keys) for ph, keys in shapes.items()} == (
            golden["trace"]
        )


# ----------------------------------------------------------------------
# Timeline dashboard
# ----------------------------------------------------------------------
class TestTimeline:
    def test_split_runs_per_policy(self, accelerator):
        rec = MemoryRecorder()
        server = _server(accelerator, _mixed_requests(), recorder=rec)
        server.serve("round_robin")
        server.serve("round_robin_preemptive")
        runs = split_runs(rec.events)
        assert len(runs) == 2
        assert all(
            any(e.kind == EV_SERVE_START for e in run) for run in runs
        )

    def test_render_contains_lanes_and_engines(self, accelerator):
        events = _serve_events(accelerator)
        out = render_timeline(events, width=40)
        assert "policy=round_robin_preemptive" in out
        for client in ("orig", "twin", "other"):
            assert f"server/{client}" in out
        assert "queue depth" in out and "engines:" in out
        assert render_timeline(events, width=40) == out  # deterministic

    def test_render_dashboard_stacks_runs(self, accelerator):
        rec = MemoryRecorder()
        server = _server(accelerator, _mixed_requests(), recorder=rec)
        server.serve("fifo")
        server.serve("round_robin")
        out = render_dashboard(rec.events, width=40)
        assert out.count("timeline policy=") == 2

    def test_empty_run_renders_placeholder(self):
        out = render_timeline([Event(EV_SCHED, 0, {"ready": 1})])
        assert "no executable events" in out


# ----------------------------------------------------------------------
# Schema validators (shared with tools/validate_bench.py and run-all)
# ----------------------------------------------------------------------
class TestSchemas:
    def test_serving_bench_checks(self):
        ok = {
            "schema": "serving_bench/v1",
            "policies": {
                "round_robin_preemptive": {
                    k: 1
                    for k in (
                        "p50_ms", "p95_ms", "throughput_fps", "fairness",
                        "context_switches", "busy_cycles",
                        "back_to_back_cycles",
                    )
                }
            },
        }
        assert validate_serving_bench(ok) == []
        assert validate_serving_bench({"schema": "nope"}) != []
        missing = json.loads(json.dumps(ok))
        del missing["policies"]["round_robin_preemptive"]["fairness"]
        assert any("fairness" in p for p in validate_serving_bench(missing))
        atomic_only = json.loads(json.dumps(ok))
        atomic_only["policies"] = {
            "fifo": atomic_only["policies"]["round_robin_preemptive"]
        }
        assert validate_serving_bench(atomic_only) != []

    def test_cluster_bench_checks(self):
        router = {
            k: 1
            for k in (
                "router", "policy", "shards", "total_busy_cycles",
                "total_frames", "fairness", "p50_ms", "p95_ms",
                "migrations", "utilisation",
            )
        }
        ok = {
            "schema": "cluster_bench/v1",
            "single_shard_identical": True,
            "routers": {"affinity": dict(router), "random": dict(router)},
            "affinity_over_random_cycles": 1.0,
        }
        assert validate_cluster_bench(ok) == []
        worse = json.loads(json.dumps(ok))
        worse["routers"]["affinity"]["total_busy_cycles"] = 2
        assert any("more fleet cycles" in p
                   for p in validate_cluster_bench(worse))
        broken = json.loads(json.dumps(ok))
        broken["single_shard_identical"] = False
        assert validate_cluster_bench(broken) != []

    def test_slo_bench_checks(self):
        def run(interactive, busy, shed, degraded):
            return {
                "policy": "deadline_preemptive",
                "slo_attainment": {"batch": 0.0, "interactive": interactive},
                "busy_cycles": busy,
                "total_frames": 12,
                "shed_frames": shed,
                "degraded_frames": degraded,
            }

        ok = {
            "schema": "slo_bench/v1",
            "baseline": run(0.25, 1000, 0, 0),
            "slo": {
                **run(1.0, 800, 4, 1),
                "degraded": [
                    {"client": "a", "frame": 2, "fraction": 0.5, "psnr": 31.0}
                ],
            },
            "admission_rejects": 1,
            "degrade_min_psnr": 25.0,
        }
        assert validate_slo_bench(ok) == []
        assert validate_slo_bench({"schema": "nope"}) != []

        calm = json.loads(json.dumps(ok))
        calm["baseline"]["slo_attainment"]["interactive"] = 0.9
        assert any("not an overload" in p for p in validate_slo_bench(calm))

        low = json.loads(json.dumps(ok))
        low["slo"]["slo_attainment"]["interactive"] = 0.8
        assert any("floor" in p for p in validate_slo_bench(low))

        pricey = json.loads(json.dumps(ok))
        pricey["slo"]["busy_cycles"] = 2000
        assert any("fleet cycles" in p for p in validate_slo_bench(pricey))

        idle = json.loads(json.dumps(ok))
        idle["slo"]["shed_frames"] = 0
        idle["admission_rejects"] = 0
        problems = validate_slo_bench(idle)
        assert any("shed" in p for p in problems)
        assert any("admission" in p for p in problems)

        blurry = json.loads(json.dumps(ok))
        blurry["slo"]["degraded"][0]["psnr"] = 10.0
        assert any("guard" in p for p in validate_slo_bench(blurry))

        unguarded = json.loads(json.dumps(ok))
        del unguarded["degrade_min_psnr"]
        assert any(
            "degrade_min_psnr" in p for p in validate_slo_bench(unguarded)
        )

    def test_video_bench_checks(self):
        ok = {
            "schema": "video_bench/v1",
            "psnr_guard": 24.0,
            "orbit": {
                "fresh_cycles": 1000,
                "reproject_cycles": 400,
                "speedup_vs_fresh": 2.5,
                "frames": [
                    {"frame": 0, "reprojected": 0},
                    {
                        "frame": 1,
                        "reprojected": 200,
                        "guard_psnr": 40.0,
                        "fallback": False,
                    },
                ],
            },
            "keyframes": {
                "fixed": {"probes": 7, "min_psnr": 29.0, "mean_psnr": 60.0},
                "adaptive": {
                    "probes": 4, "min_psnr": 29.0, "mean_psnr": 55.0,
                },
            },
        }
        assert validate_video_bench(ok) == []
        assert validate_video_bench({"schema": "nope"}) != []
        assert any(
            "keyframes" in p
            for p in validate_video_bench(
                {"schema": "video_bench/v1", "psnr_guard": 24.0, "orbit": {}}
            )
        )

        slow = json.loads(json.dumps(ok))
        slow["orbit"]["speedup_vs_fresh"] = 1.2
        assert any("floor" in p for p in validate_video_bench(slow))

        idle = json.loads(json.dumps(ok))
        idle["orbit"]["frames"][1]["reprojected"] = 0
        assert any(
            "no frame reprojected" in p for p in validate_video_bench(idle)
        )

        blurry = json.loads(json.dumps(ok))
        blurry["orbit"]["frames"][1]["guard_psnr"] = 20.0
        assert any("guard" in p for p in validate_video_bench(blurry))

        bailed = json.loads(json.dumps(ok))
        bailed["orbit"]["frames"][1]["fallback"] = True
        assert any("fell back" in p for p in validate_video_bench(bailed))

        clocked = json.loads(json.dumps(ok))
        clocked["keyframes"]["adaptive"]["probes"] = 7
        assert any(
            "not fewer" in p for p in validate_video_bench(clocked)
        )

        lossy = json.loads(json.dumps(ok))
        lossy["keyframes"]["adaptive"]["min_psnr"] = 20.0
        assert any("below fixed" in p for p in validate_video_bench(lossy))

    def test_obs_events_checks(self):
        header = {"schema": "obs_events/v1", "clock_hz": 1e9, "meta": {}}
        good = [{"kind": "quantum", "clock": 3, "fields": {}}]
        assert validate_obs_events(header, good) == []
        assert validate_obs_events({"schema": "x"}, good) != []
        assert validate_obs_events(
            header, [{"kind": "martian", "clock": 1, "fields": {}}]
        ) != []
        assert validate_obs_events(
            header, [{"kind": "quantum", "clock": -1, "fields": {}}]
        ) != []

    def test_bench_table_rows_partial_payloads(self):
        rows = bench_table_rows(
            {
                "slo": {
                    "slo": {
                        "slo_attainment": {"interactive": 0.96},
                        "shed_frames": 3,
                        "degraded_frames": 1,
                        "busy_cycles": 1234,
                    }
                }
            }
        )
        assert len(rows) == 1
        assert rows[0]["case"] == "slo"
        assert rows[0]["value"] == "0.96 (shed 3, degraded 1)"
        assert bench_table_rows({}) == []


# ----------------------------------------------------------------------
# CLI surface of the telemetry commands
# ----------------------------------------------------------------------
class TestCliParser:
    def test_cli_exposes_timeline_and_bench_commands(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["timeline", "ev.jsonl"])
        assert args.events == "ev.jsonl"
        args = build_parser().parse_args(["bench", "run-all", "--smoke"])
        assert args.smoke is True


# ----------------------------------------------------------------------
# The tools (negative-tested like tools/check_docs.py)
# ----------------------------------------------------------------------
def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidateBenchTool:
    def test_passes_valid_artifacts(self, accelerator, tmp_path, capsys):
        tool = _load_tool("validate_bench")
        events = _serve_events(accelerator)
        jsonl = tmp_path / "events.jsonl"
        write_events_jsonl(jsonl, events, clock_hz=1e9)
        trace = tmp_path / "trace.json"
        write_chrome_trace(trace, events)
        assert tool.main([str(jsonl), str(trace)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_catches_planted_breakage(self, tmp_path, capsys):
        tool = _load_tool("validate_bench")
        bad = tmp_path / "BENCH_serving.json"
        bad.write_text(
            json.dumps({"schema": "serving_bench/v1", "policies": {
                "fifo": {"p50_ms": 1}
            }}),
            encoding="utf-8",
        )
        missing = tmp_path / "gone.json"
        assert tool.main([str(bad), str(missing)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "does not exist" in out


class TestBenchHistoryTool:
    def test_walks_committed_revisions(self, capsys):
        tool = _load_tool("bench_history")
        assert tool.main(["--root", str(REPO_ROOT), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == set(tool.BENCH_FILES)

    def test_fails_outside_git(self, tmp_path, capsys):
        tool = _load_tool("bench_history")
        assert tool.main(["--root", str(tmp_path)]) == 1


# ----------------------------------------------------------------------
# Cluster event coverage
# ----------------------------------------------------------------------
class TestClusterEvents:
    def test_route_scale_out_and_migration_events(self, accelerator):
        events = _cluster_events(accelerator)
        kinds = {e.kind for e in events}
        assert {EV_ROUTE, EV_SCALE_OUT, EV_MIGRATION} <= kinds
        shards = {
            e.fields["shard"] for e in events if "shard" in e.fields
        }
        assert len(shards) >= 2, "per-shard scoping must tag events"
