"""The AE-style ``repro bench run-all`` harness.

One invocation reproduces every machine-readable benchmark snapshot this
repo publishes — the artifact-evaluation workflow of one command in,
one ``results/`` folder out:

* ``BENCH_serving.json`` (``serving_bench/v1``) — the policy comparison,
  recorded **with telemetry on**, so the same run also yields
* ``results/obs_events.jsonl`` (``obs_events/v1``) and
  ``results/trace_events.json`` (Perfetto-loadable) — the serving
  timeline of every policy run, plus ``results/metrics.json`` (the
  folded metrics registry);
* ``BENCH_cluster.json`` (``cluster_bench/v1``) — router comparison,
  single-shard identity gated;
* ``BENCH_slo.json`` (``slo_bench/v1``) — overload control (admission,
  shedding, PSNR-guarded degrade), attainment gated;
* ``BENCH_video.json`` (``video_bench/v1``) — temporal reprojection +
  adaptive keyframe scheduling, speedup/guard/probe gated;
* ``results/summary.json`` + a printed closing table — the headline
  numbers of all four.

Every artefact is validated through :mod:`repro.obs.schemas` before the
harness reports success, so a run that emits a malformed snapshot fails
loudly.  ``--smoke`` shrinks every dimension to the CI scale (tiny
scene, two frames, one timing round) and, without ``--out-dir``, writes
under the git-ignored ``results/smoke/``; defaults match the committed
full-scale snapshots.

The cluster, SLO and video payload builders live in ``benchmarks/``
(they are also pytest modules); they are loaded by file path, so the
harness works from a source checkout without installing anything.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.export import write_chrome_trace, write_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import MemoryRecorder
from repro.obs.schemas import validate_file

#: Repo root (``src/repro/obs/bench.py`` → three parents up).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Full-scale defaults — match the committed BENCH_*.json snapshots.
FULL_PRESET = dict(
    scene="palace",
    size=16,
    frames=4,
    serving_clients=3,
    cluster_clients=6,
    shards=2,
    quantum=2,
    rounds=3,
    slo_size=16,
    video_frames=6,
    video_size=16,
)

#: CI smoke scale — the same shapes the per-bench smoke jobs use.
SMOKE_PRESET = dict(
    scene="lego",
    size=8,
    frames=2,
    serving_clients=2,
    cluster_clients=6,
    shards=2,
    quantum=2,
    rounds=1,
    slo_size=8,
    video_frames=4,
    video_size=8,
)


def _load_benchmark(name: str):
    """Import a ``benchmarks/`` module by path (they are not a package)."""
    path = REPO_ROOT / "benchmarks" / f"{name}.py"
    if not path.exists():
        raise ConfigurationError(f"benchmark module not found: {path}")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_json(path: Path, payload: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_all(
    out_dir=None,
    smoke: bool = False,
    progress: Optional[Callable[[str], None]] = print,
) -> Dict[str, object]:
    """Run the serving, cluster, SLO and video benchmark suites end to
    end.

    Writes the four ``BENCH_*.json`` snapshots into ``out_dir`` and the
    telemetry/summary artefacts into ``out_dir/results/``, validates all
    of them, and returns a manifest ``{"artifacts": {name: path},
    "problems": {path: [...]}, "summary_rows": [...]}`` — empty
    ``problems`` means every schema checked out.  Without ``out_dir`` a
    full-scale run writes into the current directory (the committed
    snapshots) and a smoke run into ``results/smoke/``.
    """
    say = progress if progress is not None else (lambda _msg: None)
    preset = SMOKE_PRESET if smoke else FULL_PRESET
    if out_dir is None:
        # Smoke-scale numbers must never overwrite the committed
        # full-scale snapshots; `results/` is git-ignored.
        out_dir = Path("results", "smoke") if smoke else "."
    out = Path(out_dir)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    artifacts: Dict[str, Path] = {}
    payloads: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    # 1. Serving policy comparison, with telemetry on.
    # ------------------------------------------------------------------
    from repro.experiments.serving import default_client_mix, serve_reports
    from repro.experiments.workbench import Workbench
    from repro.serving.policies import ALL_POLICY_NAMES
    from repro.serving.report import bench_summary, bench_table_rows

    say(f"[1/4] serving bench ({'smoke' if smoke else 'full'} scale)")
    wb = Workbench()
    requests = default_client_mix(
        scene=preset["scene"],
        clients=preset["serving_clients"],
        frames=preset["frames"],
        size=preset["size"],
    )
    policies = (
        ("round_robin", "round_robin_preemptive") if smoke
        else tuple(ALL_POLICY_NAMES)
    )
    metrics = MetricsRegistry()
    recorder = MemoryRecorder(metrics=metrics)
    reports = serve_reports(
        wb,
        requests,
        policies=policies,
        quantum=preset["quantum"],
        recorder=recorder,
    )
    payloads["serving"] = bench_summary(reports)
    artifacts["serving"] = out / "BENCH_serving.json"
    _write_json(artifacts["serving"], payloads["serving"])

    clock_hz = next(iter(reports.values())).clock_hz
    artifacts["events"] = results / "obs_events.jsonl"
    write_events_jsonl(
        artifacts["events"],
        recorder.events,
        clock_hz=clock_hz,
        meta={"suite": "serving", "policies": list(policies), **preset},
    )
    artifacts["trace"] = results / "trace_events.json"
    write_chrome_trace(artifacts["trace"], recorder.events, clock_hz=clock_hz)
    artifacts["metrics"] = results / "metrics.json"
    _write_json(artifacts["metrics"], metrics.to_dict())
    say(
        f"      {len(recorder.events)} events -> "
        f"{artifacts['events'].name}, {artifacts['trace'].name}"
    )

    # ------------------------------------------------------------------
    # 2. Cluster serving (router comparison, identity gated).
    # ------------------------------------------------------------------
    say("[2/4] cluster bench")
    cluster = _load_benchmark("test_cluster_serving")
    payloads["cluster"] = cluster.cluster_bench_payload(
        scene=preset["scene"],
        clients=preset["cluster_clients"],
        frames=preset["frames"],
        size=preset["size"],
        shards=preset["shards"],
        rounds=preset["rounds"],
    )
    artifacts["cluster"] = out / "BENCH_cluster.json"
    _write_json(artifacts["cluster"], payloads["cluster"])

    # ------------------------------------------------------------------
    # 3. SLO overload control (attainment gated).  The mix is calibrated
    #    on the palace scene at 4 frames — the shape the gates were
    #    tuned against — so only the resolution follows the preset.
    # ------------------------------------------------------------------
    say("[3/4] slo bench")
    slo = _load_benchmark("test_slo_serving")
    payloads["slo"] = slo.timed_payload(
        scene="palace",
        frames=4,
        size=preset["slo_size"],
    )
    artifacts["slo"] = out / "BENCH_slo.json"
    _write_json(artifacts["slo"], payloads["slo"])

    # ------------------------------------------------------------------
    # 4. Temporal reprojection + adaptive keyframing (speedup/guard/probe
    #    gated).  Like the SLO mix, the gates were calibrated on the
    #    palace scene, so only the resolution/frames follow the preset.
    # ------------------------------------------------------------------
    say("[4/4] video bench")
    video = _load_benchmark("test_video_reproject")
    payloads["video"] = video.timed_payload(
        scene="palace",
        frames=preset["video_frames"],
        size=preset["video_size"],
    )
    artifacts["video"] = out / "BENCH_video.json"
    _write_json(artifacts["video"], payloads["video"])

    # ------------------------------------------------------------------
    # Summary table + one-validator pass over everything written.
    # ------------------------------------------------------------------
    summary_rows = bench_table_rows(payloads)
    artifacts["summary"] = results / "summary.json"
    _write_json(
        artifacts["summary"],
        {
            "schema": "bench_runall/v1",
            "preset": dict(preset),
            "smoke": smoke,
            "rows": summary_rows,
            "artifacts": {
                name: str(path) for name, path in artifacts.items()
            },
        },
    )

    problems: Dict[str, List[str]] = {}
    for name in ("serving", "cluster", "slo", "video", "events", "trace"):
        errs = validate_file(artifacts[name])
        if errs:
            problems[str(artifacts[name])] = errs
    return {
        "artifacts": {n: str(p) for n, p in artifacts.items()},
        "problems": problems,
        "summary_rows": summary_rows,
    }
