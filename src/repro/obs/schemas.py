"""One validator for every machine-readable artefact this repo emits.

The CI smoke jobs, ``tools/validate_bench.py`` and the ``repro bench
run-all`` harness all validate through these functions, so a schema
change has exactly one place to go stale.  Each ``validate_*`` returns a
list of problem strings — empty means valid — mirroring the
``tools/check_docs.py`` idiom (callers print the problems and exit
non-zero).

Covered schemas:

* ``serving_bench/v1`` — :func:`repro.serving.report.bench_summary`
* ``cluster_bench/v1`` — ``benchmarks/test_cluster_serving.py``
* ``slo_bench/v1``     — ``benchmarks/test_slo_serving.py``
* ``video_bench/v1``   — ``benchmarks/test_video_reproject.py``
* ``obs_events/v1``    — :mod:`repro.obs.export` JSONL logs
* Chrome trace-event JSON — :func:`repro.obs.export.chrome_trace`
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.events import EVENT_KINDS, OBS_EVENTS_SCHEMA

#: Per-policy keys every ``serving_bench/v1`` entry must carry (the
#: former serve-smoke inline check).
SERVING_POLICY_KEYS = (
    "p50_ms",
    "p95_ms",
    "throughput_fps",
    "fairness",
    "context_switches",
    "busy_cycles",
    "back_to_back_cycles",
)

#: Per-router keys every ``cluster_bench/v1`` entry must carry.
CLUSTER_ROUTER_KEYS = (
    "router",
    "policy",
    "shards",
    "total_busy_cycles",
    "total_frames",
    "fairness",
    "p50_ms",
    "p95_ms",
    "migrations",
    "utilisation",
)

#: Chrome trace-event phases the exporter emits.
TRACE_PHASES = ("X", "M", "C", "i")

#: Keys both the baseline and the SLO run of an ``slo_bench/v1``
#: payload must carry.
SLO_RUN_KEYS = (
    "policy",
    "slo_attainment",
    "busy_cycles",
    "total_frames",
    "shed_frames",
    "degraded_frames",
)

#: The ``slo_bench/v1`` acceptance gates (also asserted inline by
#: ``benchmarks/test_slo_serving.py``): the SLO machinery must lift
#: interactive attainment to at least this …
SLO_INTERACTIVE_FLOOR = 0.95
#: … on an overload mix where the no-SLO baseline attains less than this.
SLO_BASELINE_CEILING = 0.7

#: The ``video_bench/v1`` headline gate (also asserted inline by
#: ``benchmarks/test_video_reproject.py``): amortised cycles of the
#: reprojected orbit vs independent per-frame ASDR simulation.
VIDEO_SPEEDUP_FLOOR = 1.5

#: Keys both scheduler runs of a ``video_bench/v1`` ``keyframes``
#: section must carry.
VIDEO_KEYFRAME_RUN_KEYS = ("probes", "min_psnr", "mean_psnr")


def validate_serving_bench(data: Dict) -> List[str]:
    """``serving_bench/v1``: schema tag, per-policy keys, preemptive
    coverage."""
    problems: List[str] = []
    if data.get("schema") != "serving_bench/v1":
        return [f"schema is {data.get('schema')!r}, want 'serving_bench/v1'"]
    policies = data.get("policies")
    if not isinstance(policies, dict) or not policies:
        return ["'policies' missing or empty"]
    for name, rep in policies.items():
        for key in SERVING_POLICY_KEYS:
            if key not in rep:
                problems.append(f"policy {name!r} missing {key!r}")
    if not any(n.endswith("_preemptive") for n in policies):
        problems.append("no *_preemptive policy in the run")
    return problems


def validate_cluster_bench(data: Dict) -> List[str]:
    """``cluster_bench/v1``: identity gate, router set, per-router keys
    and the affinity-beats-random ordering (the former inline check)."""
    problems: List[str] = []
    if data.get("schema") != "cluster_bench/v1":
        return [f"schema is {data.get('schema')!r}, want 'cluster_bench/v1'"]
    if data.get("single_shard_identical") is not True:
        problems.append("single_shard_identical is not True")
    routers = data.get("routers")
    if not isinstance(routers, dict):
        return problems + ["'routers' missing"]
    if set(routers) != {"affinity", "random"}:
        problems.append(
            f"routers are {sorted(routers)}, want ['affinity', 'random']"
        )
    for name, rep in routers.items():
        for key in CLUSTER_ROUTER_KEYS:
            if key not in rep:
                problems.append(f"router {name!r} missing {key!r}")
    aff, rnd = routers.get("affinity"), routers.get("random")
    if aff and rnd:
        if aff.get("total_frames") != rnd.get("total_frames"):
            problems.append("affinity/random delivered frame counts differ")
        if aff.get("total_busy_cycles", 0) > rnd.get("total_busy_cycles", 0):
            problems.append(
                "affinity routing costs more fleet cycles than random"
            )
    if "affinity_over_random_cycles" not in data:
        problems.append("missing 'affinity_over_random_cycles'")
    return problems


def validate_slo_bench(data: Dict) -> List[str]:
    """``slo_bench/v1``: the overload-control acceptance gates.

    The payload compares the same overload client mix served twice —
    ``baseline`` (no SLO machinery) and ``slo`` (admission control +
    shedding + degrade armed) — and the gates encode the PR's claim:
    interactive attainment ≥ :data:`SLO_INTERACTIVE_FLOOR` with the
    machinery on, < :data:`SLO_BASELINE_CEILING` without it, at equal or
    lower fleet cycles, with every degraded frame's PSNR at or above the
    configured guard and the control loops demonstrably exercised.
    """
    problems: List[str] = []
    if data.get("schema") != "slo_bench/v1":
        return [f"schema is {data.get('schema')!r}, want 'slo_bench/v1'"]
    for run_name in ("baseline", "slo"):
        run = data.get(run_name)
        if not isinstance(run, dict):
            problems.append(f"{run_name!r} run missing")
            continue
        for key in SLO_RUN_KEYS:
            if key not in run:
                problems.append(f"run {run_name!r} missing {key!r}")
    if problems:
        return problems
    baseline, slo = data["baseline"], data["slo"]
    base_int = baseline["slo_attainment"].get("interactive")
    slo_int = slo["slo_attainment"].get("interactive")
    if base_int is None or slo_int is None:
        return ["runs carry no 'interactive' class attainment"]
    if not base_int < SLO_BASELINE_CEILING:
        problems.append(
            f"baseline interactive attainment {base_int:.3f} is not an "
            f"overload (want < {SLO_BASELINE_CEILING})"
        )
    if not slo_int >= SLO_INTERACTIVE_FLOOR:
        problems.append(
            f"slo interactive attainment {slo_int:.3f} misses the "
            f"{SLO_INTERACTIVE_FLOOR} floor"
        )
    if slo["busy_cycles"] > baseline["busy_cycles"]:
        problems.append(
            "slo run burns more fleet cycles than the baseline "
            f"({slo['busy_cycles']} > {baseline['busy_cycles']})"
        )
    if not slo["shed_frames"] > 0:
        problems.append("slo run shed no frames (machinery not exercised)")
    if not data.get("admission_rejects", 0) > 0:
        problems.append("no admission rejects (machinery not exercised)")
    degraded = slo.get("degraded", [])
    if not degraded:
        problems.append("slo run degraded no frames (machinery not exercised)")
    guard = data.get("degrade_min_psnr")
    if guard is None:
        problems.append("missing 'degrade_min_psnr' guard")
    else:
        for i, d in enumerate(degraded):
            psnr = d.get("psnr")
            if psnr is None or psnr < guard:
                problems.append(
                    f"degraded[{i}] psnr {psnr!r} below the "
                    f"{guard} dB guard"
                )
    return problems


def validate_video_bench(data: Dict) -> List[str]:
    """``video_bench/v1``: the temporal-reprojection acceptance gates.

    The ``orbit`` section must show amortised speedup of at least
    :data:`VIDEO_SPEEDUP_FLOOR` over independent per-frame ASDR
    simulation with at least one frame actually reprojected, every
    reprojected frame's warp-guard PSNR at or above the configured
    ``psnr_guard`` and no guard fallback.  The ``keyframes`` section
    (an orbit broken by a camera cut) must show the adaptive scheduler
    spending strictly fewer Phase I probes than the fixed cadence at an
    equal-or-better worst-frame PSNR.
    """
    problems: List[str] = []
    if data.get("schema") != "video_bench/v1":
        return [f"schema is {data.get('schema')!r}, want 'video_bench/v1'"]
    orbit = data.get("orbit")
    keyframes = data.get("keyframes")
    if not isinstance(orbit, dict):
        problems.append("'orbit' section missing")
    if not isinstance(keyframes, dict):
        problems.append("'keyframes' section missing")
    guard = data.get("psnr_guard")
    if guard is None:
        problems.append("missing 'psnr_guard'")
    if problems:
        return problems
    for key in ("fresh_cycles", "reproject_cycles", "speedup_vs_fresh",
                "frames"):
        if key not in orbit:
            problems.append(f"orbit section missing {key!r}")
    for run_name in ("fixed", "adaptive"):
        run = keyframes.get(run_name)
        if not isinstance(run, dict):
            problems.append(f"keyframes run {run_name!r} missing")
            continue
        for key in VIDEO_KEYFRAME_RUN_KEYS:
            if key not in run:
                problems.append(f"keyframes run {run_name!r} missing {key!r}")
    if problems:
        return problems
    speedup = orbit["speedup_vs_fresh"]
    if not speedup >= VIDEO_SPEEDUP_FLOOR:
        problems.append(
            f"orbit speedup {speedup} misses the {VIDEO_SPEEDUP_FLOOR}x floor"
        )
    reprojected = [
        f for f in orbit["frames"] if f.get("reprojected", 0) > 0
    ]
    if not reprojected:
        problems.append("no frame reprojected (machinery not exercised)")
    for f in reprojected:
        g = f.get("guard_psnr")
        if g is None or g < guard:
            problems.append(
                f"frame {f.get('frame')} guard PSNR {g!r} below the "
                f"{guard} dB guard"
            )
        if f.get("fallback"):
            problems.append(
                f"frame {f.get('frame')} fell back to plan reuse"
            )
    fixed, adaptive = keyframes["fixed"], keyframes["adaptive"]
    if not adaptive["probes"] < fixed["probes"]:
        problems.append(
            f"adaptive probes {adaptive['probes']} not fewer than fixed "
            f"{fixed['probes']}"
        )
    if not adaptive["min_psnr"] >= fixed["min_psnr"]:
        problems.append(
            f"adaptive min PSNR {adaptive['min_psnr']} below fixed "
            f"{fixed['min_psnr']}"
        )
    return problems


def validate_obs_events(header: Dict, events: List[Dict]) -> List[str]:
    """``obs_events/v1``: header tag plus per-event shape.

    ``events`` are the parsed JSONL objects (``{"kind", "clock",
    "fields"}``), not :class:`~repro.obs.events.Event` instances.
    """
    problems: List[str] = []
    if header.get("schema") != OBS_EVENTS_SCHEMA:
        return [
            f"header schema is {header.get('schema')!r}, "
            f"want {OBS_EVENTS_SCHEMA!r}"
        ]
    for i, obj in enumerate(events):
        kind = obj.get("kind")
        if kind not in EVENT_KINDS:
            problems.append(f"event {i}: unknown kind {kind!r}")
        clock = obj.get("clock")
        if not isinstance(clock, int) or clock < 0:
            problems.append(f"event {i}: clock {clock!r} not a non-negative int")
        if not isinstance(obj.get("fields"), dict):
            problems.append(f"event {i}: 'fields' is not an object")
    return problems


def validate_trace_events(data: Dict) -> List[str]:
    """Chrome trace-event JSON as the exporter writes it (and as
    Perfetto requires it): known phases, integer pids/tids, ``ts``/
    ``dur`` on duration events, named metadata."""
    problems: List[str] = []
    trace = data.get("traceEvents")
    if not isinstance(trace, list) or not trace:
        return ["'traceEvents' missing or empty"]
    for i, ev in enumerate(trace):
        ph = ev.get("ph")
        if ph not in TRACE_PHASES:
            problems.append(f"traceEvents[{i}]: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("pid"), int):
            problems.append(f"traceEvents[{i}]: pid is not an int")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"traceEvents[{i}]: missing name")
        if ph in ("X", "C", "i") and not isinstance(ev.get("ts"), int):
            problems.append(f"traceEvents[{i}]: ts is not an int")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur <= 0:
                problems.append(
                    f"traceEvents[{i}]: dur {dur!r} not a positive int"
                )
        if ph == "M" and "name" not in ev.get("args", {}):
            problems.append(f"traceEvents[{i}]: metadata without args.name")
    if not any(ev.get("ph") == "X" for ev in trace):
        problems.append("no duration ('X') events — empty timeline")
    return problems


#: ``schema`` tag → validator for the JSON-object artefacts.
SCHEMA_VALIDATORS = {
    "serving_bench/v1": validate_serving_bench,
    "cluster_bench/v1": validate_cluster_bench,
    "slo_bench/v1": validate_slo_bench,
    "video_bench/v1": validate_video_bench,
}


def validate_payload(data: Dict) -> List[str]:
    """Dispatch a parsed JSON object to its schema's validator.

    Trace-event files carry no ``schema`` tag; they are recognised by
    their ``traceEvents`` key.
    """
    if "traceEvents" in data:
        return validate_trace_events(data)
    tag = data.get("schema")
    validator = SCHEMA_VALIDATORS.get(tag)
    if validator is None:
        return [
            f"unknown schema {tag!r}; known: "
            + ", ".join(sorted(SCHEMA_VALIDATORS) + [OBS_EVENTS_SCHEMA])
        ]
    return validator(data)


def validate_file(path) -> List[str]:
    """Validate one artefact file (``.jsonl`` = event log, else JSON)."""
    text = open(path, "r", encoding="utf-8").read()
    if str(path).endswith(".jsonl"):
        lines = [l for l in text.splitlines() if l.strip()]
        if not lines:
            return ["empty event log"]
        try:
            objs = [json.loads(l) for l in lines]
        except json.JSONDecodeError as exc:
            return [f"bad JSONL: {exc}"]
        return validate_obs_events(objs[0], objs[1:])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"bad JSON: {exc}"]
    if not isinstance(data, dict):
        return ["top-level JSON value is not an object"]
    return validate_payload(data)
