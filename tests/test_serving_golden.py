"""Serving reports pinned byte for byte against a recorded golden.

Every serving lever in :meth:`repro.serving.server.SequenceServer.serve`
runs here on the synthetic 8x8 sequences of :mod:`tests.test_serving`:
twins, staggered arrivals, a departure in the middle of a frame, every
policy (quanta 1, 2 and ``auto`` on the preemptive ones), three
:class:`~repro.serving.slo.SLOConfig` settings (off; shedding with a
PSNR-guarded degrade; reprojection masks whose guard PSNR sits above
and below the floor), one box and a two-shard
:class:`~repro.serving.cluster.ClusterServer`, plus context-switch
overhead on a bounded temporal cache, sharing off, an admission cap
that rejects a submit, and a migration with and without the cache
hand-off.

``tests/golden/serve_reports.json`` stores each scenario's full
``to_dict()``, the sha256 of its ordered :class:`~repro.obs.recorder.
MemoryRecorder` event stream (kinds, clocks and fields) and its event
counts per kind, which name the kind that moved when a digest differs.
A refactor of the serving loop must leave all three unchanged.

Re-record only for a change that is meant to move serving numbers::

    PYTHONPATH=src python -m tests.test_serving_golden --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.obs.events import (
    EV_ADMISSION_REJECT,
    EV_DEGRADE,
    EV_DEPARTURE,
    EV_FRAME_ABORT,
    EV_MIGRATION,
    EV_PREEMPTION,
    EV_QUANTUM_TUNE,
    EV_REPROJECT,
    EV_SCANOUT,
    EV_SHED,
    EV_TEMPORAL_CACHE,
    EV_TWIN_DEFER,
)
from repro.obs.recorder import MemoryRecorder
from repro.scenes.cameras import camera_path
from repro.serving.cluster import ClusterServer, Migration
from repro.serving.policies import (
    ALL_POLICY_NAMES,
    PREEMPTIVE_POLICY_NAMES,
    make_policy,
)
from repro.serving.request import ClientRequest
from repro.serving.server import SequenceServer
from repro.serving.slo import AUTO_QUANTUM, AdmissionError, SLOConfig
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG
from tests.test_serving import FRAMES, SIZE, synthetic_sequence

GOLDEN_PATH = Path(__file__).parent / "golden" / "serve_reports.json"

#: (client id, orbit arc, arrival, departure, SLO class, frame interval).
#: ``twin`` shares ``lead``'s path and ``echo`` shares ``late``'s, so
#: twin deferral and cross-client replay fire; ``quit`` departs while a
#: frame is in flight under the preemptive policies.
CLIENTS = (
    ("lead", 0.3, 0, None, "interactive", 60),
    ("twin", 0.3, 0, None, "batch", None),
    ("late", 0.4, 200, None, "batch", None),
    ("quit", 0.5, 1500, 2400, "standard", None),
    ("echo", 0.4, 1500, None, "standard", 800),
)


def _mask() -> np.ndarray:
    """Every other ray converged (a reprojection skip mask)."""
    mask = np.zeros(SIZE * SIZE, dtype=bool)
    mask[::2] = True
    return mask


def _slo(name: str) -> Optional[SLOConfig]:
    if name == "off":
        return None
    pairs = [(c[0], k) for c in CLIENTS for k in range(1, FRAMES)]
    if name == "shed_degrade":
        # Odd frames measure above the 30 dB floor, even ones below it;
        # `quit` has no measurement, so it always serves at full budget.
        return SLOConfig(
            shed=True,
            degrade=True,
            degrade_fraction=0.5,
            degrade_min_psnr=30.0,
            degrade_psnr={
                (c, k): 35.0 if k % 2 else 25.0
                for c, k in pairs
                if c != "quit"
            },
        )
    # Reprojection masks everywhere; the warp guard passes on odd frames
    # and fails on even ones, which fall back to the budget cut.
    return SLOConfig(
        degrade=True,
        degrade_min_psnr=30.0,
        reproject_masks={pair: _mask() for pair in pairs},
        reproject_psnr={(c, k): 35.0 if k % 2 else 25.0 for c, k in pairs},
        degrade_psnr={pair: 32.0 for pair in pairs},
    )


@lru_cache(maxsize=None)
def _accelerator(index: int = 0) -> ASDRAccelerator:
    """Shared per index: accelerators keep no state across serves."""
    return ASDRAccelerator(
        ArchConfig.server(),
        TEST_GRID,
        TEST_MODEL_CONFIG.density_mlp_config,
        TEST_MODEL_CONFIG.color_mlp_config,
    )


def _requests() -> List[Tuple[ClientRequest, object]]:
    out = []
    for name, arc, arrival, departure, slo_class, interval in CLIENTS:
        path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=arc)
        request = ClientRequest(
            client_id=name,
            scene="synthetic",
            path=path,
            arrival_cycle=arrival,
            departure_cycle=departure,
            slo_class=slo_class,
            frame_interval_cycles=interval,
        )
        out.append((request, synthetic_sequence(path, varied=True)))
    return out


def _policy(name: str, quantum):
    return make_policy(name) if quantum is None else make_policy(
        name, quantum=quantum
    )


def _matrix_scenario(policy: str, quantum, slo: str, shards: int):
    def run(recorder):
        if shards == 1:
            server = SequenceServer(
                _accelerator(), slo=_slo(slo), recorder=recorder
            )
        else:
            server = ClusterServer(
                [_accelerator(i) for i in range(shards)],
                slo=_slo(slo),
                recorder=recorder,
            )
        for request, sequence in _requests():
            server.submit(request, sequence)
        return server.serve(_policy(policy, quantum))

    return run


def _switch_overhead(recorder):
    server = SequenceServer(
        _accelerator(),
        temporal_capacity=300,
        context_switch_cycles=50,
        recorder=recorder,
    )
    for request, sequence in _requests():
        server.submit(request, sequence)
    return server.serve(_policy("round_robin_preemptive", 1))


def _unshared(recorder):
    server = SequenceServer(
        _accelerator(), shared_content=False, recorder=recorder
    )
    for request, sequence in _requests():
        server.submit(request, sequence)
    return server.serve(_policy("deadline_preemptive", 2))


def _admission_reject(recorder):
    """A backlog cap one cycle above the first four clients' projection:
    ``echo`` is refused at submit and the rest serve under shedding."""
    requests = _requests()
    scratch = SequenceServer(_accelerator())
    for request, sequence in requests[:-1]:
        scratch.submit(request, sequence)
    cap = int(scratch.projected_backlog_cycles()) + 1
    server = SequenceServer(
        _accelerator(),
        slo=SLOConfig(admit_cycles=cap, shed=True),
        recorder=recorder,
    )
    for request, sequence in requests[:-1]:
        server.submit(request, sequence)
    with pytest.raises(AdmissionError):
        server.submit(*requests[-1])
    return server.serve(_policy("deadline_preemptive", AUTO_QUANTUM))


def _migration(handoff: bool):
    def run(recorder):
        cluster = ClusterServer(
            [_accelerator(0), _accelerator(1)],
            router="least_loaded",
            recorder=recorder,
        )
        for request, sequence in _requests():
            cluster.submit(request, sequence)
        dst = [
            n for n in cluster.shard_names
            if n != cluster.placement_of("late")
        ][0]
        return cluster.serve(
            _policy("round_robin_preemptive", 2),
            [Migration("late", 2, dst, handoff=handoff)],
        )

    return run


def _scenarios() -> Dict[str, Callable]:
    scenarios: Dict[str, Callable] = {}
    for policy in ALL_POLICY_NAMES:
        quanta = (
            (1, 2, AUTO_QUANTUM)
            if policy in PREEMPTIVE_POLICY_NAMES
            else (None,)
        )
        for quantum in quanta:
            for slo in ("off", "shed_degrade", "reproject"):
                for shards in (1, 2):
                    name = f"{policy}/q{quantum}/{slo}/{shards}shard"
                    scenarios[name] = _matrix_scenario(
                        policy, quantum, slo, shards
                    )
    scenarios["switch_overhead_bounded_cache"] = _switch_overhead
    scenarios["shared_content_off"] = _unshared
    scenarios["admission_reject"] = _admission_reject
    scenarios["migration_handoff"] = _migration(True)
    scenarios["migration_cold"] = _migration(False)
    return scenarios


SCENARIOS = _scenarios()

#: Serving event kinds the matrix must fire somewhere — the loop paths a
#: default benchmark pass never takes (it never sheds, degrades,
#: reprojects, departs or auto-tunes).
REQUIRED_KINDS = (
    EV_SHED,
    EV_DEGRADE,
    EV_REPROJECT,
    EV_DEPARTURE,
    EV_FRAME_ABORT,
    EV_PREEMPTION,
    EV_TWIN_DEFER,
    EV_QUANTUM_TUNE,
    EV_ADMISSION_REJECT,
    EV_MIGRATION,
    EV_SCANOUT,
    EV_TEMPORAL_CACHE,
)


def _events_sha256(events) -> str:
    stream = json.dumps(
        [e.to_json_obj() for e in events],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(stream.encode("utf-8")).hexdigest()


def run_scenario(name: str) -> Dict:
    """Serve one scenario with a recorder; its golden entry."""
    recorder = MemoryRecorder()
    report = SCENARIOS[name](recorder)
    return {
        # A JSON round trip turns the report's tuples into lists, the
        # shape the golden file holds.
        "report": json.loads(json.dumps(report.to_dict())),
        "events_sha256": _events_sha256(recorder.events),
        "event_counts": dict(
            sorted(Counter(e.kind for e in recorder.events).items())
        ),
    }


@pytest.fixture(scope="module")
def golden() -> Dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_names_every_scenario(golden):
    assert sorted(golden["scenarios"]) == sorted(SCENARIOS)


def test_matrix_fires_every_serving_lever(golden):
    fired = Counter()
    for entry in golden["scenarios"].values():
        fired.update(k for k, n in entry["event_counts"].items() if n)
    assert [k for k in REQUIRED_KINDS if not fired[k]] == []


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serve_matches_golden(name, golden):
    expected = golden["scenarios"][name]
    got = run_scenario(name)
    assert got["report"] == expected["report"]
    assert got["event_counts"] == expected["event_counts"]
    assert got["events_sha256"] == expected["events_sha256"]


def record() -> None:
    """Serve every scenario and rewrite the golden file, one scenario
    per line so a diff names the scenarios that moved."""
    lines = [
        json.dumps(name)
        + ": "
        + json.dumps(run_scenario(name), sort_keys=True, separators=(",", ":"))
        for name in sorted(SCENARIOS)
    ]
    GOLDEN_PATH.write_text(
        '{"scenarios": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_serving_golden --record")
    record()
