"""Randomized serving properties: the harness that pins the SLO PR.

Hypothesis draws whole serving scenarios — client counts, camera paths
(including deliberate twins), SLO classes, arrival/departure windows,
deadline cadences, policies, fixed and auto-tuned quanta, shard counts,
overload-control configs (with a PSNR floor and reprojection masks whose
guard PSNR sits above or below it), context-switch overhead and bounded
temporal-cache budgets — and asserts the invariants that every
hand-written scenario in :mod:`tests.test_serving` relies on:

* **conservation** — interleaved busy cycles equal the sum of per-client
  service cycles, and every submitted frame is accounted for as
  delivered, aborted (departure) or shed (overload);
* **reference bit-identity** — the fused frame pricing is an
  optimisation, never a semantic: reports match the per-slice reference
  pricer (:mod:`tests.reference_pricer`) byte for byte;
* **recorder bit-identity** — telemetry is observer-only: serving with a
  recorder attached yields the identical report;
* **deterministic replay** — the same submissions served twice yield the
  identical report, single-box and fleet-wide.

Example budgets come from the hypothesis profiles registered in
``tests/conftest.py``: the default ``repro-ci`` profile runs a bounded
25 examples per property; ``pytest --slow`` switches to ``repro-slow``
(200 examples), the budget the acceptance criteria ask for locally.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.obs.recorder import MemoryRecorder
from repro.scenes.cameras import camera_path
from repro.serving.cluster import ClusterServer
from repro.serving.policies import (
    ALL_POLICY_NAMES,
    PREEMPTIVE_POLICY_NAMES,
    make_policy,
)
from repro.serving.request import ClientRequest
from repro.serving.server import SequenceServer
from repro.serving.slo import AUTO_QUANTUM, SLO_CLASSES, SLOConfig
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG
from tests.reference_pricer import reference_engine
from tests.test_serving import FRAMES, SIZE, synthetic_sequence


def _accelerator() -> ASDRAccelerator:
    return ASDRAccelerator(
        ArchConfig.server(),
        TEST_GRID,
        TEST_MODEL_CONFIG.density_mlp_config,
        TEST_MODEL_CONFIG.color_mlp_config,
    )


#: Module-level (not fixtures): hypothesis reuses them across examples
#: without tripping the function-scoped-fixture health check.  The
#: accelerator is stateless across serves — every serving test in
#: :mod:`tests.test_serving` already shares one the same way.
ACCELERATOR = _accelerator()
SHARD_ACCELERATORS = [_accelerator(), _accelerator()]


# ----------------------------------------------------------------------
# Scenario strategy
# ----------------------------------------------------------------------
@st.composite
def serving_scenarios(draw):
    """One complete serving scenario, drawn feature by feature."""
    n_clients = draw(st.integers(min_value=1, max_value=4))
    clients = []
    for i in range(n_clients):
        # path_arc index 0 with twin=True reuses client 0's path — the
        # twin-deferral / shared-content machinery only fires on twins.
        twin = i > 0 and draw(st.booleans())
        arrival = draw(st.sampled_from([0, 0, 200, 1500]))
        clients.append(
            {
                "name": f"p{i}",
                "arc": 0.3 if twin else 0.3 + 0.1 * i,
                "slo_class": draw(st.sampled_from(SLO_CLASSES)),
                "arrival": arrival,
                "departure": draw(
                    st.sampled_from([None, None, arrival + 900])
                ),
                "interval": draw(
                    st.sampled_from([None, None, 60, 800, 4000])
                ),
            }
        )
    policy = draw(st.sampled_from(ALL_POLICY_NAMES))
    quantum = (
        draw(st.sampled_from([1, 2, 3, AUTO_QUANTUM]))
        if policy in PREEMPTIVE_POLICY_NAMES
        else None
    )
    slo = draw(
        st.sampled_from(
            [
                None,
                {"shed": True, "degrade": False},
                {"shed": False, "degrade": True},
                {"shed": True, "degrade": True},
            ]
        )
    )
    if slo is not None and slo["degrade"]:
        slo = dict(slo)
        slo["min_psnr"] = draw(st.sampled_from([None, 30.0]))
        slo["degrade_psnr"] = draw(st.sampled_from([None, 25.0, 35.0]))
        # Reprojection masks on some (client, frame) pairs, each with a
        # warp-guard PSNR above or below the floor, or none measured.
        slo["reproject"] = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_clients - 1),
                    st.integers(min_value=1, max_value=FRAMES - 1),
                    st.sampled_from([None, 25.0, 35.0]),
                ),
                max_size=6,
                unique_by=lambda pair: pair[:2],
            )
        )
    return {
        "clients": clients,
        "policy": policy,
        "quantum": quantum,
        "slo": slo,
        "varied": draw(st.booleans()),
        "shards": draw(st.sampled_from([1, 1, 2])),
        "context_switch_cycles": draw(st.sampled_from([0, 50])),
        "temporal_capacity": draw(st.sampled_from([None, 300])),
    }


def _slo_config(spec):
    slo = spec["slo"]
    if slo is None:
        return None
    if not slo["degrade"]:
        return SLOConfig(shed=slo["shed"], degrade_fraction=0.5)
    mask = np.zeros(SIZE * SIZE, dtype=bool)
    mask[::2] = True
    masks = {(f"p{i}", k): mask for i, k, _ in slo["reproject"]}
    guards = {
        (f"p{i}", k): psnr
        for i, k, psnr in slo["reproject"]
        if psnr is not None
    }
    measured = slo["degrade_psnr"]
    return SLOConfig(
        shed=slo["shed"],
        degrade=True,
        degrade_fraction=0.5,
        degrade_min_psnr=slo["min_psnr"],
        degrade_psnr=(
            None
            if measured is None
            else {
                (c["name"], k): measured
                for c in spec["clients"]
                for k in range(FRAMES)
            }
        ),
        reproject_masks=masks or None,
        reproject_psnr=guards or None,
    )


def _policy(spec):
    if spec["quantum"] is None:
        return make_policy(spec["policy"])
    return make_policy(spec["policy"], quantum=spec["quantum"])


def _serve(spec, recorder=None):
    """Build the drawn scenario from scratch and serve it once."""
    knobs = dict(
        slo=_slo_config(spec),
        recorder=recorder,
        context_switch_cycles=spec["context_switch_cycles"],
        temporal_capacity=spec["temporal_capacity"],
    )
    if spec["shards"] == 1:
        server = SequenceServer(ACCELERATOR, **knobs)
    else:
        server = ClusterServer(SHARD_ACCELERATORS, **knobs)
    for c in spec["clients"]:
        path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=c["arc"])
        request = ClientRequest(
            client_id=c["name"],
            scene="synthetic",
            path=path,
            slo_class=c["slo_class"],
            arrival_cycle=c["arrival"],
            departure_cycle=c["departure"],
            frame_interval_cycles=c["interval"],
        )
        server.submit(
            request, synthetic_sequence(path, varied=spec["varied"])
        )
    return server.serve(_policy(spec))


def _single_box_reports(report, spec):
    """The per-shard ServeReports of either server flavour."""
    return report.shards if spec["shards"] > 1 else [report]


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
@given(spec=serving_scenarios())
def test_conservation_and_frame_accounting(spec):
    report = _serve(spec)
    for shard in _single_box_reports(report, spec):
        assert shard.busy_cycles == sum(
            c.service_cycles for c in shard.clients
        )
        for client in shard.clients:
            assert (
                client.frames + client.aborted_frames + client.shed_frames
                == FRAMES
            )
            assert client.service_cycles >= 0


@given(spec=serving_scenarios())
def test_batched_engine_is_bit_identical_to_scalar(spec):
    batched = _serve(spec).to_dict()
    # Patched inside the body: a function-scoped fixture would span every
    # hypothesis example of the test at once.
    with reference_engine():
        scalar = _serve(spec).to_dict()
    assert batched == scalar


@given(spec=serving_scenarios())
def test_recorder_is_observer_only(spec):
    recorder = MemoryRecorder()
    observed = _serve(spec, recorder=recorder).to_dict()
    silent = _serve(spec).to_dict()
    assert observed == silent


@given(spec=serving_scenarios())
def test_replay_is_deterministic(spec):
    assert _serve(spec).to_dict() == _serve(spec).to_dict()
