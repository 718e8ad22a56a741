"""Multi-tenant serving: policy invariants, conservation, determinism.

These tests drive :class:`repro.serving.server.SequenceServer` with small
synthetic sequences (budget-map traces on 8x8 cameras) so the scheduler's
invariants are pinned without rendering real scenes:

* **fairness** — under round-robin no client starves: delivered frame
  counts across ready clients never diverge by more than one;
* **conservation** — interleaved busy cycles equal the sum of per-client
  service cycles, and with sharing disabled each client is priced exactly
  as if it ran alone;
* **determinism** — serving the same submissions twice yields identical
  reports for every policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.cim.cache import TemporalVertexCache
from repro.errors import ConfigurationError
from repro.exec.frame_trace import FrameTrace
from repro.exec.scheduler import (
    WORK_PROBE,
    WORK_REPLAY,
    WORK_REUSE,
    TemporalCachePartitions,
    sequence_work_items,
)
from repro.exec.sequence import SequenceTrace, pose_key
from repro.scenes.cameras import camera_path
from repro.serving.policies import (
    ALL_POLICY_NAMES,
    PREEMPTIVE_POLICY_NAMES,
    DeadlineAwarePolicy,
    FIFOPolicy,
    PendingFrame,
    PreemptiveDeadlinePolicy,
    PreemptiveRoundRobinPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.obs.events import (
    EV_ADMISSION_REJECT,
    EV_DEGRADE,
    EV_QUANTUM_TUNE,
    EV_SHED,
    EV_TWIN_DEFER,
)
from repro.obs.recorder import MemoryRecorder
from repro.serving.report import jain_fairness
from repro.serving.request import ClientRequest
from repro.serving.server import (
    SequenceServer,
    WavefrontCostModel,
    _LRUCache,
)
from repro.serving.slo import (
    AUTO_QUANTUM,
    AdmissionError,
    SLOConfig,
    weighted_slack,
)
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG

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


def synthetic_sequence(path, budget: int = 6, varied: bool = False) -> SequenceTrace:
    """A budget-map SequenceTrace for ``path`` with pose replays detected
    and Phase I marked on the first frame only (plan-reuse structure).
    ``varied`` spreads the rays over several budget groups, so each frame
    splits into multiple wavefront steps (preemption needs suspend
    points)."""
    frames, replays, seen = [], [], {}
    for camera in path.cameras():
        key = pose_key(camera)
        if key in seen:
            frames.append(frames[seen[key]])
            replays.append(seen[key])
            continue
        n = camera.width * camera.height
        if varied:
            budgets = (1 + (np.arange(n) % 6) * 2).astype(np.int64)
        else:
            budgets = np.full(n, budget, dtype=np.int64)
        seen[key] = len(frames)
        frames.append(FrameTrace.from_budgets(camera, budgets))
        replays.append(None)
    planned = [k == 0 and r is None for k, r in enumerate(replays)]
    return SequenceTrace(
        frames=frames,
        path_key=path.cache_key(),
        kind="asdr",
        replays=replays,
        planned=planned,
    )


def _request(client_id: str, path, **kwargs) -> ClientRequest:
    return ClientRequest(
        client_id=client_id, scene="synthetic", path=path, **kwargs
    )


def _distinct_paths(n: int):
    """Orbit arcs far enough apart that no poses coincide."""
    return [
        camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3 + 0.1 * i)
        for i in range(n)
    ]


def _server(accelerator, requests, varied=False, **kwargs) -> SequenceServer:
    server = SequenceServer(accelerator, **kwargs)
    for request in requests:
        server.submit(
            request, synthetic_sequence(request.path, varied=varied)
        )
    return server


# ----------------------------------------------------------------------
# Work items and cache partitions (exec layer)
# ----------------------------------------------------------------------
class TestWorkItems:
    def test_modes_follow_trace_structure(self):
        path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3, hold=2)
        trace = synthetic_sequence(path)
        items = sequence_work_items("c", trace)
        assert [i.frame for i in items] == list(range(FRAMES))
        assert items[0].mode == WORK_PROBE
        assert items[1].mode == WORK_REPLAY  # hold=2 repeats each pose
        assert items[2].mode == WORK_REUSE
        assert items[0].cost_hint > 0
        assert items[1].cost_hint == 0

    def test_partitions_split_capacity(self):
        parts = TemporalCachePartitions(["a", "b", "c"], total_capacity=90)
        assert parts.per_tenant_capacity == 30
        assert parts.cache_for("a") is not parts.cache_for("b")
        assert parts.cache_for("a") is parts.cache_for("a")

    def test_partitions_unbounded_by_default(self):
        parts = TemporalCachePartitions(["a", "b"])
        assert parts.per_tenant_capacity is None

    def test_partitions_reject_unknown_tenant(self):
        parts = TemporalCachePartitions(["a"])
        with pytest.raises(ConfigurationError):
            parts.cache_for("ghost")

    def test_partitions_reject_duplicates_and_overcommit(self):
        with pytest.raises(ConfigurationError):
            TemporalCachePartitions(["a", "a"])
        with pytest.raises(ConfigurationError):
            TemporalCachePartitions(["a", "b", "c"], total_capacity=2)


# ----------------------------------------------------------------------
# Policy selection (pure logic)
# ----------------------------------------------------------------------
def _pending(order, completed=0, est=100.0, deadline=None, mode=WORK_PROBE,
             arrival=0, slo_class="standard"):
    from repro.exec.scheduler import FrameWorkItem

    return PendingFrame(
        item=FrameWorkItem(client=f"c{order}", frame=completed, mode=mode,
                           cost_hint=int(est)),
        order=order,
        arrival_cycle=arrival,
        completed=completed,
        total_frames=8,
        est_cycles=est,
        deadline_cycle=deadline,
        slo_class=slo_class,
    )


class TestPolicies:
    def test_fifo_prefers_earliest_arrival(self):
        pending = [_pending(0, arrival=50), _pending(1, arrival=0)]
        assert FIFOPolicy().select(pending, clock=100) == 1

    def test_round_robin_prefers_least_served(self):
        pending = [_pending(0, completed=3), _pending(1, completed=1)]
        assert RoundRobinPolicy().select(pending, clock=0) == 1

    def test_deadline_prefers_least_slack(self):
        pending = [
            _pending(0, est=100.0, deadline=10_000.0),
            _pending(1, est=100.0, deadline=500.0),
        ]
        assert DeadlineAwarePolicy().select(pending, clock=0) == 1

    def test_deadline_deprioritises_cheap_frames(self):
        # Same deadline: the cheap replay keeps its window as slack, the
        # expensive probe does not, so the probe runs first.
        pending = [
            _pending(0, est=10.0, deadline=1_000.0, mode=WORK_REPLAY),
            _pending(1, est=900.0, deadline=1_000.0, mode=WORK_PROBE),
        ]
        assert DeadlineAwarePolicy().select(pending, clock=0) == 1

    def test_make_policy_names(self):
        for name in ("fifo", "round_robin", "deadline"):
            assert make_policy(name).name == name
        with pytest.raises(ConfigurationError):
            make_policy("lottery")


# ----------------------------------------------------------------------
# Server invariants
# ----------------------------------------------------------------------
class TestServerInvariants:
    def test_round_robin_never_starves(self, accelerator):
        requests = [
            _request(f"c{i}", p) for i, p in enumerate(_distinct_paths(3))
        ]
        server = _server(accelerator, requests, shared_content=False)
        report = server.serve("round_robin")
        counts = {r.client_id: 0 for r in requests}
        total = {r.client_id: FRAMES for r in requests}
        for step in report.schedule:
            unfinished = [c for c in counts if counts[c] < total[c]]
            spread = max(counts[c] for c in unfinished) - min(
                counts[c] for c in unfinished
            )
            assert spread <= 1, f"client starved before {step}"
            assert counts[step.client] == min(counts[c] for c in unfinished)
            counts[step.client] += 1
        assert counts == total

    def test_conservation_of_cycles(self, accelerator):
        requests = [
            _request(f"c{i}", p) for i, p in enumerate(_distinct_paths(3))
        ]
        server = _server(accelerator, requests, shared_content=False)
        for policy in ("fifo", "round_robin", "deadline"):
            report = server.serve(policy)
            assert report.busy_cycles == sum(
                c.service_cycles for c in report.clients
            )
            assert report.busy_cycles == sum(s.cycles for s in report.schedule)
            # Simultaneous arrivals: the clock never idles.
            assert report.makespan_cycles == report.busy_cycles
            # Private temporal-cache partitions price every client exactly
            # as it would run alone, so with content sharing off the
            # interleaved total equals back-to-back.
            for client in report.clients:
                assert client.service_cycles == client.alone_cycles
            assert report.busy_cycles == report.back_to_back_cycles

    def test_cross_replay_skips_do_not_reuse_stale_temporal_masks(
        self, accelerator
    ):
        # Client B probes every other frame of the same path client A
        # probes fully, so B's keyframes are served from A's executed
        # content and B's own temporal cache never sees them.  B's later
        # fresh frames then compare against an *older* resident set than
        # B's alone run did — the memoised hit masks (populated by the
        # alone run) must not leak across that difference.
        path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.6)
        seq_a = synthetic_sequence(path)
        seq_a.planned = [r is None for r in seq_a.replays]  # probe all
        seq_b = synthetic_sequence(path)
        seq_b.planned = [k % 2 == 0 for k in range(FRAMES)]  # probe 0, 2

        server = SequenceServer(accelerator)
        server.submit(_request("a", path), seq_a)
        server.submit(_request("b", path, probe_interval=2), seq_b)
        report = server.serve("fifo")
        served = {
            s.frame: s for s in report.schedule if s.client == "b"
        }
        assert served[0].cross_replay and served[2].cross_replay
        assert not served[1].cross_replay and not served[3].cross_replay

        # Ground truth: a cold trace (no memo state) simulated with the
        # exact skip pattern the serving schedule executed — scan-out for
        # the cross-replayed keyframes, fresh simulation (with the
        # correspondingly older resident set) for frames 1 and 3.  At this
        # scale cycles are MLP-bound, so the temporal-mask difference
        # shows up in encoding busy time and therefore energy.
        cold = SequenceTrace.from_dict(seq_b.to_dict())
        cold.planned = list(seq_b.planned)
        cache = TemporalVertexCache()
        truth_energy = 0.0
        truth_cycles = {}
        for k in range(FRAMES):
            if k in (0, 2):
                rep = accelerator.simulate_scanout(cold.frames[k])
            else:
                rep = accelerator.frame_execution(
                    cold, k, temporal=cache
                ).finish()
                truth_cycles[k] = rep.total_cycles
            truth_energy += rep.energy_joules
        for k in (1, 3):
            assert served[k].cycles == truth_cycles[k]
        assert report.client("b").energy_joules == pytest.approx(
            truth_energy, rel=1e-12
        ), "stale temporal-mask reuse skewed the served energy attribution"

    def test_bounded_capacity_models_contention(self, accelerator):
        # A bounded temporal budget splits capacity among tenants, so a
        # served client holds less cache than it would alone and may pay
        # more than the back-to-back reference (which uses the full
        # budget).  Attribution conservation must hold regardless.
        requests = [
            _request(f"c{i}", p) for i, p in enumerate(_distinct_paths(3))
        ]
        server = _server(
            accelerator, requests, shared_content=False, temporal_capacity=300
        )
        report = server.serve("round_robin")
        assert report.busy_cycles == sum(
            c.service_cycles for c in report.clients
        )
        # Partitioned clients never price *below* their full-cache alone
        # run: losing cache capacity cannot reduce cycles.
        for client in report.clients:
            assert client.service_cycles >= client.alone_cycles

    def test_deterministic_reports(self, accelerator):
        requests = [
            _request(f"c{i}", p) for i, p in enumerate(_distinct_paths(3))
        ]
        server = _server(accelerator, requests)
        for policy in ("fifo", "round_robin", "deadline"):
            assert server.serve(policy).to_dict() == server.serve(policy).to_dict()

    def test_fifo_runs_clients_back_to_back(self, accelerator):
        requests = [
            _request(f"c{i}", p) for i, p in enumerate(_distinct_paths(2))
        ]
        server = _server(accelerator, requests, shared_content=False)
        report = server.serve("fifo")
        order = [s.client for s in report.schedule]
        assert order == ["c0"] * FRAMES + ["c1"] * FRAMES

    def test_twin_clients_served_from_shared_content(self, accelerator):
        path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
        requests = [_request("orig", path), _request("twin", path)]
        server = _server(accelerator, requests)
        report = server.serve("fifo")
        twin = report.client("twin")
        assert twin.cross_replays == FRAMES
        assert twin.service_cycles < report.client("orig").service_cycles
        assert report.busy_cycles < report.back_to_back_cycles

    def test_shared_pose_keyframe_cross_replays(self, accelerator):
        # Orbit and dolly paths share their first pose bit-identically, and
        # both probe it as a keyframe -> the later client's probe is served
        # at scan-out cost.
        orbit = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
        dolly = camera_path("dolly", FRAMES, SIZE, SIZE, travel=0.3)
        assert pose_key(orbit.cameras()[0]) == pose_key(dolly.cameras()[0])
        server = _server(
            accelerator, [_request("a", orbit), _request("b", dolly)]
        )
        report = server.serve("fifo")
        assert report.client("b").cross_replays == 1
        assert report.busy_cycles < report.back_to_back_cycles

    def test_arrivals_gate_scheduling(self, accelerator):
        paths = _distinct_paths(2)
        early = _request("early", paths[0])
        late = _request("late", paths[1], arrival_cycle=10**9)
        server = _server(accelerator, [early, late], shared_content=False)
        report = server.serve("round_robin")
        late_frames = [s for s in report.schedule if s.client == "late"]
        assert all(s.start_cycle >= 10**9 for s in late_frames)
        # The accelerator idled between the early client finishing and the
        # late arrival: makespan exceeds busy cycles.
        assert report.makespan_cycles > report.busy_cycles

    def test_submission_validation(self, accelerator):
        path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
        server = SequenceServer(accelerator)
        server.submit(_request("a", path), synthetic_sequence(path))
        with pytest.raises(ConfigurationError):
            server.submit(_request("a", path), synthetic_sequence(path))
        other = camera_path("orbit", FRAMES + 1, SIZE, SIZE, arc=0.3)
        with pytest.raises(ConfigurationError):
            server.submit(_request("b", path), synthetic_sequence(other))
        with pytest.raises(ConfigurationError):
            server.submit(_request("c", path), "not a sequence")

    def test_serve_requires_clients(self, accelerator):
        with pytest.raises(ConfigurationError):
            SequenceServer(accelerator).serve("fifo")


# ----------------------------------------------------------------------
# Requests and report arithmetic
# ----------------------------------------------------------------------
class TestRequestAndReport:
    def test_request_validation(self):
        path = camera_path("orbit", 2, SIZE, SIZE)
        with pytest.raises(ConfigurationError):
            ClientRequest(client_id="", scene="s", path=path)
        with pytest.raises(ConfigurationError):
            ClientRequest(client_id="c", scene="s", path=path, probe_interval=-1)
        with pytest.raises(ConfigurationError):
            ClientRequest(client_id="c", scene="s", path=path, arrival_cycle=-5)
        with pytest.raises(ConfigurationError):
            ClientRequest(
                client_id="c", scene="s", path=path, frame_interval_cycles=0
            )

    def test_content_key_identifies_twins(self):
        path = camera_path("orbit", 2, SIZE, SIZE)
        a = ClientRequest(client_id="a", scene="s", path=path)
        b = ClientRequest(client_id="b", scene="s", path=path)
        c = ClientRequest(client_id="c", scene="s", path=path, probe_interval=2)
        assert a.content_key() == b.content_key()
        assert a.content_key() != c.content_key()

    def test_jain_fairness_bounds(self):
        assert jain_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)
        skewed = jain_fairness([10.0, 1.0, 1.0])
        assert 0.0 < skewed < 1.0
        assert jain_fairness([]) == 1.0

    def test_departure_must_follow_arrival(self):
        path = camera_path("orbit", 2, SIZE, SIZE)
        with pytest.raises(ConfigurationError):
            ClientRequest(
                client_id="c", scene="s", path=path,
                arrival_cycle=100, departure_cycle=100,
            )


# ----------------------------------------------------------------------
# Earliest-slack-first tie-breaking (regression)
# ----------------------------------------------------------------------
class TestSlackTieBreaking:
    def _tied(self, *client_ids):
        """Pending frames with identical slack, listed in the given
        (client-id) order — submission order follows list position."""
        from repro.exec.scheduler import FrameWorkItem

        return [
            PendingFrame(
                item=FrameWorkItem(
                    client=cid, frame=0, mode=WORK_PROBE, cost_hint=100
                ),
                order=i,
                arrival_cycle=0,
                completed=0,
                total_frames=4,
                est_cycles=100.0,
                deadline_cycle=1_000.0,
            )
            for i, cid in enumerate(client_ids)
        ]

    def test_equal_slack_breaks_by_client_id_not_submission_order(self):
        # "zed" was submitted first; equal slacks must still schedule
        # "anna" first (stable lexicographic client-id order).
        pending = self._tied("zed", "anna")
        assert DeadlineAwarePolicy().select(pending, clock=0) == 1
        assert PreemptiveDeadlinePolicy().select(pending, clock=0) == 1
        # And the choice is stable under list reversal.
        pending = self._tied("anna", "zed")
        assert DeadlineAwarePolicy().select(pending, clock=0) == 0
        assert PreemptiveDeadlinePolicy().select(pending, clock=0) == 0

    def test_unequal_slack_still_wins(self):
        pending = self._tied("anna", "zed")
        urgent = pending[1]
        pending[1] = PendingFrame(
            item=urgent.item,
            order=urgent.order,
            arrival_cycle=0,
            completed=0,
            total_frames=4,
            est_cycles=100.0,
            deadline_cycle=150.0,
        )
        assert DeadlineAwarePolicy().select(pending, clock=0) == 1


# ----------------------------------------------------------------------
# Policy construction (preemptive variants)
# ----------------------------------------------------------------------
class TestPolicyConstruction:
    def test_all_policy_names_resolve(self):
        for name in ALL_POLICY_NAMES:
            policy = make_policy(name)
            assert policy.name == name
            assert policy.preemptive == (name in PREEMPTIVE_POLICY_NAMES)

    def test_quantum_applies_to_preemptive_only(self):
        assert make_policy("round_robin_preemptive", quantum=7).quantum == 7
        assert make_policy("deadline_preemptive", quantum=2).quantum == 2
        with pytest.raises(ConfigurationError):
            make_policy("round_robin", quantum=7)
        with pytest.raises(ConfigurationError):
            make_policy("round_robin_preemptive", quantum=0)
        with pytest.raises(ConfigurationError):
            PreemptiveRoundRobinPolicy(quantum=-1)


# ----------------------------------------------------------------------
# Preemptive serving (wavefront-granularity event loop)
# ----------------------------------------------------------------------
class TestPreemptiveServing:
    def _distinct_server(self, accelerator, n=3, **kwargs):
        requests = [
            _request(f"c{i}", p) for i, p in enumerate(_distinct_paths(n))
        ]
        return _server(
            accelerator, requests, varied=True, shared_content=False, **kwargs
        )

    def test_conservation_under_preemption(self, accelerator):
        """The headline invariant: interleaved total cycles equal the sum
        of per-client service cycles, and each client's service is
        bit-identical to the frame-atomic schedule's."""
        server = self._distinct_server(accelerator)
        atomic = server.serve("round_robin")
        for policy in PREEMPTIVE_POLICY_NAMES:
            report = server.serve(policy)
            assert report.busy_cycles == sum(
                c.service_cycles for c in report.clients
            )
            assert report.context_switch_cycles == 0
            assert report.makespan_cycles == report.busy_cycles
            # Suspend/resume changes *when* wavefronts run, never what
            # they cost: per-client totals match the atomic run exactly.
            for a, b in zip(atomic.clients, report.clients):
                assert a.client_id == b.client_id
                assert a.service_cycles == b.service_cycles
            assert report.busy_cycles == atomic.busy_cycles

    def test_preemptions_and_context_switches_are_counted(self, accelerator):
        server = self._distinct_server(accelerator)
        atomic = server.serve("round_robin")
        assert atomic.context_switches == 0
        assert all(c.preemptions == 0 for c in atomic.clients)
        report = server.serve(make_policy("round_robin_preemptive", quantum=1))
        assert report.context_switches > 0
        assert sum(c.preemptions for c in report.clients) > 0
        assert sum(s.preemptions for s in report.schedule) == sum(
            c.preemptions for c in report.clients
        )

    def test_context_switch_overhead_accounted_separately(self, accelerator):
        free = self._distinct_server(accelerator)
        taxed = self._distinct_server(accelerator, context_switch_cycles=50)
        policy = make_policy("round_robin_preemptive", quantum=1)
        a = free.serve(policy)
        b = taxed.serve(policy)
        assert b.context_switches == a.context_switches > 0
        assert b.context_switch_cycles == 50 * b.context_switches
        # Overhead never leaks into service attribution...
        assert b.busy_cycles == a.busy_cycles
        assert [c.service_cycles for c in b.clients] == [
            c.service_cycles for c in a.clients
        ]
        # ...it sits next to it on the clock.
        assert b.makespan_cycles == b.busy_cycles + b.context_switch_cycles

    def test_deterministic_preemptive_reports(self, accelerator):
        server = self._distinct_server(accelerator)
        for policy in PREEMPTIVE_POLICY_NAMES:
            assert (
                server.serve(policy).to_dict() == server.serve(policy).to_dict()
            )

    def test_mid_run_admission_at_quantum_boundary(self, accelerator):
        """A client arriving mid-frame is served at the next quantum
        boundary under preemption, instead of waiting out the in-flight
        frame."""
        big_path, small_path = _distinct_paths(2)
        big = _request("big", big_path)
        seq = synthetic_sequence(big_path, varied=True)
        first_frame_steps = sum(
            1 for _ in seq.frames[0].split(accelerator.config.wavefront_rays)
        )
        assert first_frame_steps > 2, "fixture frame must be multi-step"
        # Arrive well inside the big client's first frame.
        late = _request("late", small_path, arrival_cycle=10)

        def run(policy):
            server = SequenceServer(accelerator, shared_content=False)
            server.submit(big, seq)
            server.submit(
                late, synthetic_sequence(small_path, budget=2)
            )
            return server.serve(policy)

        atomic = run("round_robin")
        preemptive = run(make_policy("round_robin_preemptive", quantum=1))
        late_first_atomic = min(
            s.completion_cycle for s in atomic.schedule if s.client == "late"
        )
        late_first_preemptive = min(
            s.completion_cycle
            for s in preemptive.schedule
            if s.client == "late"
        )
        big_first_end = min(
            s.completion_cycle
            for s in preemptive.schedule
            if s.client == "big"
        )
        assert late_first_preemptive < late_first_atomic
        assert late_first_preemptive < big_first_end, (
            "the late arrival should be served inside the big client's "
            "first frame, not after it"
        )
        assert preemptive.busy_cycles == atomic.busy_cycles

    def test_departure_aborts_remaining_frames(self, accelerator):
        paths = _distinct_paths(2)
        stay = _request("stay", paths[0])
        # Depart early enough that undelivered frames remain.
        quit_req = _request("quit", paths[1], departure_cycle=1)
        server = SequenceServer(accelerator, shared_content=False)
        server.submit(stay, synthetic_sequence(paths[0], varied=True))
        server.submit(quit_req, synthetic_sequence(paths[1], varied=True))
        report = server.serve("round_robin")
        quit_rep = report.client("quit")
        stay_rep = report.client("stay")
        assert quit_rep.aborted_frames > 0
        assert quit_rep.frames + quit_rep.aborted_frames == FRAMES
        assert stay_rep.frames == FRAMES
        # The survivor is priced exactly as if it ran alone (unbounded
        # partitions, no shared content).
        assert stay_rep.service_cycles == stay_rep.alone_cycles
        # Conservation holds with the aborted client's partial work
        # attributed to it.
        assert report.busy_cycles == sum(
            c.service_cycles for c in report.clients
        )

    def test_departure_abandons_in_flight_execution(self, accelerator):
        """Under a 1-step quantum the quitter's multi-wavefront frame is
        in flight when the departure lands: its partial cycles stay
        attributed (delivered=False schedule entry)."""
        paths = _distinct_paths(2)
        stay = _request("stay", paths[0])
        quit_seq = synthetic_sequence(paths[1], varied=True)
        first_cycles = (
            accelerator.frame_execution(quit_seq, 0).finish().total_cycles
        )
        quit_req = _request(
            "quit", paths[1], departure_cycle=max(2, first_cycles // 4)
        )
        server = SequenceServer(accelerator, shared_content=False)
        server.submit(stay, synthetic_sequence(paths[0], varied=True))
        cold = SequenceTrace.from_dict(quit_seq.to_dict())
        cold.planned = list(quit_seq.planned)
        server.submit(quit_req, cold)
        report = server.serve(make_policy("round_robin_preemptive", quantum=1))
        aborted = [s for s in report.schedule if not s.delivered]
        assert len(aborted) == 1 and aborted[0].client == "quit"
        assert 0 < aborted[0].cycles < first_cycles
        assert report.busy_cycles == sum(
            c.service_cycles for c in report.clients
        )
        assert report.client("quit").aborted_frames == FRAMES - len(
            [s for s in report.schedule
             if s.client == "quit" and s.delivered]
        )

    def test_bounded_capacity_conservation_under_preemption(self, accelerator):
        server = self._distinct_server(accelerator, temporal_capacity=300)
        report = server.serve("deadline_preemptive")
        assert report.busy_cycles == sum(
            c.service_cycles for c in report.clients
        )
        for client in report.clients:
            assert client.service_cycles >= client.alone_cycles


# ----------------------------------------------------------------------
# Elastic temporal-cache re-partitioning (exec layer)
# ----------------------------------------------------------------------
class TestElasticPartitions:
    def test_admit_release_conserve_budget(self):
        parts = TemporalCachePartitions([], total_capacity=120)
        assert parts.tenants == []
        parts.admit("a")
        assert parts.per_tenant_capacity == 120
        parts.admit("b")
        parts.admit("c")
        assert parts.per_tenant_capacity == 40
        assert parts.per_tenant_capacity * len(parts.tenants) <= 120
        parts.release("b")
        assert parts.per_tenant_capacity == 60
        assert sorted(parts.tenants) == ["a", "c"]
        assert parts.per_tenant_capacity * len(parts.tenants) <= 120
        with pytest.raises(ConfigurationError):
            parts.admit("a")
        with pytest.raises(ConfigurationError):
            parts.release("ghost")

    def test_admit_rejects_overcommit(self):
        parts = TemporalCachePartitions(["a", "b"], total_capacity=2)
        with pytest.raises(ConfigurationError):
            parts.admit("c")

    def test_unbounded_stays_unbounded(self):
        parts = TemporalCachePartitions(["a"], total_capacity=None)
        parts.admit("b")
        parts.release("a")
        assert parts.per_tenant_capacity is None
        assert parts.cache_for("b").capacity_per_level is None

    def test_admission_trims_resident_sets_to_new_share(self):
        parts = TemporalCachePartitions(["a"], total_capacity=8)
        cache = parts.cache_for("a")
        cache.record(np.arange(6), level=0)
        cache.commit_frame(tag=0)
        before = cache.lookup(np.arange(6), level=0)
        assert before.all()
        parts.admit("b")  # share drops 8 -> 4; resident trimmed to lowest 4
        assert cache.capacity_per_level == 4
        after = cache.lookup(np.arange(6), level=0)
        assert after.tolist() == [True] * 4 + [False] * 2

    def test_release_grows_survivor_without_corrupting_masks(self):
        parts = TemporalCachePartitions(["a", "b"], total_capacity=12)
        survivor = parts.cache_for("a")
        survivor.record(np.arange(5), level=0)
        survivor.commit_frame(tag=0)
        before = survivor.lookup(np.arange(8), level=0).copy()
        parts.release("b")
        assert survivor.capacity_per_level == 12
        after = survivor.lookup(np.arange(8), level=0)
        # Growth never invents entries: the mask equals a fresh membership
        # test of the untouched resident set.
        assert after.tolist() == before.tolist()
        assert after.tolist() == [True] * 5 + [False] * 3

    def test_resize_history_blocks_stale_memoised_masks(self):
        """Capacity returning to an earlier value must not resurrect a
        hit mask memoised against the pre-resize resident set."""
        memo_store = {}

        def memo(key, compute):
            if key not in memo_store:
                memo_store[key] = compute()
            return memo_store[key]

        cache = TemporalVertexCache(6)
        cache.record(np.arange(6), level=0)
        cache.commit_frame(tag=0)
        stream = np.arange(6)
        first = cache.lookup(stream, level=0, memo=memo)
        assert first.all()
        cache.resize(3)   # trims resident to {0, 1, 2}
        cache.resize(6)   # same nominal capacity as when `first` was memoised
        again = cache.lookup(stream, level=0, memo=memo)
        assert again.tolist() == [True] * 3 + [False] * 3, (
            "stale pre-resize mask served from the memo"
        )

    def test_resident_keys_distinguish_cache_instances_sharing_a_memo(self):
        """Two serve() runs share one trace memo but resize/commit in
        different orders (e.g. a departure landing before vs after a
        commit): masks memoised by one run must not leak into the other,
        even when nominal capacity and commit tag coincide."""
        memo_store = {}

        def memo(key, compute):
            if key not in memo_store:
                memo_store[key] = compute()
            return memo_store[key]

        stream = np.arange(10)
        # Run 1: commit at share 6 (trimmed to {0..5}), then the tenant
        # set shrinks and the survivor grows to 12.
        run1 = TemporalVertexCache(6)
        run1.record(stream, level=0)
        run1.commit_frame(tag=0)
        run1.resize(12)
        mask1 = run1.lookup(stream, level=0, memo=memo)
        assert int(mask1.sum()) == 6
        # Run 2: the departure lands first, so the commit happens at
        # share 12 — all ten addresses resident.
        run2 = TemporalVertexCache(6)
        run2.resize(12)
        run2.record(stream, level=0)
        run2.commit_frame(tag=0)
        mask2 = run2.lookup(stream, level=0, memo=memo)
        assert mask2.all(), (
            "run 1's trimmed mask leaked into run 2 through the shared memo"
        )

    def test_resize_validation(self):
        cache = TemporalVertexCache(4)
        with pytest.raises(ConfigurationError):
            cache.resize(0)


# ----------------------------------------------------------------------
# Learned cost model (measured wavefront feedback)
# ----------------------------------------------------------------------
class TestWavefrontCostModel:
    def test_prior_until_calibrated(self):
        model = WavefrontCostModel(prior=3.0)
        assert not model.calibrated
        assert model.estimate(10) == 30.0
        model.observe(500, 100)
        assert model.calibrated
        assert model.cycles_per_point == 5.0
        assert model.estimate(10) == 50.0

    def test_cumulative_ratio_not_two_tap(self):
        model = WavefrontCostModel(prior=1.0)
        model.observe(100, 100)   # 1.0
        model.observe(900, 100)   # a spike an EMA would half-weight
        assert model.cycles_per_point == pytest.approx(5.0)

    def test_zero_point_charges_fold_into_rate(self):
        # The Phase I adaptive tail charges cycles for zero points; the
        # overhead must raise the learned rate instead of vanishing.
        model = WavefrontCostModel()
        model.observe(100, 100)
        model.observe(50, 0)
        assert model.cycles_per_point == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WavefrontCostModel(prior=0.0)
        model = WavefrontCostModel()
        with pytest.raises(ConfigurationError):
            model.observe(-1, 0)

    def test_serve_feeds_measured_charges_to_cost_model(
        self, accelerator, monkeypatch
    ):
        """The server's estimator is fed the *measured* execution charges:
        across a run, observed (cycles, points) sum to exactly the fresh
        frames' service cycles and executed density points."""
        import repro.serving.server as server_mod

        observed = []

        class Spy(WavefrontCostModel):
            def observe(self, cycles, points):
                observed.append((cycles, points))
                super().observe(cycles, points)

        monkeypatch.setattr(server_mod, "WavefrontCostModel", Spy)
        requests = [
            _request(f"c{i}", p) for i, p in enumerate(_distinct_paths(2))
        ]
        server = _server(
            accelerator, requests, varied=True, shared_content=False
        )
        report = server.serve("round_robin")
        fresh_cycles = sum(
            s.cycles for s in report.schedule if s.mode != WORK_REPLAY
        )
        assert sum(c for c, _ in observed) == fresh_cycles
        executed_points = sum(
            synthetic_sequence(r.path, varied=True).executed_density_points()
            for r in requests
        )
        assert sum(p for _, p in observed) == executed_points
        # Per-quantum feedback under preemption covers the same totals.
        observed.clear()
        preemptive = server.serve(
            make_policy("round_robin_preemptive", quantum=1)
        )
        assert sum(c for c, _ in observed) == sum(
            s.cycles for s in preemptive.schedule if s.mode != WORK_REPLAY
        )
        assert len(observed) > len(preemptive.schedule), (
            "preemption should feed back more than once per frame"
        )


# ----------------------------------------------------------------------
# Content-keyed serving caches (the id()-reuse bug class)
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = _LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)           # evicts "b", the LRU entry
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_membership_probe_does_not_refresh(self):
        cache = _LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # a probe, not a use
        cache.put("c", 3)    # still evicts "a"
        assert "a" not in cache

    def test_get_returns_default_on_miss(self):
        assert _LRUCache(1).get("missing", 7) == 7

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            _LRUCache(0)


class TestContentKeyedCaches:
    def test_results_survive_object_reuse_after_release(self, accelerator):
        """A long-lived server admits and releases tenants forever, and
        CPython reuses a garbage-collected trace's memory address — so a
        cache keyed on ``id(trace)`` can serve client A's cached plans or
        scan-out prices against client B's different trace.  Every
        re-admission must price exactly like a fresh server."""
        import gc

        longlived = SequenceServer(accelerator)
        for path in _distinct_paths(3):
            fresh = SequenceServer(accelerator)
            fresh.submit(_request("tenant", path), synthetic_sequence(path))
            reference = fresh.serve("fifo").to_dict()
            trace = synthetic_sequence(path)
            longlived.submit(_request("tenant", path), trace)
            assert longlived.serve("fifo").to_dict() == reference
            longlived.release("tenant")
            del trace
            gc.collect()  # invites id() reuse for the next iteration

    def test_equal_content_shares_cache_entries(self, accelerator):
        """Twins are *distinct objects* with equal content; content keying
        collapses their plan and scan-out entries to one set (an
        ``id()``-keyed cache would store every entry twice)."""
        path = _distinct_paths(1)[0]
        twins = SequenceServer(accelerator)
        twins.submit(_request("a", path), synthetic_sequence(path))
        twins.submit(_request("b", path), synthetic_sequence(path))
        twins.serve("fifo")
        solo = SequenceServer(accelerator)
        solo.submit(_request("a", path), synthetic_sequence(path))
        solo.serve("fifo")
        assert len(twins._plan_cache) == len(solo._plan_cache)
        # The follower's frames all ride scan-out; the memo holds one
        # entry per distinct rendered content, not one per frame served.
        trace = synthetic_sequence(path)
        distinct = {
            trace.frames[k].rendered_pixels for k in range(trace.num_frames)
        }
        assert len(twins._scanout_memo) == len(distinct)

    def test_long_lived_caches_stay_bounded(self, accelerator, monkeypatch):
        monkeypatch.setattr(SequenceServer, "PLAN_CACHE_SIZE", 4)
        monkeypatch.setattr(SequenceServer, "SCANOUT_MEMO_SIZE", 4)
        server = SequenceServer(accelerator)
        for i, path in enumerate(_distinct_paths(4)):
            server.submit(_request(f"c{i}", path), synthetic_sequence(path))
        server.serve("fifo")
        assert len(server._plan_cache) <= 4
        assert len(server._scanout_memo) <= 4


class TestAloneReferences:
    """The alone-run reference is a function of sequence content and
    delivered window only, so twins share one run."""

    @pytest.fixture
    def alone_passes(self, monkeypatch):
        """The sequences each alone-run pass executed, in call order."""
        import repro.serving.server as server_module

        calls = []
        real = server_module.sequence_executions

        def counting(accelerator, trace, **kwargs):
            calls.append(trace)
            return real(accelerator, trace, **kwargs)

        monkeypatch.setattr(server_module, "sequence_executions", counting)
        return calls

    def test_one_alone_pass_per_content(self, accelerator, alone_passes):
        paths = _distinct_paths(2)
        server = SequenceServer(accelerator)
        for i in range(4):
            path = paths[i % 2]
            server.submit(_request(f"c{i}", path), synthetic_sequence(path))
        alone = [server.alone_cycles(f"c{i}") for i in range(4)]
        assert len(alone_passes) == 2
        assert alone[0] == alone[2] != alone[1] == alone[3]
        report = server.serve("fifo")
        assert len(alone_passes) == 2
        assert [c.alone_cycles for c in report.clients] == alone

    def test_windowed_tenant_gets_own_reference(self, accelerator, alone_passes):
        path = _distinct_paths(1)[0]
        server = SequenceServer(accelerator)
        server.submit(_request("full", path), synthetic_sequence(path))
        server.submit(
            _request("tail", path), synthetic_sequence(path), start_frame=2
        )
        full = server.alone_cycles("full")
        tail = server.alone_cycles("tail")
        assert len(alone_passes) == 2
        fresh = SequenceServer(accelerator)
        fresh.submit(
            _request("tail", path), synthetic_sequence(path), start_frame=2
        )
        assert tail == fresh.alone_cycles("tail") < full

    def test_release_keeps_the_twin_reference(self, accelerator, alone_passes):
        path = _distinct_paths(1)[0]
        server = SequenceServer(accelerator)
        server.submit(_request("a", path), synthetic_sequence(path))
        server.submit(_request("b", path), synthetic_sequence(path))
        server.alone_cycles("a")
        server.release("a")
        fresh = SequenceServer(accelerator)
        fresh.submit(_request("b", path), synthetic_sequence(path))
        expected = fresh.alone_cycles("b")
        assert len(alone_passes) == 2
        assert server.alone_cycles("b") == expected
        assert len(alone_passes) == 2  # b read the entry a's run left
        server.release("b")
        assert server._alone_cycles == {}


# ----------------------------------------------------------------------
# Mid-flight twin deferral (preemptive duplicate-execution fix)
# ----------------------------------------------------------------------
class TestTwinDeferral:
    def _twins(self):
        shared = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
        return [_request("alpha", shared), _request("beta", shared)]

    def test_deferral_avoids_duplicate_inflight_execution(
        self, accelerator, monkeypatch
    ):
        """Under a preemptive policy a twin's frame used to start fresh
        while its leader was suspended mid-flight (the scan-out copy was
        not committed yet), executing popular content twice.  Deferring
        the follower until the leader commits must not cost more than
        executing both, and the follower's frames ride scan-out replay."""
        policy = make_policy("round_robin_preemptive", quantum=1)
        deferred = _server(accelerator, self._twins(), varied=True).serve(
            policy
        )
        monkeypatch.setattr(SequenceServer, "TWIN_DEFER_LIMIT", 0)
        duplicated = _server(accelerator, self._twins(), varied=True).serve(
            policy
        )
        assert deferred.total_frames == duplicated.total_frames
        assert deferred.busy_cycles < duplicated.busy_cycles
        follower = deferred.client("beta")
        assert follower.twin_deferrals > 0
        assert any(
            s.cross_replay for s in deferred.schedule if s.client == "beta"
        )

    def test_starvation_guard_terminates_at_limit_one(
        self, accelerator, monkeypatch
    ):
        monkeypatch.setattr(SequenceServer, "TWIN_DEFER_LIMIT", 1)
        rec = MemoryRecorder()
        server = _server(
            accelerator, self._twins(), varied=True, recorder=rec
        )
        report = server.serve(make_policy("round_robin_preemptive", quantum=1))
        assert report.total_frames == 2 * FRAMES
        # No frame waits behind its leader for more decisions than that.
        deferrals = [
            e.fields["deferrals"] for e in rec.events if e.kind == EV_TWIN_DEFER
        ]
        assert deferrals and max(deferrals) == 1

    def test_atomic_frames_unaffected_by_deferral(
        self, accelerator, monkeypatch
    ):
        """Non-preemptive frames complete atomically, so a leader is never
        suspended mid-flight and the deferral path must be inert."""
        on = _server(accelerator, self._twins(), varied=True).serve(
            "round_robin"
        )
        monkeypatch.setattr(SequenceServer, "TWIN_DEFER_LIMIT", 0)
        off = _server(accelerator, self._twins(), varied=True).serve(
            "round_robin"
        )
        assert on.to_dict() == off.to_dict()

    def test_leader_departure_releases_deferred_twin(self, accelerator):
        """Regression: the leader departs mid-flight while its twin is
        deferred waiting on the leader's scan-out commit.  The abandoned
        execution never commits, so the follower must fall back to
        executing its own frames — it progresses to completion and the
        interleaved cycles still conserve."""
        shared = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
        probe_cycles = (
            accelerator.frame_execution(
                synthetic_sequence(shared, varied=True), 0
            )
            .finish()
            .total_cycles
        )
        leader = _request(
            "alpha", shared, departure_cycle=max(2, probe_cycles // 4)
        )
        twin = _request("beta", shared)
        server = SequenceServer(accelerator)
        server.submit(leader, synthetic_sequence(shared, varied=True))
        server.submit(twin, synthetic_sequence(shared, varied=True))
        report = server.serve(make_policy("round_robin_preemptive", quantum=1))
        follower = report.client("beta")
        assert follower.twin_deferrals > 0
        assert follower.frames == FRAMES
        assert report.client("alpha").aborted_frames > 0
        assert report.busy_cycles == sum(
            c.service_cycles for c in report.clients
        )


# ----------------------------------------------------------------------
# SLO classes, admission control, shedding, degrade, auto quantum
# ----------------------------------------------------------------------
class TestSLOServing:
    def _overload(self, accelerator, slo=None, recorder=None, n_batch=2):
        """An interactive tenant on an impossible cadence plus batch
        ballast — every scheduling instant is an overload once serving
        starts."""
        paths = _distinct_paths(1 + n_batch)
        requests = [
            _request(
                "urgent",
                paths[0],
                frame_interval_cycles=50,
                slo_class="interactive",
            )
        ] + [
            _request(f"bulk{i}", paths[1 + i], slo_class="batch")
            for i in range(n_batch)
        ]
        server = SequenceServer(accelerator, slo=slo, recorder=recorder)
        for request in requests:
            server.submit(
                request, synthetic_sequence(request.path, varied=True)
            )
        return server

    def test_unknown_slo_class_rejected(self):
        with pytest.raises(ConfigurationError):
            _request("x", _distinct_paths(1)[0], slo_class="platinum")

    def test_weighted_slack_orders_by_class(self):
        # Positive slack shrinks for urgent classes, negative slack is
        # amplified — interactive outranks batch on both sides of the
        # deadline.
        assert weighted_slack(800.0, "interactive") < weighted_slack(
            800.0, "batch"
        )
        assert weighted_slack(-100.0, "interactive") < weighted_slack(
            -100.0, "batch"
        )
        pending = [
            _pending(0, est=100.0, deadline=1000.0, slo_class="batch"),
            _pending(1, est=100.0, deadline=1000.0, slo_class="interactive"),
        ]
        assert DeadlineAwarePolicy().select(pending, clock=0) == 1

    def test_best_effort_slack_reprioritises_deadline_less_frames(self):
        pending = [
            _pending(0, est=10.0, deadline=None),
            _pending(1, est=10.0, deadline=100_000.0),
        ]
        # Default: no deadline means infinite slack, runs last.
        assert DeadlineAwarePolicy().select(pending, clock=0) == 1
        # A finite best-effort slack lets deadline-less work compete.
        assert make_policy("deadline", best_effort_slack=0.0).select(
            pending, clock=0
        ) == 0
        with pytest.raises(ConfigurationError):
            make_policy("fifo", best_effort_slack=0.0)

    def test_admission_control_rejects_over_cap(self, accelerator):
        paths = _distinct_paths(3)
        scratch = SequenceServer(accelerator)
        for i, path in enumerate(paths[:2]):
            scratch.submit(
                _request(f"c{i}", path), synthetic_sequence(path, varied=True)
            )
        cap = int(scratch.projected_backlog_cycles()) + 1
        rec = MemoryRecorder()
        server = SequenceServer(
            accelerator, slo=SLOConfig(admit_cycles=cap), recorder=rec
        )
        for i, path in enumerate(paths[:2]):
            server.submit(
                _request(f"c{i}", path), synthetic_sequence(path, varied=True)
            )
        with pytest.raises(AdmissionError):
            server.submit(
                _request("late", paths[2]),
                synthetic_sequence(paths[2], varied=True),
            )
        rejects = [e for e in rec.events if e.kind == EV_ADMISSION_REJECT]
        assert len(rejects) == 1
        assert rejects[0].fields["client"] == "late"
        assert rejects[0].fields["projected_cycles"] > cap
        # Admitted clients are unaffected by the rejection.
        report = server.serve("round_robin")
        assert report.total_frames == 2 * FRAMES

    def test_shedding_drops_batch_frames_only(self, accelerator):
        rec = MemoryRecorder()
        server = self._overload(
            accelerator, slo=SLOConfig(shed=True), recorder=rec
        )
        policy = make_policy("deadline_preemptive", quantum=2)
        report = server.serve(policy)
        sheds = [e for e in rec.events if e.kind == EV_SHED]
        assert sheds
        assert all(e.fields["slo_class"] == "batch" for e in sheds)
        assert report.client("urgent").shed_frames == 0
        assert sum(c.shed_frames for c in report.clients) == len(sheds)
        for c in report.clients:
            assert c.frames + c.aborted_frames + c.shed_frames == FRAMES
        assert report.busy_cycles == sum(
            c.service_cycles for c in report.clients
        )
        # Shedding saves fleet cycles versus serving the full backlog.
        full = self._overload(accelerator).serve(policy)
        assert report.busy_cycles < full.busy_cycles

    def test_degrade_serves_reduced_budget_frames(self, accelerator):
        rec = MemoryRecorder()
        server = self._overload(
            accelerator,
            slo=SLOConfig(degrade=True, degrade_fraction=0.5),
            recorder=rec,
        )
        policy = make_policy("deadline_preemptive", quantum=2)
        report = server.serve(policy)
        degraded = [d for c in report.clients for d in c.degraded]
        assert degraded
        assert all(d["fraction"] == 0.5 for d in degraded)
        events = [e for e in rec.events if e.kind == EV_DEGRADE]
        assert len(events) == len(degraded)
        # Degraded frames are still delivered — nothing is dropped.
        for c in report.clients:
            assert c.frames == FRAMES
        assert report.busy_cycles == sum(
            c.service_cycles for c in report.clients
        )
        # Reduced sampling budget costs fewer cycles.
        full = self._overload(accelerator).serve(policy)
        assert report.busy_cycles < full.busy_cycles

    def test_degrade_psnr_guard_is_conservative(self, accelerator):
        policy = make_policy("deadline_preemptive", quantum=2)
        # A floor with no measured PSNR: unknown quality never degrades.
        blind = self._overload(
            accelerator,
            slo=SLOConfig(degrade=True, degrade_min_psnr=30.0),
        ).serve(policy)
        assert all(not c.degraded for c in blind.clients)
        # Measured PSNR above the floor degrades and is recorded.
        psnr = {
            (c, k): 35.0
            for c in ("urgent", "bulk0", "bulk1")
            for k in range(FRAMES)
        }
        seen = self._overload(
            accelerator,
            slo=SLOConfig(
                degrade=True, degrade_min_psnr=30.0, degrade_psnr=psnr
            ),
        ).serve(policy)
        degraded = [d for c in seen.clients for d in c.degraded]
        assert degraded
        assert all(d["psnr"] == 35.0 for d in degraded)
        # Measured PSNR below the floor keeps full quality.
        low = {key: 10.0 for key in psnr}
        guarded = self._overload(
            accelerator,
            slo=SLOConfig(
                degrade=True, degrade_min_psnr=30.0, degrade_psnr=low
            ),
        ).serve(policy)
        assert all(not c.degraded for c in guarded.clients)

    def test_auto_quantum_tunes_and_stays_deterministic(self, accelerator):
        rec = MemoryRecorder()
        server = self._overload(accelerator, recorder=rec)
        report = server.serve(
            make_policy("deadline_preemptive", quantum=AUTO_QUANTUM)
        )
        tunes = [e for e in rec.events if e.kind == EV_QUANTUM_TUNE]
        assert tunes
        assert all(e.fields["quantum"] >= 1 for e in tunes)
        assert report.busy_cycles == sum(
            c.service_cycles for c in report.clients
        )
        again = self._overload(accelerator).serve(
            make_policy("deadline_preemptive", quantum=AUTO_QUANTUM)
        )
        assert report.to_dict() == again.to_dict()
