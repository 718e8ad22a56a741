"""Cluster serving: sharding, routing, migration and fleet invariants.

These tests drive :class:`repro.serving.cluster.ClusterServer` with the
same small synthetic sequences the single-box serving tests use, pinning
the fleet-level invariants:

* **pass-through** — a one-shard cluster is bit-identical to serving the
  same submissions on a bare :class:`SequenceServer`;
* **conservation** — fleet aggregates are exactly the sum of the nested
  shard reports (no frame or cycle is double-counted by placement);
* **placement value** — the content-affinity router beats the
  placement-blind hash router on aggregate cycles whenever it keeps a
  twin pair on one box;
* **migration** — a temporal-cache hand-off never costs more than a cold
  restart of the same tail, and serve() stays re-entrant around it;
* **hygiene** — no serving-layer cache is keyed on ``id()`` (the bug
  class this PR removes) — enforced by an AST scan.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.arch.accelerator import ASDRAccelerator
from repro.arch.config import ArchConfig
from repro.errors import ConfigurationError
from repro.scenes.cameras import camera_path
from repro.serving.cluster import (
    ROUTER_NAMES,
    ClusterServer,
    Migration,
    cluster_bench_summary,
)
from repro.serving.server import SequenceServer
from tests.conftest import TEST_GRID, TEST_MODEL_CONFIG
from tests.test_serving import (
    FRAMES,
    SIZE,
    _distinct_paths,
    _request,
    synthetic_sequence,
)


def _accelerator(config=None) -> ASDRAccelerator:
    return ASDRAccelerator(
        config or ArchConfig.server(),
        TEST_GRID,
        TEST_MODEL_CONFIG.density_mlp_config,
        TEST_MODEL_CONFIG.color_mlp_config,
    )


def _cluster(n_shards: int, varied=False, requests=None, **kwargs):
    """A cluster of ``n_shards`` identical server-scale shards with the
    given requests (default: distinct-path clients ``c0..``) admitted."""
    cluster = ClusterServer(
        [_accelerator() for _ in range(n_shards)], **kwargs
    )
    if requests is None:
        requests = [
            _request(f"c{i}", path)
            for i, path in enumerate(_distinct_paths(3))
        ]
    for request in requests:
        cluster.submit(
            request, synthetic_sequence(request.path, varied=varied)
        )
    return cluster


def _twin_requests():
    """``alpha``/``beta`` share one path (twins); crc32 parity splits the
    pair on a two-shard fleet under the ``random`` router (checked by
    ``test_random_router_splits_the_twin_pair``), so affinity-vs-random
    comparisons exercise exactly the placement decision."""
    shared = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
    lone = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.6)
    return [
        _request("alpha", shared),
        _request("beta", shared),
        _request("gamma", lone),
    ]


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------
class TestClusterConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigurationError):
            ClusterServer([])

    def test_rejects_unknown_router(self):
        with pytest.raises(ConfigurationError, match="router"):
            ClusterServer([_accelerator()], router="hash_ring")

    def test_rejects_duplicate_shard_names(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ClusterServer(
                [_accelerator(), _accelerator()], names=["a", "a"]
            )

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            ClusterServer([_accelerator()], names=["a", "b"])

    def test_rejects_nonpositive_scale_out_threshold(self):
        with pytest.raises(ConfigurationError):
            ClusterServer([_accelerator()], scale_out_threshold=0)

    def test_rejects_duplicate_client(self):
        cluster = _cluster(2)
        path = _distinct_paths(1)[0]
        with pytest.raises(ConfigurationError, match="duplicate client"):
            cluster.submit(_request("c0", path), synthetic_sequence(path))

    def test_serve_needs_clients(self):
        cluster = ClusterServer([_accelerator()])
        with pytest.raises(ConfigurationError, match="no clients"):
            cluster.serve("fifo")

    def test_default_shard_names(self):
        assert _cluster(2).shard_names == ["shard0", "shard1"]


# ----------------------------------------------------------------------
# Single-shard pass-through (bit-identity)
# ----------------------------------------------------------------------
class TestSingleShardIdentity:
    @pytest.mark.parametrize(
        "policy", ["fifo", "round_robin", "deadline", "round_robin_preemptive"]
    )
    def test_one_shard_cluster_matches_bare_server(self, policy):
        requests = [
            _request(f"c{i}", path)
            for i, path in enumerate(_distinct_paths(3))
        ]
        cluster = _cluster(1, varied=True, requests=requests)
        bare = SequenceServer(_accelerator())
        for request in requests:
            bare.submit(
                request, synthetic_sequence(request.path, varied=True)
            )
        fleet = cluster.serve(policy)
        assert fleet.shards[0].to_dict() == bare.serve(policy).to_dict()
        assert fleet.total_busy_cycles == bare.serve(policy).busy_cycles


# ----------------------------------------------------------------------
# Fleet conservation
# ----------------------------------------------------------------------
class TestFleetConservation:
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_totals_are_shard_sums(self, router):
        requests = [
            _request(f"c{i}", path)
            for i, path in enumerate(_distinct_paths(4))
        ]
        cluster = _cluster(2, requests=requests, router=router)
        report = cluster.serve("round_robin")
        assert report.total_busy_cycles == sum(
            s.busy_cycles for s in report.shards
        )
        assert report.total_frames == sum(
            s.total_frames for s in report.shards
        )
        assert report.total_frames == 4 * FRAMES
        # Every client served exactly once, on the shard it was placed on.
        served = {
            c.client_id: name
            for name, shard in zip(report.shard_names, report.shards)
            for c in shard.clients
        }
        assert served == report.placements

    def test_slowdowns_cover_every_client(self):
        cluster = _cluster(2, requests=_twin_requests())
        report = cluster.serve("round_robin")
        slowdowns = report.client_slowdowns()
        assert set(slowdowns) == {"alpha", "beta", "gamma"}
        assert all(s > 0 for s in slowdowns.values())
        assert 0.0 < report.fairness <= 1.0
        assert report.latency_percentile_ms(95) >= report.latency_percentile_ms(50) > 0


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_affinity_colocates_twins(self):
        cluster = _cluster(
            2, requests=_twin_requests(), router="affinity"
        )
        assert cluster.placement_of("alpha") == cluster.placement_of("beta")

    def test_random_router_splits_the_twin_pair(self):
        cluster = _cluster(2, requests=_twin_requests(), router="random")
        assert cluster.placement_of("alpha") != cluster.placement_of("beta")

    def test_round_robin_cycles_shards(self):
        requests = [
            _request(f"c{i}", path)
            for i, path in enumerate(_distinct_paths(4))
        ]
        cluster = _cluster(2, requests=requests, router="round_robin")
        assert [cluster.placement_of(f"c{i}") for i in range(4)] == [
            "shard0", "shard1", "shard0", "shard1",
        ]

    def test_affinity_beats_random_on_aggregate_cycles(self):
        """The acceptance-criterion ordering at test scale: co-locating
        the twin pair lets the second stream ride scan-out replay, while
        splitting it re-executes the whole sequence on the other box."""
        affinity = _cluster(
            2, requests=_twin_requests(), router="affinity"
        ).serve("round_robin")
        random_ = _cluster(
            2, requests=_twin_requests(), router="random"
        ).serve("round_robin")
        assert affinity.total_frames == random_.total_frames
        assert affinity.total_busy_cycles < random_.total_busy_cycles

    def test_pose_affinity_colocates_overlapping_keyframes(self):
        """Different paths whose Phase I keyframes share a pose land on
        the same shard — the cross-client keyframe replay lever only
        fires in one box's scheduler."""
        long_path = camera_path("orbit", FRAMES + 2, SIZE, SIZE, arc=0.3)
        short_path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
        # Distinct content keys (different path cache keys) ...
        assert (
            _request("a", long_path).content_key()
            != _request("b", short_path).content_key()
        )
        # ... but both start from the same keyframe pose.
        cluster = ClusterServer(
            [_accelerator(), _accelerator()], router="affinity"
        )
        cluster.submit(_request("a", long_path), synthetic_sequence(long_path))
        cluster.submit(
            _request("b", short_path), synthetic_sequence(short_path)
        )
        assert cluster.placement_of("a") == cluster.placement_of("b")
        # Routing and the shard scheduler share one pose content id, so
        # the co-located keyframe really replays across the tenants.
        for policy in ("round_robin", "fifo", "round_robin_preemptive"):
            shard = cluster.serve(policy).shard(cluster.placement_of("b"))
            first = [s for s in shard.schedule if s.client == "b"][0]
            assert first.frame == 0 and first.cross_replay, policy

    def test_least_loaded_spreads_unrelated_clients(self):
        requests = [
            _request(f"c{i}", path)
            for i, path in enumerate(_distinct_paths(2))
        ]
        cluster = _cluster(2, requests=requests, router="least_loaded")
        assert cluster.placement_of("c0") != cluster.placement_of("c1")


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
class TestMigration:
    def _migrating_cluster(self):
        path = camera_path("orbit", FRAMES, SIZE, SIZE, arc=0.3)
        requests = [
            _request("mover", path),
            _request("stay", _distinct_paths(2)[1]),
        ]
        return _cluster(
            2, varied=True, requests=requests, router="least_loaded"
        )

    def test_migration_splits_frames_across_shards(self):
        cluster = self._migrating_cluster()
        dst = [
            n for n in cluster.shard_names
            if n != cluster.placement_of("mover")
        ][0]
        report = cluster.serve(
            "round_robin", [Migration("mover", 2, dst)]
        )
        head = report.shard(cluster.placement_of("mover")).client("mover")
        tail = report.shard(dst).client("mover")
        assert head.frames == 2
        assert tail.frames == FRAMES - 2
        assert report.total_frames == 2 * FRAMES
        assert report.num_migrations == 1
        record = report.migrations[0]
        assert record["client"] == "mover"
        assert record["to"] == dst
        assert record["after_frame"] == 2
        assert record["handoff"] is True
        assert record["tail_arrival_cycle"] > 0

    def test_handoff_never_costs_more_than_cold_restart(self):
        cluster = self._migrating_cluster()
        dst = [
            n for n in cluster.shard_names
            if n != cluster.placement_of("mover")
        ][0]
        warm = cluster.serve(
            "round_robin", [Migration("mover", 2, dst, handoff=True)]
        )
        cold = cluster.serve(
            "round_robin", [Migration("mover", 2, dst, handoff=False)]
        )
        assert warm.migrations[0]["handoff"] is True
        assert cold.migrations[0]["handoff"] is False
        assert warm.total_frames == cold.total_frames
        assert warm.total_busy_cycles <= cold.total_busy_cycles

    def test_serve_is_reentrant_around_migrations(self):
        cluster = self._migrating_cluster()
        dst = [
            n for n in cluster.shard_names
            if n != cluster.placement_of("mover")
        ][0]
        before = cluster.serve("round_robin").to_dict()
        cluster.serve("round_robin", [Migration("mover", 2, dst)])
        assert cluster.serve("round_robin").to_dict() == before

    def test_migration_validation(self):
        cluster = self._migrating_cluster()
        src = cluster.placement_of("mover")
        dst = [n for n in cluster.shard_names if n != src][0]
        for bad in [
            Migration("ghost", 2, dst),        # unknown client
            Migration("mover", 2, "shard9"),   # unknown shard
            Migration("mover", 2, src),        # already there
            Migration("mover", 0, dst),        # nothing served at source
            Migration("mover", FRAMES, dst),   # nothing left to move
        ]:
            with pytest.raises(ConfigurationError):
                cluster.serve("round_robin", [bad])
        with pytest.raises(ConfigurationError, match="more than once"):
            cluster.serve(
                "round_robin",
                [Migration("mover", 1, dst), Migration("mover", 2, dst)],
            )

    def test_cyclic_migrations_rejected(self):
        cluster = self._migrating_cluster()
        a = cluster.placement_of("mover")
        b = cluster.placement_of("stay")
        assert a != b
        with pytest.raises(ConfigurationError, match="cycle"):
            cluster.serve(
                "round_robin",
                [Migration("mover", 2, b), Migration("stay", 2, a)],
            )


# ----------------------------------------------------------------------
# Elastic scale-out
# ----------------------------------------------------------------------
class TestScaleOut:
    def test_spare_joins_above_threshold(self):
        paths = _distinct_paths(2)
        # Threshold sized to admit one client but not two: the second
        # submission's projected load tips the spare into the fleet.
        one_client = ClusterServer._fresh_points(synthetic_sequence(paths[0]))
        cluster = ClusterServer(
            [_accelerator()],
            router="least_loaded",
            spare_accelerators=[_accelerator()],
            scale_out_threshold=one_client + one_client // 2,
        )
        cluster.submit(_request("c0", paths[0]), synthetic_sequence(paths[0]))
        assert cluster.num_shards == 1
        cluster.submit(_request("c1", paths[1]), synthetic_sequence(paths[1]))
        assert cluster.num_shards == 2
        assert cluster.placement_of("c1") == "shard1"
        assert len(cluster.scale_out_events) == 1
        event = cluster.scale_out_events[0]
        assert event["client"] == "c1"
        assert event["shard"] == "shard1"
        report = cluster.serve("round_robin")
        assert report.total_frames == 2 * FRAMES
        assert [dict(e) for e in cluster.scale_out_events] == report.scale_out_events

    def test_affinity_match_does_not_scale_out(self):
        alpha, beta = _twin_requests()[:2]
        one_client = ClusterServer._fresh_points(
            synthetic_sequence(alpha.path)
        )
        cluster = ClusterServer(
            [_accelerator()],
            router="affinity",
            spare_accelerators=[_accelerator()],
            scale_out_threshold=one_client,
        )
        for request in (alpha, beta):
            cluster.submit(request, synthetic_sequence(request.path))
        # beta rides alpha's content: no fresh work, no new shard.
        assert cluster.num_shards == 1


# ----------------------------------------------------------------------
# Determinism and heterogeneous fleets
# ----------------------------------------------------------------------
class TestClusterDeterminism:
    def test_identical_clusters_serve_identically(self):
        reports = [
            _cluster(2, varied=True, requests=_twin_requests())
            .serve("round_robin_preemptive")
            .to_dict()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_bench_summary_schema(self):
        report = _cluster(2, requests=_twin_requests()).serve("round_robin")
        summary = cluster_bench_summary({"affinity": report})
        assert summary["schema"] == "cluster_bench/v1"
        entry = summary["routers"]["affinity"]
        assert entry["router"] == "affinity"
        assert entry["shards"] == 2
        assert entry["total_busy_cycles"] == report.total_busy_cycles
        assert set(entry["utilisation"]) == set(report.shard_names)


class TestHeterogeneousFleet:
    def test_edge_and_server_shards_mix(self):
        cluster = ClusterServer(
            [_accelerator(ArchConfig.server()), _accelerator(ArchConfig.edge())],
            names=["server0", "edge0"],
            router="least_loaded",
        )
        requests = [
            _request(f"c{i}", path)
            for i, path in enumerate(_distinct_paths(2))
        ]
        for request in requests:
            cluster.submit(request, synthetic_sequence(request.path))
        report = cluster.serve("round_robin")
        assert report.total_frames == 2 * FRAMES
        assert report.total_busy_cycles == sum(
            s.busy_cycles for s in report.shards
        )
        # Genuinely heterogeneous design points (edge is a smaller box;
        # both clock at 1 GHz, so the asymmetry shows up in cycles).
        assert (
            cluster.shard("server0").accelerator.config
            != cluster.shard("edge0").accelerator.config
        )
        assert report.makespan_seconds > 0
        assert 0.0 < report.fairness <= 1.0


# ----------------------------------------------------------------------
# Serving-layer cache hygiene (the bug class this PR removes)
# ----------------------------------------------------------------------
class TestNoIdentityKeyedCaches:
    def test_no_id_calls_in_serving_sources(self):
        """``id()`` must not appear as a call anywhere in the serving
        layer: object identity is not content identity (CPython reuses
        addresses after garbage collection), so an ``id()``-keyed cache
        can serve one client's cached plans or scan-out prices to a
        different client's trace.  AST-level scan so comments and the
        ``PendingFrame.id`` property don't false-positive."""
        serving = Path(__file__).resolve().parents[1] / "src/repro/serving"
        offenders = []
        for source in sorted(serving.glob("*.py")):
            tree = ast.parse(source.read_text(), filename=str(source))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"
                ):
                    offenders.append(f"{source.name}:{node.lineno}")
        assert not offenders, f"id()-keyed lookups remain: {offenders}"
