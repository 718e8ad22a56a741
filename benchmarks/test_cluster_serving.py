"""Cluster serving: content-affinity routing vs placement-blind sharding.

The artefact of the fleet work: the same twin-heavy client mix (popular
content watched by several tenants) served on the same fleet shape under
the content-affinity router and the placement-blind ``random`` hash
router.  Placement is the only degree of freedom, so the aggregate-cycle
gap *is* the value of content-aware routing — the affinity fleet serves
each twin pair's second stream at scan-out cost, the hash fleet
re-executes it on the other box.

Correctness gates ride along, asserted before any number is written:

* **single-shard identity** — a one-shard cluster's nested ``ServeReport``
  must be bit-identical to serving the same submissions on a bare
  :class:`SequenceServer` (the cluster layer adds placement, not cycles);
* **ordering** — ``affinity`` must not lose to ``random`` on fleet busy
  cycles for the twin-heavy mix (the PR's acceptance criterion), with
  both routers delivering the same frames.

Runs two ways:

* under pytest (with ``pytest-benchmark``) at smoke scale, as part of
  the tier-1 suite;
* as a script (numpy-only, no pytest needed) emitting the
  machine-readable ``BENCH_cluster.json`` (schema ``cluster_bench/v1``)::

      PYTHONPATH=src python benchmarks/test_cluster_serving.py \
          --clients 6 --frames 4 --size 16 --shards 2 \
          --out BENCH_cluster.json

The committed ``BENCH_cluster.json`` snapshots the full six-client palace
mix on two shards; CI regenerates a small-config one per push and fails
on divergence.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Optional, Sequence

from repro.experiments.cluster import cluster_reports, twin_heavy_mix
from repro.experiments.workbench import Workbench, experiment_accelerator
from repro.serving.cluster import ClusterServer, cluster_bench_summary
from repro.serving.server import SequenceServer

try:  # CI's cluster-smoke job runs script mode on a bare numpy install
    import pytest
except ImportError:  # pragma: no cover
    pytest = None  # type: ignore[assignment]


def _best_of(fn: Callable[[], object], rounds: int) -> float:
    """Best wall-clock of ``rounds`` calls — the standard noise filter
    for a shared machine (the minimum estimates the undisturbed cost)."""
    best = float("inf")
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def single_shard_identity(
    wb: Workbench, requests: Sequence, policy: str
) -> bool:
    """Whether a one-shard cluster's report is bit-identical to a bare
    :class:`SequenceServer` serving the same submissions."""
    cluster = ClusterServer(
        [experiment_accelerator("server")],
        router="affinity",
        group_size=wb.group_size(),
    )
    bare = SequenceServer(
        experiment_accelerator("server"), group_size=wb.group_size()
    )
    for request in requests:
        sequence = wb.client_sequence(request)
        cluster.submit(request, sequence)
        bare.submit(request, sequence)
    fleet = cluster.serve(policy)
    return fleet.shards[0].to_dict() == bare.serve(policy).to_dict()


def cluster_bench_payload(
    scene: str = "palace",
    clients: int = 6,
    frames: int = 4,
    size: int = 16,
    shards: int = 2,
    policy: str = "round_robin_preemptive",
    rounds: int = 3,
) -> Dict[str, object]:
    """The full ``cluster_bench/v1`` document.

    Serves the twin-heavy mix under each compared router (pre-rendered,
    so the timings cover placement + serving, not scene rendering),
    asserts the identity and ordering gates, and wraps the per-router
    fleet summaries with the run's config and headline comparison.
    """
    wb = Workbench()
    requests = twin_heavy_mix(
        scene=scene, clients=clients, frames=frames, size=size
    )
    for request in requests:
        wb.client_sequence(request)  # pre-render, untimed

    reports: Dict[str, object] = {}
    timings: Dict[str, float] = {}
    for router in ("affinity", "random"):

        def run() -> None:
            reports[router] = cluster_reports(
                wb,
                requests,
                shards=shards,
                routers=(router,),
                policy=policy,
            )[router]

        run()  # warmup (and the reported placement)
        timings[router] = round(_best_of(run, rounds), 4)

    affinity, random_ = reports["affinity"], reports["random"]
    assert affinity.total_frames == random_.total_frames, (
        "routers must deliver the same frames before cycles compare"
    )
    assert affinity.total_busy_cycles <= random_.total_busy_cycles, (
        "content-affinity routing lost to the placement-blind hash "
        "router on the twin-heavy mix — placement stopped paying"
    )
    identical = single_shard_identity(wb, requests, policy)
    assert identical, (
        "a one-shard cluster diverged from the bare SequenceServer — "
        "the cluster layer must add placement, not cycles"
    )
    payload = cluster_bench_summary(reports)
    payload["config"] = {
        "scene": scene,
        "clients": clients,
        "frames": frames,
        "size": size,
        "shards": shards,
        "policy": policy,
        "rounds": rounds,
    }
    payload["serve_seconds"] = timings
    payload["single_shard_identical"] = identical
    payload["affinity_over_random_cycles"] = round(
        affinity.total_busy_cycles / max(random_.total_busy_cycles, 1), 3
    )
    return payload


if pytest is not None:

    def test_affinity_beats_random_and_single_shard_identity(benchmark):
        """Smoke scale: the ordering and identity gates run inside the
        payload builder; the committed full-scale ``BENCH_cluster.json``
        carries the headline numbers."""
        payload = benchmark.pedantic(
            lambda: cluster_bench_payload(
                clients=6, frames=2, size=8, shards=2, rounds=1
            ),
            rounds=1,
            iterations=1,
        )
        assert payload["schema"] == "cluster_bench/v1"
        assert payload["single_shard_identical"]
        assert payload["affinity_over_random_cycles"] <= 1.0
        assert set(payload["routers"]) == {"affinity", "random"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Cluster serving benchmark (emits cluster_bench/v1)"
    )
    parser.add_argument("--scene", default="palace")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--size", type=int, default=16)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--policy", default="round_robin_preemptive")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", default="BENCH_cluster.json")
    args = parser.parse_args(argv)

    payload = cluster_bench_payload(
        scene=args.scene,
        clients=args.clients,
        frames=args.frames,
        size=args.size,
        shards=args.shards,
        policy=args.policy,
        rounds=args.rounds,
    )
    for router in ("affinity", "random"):
        entry = payload["routers"][router]
        print(
            f"{router:9s}: {entry['total_busy_cycles']} busy cycles over "
            f"{entry['shards']} shards ({entry['total_frames']} frames), "
            f"fairness {entry['fairness']:.3f}, "
            f"serve {payload['serve_seconds'][router]}s"
        )
    print(
        f"affinity/random cycles: {payload['affinity_over_random_cycles']} "
        f"(single-shard identity: {payload['single_shard_identical']})"
    )
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
