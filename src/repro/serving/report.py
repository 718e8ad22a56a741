"""Serving outcome reports: per-client latency, throughput and fairness.

The server's virtual clock prices every scheduled frame in accelerator
cycles, so the metrics here are deterministic arithmetic over the
schedule, not wall-clock measurements:

* **latency** — cycles from a client's arrival to each frame's delivery
  (p50/p95/max per client);
* **throughput** — delivered frames per simulated second across the run;
* **fairness** — Jain's index over per-client slowdowns, where slowdown
  is a client's serving makespan divided by its cycles running alone on
  the same accelerator (1.0 = every client slowed equally; lower = some
  client paid disproportionately for the sharing).

Preemption-aware accounting: under a preemptive policy a frame's
``completion_cycle - start_cycle`` spans every suspension, while its
``cycles`` count only the wavefronts it actually executed — the gap is
time spent preempted.  The report separates the two: per-frame and
per-client **preemption counts**, the run's **context switches** (times
the engines' in-flight frame state was set aside for another tenant) and
any configured **context-switch overhead cycles**, which are accounted
next to — never inside — per-client service cycles, so the conservation
invariant reads ``busy == sum(service)`` and
``makespan == busy + context_switch_cycles`` when the clock never idles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` in ``(0, 1]``.

    Example:
        >>> round(jain_fairness([1.0, 1.0, 1.0]), 3)
        1.0
        >>> round(jain_fairness([3.0, 1.0]), 3)
        0.8
    """
    x = np.asarray(list(values), dtype=np.float64)
    if x.size == 0 or not np.any(x):
        return 1.0
    return float(x.sum() ** 2 / (x.size * np.square(x).sum()))


@dataclass(frozen=True)
class ScheduledFrame:
    """One executed work item in the serving schedule.

    Attributes:
        client: Tenant the frame was delivered to.
        frame: Frame index within the client's sequence.
        mode: Work-item mode (``probe`` / ``reuse`` / ``replay``).
        cross_replay: True when the frame was served from content another
            client already executed this run (priced at scan-out).
        start_cycle / cycles / completion_cycle: Placement on the
            accelerator's virtual clock.  Under preemption
            ``completion_cycle - start_cycle`` may exceed ``cycles``: the
            difference is time the frame sat suspended.
        preemptions: Times the frame was suspended with work remaining.
        delivered: False for a frame aborted mid-execution by a client
            departure — its ``cycles`` still occupied the accelerator
            (and count toward busy/service totals) but no frame reached
            the client, so it contributes no latency sample.
    """

    client: str
    frame: int
    mode: str
    cross_replay: bool
    start_cycle: int
    cycles: int
    completion_cycle: int
    preemptions: int = 0
    delivered: bool = True


@dataclass
class ClientServeReport:
    """One tenant's outcome of a serving run.

    Attributes:
        client_id / scene / preset: Request identity.
        arrival_cycle: When the request arrived.
        latencies_cycles: Per-frame delivery latencies (completion minus
            arrival), in delivery order.
        service_cycles: Accelerator cycles attributed to this client's
            frames (the conservation invariant: these sum to the run's
            busy cycles across clients).
        alone_cycles: Cycles the client's sequence costs running alone on
            the same accelerator (the slowdown denominator).
        energy_joules: Energy attributed to this client's frames.
        probes / reuses / replays / cross_replays: Frame-mode mix as
            executed (``cross_replays`` counts frames of any mode that
            were served from another client's executed content).
        deadline_misses: Frames delivered after their deadline (0 when the
            run had no deadlines).
        preemptions: Times one of this client's in-flight frames was
            suspended for another tenant's wavefronts.
        aborted_frames: Frames cancelled by the client's departure
            (undelivered; at most one of them — the in-flight frame —
            contributed service cycles).
        twin_deferrals: Scheduling decisions at which one of this
            client's frames was deferred because its content was
            mid-flight on another tenant (waiting to deliver as a
            cross-client replay instead of executing fresh).
        slo_class: The request's service class (``interactive`` /
            ``standard`` / ``batch``) — the key per-class SLO attainment
            aggregates by.
        shed_frames: Frames dropped by overload shedding (undelivered,
            zero cycles; they count against SLO attainment).
        degraded: One entry per frame served at reduced sampling budget
            (``{"frame", "fraction", "psnr"}`` — ``psnr`` is the measured
            degraded-vs-full quality when known, else ``None``).
    """

    client_id: str
    scene: str
    preset: str
    arrival_cycle: int
    latencies_cycles: List[int] = field(default_factory=list)
    service_cycles: int = 0
    alone_cycles: int = 0
    energy_joules: float = 0.0
    probes: int = 0
    reuses: int = 0
    replays: int = 0
    cross_replays: int = 0
    deadline_misses: int = 0
    preemptions: int = 0
    aborted_frames: int = 0
    twin_deferrals: int = 0
    slo_class: str = "standard"
    shed_frames: int = 0
    degraded: List[Dict] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return len(self.latencies_cycles)

    @property
    def makespan_cycles(self) -> int:
        """Arrival-to-last-frame latency (the client's completion time)."""
        return max(self.latencies_cycles) if self.latencies_cycles else 0

    @property
    def slowdown(self) -> float:
        """Serving makespan over alone cycles (1.0 = no sharing penalty;
        below 1.0 means cross-client reuse made sharing a net win)."""
        return self.makespan_cycles / self.alone_cycles if self.alone_cycles else 1.0

    def latency_percentile(self, q: float) -> float:
        if not self.latencies_cycles:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_cycles), q))

    @property
    def slo_expected_frames(self) -> int:
        """Frames the SLO holds the server to: delivered plus aborted
        plus shed (a frame the server dropped still disappoints the
        client it was promised to)."""
        return self.frames + self.aborted_frames + self.shed_frames

    @property
    def slo_attained_frames(self) -> int:
        """Frames delivered on time (deadline-less deliveries count —
        there was no promise to break)."""
        return self.frames - self.deadline_misses

    @property
    def slo_attainment(self) -> float:
        """On-time fraction of this client's expected frames (1.0 for an
        empty window)."""
        expected = self.slo_expected_frames
        return self.slo_attained_frames / expected if expected else 1.0

    @property
    def mode_mix(self) -> str:
        """Compact ``probes/reuses/replays(+cross)`` frame-mix label."""
        mix = f"{self.probes}p/{self.reuses}r/{self.replays}x"
        if self.cross_replays:
            mix += f"+{self.cross_replays}c"
        return mix


@dataclass
class ServeReport:
    """Outcome of serving all admitted clients under one policy.

    Attributes:
        policy: Scheduling policy name.
        clock_hz: Accelerator clock (converts cycles to seconds).
        clients: Per-client reports, in submission order.
        schedule: Executed frames in execution order.
        makespan_cycles: Final virtual-clock value (busy plus context-
            switch overhead plus any idle gaps before late arrivals).
        back_to_back_cycles: Sum of every client's alone cycles — the
            reference a serving run must beat (or at worst match) to
            justify sharing the accelerator.
        context_switches: Times the engines' in-flight frame state was
            set aside for another tenant (0 under non-preemptive
            policies, whose frames are atomic).
        context_switch_cycles: Total overhead cycles charged for those
            switches (the server's ``context_switch_cycles`` each) —
            accounted separately from per-client service so conservation
            stays exact.
        quantum: Preemption quantum in wavefront steps, the string
            ``"auto"`` when the run was auto-tuned, or ``None`` for
            non-preemptive policies.
    """

    policy: str
    clock_hz: float
    clients: List[ClientServeReport] = field(default_factory=list)
    schedule: List[ScheduledFrame] = field(default_factory=list)
    makespan_cycles: int = 0
    back_to_back_cycles: int = 0
    context_switches: int = 0
    context_switch_cycles: int = 0
    quantum: Optional[Union[int, str]] = None

    @property
    def busy_cycles(self) -> int:
        """Cycles the accelerator actually executed (no idle gaps) — the
        aggregate the acceptance criterion compares to back-to-back."""
        return sum(s.cycles for s in self.schedule)

    @property
    def total_cycles(self) -> int:
        """Busy cycles plus context-switch overhead — everything the
        accelerator spent other than idling for arrivals."""
        return self.busy_cycles + self.context_switch_cycles

    @property
    def total_frames(self) -> int:
        return sum(c.frames for c in self.clients)

    def latency_percentile(self, q: float) -> float:
        """Percentile over every delivered frame's latency, all clients."""
        lats = [lat for c in self.clients for lat in c.latencies_cycles]
        if not lats:
            return 0.0
        return float(np.percentile(np.asarray(lats), q))

    @property
    def throughput_fps(self) -> float:
        """Delivered frames per simulated second across the run."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.total_frames / (self.makespan_cycles / self.clock_hz)

    @property
    def fairness(self) -> float:
        """Jain's index over per-client slowdowns (1.0 = perfectly fair)."""
        return jain_fairness([c.slowdown for c in self.clients])

    @property
    def slo_attainment(self) -> Dict[str, float]:
        """Per-class on-time fraction: delivered-on-time frames over
        expected frames (delivered + aborted + shed), aggregated over
        every client of the class.  Only classes present in the run
        appear; a class whose clients expected no frames reads 1.0."""
        attained: Dict[str, int] = {}
        expected: Dict[str, int] = {}
        for c in self.clients:
            attained[c.slo_class] = (
                attained.get(c.slo_class, 0) + c.slo_attained_frames
            )
            expected[c.slo_class] = (
                expected.get(c.slo_class, 0) + c.slo_expected_frames
            )
        return {
            cls: (attained[cls] / expected[cls] if expected[cls] else 1.0)
            for cls in sorted(expected)
        }

    @property
    def sharing_saving(self) -> float:
        """Fraction of the back-to-back cycles that cross-client reuse
        saved (0.0 when clients share no content)."""
        if self.back_to_back_cycles == 0:
            return 0.0
        return 1.0 - self.busy_cycles / self.back_to_back_cycles

    @property
    def energy_joules(self) -> float:
        return sum(c.energy_joules for c in self.clients)

    def client(self, client_id: str) -> ClientServeReport:
        for c in self.clients:
            if c.client_id == client_id:
                return c
        raise KeyError(client_id)

    # ------------------------------------------------------------------
    def to_rows(self) -> List[Dict[str, object]]:
        """Table rows: one per client plus an aggregate row (the shape
        the ``serve`` experiment prints and the benchmarks assert on)."""
        ms = 1e3 / self.clock_hz
        rows: List[Dict[str, object]] = []
        for c in self.clients:
            rows.append(
                {
                    "policy": self.policy,
                    "client": c.client_id,
                    "frames": str(c.frames),
                    "modes": c.mode_mix,
                    "svc_kcycles": c.service_cycles / 1e3,
                    "makespan_kc": c.makespan_cycles / 1e3,
                    "p50_ms": c.latency_percentile(50) * ms,
                    "p95_ms": c.latency_percentile(95) * ms,
                    "slowdown": c.slowdown,
                    "misses": str(c.deadline_misses),
                    "preempt": str(c.preemptions),
                    "fairness": "",
                    "fps": "",
                }
            )
        rows.append(
            {
                "policy": self.policy,
                "client": "(aggregate)",
                "frames": str(self.total_frames),
                "modes": f"b2b {self.back_to_back_cycles / 1e3:.0f}kc",
                "svc_kcycles": self.busy_cycles / 1e3,
                "makespan_kc": self.makespan_cycles / 1e3,
                "p50_ms": self.latency_percentile(50) * ms,
                "p95_ms": self.latency_percentile(95) * ms,
                "slowdown": float(
                    np.mean([c.slowdown for c in self.clients])
                )
                if self.clients
                else 1.0,
                "misses": str(sum(c.deadline_misses for c in self.clients)),
                "preempt": f"{self.context_switches}cs",
                "fairness": f"{self.fairness:.3f}",
                "fps": f"{self.throughput_fps:.1f}",
            }
        )
        return rows

    def to_dict(self) -> Dict:
        """JSON-style form (used by the determinism test)."""
        return {
            "policy": self.policy,
            "quantum": self.quantum,
            "makespan_cycles": int(self.makespan_cycles),
            "busy_cycles": int(self.busy_cycles),
            "back_to_back_cycles": int(self.back_to_back_cycles),
            "context_switches": int(self.context_switches),
            "context_switch_cycles": int(self.context_switch_cycles),
            "fairness": self.fairness,
            "slo_attainment": self.slo_attainment,
            "schedule": [
                (s.client, s.frame, s.mode, s.cross_replay, s.start_cycle,
                 s.cycles, s.preemptions, s.delivered)
                for s in self.schedule
            ],
            "clients": [
                {
                    "client_id": c.client_id,
                    "latencies": list(c.latencies_cycles),
                    "service_cycles": int(c.service_cycles),
                    "alone_cycles": int(c.alone_cycles),
                    "energy_joules": c.energy_joules,
                    "modes": c.mode_mix,
                    "deadline_misses": c.deadline_misses,
                    "preemptions": c.preemptions,
                    "aborted_frames": c.aborted_frames,
                    "twin_deferrals": c.twin_deferrals,
                    "slo_class": c.slo_class,
                    "shed_frames": c.shed_frames,
                    "degraded": [dict(d) for d in c.degraded],
                }
                for c in self.clients
            ],
        }


def bench_summary(reports: Dict[str, "ServeReport"]) -> Dict:
    """Machine-readable serving summary (the ``repro serve --json`` shape,
    written as ``BENCH_serving.json`` by the CI smoke job).

    One entry per policy with the headline numbers a dashboard or CI
    check needs — latency percentiles in milliseconds, throughput,
    fairness, context switches and the back-to-back reference — plus a
    per-client breakdown.
    """
    out: Dict = {"schema": "serving_bench/v1", "policies": {}}
    for name, report in reports.items():
        ms = 1e3 / report.clock_hz
        out["policies"][name] = {
            "quantum": report.quantum,
            "p50_ms": report.latency_percentile(50) * ms,
            "p95_ms": report.latency_percentile(95) * ms,
            "throughput_fps": report.throughput_fps,
            "fairness": report.fairness,
            "context_switches": report.context_switches,
            "context_switch_cycles": report.context_switch_cycles,
            "busy_cycles": int(report.busy_cycles),
            "makespan_cycles": int(report.makespan_cycles),
            "back_to_back_cycles": int(report.back_to_back_cycles),
            "sharing_saving": report.sharing_saving,
            "total_frames": report.total_frames,
            "slo_attainment": report.slo_attainment,
            "clients": {
                c.client_id: {
                    "frames": c.frames,
                    "p50_ms": c.latency_percentile(50) * ms,
                    "p95_ms": c.latency_percentile(95) * ms,
                    "service_cycles": int(c.service_cycles),
                    "slowdown": c.slowdown,
                    "deadline_misses": c.deadline_misses,
                    "preemptions": c.preemptions,
                    "aborted_frames": c.aborted_frames,
                    "slo_class": c.slo_class,
                    "shed_frames": c.shed_frames,
                    "degraded": [dict(d) for d in c.degraded],
                }
                for c in report.clients
            },
        }
    return out


def bench_table_rows(payloads: Dict[str, Dict]) -> List[Dict[str, str]]:
    """Flatten run-all bench payloads into one headline summary table.

    ``payloads`` maps snapshot name (``serving`` / ``slo`` / ``cluster``
    / ``video``) to its parsed ``BENCH_*.json`` document; unknown names
    are skipped, so partial runs still summarise.  One row per headline
    metric — the shape ``repro bench run-all`` writes to
    ``results/summary.json`` and prints as its closing table.
    """
    rows: List[Dict[str, str]] = []
    serving = payloads.get("serving")
    if serving:
        for name in sorted(serving.get("policies", {})):
            rep = serving["policies"][name]
            rows.append(
                {
                    "bench": "serving",
                    "case": name,
                    "metric": "p95_ms / fairness",
                    "value": "{:.3f} / {:.3f}".format(
                        rep["p95_ms"], rep["fairness"]
                    ),
                    "cycles": str(rep["busy_cycles"]),
                }
            )
    slo = payloads.get("slo")
    if slo:
        for run in ("baseline", "slo"):
            rep = slo.get(run)
            if not rep:
                continue
            attain = rep.get("slo_attainment", {})
            rows.append(
                {
                    "bench": "slo",
                    "case": run,
                    "metric": "interactive attainment",
                    "value": "{:.2f} (shed {}, degraded {})".format(
                        attain.get("interactive", float("nan")),
                        rep.get("shed_frames", 0),
                        rep.get("degraded_frames", 0),
                    ),
                    "cycles": str(rep.get("busy_cycles")),
                }
            )
    cluster = payloads.get("cluster")
    if cluster:
        for name in sorted(cluster.get("routers", {})):
            rep = cluster["routers"][name]
            rows.append(
                {
                    "bench": "cluster",
                    "case": f"router {name}",
                    "metric": "fleet busy cycles",
                    "value": str(rep["total_busy_cycles"]),
                    "cycles": "{} frames".format(rep["total_frames"]),
                }
            )
        rows.append(
            {
                "bench": "cluster",
                "case": "affinity/random",
                "metric": "cycle ratio",
                "value": str(cluster.get("affinity_over_random_cycles")),
                "cycles": "identity ok"
                if cluster.get("single_shard_identical")
                else "IDENTITY BROKEN",
            }
        )
    video = payloads.get("video")
    if video:
        orbit = video.get("orbit", {})
        rows.append(
            {
                "bench": "video",
                "case": "reprojected orbit",
                "metric": "speedup vs fresh",
                "value": f"{orbit.get('speedup_vs_fresh')}x",
                "cycles": str(orbit.get("reproject_cycles")),
            }
        )
        for run in ("fixed", "adaptive"):
            rep = video.get("keyframes", {}).get(run)
            if not rep:
                continue
            rows.append(
                {
                    "bench": "video",
                    "case": f"keyframes {run}",
                    "metric": "probes / min PSNR",
                    "value": "{} / {:.2f} dB".format(
                        rep["probes"], rep["min_psnr"]
                    ),
                    "cycles": "-",
                }
            )
    return rows
