"""The benchmark's three workloads.

Each workload draws its inputs (cameras, or serving requests) from the
seed in its constructor, builds the program's objects in :meth:`setup`,
does the measured work in :meth:`run_pass` and turns one pass's raw
output into checked, deterministic figures in :meth:`summarise`, which
runs outside the timed region.  The program is driven only through
``Workbench``, ``ASDRRenderer``, ``ASDRAccelerator`` and
``SequenceServer``; it receives cameras and requests, never the seed.

Modelled figures (cycles, energy, serving latency on the virtual clock)
come from the reproduction's own accelerator model.  They are not
validated against hardware: the paper's values come from a different
model, so no error figure is given.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.pipeline import ASDRRenderer
from repro.exec.sequence import SequenceTrace
from repro.experiments.serving import default_client_mix
from repro.experiments.video import BENCH_REPROJECT
from repro.experiments.workbench import (
    Workbench,
    WorkbenchConfig,
    experiment_accelerator,
)
from repro.metrics.image import psnr
from repro.scenes.cameras import Camera, camera_path, look_at_pose
from repro.scenes.dataset import render_analytic
from repro.serving.policies import make_policy
from repro.serving.request import ClientRequest
from repro.serving.server import SequenceServer
from repro.serving.slo import SLO_CLASSES

#: Sample budget of the analytic ground truth (the workbench's reference).
REFERENCE_SAMPLES = 192
#: Output check: every delivered frame must reach this PSNR against the
#: analytic ground truth.  The distilled models deliver 19-25 dB on these
#: views; the floor catches broken images, not small quality shifts
#: (those move ``psnr_min_db``).
PSNR_FLOOR_DB = 14.0


@dataclass
class PassResult:
    """One pass, checked and reduced to the figures the report needs.

    Attributes:
        submitted: Frames the pass was asked to deliver (the attempted
            operations).
        delivered: Frames delivered to a viewer.
        bad_frames: Submitted frames that failed an output check.
        problems: One line per failed check.
        modelled: Deterministic end-to-end figures (``sim_*``,
            ``psnr_*``, ``latency_p95_kcycles``, ``deadline_miss_frac``).
        counts: Deterministic layer counts read off the pass's outputs.
        sim_cycles: Modelled cycles of the delivered frames, which the
            traced run's engine breakdown must add up to.
        density_points: Trace density points of the frames rendered in
            the pass (the useful share of the points the model evaluated).
        digest: Hash of the modelled output (per-frame cycles plus trace
            content digests), compared exactly across passes and commits.
    """

    submitted: int
    delivered: int
    bad_frames: int = 0
    problems: List[str] = field(default_factory=list)
    modelled: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    sim_cycles: int = 0
    density_points: int = 0
    digest: str = ""


def _digest(frame_cycles: Sequence[int], traces, extra: str = "") -> str:
    """Hash of a pass's modelled output: per-frame cycles, every frame
    trace's content digest and any further report text."""
    h = hashlib.sha256(extra.encode())
    h.update(json.dumps([int(c) for c in frame_cycles]).encode())
    for trace in traces:
        h.update(trace.content_digest())
    return h.hexdigest()[:32]


def _frame_checks(
    images: Sequence[np.ndarray], references: Sequence[np.ndarray]
) -> Tuple[List[float], List[str]]:
    """PSNR of each delivered image against its ground truth, plus one
    problem line per image that is non-finite or below the floor."""
    scores, problems = [], []
    for k, (image, reference) in enumerate(zip(images, references)):
        if not np.all(np.isfinite(image)):
            scores.append(-math.inf)
            problems.append(f"frame {k}: non-finite pixels")
            continue
        score = float(psnr(np.clip(image, 0.0, 1.0), reference))
        scores.append(score)
        if not score >= PSNR_FLOOR_DB:
            problems.append(f"frame {k}: PSNR {score:.2f} dB < {PSNR_FLOOR_DB} dB")
    return scores, problems


def _image_figures(scores: Sequence[float]) -> Dict[str, float]:
    finite = [s for s in scores if math.isfinite(s)]
    return {
        "psnr_min_db": min(finite) if finite else 0.0,
        "psnr_mean_db": float(np.mean(finite)) if finite else 0.0,
    }


def _zero_counts() -> Dict[str, float]:
    return {
        "core.probe_frames": 0,
        "core.reuse_frames": 0,
        "core.reproject_frames": 0,
        "core.reprojected_px_frac": 0.0,
        "serving.preemptions": 0,
        "serving.content_hits": 0,
        "serving.busy_frac": 0.0,
    }


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: Scene checkpoints are read from here (``.cache/models``).
    models_dir = ""
    #: Frames each pass is asked to deliver.
    frames_per_pass = 0

    def setup(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        """Compute the ground truth the checks compare against (benchmark
        work, not program set-up)."""
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def summarise(self, raw) -> PassResult:
        raise NotImplementedError

    def _workbench(self) -> Workbench:
        return Workbench(WorkbenchConfig(cache_dir=self.models_dir))


# ----------------------------------------------------------------------
class VideoOrbit(Workload):
    """Palace slow orbit rendered with plan reuse and reprojection, then
    priced with the temporal vertex cache.  Rendering dominates; the
    serving layer does no work."""

    name = "video_orbit"
    scene = "palace"

    def __init__(self, seed: int, smoke: bool, models_dir: str) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        frames, size = (4, 12) if smoke else (12, 24)
        self.models_dir = models_dir
        self.path = camera_path(
            "orbit",
            frames,
            size,
            size,
            # Narrow bands around the BENCH_video orbit: which rays the
            # reprojection thresholds call converged depends steeply on
            # the per-step parallax (a 10% wider arc moved modelled
            # cycles by ~15%).
            radius=rng.uniform(1.395, 1.405),
            elevation=rng.uniform(0.345, 0.355),
            arc=rng.uniform(0.0495, 0.0505),
        )
        self.cameras = self.path.cameras()
        self.frames_per_pass = frames
        self.inputs = {
            "radius": self.path.radius,
            "elevation": self.path.elevation,
            "arc": self.path.arc,
            "frames": frames,
            "size": size,
        }

    def setup(self) -> None:
        wb = self._workbench()
        self.renderer = ASDRRenderer(
            wb.model(self.scene), num_samples=wb.config.num_samples
        )
        self.accelerator = experiment_accelerator("server")
        self.group_size = wb.group_size()
        self.analytic = wb.dataset(self.scene).scene
        self.run_pass()  # warm-up

    def references(self) -> None:
        self.truth = [
            render_analytic(self.analytic, cam, num_samples=REFERENCE_SAMPLES)
            for cam in self.cameras
        ]

    def run_pass(self):
        render = self.renderer.render_sequence(
            self.cameras,
            probe_interval=0,
            path_key=self.path.cache_key(),
            reproject=BENCH_REPROJECT,
        )
        report = self.accelerator.simulate_sequence(
            render.trace, group_size=self.group_size
        )
        return render, report

    def summarise(self, raw) -> PassResult:
        render, report = raw
        trace = render.trace
        n = trace.num_frames
        scores, problems = _frame_checks(
            [r.image for r in render.results], self.truth
        )
        cycles = [f.total_cycles for f in report.frames]
        rendered = [k for k in range(n) if trace.replays[k] is None]
        reprojected = [k for k in rendered if trace.frames[k].reprojected_pixels]
        counts = _zero_counts()
        counts.update(
            {
                "core.probe_frames": sum(1 for k in rendered if trace.planned[k]),
                "core.reproject_frames": len(reprojected),
                "core.reuse_frames": sum(
                    1
                    for k in rendered
                    if not trace.planned[k] and k not in reprojected
                ),
                "core.reprojected_px_frac": sum(
                    trace.frames[k].reprojected_pixels for k in rendered
                )
                / sum(trace.frames[k].num_pixels for k in range(n)),
            }
        )
        return PassResult(
            submitted=n,
            delivered=n,
            bad_frames=len(problems),
            problems=problems,
            modelled={
                "sim_kcycles_per_frame": report.total_cycles / n / 1e3,
                "sim_uj_per_frame": report.energy_joules / n * 1e6,
                "latency_p95_kcycles": float(np.percentile(cycles, 95)) / 1e3,
                "deadline_miss_frac": 0.0,
                **_image_figures(scores),
            },
            counts=counts,
            sim_cycles=report.total_cycles,
            density_points=sum(trace.frames[k].density_points for k in rendered),
            digest=_digest(cycles, trace.frames),
        )


# ----------------------------------------------------------------------
class StillFrames(Workload):
    """One cold view per scene at the workbench's paper-figure scale,
    rendered with Phase I probes and priced on a fresh trace.  The frames
    fall on both sides of the pricing engine's cold-plan point limit;
    serving is bypassed."""

    name = "still_frames"
    #: Above the cold-plan point limit (stepped): palace, lego, ship,
    #: ficus.  Below it (planned): mic, fox.
    scenes = ("palace", "lego", "ship", "ficus", "mic", "fox")

    def __init__(self, seed: int, smoke: bool, models_dir: str) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.models_dir = models_dir
        self.size = 24 if smoke else 56
        self.scene_names = self.scenes[-2:] if smoke else self.scenes
        self.views: List[Tuple[str, Camera]] = []
        self.inputs: Dict[str, Dict[str, float]] = {}
        for scene in self.scene_names:
            azimuth = rng.uniform(-0.12, 0.12)
            radius = rng.uniform(1.37, 1.43)
            elevation = rng.uniform(0.32, 0.38)
            eye = np.array(
                [
                    0.5 + radius * math.cos(azimuth),
                    0.5 + elevation,
                    0.5 + radius * math.sin(azimuth),
                ]
            )
            pose = look_at_pose(eye, (0.5, 0.5, 0.5))
            self.views.append(
                (scene, Camera(self.size, self.size, 1.2 * self.size, pose))
            )
            self.inputs[scene] = {
                "azimuth": azimuth,
                "radius": radius,
                "elevation": elevation,
            }
        self.frames_per_pass = len(self.views)

    def setup(self) -> None:
        wb = self._workbench()
        self.renderers = {
            scene: ASDRRenderer(wb.model(scene), num_samples=wb.config.num_samples)
            for scene in self.scene_names
        }
        self.accelerator = experiment_accelerator("server")
        self.group_size = wb.group_size()
        self.analytic = {s: wb.dataset(s).scene for s in self.scene_names}
        self._frame(*self.views[-1])  # warm-up: the cheapest frame

    def references(self) -> None:
        self.truth = [
            render_analytic(self.analytic[s], cam, num_samples=REFERENCE_SAMPLES)
            for s, cam in self.views
        ]

    def _frame(self, scene: str, camera: Camera):
        result = self.renderers[scene].render_image(camera)
        report = self.accelerator.simulate_trace(
            result.trace, group_size=self.group_size
        )
        return result, report

    def run_pass(self):
        return [self._frame(scene, camera) for scene, camera in self.views]

    def summarise(self, raw) -> PassResult:
        n = len(raw)
        scores, problems = _frame_checks([r.image for r, _ in raw], self.truth)
        cycles = [rep.total_cycles for _, rep in raw]
        counts = _zero_counts()
        counts["core.probe_frames"] = n
        return PassResult(
            submitted=n,
            delivered=n,
            bad_frames=len(problems),
            problems=problems,
            modelled={
                "sim_kcycles_per_frame": sum(cycles) / n / 1e3,
                "sim_uj_per_frame": sum(rep.energy_joules for _, rep in raw)
                / n
                * 1e6,
                "latency_p95_kcycles": float(np.percentile(cycles, 95)) / 1e3,
                "deadline_miss_frac": 0.0,
                **_image_figures(scores),
            },
            counts=counts,
            sim_cycles=sum(cycles),
            density_points=sum(r.trace.density_points for r, _ in raw),
            digest=_digest(cycles, [r.trace for r, _ in raw]),
        )


def _stratified(rng: random.Random, values: Sequence, n: int) -> list:
    """``n`` draws from ``values``: consecutive blocks of ``len(values)``
    draws are seeded permutations of ``values``."""
    out: list = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out[:n]


# ----------------------------------------------------------------------
class ServeCrowd(Workload):
    """Many tenants sharing a few contents on one accelerator under the
    preemptive deadline policy.  The contents are rendered during set-up;
    each pass rebuilds their traces cold and serves every tenant on a
    fresh server, so the scheduler does the work and rendering none."""

    name = "serve_crowd"
    policy = "deadline_preemptive"
    quantum = 2
    #: Arrivals are spread over this many cycles: about two thirds of the
    #: crowd's busy time, so the accelerator stays busy (high load) while
    #: the derived proportional-share deadlines still hold (no overload).
    arrival_span_cycles = 200_000

    def __init__(self, seed: int, smoke: bool, models_dir: str) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.models_dir = models_dir
        tenants, frames, size = (6, 3, 8) if smoke else (48, 8, 16)
        span = self.arrival_span_cycles // (16 if smoke else 1)
        self.contents = default_client_mix(clients=5, frames=frames, size=size)
        # Stratified draws: each run of consecutive arrivals as long as
        # the content list (the class list) watches every content (holds
        # every class) once, in a seeded order, and arrival i falls at a
        # seeded point of the i-th of ``tenants`` equal slots.  Seeds
        # reorder the crowd without bunching one content or class early,
        # which would make the latency tail a lottery.
        watching = _stratified(rng, range(len(self.contents)), tenants)
        classes = _stratified(rng, SLO_CLASSES, tenants)
        self.watching: Dict[str, int] = {}
        self.requests: List[ClientRequest] = []
        for i in range(tenants):
            base = self.contents[watching[i]]
            request = ClientRequest(
                client_id=f"tenant{i:02d}",
                scene=base.scene,
                path=base.path,
                probe_interval=base.probe_interval,
                arrival_cycle=int((i + rng.random()) * span / tenants),
                slo_class=classes[i],
            )
            self.requests.append(request)
            self.watching[request.client_id] = watching[i]
        self.frames_per_pass = tenants * frames
        self.inputs = {
            "tenants": tenants,
            "frames": frames,
            "size": size,
            "watching": [self.watching[r.client_id] for r in self.requests],
            "arrivals": [r.arrival_cycle for r in self.requests],
            "slo_classes": [r.slo_class for r in self.requests],
        }

    def setup(self) -> None:
        wb = self._workbench()
        renders = [wb.client_sequence(request) for request in self.contents]
        self.serialised = [r.trace.to_dict() for r in renders]
        self.images = [[res.image for res in r.results] for r in renders]
        self.accelerator = experiment_accelerator("server")
        self.group_size = wb.group_size()
        self.analytic = wb.dataset(self.contents[0].scene).scene
        # Warm-up: one tenant watching the first content.
        first = self.contents[0]
        self._serve(
            [ClientRequest(client_id="warm", scene=first.scene, path=first.path)],
            [0],
        )

    def references(self) -> None:
        self.content_psnr: List[List[float]] = []
        self.content_problems: List[List[str]] = []
        for c, request in enumerate(self.contents):
            truth = [
                render_analytic(self.analytic, cam, num_samples=REFERENCE_SAMPLES)
                for cam in request.path.cameras()
            ]
            scores, bad = _frame_checks(self.images[c], truth)
            self.content_psnr.append(scores)
            self.content_problems.append([f"content {c} {line}" for line in bad])

    def _serve(self, requests: Sequence[ClientRequest], contents: Sequence[int]):
        traces = [SequenceTrace.from_dict(d) for d in self.serialised]
        server = SequenceServer(self.accelerator, group_size=self.group_size)
        for request, content in zip(requests, contents):
            server.submit(request, traces[content])
        report = server.serve(make_policy(self.policy, quantum=self.quantum))
        return report, traces

    def run_pass(self):
        return self._serve(
            self.requests, [self.watching[r.client_id] for r in self.requests]
        )

    def summarise(self, raw) -> PassResult:
        report, traces = raw
        frames_each = len(self.contents[0].path.cameras())
        submitted = frames_each * len(self.requests)
        problems: List[str] = []
        bad = 0
        if report.busy_cycles != sum(c.service_cycles for c in report.clients):
            problems.append("conservation: busy cycles != summed service cycles")
        if report.total_cycles != report.busy_cycles + report.context_switch_cycles:
            problems.append("conservation: total != busy + context-switch cycles")
        if problems:
            bad = submitted
        for c in report.clients:
            if c.frames + c.aborted_frames != frames_each:
                problems.append(
                    f"{c.client_id}: {c.frames} delivered + {c.aborted_frames} "
                    f"aborted of {frames_each} submitted"
                )
                bad += frames_each
        scores: List[float] = []
        for entry in report.schedule:
            if not entry.delivered:
                continue
            content = self.watching[entry.client]
            scores.append(self.content_psnr[content][entry.frame])
        content_bad = [
            line
            for c in sorted(set(self.watching.values()))
            for line in self.content_problems[c]
        ]
        if content_bad:
            problems += content_bad
            bad = submitted
        delivered = report.total_frames
        misses = sum(
            c.deadline_misses + c.aborted_frames + c.shed_frames
            for c in report.clients
        )
        counts = _zero_counts()
        counts.update(
            {
                "serving.preemptions": sum(c.preemptions for c in report.clients),
                "serving.content_hits": sum(c.cross_replays for c in report.clients),
                "serving.busy_frac": report.busy_cycles / report.makespan_cycles,
            }
        )
        payload = json.dumps(report.to_dict(), sort_keys=True)
        return PassResult(
            submitted=submitted,
            delivered=delivered,
            bad_frames=min(bad, submitted),
            problems=problems,
            modelled={
                "sim_kcycles_per_frame": report.total_cycles / delivered / 1e3,
                "sim_uj_per_frame": report.energy_joules / delivered * 1e6,
                "latency_p95_kcycles": report.latency_percentile(95) / 1e3,
                "deadline_miss_frac": misses / submitted,
                **_image_figures(scores),
            },
            counts=counts,
            sim_cycles=report.busy_cycles,
            density_points=0,
            digest=_digest(
                [entry.cycles for entry in report.schedule],
                [f for t in traces for f in t.frames],
                extra=payload,
            ),
        )


WORKLOADS = {w.name: w for w in (VideoOrbit, StillFrames, ServeCrowd)}
