"""Top-level ASDR accelerator simulator (Section 5.5 dataflow).

The three engines form a pipeline over wavefronts of rays: while the
encoding engine fetches wavefront *k*'s embeddings, the MLP engine runs
wavefront *k-1* and the rendering engine composites *k-2*; a wavefront's
contribution to total latency is therefore the maximum of its three engine
costs.  Phase I (probe rendering + adaptive sampling) and Phase II (full
image) are simulated back to back.

The simulator is *trace-faithful*: :meth:`ASDRAccelerator.simulate_trace`
replays the :class:`~repro.exec.frame_trace.FrameTrace` the renderer
emitted — the exact sample points each ray marched (post early
termination) and the exact per-ray anchor counts — so simulated cycles
reflect what the algorithm actually executed, and no rays, sample points
or voxel corners are re-derived inside the simulator.  The FrameTrace is
the *only* execution path: trace-less render results are rejected
(:meth:`simulate_render`), and consumers that only have a budget map go
through :meth:`simulate_pass`, which synthesises a trace once via the
shared scheduler.

Every simulation entry point executes through the resumable
:class:`~repro.exec.execution.FrameExecution` engine: a frame is a cursor
over budget-group wavefront steps that can be suspended after any step
and resumed bit-identically — :meth:`simulate_trace` simply runs the
cursor to completion, while the multi-tenant serving layer interleaves
many cursors at wavefront granularity (preemption).

Video workloads replay a whole
:class:`~repro.exec.sequence.SequenceTrace` through
:meth:`ASDRAccelerator.simulate_sequence`: pose-replayed frames are priced
at framebuffer scan-out cost, and a cross-frame
:class:`~repro.cim.cache.TemporalVertexCache` lets vertex fetches that hit
the previous frame's working set bypass the memory crossbars, exactly like
register-cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.bus import BusTraffic, bus_cycles
from repro.arch.config import ArchConfig
from repro.arch.encoding_engine import EncodingReport
from repro.arch.energy import AreaPowerModel
from repro.arch.mlp_engine import MLPEngine, MLPReport
from repro.arch.render_engine import RenderEngine, RenderEngineReport
from repro.cim.cache import TemporalVertexCache
from repro.core.approximation import anchor_indices
from repro.errors import SimulationError
from repro.exec.execution import FrameExecution, sequence_executions
from repro.exec.frame_trace import PHASE_PROBE, FrameTrace
from repro.exec.sequence import SequenceTrace
from repro.nerf.hashgrid import HashGridConfig, HashGridEncoder
from repro.nerf.mlp import MLPConfig
from repro.scenes.cameras import Camera


@dataclass
class SimReport:
    """Cycle/energy outcome of simulating one rendered image.

    Attributes:
        name: Configuration label.
        total_cycles: Pipelined end-to-end cycles.
        encoding: Encoding-engine aggregate report.
        mlp: MLP-engine aggregate report.
        render: Rendering-engine aggregate report.
        energy_by_component: Joules per Table 2 component.
        buffer_stall_cycles: Pipeline cycles lost to on-chip buffer
            overflows (0 with the Table 2 capacities at default wavefronts).
        bus_cycles: System-bus cycles for descriptor/RGB traffic (never
            on the critical path; reported for completeness).
    """

    name: str
    clock_hz: float
    total_cycles: int = 0
    encoding: EncodingReport = field(default_factory=EncodingReport)
    mlp: MLPReport = field(default_factory=MLPReport)
    render: RenderEngineReport = field(default_factory=RenderEngineReport)
    energy_by_component: Dict[str, float] = field(default_factory=dict)
    buffer_stall_cycles: int = 0
    bus_cycles: int = 0

    @property
    def time_seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def energy_joules(self) -> float:
        return sum(self.energy_by_component.values())

    @property
    def dynamic_energy_joules(self) -> float:
        """Energy of the compute engines alone (excludes the shared
        buffers/clock/IO overhead charged for wall time) — the quantity
        the Figure 21b energy-saving ablation varies."""
        shared = ("buffers", "system_overhead")
        return sum(
            v for k, v in self.energy_by_component.items() if k not in shared
        )

    @property
    def encoding_seconds(self) -> float:
        return self.encoding.cycles / self.clock_hz

    @property
    def mlp_seconds(self) -> float:
        return self.mlp.cycles / self.clock_hz

    def merge(self, other: "SimReport") -> None:
        self.total_cycles += other.total_cycles
        self.encoding.merge(other.encoding)
        self.mlp.merge(other.mlp)
        self.render.merge(other.render)
        self.buffer_stall_cycles += other.buffer_stall_cycles
        self.bus_cycles += other.bus_cycles
        for key, value in other.energy_by_component.items():
            self.energy_by_component[key] = (
                self.energy_by_component.get(key, 0.0) + value
            )


@dataclass
class SequenceSimReport:
    """Cycle/energy outcome of simulating a rendered sequence.

    Attributes:
        name: Configuration label.
        frames: Per-frame :class:`SimReport` in path order (replayed
            frames carry bus-only reports).
        replayed: Per-frame pose-replay flags.
    """

    name: str
    clock_hz: float
    frames: List[SimReport] = field(default_factory=list)
    replayed: List[bool] = field(default_factory=list)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def total_cycles(self) -> int:
        return sum(f.total_cycles for f in self.frames)

    @property
    def amortised_cycles(self) -> float:
        """Mean cycles per delivered frame — the video headline metric."""
        return self.total_cycles / self.num_frames if self.frames else 0.0

    @property
    def time_seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def energy_joules(self) -> float:
        return sum(f.energy_joules for f in self.frames)

    @property
    def temporal_hits(self) -> int:
        return sum(f.encoding.temporal_hits for f in self.frames)

    @property
    def temporal_hit_rate(self) -> float:
        lookups = sum(f.encoding.lookups for f in self.frames)
        return self.temporal_hits / lookups if lookups else 0.0

    def merged(self) -> SimReport:
        """Aggregate the per-frame reports into one :class:`SimReport`."""
        total = SimReport(name=self.name, clock_hz=self.clock_hz)
        for frame in self.frames:
            total.merge(frame)
        return total


class ASDRAccelerator:
    """Trace-driven simulator of one ASDR design point.

    Args:
        config: Hardware configuration (server/edge/strawman/variants).
        grid: Hash-grid configuration of the accelerated model.
        density_mlp / color_mlp: Decoder network shapes.
    """

    def __init__(
        self,
        config: ArchConfig,
        grid: HashGridConfig,
        density_mlp: MLPConfig,
        color_mlp: MLPConfig,
    ) -> None:
        self.config = config
        self.grid = grid
        self.mlp_engine = MLPEngine(config, density_mlp, color_mlp)
        self.render_engine = RenderEngine(config)
        self._encoder = HashGridEncoder(grid)
        scale = "edge" if "edge" in config.name else "server"
        self.power_model = AreaPowerModel(scale)

    # ------------------------------------------------------------------
    def simulate_trace(
        self,
        trace: FrameTrace,
        group_size: Optional[int] = None,
        color_fraction: Optional[float] = None,
        difficulty_evals: Optional[int] = None,
        rendered_pixels: Optional[int] = None,
        temporal: Optional[TemporalVertexCache] = None,
        wavefront_log: Optional[List[Tuple[Tuple, int]]] = None,
    ) -> SimReport:
        """Replay a :class:`FrameTrace` through the pipeline.

        This is the single execution path behind :meth:`simulate_pass`,
        :meth:`simulate_render` and :meth:`simulate_sequence`: the trace's
        wavefronts are re-chunked to this design's ``wavefront_rays`` and
        each chunk is charged exactly the density/color/interpolated
        points the renderer recorded — early-terminated samples are never
        billed.

        Args:
            trace: The frame's execution trace.
            group_size: Color-decoupling group size to price.  ``None``
                uses the per-ray anchor counts recorded in the trace; an
                explicit value re-derives anchor counts from the recorded
                ``used`` counts (no geometry is recomputed), matching the
                renderer's ``budget > group_size`` gating.  Ignored for
                baseline traces (the fixed-budget pipeline has no
                decoupling hardware path).
            color_fraction: Legacy override — charge
                ``ceil(points * fraction)`` color points per wavefront
                instead of per-ray counts (used by :meth:`simulate_pass`).
            difficulty_evals: Override for the Phase I adaptive-sampling
                unit work; defaults to the trace's recorded count.
            rendered_pixels: Override for the RGB bus traffic; defaults to
                the trace's rays with at least one marched sample.
            temporal: Cross-frame vertex cache (sequence simulation);
                vertex fetches hitting the previous frame's working set
                bypass the memory crossbars.
            wavefront_log: When given, every cycle charge is appended as
                ``(key, cycles)`` — one entry per wavefront slice plus the
                Phase I adaptive-sampling tail — and ``total_cycles`` is
                exactly their sum (the invariant the property tests pin).
        """
        return self.trace_execution(
            trace,
            group_size=group_size,
            color_fraction=color_fraction,
            difficulty_evals=difficulty_evals,
            rendered_pixels=rendered_pixels,
            temporal=temporal,
            wavefront_log=wavefront_log,
        ).finish()

    # ------------------------------------------------------------------
    def trace_execution(self, trace: FrameTrace, **kwargs) -> FrameExecution:
        """A resumable :class:`~repro.exec.execution.FrameExecution` over
        ``trace``, accepting the same keyword overrides as
        :meth:`simulate_trace`.  Running it to completion is exactly
        ``simulate_trace``; stepping it lets a scheduler suspend the frame
        after any wavefront."""
        return FrameExecution(self, trace, **kwargs)

    def _new_report(self) -> SimReport:
        """An empty report for this design point (execution-engine hook)."""
        return SimReport(name=self.config.name, clock_hz=self.config.clock_hz)

    def _effective_color_used(
        self, trace: FrameTrace, group_size: Optional[int]
    ) -> List[np.ndarray]:
        """Per-wavefront color-MLP point counts for a given group size.

        Probe wavefronts always run the full color MLP (Phase I has no
        decoupling); main wavefronts use the recorded anchor counts unless
        an explicit ``group_size`` asks to re-price the trace, in which
        case anchor counts are re-derived from the recorded ``used``
        counts — still no ray/corner recomputation.
        """
        reprice = (
            trace.kind == "asdr"
            and group_size is not None
            and group_size != trace.group_size
        )
        out: List[np.ndarray] = []
        for wf in trace.wavefronts:
            if wf.phase == PHASE_PROBE or not reprice:
                out.append(np.minimum(wf.color_used, wf.used))
            elif group_size > 1 and wf.budget > group_size:
                anchors = anchor_indices(wf.budget, group_size)
                out.append(
                    np.searchsorted(anchors, wf.used, side="left").astype(np.int64)
                )
            else:
                out.append(wf.used)
        return out

    # ------------------------------------------------------------------
    def simulate_pass(
        self,
        camera: Camera,
        budgets: np.ndarray,
        color_fraction: float = 1.0,
        difficulty_evals: int = 0,
    ) -> SimReport:
        """Simulate one rendering pass from a per-ray budget map.

        Args:
            camera: View being rendered.
            budgets: ``(H*W,)`` per-ray sample counts for this pass (0 for
                rays not rendered in the pass).
            color_fraction: Fraction of density points whose color MLP runs
                (1.0 without decoupling; ``~1/n`` with group size ``n``).
            difficulty_evals: Eq. (3) candidate comparisons charged to the
                adaptive sampling unit (Phase I).
        """
        budgets = np.asarray(budgets, dtype=np.int64)
        if budgets.shape[0] != camera.width * camera.height:
            raise SimulationError("budgets length must equal the pixel count")
        if not 0.0 <= color_fraction <= 1.0:
            raise SimulationError("color_fraction must lie in [0, 1]")
        trace = FrameTrace.from_budgets(camera, budgets)
        return self.simulate_trace(
            trace,
            color_fraction=color_fraction,
            difficulty_evals=difficulty_evals,
            rendered_pixels=int((budgets > 0).sum()),
        )

    # ------------------------------------------------------------------
    def simulate_render(
        self,
        camera: Optional[Camera],
        result,
        group_size: int = 1,
    ) -> SimReport:
        """Simulate a completed render (baseline or ASDR).

        Accepts a :class:`~repro.exec.frame_trace.FrameTrace` directly, or
        a :class:`~repro.nerf.renderer.RenderResult` /
        :class:`~repro.core.stats.ASDRRenderResult` — results produced by
        the current renderers carry their trace, which is replayed without
        re-sampling any rays or corners.  ``camera`` is unused and kept
        only for call-site compatibility.

        Raises:
            SimulationError: For trace-less results.  The legacy
                ``(camera, budgets)`` re-derivation path is gone; callers
                holding only a budget map should use :meth:`simulate_pass`
                (which synthesises a trace once through the shared
                scheduler) or re-render with a current renderer.
        """
        del camera  # the trace carries everything the pipeline replays
        if isinstance(result, FrameTrace):
            return self.simulate_trace(result, group_size=group_size)
        trace = getattr(result, "trace", None)
        if trace is None:
            raise SimulationError(
                "simulate_render requires a FrameTrace-carrying result; the "
                "legacy (camera, budgets) re-derivation path was retired. "
                "Re-render with a current renderer, or synthesise a trace "
                "explicitly via FrameTrace.from_budgets / simulate_pass."
            )
        return self.simulate_trace(trace, group_size=group_size)

    # ------------------------------------------------------------------
    def simulate_sequence(
        self,
        sequence: SequenceTrace,
        group_size: Optional[int] = None,
        temporal: bool = True,
        temporal_capacity: Optional[int] = None,
    ) -> "SequenceSimReport":
        """Replay a :class:`~repro.exec.sequence.SequenceTrace`.

        Frames are simulated in path order with two inter-frame levers the
        per-frame path does not have:

        * frames recorded as pose replays never touch the engines — the
          framebuffer already holds their pixels, so they are priced at
          RGB scan-out (bus) cost only;
        * a :class:`~repro.cim.cache.TemporalVertexCache` carries each
          frame's vertex working set to the next: fetches that hit it skip
          the memory crossbars (reduced encoding cycles and crossbar
          energy, modelled like the register cache).

        Args:
            sequence: The rendered sequence's trace.
            group_size: As for :meth:`simulate_trace`, applied per frame.
            temporal: Disable to price frames fully independently (the
                comparison baseline the video experiment reports).
            temporal_capacity: Per-level entry bound of the temporal
                cache (``None`` = unbounded).
        """
        if not isinstance(sequence, SequenceTrace):
            raise SimulationError(
                "simulate_sequence expects a SequenceTrace, got "
                f"{type(sequence).__name__}"
            )
        cache = TemporalVertexCache(temporal_capacity) if temporal else None
        # A thin loop over the resumable execution engine: one cursor per
        # frame, each run to completion before the next frame's lookups
        # (the temporal cache commits at every finish()).
        frames: List[SimReport] = [
            ex.finish()
            for ex in sequence_executions(
                self, sequence, group_size=group_size, temporal=cache
            )
        ]
        return SequenceSimReport(
            name=self.config.name,
            clock_hz=self.config.clock_hz,
            frames=frames,
            replayed=[j is not None for j in sequence.replays],
        )

    # ------------------------------------------------------------------
    def frame_execution(
        self,
        sequence: SequenceTrace,
        frame: int,
        group_size: Optional[int] = None,
        temporal: Optional[TemporalVertexCache] = None,
        wavefront_log: Optional[List[Tuple[Tuple, int]]] = None,
        recorder=None,
    ) -> FrameExecution:
        """A resumable execution cursor over one sequence frame.

        Frames recorded as pose replays come back in scan-out mode (a
        single step pricing the framebuffer read-out); fresh frames
        memoise derived streams on their own trace and — when
        ``temporal`` is given — commit the cache at
        :meth:`~repro.exec.execution.FrameExecution.finish`, tagged with
        the frame index so the cache's resident token (which keys cached
        plans) names the resident set their hit masks were computed
        against.
        ``recorder`` (a :class:`~repro.obs.recorder.Recorder`) attaches
        observer-only telemetry; it never affects the cycles priced.
        """
        if not 0 <= frame < sequence.num_frames:
            raise SimulationError(
                f"frame {frame} out of range for a "
                f"{sequence.num_frames}-frame sequence"
            )
        trace = sequence.frames[frame]
        if sequence.replays[frame] is not None:
            return FrameExecution(self, trace, scanout=True, recorder=recorder)
        return FrameExecution(
            self,
            trace,
            group_size=group_size,
            temporal=temporal,
            wavefront_log=wavefront_log,
            commit_tag=frame,
            recorder=recorder,
        )

    def simulate_scanout(self, trace: FrameTrace) -> SimReport:
        """Price a frame whose pixels already exist: no engine work, only
        the RGB scan-out of the (already rendered) frame over the system
        bus.  Used for pose-replayed frames within a sequence and for
        cross-client content hits in the serving layer."""
        report = SimReport(name=self.config.name, clock_hz=self.config.clock_hz)
        report.bus_cycles = bus_cycles(BusTraffic(pixels=trace.rendered_pixels))
        report.total_cycles = report.bus_cycles
        self._charge_energy(report)
        return report

    # ------------------------------------------------------------------
    def _charge_energy(self, report: SimReport) -> None:
        clock = self.config.clock_hz
        busy = {
            "encoding": report.encoding.cycles / clock,
            "mlp": report.mlp.cycles / clock,
            "render": report.render.cycles / clock,
            # The two MLP sub-engines are busy for their own pipelines —
            # color decoupling idles the color arrays even when the density
            # pipeline sets the engine's latency.
            "density_subengine": report.mlp.density_cycles / clock,
            "color_subengine": report.mlp.color_cycles / clock,
        }
        report.energy_by_component = self.power_model.energy_j(
            busy, report.time_seconds
        )
