"""SLO classes and overload control for the multi-tenant serving layer.

Every :class:`~repro.serving.request.ClientRequest` carries an
``slo_class`` — ``interactive``, ``standard`` or ``batch`` — that shapes
how the server treats the client when demand exceeds capacity:

* **Deadline multipliers** (:data:`SLO_DEADLINE_MULTIPLIER`) scale the
  proportional-share cadence the server derives when a request has no
  explicit ``frame_interval_cycles``: interactive clients get tighter
  deadlines than their fair share, batch clients far looser ones.
* **Priority weights** (:data:`SLO_PRIORITY_WEIGHT`) feed the slack
  computation of the deadline-aware policies: a frame's slack is divided
  by its class weight (multiplied when negative), so an interactive frame
  with the same raw slack as a batch frame always looks more urgent.
  The ``standard`` weight is 1.0, so class-less workloads price exactly
  as before.
* **Overload responses** (:class:`SLOConfig`): admission control caps the
  projected backlog at submit time (:class:`AdmissionError`), load
  shedding drops ``batch``-class frames first once a deadlined frame's
  slack goes negative, and degraded-quality mode serves non-keyframe
  frames at a reduced sampling budget — guarded by a per-frame PSNR
  floor so quality never silently falls below the configured bar.
  When the experiment layer supplies temporal-reprojection skip masks,
  a degraded frame *prefers* warping its converged rays from the
  previous delivered frame (scan-out cost only) over cutting budgets.
* **Quantum auto-tuning** (:class:`QuantumAutoTuner`, policy quantum
  ``"auto"``): bounds head-of-line blocking by sizing the preemption
  quantum from the measured cycles-per-step distribution, targeting a
  fixed p95 per-quantum latency instead of a fixed step count.

Everything here is deterministic arithmetic on values the serving loop
computes anyway, so reports stay bit-identical across engines and with
telemetry on or off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: Recognised SLO classes, strictest first.
SLO_CLASSES = ("interactive", "standard", "batch")

#: Default class when a request does not say (pre-SLO behaviour).
DEFAULT_SLO_CLASS = "standard"

#: Per-class multiplier applied to the *derived* proportional-share
#: deadline cadence (explicit ``frame_interval_cycles`` always wins).
#: ``standard`` is 1.0 so class-less requests keep their old deadlines.
SLO_DEADLINE_MULTIPLIER: Dict[str, float] = {
    "interactive": 0.5,
    "standard": 1.0,
    "batch": 4.0,
}

#: Per-class priority weight scaling slack in the deadline policies:
#: positive slack divides by the weight, negative slack multiplies, so a
#: higher weight is more urgent on both sides of the deadline.
SLO_PRIORITY_WEIGHT: Dict[str, float] = {
    "interactive": 4.0,
    "standard": 1.0,
    "batch": 0.25,
}

#: Extra deadline interval(s) granted to keyframes (planned frames).  A
#: cadence SLO paces the steady plan-reuse stream; a keyframe pays a
#: Phase I plan pass on top of rendering, a one-off cost no steady-pace
#: cadence can absorb, so its deadline slips by this many intervals.
KEYFRAME_GRACE_INTERVALS = 1

#: Shedding victim order under overload, first shed first.
SLO_SHED_ORDER = ("batch",)

#: Sentinel quantum value selecting :class:`QuantumAutoTuner` sizing.
AUTO_QUANTUM = "auto"


class AdmissionError(ConfigurationError):
    """A submission was rejected by admission control: the projected
    backlog (existing clients' estimated fresh cycles plus the new
    request's) exceeds the configured :attr:`SLOConfig.admit_cycles`."""


def weighted_slack(slack: float, slo_class: str) -> float:
    """Class-weighted urgency transform of a raw slack value.

    Positive slack shrinks by the class weight, negative slack grows by
    it — both monotone, so ordering *within* one class is untouched and
    the ``standard`` weight of 1.0 is the identity.

    Example:
        >>> weighted_slack(100.0, "interactive")
        25.0
        >>> weighted_slack(-100.0, "interactive")
        -400.0
        >>> weighted_slack(100.0, "standard")
        100.0
    """
    weight = SLO_PRIORITY_WEIGHT.get(slo_class, 1.0)
    return slack / weight if slack >= 0 else slack * weight


@dataclass(frozen=True)
class SLOConfig:
    """Overload-control switches for one :class:`~repro.serving.server.
    SequenceServer` (forwarded to every shard by the cluster layer).

    Attributes:
        admit_cycles: Admission-control cap on the projected backlog, in
            estimated cycles (:class:`~repro.serving.server.
            WavefrontCostModel` estimates over each admitted window).  A
            submission that would push the projection past the cap raises
            :class:`AdmissionError`.  ``None`` = admit everything.
        shed: Shed ``batch``-class frames (cheapest-first classes in
            :data:`SLO_SHED_ORDER`) while some deadlined frame's slack is
            negative.  Shed frames are never executed; they count against
            the owning client's SLO attainment.
        degrade: Serve non-keyframe (plan-reuse) frames at a reduced
            sampling budget while overloaded, trading PSNR for cycles.
        degrade_fraction: Per-ray sample-budget fraction kept by a
            degraded frame (each marched ray keeps at least one sample).
        degrade_min_psnr: PSNR guard in dB: a frame whose measured
            degraded PSNR (see ``degrade_psnr``) would fall below this
            floor is served at full quality instead.  ``None`` = no
            floor.
        degrade_psnr: Optional measured degraded-vs-full PSNR per
            ``(client_id, frame)`` — supplied by the experiment layer,
            which holds the rendered images; recorded on every degraded
            frame's report entry and ``degrade`` event.
        reproject_masks: Optional per-``(client_id, frame)`` boolean skip
            masks (``(num_pixels,)``, True = converged ray warped from
            the previous delivered frame).  When present, the degrade
            path *prefers* temporal reprojection over budget cuts: an
            overloaded plan-reuse frame with a mask executes
            :meth:`~repro.exec.frame_trace.FrameTrace.with_reprojection`
            instead of a capped-budget trace.  Masks come from the
            experiment layer's camera geometry (see
            :mod:`repro.core.reprojection`) — no model evaluation.
        reproject_psnr: Optional measured warp-guard PSNR per
            ``(client_id, frame)``; frames whose guard PSNR would fall
            below ``degrade_min_psnr`` fall back to the budget-cut path,
            mirroring the renderer's own fallback.
    """

    admit_cycles: Optional[int] = None
    shed: bool = False
    degrade: bool = False
    degrade_fraction: float = 0.5
    degrade_min_psnr: Optional[float] = None
    degrade_psnr: Optional[Mapping[Tuple[str, int], float]] = None
    reproject_masks: Optional[Mapping[Tuple[str, int], object]] = None
    reproject_psnr: Optional[Mapping[Tuple[str, int], float]] = None

    def __post_init__(self) -> None:
        if self.admit_cycles is not None and self.admit_cycles <= 0:
            raise ConfigurationError("admit_cycles must be positive")
        if not 0.0 < self.degrade_fraction < 1.0:
            raise ConfigurationError(
                "degrade_fraction must be in (0, 1) — 1.0 is full quality"
            )
        if self.reproject_masks is not None and not self.degrade:
            raise ConfigurationError(
                "reproject_masks require degrade=True — reprojection is "
                "an overload response, not a steady-state mode"
            )

    @property
    def active(self) -> bool:
        """Whether any in-loop overload response is enabled."""
        return self.shed or self.degrade


class QuantumAutoTuner:
    """Preemption-quantum sizing from the measured cycles-per-step
    distribution (policy quantum ``"auto"``).

    A fixed step-count quantum has a fixed *step* budget but an unbounded
    *cycle* budget: one expensive Phase I wavefront can hold the engines
    for far longer than the scheduler intended, which is exactly the
    head-of-line blocking preemption exists to bound.  The tuner instead
    targets a fixed per-quantum latency: the first quantum runs
    ``initial_steps`` steps and freezes ``target_cycles`` at
    ``initial_steps * p95_step_cycles``; every later quantum is sized to
    ``target_cycles / p95_step_cycles`` over a sliding window of measured
    per-step charges, clamped to ``[1, max_steps]``.  When steps get
    expensive the quantum shrinks toward single-step preemption; when
    they are cheap it grows, keeping decision overhead rare.

    Purely deterministic: fed only the ``(cycles, steps)`` pairs the
    serving loop charges anyway, which are bit-identical per step
    whether priced by production or by the per-slice reference.

    Example:
        >>> tuner = QuantumAutoTuner(initial_steps=4)
        >>> tuner.observe(400, 4)   # 100 cycles/step -> target 400
        False
        >>> tuner.quantum
        4
        >>> tuner.observe(1600, 4)  # steps now 400 cycles -> shrink
        True
        >>> tuner.quantum
        1
    """

    def __init__(
        self,
        initial_steps: int = 4,
        max_steps: int = 16,
        window: int = 64,
    ) -> None:
        if initial_steps < 1:
            raise ConfigurationError("initial_steps must be >= 1")
        if max_steps < initial_steps:
            raise ConfigurationError("max_steps must be >= initial_steps")
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.initial_steps = initial_steps
        self.max_steps = max_steps
        self.window = window
        self.quantum = initial_steps
        self.target_cycles: Optional[float] = None
        self._samples: List[float] = []

    @property
    def p95_step_cycles(self) -> float:
        """p95 of the windowed per-step cycle charges (0.0 uncalibrated)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]

    def observe(self, cycles: int, steps: int) -> bool:
        """Feed one executed quantum; returns True when the quantum
        changed (the server emits a ``quantum_tune`` event on True)."""
        if steps <= 0:
            return False
        self._samples.append(cycles / steps)
        if len(self._samples) > self.window:
            del self._samples[0]
        p95 = self.p95_step_cycles
        if self.target_cycles is None:
            self.target_cycles = p95 * self.initial_steps
        if p95 <= 0:
            new_quantum = self.max_steps
        else:
            new_quantum = max(
                1, min(self.max_steps, int(self.target_cycles // p95))
            )
        changed = new_quantum != self.quantum
        self.quantum = new_quantum
        return changed
