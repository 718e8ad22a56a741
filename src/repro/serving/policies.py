"""Scheduling policies for the multi-tenant sequence server.

A policy picks, at every scheduling decision, which client's *next frame*
gets the accelerator.  The candidate set contains one
:class:`PendingFrame` per ready client (a client's frames execute in path
order — the temporal vertex cache and sampling-plan reuse both depend on
it), and the policy returns an index into that list.

Policies come in two families:

* **Non-preemptive** (``preemptive = False``): a selected frame runs to
  completion before the next decision.  :class:`FIFOPolicy` serves
  requests to completion in arrival order (= back-to-back with
  simultaneous arrivals, the fairness baseline);
  :class:`RoundRobinPolicy` is least-served-first fair share over
  delivered frames; :class:`DeadlineAwarePolicy` is earliest-slack-first
  against per-frame deadlines.
* **Preemptive** (``preemptive = True``): a selected frame runs for at
  most ``quantum`` wavefront steps, then the decision is re-taken — the
  in-flight frame can be suspended (its
  :class:`~repro.exec.execution.FrameExecution` cursor keeps its engine
  state) while another client's wavefronts run.
  :class:`PreemptiveRoundRobinPolicy` equalises *service cycles* rather
  than frame counts — the natural fair share once frames stop being
  atomic; :class:`PreemptiveDeadlinePolicy` re-evaluates slack every
  quantum against the *remaining* cost estimate, so an expensive Phase I
  probe no longer blocks a cheap replay frame for its whole duration:
  the replay slots in at the next quantum boundary, which is exactly the
  p95 win ``benchmarks/test_preemptive_serving.py`` pins.

Every earliest-slack-first variant breaks slack ties deterministically by
client id (stable lexicographic order), so two frames with identical
slack always schedule in the same order regardless of submission history.

Policies are pricing-agnostic: a quantum of ``N`` wavefront steps costs
the same cycles whether the steps are priced slice by slice or replayed
from a precomputed :class:`~repro.exec.batch.FramePlan` (bit-identical
by contract — see
``docs/architecture.md#frame-pricing-one-engine``), so scheduling
decisions, preemption points and fairness metrics do not depend on how
pricing is computed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.exec.scheduler import FrameWorkItem
from repro.serving.slo import AUTO_QUANTUM, DEFAULT_SLO_CLASS, weighted_slack

#: Non-preemptive policy names (frames are atomic).
POLICY_NAMES = ("fifo", "round_robin", "deadline")

#: Quantum-based preemptive policy names (wavefront-granularity).
PREEMPTIVE_POLICY_NAMES = ("round_robin_preemptive", "deadline_preemptive")

#: Every policy name accepted by :func:`make_policy` (and ``repro serve``).
ALL_POLICY_NAMES = POLICY_NAMES + PREEMPTIVE_POLICY_NAMES

#: Policies with a slack computation (accept ``best_effort_slack``).
DEADLINE_POLICY_NAMES = ("deadline", "deadline_preemptive")

#: Default preemption quantum, in wavefront steps.  Small enough that a
#: cheap frame waits at most a few wavefronts behind an expensive probe,
#: large enough that scheduling decisions stay rare next to real work.
DEFAULT_QUANTUM = 4


def _validate_quantum(quantum: Union[int, str]) -> Union[int, str]:
    """A preemption quantum is a positive step count or ``"auto"``."""
    if quantum == AUTO_QUANTUM:
        return quantum
    if not isinstance(quantum, int) or quantum < 1:
        raise ConfigurationError(
            f"quantum must be >= 1 wavefront step or {AUTO_QUANTUM!r}"
        )
    return quantum


@dataclass(frozen=True)
class PendingFrame:
    """One ready client's next frame, as the policies see it.

    Attributes:
        item: The frame work item (mode + cost hint + runtime state).
        order: Submission order of the client (a deterministic tie-break).
        arrival_cycle: When the client's request arrived.
        completed: Frames already delivered to this client.
        total_frames: Frames in the client's sequence.
        est_cycles: Server-calibrated estimate of the cycles this frame
            still needs (scan-out cost for replays/content hits; the
            learned cycles-per-point model otherwise — for an in-flight
            frame this is the *remaining* work, not the full frame).
        deadline_cycle: Cycle this frame is due (``None`` = best effort).
        started: True when the frame is in flight (suspended mid-frame).
        client_service_cycles: Accelerator cycles the client has received
            so far, delivered and in-flight — what preemptive fair share
            equalises.
        slo_class: The owning request's service class; the deadline
            policies weight slack by it (see
            :func:`~repro.serving.slo.weighted_slack`) and the server
            sheds ``batch``-class frames first under overload.
    """

    item: FrameWorkItem
    order: int
    arrival_cycle: int
    completed: int
    total_frames: int
    est_cycles: float
    deadline_cycle: Optional[float] = None
    started: bool = False
    client_service_cycles: int = 0
    slo_class: str = DEFAULT_SLO_CLASS


class SchedulingPolicy(ABC):
    """Picks the next frame to run from the ready clients' head frames.

    Attributes:
        preemptive: When True the server runs the selected frame for at
            most :attr:`quantum` wavefront steps before the next
            decision; when False the frame runs to completion.
        quantum: Preemption quantum in wavefront steps (ignored for
            non-preemptive policies), or the string ``"auto"`` to let the
            server size each quantum from the measured cycles-per-step
            distribution (:class:`~repro.serving.slo.QuantumAutoTuner`).
    """

    name: str = "abstract"
    preemptive: bool = False
    quantum: Optional[Union[int, str]] = None

    @abstractmethod
    def select(self, pending: Sequence[PendingFrame], clock: int) -> int:
        """Index (into ``pending``) of the frame to execute next.

        Args:
            pending: One entry per ready client, in submission order.
            clock: Current accelerator cycle.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FIFOPolicy(SchedulingPolicy):
    """Arrival order, each request served to completion (back-to-back)."""

    name = "fifo"

    def select(self, pending: Sequence[PendingFrame], clock: int) -> int:
        return min(
            range(len(pending)),
            key=lambda i: (pending[i].arrival_cycle, pending[i].order),
        )


class RoundRobinPolicy(SchedulingPolicy):
    """Least-served-first fair share over delivered frames."""

    name = "round_robin"

    def select(self, pending: Sequence[PendingFrame], clock: int) -> int:
        return min(
            range(len(pending)),
            key=lambda i: (
                pending[i].completed,
                pending[i].arrival_cycle,
                pending[i].order,
            ),
        )


class DeadlineAwarePolicy(SchedulingPolicy):
    """Earliest slack first; cheap (replay / plan-reuse) frames wait.

    Slack is ``deadline - clock - est_cycles``, weighted by the frame's
    SLO class (:func:`~repro.serving.slo.weighted_slack` — the default
    ``standard`` class is the identity): a frame that is cheap to
    produce keeps most of its window as slack, so expensive probes with
    the same deadline preempt it, and an ``interactive`` frame outranks a
    ``batch`` frame with the same raw slack.  Frames with no deadline run
    only when every deadlined frame has more slack than
    :attr:`best_effort_slack`.  Equal slacks break deterministically by
    client id.
    """

    name = "deadline"

    def __init__(self, best_effort_slack: float = float("inf")) -> None:
        self.best_effort_slack = best_effort_slack

    def _slack(self, p: PendingFrame, clock: int) -> float:
        if p.deadline_cycle is None:
            return self.best_effort_slack
        return weighted_slack(
            p.deadline_cycle - clock - p.est_cycles, p.slo_class
        )

    def select(self, pending: Sequence[PendingFrame], clock: int) -> int:
        return min(
            range(len(pending)),
            key=lambda i: (self._slack(pending[i], clock), pending[i].item.client),
        )


class PreemptiveRoundRobinPolicy(SchedulingPolicy):
    """Quantum-based fair share over *service cycles*.

    Every decision hands the next quantum to the ready client that has
    received the fewest accelerator cycles so far (delivered plus
    in-flight), so an expensive probe frame advances a few wavefronts at
    a time while cheaper tenants' frames keep flowing between quanta.
    Ties break by delivered frames, then arrival, then client id.
    """

    name = "round_robin_preemptive"
    preemptive = True

    def __init__(self, quantum: Union[int, str] = DEFAULT_QUANTUM) -> None:
        self.quantum = _validate_quantum(quantum)

    def select(self, pending: Sequence[PendingFrame], clock: int) -> int:
        return min(
            range(len(pending)),
            key=lambda i: (
                pending[i].client_service_cycles,
                pending[i].completed,
                pending[i].arrival_cycle,
                pending[i].item.client,
            ),
        )


class PreemptiveDeadlinePolicy(DeadlineAwarePolicy):
    """Earliest-slack-first, re-evaluated every quantum.

    Identical slack arithmetic to :class:`DeadlineAwarePolicy`, but the
    server re-runs the decision after every ``quantum`` wavefront steps
    with ``est_cycles`` tracking the in-flight frame's *remaining* work:
    a frame whose deadline approaches rises to the front mid-way through
    another client's expensive frame instead of queueing behind it.
    Equal slacks break deterministically by client id.
    """

    name = "deadline_preemptive"
    preemptive = True

    def __init__(
        self,
        quantum: Union[int, str] = DEFAULT_QUANTUM,
        best_effort_slack: float = float("inf"),
    ) -> None:
        super().__init__(best_effort_slack=best_effort_slack)
        self.quantum = _validate_quantum(quantum)


def make_policy(
    name: str,
    quantum: Optional[Union[int, str]] = None,
    best_effort_slack: Optional[float] = None,
) -> SchedulingPolicy:
    """Build a policy by name (one of :data:`ALL_POLICY_NAMES`).

    Args:
        name: Policy name.
        quantum: Preemption quantum in wavefront steps for the preemptive
            policies (``None`` = :data:`DEFAULT_QUANTUM`), or ``"auto"``
            for measured-latency sizing; rejected for non-preemptive
            policies, whose frames are atomic.
        best_effort_slack: Slack assigned to deadline-less frames by the
            deadline-aware policies (``None`` keeps the default of
            ``inf``, i.e. best-effort frames always yield to deadlined
            ones); rejected for the other policies, which never look at
            slack.
    """
    factories = {
        "fifo": FIFOPolicy,
        "round_robin": RoundRobinPolicy,
        "deadline": DeadlineAwarePolicy,
        "round_robin_preemptive": PreemptiveRoundRobinPolicy,
        "deadline_preemptive": PreemptiveDeadlinePolicy,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduling policy {name!r}; choose from {ALL_POLICY_NAMES}"
        ) from None
    kwargs = {}
    if quantum is not None:
        if name not in PREEMPTIVE_POLICY_NAMES:
            raise ConfigurationError(
                f"policy {name!r} is non-preemptive; quantum does not apply"
            )
        kwargs["quantum"] = quantum
    if best_effort_slack is not None:
        if name not in DEADLINE_POLICY_NAMES:
            raise ConfigurationError(
                f"policy {name!r} has no slack computation; "
                "best_effort_slack does not apply"
            )
        kwargs["best_effort_slack"] = best_effort_slack
    return factory(**kwargs)
