"""Pluggable telemetry recorders and the zero-perturbation contract.

A :class:`Recorder` receives :class:`~repro.obs.events.Event`\\ s from the
instrumented layers.  The contract every emit site honours:

1. **Observers never touch cycle accounting.**  An emit site may read
   values the simulation already computed (a charge, a report field, a
   cache counter) but may never compute, round, cache or mutate anything
   the un-instrumented path would not.  Telemetry-on and telemetry-off
   runs therefore produce bit-identical ``ServeReport``/``ClusterReport``
   dicts — pinned by ``tests/test_obs.py`` the same way production
   pricing is pinned to the per-slice reference.
2. **Zero extra work when disabled.**  The default recorder is
   :data:`NULL_RECORDER`, whose ``enabled`` flag is ``False``; hot loops
   hoist the check (``rec = recorder if recorder.enabled else None``) so
   the disabled path costs one attribute read per loop, not per event.
3. **Emission is fire-and-forget.**  Recorders must not raise out of
   ``emit`` paths in normal operation; a recorder that buffers
   (:class:`MemoryRecorder`) owns its memory.

Use :class:`ScopedRecorder` to fan one sink out to several sources with
constant labels attached — the cluster wraps its recorder once per shard
so every shard-local event arrives tagged ``shard=<name>`` without the
single-box server knowing it lives in a fleet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.obs.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


class Recorder:
    """Base recorder: the emit interface instrumented layers call.

    Attributes:
        enabled: Emit sites skip all event assembly when ``False``.  The
            flag is class-level and constant per recorder type so hot
            loops can hoist the check out of the loop body.
    """

    enabled: bool = True

    def emit(self, kind: str, clock: int, **fields) -> None:
        """Record one observation.  Subclasses override."""
        raise NotImplementedError


class NullRecorder(Recorder):
    """The default: telemetry off, every hook short-circuits.

    ``emit`` is still safe to call (a no-op) so call sites that did not
    hoist the ``enabled`` check stay correct, just not free.
    """

    enabled = False

    def emit(self, kind: str, clock: int, **fields) -> None:  # noqa: D102
        pass


#: Shared default instance — recorders are stateless when disabled, so
#: every un-instrumented server can hold the same one.
NULL_RECORDER = NullRecorder()


class MemoryRecorder(Recorder):
    """Buffers events in order; optionally feeds a metrics registry.

    Args:
        metrics: A :class:`~repro.obs.metrics.MetricsRegistry` updated on
            every emit (event counters by kind plus a few derived
            aggregates).  ``None`` records events only.
    """

    def __init__(self, metrics: Optional["MetricsRegistry"] = None) -> None:
        self.events: List[Event] = []
        self.metrics = metrics

    def emit(self, kind: str, clock: int, **fields) -> None:
        self.events.append(Event(kind=kind, clock=int(clock), fields=fields))
        if self.metrics is not None:
            self.metrics.observe_event(kind, fields)

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()


class ScopedRecorder(Recorder):
    """Forward to another recorder with constant labels merged in.

    The wrapper inherits the target's ``enabled`` state at construction
    (recorders never flip at runtime), so a scope over the null recorder
    is itself free.  Scope labels lose to event fields on collision —
    an event that names its own ``shard`` knows better than the wrapper.
    """

    def __init__(self, target: Recorder, **scope) -> None:
        self._target = target
        self._scope = scope
        self.enabled = target.enabled

    def emit(self, kind: str, clock: int, **fields) -> None:
        if not self.enabled:
            return
        merged = dict(self._scope)
        merged.update(fields)
        self._target.emit(kind, clock, **merged)
