"""Zero-perturbation observability for the simulator's serving stack.

``repro.obs`` watches the execution engine, the serving event loop and
the cluster routing layer without ever touching what they compute: every
hook is observer-only (events carry values the instrumented code
computed anyway), a disabled recorder costs one pointer comparison per
site, and reports are **bit-identical** with telemetry on or off — the
invariant is test-pinned next to production-vs-reference pricing in
``tests/test_obs.py``.

Layers:

* :mod:`~repro.obs.events` — the typed event vocabulary and the
  ``obs_events/v1`` record shape;
* :mod:`~repro.obs.recorder` — the pluggable sink contract
  (:class:`~repro.obs.recorder.NullRecorder` default,
  :class:`~repro.obs.recorder.MemoryRecorder` capture,
  :class:`~repro.obs.recorder.ScopedRecorder` label-scoping);
* :mod:`~repro.obs.metrics` — counters/gauges/histograms folded from
  the stream;
* :mod:`~repro.obs.export` — JSONL logs and Perfetto-loadable Chrome
  trace JSON;
* :mod:`~repro.obs.timeline` — the terminal dashboard;
* :mod:`~repro.obs.schemas` — the one validator every machine-readable
  artefact goes through.

``repro.obs.bench`` (the ``repro bench run-all`` harness) is
deliberately *not* imported here — it pulls in the experiment stack;
the CLI imports it lazily.
"""

from repro.obs.events import EVENT_KINDS, OBS_EVENTS_SCHEMA, Event
from repro.obs.export import (
    chrome_trace,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    NULL_RECORDER,
    MemoryRecorder,
    NullRecorder,
    Recorder,
    ScopedRecorder,
)
from repro.obs.schemas import validate_file, validate_payload
from repro.obs.timeline import render_dashboard, render_timeline, split_runs

__all__ = [
    "EVENT_KINDS",
    "OBS_EVENTS_SCHEMA",
    "Event",
    "MetricsRegistry",
    "NULL_RECORDER",
    "MemoryRecorder",
    "NullRecorder",
    "Recorder",
    "ScopedRecorder",
    "chrome_trace",
    "read_events_jsonl",
    "render_dashboard",
    "render_timeline",
    "split_runs",
    "validate_file",
    "validate_payload",
    "write_chrome_trace",
    "write_events_jsonl",
]
