"""Profiling instrumentation for the serving loop (``repro serve --profile``).

The batched wavefront engine exists because profiling said so: the PGO
discipline is *measure first, optimise the proven-hot paths, keep the
measurement around*.  :func:`profile_serve` wraps any serving callable in
:mod:`cProfile` and reduces the raw stats to the two artefacts the
engine's before/after claims are stated in:

* a **hot-function table** (top functions by internal time), so a
  regression shows up as a named function climbing the table rather than
  as an anonymous wall-clock delta; and
* a **per-phase attribution** — encoding / mlp / render / bookkeeping —
  mapping every profiled function to the accelerator stage it prices, by
  module.  "Bookkeeping" is everything that is not engine pricing:
  scheduling decisions, report assembly, cache partition management and
  the event loop itself.  A healthy run is bookkeeping-light and
  encoding-heavy.

The profiler deliberately has no opinion about *what* to run: callers
pass a zero-argument callable (the CLI passes the fully-configured
``serve_reports`` invocation with traces pre-rendered, so the profile
covers serving, not rendering).
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T")

#: Phase attribution by module-path fragment, first match wins.  The
#: encoding phase spans the encoding engine itself plus the CIM layers it
#: prices (address generation, register/temporal caches, memory-crossbar
#: conflicts) and the batched planner that fuses them.
_PHASE_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("repro/arch/encoding_engine", "encoding"),
    ("repro/cim/", "encoding"),
    ("repro/exec/batch", "encoding"),
    ("repro/nerf/hashgrid", "encoding"),
    ("repro/exec/frame_trace", "encoding"),
    ("repro/arch/mlp_engine", "mlp"),
    ("repro/arch/render_engine", "render"),
)

PHASES: Tuple[str, ...] = ("encoding", "mlp", "render", "bookkeeping")


def _phase_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, phase in _PHASE_PATTERNS:
        if fragment in path:
            return phase
    return "bookkeeping"


@dataclass
class HotFunction:
    """One row of the hot-function table."""

    location: str  #: ``file:line(function)`` as pstats prints it
    calls: int
    tottime: float  #: internal time, the ranking key
    cumtime: float
    phase: str


@dataclass
class ServeProfile:
    """Reduced profile of one serving run.

    Attributes:
        total_seconds: Wall-clock of the profiled callable.
        phase_seconds: Internal (non-child) seconds attributed per phase;
            the values sum to approximately ``total_seconds`` (profiler
            overhead accounts for the gap).
        hot_functions: Top functions by internal time, descending.
    """

    total_seconds: float
    phase_seconds: Dict[str, float]
    hot_functions: List[HotFunction]

    def format_report(self) -> str:
        """The human-readable ``--profile`` block: phase attribution
        first (the summary a regression hunt starts from), then the
        hot-function table."""
        lines = [f"-- serve profile: {self.total_seconds:.3f}s total --"]
        for phase in PHASES:
            seconds = self.phase_seconds.get(phase, 0.0)
            share = seconds / self.total_seconds if self.total_seconds else 0.0
            lines.append(f"{phase:>12}: {seconds:7.3f}s ({100.0 * share:5.1f}%)")
        lines.append("")
        lines.append(
            f"{'tottime':>9} {'cumtime':>9} {'calls':>8}  "
            f"{'phase':<12} function"
        )
        for fn in self.hot_functions:
            lines.append(
                f"{fn.tottime:9.3f} {fn.cumtime:9.3f} {fn.calls:8d}  "
                f"{fn.phase:<12} {fn.location}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serialisable form (``repro serve --profile-json PATH``).

        Round-trips through :meth:`from_dict`, so a committed profile
        snapshot can be reloaded and re-rendered with
        :meth:`format_report`.
        """
        return {
            "schema": "serve_profile/v1",
            "total_seconds": self.total_seconds,
            "phase_seconds": {
                phase: self.phase_seconds.get(phase, 0.0) for phase in PHASES
            },
            "hot_functions": [
                {
                    "location": fn.location,
                    "calls": fn.calls,
                    "tottime": fn.tottime,
                    "cumtime": fn.cumtime,
                    "phase": fn.phase,
                }
                for fn in self.hot_functions
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ServeProfile":
        """Rebuild a profile from :meth:`to_dict` output."""
        return cls(
            total_seconds=data["total_seconds"],
            phase_seconds=dict(data["phase_seconds"]),
            hot_functions=[
                HotFunction(**row) for row in data["hot_functions"]
            ],
        )


def profile_serve(
    fn: Callable[[], T], top: int = 15
) -> Tuple[T, ServeProfile]:
    """Run ``fn`` under cProfile; return its result and the reduced profile.

    Args:
        fn: Zero-argument serving callable.  Pre-render the client
            sequences before calling so the profile attributes serving
            work, not scene rendering.
        top: Hot-function rows to keep.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    stat_items = stats.stats  # type: ignore[attr-defined]
    # Library code — numpy C built-ins, numpy/stdlib Python wrappers —
    # carries no phase of its own: its time belongs to whichever repro
    # module asked for it (`np.unique` issued by the batched planner is
    # encoding work, the same call from report assembly is bookkeeping).
    # Resolve phases transitively through the caller graph, splitting a
    # shared helper's time across callers pro rata by cumulative
    # contribution.
    weight_cache: Dict[tuple, Dict[str, float]] = {}

    def phase_weights(func: tuple, stack: frozenset) -> Dict[str, float]:
        cached = weight_cache.get(func)
        if cached is not None:
            return cached
        filename = func[0].replace("\\", "/")
        if "repro/" in filename:
            weights = {_phase_of(filename): 1.0}
        elif func in stack:
            return {}  # cycle: let the other callers decide
        else:
            callers = stat_items.get(func, (0, 0, 0.0, 0.0, {}))[4]
            agg: Dict[str, float] = {}
            for caller, edge in callers.items():
                share = float(edge[3])  # cumulative time via this caller
                for p, v in phase_weights(caller, stack | {func}).items():
                    agg[p] = agg.get(p, 0.0) + v * share
            total = sum(agg.values())
            if total > 0.0:
                weights = {p: v / total for p, v in agg.items()}
            else:
                weights = {"bookkeeping": 1.0}
        weight_cache[func] = weights
        return weights

    phase_seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
    rows: List[HotFunction] = []
    for func, (
        _cc,
        ncalls,
        tottime,
        cumtime,
        _callers,
    ) in stat_items.items():
        filename, lineno, funcname = func
        weights = phase_weights(func, frozenset())
        for phase_name, weight in weights.items():
            phase_seconds[phase_name] += tottime * weight
        phase = max(weights, key=lambda p: weights[p])
        rows.append(
            HotFunction(
                location=f"{filename}:{lineno}({funcname})",
                calls=ncalls,
                tottime=tottime,
                cumtime=cumtime,
                phase=phase,
            )
        )
    rows.sort(key=lambda r: r.tottime, reverse=True)
    return result, ServeProfile(
        total_seconds=stats.total_tt,  # type: ignore[attr-defined]
        phase_seconds=phase_seconds,
        hot_functions=rows[:top],
    )
