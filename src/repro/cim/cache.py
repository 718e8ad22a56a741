"""Register-based cache model (Section 5.2.2).

Each resolution level owns a small register file caching the most recently
fetched table entries; every generated address is compared against all
cached tags in parallel (all-to-all comparators) and hits bypass the memory
crossbars.

Replaying exact LRU over the 10^7-access streams of a full render is not
tractable in Python, so the production model uses the *access-distance
window* approximation: an access hits iff the same address occurred within
the previous ``window`` accesses of that level's stream.  For the highly
sequential streams produced by ray marching this tracks LRU closely —
:func:`exact_lru_hits` exists so tests can quantify the gap on small
streams.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError


def previous_occurrence_gaps(stream: np.ndarray) -> np.ndarray:
    """Distance to each address's previous occurrence (vectorised).

    Returns an ``(N,)`` int array; entries with no previous occurrence get
    a sentinel larger than any possible window.
    """
    stream = np.asarray(stream).reshape(-1)
    n = len(stream)
    never = np.iinfo(np.int64).max
    gaps = np.full(n, never, dtype=np.int64)
    if n == 0:
        return gaps
    order = np.argsort(stream, kind="stable")
    sorted_vals = stream[order]
    same = sorted_vals[1:] == sorted_vals[:-1]
    gaps[order[1:][same]] = order[1:][same] - order[:-1][same]
    return gaps


def window_hits(stream: np.ndarray, window: int) -> np.ndarray:
    """Boolean hit mask under the access-distance window model."""
    if window <= 0:
        return np.zeros(len(np.asarray(stream).reshape(-1)), dtype=bool)
    return previous_occurrence_gaps(stream) <= window


def exact_lru_hits(stream: np.ndarray, capacity: int) -> np.ndarray:
    """Boolean hit mask of a true LRU cache (reference implementation)."""
    if capacity <= 0:
        return np.zeros(len(np.asarray(stream).reshape(-1)), dtype=bool)
    cache: "OrderedDict[int, None]" = OrderedDict()
    hits = np.zeros(len(stream), dtype=bool)
    for i, addr in enumerate(np.asarray(stream).reshape(-1).tolist()):
        if addr in cache:
            hits[i] = True
            cache.move_to_end(addr)
        else:
            cache[addr] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return hits


@dataclass
class CacheStats:
    """Aggregate hit/miss counters of one level's register cache."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TemporalVertexCache:
    """Cross-frame vertex reuse buffer for video sequences.

    The temporal sibling of :class:`RegisterCache`: where the register
    cache filters repeats *within* a wavefront's recent window, this buffer
    holds the embedding-table entries the *previous frame* fetched, per
    resolution level.  Consecutive frames of a camera path march largely
    overlapping world-space voxels, so a lookup that finds its address in
    the previous frame's working set is served from the buffer and never
    touches the memory crossbars — the same bypass pricing the register
    cache uses.

    The double-buffered protocol matches frame pipelining: lookups during
    frame ``k`` compare against the *committed* set (frame ``k-1``'s
    addresses) while frame ``k``'s own addresses accumulate in a pending
    set; :meth:`commit_frame` swaps them at the frame boundary, recording
    the committer's ``tag`` as the resident set's identity.  The tag is
    folded into the memoised hit-mask keys, so a mask computed against
    one resident set is never served for another — two runs over one
    trace share masks only where their commit histories coincide (the
    warm-replay win), not where a serving schedule skipped a frame the
    alone run executed.

    Args:
        capacity_per_level: Entries the buffer retains per level between
            frames (``None`` = unbounded, an idealised buffer).  When the
            working set overflows, the lowest addresses are kept — a
            deterministic, if arbitrary, replacement policy.
    """

    def __init__(self, capacity_per_level: Optional[int] = None) -> None:
        if capacity_per_level is not None and capacity_per_level <= 0:
            raise ConfigurationError("capacity_per_level must be positive")
        self.capacity_per_level = capacity_per_level
        self._resident: Dict[int, np.ndarray] = {}
        self._resident_tag = None
        # Identity of the resident *content*, folded into memoised hit-mask
        # keys: the committing frame's tag and the bound it was trimmed to,
        # extended by every later trim.  Two caches (or two runs over one
        # shared trace memo) share a mask only when these histories — and
        # therefore the resident sets — coincide; a mere per-instance
        # counter could not guarantee that across serve() runs.
        self._resident_key: tuple = ()
        self._pending: Dict[int, list] = {}
        self.stats: Dict[int, CacheStats] = {}
        #: Optional telemetry hook called as ``observer(level, accesses,
        #: hits)`` after each :meth:`lookup` updates its stats.  Purely
        #: observational — it receives the counts the cache computed
        #: anyway and must never mutate cache state (the serving layer
        #: installs per-tenant hooks when a recorder is enabled).
        self.observer = None

    def resize(self, capacity_per_level: Optional[int]) -> None:
        """Change the per-level bound in place (elastic re-partitioning).

        Shrinking trims every resident set to the new bound with the same
        keep-the-lowest-addresses policy :meth:`commit_frame` uses, so a
        resident set is always a prefix of what a larger bound would hold
        (losing capacity can only lose hits, never invent them); growing
        keeps resident sets untouched.  A resize that truncates resident
        content extends the resident-content key, so memoised hit masks
        computed against the pre-trim set are never served afterwards —
        even if the same nominal capacity recurs, and even from another
        cache instance sharing the trace memo.
        """
        if capacity_per_level is not None and capacity_per_level <= 0:
            raise ConfigurationError("capacity_per_level must be positive")
        if capacity_per_level == self.capacity_per_level:
            return
        self.capacity_per_level = capacity_per_level
        if capacity_per_level is None:
            return
        trimmed = False
        for level, resident in self._resident.items():
            if resident.size > capacity_per_level:
                self._resident[level] = resident[:capacity_per_level]
                trimmed = True
        if trimmed:
            self._resident_key += (("trim", capacity_per_level),)

    def export_state(self) -> Dict:
        """Snapshot the committed resident state for migration hand-off.

        Returns a self-contained dict (resident arrays are copied) that
        :meth:`adopt` can seed a fresh cache from — the mechanism behind
        tenant migration between cluster shards: the destination shard's
        partition starts with the source's resident working set instead
        of cold, so the first frame after the migration keeps its
        temporal hits.  Pending (uncommitted) state is deliberately not
        exported: hand-off happens at a frame boundary, where the commit
        already ran.
        """
        return {
            "resident": {
                level: resident.copy()
                for level, resident in self._resident.items()
            },
            "resident_tag": self._resident_tag,
            "resident_key": self._resident_key,
        }

    def adopt(self, state: Dict) -> None:
        """Seed this cache from another cache's :meth:`export_state`.

        The resident-content key travels with the arrays, so memoised hit
        masks computed against the source's resident set (they live on
        the shared sequence trace, not on the cache) stay valid on the
        adopting side.  If this cache's bound is tighter than the
        exported set, the keep-the-lowest-addresses trim applies and the
        key is extended — exactly the :meth:`resize` semantics, so a
        hand-off can lose hits but never invent them.
        """
        self._resident = {
            level: np.asarray(resident)
            for level, resident in state["resident"].items()
        }
        self._resident_tag = state["resident_tag"]
        self._resident_key = tuple(state["resident_key"])
        self._pending = {}
        if self.capacity_per_level is not None:
            trimmed = False
            for level, resident in self._resident.items():
                if resident.size > self.capacity_per_level:
                    self._resident[level] = resident[: self.capacity_per_level]
                    trimmed = True
            if trimmed:
                self._resident_key += (("trim", self.capacity_per_level),)

    @property
    def resident_token(self) -> tuple:
        """Identity of the resident *content* — the commit/trim history key
        memoised hit masks are scoped by.  Two moments with equal tokens
        (for one logical tenant and trace) hold equal resident sets, so a
        batched pricing plan computed against one can be replayed against
        the other; any commit or trimming resize changes the token, which
        is how stale plans are detected (see
        :func:`repro.exec.batch.build_frame_plans`)."""
        return self._resident_key

    def lookup(
        self, stream: np.ndarray, level: int, memo=None, stream_key=()
    ) -> np.ndarray:
        """Hit mask of ``stream`` against the previous frame's working set.

        Args:
            stream: Flat logical address stream of one wavefront.
            memo: Optional ``(key, compute)`` hook (a sequence-trace memo
                scoped to this frame and wavefront) so warm replays of one
                sequence skip the membership test.
            stream_key: Identity of the address mapping that produced
                ``stream`` (and therefore the resident set) — must be part
                of the memo key, or two engines with different mappings
                simulating one sequence would share masks.
        """
        stream = np.asarray(stream).reshape(-1)
        resident = self._resident.get(level)
        if resident is None or resident.size == 0:
            hits = np.zeros(len(stream), dtype=bool)
        else:
            compute = lambda: np.isin(stream, resident)  # noqa: E731
            if memo is not None:
                hits = memo(
                    ("temporal", level, self._resident_key)
                    + tuple(stream_key),
                    compute,
                )
            else:
                hits = compute()
        accesses = int(len(hits))
        hit_count = int(hits.sum())
        st = self.stats.setdefault(level, CacheStats())
        st.accesses += accesses
        st.hits += hit_count
        if self.observer is not None:
            self.observer(level, accesses, hit_count)
        return hits

    def record(
        self, stream: np.ndarray, level: int, assume_unique: bool = False
    ) -> None:
        """Accumulate this frame's addresses for the next frame's lookups.

        Args:
            stream: Addresses the frame fetched at ``level``.
            assume_unique: The caller already passed the chunk through
                ``np.unique`` (so it is deduplicated *and* sorted
                ascending) — the batched engine records each level's
                whole-frame memoised unique stream this way.
                :meth:`commit_frame` produces the identical committed set
                either way — chunk granularity and ordering never matter —
                but a level whose pending set is exactly one such chunk
                commits without re-sorting.
        """
        chunk = np.asarray(stream).reshape(-1)
        if not assume_unique:
            chunk = np.unique(chunk)
        self._pending.setdefault(level, []).append((chunk, assume_unique))

    def commit_frame(self, tag=None) -> None:
        """Frame boundary: the pending working set becomes the lookup set.

        Args:
            tag: Hashable identity of the committed set (e.g. the frame
                index that produced it); together with the bound the set
                was trimmed to it becomes part of memoised hit-mask keys,
                so masks are never reused across different resident sets.
        """
        self._resident_tag = tag
        self._resident_key = (("commit", tag, self.capacity_per_level),)
        resident: Dict[int, np.ndarray] = {}
        for level, entries in self._pending.items():
            if not entries:
                merged = np.empty(0)
            elif len(entries) == 1 and entries[0][1]:
                # A single already-sorted-unique chunk (the batched
                # engine's whole-frame record) *is* the committed set —
                # np.unique would return it unchanged.
                merged = entries[0][0]
            else:
                merged = np.unique(np.concatenate([c for c, _ in entries]))
            if (
                self.capacity_per_level is not None
                and merged.size > self.capacity_per_level
            ):
                merged = merged[: self.capacity_per_level]
            resident[level] = merged
        self._resident = resident
        self._pending = {}

    def total_stats(self) -> CacheStats:
        total = CacheStats()
        for st in self.stats.values():
            total.accesses += st.accesses
            total.hits += st.hits
        return total


class RegisterCache:
    """Per-level register cache with window-model replay.

    Args:
        capacity: Cached entries per level's register file.  The paper's
            design-space exploration (Figure 22) sweeps 2-16; 8 is the
            chosen design point.  Comparator energy scales with capacity.
        window_scale: Window length per capacity entry; the register file
            holds ``capacity`` *unique* entries, which under the access-
            distance approximation corresponds to a somewhat longer raw
            window when streams repeat (default 1 = conservative).
    """

    def __init__(self, capacity: int = 8, window_scale: float = 1.0) -> None:
        if capacity < 0:
            raise ConfigurationError("capacity must be >= 0")
        if window_scale <= 0:
            raise ConfigurationError("window_scale must be > 0")
        self.capacity = capacity
        self.window_scale = window_scale
        self.stats: Dict[int, CacheStats] = {}

    @property
    def window(self) -> int:
        return int(round(self.capacity * self.window_scale))

    def replay(self, stream: np.ndarray, level: int = 0) -> np.ndarray:
        """Replay a flat address stream; returns the hit mask and logs
        stats."""
        hits = window_hits(stream, self.window)
        st = self.stats.setdefault(level, CacheStats())
        st.accesses += int(len(hits))
        st.hits += int(hits.sum())
        return hits

    def total_stats(self) -> CacheStats:
        total = CacheStats()
        for st in self.stats.values():
            total.accesses += st.accesses
            total.hits += st.hits
        return total
