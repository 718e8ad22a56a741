"""Tests for the register-cache model (window approximation vs exact LRU)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cim.cache import (
    RegisterCache,
    exact_lru_hits,
    previous_occurrence_gaps,
    window_hits,
)
from repro.errors import ConfigurationError


class TestPreviousOccurrence:
    def test_no_repeats(self):
        gaps = previous_occurrence_gaps(np.array([1, 2, 3, 4]))
        assert np.all(gaps > 4)  # sentinel: never previously seen

    def test_immediate_repeat(self):
        gaps = previous_occurrence_gaps(np.array([7, 7]))
        assert gaps[1] == 1

    def test_gap_measured_in_accesses(self):
        gaps = previous_occurrence_gaps(np.array([5, 1, 2, 5]))
        assert gaps[3] == 3

    def test_empty_stream(self):
        assert len(previous_occurrence_gaps(np.array([], dtype=int))) == 0


class TestWindowHits:
    def test_zero_window_never_hits(self):
        assert not window_hits(np.array([1, 1, 1]), 0).any()

    def test_window_one_catches_adjacent(self):
        hits = window_hits(np.array([3, 3, 4, 3]), 1)
        np.testing.assert_array_equal(hits, [False, True, False, False])

    def test_large_window_catches_all_repeats(self):
        stream = np.array([1, 2, 3, 1, 2, 3])
        hits = window_hits(stream, 100)
        np.testing.assert_array_equal(hits, [False, False, False, True, True, True])


class TestExactLRU:
    def test_capacity_zero(self):
        assert not exact_lru_hits(np.array([1, 1]), 0).any()

    def test_repeated_scan_with_small_cache_thrashes(self):
        stream = np.tile(np.arange(10), 3)
        hits = exact_lru_hits(stream, 5)
        assert not hits.any()  # classic LRU thrashing

    def test_repeated_scan_with_large_cache_hits(self):
        stream = np.tile(np.arange(10), 3)
        hits = exact_lru_hits(stream, 10)
        assert hits[10:].all()

    def test_mru_retained(self):
        stream = np.array([1, 2, 3, 1, 4, 1])
        hits = exact_lru_hits(stream, 2)
        # 1 evicted by 3 (cap 2), re-missed, then retained.
        np.testing.assert_array_equal(
            hits, [False, False, False, False, False, True]
        )

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40),
           st.integers(1, 6))
    @settings(max_examples=40)
    def test_window_model_vs_lru_bounds(self, stream, capacity):
        """Window(w) hits are a subset of LRU(w): an access-distance <= w
        implies at most w unique entries in the gap."""
        stream = np.array(stream)
        w = window_hits(stream, capacity)
        l = exact_lru_hits(stream, capacity)
        assert np.all(~w | l)  # w implies l


class TestRegisterCache:
    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            RegisterCache(-1)

    def test_replay_tracks_stats(self):
        cache = RegisterCache(4)
        stream = np.array([1, 1, 2, 2, 3])
        hits = cache.replay(stream, level=0)
        stats = cache.stats[0]
        assert stats.accesses == 5
        assert stats.hits == int(hits.sum())
        assert stats.misses == 5 - stats.hits

    def test_hit_rate(self):
        cache = RegisterCache(4)
        cache.replay(np.array([9, 9, 9, 9]), level=1)
        assert cache.stats[1].hit_rate == pytest.approx(0.75)

    def test_total_stats_aggregates_levels(self):
        cache = RegisterCache(4)
        cache.replay(np.array([1, 1]), level=0)
        cache.replay(np.array([2, 2]), level=1)
        total = cache.total_stats()
        assert total.accesses == 4
        assert total.hits == 2

    def test_zero_capacity_never_hits(self):
        cache = RegisterCache(0)
        hits = cache.replay(np.array([1, 1, 1]), level=0)
        assert not hits.any()

    def test_larger_cache_never_worse(self, rng):
        stream = rng.integers(0, 30, size=500)
        small = window_hits(stream, 4).sum()
        large = window_hits(stream, 16).sum()
        assert large >= small

    def test_ray_marching_stream_matches_lru(self):
        """On point-group streams (8 vertices per point, consecutive points
        sharing voxels) the window model equals exact LRU — the scenario
        the encoding engine replays."""
        rng = np.random.default_rng(3)
        groups = []
        current = rng.integers(0, 1000, size=8)
        for _ in range(200):
            if rng.random() < 0.6:  # same voxel as previous point
                groups.append(current.copy())
            else:
                current = rng.integers(0, 1000, size=8)
                groups.append(current.copy())
        stream = np.concatenate(groups)
        w = window_hits(stream, 8)
        l = exact_lru_hits(stream, 8)
        assert abs(w.mean() - l.mean()) < 0.05
