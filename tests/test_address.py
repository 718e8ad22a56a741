"""Tests for hybrid address generation (bit reorder, replication, hash)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cim.address import (
    HybridAddressGenerator,
    LevelMapping,
    bit_reorder_address,
    dense_slot_size,
    naive_concat_address,
)
from repro.errors import ConfigurationError
from repro.nerf.hashgrid import CORNER_OFFSETS, HashGridConfig
from tests.reference_pricer import corner_addresses


def _voxel_corners(base):
    return np.asarray(base)[None, None, :] + CORNER_OFFSETS[None, :, :]


GRID = HashGridConfig(
    num_levels=6, table_size=2**11, base_resolution=4, max_resolution=64
)


class TestBitReorder:
    def test_voxel_vertices_distinct_parity_prefix(self):
        """The 8 vertices of any voxel receive 8 distinct addresses whose
        high (parity) fields differ — the Figure 14b guarantee."""
        res = 16
        corners = _voxel_corners([6, 10, 3])
        addrs = bit_reorder_address(corners, res)[0]
        slots = addrs // (res // 2 + 1) ** 3
        assert len(set(slots.tolist())) == 8

    @given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14))
    @settings(max_examples=30)
    def test_any_voxel_conflict_free(self, x, y, z):
        res = 16
        addrs = bit_reorder_address(_voxel_corners([x, y, z]), res)[0]
        xbars = addrs // 64
        # Distinct addresses guaranteed; crossbar spread requires the slot
        # size to exceed the crossbar rows, which holds for res 16.
        assert len(set(addrs.tolist())) == 8

    def test_bijective_over_grid(self):
        res = 8
        coords = np.stack(
            np.meshgrid(*[np.arange(res + 1)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        addrs = bit_reorder_address(coords, res)
        assert len(np.unique(addrs)) == (res + 1) ** 3

    def test_addresses_within_slot(self):
        res = 8
        coords = np.stack(
            np.meshgrid(*[np.arange(res + 1)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        addrs = bit_reorder_address(coords, res)
        assert addrs.max() < dense_slot_size(res)

    def test_copy_offset(self):
        res = 8
        corners = _voxel_corners([1, 2, 3])
        base = bit_reorder_address(corners, res)
        shifted = bit_reorder_address(corners, res, copy_ids=np.array([[2]])[..., 0])
        np.testing.assert_array_equal(shifted - base, 2 * dense_slot_size(res))


class TestNaiveConcat:
    def test_shared_high_bits_conflict(self):
        """Figure 14a: naive concatenation piles voxel vertices onto few
        crossbars."""
        res = 16
        addrs = naive_concat_address(_voxel_corners([6, 10, 3]), res)[0]
        xbars = set((addrs // 64).tolist())
        assert len(xbars) < 8  # conflicts guaranteed

    def test_distinct_addresses(self):
        res = 16
        addrs = naive_concat_address(_voxel_corners([6, 10, 3]), res)[0]
        assert len(set(addrs.tolist())) == 8


class TestHybridGenerator:
    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            HybridAddressGenerator(GRID, mode="bogus")

    def test_level_classification(self):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        dense_flags = [m.dense for m in gen.levels]
        # Dense (low-res) levels first, hashed (high-res) later.
        assert dense_flags[0] is True
        assert dense_flags[-1] is False

    def test_hash_mode_never_dense(self):
        gen = HybridAddressGenerator(GRID, mode="hash")
        assert all(not m.dense for m in gen.levels)

    def test_copies_only_in_hybrid(self):
        hybrid = HybridAddressGenerator(GRID, mode="hybrid")
        naive = HybridAddressGenerator(GRID, mode="naive")
        assert any(m.copies > 1 for m in hybrid.levels)
        assert all(m.copies == 1 for m in naive.levels)

    def test_addresses_shape(self, rng):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        base = rng.integers(0, 4, size=(10, 3))
        addrs = gen.addresses(base, 0, request_ids=np.arange(10))
        assert addrs.shape == (10, 8)

    def test_request_striping_spreads_copies(self):
        """Consecutive requests for the same entry go to different copies."""
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        mapping = gen.levels[0]
        assert mapping.copies > 1
        base = np.array([[1, 1, 1], [1, 1, 1]])
        addrs = gen.addresses(base, 0, request_ids=np.array([0, 1]))
        assert not np.array_equal(addrs[0], addrs[1])

    def test_no_request_ids_no_striping(self):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        base = np.array([[1, 1, 1], [1, 1, 1]])
        addrs = gen.addresses(base, 0, request_ids=None)
        np.testing.assert_array_equal(addrs[0], addrs[1])

    def test_hashed_level_matches_eq2(self, rng):
        from repro.nerf.hashgrid import hash_coords

        gen = HybridAddressGenerator(GRID, mode="hybrid")
        level = GRID.num_levels - 1
        base = rng.integers(0, 60, size=(5, 3))
        np.testing.assert_array_equal(
            gen.addresses(base, level),
            hash_coords(base[:, None, :] + CORNER_OFFSETS, GRID.table_size),
        )

    def test_storage_entries_cover_copies(self):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        for level, mapping in enumerate(gen.levels):
            assert gen.level_storage_entries(level) >= mapping.address_space


#: Grids whose levels span dense and hashed mappings, replicated and
#: single-copy dense tables, the paper's 2^19 tables up to resolution 512,
#: and a table size that is not a power of two (Eq. 2's modulus).
ORACLE_GRIDS = (
    GRID,
    HashGridConfig(),
    HashGridConfig(num_levels=4, table_size=1000, base_resolution=3,
                   max_resolution=40),
)


class TestBaseAddresses:
    """``addresses`` builds each voxel's corners from its base; the oracle
    applies the level's mapping to the ``(N, 8, 3)`` corner tensor."""

    @given(
        grid=st.sampled_from(ORACLE_GRIDS),
        mode=st.sampled_from(HybridAddressGenerator.MODES),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_corner_tensor_composition(self, grid, mode, data):
        gen = HybridAddressGenerator(grid, mode=mode)
        level = data.draw(st.integers(0, grid.num_levels - 1))
        res = gen.levels[level].resolution
        coord = st.integers(0, res - 1)
        drawn = data.draw(st.lists(st.tuples(coord, coord, coord), max_size=12))
        dtype = data.draw(st.sampled_from([np.int16, np.int32, np.int64]))
        # Both ends of the grid are always present.
        base = np.array([(0, 0, 0), (res - 1,) * 3] + drawn, dtype=dtype)
        request_ids = data.draw(
            st.none() | st.integers(0, 50).map(lambda s: s + np.arange(len(base)))
        )
        corners = base.astype(np.int64)[:, None, :] + CORNER_OFFSETS[None]
        expected = corner_addresses(gen, corners, level, request_ids)
        got = gen.addresses(base, level, request_ids)
        assert got.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_oracle_grids_cover_every_mapping(self):
        kinds = set()
        for grid in ORACLE_GRIDS:
            for mode in HybridAddressGenerator.MODES:
                for m in HybridAddressGenerator(grid, mode=mode).levels:
                    kinds.add("hashed" if not m.dense else
                              "replicated" if m.copies > 1 else "dense")
        assert kinds == {"hashed", "replicated", "dense"}

    def test_empty_base(self):
        gen = HybridAddressGenerator(GRID, mode="hybrid")
        for level in range(GRID.num_levels):
            addrs = gen.addresses(np.empty((0, 3), np.int16), level, np.arange(0))
            assert addrs.shape == (0, 8) and addrs.dtype == np.int64


class TestLevelMapping:
    def test_address_space_dense(self):
        m = LevelMapping(level=0, resolution=8, table_size=2**11,
                         dense=True, copies=2)
        assert m.address_space == 2 * dense_slot_size(8)

    def test_address_space_hashed(self):
        m = LevelMapping(level=5, resolution=64, table_size=2**11,
                         dense=False, copies=1)
        assert m.address_space == 2**11
