"""Tests for the multi-resolution hash-grid encoder."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.nerf.hashgrid import (
    CORNER_OFFSETS,
    HashGridConfig,
    HashGridEncoder,
    dense_coords_index,
    hash_coords,
)

# ----------------------------------------------------------------------
# Reference implementation: the per-level encoder the fused one replaced.
# It locates, addresses, gathers and blends one level at a time; the
# fused encode must reproduce it bit for bit.
# ----------------------------------------------------------------------


def reference_voxel_vertices(cfg, points, level):
    """``(N, 8, 3)`` voxel vertices and ``(N, 8)`` trilinear weights."""
    res = int(cfg.level_resolutions[level])
    scaled = np.asarray(points) * res
    base = np.floor(scaled).astype(np.int64)
    base = np.clip(base, 0, res - 1)
    frac = scaled - base
    corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
    offs = CORNER_OFFSETS[None, :, :]
    w = np.where(offs == 1, frac[:, None, :], 1.0 - frac[:, None, :])
    weights = np.prod(w, axis=-1)
    return corners, weights


def reference_level_corners(encoder, points, level):
    """``(N, 8)`` table indices and trilinear weights at one level."""
    cfg = encoder.config
    corners, weights = reference_voxel_vertices(cfg, points, level)
    if cfg.level_is_dense(level):
        idx = dense_coords_index(corners, int(cfg.level_resolutions[level]))
    else:
        idx = hash_coords(corners, cfg.table_size)
    return idx, weights


def reference_terms(encoder, points):
    """Per level, the ``(N, 8, F)`` blend terms ``w_k * f_k``."""
    points = np.atleast_2d(points)
    terms = []
    for level, table in enumerate(encoder.tables):
        idx, weights = reference_level_corners(encoder, points, level)
        terms.append(weights[..., None] * table[idx])
    return terms


def reference_encode(encoder, points):
    return np.concatenate(
        [np.sum(t, axis=1) for t in reference_terms(encoder, points)], axis=-1
    )


def reference_encode_backward(encoder, tables, points, grad_output, learning_rate):
    """Per-level SGD scatter into ``tables`` (a list of level arrays)."""
    points = np.atleast_2d(points)
    fdim = encoder.config.feature_dim
    for level, table in enumerate(tables):
        idx, weights = reference_level_corners(encoder, points, level)
        g = grad_output[:, level * fdim : (level + 1) * fdim]
        contrib = weights[..., None] * g[:, None, :]
        np.add.at(table, idx.reshape(-1), -learning_rate * contrib.reshape(-1, fdim))


def assert_bit_identical(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


#: For feature_dim 1 numpy's ``np.sum`` over the corner axis adds the 8
#: terms pairwise while the fused encode adds them left to right.  Each
#: order rounds at most 7 times, each rounding within eps/2 of a partial
#: sum bounded by sum|w_k f_k|, so the two differ by at most
#: 7 * eps * sum|w_k f_k|; the test allows 8 * eps * sum|w_k f_k|.
PAIRWISE_SUM_TOL = 8 * np.finfo(np.float64).eps


@st.composite
def grid_configs(draw, feature_dims=st.integers(2, 4)):
    """Grids of 1-16 levels, power-of-two or not table sizes, and base and
    maximum resolutions that give dense levels, hashed levels or both."""
    base = draw(st.integers(2, 12))
    return HashGridConfig(
        num_levels=draw(st.integers(1, 16)),
        table_size=draw(
            st.one_of(
                st.sampled_from([2**k for k in range(3, 13)]), st.integers(8, 5000)
            )
        ),
        feature_dim=draw(feature_dims),
        base_resolution=base,
        max_resolution=draw(st.integers(base, 100)),
    )


#: Point sets of 0-40 points, some outside the unit cube.
point_sets = st.integers(0, 40).flatmap(
    lambda n: arrays(np.float64, (n, 3), elements=st.floats(-0.25, 1.25))
)

MIXED_GRID = HashGridConfig(
    num_levels=8, table_size=2**13, base_resolution=8, max_resolution=128
)
SINGLE_LEVEL_GRID = HashGridConfig(
    num_levels=1, table_size=2**10, base_resolution=8, max_resolution=8
)
ODD_TABLE_GRID = HashGridConfig(
    num_levels=5, table_size=1000, feature_dim=3, base_resolution=4, max_resolution=64
)
ONE_POINT = np.array([[0.3, 0.7, 0.1]])


class TestHashGridConfig:
    def test_level_resolutions_geometric(self):
        cfg = HashGridConfig(num_levels=4, table_size=2**12,
                             base_resolution=16, max_resolution=128)
        res = cfg.level_resolutions
        assert res[0] == 16
        assert res[-1] == 128
        assert np.all(np.diff(res) > 0)

    def test_single_level(self):
        cfg = HashGridConfig(num_levels=1, table_size=2**10,
                             base_resolution=8, max_resolution=8)
        assert list(cfg.level_resolutions) == [8]

    def test_output_dim(self):
        cfg = HashGridConfig(num_levels=5, feature_dim=2, table_size=2**10,
                             base_resolution=4, max_resolution=32)
        assert cfg.output_dim == 10

    def test_dense_level_detection(self):
        cfg = HashGridConfig(num_levels=2, table_size=2**12,
                             base_resolution=8, max_resolution=64)
        assert cfg.level_is_dense(0)       # 9^3 = 729 <= 4096
        assert not cfg.level_is_dense(1)   # 65^3 >> 4096

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_levels": 0},
            {"table_size": 4},
            {"feature_dim": 0},
            {"base_resolution": 1},
            {"base_resolution": 64, "max_resolution": 32},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(num_levels=4, table_size=2**10,
                    base_resolution=8, max_resolution=64)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            HashGridConfig(**base)


class TestHashing:
    def test_eq2_formula(self):
        """Check against a direct evaluation of Eq. (2)."""
        coords = np.array([[3, 5, 7]], dtype=np.uint64)
        t = 2**14
        expected = (
            (3 * 1) ^ (5 * 2654435761) ^ (7 * 805459861)
        ) % t
        assert hash_coords(coords, t)[0] == expected

    def test_hash_in_range(self, rng):
        coords = rng.integers(0, 1000, size=(100, 3))
        idx = hash_coords(coords, 513)
        assert np.all((idx >= 0) & (idx < 513))

    def test_hash_deterministic(self, rng):
        coords = rng.integers(0, 100, size=(50, 3))
        np.testing.assert_array_equal(
            hash_coords(coords, 2**10), hash_coords(coords, 2**10)
        )

    @given(
        st.integers(0, 2**20), st.integers(0, 2**20), st.integers(0, 2**20)
    )
    @settings(max_examples=30)
    def test_hash_property_range(self, x, y, z):
        idx = hash_coords(np.array([[x, y, z]]), 2**15)
        assert 0 <= idx[0] < 2**15

    def test_dense_index_bijective(self):
        res = 7
        coords = np.stack(
            np.meshgrid(*[np.arange(res + 1)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        idx = dense_coords_index(coords, res)
        assert len(np.unique(idx)) == (res + 1) ** 3


class TestVoxelVertices:
    def test_corner_offsets_cover_cube(self):
        assert CORNER_OFFSETS.shape == (8, 3)
        assert len({tuple(row) for row in CORNER_OFFSETS}) == 8

    def test_weights_sum_to_one(self, rng):
        enc = HashGridEncoder(HashGridConfig(
            num_levels=3, table_size=2**10, base_resolution=4, max_resolution=16))
        pts = rng.random((50, 3))
        _, weights = enc.voxel_vertices(pts, 1)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(50))

    def test_weights_nonnegative(self, rng):
        enc = HashGridEncoder(HashGridConfig(
            num_levels=3, table_size=2**10, base_resolution=4, max_resolution=16))
        pts = rng.random((50, 3))
        _, weights = enc.voxel_vertices(pts, 2)
        assert np.all(weights >= -1e-12)

    def test_vertex_at_grid_point_gets_full_weight(self):
        enc = HashGridEncoder(HashGridConfig(
            num_levels=1, table_size=2**10, base_resolution=4, max_resolution=4))
        pts = np.array([[0.5, 0.5, 0.5]])  # exactly vertex (2,2,2) at res 4
        corners, weights = enc.voxel_vertices(pts, 0)
        assert weights[0, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(corners[0, 0], [2, 2, 2])

    def test_corners_within_grid(self, rng):
        cfg = HashGridConfig(num_levels=2, table_size=2**10,
                             base_resolution=4, max_resolution=8)
        enc = HashGridEncoder(cfg)
        pts = np.clip(rng.random((100, 3)), 0, 1 - 1e-9)
        for level in range(2):
            corners, _ = enc.voxel_vertices(pts, level)
            res = int(cfg.level_resolutions[level])
            assert corners.min() >= 0
            assert corners.max() <= res


class TestEncoding:
    def test_encode_shape(self, rng):
        cfg = HashGridConfig(num_levels=4, feature_dim=2, table_size=2**10,
                             base_resolution=4, max_resolution=32)
        enc = HashGridEncoder(cfg)
        out = enc.encode(rng.random((10, 3)))
        assert out.shape == (10, 8)

    def test_encode_continuous(self):
        """Trilinear interpolation must be continuous across voxel faces."""
        cfg = HashGridConfig(num_levels=2, table_size=2**12,
                             base_resolution=4, max_resolution=8)
        enc = HashGridEncoder(cfg, seed=5)
        eps = 1e-7
        boundary = 0.25  # a voxel face at res 4
        left = enc.encode(np.array([[boundary - eps, 0.4, 0.6]]))
        right = enc.encode(np.array([[boundary + eps, 0.4, 0.6]]))
        np.testing.assert_allclose(left, right, atol=1e-4)

    def test_encode_backward_reduces_error(self, rng):
        """A gradient step must move the encoding toward the target."""
        cfg = HashGridConfig(num_levels=2, table_size=2**10,
                             base_resolution=4, max_resolution=8)
        enc = HashGridEncoder(cfg, seed=0)
        pts = rng.random((32, 3))
        target = rng.normal(size=(32, cfg.output_dim))
        before = enc.encode(pts)
        err_before = np.mean((before - target) ** 2)
        for _ in range(50):
            grad = 2 * (enc.encode(pts) - target) / len(pts)
            enc.encode_backward(pts, grad, learning_rate=0.5)
        err_after = np.mean((enc.encode(pts) - target) ** 2)
        assert err_after < err_before * 0.5

    def test_parameter_count(self):
        cfg = HashGridConfig(num_levels=3, feature_dim=2, table_size=2**10,
                             base_resolution=4, max_resolution=16)
        assert HashGridEncoder(cfg).parameter_count() == 3 * 2**10 * 2

    def test_lookup_flops_positive(self):
        cfg = HashGridConfig(num_levels=3, table_size=2**10,
                             base_resolution=4, max_resolution=16)
        assert HashGridEncoder(cfg).lookup_flops_per_point() > 0

    def test_seeded_encoders_identical(self, rng):
        cfg = HashGridConfig(num_levels=2, table_size=2**10,
                             base_resolution=4, max_resolution=8)
        pts = rng.random((5, 3))
        np.testing.assert_array_equal(
            HashGridEncoder(cfg, seed=9).encode(pts),
            HashGridEncoder(cfg, seed=9).encode(pts),
        )


class TestTables:
    def test_tables_are_views_of_the_stack(self):
        enc = HashGridEncoder(MIXED_GRID, seed=1)
        tables = enc.tables
        assert len(tables) == MIXED_GRID.num_levels
        assert tables[0].shape == (MIXED_GRID.table_size, MIXED_GRID.feature_dim)
        tables[2][5] = 7.0
        assert np.all(enc.tables[2][5] == 7.0)

    def test_setter_restacks_into_a_new_array(self):
        enc = HashGridEncoder(MIXED_GRID, seed=1)
        old = enc.tables
        new = [t * 2.0 for t in old]
        enc.tables = new
        assert_bit_identical(np.stack(enc.tables), np.stack(new))
        assert not np.shares_memory(enc.tables[0], old[0])
        assert not np.shares_memory(enc.tables[0], new[0])

    def test_setter_rejects_wrong_shape(self):
        enc = HashGridEncoder(MIXED_GRID, seed=1)
        with pytest.raises(ConfigurationError):
            enc.tables = enc.tables[:-1]


class TestMatchesPerLevelReference:
    """The fused encoder against the per-level reference above."""

    @given(grid_configs(), point_sets, st.integers(0, 2**16))
    @example(MIXED_GRID, np.zeros((0, 3)), 0)
    @example(SINGLE_LEVEL_GRID, ONE_POINT, 0)
    @example(ODD_TABLE_GRID, np.array([[-0.2, 0.5, 1.2], [1.0, 1.0, 1.0]]), 3)
    @settings(max_examples=100, deadline=None)
    def test_encode_bit_identical(self, grid, points, seed):
        enc = HashGridEncoder(grid, seed=seed)
        assert_bit_identical(enc.encode(points), reference_encode(enc, points))

    @given(grid_configs(), point_sets, st.integers(0, 2**16))
    @example(MIXED_GRID, np.zeros((0, 3)), 0)
    @example(SINGLE_LEVEL_GRID, ONE_POINT, 0)
    @example(ODD_TABLE_GRID, np.array([[-0.2, 0.5, 1.2], [1.0, 1.0, 1.0]]), 3)
    @settings(max_examples=100, deadline=None)
    def test_backward_tables_bit_identical(self, grid, points, seed):
        enc = HashGridEncoder(grid, seed=seed)
        tables = [t.copy() for t in enc.tables]
        grad = np.random.default_rng(seed).normal(size=(len(points), grid.output_dim))
        reference_encode_backward(enc, tables, points, grad, 0.37)
        enc.encode_backward(points, grad, 0.37)
        assert_bit_identical(np.stack(enc.tables), np.stack(tables))

    @given(grid_configs(), point_sets)
    @example(SINGLE_LEVEL_GRID, ONE_POINT)
    @settings(max_examples=50, deadline=None)
    def test_voxel_vertices_bit_identical(self, grid, points):
        enc = HashGridEncoder(grid)
        for level in range(grid.num_levels):
            corners, weights = enc.voxel_vertices(points, level)
            ref_corners, ref_weights = reference_voxel_vertices(grid, points, level)
            assert_bit_identical(corners, ref_corners)
            assert_bit_identical(weights, ref_weights)

    @given(grid_configs(feature_dims=st.just(1)), point_sets, st.integers(0, 2**16))
    @example(dataclasses.replace(SINGLE_LEVEL_GRID, feature_dim=1), ONE_POINT, 0)
    @settings(max_examples=50, deadline=None)
    def test_encode_feature_dim_one_within_sum_order_tol(self, grid, points, seed):
        enc = HashGridEncoder(grid, seed=seed)
        terms = reference_terms(enc, points)
        expected = np.concatenate([np.sum(t, axis=1) for t in terms], axis=-1)
        magnitude = np.concatenate([np.sum(np.abs(t), axis=1) for t in terms], axis=-1)
        actual = enc.encode(points)
        assert actual.shape == expected.shape
        assert np.all(np.abs(actual - expected) <= PAIRWISE_SUM_TOL * magnitude)

    def test_signed_zero_features_blend_to_positive_zero(self):
        """Quantised tables hold -0.0 entries; like ``np.sum``, the blend
        starts from +0.0, so an all-(-0.0) voxel encodes to +0.0."""
        enc = HashGridEncoder(MIXED_GRID)
        enc.tables = [np.full_like(t, -0.0) for t in enc.tables]
        points = np.array([[0.25, 0.5, 0.75], [0.1, 0.2, 0.3]])
        out = enc.encode(points)
        assert_bit_identical(out, reference_encode(enc, points))
        assert not np.any(np.signbit(out))
