"""Round-trip and storage tests for every baseline sparse format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    FORMATS,
    BSRMatrix,
    COOMatrix,
    CSRMatrix,
    SparTAMatrix,
    TCABMEFormat,
    TiledCSLMatrix,
    bsr_storage_bytes,
    csr_storage_bytes,
    dense_bytes,
    encode_as,
    get_format,
    sparta_storage_bytes,
    tiled_csl_storage_bytes,
)


def random_sparse(m, k, sparsity, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    return w


ALL_FORMAT_NAMES = sorted(FORMATS)


class TestRegistry:
    def test_all_expected_formats_present(self):
        assert set(FORMATS) == {"csr", "tiled-csl", "sparta", "bsr", "coo", "tca-bme"}

    def test_get_format_unknown(self):
        with pytest.raises(KeyError, match="unknown format"):
            get_format("elliptic")

    @pytest.mark.parametrize("name", ALL_FORMAT_NAMES)
    def test_round_trip_via_registry(self, name):
        w = random_sparse(96, 80, 0.55, seed=17)
        fmt = encode_as(name, w)
        assert np.array_equal(fmt.to_dense(), w)
        assert fmt.nnz == np.count_nonzero(w)
        assert fmt.shape == w.shape

    @pytest.mark.parametrize("name", ALL_FORMAT_NAMES)
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 1.0])
    def test_extreme_sparsities(self, name, sparsity):
        w = random_sparse(64, 64, sparsity, seed=23)
        fmt = encode_as(name, w)
        assert np.array_equal(fmt.to_dense(), w)

    @pytest.mark.parametrize("name", ALL_FORMAT_NAMES)
    def test_irregular_shapes(self, name):
        w = random_sparse(33, 101, 0.6, seed=29)
        fmt = encode_as(name, w)
        assert np.array_equal(fmt.to_dense(), w)

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(ALL_FORMAT_NAMES),
        m=st.integers(min_value=1, max_value=70),
        k=st.integers(min_value=1, max_value=70),
        sparsity=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_round_trip_property(self, name, m, k, sparsity, seed):
        w = random_sparse(m, k, sparsity, seed)
        fmt = encode_as(name, w)
        assert np.array_equal(fmt.to_dense(), w)


class TestCSR:
    def test_storage_equation(self):
        w = random_sparse(128, 64, 0.5, seed=1)
        csr = CSRMatrix.from_dense(w)
        nnz = np.count_nonzero(w)
        assert csr.storage_bytes() == (2 + 4) * nnz + 4 * (128 + 1)
        assert csr.storage_bytes() == csr_storage_bytes(128, nnz)

    def test_row_slice(self):
        w = np.zeros((4, 8), dtype=np.float16)
        w[2, 3] = 1.5
        w[2, 7] = -2.0
        csr = CSRMatrix.from_dense(w)
        cols, vals = csr.row_slice(2)
        assert list(cols) == [3, 7]
        assert list(vals) == [1.5, -2.0]
        cols0, _ = csr.row_slice(0)
        assert cols0.size == 0

    def test_rejects_inconsistent_arrays(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), row_ptr=[0, 1], col_idx=[0], values=[1.0])

    def test_cr_below_one_at_half_sparsity(self):
        """CSR's indexing pathology (paper Section 3.2.1)."""
        w = random_sparse(512, 512, 0.5, seed=2)
        assert CSRMatrix.from_dense(w).compression_ratio() < 1.0


class TestTiledCSL:
    def test_storage_equation(self):
        w = random_sparse(128, 128, 0.6, seed=3)
        t = TiledCSLMatrix.from_dense(w)
        assert t.num_tiles == 4
        assert t.storage_bytes() == tiled_csl_storage_bytes(4, t.nnz)
        assert t.storage_bytes() == 4 * 4 + 4 * t.nnz

    def test_tile_slice_locations_are_intra_tile(self):
        w = random_sparse(128, 128, 0.5, seed=4)
        t = TiledCSLMatrix.from_dense(w)
        for tile in range(t.num_tiles):
            locs, vals = t.tile_slice(tile)
            assert locs.size == vals.size
            assert (locs < 64 * 64).all()

    def test_rejects_oversized_tile(self):
        with pytest.raises(ValueError):
            TiledCSLMatrix.from_dense(
                np.zeros((8, 8), np.float16), tile_shape=(512, 512)
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 65505.0])
    def test_rejects_values_outside_fp16(self, value):
        w = np.ones((70, 90), dtype=np.float32)
        w[66, 81] = value
        with pytest.raises(ValueError, match=r"\(66, 81\)"):
            TiledCSLMatrix.from_dense(w)

    def test_custom_tile_shape(self):
        w = random_sparse(96, 48, 0.5, seed=5)
        t = TiledCSLMatrix.from_dense(w, tile_shape=(32, 16))
        assert t.tile_grid == (3, 3)
        assert np.array_equal(t.to_dense(), w)

    def test_cr_exactly_one_at_half_sparsity(self):
        """4 B/nnz means break-even at 50% (paper Fig. 3)."""
        m = k = 512
        nnz = m * k // 2
        tiles = (m // 64) * (k // 64)
        cr = dense_bytes(m, k) / tiled_csl_storage_bytes(tiles, nnz)
        assert cr == pytest.approx(1.0, rel=0.01)


class TestSparTA:
    def test_structured_part_is_2_of_4(self):
        w = random_sparse(64, 64, 0.5, seed=6)
        sp = SparTAMatrix.from_dense(w)
        # Each group of 4 contributes exactly 2 slots.
        assert sp.structured_values.shape == (64, 32)
        assert sp.structured_meta.max() <= 3

    def test_residual_holds_overflow_only(self):
        # A row of all non-zeros: 2 go structured, 2 go to CSR per group.
        w = np.arange(1, 9, dtype=np.float16).reshape(1, 8)
        sp = SparTAMatrix.from_dense(w)
        assert sp.structured_nnz == 4
        assert sp.residual.nnz == 4
        assert np.array_equal(sp.to_dense(), w)

    def test_sparse_group_no_residual(self):
        w = np.zeros((1, 8), dtype=np.float16)
        w[0, 1] = 2.0
        w[0, 6] = 3.0
        sp = SparTAMatrix.from_dense(w)
        assert sp.residual.nnz == 0
        assert np.array_equal(sp.to_dense(), w)

    def test_storage_equation(self):
        w = random_sparse(64, 64, 0.5, seed=7)
        sp = SparTAMatrix.from_dense(w)
        expected = sparta_storage_bytes(64, 64, sp.residual.nnz)
        assert sp.storage_bytes() == int(round(expected))

    def test_nnz_split_consistent(self):
        w = random_sparse(96, 64, 0.4, seed=8)
        sp = SparTAMatrix.from_dense(w)
        assert sp.nnz == np.count_nonzero(w)
        assert sp.structured_nnz + sp.residual.nnz == sp.nnz

    def test_k_not_multiple_of_4(self):
        w = random_sparse(16, 10, 0.5, seed=9)
        sp = SparTAMatrix.from_dense(w)
        assert np.array_equal(sp.to_dense(), w)

    def test_rejects_bad_meta(self):
        w = random_sparse(8, 8, 0.5, seed=10)
        sp = SparTAMatrix.from_dense(w)
        with pytest.raises(ValueError):
            SparTAMatrix(
                sp.shape,
                sp.structured_values,
                np.full_like(sp.structured_meta, 4),
                sp.residual,
            )


class TestBSR:
    def test_block_skipping(self):
        w = np.zeros((64, 64), dtype=np.float16)
        w[0, 0] = 1.0  # only the first 16x16 block is occupied
        b = BSRMatrix.from_dense(w)
        assert b.num_blocks == 1
        assert b.total_blocks == 16
        assert b.block_occupancy == pytest.approx(1 / 16)

    def test_storage_equation(self):
        w = random_sparse(64, 64, 0.5, seed=11)
        b = BSRMatrix.from_dense(w)
        assert b.storage_bytes() == bsr_storage_bytes(64, b.num_blocks)

    def test_dense_matrix_all_blocks(self):
        w = np.ones((32, 32), dtype=np.float16)
        b = BSRMatrix.from_dense(w)
        assert b.num_blocks == b.total_blocks == 4
        assert b.block_occupancy == 1.0

    def test_custom_block_shape(self):
        w = random_sparse(64, 64, 0.9, seed=12)
        b = BSRMatrix.from_dense(w, block_shape=(8, 8))
        assert np.array_equal(b.to_dense(), w)

    def test_degenerates_to_dense_at_llm_sparsity(self):
        """At 50% uniform sparsity every block is occupied (Fig. 11)."""
        w = random_sparse(256, 256, 0.5, seed=13)
        b = BSRMatrix.from_dense(w)
        assert b.block_occupancy == 1.0
        assert b.compression_ratio() < 1.0


class TestCOO:
    def test_storage(self):
        w = random_sparse(32, 32, 0.5, seed=14)
        c = COOMatrix.from_dense(w)
        assert c.storage_bytes() == 10 * c.nnz

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), rows=[0], cols=[0, 1], values=[1.0])


class TestTCABMEAdapter:
    def test_wraps_inner_matrix(self):
        w = random_sparse(64, 64, 0.5, seed=15)
        f = TCABMEFormat.from_dense(w)
        assert f.storage_bytes() == f.inner.storage_bytes()
        assert f.compression_ratio() == pytest.approx(f.inner.compression_ratio())

    def test_best_cr_of_all_formats_at_50pct(self):
        """TCA-BME's CR dominates every baseline at 50% (paper Fig. 3)."""
        w = random_sparse(256, 256, 0.5, seed=16)
        crs = {n: encode_as(n, w).compression_ratio() for n in ALL_FORMAT_NAMES}
        assert max(crs, key=crs.get) == "tca-bme"
