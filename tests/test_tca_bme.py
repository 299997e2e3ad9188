"""Tests for the TCA-BME codec — the paper's core data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap import popcount64
from repro.core.reference import encode_reference
from repro.core.tca_bme import (
    TCABMEMatrix,
    encode,
    tca_bme_storage_bytes,
)
from repro.core.tiles import TileConfig


def random_sparse(m, k, sparsity, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    return w


class TestFp16Range:
    """Weights that fp16 cannot hold are rejected, not cast to inf/NaN."""

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 65505.0, -70000.0, 1e30]
    )
    @pytest.mark.parametrize("encoder", [encode, encode_reference])
    def test_rejects_and_names_first_bad_element(self, encoder, value):
        w = np.ones((40, 72), dtype=np.float64)
        w[17, 33] = value
        w[30, 5] = value
        with pytest.raises(ValueError, match=r"\(17, 33\)"):
            encoder(w)

    def test_fp16_nan_input_rejected(self):
        w = np.zeros((16, 16), dtype=np.float16)
        w[0, 3] = np.nan
        with pytest.raises(ValueError, match=r"\(0, 3\)"):
            encode(w)

    def test_range_edges_round_trip(self):
        w = np.zeros((64, 64), dtype=np.float32)
        w[0, 0], w[1, 1] = 65504.0, -65504.0
        w[2, 2] = -0.0
        w[3, 3] = 2.0**-24  # smallest fp16 subnormal
        enc = encode(w)
        assert np.array_equal(enc.to_dense(), w.astype(np.float16))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "shape",
        [(64, 64), (128, 64), (64, 128), (256, 192), (8, 8), (100, 70),
         (1, 1), (63, 65)],
    )
    def test_exact_reconstruction(self, shape):
        w = random_sparse(*shape, sparsity=0.6, seed=shape[0])
        enc = encode(w)
        assert np.array_equal(enc.to_dense(), w)

    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.5, 0.7, 0.95, 1.0])
    def test_all_sparsity_levels(self, sparsity):
        w = random_sparse(96, 96, sparsity, seed=7)
        enc = encode(w)
        assert np.array_equal(enc.to_dense(), w)

    def test_all_zeros(self):
        enc = encode(np.zeros((64, 64), dtype=np.float16))
        assert enc.nnz == 0
        assert not enc.to_dense().any()

    def test_fully_dense(self):
        w = np.ones((64, 64), dtype=np.float16)
        enc = encode(w)
        assert enc.nnz == 64 * 64
        assert np.array_equal(enc.to_dense(), w)

    def test_preserves_negative_and_subnormal_values(self):
        w = np.zeros((64, 64), dtype=np.float16)
        w[0, 0] = -1.5
        w[10, 20] = np.float16(6e-8)  # subnormal fp16
        enc = encode(w)
        assert np.array_equal(enc.to_dense(), w)

    def test_custom_tile_config(self):
        cfg = TileConfig(gt_h=32, gt_w=128)
        w = random_sparse(96, 256, 0.5, seed=3)
        enc = encode(w, cfg)
        assert np.array_equal(enc.to_dense(), w)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=100),
        k=st.integers(min_value=1, max_value=100),
        sparsity=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_round_trip_property(self, m, k, sparsity, seed):
        w = random_sparse(m, k, sparsity, seed)
        enc = encode(w)
        enc.validate()
        assert np.array_equal(enc.to_dense(), w)


class TestEncodingInvariants:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            encode(np.zeros(64))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            encode(np.zeros((0, 8)))

    def test_value_count_matches_bitmap_population(self):
        enc = encode(random_sparse(128, 128, 0.5, seed=1))
        assert int(np.sum(popcount64(enc.bitmaps))) == enc.values.size

    def test_offsets_monotone_and_complete(self):
        enc = encode(random_sparse(128, 192, 0.6, seed=2))
        offsets = enc.gtile_offsets.astype(np.int64)
        assert offsets[0] == 0
        assert offsets[-1] == enc.nnz
        assert (np.diff(offsets) >= 0).all()

    def test_group_values_partition_value_array(self):
        enc = encode(random_sparse(128, 128, 0.5, seed=3))
        collected = np.concatenate(
            [enc.group_values(g) for g in range(enc.num_group_tiles)]
        )
        assert np.array_equal(collected, enc.values)

    def test_group_bitmaps_partition_bitmap_array(self):
        enc = encode(random_sparse(128, 128, 0.5, seed=4))
        collected = np.concatenate(
            [enc.group_bitmaps(g) for g in range(enc.num_group_tiles)]
        )
        assert np.array_equal(collected, enc.bitmaps)

    def test_group_nnz_sums_to_total(self):
        enc = encode(random_sparse(256, 192, 0.4, seed=5))
        assert enc.group_nnz().sum() == enc.nnz

    def test_value_order_is_storage_order(self):
        """Values within a BitmapTile appear in bit order (row-major)."""
        w = np.zeros((64, 64), dtype=np.float16)
        w[0, 0] = 1.0  # bit 0 of first BitmapTile
        w[0, 1] = 2.0  # bit 1
        w[1, 0] = 3.0  # bit 8
        enc = encode(w)
        assert list(enc.values[:3]) == [1.0, 2.0, 3.0]

    def test_tctile_column_major_value_order(self):
        """A value in the bottom-left BitmapTile (Ra1) precedes one in the
        top-right (Ra2) — column-major register order."""
        w = np.zeros((64, 64), dtype=np.float16)
        w[8, 0] = 1.0  # bottom-left quadrant of first TCTile -> Ra1
        w[0, 8] = 2.0  # top-right quadrant -> Ra2
        enc = encode(w)
        assert list(enc.values[:2]) == [1.0, 2.0]

    def test_validate_detects_corruption(self):
        enc = encode(random_sparse(64, 64, 0.5, seed=6))
        bad = TCABMEMatrix(
            shape=enc.shape,
            gtile_offsets=enc.gtile_offsets,
            values=enc.values[:-1],  # drop one value
            bitmaps=enc.bitmaps,
            config=enc.config,
        )
        with pytest.raises(ValueError):
            bad.validate()


class TestStorage:
    def test_matches_equation_9(self):
        m, k = 256, 192
        enc = encode(random_sparse(m, k, 0.5, seed=8))
        cfg = enc.config
        ngt = cfg.num_group_tiles(m, k)
        nbt = cfg.num_bitmap_tiles(m, k)
        expected = 4 * (ngt + 1) + 8 * nbt + 2 * enc.nnz
        assert enc.storage_bytes() == expected
        assert tca_bme_storage_bytes(m, k, enc.nnz) == expected

    def test_aligned_storage_at_least_eq9(self):
        enc = encode(random_sparse(192, 128, 0.55, seed=9))
        assert enc.storage_bytes_aligned() >= enc.storage_bytes()
        # Padding is at most 3 elements (6 bytes) per GroupTile.
        assert (
            enc.storage_bytes_aligned()
            <= enc.storage_bytes() + 6 * enc.num_group_tiles
        )

    def test_compression_ratio_above_one_at_30pct(self):
        """The paper's headline format claim (Fig. 3)."""
        enc = encode(random_sparse(4096 // 8, 4096 // 8, 0.3, seed=10))
        assert enc.compression_ratio() > 1.0

    def test_cr_monotone_in_sparsity(self):
        crs = [
            encode(random_sparse(256, 256, s, seed=11)).compression_ratio()
            for s in (0.3, 0.5, 0.7, 0.9)
        ]
        assert crs == sorted(crs)

    def test_sparsity_property(self):
        w = random_sparse(128, 128, 0.5, seed=12)
        enc = encode(w)
        actual = 1.0 - np.count_nonzero(w) / w.size
        assert enc.sparsity == pytest.approx(actual)

    def test_padding_contributes_no_values(self):
        """Padded region adds bitmaps/offsets but zero values."""
        w = np.ones((65, 65), dtype=np.float16)
        enc = encode(w)
        assert enc.nnz == 65 * 65
