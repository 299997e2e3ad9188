"""Exact FP16 -> FP32 widening and the dense paths that use it.

``widen_fp16`` replaces numpy's per-value cast with a table gather; it
must agree with ``astype(np.float32)`` on every one of the 65,536 FP16
bit patterns, and the dense linear / cuBLAS outputs built on it must keep
the exact bits of the old ``astype`` formula.
"""

import numpy as np
import pytest

from repro.core import widen_fp16
from repro.kernels.cublas import CuBLASKernel
from repro.llm.functional_model import _Linear
from repro.pruning import magnitude_prune

ALL_HALVES = np.arange(1 << 16, dtype=np.uint16).view(np.float16)


def bits32(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def widen_by_fields(h):
    """IEEE binary16 -> binary32 from sign/exponent/mantissa fields alone."""
    h = h.view(np.uint16).astype(np.uint32)
    sign = (h >> 15) << 31
    exp = (h >> 10) & 0x1F
    man = h & 0x3FF
    out = np.empty(h.shape, dtype=np.uint32)
    normal = (exp > 0) & (exp < 0x1F)
    out[normal] = sign[normal] | ((exp[normal] + 112) << 23) | (man[normal] << 13)
    special = exp == 0x1F  # inf / NaN keep their mantissa bits
    out[special] = sign[special] | (0xFF << 23) | (man[special] << 13)
    low = exp == 0  # zero or subnormal: exact as man * 2**-24
    mag = man[low].astype(np.float32) * np.float32(2.0**-24)
    out[low] = sign[low] | mag.view(np.uint32)
    return out


class TestWidenFp16:
    def test_every_bit_pattern_matches_astype(self):
        np.testing.assert_array_equal(
            bits32(widen_fp16(ALL_HALVES)), bits32(ALL_HALVES.astype(np.float32))
        )

    def test_non_nan_patterns_match_ieee_fields(self):
        # An oracle independent of numpy's cast; NaN quieting is left to
        # the astype comparison above.
        keep = ~np.isnan(ALL_HALVES)
        np.testing.assert_array_equal(
            bits32(widen_fp16(ALL_HALVES))[keep], widen_by_fields(ALL_HALVES)[keep]
        )

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (3, 5), (70_001,), (2, 3, 4)])
    def test_shapes_and_chunk_edges(self, shape):
        rng = np.random.default_rng(len(shape))
        a = rng.standard_normal(shape).astype(np.float16)
        out = widen_fp16(a)
        assert out.dtype == np.float32 and out.shape == a.shape
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(bits32(out), bits32(a.astype(np.float32)))

    def test_non_contiguous_input(self):
        a = np.random.default_rng(3).standard_normal((64, 64)).astype(np.float16)
        np.testing.assert_array_equal(
            bits32(widen_fp16(a.T)), bits32(a.T.astype(np.float32))
        )

    def test_rejects_other_dtypes(self):
        with pytest.raises(TypeError, match="float16"):
            widen_fp16(np.ones(4, dtype=np.float32))


def pruned_weight(m, k, seed):
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal((m, k)) / np.sqrt(k)).astype(np.float16)
    w = magnitude_prune(w, 0.6, per_row=True)
    w[0, :4] = np.array([-0.0, 65504.0, -65504.0, 6e-8], dtype=np.float16)
    return w


class TestDensePathsPinned:
    """The dense backends keep the bits of the old ``astype`` formula."""

    def test_dense_linear_matches_astype_formula(self):
        w = pruned_weight(96, 80, seed=5)
        lin = _Linear(w)
        x = np.random.default_rng(6).standard_normal((3, 80)).astype(np.float32)
        x16 = x.astype(np.float16)
        old = x16.astype(np.float32) @ lin.weight.astype(np.float32).T
        np.testing.assert_array_equal(bits32(lin(x, "dense")), bits32(old))

    def test_cublas_matches_astype_formula(self):
        w = pruned_weight(80, 96, seed=7)
        x = np.random.default_rng(8).standard_normal((96, 5)).astype(np.float16)
        old = w.astype(np.float32) @ x.astype(np.float32)
        np.testing.assert_array_equal(bits32(CuBLASKernel().run(w, x)), bits32(old))
