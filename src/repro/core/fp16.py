"""Exact FP16 -> FP32 widening through a lookup table.

numpy's ``astype(np.float32)`` on float16 input converts value by value
with a branch on each one's class (zero, subnormal, normal, inf/NaN).
On pruned weights, where zeros and non-zeros interleave, those branches
mispredict and the cast runs about twice as slow as on dense random
data (docs/PERFORMANCE.md has the numbers).  A half has only
65,536 bit patterns, each with exactly one FP32 image, so a table indexed
by the raw bits widens any FP16 array in one branch-free gather with the
same bits as the cast.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["widen_fp16"]


@cache
def _table() -> np.ndarray:
    """FP32 image of every FP16 bit pattern, indexed by the pattern.

    Built on first use, so processes that never widen do not hold it.
    """
    table = np.arange(1 << 16, dtype=np.uint16).view(np.float16).astype(np.float32)
    table.setflags(write=False)
    return table


#: Elements gathered per ``np.take``: it widens its uint16 indices to
#: intp, so this bounds that temporary at 512 KB whatever the input size.
_CHUNK = 1 << 16


def widen_fp16(a: np.ndarray) -> np.ndarray:
    """``a.astype(np.float32)`` for a float16 array, bit for bit, via the table.

    Returns a new C-contiguous float32 array of ``a``'s shape.  NaN
    payloads, signed zeros, subnormals and infinities map exactly as the
    cast maps them.
    """
    src = np.asarray(a)
    if src.dtype != np.float16:
        raise TypeError(f"widen_fp16 expects a float16 array, got {src.dtype}")
    table = _table()
    out = np.empty(src.shape, dtype=np.float32)
    bits = np.ascontiguousarray(src).reshape(-1).view(np.uint16)
    flat = out.reshape(-1)
    for i in range(0, bits.size, _CHUNK):
        np.take(table, bits[i : i + _CHUNK], out=flat[i : i + _CHUNK])
    return out
