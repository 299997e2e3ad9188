"""Shared Memory Bitmap Decoding (SMBD) — paper Section 4.3.3, Figure 8.

SMBD expands a TCTile's compressed values into the per-lane register
fragments expected by ``mma.m16n8k16``, using only bit operations:

* ``PopCount`` over whole bitmaps accumulates the running start offset of
  each BitmapTile's slice of the compressed Values array — no explicit
  offsets are stored.
* ``MaskedPopCount`` (Algorithm 2) gives each lane the number of non-zeros
  preceding its first bit, i.e. its private load offset.

Decoding is two-phase per 32-bit register: phase I resolves the even bit
(``a0``) with one MaskedPopCount; phase II resolves the odd bit (``a1``)
by *reusing* phase I's count (incremented if ``a0`` was present), so only
one MaskedPopCount is spent per lane per register.

Four implementations are provided, two lane-faithful references and two
vectorised production paths:

:func:`decode_tctile` / :func:`decode_group`
    Lane-faithful references: iterate lanes exactly as a warp would,
    counting every PopCount / MaskedPopCount / shared-memory load.  Used
    by tests and by the instruction-level simulator.

:func:`decode_group_fast` / :func:`decode_matrix`
    Vectorised decodes (one GroupTile / the whole matrix); bit-identical
    output, orders of magnitude faster in numpy.  :func:`decode_matrix`
    is what the functional SpMM kernel batches its gathers through.

:func:`decode_group_frags`
    Vectorised fragment decode: same ``(32, 4, 2)`` mma fragments as
    :func:`decode_group`, but per-lane offsets come from one exclusive
    cumulative sum over the expanded bitmaps instead of per-lane Python
    ``bit_count`` loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .bitmap import expand_bitmap_rows, masked_popcount, popcount64
from .fp16 import widen_fp16
from .mma_layout import WARP_SIZE
from .tiles import DEFAULT_TILE_CONFIG, TileConfig

__all__ = [
    "DecodeStats",
    "decode_tctile",
    "decode_group",
    "decode_group_fast",
    "decode_group_frags",
    "decode_matrix",
]


@dataclass
class DecodeStats:
    """Instruction counts accumulated while decoding (per warp).

    These feed the kernel cost model: SMBD work runs on CUDA cores and is
    priced per operation, then overlapped (or not) with Tensor-Core math
    depending on the AsyncPipe setting.
    """

    popcount_ops: int = 0
    masked_popcount_ops: int = 0
    shared_loads: int = 0
    values_decoded: int = 0
    zeros_filled: int = 0

    def merge(self, other: "DecodeStats") -> None:
        self.popcount_ops += other.popcount_ops
        self.masked_popcount_ops += other.masked_popcount_ops
        self.shared_loads += other.shared_loads
        self.values_decoded += other.values_decoded
        self.zeros_filled += other.zeros_filled

    @property
    def total_bit_ops(self) -> int:
        return self.popcount_ops + self.masked_popcount_ops


def decode_tctile(
    bitmaps: np.ndarray,
    values: np.ndarray,
    base_offset: int = 0,
    stats: Optional[DecodeStats] = None,
) -> np.ndarray:
    """Decode one TCTile into A fragments ``(32, 4, 2)`` float16.

    ``bitmaps`` holds the TCTile's four 64-bit bitmaps in Ra-register
    (column-major BitmapTile) order; ``values`` is the compressed value
    stream of the enclosing GroupTile and ``base_offset`` the TCTile's
    start position within it.

    This is the lane-faithful reference implementation: every lane's
    offsets are derived with MaskedPopCount exactly as in the kernel, and
    ``stats`` (if given) is charged for each intrinsic and shared load.
    """
    bitmaps = np.asarray(bitmaps, dtype=np.uint64)
    if bitmaps.shape != (4,):
        raise ValueError(f"a TCTile has 4 bitmaps, got shape {bitmaps.shape}")
    if stats is None:
        stats = DecodeStats()

    frags = np.zeros((WARP_SIZE, 4, 2), dtype=np.float16)
    reg_base = base_offset
    for reg in range(4):
        bmp = int(bitmaps[reg])
        for lane in range(WARP_SIZE):
            # Phase I: even bit (a0), one MaskedPopCount per lane+register.
            preceding = masked_popcount(bmp, lane)
            stats.masked_popcount_ops += 1
            a0_present = (bmp >> (2 * lane)) & 1
            if a0_present:
                frags[lane, reg, 0] = values[reg_base + preceding]
                stats.shared_loads += 1
                stats.values_decoded += 1
            else:
                stats.zeros_filled += 1
            # Phase II: odd bit (a1) reuses the phase-I count.
            a1_present = (bmp >> (2 * lane + 1)) & 1
            if a1_present:
                frags[lane, reg, 1] = values[reg_base + preceding + a0_present]
                stats.shared_loads += 1
                stats.values_decoded += 1
            else:
                stats.zeros_filled += 1
        # Advance to the next BitmapTile's slice with a whole-bitmap PopCount.
        reg_base += int(popcount64(bmp))
        stats.popcount_ops += 1
    return frags


def decode_group(
    group_bitmaps: np.ndarray,
    group_values: np.ndarray,
    config: TileConfig = DEFAULT_TILE_CONFIG,
    stats: Optional[DecodeStats] = None,
) -> List[np.ndarray]:
    """Decode every TCTile of a GroupTile (lane-faithful path).

    Returns the list of fragment tensors in storage (column-major TCTile)
    order.  Offsets between TCTiles are accumulated by PopCount exactly as
    the kernel does — nothing but the GroupTile base address is known a
    priori.
    """
    group_bitmaps = np.asarray(group_bitmaps, dtype=np.uint64)
    per_tt = config.bts_per_tt
    if group_bitmaps.size % per_tt:
        raise ValueError("bitmap count is not a whole number of TCTiles")
    if stats is None:
        stats = DecodeStats()

    out: List[np.ndarray] = []
    offset = 0
    for t in range(group_bitmaps.size // per_tt):
        tile_bitmaps = group_bitmaps[t * per_tt : (t + 1) * per_tt]
        out.append(decode_tctile(tile_bitmaps, group_values, offset, stats))
        offset += int(np.sum(popcount64(tile_bitmaps)))
    return out


def decode_group_fast(
    group_bitmaps: np.ndarray,
    group_values: np.ndarray,
    config: TileConfig = DEFAULT_TILE_CONFIG,
) -> Tuple[np.ndarray, DecodeStats]:
    """Vectorised GroupTile decode to a dense ``(gt_h, gt_w)`` tile.

    Produces the same dense tile as scattering :func:`decode_group`'s
    fragments, but via one boolean scatter.  The returned stats mirror the
    instruction counts the lane-faithful path would have charged (they are
    closed-form functions of the tile geometry and population).
    """
    group_bitmaps = np.asarray(group_bitmaps, dtype=np.uint64)
    mask = expand_bitmap_rows(group_bitmaps)  # (nbt, 64)
    rows = np.zeros(mask.shape, dtype=np.float16)
    rows[mask] = np.asarray(group_values, dtype=np.float16)

    # Reassemble storage-order BitmapTiles into the dense GroupTile.
    c = config
    tr, tc = c.gt_h // c.tt_h, c.gt_w // c.tt_w
    br, bc = c.tt_h // c.bt_h, c.tt_w // c.bt_w
    x = rows.reshape(tc, tr, bc, br, c.bt_h, c.bt_w)
    x = x.transpose(1, 3, 4, 0, 2, 5)  # -> (tr, br, r, tc, bc, c)
    dense = x.reshape(c.gt_h, c.gt_w)

    nbt = group_bitmaps.size
    nnz = int(mask.sum())
    stats = DecodeStats(
        popcount_ops=nbt,
        masked_popcount_ops=nbt * WARP_SIZE,
        shared_loads=nnz,
        values_decoded=nnz,
        zeros_filled=nbt * 64 - nnz,
    )
    return dense, stats


def _closed_form_stats(num_bitmaps: int, nnz: int) -> DecodeStats:
    """The instruction counts the lane-faithful path would have charged."""
    return DecodeStats(
        popcount_ops=num_bitmaps,
        masked_popcount_ops=num_bitmaps * WARP_SIZE,
        shared_loads=nnz,
        values_decoded=nnz,
        zeros_filled=num_bitmaps * 64 - nnz,
    )


def decode_group_frags(
    group_bitmaps: np.ndarray,
    group_values: np.ndarray,
    config: TileConfig = DEFAULT_TILE_CONFIG,
) -> Tuple[np.ndarray, DecodeStats]:
    """Vectorised fragment decode of a whole GroupTile.

    Returns ``(tts_per_gt, 32, 4, 2)`` float16 fragments, bit-identical to
    stacking :func:`decode_group`'s output.  All per-lane MaskedPopCount
    offsets fall out of one exclusive cumulative sum over the expanded
    bitmap bits — the batched equivalent of Algorithm 2's per-lane scans.
    """
    group_bitmaps = np.asarray(group_bitmaps, dtype=np.uint64)
    if group_bitmaps.size % config.bts_per_tt:
        raise ValueError("bitmap count is not a whole number of TCTiles")
    values = np.asarray(group_values, dtype=np.float16)

    mask = expand_bitmap_rows(group_bitmaps)  # (nbt, 64) in bit order
    # Exclusive running count over all bits in storage order: element i of
    # the flat scan is the number of set bits strictly before bit i, i.e.
    # exactly base_offset + MaskedPopCount for that bit's lane.
    flat = mask.reshape(-1)
    idx = np.cumsum(flat) - flat  # exclusive cumsum, shape (nbt * 64,)
    gathered = np.zeros(flat.shape, dtype=np.float16)
    gathered[flat] = values[idx[flat]]

    # Bits 2l / 2l+1 of bitmap r are lane l's (a0, a1) of register r.
    nbt = group_bitmaps.size
    frags = gathered.reshape(nbt, WARP_SIZE, 2)
    frags = frags.reshape(-1, config.bts_per_tt, WARP_SIZE, 2)
    frags = frags.transpose(0, 2, 1, 3)  # -> (tiles, lane, reg, phase)
    return np.ascontiguousarray(frags), _closed_form_stats(nbt, int(flat.sum()))


#: Bitmaps :func:`decode_matrix` expands per pass (64 default GroupTiles),
#: which bounds its int64 position temporaries to 2 MB (all bits set).
_DECODE_CHUNK_BITMAPS = 4096


@lru_cache(maxsize=8)
def _storage_to_dense_delta(config: TileConfig) -> np.ndarray:
    """Per-bit shift from a GroupTile's storage order to row-major order.

    Bit ``s`` of a GroupTile's bitmap stream (bit ``s % 64`` of its
    BitmapTile ``s // 64``, TCTiles and BitmapTiles column-major) marks
    the value at row-major offset ``s + delta[s]`` of the dense
    ``(gt_h, gt_w)`` tile.
    """
    c = config
    tr, tc = c.gt_h // c.tt_h, c.gt_w // c.tt_w
    br, bc = c.tt_h // c.bt_h, c.tt_w // c.bt_w
    g = c.gt_h * c.gt_w
    storage = np.arange(g).reshape(tc, tr, bc, br, c.bt_h, c.bt_w)
    # -> (tr, br, bit_row, tc, bc, bit_col): storage index per dense offset
    dense_to_storage = storage.transpose(1, 3, 4, 0, 2, 5).reshape(g)
    delta = np.empty(g, dtype=np.int64)
    delta[dense_to_storage] = np.arange(g) - dense_to_storage
    delta.setflags(write=False)
    return delta


def decode_matrix(
    bitmaps: np.ndarray,
    values: np.ndarray,
    m: int,
    k: int,
    config: TileConfig = DEFAULT_TILE_CONFIG,
    dtype=np.float16,
) -> Tuple[np.ndarray, DecodeStats]:
    """Batched SMBD decode of every GroupTile of an encoded matrix.

    Returns ``(GR, GC, gt_h, gt_w)`` dense GroupTiles of ``dtype`` — the
    same tiles :func:`decode_group_fast` yields one at a time, widened
    exactly when ``dtype`` is float32 — with no Python loop over the
    ``iter_group_tiles`` walk.  ``GR x GC`` is the GroupTile grid of the
    padded matrix.

    Each set bit's storage position ``s`` maps to its dense offset
    through one cached per-config table, so the values land in their
    final layout in a single integer-position scatter: no boolean mask
    scatter, no transpose copy and no separate cast.
    """
    bitmaps = np.asarray(bitmaps, dtype=np.uint64).reshape(-1)
    values = np.asarray(values, dtype=np.float16).reshape(-1)
    c = config
    gr, gc = c.group_grid(m, k)
    if bitmaps.size != gr * gc * c.bts_per_gt:
        raise ValueError(
            f"expected {gr * gc * c.bts_per_gt} bitmaps for a "
            f"{m}x{k} matrix, got {bitmaps.size}"
        )
    g = c.gt_h * c.gt_w
    delta = _storage_to_dense_delta(c)
    # Whole GroupTiles per pass, so chunk-local positions stay aligned.
    step = max(1, _DECODE_CHUNK_BITMAPS // c.bts_per_gt) * c.bts_per_gt
    tiles = np.zeros((gr, gc, c.gt_h, c.gt_w), dtype=dtype)
    flat = tiles.reshape(-1)
    # The table widens exactly and costs less than a cast in the scatter.
    widen = widen_fp16 if tiles.dtype == np.float32 else np.asarray
    nnz = 0
    for start in range(0, bitmaps.size, step):
        s = np.flatnonzero(expand_bitmap_rows(bitmaps[start : start + step]))
        low = s & (g - 1) if g & (g - 1) == 0 else s % g  # s mod G
        s += np.take(delta, low)
        bits = 64 * start
        flat[bits : bits + 64 * step][s] = widen(values[nnz : nnz + s.size])
        nnz += s.size
    if nnz != values.size:
        raise ValueError(
            f"bitmaps mark {nnz} non-zeros but {values.size} values were given"
        )
    return tiles, _closed_form_stats(int(bitmaps.size), nnz)
