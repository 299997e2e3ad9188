"""Tensor-Core-Aware Bitmap Encoding (TCA-BME) — paper Section 4.2.

TCA-BME stores a sparse FP16 weight matrix in three arrays:

``GTileOffset`` (``uint32``, ``NGT + 1`` entries)
    Start offset of each GroupTile's slice of the ``Values`` array, in
    elements.  Enables direct thread-block addressing of its GroupTile.

``Values`` (``float16``, ``NNZ`` entries)
    All non-zero elements, serialised in nested storage order:
    GroupTiles row-major over the matrix, TCTiles column-major within a
    GroupTile, BitmapTiles column-major (Ra-register order) within a
    TCTile, and bit order (row-major) within each 8x8 BitmapTile.

``Bitmap`` (``uint64``, ``NBT`` entries)
    One 64-bit occupancy bitmap per BitmapTile, in the same storage order.

Total storage (paper Eq. 9)::

    Stor = 4B * (NGT + 1) + 8B * NBT + 2B * NNZ

The real kernel additionally pads each GroupTile's value slice to an
8-byte boundary so ``LDGSTS.128`` vectorised loads stay aligned (Section
4.3.2); :meth:`TCABMEMatrix.storage_bytes_aligned` accounts for that.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .bitmap import expand_bitmap_rows, pack_bitmap_rows
from .tiles import DEFAULT_TILE_CONFIG, TileConfig

__all__ = ["TCABMEMatrix", "encode", "require_2d", "tca_bme_storage_bytes"]

#: Elements per 8-byte LDGSTS alignment boundary (FP16 values).
_ALIGN_ELEMS = 4

#: Largest finite FP16 magnitude.
FP16_MAX = float(np.finfo(np.float16).max)


def require_2d(dense: np.ndarray) -> np.ndarray:
    """Validate and normalise an input matrix to float16.

    Every encoder stores FP16 values, so an element that is NaN, ±inf or
    outside ``[-65504, 65504]`` would be stored as inf/NaN; it is
    rejected with a ``ValueError`` naming the first such ``(row, col)``
    in row-major order.
    """
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
    if dense.shape[0] == 0 or dense.shape[1] == 0:
        raise ValueError("matrix must be non-empty")
    if dense.dtype == np.float16:
        # Only inf/NaN are possible: an all-ones exponent.  numpy has no
        # fast fp16 reductions, so test the bits as integers.
        ok = (dense.view(np.uint16) & np.uint16(0x7FFF)).max() < 0x7C00
    else:
        # max/min propagate NaN, so one pair of reductions covers it.
        ok = dense.max() <= FP16_MAX and dense.min() >= -FP16_MAX
    if not ok:
        bad = ~(np.abs(dense.astype(np.float64)) <= FP16_MAX)
        row, col = (int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"element ({row}, {col}) = {float(dense[row, col])} is not a "
            f"finite fp16 value (|w| <= {FP16_MAX:g})"
        )
    return dense.astype(np.float16, copy=False)


def _storage_order_view(padded: np.ndarray, config: TileConfig) -> np.ndarray:
    """Rearrange a padded matrix into ``(NBT, 64)`` storage-order rows.

    Row ``i`` holds the 64 elements of the ``i``-th BitmapTile in storage
    order; within a row, elements appear in bit order.  The transform is a
    pure reshape/transpose, so it is its own inverse (see
    :func:`_storage_order_inverse`).
    """
    pm, pk = padded.shape
    c = config
    gr, gc = pm // c.gt_h, pk // c.gt_w
    tr, tc = c.gt_h // c.tt_h, c.gt_w // c.tt_w
    br, bc = c.tt_h // c.bt_h, c.tt_w // c.bt_w
    # (GR, gt_h, GC, gt_w) with gt_h = TR*br*8, gt_w = TC*bc*8
    x = padded.reshape(gr, tr, br, c.bt_h, gc, tc, bc, c.bt_w)
    # target order: GR, GC, TC, TR, bc, br, r, c
    x = x.transpose(0, 4, 5, 1, 6, 2, 3, 7)
    return x.reshape(-1, c.bt_h * c.bt_w)


def _storage_order_inverse(
    rows: np.ndarray, pm: int, pk: int, config: TileConfig
) -> np.ndarray:
    """Inverse of :func:`_storage_order_view`: rows back to a padded matrix."""
    c = config
    gr, gc = pm // c.gt_h, pk // c.gt_w
    tr, tc = c.gt_h // c.tt_h, c.gt_w // c.tt_w
    br, bc = c.tt_h // c.bt_h, c.tt_w // c.bt_w
    x = rows.reshape(gr, gc, tc, tr, bc, br, c.bt_h, c.bt_w)
    x = x.transpose(0, 3, 5, 6, 1, 2, 4, 7)
    return x.reshape(pm, pk)


def tca_bme_storage_bytes(
    m: int, k: int, nnz: int, config: TileConfig = DEFAULT_TILE_CONFIG
) -> int:
    """Analytic storage size of TCA-BME per paper Eq. 9 (no padding)."""
    ngt = config.num_group_tiles(m, k)
    nbt = config.num_bitmap_tiles(m, k)
    return 4 * (ngt + 1) + 8 * nbt + 2 * nnz


@dataclass
class TCABMEMatrix:
    """A sparse ``M x K`` FP16 matrix in TCA-BME form.

    Construct via :func:`encode` (or :meth:`from_dense`); the raw arrays
    are exposed for the kernels and the simulator.
    """

    shape: Tuple[int, int]
    gtile_offsets: np.ndarray  # uint32, (NGT + 1,)
    values: np.ndarray  # float16, (NNZ,)
    bitmaps: np.ndarray  # uint64, (NBT,)
    config: TileConfig = field(default_factory=lambda: DEFAULT_TILE_CONFIG)
    # ---- integrity seal (None until seal(); unsealed == pre-seal) -----
    #: Per-GroupTile content digest (uint32, NGT entries): CRC over the
    #: GroupTile's bitmap and value slices.  A corrupted tile is caught
    #: at decode time by :meth:`corrupted_groups` before any FLOP is
    #: spent on it.
    tile_digests: Optional[np.ndarray] = None
    #: ABFT checksum row ``e^T W`` (float64, K entries).  For any input
    #: ``X``, a correct SpMM output satisfies
    #: ``Y.sum(axis=0) == checksum_row @ X`` up to FP16 rounding — the
    #: O(KN + MN) post-multiply check the kernels run under verify mode.
    checksum_row: Optional[np.ndarray] = None

    # ---- constructors ----------------------------------------------------------

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, config: TileConfig = DEFAULT_TILE_CONFIG
    ) -> "TCABMEMatrix":
        return encode(dense, config)

    # ---- basic properties ------------------------------------------------------

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def k(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def num_group_tiles(self) -> int:
        return int(self.gtile_offsets.size - 1)

    @property
    def num_bitmap_tiles(self) -> int:
        return int(self.bitmaps.size)

    @property
    def sparsity(self) -> float:
        """Fraction of zero elements of the *logical* (unpadded) matrix."""
        total = self.m * self.k
        return 1.0 - self.nnz / total if total else 0.0

    # ---- storage accounting ------------------------------------------------------

    def storage_bytes(self) -> int:
        """Exact storage per paper Eq. 9 (offsets + bitmaps + values)."""
        return int(
            4 * self.gtile_offsets.size + 8 * self.bitmaps.size + 2 * self.values.size
        )

    def storage_bytes_aligned(self) -> int:
        """Storage with each GroupTile value slice padded to 8 bytes.

        This is what the kernel actually transfers: padding keeps every
        GroupTile's ``LDGSTS.128`` base address aligned (Section 4.3.2).
        """
        nnz_per_gt = np.diff(self.gtile_offsets.astype(np.int64))
        padded = (nnz_per_gt + _ALIGN_ELEMS - 1) // _ALIGN_ELEMS * _ALIGN_ELEMS
        return int(
            4 * self.gtile_offsets.size + 8 * self.bitmaps.size + 2 * padded.sum()
        )

    def compression_ratio(self) -> float:
        """CR = dense FP16 bytes / TCA-BME bytes (paper Eq. 1)."""
        return (2.0 * self.m * self.k) / self.storage_bytes()

    # ---- per-GroupTile access (used by the kernels) ------------------------------

    def group_values(self, g: int) -> np.ndarray:
        """The ``g``-th GroupTile's slice of the Values array."""
        lo = int(self.gtile_offsets[g])
        hi = int(self.gtile_offsets[g + 1])
        return self.values[lo:hi]

    def group_bitmaps(self, g: int) -> np.ndarray:
        """The ``g``-th GroupTile's bitmaps, in storage order."""
        per = self.config.bts_per_gt
        return self.bitmaps[g * per : (g + 1) * per]

    def group_nnz(self) -> np.ndarray:
        """Non-zeros per GroupTile (int64 array of length NGT)."""
        return np.diff(self.gtile_offsets.astype(np.int64))

    # ---- integrity seal (ABFT checksums + per-tile digests) ----------------------

    @property
    def sealed(self) -> bool:
        return self.tile_digests is not None

    def _group_digest(self, g: int) -> int:
        crc = zlib.crc32(self.group_bitmaps(g).tobytes())
        return zlib.crc32(self.group_values(g).tobytes(), crc) & 0xFFFFFFFF

    def seal(self) -> "TCABMEMatrix":
        """Attach integrity metadata: one CRC digest per GroupTile plus
        the ABFT checksum row ``e^T W``.  Sealing is opt-in and changes
        nothing else — an unsealed matrix is byte-identical to one built
        before the integrity layer existed.
        """
        self.tile_digests = np.array(
            [self._group_digest(g) for g in range(self.num_group_tiles)],
            dtype=np.uint32,
        )
        self.checksum_row = self.to_dense().astype(np.float64).sum(axis=0)
        return self

    def corrupted_groups(self) -> List[int]:
        """GroupTiles whose content no longer matches the seal, sorted."""
        if not self.sealed:
            raise ValueError("matrix is not sealed; call seal() first")
        return [
            g
            for g in range(self.num_group_tiles)
            if self._group_digest(g) != int(self.tile_digests[g])
        ]

    def verify_digests(self) -> None:
        """Raise ``ValueError`` naming the corrupted GroupTiles, if any."""
        bad = self.corrupted_groups()
        if bad:
            raise ValueError(
                f"TCA-BME digest mismatch in GroupTile(s) {bad}: "
                "stored content does not match the seal"
            )

    def corrupt_group(self, g: int) -> None:
        """Flip one payload bit inside GroupTile ``g`` (fault injection).

        Models a silent bit flip in device memory: the structure stays
        valid, the numbers are wrong.  Requires a non-empty GroupTile.
        """
        lo = int(self.gtile_offsets[g])
        hi = int(self.gtile_offsets[g + 1])
        if hi <= lo:
            raise ValueError(f"GroupTile {g} holds no values to corrupt")
        self.values[lo : lo + 1].view(np.uint16)[0] ^= 1 << 9

    # ---- reconstruction ------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Decode back to a dense ``float16`` matrix (exact round trip)."""
        c = self.config
        pm, pk = c.padded_shape(self.m, self.k)
        mask = expand_bitmap_rows(self.bitmaps)
        rows = np.zeros(mask.shape, dtype=np.float16)
        rows[mask] = self.values
        padded = _storage_order_inverse(rows, pm, pk, c)
        return np.ascontiguousarray(padded[: self.m, : self.k])

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        c = self.config
        if self.gtile_offsets[0] != 0:
            raise ValueError("GTileOffset must start at 0")
        if int(self.gtile_offsets[-1]) != self.values.size:
            raise ValueError("last GTileOffset must equal NNZ")
        if np.any(np.diff(self.gtile_offsets.astype(np.int64)) < 0):
            raise ValueError("GTileOffset must be non-decreasing")
        if self.bitmaps.size != c.num_bitmap_tiles(self.m, self.k):
            raise ValueError("bitmap count does not match matrix geometry")
        from .bitmap import popcount64

        total_bits = int(np.sum(popcount64(self.bitmaps)))
        if total_bits != self.values.size:
            raise ValueError(
                f"bitmap population {total_bits} != value count {self.values.size}"
            )


def encode(
    dense: np.ndarray, config: TileConfig = DEFAULT_TILE_CONFIG
) -> TCABMEMatrix:
    """Encode a dense matrix into TCA-BME form.

    The matrix is zero-padded up to whole GroupTiles; padding is invisible
    to :meth:`TCABMEMatrix.to_dense` and contributes no values (only bitmap
    and offset entries, exactly as on the GPU).
    """
    dense16 = require_2d(dense)
    m, k = dense16.shape

    pm, pk = config.padded_shape(m, k)
    if (pm, pk) != (m, k):
        padded = np.zeros((pm, pk), dtype=np.float16)
        padded[:m, :k] = dense16
    else:
        padded = dense16

    rows = _storage_order_view(padded, config)  # (NBT, 64)
    mask = rows != 0

    bitmaps = pack_bitmap_rows(mask)

    values = rows[mask].astype(np.float16)

    per_gt = config.bts_per_gt
    nnz_per_gt = mask.reshape(-1, per_gt * config.bt_h * config.bt_w).sum(axis=1)
    offsets = np.concatenate(([0], np.cumsum(nnz_per_gt))).astype(np.uint32)

    return TCABMEMatrix(
        shape=(m, k),
        gtile_offsets=offsets,
        values=values,
        bitmaps=bitmaps,
        config=config,
    )
