"""The SpInfer-SpMM kernel (paper Section 4.3).

Functional path: encodes ``W`` in TCA-BME, walks GroupTiles exactly as a
thread block does — each iteration decodes a WTile out of the compressed
value stream with Shared-Memory Bitmap Decoding and multiplies it against
the matching XTile — and accumulates in FP32.  Two decode routes exist:

* :meth:`SpInferKernel.run` uses the vectorised SMBD (fast, bit-identical);
* :meth:`SpInferKernel.run_fragment_path` drives the lane-faithful SMBD
  (:func:`repro.core.smbd.decode_group`) into per-warp ``mma.m16n8k16``
  fragment math — the instruction-accurate route used to validate the
  register-level decode on small matrices.

Simulated path: TCA-BME traffic per Eq. 9 plus SMBD decode work on the
integer pipes, overlapped (or not, for ablations) per the asynchronous
pipeline of Section 4.3.4.  The ablation variants of Table 1 are selected
by ``variant``:

``"full"``       SMBD + AsyncPipe (the shipping kernel)
``"no_smbd"``    register-file decode path, no overlap, conflicted writes
``"no_async"``   SMBD but serialised pipeline stages
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.smbd import DecodeStats, decode_group, decode_group_fast, decode_matrix
from ..core.tca_bme import TCABMEMatrix, encode, tca_bme_storage_bytes
from ..core.tiles import DEFAULT_TILE_CONFIG, TileConfig
from ..gpu.simulator import Traffic, Work
from ..gpu.tensor_core import warp_tile_matmul
from .base import SpMMKernel, SpMMProblem

__all__ = ["SpInferKernel"]

#: GroupTiles decoded and multiplied per block of :meth:`run_encoded`
#: (whole GroupTile rows, at least one): 512 KB of FP32 tiles with the
#: default 64x64 GroupTile, so a block's decode temporaries and tiles
#: stay in a core's cache until its matmul has read them.
_BLOCK_GROUP_TILES = 32

_VARIANTS = {
    "full": "spinfer",
    "no_smbd": "spinfer_no_smbd",
    "no_async": "spinfer_no_async",
}


class SpInferKernel(SpMMKernel):
    """TCA-BME SpMM with SMBD and the depth-2 asynchronous pipeline."""

    name = "spinfer"

    def __init__(
        self,
        variant: str = "full",
        tile_config: TileConfig = DEFAULT_TILE_CONFIG,
    ):
        if variant not in _VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; options: {sorted(_VARIANTS)}"
            )
        self.variant = variant
        self.name = _VARIANTS[variant]
        self.tile_config = tile_config
        super().__init__()
        self.last_decode_stats: Optional[DecodeStats] = None

    # ---- functional path ---------------------------------------------------------

    def run(self, w_dense: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._check_operands(w_dense, x)
        return self.run_encoded(encode(w_dense, self.tile_config), x)

    def run_encoded(
        self, w: TCABMEMatrix, x: np.ndarray, verify: bool = False
    ) -> np.ndarray:
        """SpMM against a pre-encoded weight matrix (batched SMBD).

        GroupTiles are decoded straight into FP32 one block of whole
        GroupTile rows at a time (:func:`repro.core.smbd.decode_matrix`)
        and each block is multiplied while it is still in cache, as the
        GPU kernel multiplies each decoded tile from shared memory: no
        FP32 copy of the whole matrix is ever made.  Each GroupTile's
        product is the same sgemm the reference loop issues, and partial
        products are accumulated group-column by group-column in storage
        order, so the result is bit-identical to the per-GroupTile walk of
        :meth:`run_encoded_reference`.

        With ``verify=True`` the matrix must be sealed
        (:meth:`~repro.core.tca_bme.TCABMEMatrix.seal`): per-GroupTile
        digests are checked before decoding and the ABFT column-sum
        check runs on the product; either failure raises
        :class:`~repro.integrity.abft.IntegrityError` instead of
        returning corrupted output.
        """
        if verify:
            self._verify_seal(w)
        x32, pm, pk = self._padded_activation(w, x)
        cfg = w.config
        n = x32.shape[1]
        grows, gcols = cfg.group_grid(w.m, w.k)
        xs = x32.reshape(gcols, cfg.gt_w, n)
        out = np.zeros((grows, cfg.gt_h, n), dtype=np.float32)
        stats = DecodeStats()
        step = max(1, _BLOCK_GROUP_TILES // gcols)  # GroupTile rows per block
        bitmaps_per_row = gcols * cfg.bts_per_gt
        for r0 in range(0, grows, step):
            r1 = min(r0 + step, grows)
            lo = int(w.gtile_offsets[r0 * gcols])
            hi = int(w.gtile_offsets[r1 * gcols])
            tiles, block_stats = decode_matrix(
                w.bitmaps[r0 * bitmaps_per_row : r1 * bitmaps_per_row],
                w.values[lo:hi],
                (r1 - r0) * cfg.gt_h,
                w.k,
                cfg,
                dtype=np.float32,
            )
            stats.merge(block_stats)
            # (R, GC, gt_h, gt_w) @ (GC, gt_w, n) -> (R, GC, gt_h, n); each
            # 2-D slice is the same sgemm the reference loop issues per group.
            partial = tiles @ xs
            acc = out[r0:r1]
            for gc in range(gcols):  # in-order adds match the reference walk
                acc += partial[:, gc]
        self.last_decode_stats = stats
        result = out.reshape(pm, n)[: w.m]
        if verify:
            from ..integrity.abft import verify_output

            verify_output(result, x, w.checksum_row, where=self.name)
        return result

    @staticmethod
    def _verify_seal(w: TCABMEMatrix) -> None:
        from ..integrity.abft import IntegrityError

        if not w.sealed:
            raise IntegrityError(
                "verify=True needs a sealed TCA-BME matrix; call seal() "
                "at encode time"
            )
        bad = w.corrupted_groups()
        if bad:
            raise IntegrityError(
                f"TCA-BME digest mismatch in GroupTile(s) {bad}: stored "
                "weights were corrupted after sealing"
            )

    def run_encoded_reference(self, w: TCABMEMatrix, x: np.ndarray) -> np.ndarray:
        """Per-GroupTile scalar walk (the retained reference SpMM path).

        Decodes one GroupTile at a time along ``iter_group_tiles`` and
        accumulates per-group matmuls — the pre-vectorisation hot path,
        kept for bit-exact differential testing against :meth:`run_encoded`.
        """
        x32, pm, _pk = self._padded_activation(w, x)
        cfg = w.config
        out = np.zeros((pm, x32.shape[1]), dtype=np.float32)
        stats = DecodeStats()
        for g, (gr, gc) in enumerate(cfg.iter_group_tiles(w.m, w.k)):
            tile, tile_stats = decode_group_fast(
                w.group_bitmaps(g), w.group_values(g), cfg
            )
            stats.merge(tile_stats)
            out[gr : gr + cfg.gt_h] += tile.astype(np.float32) @ x32[
                gc : gc + cfg.gt_w
            ]
        self.last_decode_stats = stats
        return out[: w.m]

    def _padded_activation(
        self, w: TCABMEMatrix, x: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """FP32 activation zero-padded to whole GroupTiles of K."""
        if w.k != x.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: W is {w.shape}, X is {x.shape}"
            )
        x32 = np.asarray(x, dtype=np.float16).astype(np.float32)
        pm, pk = w.config.padded_shape(w.m, w.k)
        if pk != x32.shape[0]:
            pad = np.zeros((pk - x32.shape[0], x32.shape[1]), dtype=np.float32)
            x32 = np.vstack([x32, pad])
        return x32, pm, pk

    def run_fragment_path(self, w_dense: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Instruction-accurate route: lane-faithful SMBD into mma fragments.

        Exercises MaskedPopCount offset computation per lane and the
        ``mma.m16n8k16`` fragment layouts end to end.  Quadratically
        slower than :meth:`run`; intended for validation on small shapes.
        """
        self._check_operands(w_dense, x)
        w = encode(w_dense, self.tile_config)
        cfg = w.config
        x16 = np.asarray(x, dtype=np.float16)
        pm, pk = cfg.padded_shape(w.m, w.k)
        n = x16.shape[1]
        pn = -(-n // 8) * 8  # B panels feed mma in 16x8 slices
        xp = np.zeros((pk, pn), dtype=np.float16)
        xp[: x16.shape[0], :n] = x16

        out = np.zeros((pm, pn), dtype=np.float32)
        stats = DecodeStats()
        for g, (gr, gc) in enumerate(cfg.iter_group_tiles(w.m, w.k)):
            frags = decode_group(
                w.group_bitmaps(g), w.group_values(g), cfg, stats
            )
            for t, (tr, tc) in enumerate(cfg.iter_tctiles_in_group()):
                row = gr + tr
                col = gc + tc
                acc = out[row : row + 16]
                out[row : row + 16] = warp_tile_matmul(
                    frags[t], xp[col : col + 16], acc
                )
        self.last_decode_stats = stats
        return out[: w.m, :n]

    # ---- simulated path ------------------------------------------------------------

    def _traffic(self, problem: SpMMProblem) -> Traffic:
        weight = float(
            tca_bme_storage_bytes(
                problem.m, problem.k, problem.nnz, self.tile_config
            )
        )
        return Traffic(
            weight_bytes=weight,
            activation_bytes=self._activation_bytes(problem),
            output_bytes=self._output_bytes(problem),
        )

    def _work(self, problem: SpMMProblem) -> Work:
        # Compute-as-dense: decoded tiles run full mma math regardless of
        # sparsity; SMBD charges per surviving value.
        return Work(
            tc_flops=problem.dense_flops,
            decode_values=float(problem.nnz),
        )
