"""Flash-LLM's Load-as-Sparse-Compute-as-Dense SpMM (Xia et al., 2023).

The kernel loads Tiled-CSL ``NonZeros`` words into the register file with
``LDG.128``, unpacks them into a dense shared-memory tile (a data-driven
scatter that eats bank conflicts — paper Fig. 7 and Fig. 12), and then
computes dense mma math on the reconstructed tile.  Traffic follows Eq. 2:
4 bytes per non-zero, so at 50 % sparsity Flash-LLM reads exactly as many
weight bytes as cuBLAS reads for the dense matrix — the reason it only
breaks even there (paper Fig. 1).
"""

from __future__ import annotations

import numpy as np

from ..formats.tiled_csl import DEFAULT_TILE, TiledCSLMatrix
from ..gpu.simulator import Traffic, Work
from .base import SpMMKernel, SpMMProblem

__all__ = ["FlashLLMKernel"]


class FlashLLMKernel(SpMMKernel):
    """Tiled-CSL SpMM: register-file unpack, then dense Tensor-Core math."""

    name = "flash_llm"

    def run(self, w_dense: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._check_operands(w_dense, x)
        w = TiledCSLMatrix.from_dense(w_dense)
        return self.run_encoded(w, x)

    def run_encoded(
        self, w: TiledCSLMatrix, x: np.ndarray, verify: bool = False
    ) -> np.ndarray:
        """SpMM against a pre-encoded Tiled-CSL matrix (batched unpack).

        Scatters every tile's (location, value) run into a stacked tile
        buffer at once ("load as sparse"), multiplies via one stacked
        matmul ("compute as dense"), and accumulates tile columns in the
        same order as :meth:`run_encoded_reference` — bit-identical
        output, no Python loop over tiles.

        With ``verify=True`` the matrix must be sealed
        (:meth:`~repro.formats.tiled_csl.TiledCSLMatrix.seal`): per-tile
        digests are checked before the unpack and the ABFT column-sum
        check runs on the product; either failure raises
        :class:`~repro.integrity.abft.IntegrityError` instead of
        returning corrupted output.
        """
        if verify:
            self._verify_seal(w)
        th, tw = w.tile_shape
        rows, cols = w.tile_grid
        x32, _pk = self._padded_activation(w, x)
        n = x32.shape[1]

        # A flat index cannot catch a location past its tile's end (it
        # would land in the next tile), so reject one up front.
        if w.locations.size and int(w.locations.max()) >= th * tw:
            raise ValueError(
                f"Tiled-CSL location {int(w.locations.max())} lies outside "
                f"its {th}x{tw} tile"
            )
        tiles = np.zeros((rows * cols, th * tw), dtype=np.float32)
        # One flat int64 position per non-zero: tile start + location.
        pos = np.repeat(
            np.arange(0, rows * cols * th * tw, th * tw, dtype=np.int64),
            np.diff(w.tile_offsets.astype(np.int64)),
        )
        pos += w.locations
        tiles.reshape(-1)[pos] = w.values
        # (rows, cols, th, tw) @ (cols, tw, n) -> (rows, cols, th, n); the
        # 2-D slices are the same sgemms the reference loop issues.
        partial = tiles.reshape(rows, cols, th, tw) @ x32.reshape(cols, tw, n)
        out = np.zeros((rows, th, n), dtype=np.float32)
        for tc in range(cols):  # in-order adds match the reference walk
            out += partial[:, tc]
        result = out.reshape(rows * th, n)[: w.m]
        if verify:
            from ..integrity.abft import verify_output

            verify_output(result, x, w.checksum_row, where=self.name)
        return result

    @staticmethod
    def _verify_seal(w: TiledCSLMatrix) -> None:
        from ..integrity.abft import IntegrityError

        if not w.sealed:
            raise IntegrityError(
                "verify=True needs a sealed Tiled-CSL matrix; call "
                "seal() at encode time"
            )
        bad = w.corrupted_tiles()
        if bad:
            raise IntegrityError(
                f"Tiled-CSL digest mismatch in tile(s) {bad}: stored "
                "weights were corrupted after sealing"
            )

    def run_encoded_reference(self, w: TiledCSLMatrix, x: np.ndarray) -> np.ndarray:
        """Per-tile scalar walk (the retained reference SpMM path).

        Unpacks one tile's run at a time into a dense tile buffer and
        accumulates per-tile matmuls — the pre-vectorisation hot path,
        kept for bit-exact differential testing against :meth:`run_encoded`.
        """
        th, tw = w.tile_shape
        rows, cols = w.tile_grid
        x32, _pk = self._padded_activation(w, x)

        out = np.zeros((rows * th, x32.shape[1]), dtype=np.float32)
        tile_buffer = np.empty(th * tw, dtype=np.float32)
        for t in range(rows * cols):
            locs, vals = w.tile_slice(t)
            if locs.size == 0:
                continue  # nothing to unpack; dense math on zeros is a no-op
            tile_buffer[:] = 0.0
            tile_buffer[locs] = vals.astype(np.float32)
            tr, tc = divmod(t, cols)
            out[tr * th : (tr + 1) * th] += tile_buffer.reshape(th, tw) @ x32[
                tc * tw : (tc + 1) * tw
            ]
        return out[: w.m]

    @staticmethod
    def _padded_activation(
        w: TiledCSLMatrix, x: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """FP32 activation zero-padded to whole tiles of K."""
        if w.k != x.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: W is {w.shape}, X is {x.shape}"
            )
        _rows, cols = w.tile_grid
        tw = w.tile_shape[1]
        x32 = np.asarray(x, dtype=np.float16).astype(np.float32)
        pk = cols * tw
        if pk != x32.shape[0]:
            pad = np.zeros((pk - x32.shape[0], x32.shape[1]), dtype=np.float32)
            x32 = np.vstack([x32, pad])
        return x32, pk

    def _traffic(self, problem: SpMMProblem) -> Traffic:
        th, tw = DEFAULT_TILE
        num_tiles = (-(-problem.m // th)) * (-(-problem.k // tw))
        weight = 4.0 * num_tiles + 4.0 * problem.nnz  # Eq. 2
        return Traffic(
            weight_bytes=weight,
            activation_bytes=self._activation_bytes(problem),
            output_bytes=self._output_bytes(problem),
        )

    def _work(self, problem: SpMMProblem) -> Work:
        return Work(
            tc_flops=problem.dense_flops,
            decode_values=float(problem.nnz),
        )
