"""Dense Tensor-Core GEMM — the cuBLAS baseline every figure normalises to.

cuBLAS represents the ideal data path of paper Fig. 7: ``LDGSTS`` moves
operand tiles straight from global to shared memory, bypassing L1 and the
register file, and Tensor Cores run near peak.  Sparsity buys it nothing:
it always reads the full ``2B * M * K`` weight panel.
"""

from __future__ import annotations

import numpy as np

from ..core.fp16 import widen_fp16
from ..gpu.simulator import Traffic, Work
from .base import SpMMKernel, SpMMProblem

__all__ = ["CuBLASKernel"]


class CuBLASKernel(SpMMKernel):
    """FP16 Tensor-Core GEMM with FP32 accumulation."""

    name = "cublas_tc"

    def run(self, w_dense: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._check_operands(w_dense, x)
        w16 = np.asarray(w_dense, dtype=np.float16)
        x16 = np.asarray(x, dtype=np.float16)
        # FP16 multiplicands, FP32 accumulate — the mma contract.
        return widen_fp16(w16) @ widen_fp16(x16)

    def _traffic(self, problem: SpMMProblem) -> Traffic:
        return Traffic(
            weight_bytes=2.0 * problem.m * problem.k,
            activation_bytes=self._activation_bytes(problem),
            output_bytes=self._output_bytes(problem),
        )

    def _work(self, problem: SpMMProblem) -> Work:
        return Work(tc_flops=problem.dense_flops)
