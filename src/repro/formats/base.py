"""Common interface for sparse matrix storage formats.

Every format under :mod:`repro.formats` (and TCA-BME itself, adapted in
:mod:`repro.formats.registry`) exposes the same surface so the compression
study (paper Fig. 3) and the kernel cost model can treat them uniformly:

* ``from_dense`` / ``to_dense`` — exact round trip through the format.
* ``storage_bytes`` — the byte count the format's own storage equation
  gives for this matrix (paper Eqs. 2, 3, 5, 9).
* ``compression_ratio`` — dense FP16 bytes / ``storage_bytes`` (Eq. 1).

``storage_bytes`` is what the SpMM kernel must read from DRAM to consume
the weight matrix, which is why CR governs compute intensity (Eq. 7) and
ultimately kernel performance in the memory-bound regime.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from ..core.tca_bme import require_2d

__all__ = ["SparseFormat", "dense_bytes", "require_2d"]

#: Bytes per dense FP16 element.
FP16_BYTES = 2


def dense_bytes(m: int, k: int) -> int:
    """Size of the dense FP16 matrix — numerator of Eq. 1."""
    return FP16_BYTES * m * k


class SparseFormat(abc.ABC):
    """Abstract sparse weight-matrix container.

    Subclasses store an ``M x K`` FP16 matrix and must reconstruct it
    exactly (``to_dense`` is bit-exact, not approximate).
    """

    #: Short name used by the registry and bench tables.
    name: str = "abstract"

    def __init__(self, shape: Tuple[int, int]):
        self._shape = (int(shape[0]), int(shape[1]))

    # ---- required interface ----------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseFormat":
        """Encode a dense matrix."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Decode back to dense float16 (exact)."""

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Actual encoded size in bytes, per the format's storage equation."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored non-zero elements."""

    # ---- shared derived quantities ------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def m(self) -> int:
        return self._shape[0]

    @property
    def k(self) -> int:
        return self._shape[1]

    @property
    def sparsity(self) -> float:
        total = self.m * self.k
        return 1.0 - self.nnz / total if total else 0.0

    def compression_ratio(self) -> float:
        """CR per paper Eq. 1; below 1 means the format *inflates* storage."""
        return dense_bytes(self.m, self.k) / self.storage_bytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"bytes={self.storage_bytes()})"
        )
