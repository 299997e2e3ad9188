"""Loop-based reference implementation of the TCA-BME codec.

The production encoder (:func:`repro.core.tca_bme.encode`) is a dense
pile of reshapes and transposes; a subtle axis mistake there would still
round-trip (the decoder inverts the same permutation) while silently
breaking the storage order the SMBD kernel depends on.  This module
re-derives the encoding the slow, obvious way — walking tiles with
explicit loops exactly as the format specification (paper Section 4.2)
reads — so tests can compare the two implementations element by element.

Never use this for real work; it is O(M*K) Python-loop slow by design.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .tca_bme import TCABMEMatrix, require_2d
from .tiles import DEFAULT_TILE_CONFIG, TileConfig

__all__ = ["encode_reference"]


def _bitmap_and_values(
    block: np.ndarray,
) -> Tuple[int, List[np.float16]]:
    """One BitmapTile: row-major bit scan, values in bit order."""
    bitmap = 0
    values: List[np.float16] = []
    for r in range(8):
        for c in range(8):
            v = block[r, c]
            if v != 0:
                bitmap |= 1 << (r * 8 + c)
                values.append(v)
    return bitmap, values


def encode_reference(
    dense: np.ndarray, config: TileConfig = DEFAULT_TILE_CONFIG
) -> TCABMEMatrix:
    """Encode via the specification's nested tile walk.

    GroupTiles row-major over the padded matrix; TCTiles column-major in
    a GroupTile; BitmapTiles column-major (Ra-register order) in a
    TCTile; bits row-major in a BitmapTile.
    """
    dense16 = require_2d(dense)
    m, k = dense16.shape

    pm, pk = config.padded_shape(m, k)
    padded = np.zeros((pm, pk), dtype=np.float16)
    padded[:m, :k] = dense16

    bitmaps: List[int] = []
    values: List[np.float16] = []
    offsets: List[int] = [0]

    for g_r, g_c in config.iter_group_tiles(m, k):
        for t_r, t_c in config.iter_tctiles_in_group():
            for b_r, b_c in config.iter_bitmaptiles_in_tctile():
                r0 = g_r + t_r + b_r
                c0 = g_c + t_c + b_c
                bitmap, tile_values = _bitmap_and_values(
                    padded[r0 : r0 + 8, c0 : c0 + 8]
                )
                bitmaps.append(bitmap)
                values.extend(tile_values)
        offsets.append(len(values))

    return TCABMEMatrix(
        shape=(m, k),
        gtile_offsets=np.asarray(offsets, dtype=np.uint32),
        values=np.asarray(values, dtype=np.float16),
        bitmaps=np.asarray(bitmaps, dtype=np.uint64),
        config=config,
    )
