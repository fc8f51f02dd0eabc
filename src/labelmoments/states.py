"""State indexing for exact enumeration over (Y, sources) configurations.

Every joint table in this package is a flat vector of length 2**(m+1) in a
fixed order: bit k of the state index holds source k's sign (bit set means
+1), and the top bit holds Y.  Source-only configuration indices use the
same low-m bits, so ``table.reshape(2, 2**m)[y_bit, config]`` addresses a
single state.

``config_bits`` is the one state table: every reader that needs the sources'
values over all states (the joint's energy, the moment statistics of state
counts, the label model's posterior table, the case study's vote counts)
takes them from its 0/1 bits, as ``2 * bit - 1`` where it needs signs.  The
label needs no table: it is the row of the ``(2, 2**m)`` reshape.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapacityError

ENUMERATION_GUARD = 24


def check_capacity(m: int) -> None:
    if m > ENUMERATION_GUARD:
        raise CapacityError(
            f"exact enumeration supports at most {ENUMERATION_GUARD} sources, got m={m}"
        )


@lru_cache(maxsize=8)
def config_bits(m: int) -> np.ndarray:
    """Read-only (2**m, m) matrix of 0/1 bits for source-only configurations.

    Cached, so every reader at one m shares a single table.
    """
    check_capacity(m)
    idx = np.arange(1 << m, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(m)) & 1).astype(np.float64)
    bits.setflags(write=False)
    return bits


def config_index(values: np.ndarray) -> np.ndarray:
    """Map rows of +-1 source outputs to configuration indices."""
    values = np.asarray(values)
    m = values.shape[-1]
    check_capacity(m)
    bits = (values > 0).astype(np.int64)
    return bits @ (1 << np.arange(m, dtype=np.int64))
