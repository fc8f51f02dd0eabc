"""State indexing for exact enumeration over (Y, sources) configurations.

Every joint table in this package is a flat vector of length 2**(m+1) in a
fixed order: bit k of the state index holds source k's sign (bit set means
+1), and the top bit holds Y.  Source-only configuration indices use the
same low-m bits, so ``table.reshape(2, 2**m)[y_bit, config]`` addresses a
single state.
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
def sign_rows(m: int) -> np.ndarray:
    """Read-only (m+1, 2**(m+1)) table of -1.0/+1.0 signs over every joint state.

    Row k holds source k's sign and row m holds Y's.  Each row is filled in
    place and stays contiguous, so a reduction along a row sums in the same
    order as over a freshly built sign vector.  Cached, so every reader at
    one m shares a single table.
    """
    check_capacity(m)
    idx = np.arange(1 << (m + 1), dtype=np.int64)
    rows = np.empty((m + 1, idx.size))
    for k in range(m + 1):
        np.multiply((idx >> k) & 1, 2.0, out=rows[k])
        rows[k] -= 1.0
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=8)
def config_bits(m: int) -> np.ndarray:
    """Read-only (2**m, m) matrix of 0/1 bits for source-only configurations.

    Cached like :func:`sign_rows`, so every label-model table at one m
    shares it.
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
