"""Source output matrices and their on-disk formats.

A :class:`SourceMatrix` holds n rows of m source votes in {-1, +1}, plus an
optional column of true labels in {-1, +1}.  Two formats are supported:

* CSV with header ``lf_0,...,lf_{m-1}[,y]`` and entries -1/1.
* A compact binary format for large runs: magic ``b"LMSM"``, little-endian
  uint32 n, uint32 m, uint8 label flag, then the row-major sign bits packed
  with ``np.packbits`` (label bits appended when present).
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ContractError
from .states import config_index

_MAGIC = b"LMSM"
_HEADER_BYTES = 13  # magic, uint32 n, uint32 m, uint8 label flag


def _all_signs(a: np.ndarray) -> bool:
    return bool(((a == 1) | (a == -1)).all())


@dataclass(frozen=True)
class SourceMatrix:
    """n x m matrix of source outputs in {-1,+1} with optional labels."""

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        # Entries are checked before the int8 cast, which would wrap 257 to 1
        # and truncate 1.7 to 1.
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ContractError("source matrix must be two-dimensional")
        if not _all_signs(values):
            raise ContractError("source outputs must be -1 or +1")
        object.__setattr__(self, "values", np.ascontiguousarray(values, dtype=np.int8))
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (values.shape[0],):
                raise ContractError("label column length must equal the row count")
            if not _all_signs(labels):
                raise ContractError("labels must be -1 or +1")
            object.__setattr__(self, "labels", np.ascontiguousarray(labels, dtype=np.int8))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def has_labels(self) -> bool:
        return self.labels is not None

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise ContractError("this operation requires labeled data")
        return self.labels

    def state_index(self) -> np.ndarray:
        """Each row's joint-state index over (sources, Y), in row order (labels required)."""
        labels = self.require_labels()
        return config_index(self.values) + ((labels > 0).astype(np.int64) << self.m)

    def config_counts(self) -> np.ndarray:
        """Counts over the 2**m source configurations."""
        return np.bincount(
            config_index(self.values), minlength=1 << self.m
        ).astype(np.float64)

    # -- CSV -------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        header = [f"lf_{i}" for i in range(self.m)]
        cols = [self.values]
        if self.labels is not None:
            header.append("y")
            cols.append(self.labels[:, None])
        body = np.hstack(cols)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            np.savetxt(fh, body, fmt="%d", delimiter=",")

    @classmethod
    def from_csv(cls, path: str | Path) -> "SourceMatrix":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
                if not header[0].startswith("lf_"):
                    raise ContractError(f"{path}: expected a header starting with lf_0")
                try:
                    with warnings.catch_warnings():
                        # An empty body is reported below as a ContractError.
                        warnings.simplefilter("ignore", UserWarning)
                        body = np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2)
                except UnicodeDecodeError:
                    raise
                except ValueError as exc:
                    fh.seek(0)
                    raise ContractError(f"{path}: {_ragged_row(fh, len(header)) or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ContractError(f"{path}: not UTF-8 text ({exc})") from exc
        if body.size == 0:
            raise ContractError(f"{path}: no data rows after the header")
        if body.shape[1] != len(header):
            raise ContractError(
                f"{path}: rows have {body.shape[1]} columns, the header {len(header)}"
            )
        has_labels = header[-1] == "y"
        m = len(header) - (1 if has_labels else 0)
        values = body[:, :m]
        labels = body[:, m] if has_labels else None
        return cls(values, labels)

    # -- binary ----------------------------------------------------------

    def to_binary(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(np.uint32(self.n).tobytes())
            fh.write(np.uint32(self.m).tobytes())
            fh.write(np.uint8(1 if self.has_labels else 0).tobytes())
            fh.write(np.packbits(self.values > 0, axis=None).tobytes())
            if self.labels is not None:
                fh.write(np.packbits(self.labels > 0).tobytes())

    @classmethod
    def from_binary(cls, path: str | Path) -> "SourceMatrix":
        raw = Path(path).read_bytes()
        buf = io.BytesIO(raw)
        if buf.read(4) != _MAGIC:
            raise ContractError(f"{path}: not a source-matrix binary file")
        if len(raw) < _HEADER_BYTES:
            raise ContractError(f"{path}: truncated header")
        n = int(np.frombuffer(buf.read(4), dtype=np.uint32)[0])
        m = int(np.frombuffer(buf.read(4), dtype=np.uint32)[0])
        flag = int(np.frombuffer(buf.read(1), dtype=np.uint8)[0])
        nbytes = (n * m + 7) // 8
        expected = _HEADER_BYTES + nbytes + ((n + 7) // 8 if flag else 0)
        if len(raw) != expected:
            raise ContractError(
                f"{path}: {len(raw)} bytes, but a {n} x {m} matrix"
                f"{' with labels' if flag else ''} takes {expected}"
            )
        bits = np.unpackbits(
            np.frombuffer(buf.read(nbytes), dtype=np.uint8), count=n * m
        )
        values = (2 * bits.reshape(n, m).astype(np.int8)) - 1
        labels = None
        if flag:
            lbytes = (n + 7) // 8
            lbits = np.unpackbits(
                np.frombuffer(buf.read(lbytes), dtype=np.uint8), count=n
            )
            labels = (2 * lbits.astype(np.int8)) - 1
        return cls(values, labels)


def _ragged_row(lines, width: int) -> str | None:
    """Name the first data row (counted from 1 below the header, as ``np.loadtxt``
    counts: blank lines and ``#`` comments skipped) whose column count is not ``width``."""
    rows = filter(None, (line.split("#", 1)[0].strip() for line in islice(lines, 1, None)))
    for r, row in enumerate(rows, 1):
        if (k := row.count(",") + 1) != width:
            return f"row {r} has {k} columns, the header {width}"
    return None


def load_source_matrix(path: str | Path) -> SourceMatrix:
    """Load either format, chosen by sniffing the magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _MAGIC:
        return SourceMatrix.from_binary(path)
    return SourceMatrix.from_csv(path)

