"""Dense third-order tensor storage, norms, and file I/O.

A tensor is a plain ``numpy.ndarray`` of shape ``(n1, n2, n3)`` and dtype
float64.  Frontal slice ``k`` (0-based) is ``A[:, :, k]``; the tube at
``(i, j)`` is ``A[i, j, :]``.  The file reader and writer pass their tensor
through :func:`as_tensor`, which checks shape and finiteness.

On-disk format (``.tns3``): magic bytes ``TNS3``, then ``n1, n2, n3`` as
little-endian uint64, then the entries as little-endian float64 in
slice-major order (k slowest, then i, then j fastest).
"""

from __future__ import annotations

import struct
from typing import BinaryIO, NamedTuple

import numpy as np

__all__ = [
    "TensorDims",
    "as_tensor",
    "norm_l1",
    "norm_inf",
    "norm_fro",
    "write_tensor",
    "read_tensor",
    "load_tensor",
]

_MAGIC = b"TNS3"

# Total entry count above this would overflow practical memory; guards the
# binary reader against corrupted headers.
_MAX_ENTRIES = 1 << 40

# Size of each read of a tensor file's payload.
_CHUNK_BYTES = 1 << 20


class TensorDims(NamedTuple):
    """Extents of a third-order tensor."""

    n1: int
    n2: int
    n3: int

    @property
    def n_max(self) -> int:
        return max(self.n1, self.n2)

    @property
    def n_min(self) -> int:
        return min(self.n1, self.n2)

    @property
    def total(self) -> int:
        return self.n1 * self.n2 * self.n3

    def validate(self) -> "TensorDims":
        if self.n1 < 1 or self.n2 < 1 or self.n3 < 1:
            raise ValueError(f"tensor extents must be >= 1, got {tuple(self)}")
        if self.total > _MAX_ENTRIES:
            raise ValueError(f"tensor of {tuple(self)} entries is too large")
        return self


def as_tensor(a) -> np.ndarray:
    """Coerce `a` to a float64 3-way array, validating shape and finiteness."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={arr.ndim}")
    TensorDims(*arr.shape).validate()
    if not np.isfinite(arr).all():
        raise ValueError("tensor contains NaN or Inf entries")
    return arr


def norm_l1(A: np.ndarray) -> float:
    return float(np.abs(A).sum())


def norm_inf(A: np.ndarray) -> float:
    return float(np.abs(A).max()) if A.size else 0.0


def norm_fro(A: np.ndarray) -> float:
    """Frobenius norm.  OpenBLAS splits the dot product behind it over its threads, which
    changes the rounding, so it runs on one BLAS thread: the same bits at any thread count."""
    from .t_algebra import _one_blas_thread

    with _one_blas_thread():
        return float(np.linalg.norm(A.ravel()))


# ---------------------------------------------------------------------------
# Binary tensor file format
# ---------------------------------------------------------------------------


def write_tensor(f: BinaryIO, A: np.ndarray) -> None:
    """Write a tensor to an open binary stream in TNS3 format."""
    A = as_tensor(A)
    n1, n2, n3 = A.shape
    f.write(_MAGIC)
    f.write(struct.pack("<QQQ", n1, n2, n3))
    # slice-major order: k slowest, j fastest; written through the buffer of the one copy
    f.write(np.ascontiguousarray(np.moveaxis(A, 2, 0), dtype="<f8"))


def read_tensor(f: BinaryIO) -> np.ndarray:
    """Read a tensor from an open binary stream, rejecting malformed data."""
    magic = f.read(4)
    if magic != _MAGIC:
        raise ValueError(f"bad magic bytes {magic!r}, expected {_MAGIC!r}")
    header = f.read(24)
    if len(header) != 24:
        raise ValueError("truncated tensor header")
    n1, n2, n3 = struct.unpack("<QQQ", header)
    dims = TensorDims(n1, n2, n3).validate()
    expected = 8 * dims.total
    # read in chunks up to one byte past the payload, so memory grows only
    # with the bytes that actually arrive and a corrupted header cannot turn
    # into a huge read buffer, whatever the stream
    payload = bytearray()
    while len(payload) <= expected:
        chunk = f.read(min(_CHUNK_BYTES, expected + 1 - len(payload)))
        if not chunk:
            break
        payload += chunk
    if len(payload) != expected:
        raise ValueError(f"payload size mismatch: expected {expected} bytes, got {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f8")
    return as_tensor(np.moveaxis(flat.reshape(n3, n1, n2), 0, 2))


def load_tensor(path) -> np.ndarray:
    """Read a tensor file; a malformed one raises ``ValueError`` starting with ``path``."""
    with open(path, "rb") as f:
        try:
            return read_tensor(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
