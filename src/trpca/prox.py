"""Closed-form proximal operators for the two solver subproblems.

``tsvt`` is the prox of the tensor nuclear norm: per-spectral-slice singular
value shrinkage over the half spectrum of the ``t_algebra`` helpers, which
is complex for n3 >= 3 and real for n3 <= 2.  It takes the shrinkage of
every slice from a batched Hermitian (for a real stack, symmetric)
eigendecomposition of the slices' Gram matrices (Cai & Osher, "Fast singular
value thresholding without singular value decomposition", 2013), and from
``t_algebra._svd``, the one batched SVD of a half spectrum, when squaring
the slices would lose accuracy (see ``GRAM_RATIO``).  The slice norms that pick
the route, the factorization and the rebuild run in blocks of slices, in one chunk
per core above ``t_algebra.PARALLEL_FLOOR`` (``t_algebra._blockwise``).
``soft_threshold`` is the prox of the elementwise l1 norm; it and the
solver's fused update both shrink through ``_shrink``.

Under the unnormalized-forward / 1/n3-inverse DFT convention, the per-slice
shrinkage threshold equals tau itself: the 1/n3 in the nuclear norm
definition and the 1/n3 from Parseval on the Frobenius term cancel.
"""

from __future__ import annotations

import numpy as np

from .t_algebra import (
    _blockwise, _chunks, _factor_blocks, _from_half_spectrum, _half_spectrum, _one_blas_thread, _svd
)
from .tensor_core import as_tensor

__all__ = ["tsvt", "soft_threshold"]

# eigh of the Gram matrix M^H M finds each eigenvalue s^2 to about
# eps * sigma_1^2, so a singular value s near tau comes out off by about
# eps * sigma_1^2 / tau, and the shrunk slice by eps * (sigma_1 / tau)^2 * tau.
# Against the SVD route on random 30x30 slices, max|diff| / tau measured
# 1.3e-13 at sigma_1 / tau = 1e2, 1.6e-9 at 1e4, 2.8e-5 at 1e6 and 7e-2 at
# 1e8.  The Gram route is taken only while every slice's Frobenius norm, which
# bounds its sigma_1, is at most GRAM_RATIO * tau, keeping that error near
# 1e4 * eps * tau.
GRAM_RATIO = 100.0


def tsvt(Y: np.ndarray, tau: float) -> np.ndarray:
    """Minimizer of tau*||L||_tnn + (1/2)*||L - Y||_F^2.

    Each spectral slice Y_k gets a matrix SVT with threshold tau.  When
    every ||Y_k||_F, which bounds the slice's singular values, is at most tau,
    the result is zero and nothing is factored.  When every ||Y_k||_F is at
    most ``GRAM_RATIO * tau``, the slices are shrunk
    through the eigendecomposition of their Gram matrices on the smaller
    side, with an error of about eps * (sigma_1 / tau)^2 * tau; otherwise,
    or when that eigendecomposition fails, through the SVD.  Either way the
    slices are rebuilt together up to the largest rank kept in any of them;
    the shrunk singular values past a slice's own rank are zero, so this
    equals truncating each slice separately.  All of it goes by blocks of
    slices, in one chunk per core above the parallel layer's work floor, and no
    temporary but the factors is as large as the stack; no bit depends on that.
    Everything after the zero check runs with OpenBLAS on one thread.  Y is freed once its
    half spectrum exists, if the caller holds no other reference, so a caller that hands
    over its only one has that memory back before the factorization.  A spectrum that is not
    finite reaches ``_svd``, which raises ``np.linalg.LinAlgError``.
    """
    if not tau > 0:  # NaN too
        raise ValueError(f"tau must be positive, got {tau}")
    Y = as_tensor(Y)
    shape, stack = Y.shape, _half_spectrum(Y)
    del Y
    pieces = _chunks(stack)
    # each block's largest slice norm; a NaN one fails both guards, which Python's max would
    # skip after the first block
    tops = _blockwise(lambda b: np.linalg.norm(stack[b], axis=(1, 2)).max(), pieces)
    if all(top <= tau for top in tops):  # every singular value shrinks to 0
        return np.zeros(shape)
    with _one_blas_thread():
        if all(top <= GRAM_RATIO * tau for top in tops):
            try:
                return _from_half_spectrum(_gram_svt(stack, tau, pieces), shape[2])
            except np.linalg.LinAlgError:
                pass  # eigh did not converge; the SVD, with its own retry, decides
        U, s, Vh = _svd(stack)
        s = np.maximum(s - tau, 0.0)
        r = int(np.count_nonzero(s, axis=1).max())
        # the factors replace the stack, so the stack takes the result
        _blockwise(lambda b: np.matmul(U[b, :, :r] * s[b, None, :r], Vh[b, :r], out=stack[b]),
                   pieces)
        del U, Vh
        return _from_half_spectrum(stack, shape[2])


def _gram_svt(stack: np.ndarray, tau: float, pieces: list) -> np.ndarray:
    """SVT of every slice from a batched eigh of the Gram matrices M^H M, written over the stack.

    M is the slice, or its conjugate transpose for a wide slice, so the Gram
    matrix is on the smaller side.  With M = U S V^H, the shrunk slice
    U (S - tau)_+ V^H equals (M V) diag((1 - tau/s)_+) V^H, which each block of slices
    is rebuilt from, a wide block conjugate-transposed back into the stack.
    """
    wide = stack.shape[1] < stack.shape[2]

    def factor(b):
        S, H = stack[b], stack[b].conj().swapaxes(1, 2)
        G = np.matmul(S, H) if wide else np.matmul(H, S)
        del H  # one block's conjugate fewer while eigh runs
        return np.linalg.eigh(G)

    p = min(stack.shape[1:])
    lam, V = _factor_blocks(factor, stack, pieces, ((p,), float), ((p, p), stack.dtype))
    # eigenvalues ascend, so the kept ones are the last columns of V
    s = np.sqrt(np.maximum(lam, 0.0))
    first = p - int(np.count_nonzero(s > tau, axis=1).max())
    w = 1.0 - tau / np.maximum(s[:, first:], tau)

    def rebuild(b):
        M, Vb = stack[b].conj().swapaxes(1, 2) if wide else stack[b], V[b, :, first:]
        MVw, Vh = (M @ Vb) * w[b, None, :], Vb.conj().swapaxes(1, 2)
        out = np.matmul(MVw, Vh, out=None if wide else stack[b])
        if wide:
            np.conjugate(out.swapaxes(1, 2), out=stack[b])

    _blockwise(rebuild, pieces)
    return stack


def soft_threshold(Y: np.ndarray, tau: float) -> np.ndarray:
    """Minimizer of tau*||E||_1 + (1/2)*||E - Y||_F^2, entrywise shrinkage."""
    if not tau > 0:  # NaN too
        raise ValueError(f"tau must be positive, got {tau}")
    Y = np.asarray(Y, dtype=np.float64)
    return _shrink(Y, tau, np.empty_like(Y))


def _shrink(B: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """sign(B) * max(|B| - tau, 0) into ``out``, which must not overlap ``B``."""
    np.abs(B, out=out)
    out -= tau
    np.maximum(out, 0.0, out=out)
    out *= np.sign(B)
    return out
