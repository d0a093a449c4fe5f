"""Closed-form proximal operators for the two solver subproblems.

``tsvt`` is the prox of the tensor nuclear norm: per-spectral-slice singular
value shrinkage over the half spectrum of the ``t_algebra`` helpers, which
is complex for n3 >= 3 and real for n3 <= 2.  It takes the shrinkage of
every slice from a batched Hermitian (for a real stack, symmetric)
eigendecomposition of the slices' Gram matrices (Cai & Osher, "Fast singular
value thresholding without singular value decomposition", 2013), and from
a batched SVD when squaring the slices would lose accuracy (see
``GRAM_RATIO``); above ``t_algebra.PARALLEL_FLOOR`` each batch is one chunk
of the slices per core.  ``soft_threshold`` is the prox of the elementwise l1 norm.

Under the unnormalized-forward / 1/n3-inverse DFT convention, the per-slice
shrinkage threshold equals tau itself: the 1/n3 in the nuclear norm
definition and the 1/n3 from Parseval on the Frobenius term cancel.
"""

from __future__ import annotations

import numpy as np

from .t_algebra import _chunks, _from_half_spectrum, _half_spectrum, _map, _svd
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
    every ||Y_k||_F is at most ``GRAM_RATIO * tau``, the slices are shrunk
    through the eigendecomposition of their Gram matrices on the smaller
    side, with an error of about eps * (sigma_1 / tau)^2 * tau; otherwise,
    or when that eigendecomposition fails, through the SVD.  Either way the
    slices are rebuilt together up to the largest rank kept in any of them;
    the shrunk singular values past a slice's own rank are zero, so this
    equals truncating each slice separately.  Above the parallel layer's
    work floor the half spectrum is factored, then rebuilt, in one chunk
    per core; the result has the same bits at any chunking.
    """
    if not tau > 0:  # NaN too
        raise ValueError(f"tau must be positive, got {tau}")
    Y = as_tensor(Y)
    stack = _half_spectrum(Y)
    if np.linalg.norm(stack, axis=(1, 2)).max() <= GRAM_RATIO * tau:
        try:
            return _from_half_spectrum(_gram_svt(stack, tau), Y.shape[2])
        except np.linalg.LinAlgError:
            pass  # eigh did not converge; the SVD, with its own retry, decides
    chunks = _chunks(stack)
    factors = _map(lambda c: _svd(stack[c]), chunks)
    shrunk = [np.maximum(s - tau, 0.0) for _, s, _ in factors]
    r = max(int(np.count_nonzero(s, axis=1).max()) for s in shrunk)

    def rebuild(c, usv, s):
        U, _, Vh = usv
        np.matmul(U[:, :, :r] * s[:, None, :r], Vh[:, :r, :], out=stack[c])

    # the factors replace the stack, so the stack takes the result
    _map(rebuild, chunks, factors, shrunk)
    return _from_half_spectrum(stack, Y.shape[2])


def _gram_svt(stack: np.ndarray, tau: float) -> np.ndarray:
    """SVT of every slice from a batched eigh of the Gram matrices M^H M, per chunk.

    M is the slice, or its conjugate transpose for a wide slice, so the Gram
    matrix is on the smaller side.  With M = U S V^H, the shrunk slice
    U (S - tau)_+ V^H equals (M V) diag((1 - tau/s)_+) V^H.  A tall stack is
    overwritten with the result.
    """
    wide = stack.shape[1] < stack.shape[2]
    M = stack.conj().swapaxes(1, 2) if wide else stack
    G = np.empty((M.shape[0], M.shape[2], M.shape[2]), dtype=M.dtype)

    def factor(c):
        return np.linalg.eigh(np.matmul(M[c].conj().swapaxes(1, 2), M[c], out=G[c]))

    chunks = _chunks(stack)
    eig = _map(factor, chunks)
    del G  # each eigh returns its own V
    # eigenvalues ascend, so the kept ones are the last columns of V
    roots = [np.sqrt(np.maximum(lam, 0.0)) for lam, _ in eig]
    r = max(int(np.count_nonzero(s > tau, axis=1).max()) for s in roots)
    first = M.shape[2] - r
    out = np.empty(M.shape, dtype=M.dtype) if wide else stack

    def rebuild(c, e, s):
        V, w = e[1][:, :, first:], 1.0 - tau / np.maximum(s[:, first:], tau)
        np.matmul((M[c] @ V) * w[:, None, :], V.conj().swapaxes(1, 2), out=out[c])

    _map(rebuild, chunks, eig, roots)
    return out.conj().swapaxes(1, 2) if wide else out


def soft_threshold(Y: np.ndarray, tau: float) -> np.ndarray:
    """Minimizer of tau*||E||_1 + (1/2)*||E - Y||_F^2, entrywise shrinkage."""
    if not tau > 0:  # NaN too
        raise ValueError(f"tau must be positive, got {tau}")
    Y = np.asarray(Y, dtype=np.float64)
    return np.sign(Y) * np.maximum(np.abs(Y) - tau, 0.0)
