"""Closed-form proximal operators for the two solver subproblems.

``tsvt`` is the prox of the tensor nuclear norm: per-spectral-slice singular
value shrinkage over the half spectrum of the ``t_algebra`` helpers.  It
takes the shrinkage of every slice from one batched Hermitian
eigendecomposition of the slices' Gram matrices (Cai & Osher, "Fast singular
value thresholding without singular value decomposition", 2013), and from
one batched SVD when squaring the slices would lose accuracy (see
``GRAM_RATIO``).  ``soft_threshold`` is the prox of the elementwise l1 norm.

Under the unnormalized-forward / 1/n3-inverse DFT convention, the per-slice
shrinkage threshold equals tau itself: the 1/n3 in the nuclear norm
definition and the 1/n3 from Parseval on the Frobenius term cancel.
"""

from __future__ import annotations

import numpy as np

from .t_algebra import _from_half_spectrum, _half_spectrum, _svd
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
    equals truncating each slice separately.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    Y = as_tensor(Y)
    stack = _half_spectrum(Y)
    if np.linalg.norm(stack, axis=(1, 2)).max() <= GRAM_RATIO * tau:
        try:
            return _from_half_spectrum(_gram_svt(stack, tau), Y.shape[2])
        except np.linalg.LinAlgError:
            pass  # eigh did not converge; the SVD, with its own retry, decides
    U, s, Vh = _svd(stack)
    del stack  # its factors replace it, so the rebuild does not hold both
    s = np.maximum(s - tau, 0.0)
    r = int(np.count_nonzero(s, axis=1).max())
    return _from_half_spectrum((U[:, :, :r] * s[:, None, :r]) @ Vh[:, :r, :], Y.shape[2])


def _gram_svt(stack: np.ndarray, tau: float) -> np.ndarray:
    """SVT of every slice from one batched eigh of the Gram matrices M^H M.

    M is the slice, or its conjugate transpose for a wide slice, so the Gram
    matrix is on the smaller side.  With M = U S V^H, the shrunk slice
    U (S - tau)_+ V^H equals (M V) diag((1 - tau/s)_+) V^H.
    """
    wide = stack.shape[1] < stack.shape[2]
    M = stack.conj().swapaxes(1, 2) if wide else stack
    lam, V = np.linalg.eigh(M.conj().swapaxes(1, 2) @ M)
    # eigenvalues ascend, so the kept ones are the last columns of V
    s = np.sqrt(np.maximum(lam, 0.0))
    r = int(np.count_nonzero(s > tau, axis=1).max())
    V, s = V[:, :, V.shape[2] - r :], s[:, s.shape[1] - r :]
    w = 1.0 - tau / np.maximum(s, tau)
    out = ((M @ V) * w[:, None, :]) @ V.conj().swapaxes(1, 2)
    return out.conj().swapaxes(1, 2) if wide else out


def soft_threshold(Y: np.ndarray, tau: float) -> np.ndarray:
    """Minimizer of tau*||E||_1 + (1/2)*||E - Y||_F^2, entrywise shrinkage."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    Y = np.asarray(Y, dtype=np.float64)
    return np.sign(Y) * np.maximum(np.abs(Y) - tau, 0.0)
