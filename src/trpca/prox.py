"""Closed-form proximal operators for the two solver subproblems.

``tsvt`` is the prox of the tensor nuclear norm (per-spectral-slice singular
value shrinkage, one batched SVD over the half spectrum through the
``t_algebra`` helpers); ``soft_threshold`` is the prox of the elementwise l1
norm.

Under the unnormalized-forward / 1/n3-inverse DFT convention, the per-slice
shrinkage threshold equals tau itself: the 1/n3 in the nuclear norm
definition and the 1/n3 from Parseval on the Frobenius term cancel.
"""

from __future__ import annotations

import numpy as np

from .t_algebra import _from_half_spectrum, _half_spectrum, _svd
from .tensor_core import as_tensor

__all__ = ["tsvt", "soft_threshold"]


def tsvt(Y: np.ndarray, tau: float) -> np.ndarray:
    """Minimizer of tau*||L||_tnn + (1/2)*||L - Y||_F^2.

    Each spectral slice gets a matrix SVT with threshold tau.  The slices
    are rebuilt together up to the largest rank kept in any of them; the
    shrunk singular values past a slice's own rank are zero, so this equals
    truncating each slice separately.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    Y = as_tensor(Y)
    U, s, Vh = _svd(_half_spectrum(Y))
    s = np.maximum(s - tau, 0.0)
    r = int(np.count_nonzero(s, axis=1).max())
    return _from_half_spectrum((U[:, :, :r] * s[:, None, :r]) @ Vh[:, :r, :], Y.shape[2])


def soft_threshold(Y: np.ndarray, tau: float) -> np.ndarray:
    """Minimizer of tau*||E||_1 + (1/2)*||E - Y||_F^2, entrywise shrinkage."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    Y = np.asarray(Y, dtype=np.float64)
    return np.sign(Y) * np.maximum(np.abs(Y) - tau, 0.0)
