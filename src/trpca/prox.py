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
    _blockwise, _chunks, _from_half_spectrum, _half_spectrum, _one_blas_thread, _svd
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
    slices, in one chunk per core above the parallel layer's work floor.  Once factored, a
    block of a larger stack keeps only the singular vectors that some slice of it keeps, and
    pads them back to full width only for its own rebuild, so no temporary is as large as the
    stack; no bit depends on any of that.
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
        h, n1, n2 = stack.shape
        k = min(n1, n2)

        def keep(b, U, s, Vh):
            s = np.maximum(s - tau, 0.0)
            r = int(np.count_nonzero(s, axis=1).max())
            return b.start, (r, _kept(U, np.s_[:, :, :r], h), s, _kept(Vh, np.s_[:, :r], h))

        kept = dict(_svd(stack, keep=keep))
        r = max(r for r, *_ in kept.values())

        def rebuild(b):  # the factors replace the stack, so the stack takes the result
            _, U, s, Vh = kept.pop(b.start)
            U = _widened(U, (len(s), n1, k), np.s_[:, :, :U.shape[2]])
            Vh = _widened(Vh, (len(s), k, n2), np.s_[:, :Vh.shape[1]])
            np.matmul(U[:, :, :r] * s[:, None, :r], Vh[:, :r], out=stack[b])

        _blockwise(rebuild, pieces)
        return _from_half_spectrum(stack, shape[2])


def _gram_svt(stack: np.ndarray, tau: float, pieces: list) -> np.ndarray:
    """SVT of every slice from a batched eigh of the Gram matrices M^H M, written over the stack.

    M is the slice, or its conjugate transpose for a wide slice, so the Gram
    matrix is on the smaller side.  With M = U S V^H, the shrunk slice
    U (S - tau)_+ V^H equals (M V) diag((1 - tau/s)_+) V^H, which each block of slices
    is rebuilt from, a wide block conjugate-transposed back into the stack.  Each block keeps
    only the columns of V that a slice of it keeps (``_kept``) once its eigh has run.
    """
    h, wide, p = stack.shape[0], stack.shape[1] < stack.shape[2], min(stack.shape[1:])

    def factor(b):
        S, H = stack[b], stack[b].conj().swapaxes(1, 2)
        G = np.matmul(S, H) if wide else np.matmul(H, S)
        del H  # one block's conjugate fewer while eigh runs
        lam, V = np.linalg.eigh(G)
        s = np.sqrt(np.maximum(lam, 0.0))
        # eigenvalues ascend, so the kept ones are the last columns of V
        first = p - int(np.count_nonzero(s > tau, axis=1).max())
        return b.start, (first, s, _kept(V, np.s_[:, :, first:], h))

    kept = dict(_blockwise(factor, pieces))
    first = min(first for first, _, _ in kept.values())

    def rebuild(b):
        _, s, V = kept.pop(b.start)
        V = _widened(V, (len(s), p, p), np.s_[:, :, p - V.shape[2]:])[:, :, first:]
        w = 1.0 - tau / np.maximum(s[:, first:], tau)
        M = stack[b].conj().swapaxes(1, 2) if wide else stack[b]
        MVw, Vh = (M @ V) * w[:, None, :], V.conj().swapaxes(1, 2)
        out = np.matmul(MVw, Vh, out=None if wide else stack[b])
        if wide:
            np.conjugate(out.swapaxes(1, 2), out=stack[b])

    _blockwise(rebuild, pieces)
    return stack


def _kept(F: np.ndarray, index: tuple, h: int) -> np.ndarray:
    """The columns ``F[index]`` of a block's factor that some slice of the block keeps, copied so
    that the rest of F is freed; F itself when the block is the whole stack of h slices, so that
    a stack of one block is rebuilt from its factors as the factorization returned them."""
    return F if len(F) == h else F[index].copy()


def _widened(F: np.ndarray, shape: tuple, index: tuple) -> np.ndarray:
    """A factor that ``_kept`` narrowed, written at ``index`` of zeros of its full ``shape``; F
    itself when it has that shape.  The rebuild's products then see the shapes and strides of
    the full factors, and the zero columns have weight 0, so no bit moves.  Zeros only as wide
    as the widest kept block give the products other strides; that was seen to move bits of
    ``tsvt`` in the last place in a few random cases, though not in every run of such a check."""
    if F.shape == shape:
        return F
    full = np.zeros(shape, F.dtype)
    full[index] = F
    return full


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
