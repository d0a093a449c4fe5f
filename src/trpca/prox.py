"""Closed-form proximal operators for the two solver subproblems.

``tsvt`` is the prox of the tensor nuclear norm: per-spectral-slice singular
value shrinkage over the half spectrum of the ``t_algebra`` helpers, which
is complex for n3 >= 3 and real for n3 <= 2.  It takes the shrinkage of
every slice from the eigenpairs of the slices' Gram matrices (Cai & Osher, "Fast
singular value thresholding without singular value decomposition", 2013), and
from ``t_algebra._svd``, the one batched SVD of a half spectrum, when squaring
the slices would lose accuracy (see ``GRAM_RATIO``).  Complex slices from
``SUBSET_FLOOR`` on find only the eigenpairs above the threshold, through
OpenBLAS's own LAPACK (``_eigh_above``: a tridiagonal reduction, a Sturm count,
and MRRR or divide and conquer); real stacks, narrower slices and a build
without those routines take a batched Hermitian (for a real stack, symmetric)
eigendecomposition.  Each of the three factorizations hands its one rebuild, per
slice, only the vectors that the slice keeps; each run of consecutive slices that
keep the same count is shrunk in place in one batched product, so each slice's
result depends on that slice alone.  The slice norms that pick the route, the
factorization and the rebuild run in blocks of slices, in one chunk per core
above ``t_algebra.PARALLEL_FLOOR`` (``t_algebra._blockwise``).
``soft_threshold`` is the prox of the elementwise l1 norm; it and the
solver's fused update both shrink through ``_shrink``.

Under the unnormalized-forward / 1/n3-inverse DFT convention, the per-slice
shrinkage threshold equals tau itself: the 1/n3 in the nuclear norm
definition and the 1/n3 from Parseval on the Frobenius term cancel.
"""

from __future__ import annotations

import numpy as np

from .t_algebra import (
    _blockwise, _chunks, _from_half_spectrum, _half_spectrum, _one_blas_thread, _openblas, _svd
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
    through the eigenpairs of their Gram matrices on the smaller
    side, with an error of about eps * (sigma_1 / tau)^2 * tau (``_gram_vectors``); otherwise,
    or when that factorization fails, through the SVD.  All of it goes by blocks of slices, in
    one chunk per core above the parallel layer's work floor.  Once factored, a block keeps of
    each slice only the vectors that the slice keeps, at its own width, so no temporary is as
    large as the stack; in one rebuild, each run of consecutive slices that keep the same count
    is shrunk in place in one batched product.  So a slice's bits depend only on that slice: not
    on the other slices, the blocks or the workers.  Nothing is written over the stack until
    every block is factored, so a failed Gram factorization leaves it to the SVD route.
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
    pieces, wide = _chunks(stack), stack.shape[1] < stack.shape[2]
    # each block's largest slice norm; a NaN one fails both guards, which Python's max would
    # skip after the first block
    tops = _blockwise(lambda b: np.linalg.norm(stack[b], axis=(1, 2)).max(), pieces)
    if all(top <= tau for top in tops):  # every singular value shrinks to 0
        return np.zeros(shape)
    with _one_blas_thread():
        kept = None
        if all(top <= GRAM_RATIO * tau for top in tops):
            try:
                kept = _gram_vectors(stack, tau, pieces)
            except np.linalg.LinAlgError:
                pass  # the eigenpairs were not found; the SVD, with its own retry, decides
        if kept is None:

            def keep(b, U, s, Vh):
                w = np.maximum(s - tau, 0.0)
                return b.start, [(rows, w[rows, :c], U[rows, :, :c].copy(), Vh[rows, :c].copy())
                                 for rows, c in _runs(np.count_nonzero(w, axis=1))]

            kept = dict(_svd(stack, keep=keep))

        def rebuild(b):  # the kept vectors replace the stack, so the stack takes the result
            for rows, w, U, Vh in kept.pop(b.start):
                M = stack[b][rows]
                if U is None and wide:  # Gram: M = U S W^H with U = Vh^H, shrunk U diag(w) U^H M
                    A, B = Vh.conj().swapaxes(1, 2), w[:, :, None] * (Vh @ M)
                else:  # U diag(w) Vh, where the Gram route's M = U S W^H has W = Vh^H: U S = M W
                    A, B = (M @ Vh.conj().swapaxes(1, 2) if U is None else U) * w[:, None, :], Vh
                np.matmul(A, B, out=M)

        _blockwise(rebuild, pieces)
        return _from_half_spectrum(stack, shape[2])


def _gram_vectors(stack: np.ndarray, tau: float, pieces: list) -> dict:
    """Of each block of slices, by its first index, the eigenvectors of the Gram matrices M^H M
    with eigenvalues above tau^2, for ``tsvt``'s rebuild: (rows, w, None, Vh) for each run of the
    block's slices that keep the same count c (``_runs``), the rows of Vh the conjugates of their
    c kept eigenvectors and w = 1 - tau / s their weights.

    M is the slice, or its conjugate transpose for a wide slice, so the Gram matrix is on the
    smaller side.  With M = U S V^H, the shrunk slice U (S - tau)_+ V^H equals
    (M V) diag((1 - tau/s)_+) V^H.  A complex stack of slices at least ``SUBSET_FLOOR`` wide
    goes to the subset kernel, ``_eigh_above``, which finds only the kept eigenpairs; other
    stacks to one batched eigh per block, of which the block keeps only the kept columns.
    """
    wide, p = stack.shape[1] < stack.shape[2], min(stack.shape[1:])
    blas = _openblas()
    lapack = blas[2] if blas and stack.dtype == np.complex128 and p >= SUBSET_FLOOR else None

    def weights(lam):
        return 1.0 - tau / np.maximum(np.sqrt(np.maximum(lam, 0.0)), tau)

    def factor(b):
        if lapack:
            pairs = _eigh_above(_gram(stack[b], wide), tau * tau, lapack)
            counts = np.array([len(lam) for lam, _ in pairs])
            return b.start, [(rows, weights(np.array([lam for lam, _ in pairs[rows]])), None,
                              np.array([Z for _, Z in pairs[rows]]))
                             for rows, _ in _runs(counts)]
        lam, V = np.linalg.eigh(_gram(stack[b], wide))  # the Gram matrices go once factored
        # eigenvalues ascend, so the kept ones are the last columns of V
        counts = np.count_nonzero(np.sqrt(np.maximum(lam, 0.0)) > tau, axis=1)
        return b.start, [(rows, weights(lam[rows, p - c:]), None,
                          np.conjugate(V[rows, :, p - c:]).swapaxes(1, 2))
                         for rows, c in _runs(counts)]

    return dict(_blockwise(factor, pieces))


def _runs(counts: np.ndarray) -> list:
    """(rows, c) for each run of consecutive slices of a block that keep the same count c,
    ``counts`` the kept counts of its slices and rows a slice of the block.  The rebuild shrinks
    each run in place, in one batched product.  Grouping all the slices of a count instead made
    fewer products where the counts alternate (one ``tsvt`` of a random 8x8x2000 tensor took
    12.7-14.6 ms against 16.1-19.4 by runs), but copied a group's slices for its products and
    wrote them back, which raised ``recovery_100``'s peak RSS from 92.0-92.2 to 93.4-97.8 MiB;
    by runs it read 91.7-91.9 (2-vCPU Xeon)."""
    edges = [0, *(np.flatnonzero(np.diff(counts)) + 1), len(counts)]
    return [(slice(a, b), int(counts[a])) for a, b in zip(edges, edges[1:])]


def _gram(S: np.ndarray, wide: bool) -> np.ndarray:
    """The Gram matrices M^H M of a block of slices, M the slice or, for a wide one, its conjugate
    transpose; the block's conjugate is freed before the factorization runs."""
    H = S.conj().swapaxes(1, 2)
    return np.matmul(S, H) if wide else np.matmul(H, S)


# The subset kernel of the Gram route (``_eigh_above``).  zhetrd reduces a complex p x p Gram
# matrix to a real tridiagonal T, a query of zstemr counts T's eigenvalues above tau^2 by a Sturm
# sequence, and zunm2l maps only the kept eigenvectors of T back.  Up to SUBSET_SHARE * p of them,
# zstemr finds just those by MRRR (Dhillon & Parlett, LAA 2004); above it, zstedc finds all of T's
# by divide and conquer, as eigh (zheevd) does after the same zhetrd.  The whole kernel per slice
# on one thread, by MRRR / by divide and conquer, as a share of eigh's time, keeping 5, 10, 20, 30
# and 100% of p (medians of 15; 2-vCPU Xeon, OpenBLAS 0.3.31): p = 24 0.36/0.83, 0.42/0.84,
# 0.56/0.85, 0.67/0.87, 1.37/0.96; p = 40 0.49/0.74, 0.60/0.79, 0.79/0.82, 1.14/0.92, 1.99/1.00;
# p = 64 0.46/0.69, 0.53/0.70, 0.71/0.73, 0.90/0.78, 1.90/0.94; p = 100 0.54/0.76, 0.62/0.77,
# 0.78/0.77, 0.91/0.78, 1.86/0.91; p = 200 0.49/0.62, 0.48/0.54, 0.52/0.43, 0.81/0.64, 1.53/0.78.
# So MRRR pays up to about 20% of p.  Slices narrower than SUBSET_FLOOR, and real stacks, stay on
# the batched eigh, since the kernel goes slice by slice: per ADMM iteration of a solve of an
# n x n x n3 Table-1 style instance, the kernel's time over eigh's (medians of 8-12 solves a mode,
# alternating in one process) read 1.21 at 12x12x4, 1.03 and 1.53 at n = 16, 0.70-1.04 at n = 24,
# 0.82 at n = 28, 0.88-0.91 at n = 32 and 0.91-1.00 at 40x40x20.
#
# zunm2l applies zhetrd's p - 1 reflectors to the c kept vectors one at a time, in a WORK of c
# complex entries.  zunmtr, which calls it through zunmql, gathers them into block reflectors at
# p = 100 and 200 (at p = 40 and 64 it calls zunm2l).  Per slice on one thread, zunm2l / zunmtr
# in us, keeping 5, 10, 20 and 100% of p (medians of 201, alternating; 2-vCPU Xeon, OpenBLAS
# 0.3.31): p = 40 and 64 the same bits and time; p = 100 49/170, 67/183, 111/203, 536/438;
# p = 200 180/477, 379/542, 751/720, 3723/2254; results within 3.1e-16.  The blocked form wins
# only when most of a wide slice is kept, on the divide-and-conquer branch: a 100^3 Table-1
# solve keeps at most 10 of 100, a 200x200x20 one at most 42 of 200, in 2.8% of its slices.
SUBSET_FLOOR = 32
SUBSET_SHARE = 0.2


def _eigh_above(G: np.ndarray, low: float, lapack: tuple) -> list:
    """For each Hermitian matrix of the C-ordered (k, p, p) stack G, which it overwrites: its m
    eigenvalues above ``low``, ascending, and an (m, p) array whose rows are the conjugates of
    their eigenvectors.  ``lapack`` holds zhetrd, zstemr, zstedc and zunm2l
    (``t_algebra._tridiagonal_routines``); a nonzero INFO raises ``np.linalg.LinAlgError``.

    LAPACK reads a C-ordered matrix as its transpose, here the conjugate of G, whose eigenvectors
    are the conjugates of G's; so the m columns that zunm2l writes, read in C order, are the rows
    wanted.  Its 'U' triangle is the lower triangle of G, the one that eigh reads; zhetrd stores
    its reflectors above the diagonal of that triangle, from A(1, 2) on, and leaves the last
    coordinate alone, so zunm2l runs on the first p - 1 rows of the vectors, as zunmtr('L', 'U',
    'N') would.  zhetrd's optimal workspace is p times a block size of 32 complex entries and
    zunm2l's WORK c complex entries for c kept vectors; zstemr's is 18 p reals and 10 p integers,
    and zstedc's 1 + 4 p + 2 p^2 reals and 3 + 5 p integers."""
    if G.dtype != np.complex128 or not G.flags.c_contiguous or G.shape[1] != G.shape[2]:
        raise ValueError(f"expected a C-ordered complex stack of square matrices, got {G.shape}")
    hetrd, stemr, stedc, unm2l = lapack
    p = G.shape[1]
    lrwork = max(18 * p, 1 + 4 * p + 2 * p * p)
    # LAPACK gets addresses in these three arrays.  ints: N, LWORK, INFO, M, IL, IU, NZC, TRYRAC
    # (false: absolute accuracy), LRWORK, LIWORK, N - 1, IWORK (10 p) and ISUPPZ (2 p).  reals:
    # VL and VU of the count, the eigenvalues W (p), D (p), E (p) and RWORK.  cplx: the count
    # that the query returns, TAU of the reflectors (p) and WORK (64 p).
    ints = np.zeros(11 + 12 * p, np.int64)
    ints[:11] = p, 64 * p, 0, 0, 0, p, 0, 0, lrwork, 10 * p, p - 1
    reals = np.empty(2 + 3 * p + lrwork)
    reals[:2] = low, np.finfo(np.float64).max
    cplx = np.empty(1 + 65 * p, complex)
    n, lwork, info, m, il, iu, nzc, tryrac, lr, li, n_1, I = (
        ints.ctypes.data + 8 * k for k in range(12)
    )
    S = I + 8 * 10 * p
    vl, vu, W, D, E, R = (reals.ctypes.data + 8 * k for k in (0, 1, 2, 2 + p, 2 + 2 * p, 2 + 3 * p))
    query, T, WORK = (cplx.ctypes.data + 16 * k for k in (0, 1, 1 + p))

    def checked(name):
        if ints[2]:
            raise np.linalg.LinAlgError(f"{name} failed with INFO = {ints[2]}")

    def mrrr(range_, z):
        stemr(b"V", range_, n, D, E, vl, vu, il, iu, m, W, z, n, nzc, S, tryrac, R, lr, I, li,
              info, 1, 1)
        checked("zstemr")

    pairs = []
    for g in G:
        a = g.ctypes.data
        hetrd(b"U", n, a, n, D, E, T, WORK, lwork, info, 1)
        checked("zhetrd")
        ints[6] = -1  # NZC = -1: the Sturm count of (VL, VU] into cplx[0]
        mrrr(b"V", query)
        count = int(cplx[0].real)
        if count == 0:  # zstemr is not called for no eigenpair: that once ended the process
            pairs.append((np.empty(0), np.empty((0, p), complex)))
            continue
        if count <= SUBSET_SHARE * p:
            Z = np.empty((count, p), complex)
            ints[4], ints[6] = p - count + 1, count  # IL: the count largest
            mrrr(b"I", Z.ctypes.data)
            if ints[3] != count:
                raise np.linalg.LinAlgError(f"zstemr found {ints[3]} eigenpairs, not {count}")
            lam = reals[2 : 2 + count].copy()
        else:
            Z = np.empty((p, p), complex)
            stedc(b"I", n, D, E, Z.ctypes.data, n, WORK, lwork, R, lr, I, li, info, 1)
            checked("zstedc")
            Z, lam = Z[p - count :].copy(), reals[2 + 2 * p - count : 2 + 2 * p].copy()
            ints[3] = count
        unm2l(b"L", b"N", n_1, m, n_1, a + 16 * p, n, T, Z.ctypes.data, n, WORK, info, 1, 1)
        checked("zunm2l")
        pairs.append((lam, Z))
    return pairs


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
