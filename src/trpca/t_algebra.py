"""The t-product algebra: DFT layer, block-circulant operators, t-SVD, ranks
and the tensor nuclear / spectral norms.

All tensor-tensor operations work slicewise in the Fourier domain along the
third axis.  DFT convention: unnormalized forward transform, 1/n3 on the
inverse (numpy's default), which makes the tensor nuclear norm equal
``norm_* (bcirc(A)) / n3`` exactly.

For real inputs the spectrum is conjugate-symmetric across frontal slices
(slice k pairs with slice n3-k, 0-based), so only the first ``n3 // 2 + 1``
slices carry information.  One set of private helpers holds that layer:
``_half_spectrum`` copies those slices of ``dft3`` into an ``(h, n1, n2)``
array, ``_svd`` factors the whole stack in one batched call, and
``_from_half_spectrum`` returns to a real tensor through ``irfft``, whose
output is real by construction.  For n3 <= 2 every kept slice is its own
conjugate, so the stack is float64 and every consumer runs real LAPACK and
BLAS kernels; at n3 = 1, where the DFT is the identity, neither transform runs.
The t-product, the t-SVD and ``prox.tsvt`` go through them (``tsvt`` uses
``_svd`` only where its Gram route would lose accuracy); ``_sweep`` reads one
``_svd`` call out as all the ranks, norms and rank-r factors that an
inspection of a tensor needs.

Every batched factorization runs with OpenBLAS pinned to one thread.  One
work-sharing map, ``_map``, runs independent calls side by side on the calling
thread and a private pool: above a work floor, ``PARALLEL_FLOOR``,
``prox.tsvt`` maps its stack in one chunk per core (``_chunks``), and the
experiment harnesses map their independent solves.  Below the floor, or inside
a mapped solve, each stack goes to LAPACK in one call.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor_core import as_tensor

__all__ = [
    "TSvd",
    "dft3",
    "bcirc",
    "unfold",
    "fold",
    "tprod",
    "tprod_oracle",
    "ttranspose",
    "tsvd",
    "multi_rank",
    "tubal_rank",
    "tnn",
    "spectral_norm",
]

DEFAULT_RANK_TOL = 1e-8

@dataclass(frozen=True)
class TSvd:
    """Factor triple A = U * S * V^T with f-diagonal S.

    ``U`` is n1 x rho x n3, ``S`` is rho x rho x n3, ``V`` is n2 x rho x n3
    where rho = min(n1, n2) for the full factorization or the requested
    rank for the skinny one, which differs from the full one only in rho.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def compose(self) -> np.ndarray:
        """Reassemble U * S * V^T."""
        return tprod(tprod(self.U, self.S), ttranspose(self.V))


def dft3(A: np.ndarray) -> np.ndarray:
    """Forward DFT of every tube, returning the complex spectral tensor."""
    C = np.asarray(A, dtype=np.float64).astype(np.complex128)
    return np.fft.fft(C, axis=2, out=C)


def _half_spectrum(A: np.ndarray) -> np.ndarray:
    """Spectral slices 0..n3//2 of A, whose conjugates are the rest, as an (h, n1, n2) stack.

    The stack is a C-contiguous copy, so the full ``dft3`` output is freed before any
    factorization.  Slice 0 and, for even n3, slice n3/2 are their own conjugates, so they are
    real; their rounding residue is dropped so that their SVD factors, null spaces included,
    are real too.  For n3 <= 2 those are all the slices, so the stack is float64.
    """
    n3 = A.shape[2]
    if n3 == 1:  # the DFT of length 1 is the identity
        return np.moveaxis(np.asarray(A, dtype=np.float64), 2, 0).copy()
    stack = np.moveaxis(dft3(A)[:, :, : n3 // 2 + 1], 2, 0).copy()
    stack.imag[[0, n3 // 2] if n3 % 2 == 0 else [0]] = 0.0
    return stack.real.copy() if n3 == 2 else stack


def _from_half_spectrum(stack: np.ndarray, n3: int) -> np.ndarray:
    """The real n1 x n2 x n3 tensor whose first spectral slices are ``stack``; at n3 = 1
    that is the (real) stack itself, which ``irfft`` would return bit for bit, slower."""
    T = np.moveaxis(stack, 0, 2)
    return np.ascontiguousarray(T if n3 == 1 else np.fft.irfft(T, n=n3, axis=2))


def _svd(stack: np.ndarray, compute_uv: bool = True):
    """Thin SVD of every matrix in the stack in one batched call, as
    (U, s, Vh); without ``compute_uv`` U and Vh are None.

    LAPACK's divide-and-conquer SVD (gesdd) occasionally fails to converge on a
    finite matrix that its conjugate transpose factors fine, so a failure is
    retried once on the conjugate transposes with the factors swapped back.
    The call runs on one BLAS thread.
    """
    with _one_blas_thread():
        try:
            out = np.linalg.svd(stack, full_matrices=False, compute_uv=compute_uv)
        except np.linalg.LinAlgError:
            H = stack.conj().swapaxes(-1, -2)
            out = np.linalg.svd(H, full_matrices=False, compute_uv=compute_uv)
            if compute_uv:
                U, s, Vh = out
                out = Vh.conj().swapaxes(-1, -2), s, U.conj().swapaxes(-1, -2)
    return out if compute_uv else (None, out, None)


# Parallel layer.  OpenBLAS splits each small LAPACK call of a batch over its
# own threads, which is slower than one thread.  numpy's linalg and matmul
# release the GIL, so every factorization runs with OpenBLAS pinned to one
# thread, and independent calls (the slices of a large stack in contiguous
# chunks, or whole solves) run on the calling thread and on helpers submitted
# to the pool.  A map cancels its helpers that have not started by the time its
# calls run out, so it never waits behind another map's work.  Per matrix
# the result has the same bits at any chunking, any worker count and any
# OPENBLAS_NUM_THREADS.  Without the pin there is no split, since each call
# would then start its own BLAS threads.
#
# The work of a call on an (h, n1, n2) stack is h * min(n1, n2)^2 * max(n1, n2).
# Below PARALLEL_FLOOR the stack goes to LAPACK in one call.  Median ms per ADMM
# iteration of synth.run_trial on n x n x n3 (12 solves a mode, alternating in
# one process; 2-vCPU Xeon, OpenBLAS 0.3.31), one unpinned call (OpenBLAS's
# default of 2 threads) / one pinned call / pinned and split: 16x16x4 (work
# 12288) 0.49 / 0.49 / 0.72, 24x24x6 (55296) 1.08 / 1.08 / 1.30, 40x40x10
# (384000) 2.63 / 2.66 / 3.12, 50x50x6 (500000) 2.82 / 2.63 / 2.65, 64x64x3
# (524288) 2.55 / 2.28 / 2.40, 40x40x20 (704000) 4.76 / 5.35 / 4.20, 48x48x12
# (774144) 5.37 / 4.73 / 4.35, 64x64x6 (1048576) 5.44 / 4.95 / 4.24, 100x100x4
# (3000000) 11.8 / 9.84 / 7.85.  So below the floor the pin alone is as fast or
# faster, and the split pays from about 600000 on.
PARALLEL_FLOOR = 600_000

# worker threads besides the calling one; the pool is made on first use
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) - 1
_pool = None
_lock = threading.Lock()  # guards the pool and the pin below
_blas = None  # (get, set) thread count of numpy's OpenBLAS, () when absent
_pin_depth = 0
_pin_saved = 0
_task = threading.local()  # .busy while this thread runs a call of a shared map


def _above_floor(stack: np.ndarray) -> bool:
    h, n1, n2 = stack.shape
    return h * min(n1, n2) ** 2 * max(n1, n2) >= PARALLEL_FLOOR


def _openblas():
    """OpenBLAS's thread-count getter and setter in numpy's bundled library, or ().

    Resolving it twice finds the same pair, so callers need not hold the lock.
    """
    global _blas
    if _blas is None:
        found = ()
        for path in Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*.so"):
            try:
                lib = ctypes.CDLL(str(path))
                get = lib.scipy_openblas_get_num_threads64_
                set_ = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found = (get, set_)
            break
        _blas = found
    return _blas


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, restoring its count when the
    last of any nested or concurrent callers leaves.  A no-op without OpenBLAS."""
    global _pin_depth, _pin_saved
    with _lock:
        blas = _openblas()
        if blas and _pin_depth == 0:
            _pin_saved = blas[0]()
            blas[1](1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _lock:
            _pin_depth -= 1
            if blas and _pin_depth == 0:
                blas[1](_pin_saved)


def _in_task() -> bool:
    return getattr(_task, "busy", False)


def _chunks(stack: np.ndarray) -> list[slice]:
    """Contiguous slices of the stack's leading axis, one per core, or the whole axis in one
    slice below ``PARALLEL_FLOOR``, when OpenBLAS cannot be pinned, or inside a map task."""
    h = stack.shape[0]
    k = min(_WORKERS + 1, h) if _above_floor(stack) and _openblas() and not _in_task() else 1
    return [slice(h * i // k, h * (i + 1) // k) for i in range(k)]


def _map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, the calls shared out on one BLAS thread.

    The calling thread and up to ``_WORKERS`` helpers submitted to the pool take the calls
    from one shared iterator, so uneven calls balance.  Once the calls run out, a call raises
    or the caller is interrupted, the caller cancels every helper that has not started and
    waits only for those that did, so a busy pool leaves every call to the calling thread.
    While a thread runs a call of a map of two or more calls it is in a task: ``_chunks``
    gives it one chunk and its nested maps submit no helper.  Without the pin there is no
    helper.

    Once a call raises, no further call starts; the first failed call's error is raised
    after every started call has finished, so none is still running when the pin is lifted
    or the caller falls back.
    """
    calls = list(zip(*iterables))
    results, errors = [None] * len(calls), {}
    order, take = iter(range(len(calls))), threading.Lock()

    def work():
        busy = _in_task()
        _task.busy = busy or len(calls) > 1
        try:
            while not errors:
                with take:
                    i = next(order, None)
                if i is None:
                    break
                try:
                    results[i] = fn(*calls[i])
                except Exception as exc:
                    errors[i] = exc
        finally:
            _task.busy = busy

    with _one_blas_thread():
        k = min(_WORKERS, len(calls) - 1) if not _in_task() and _openblas() else 0
        helpers = [_executor().submit(work) for _ in range(k)]
        try:
            work()
        finally:
            with take:  # an interrupt of this thread stops the helpers too
                for _ in order:
                    pass
            for f in helpers:
                if not f.cancel():
                    f.result()
    if errors:
        raise errors[min(errors)]
    return results


def _executor():
    """The private pool, made on first use."""
    # concurrent.futures, which imports logging, would add about 6 ms to importing trpca
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(_WORKERS, 1), thread_name_prefix="trpca")
        return _pool


def _reset_after_fork() -> None:
    # a forked child has none of the parent's threads: it must make its own pool
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def bcirc(A: np.ndarray) -> np.ndarray:
    """Block-circulant matricization of size (n1*n3) x (n2*n3).

    Block row r, column c holds frontal slice (r - c) mod n3.
    """
    A = as_tensor(A)
    n1, n2, n3 = A.shape
    M = np.empty((n1 * n3, n2 * n3))
    for r in range(n3):
        for c in range(n3):
            M[r * n1 : (r + 1) * n1, c * n2 : (c + 1) * n2] = A[:, :, (r - c) % n3]
    return M


def unfold(A: np.ndarray) -> np.ndarray:
    """Stack frontal slices vertically into an (n1*n3) x n2 matrix."""
    A = as_tensor(A)
    n1, n2, n3 = A.shape
    return np.moveaxis(A, 2, 0).reshape(n3 * n1, n2)


def fold(M: np.ndarray, n3: int) -> np.ndarray:
    """Inverse of :func:`unfold` for the given third extent."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] % n3 != 0:
        raise ValueError(f"cannot fold shape {M.shape} with n3={n3}")
    n1 = M.shape[0] // n3
    return np.ascontiguousarray(np.moveaxis(M.reshape(n3, n1, M.shape[1]), 0, 2))


def _check_tprod_shapes(A: np.ndarray, B: np.ndarray) -> None:
    if A.ndim != 3 or B.ndim != 3:
        raise ValueError("t-product requires 3-way tensors")
    if A.shape[1] != B.shape[0] or A.shape[2] != B.shape[2]:
        raise ValueError(f"t-product shape mismatch: {A.shape} * {B.shape}")


def tprod(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """t-product via slicewise matrix products in the Fourier domain."""
    _check_tprod_shapes(A, B)
    return _from_half_spectrum(_half_spectrum(A) @ _half_spectrum(B), A.shape[2])


def tprod_oracle(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Reference t-product through the dense block-circulant definition.

    Quadratic in n3; intended for tests only.
    """
    _check_tprod_shapes(A, B)
    return fold(bcirc(A) @ unfold(B), A.shape[2])


def ttranspose(A: np.ndarray) -> np.ndarray:
    """Tensor transpose: each slice transposed, slices 1..n3-1 reversed."""
    A = np.asarray(A, dtype=np.float64)
    At = np.transpose(A, (1, 0, 2))
    out = np.empty_like(At)
    out[:, :, 0] = At[:, :, 0]
    out[:, :, 1:] = At[:, :, :0:-1]
    return out


def tsvd(A: np.ndarray, rank: int | None = None) -> TSvd:
    """t-SVD of A: orthogonal U, V and f-diagonal S with A = U * S * V^T.

    With ``rank`` given, returns the skinny factorization truncated to that
    many columns; otherwise rho = min(n1, n2).
    """
    A = as_tensor(A)
    n1, n2, n3 = A.shape
    rho = min(n1, n2)
    if rank is not None:
        if not 1 <= rank <= rho:
            raise ValueError(f"rank {rank} out of range [1, {rho}]")
        rho = rank
    U, s, Vh = _svd(_half_spectrum(A))
    return TSvd(
        U=_from_half_spectrum(U[:, :, :rho], n3),
        S=_from_half_spectrum(s[:, :rho, None] * np.eye(rho), n3),
        V=_from_half_spectrum(Vh[:, :rho, :].conj().swapaxes(1, 2), n3),
    )


def _sweep(A: np.ndarray, tol: float = DEFAULT_RANK_TOL, factors: bool = False):
    """One SVD of the half spectrum of A, as (multi rank, tnn, spectral norm, U, Vh).

    Ranks count singular values above ``tol`` times the global largest one.  U and Vh are None, or
    with ``factors`` the spectral factors copied to the tubal rank to free the full stacks.
    """
    if not tol >= 0:  # NaN too
        raise ValueError(f"rank tolerance must be nonnegative, got {tol}")
    A = as_tensor(A)
    U, s, Vh = _svd(_half_spectrum(A), compute_uv=factors)
    # slice k shares its singular values with its conjugate partner n3-k
    k = np.arange(A.shape[2])
    sv = s[np.minimum(k, -k % A.shape[2])]
    ranks = (sv > tol * sv.max(initial=0.0)).sum(axis=1).astype(int)
    if factors:
        U, Vh = U[:, :, : ranks.max()].copy(), Vh[:, : ranks.max(), :].copy()
    return ranks, float(sv.sum() / A.shape[2]), float(sv.max()), U, Vh


def multi_rank(A: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Per-spectral-slice matrix ranks, relative to the global largest singular value."""
    return _sweep(A, tol)[0]


def tubal_rank(A: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Largest entry of the multi rank."""
    return int(multi_rank(A, tol).max())


def tnn(A: np.ndarray) -> float:
    """Tensor nuclear norm: mean of the spectral slices' nuclear norms."""
    return _sweep(A)[1]


def spectral_norm(A: np.ndarray) -> float:
    """Tensor spectral norm: largest singular value across spectral slices."""
    return _sweep(A)[2]
