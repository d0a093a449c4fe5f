"""Random test tensors, the paper's dense t-product definitions (``bcirc``, ``unfold``,
``fold``, ``tprod_oracle``, ``ttranspose``, ``compose``), the references that criterion 4 and
the t-algebra tests check the Fourier-domain library against, t-product identities, a
complex-route reference and a full-factor ``tsvt`` reference, importable from every test
module (unlike ``conftest``, whose name ``perfbench/tests`` also uses)."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trpca import imaging, prox
from trpca import t_algebra as ta
from trpca import tensor_core as tc


def random_tensor(rng, n1, n2, n3, scale=1.0):
    return scale * rng.normal(size=(n1, n2, n3))


def bcirc(A: np.ndarray) -> np.ndarray:
    """Block-circulant matricization of size (n1*n3) x (n2*n3).

    Block row r, column c holds frontal slice (r - c) mod n3.
    """
    A = tc.as_tensor(A)
    n1, n2, n3 = A.shape
    M = np.empty((n1 * n3, n2 * n3))
    for r in range(n3):
        for c in range(n3):
            M[r * n1 : (r + 1) * n1, c * n2 : (c + 1) * n2] = A[:, :, (r - c) % n3]
    return M


def unfold(A: np.ndarray) -> np.ndarray:
    """Stack frontal slices vertically into an (n1*n3) x n2 matrix."""
    A = tc.as_tensor(A)
    n1, n2, n3 = A.shape
    return np.moveaxis(A, 2, 0).reshape(n3 * n1, n2)


def fold(M: np.ndarray, n3: int) -> np.ndarray:
    """Inverse of :func:`unfold` for the given third extent."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] % n3 != 0:
        raise ValueError(f"cannot fold shape {M.shape} with n3={n3}")
    n1 = M.shape[0] // n3
    return np.ascontiguousarray(np.moveaxis(M.reshape(n3, n1, M.shape[1]), 0, 2))


def tprod_oracle(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Reference t-product through the dense block-circulant definition.

    Quadratic in n3; intended for tests only.
    """
    ta._check_tprod_shapes(A, B)
    with ta._one_blas_thread():
        return fold(bcirc(A) @ unfold(B), A.shape[2])


def ttranspose(A: np.ndarray) -> np.ndarray:
    """Tensor transpose: each slice transposed, slices 1..n3-1 reversed."""
    A = np.asarray(A, dtype=np.float64)
    At = np.transpose(A, (1, 0, 2))
    out = np.empty_like(At)
    out[:, :, 0] = At[:, :, 0]
    out[:, :, 1:] = At[:, :, :0:-1]
    return out


def compose(f: ta.TSvd) -> np.ndarray:
    """Reassemble the t-SVD ``f`` as U * S * V^T."""
    return ta.tprod(ta.tprod(f.U, f.S), ttranspose(f.V))


def identity_tensor(n, n3):
    """Identity of the t-product: first frontal slice I_n, the others zero."""
    I = np.zeros((n, n, n3))
    I[:, :, 0] = np.eye(n)
    return I


def is_orthogonal(Q, tol=1e-9):
    """True when Q^T * Q and Q * Q^T both equal the identity tensor."""
    n1, n2, n3 = Q.shape
    if n1 != n2:
        raise ValueError(f"orthogonality requires square frontal slices, got {Q.shape}")
    I = identity_tensor(n1, n3)
    Qt = ttranspose(Q)
    errors = (ta.tprod(Qt, Q) - I, ta.tprod(Q, Qt) - I)
    return max(np.linalg.norm(e) for e in errors) <= tol * np.sqrt(n1 * n3)


def basis_column(i, n, n3):
    """Column basis e_i: n x 1 x n3, a single 1 at (i, 0, 0)."""
    e = np.zeros((n, 1, n3))
    e[i, 0, 0] = 1.0
    return e


def overflowing_tensor(seed, shape):
    """A finite tensor near the float64 limit: (4, 4, 2) with seed 1 has a half spectrum that
    overflows to inf, (8, 8, 1) with seed 0 a slice whose singular values overflow."""
    return 1.7e308 * np.random.default_rng(seed).uniform(-1, 1, shape)


def nan_spectrum_tensor():
    """A finite 200x200x8 tensor, zero but for the tube 1.7e308 * [1, 1, 1, 1, -1, -1, -1, -1]
    at (0, 0).  Slices 0, 2 and 4 of its half spectrum are zero and slices 1 and 3 hold NaN
    (inf - inf).  Each slice is a block of its own, so a route guard that folds the block
    norms [0, nan, 0, nan, 0] with Python's ``max`` reads 0."""
    X = np.zeros((200, 200, 8))
    X[0, 0, :] = 1.7e308 * np.array([1, 1, 1, 1, -1, -1, -1, -1])
    return X


def run_python(code, *args, timeout=60):
    """``python -c code *args`` in a child with ``src/`` and ``tests/`` on its path, stopped
    after ``timeout`` seconds, so that a call that hangs fails its test instead of the suite."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def save_tensor(path, A):
    """Write ``A`` to the ``.tns3`` file ``path``."""
    with open(path, "wb") as f:
        tc.write_tensor(f, A)


def save_netpbm(path, stack):
    """Write ``stack`` to the Netpbm file ``path``."""
    with open(path, "wb") as f:
        imaging.write_netpbm(f, stack)


def traced_peak(fn):
    """Peak bytes that tracemalloc traces during a call of ``fn()``.  A first call runs untraced,
    so that lazy set-up, such as starting the pool's threads, falls outside the trace."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def complex_half_spectrum(A):
    """Slices 0..n3//2 of the complex DFT at every n3, the self-conjugate ones' imaginary
    parts zeroed: the half spectrum as it was before n3 <= 2 stacks became real."""
    n3 = A.shape[2]
    spec = np.fft.fft(np.asarray(A, dtype=np.complex128), axis=2)
    stack = np.moveaxis(spec[:, :, : n3 // 2 + 1], 2, 0).copy()
    stack.imag[[0, n3 // 2] if n3 % 2 == 0 else [0]] = 0.0
    return stack


def complex_from_half_spectrum(stack, n3):
    return np.ascontiguousarray(np.fft.irfft(np.moveaxis(stack, 0, 2), n=n3, axis=2))


def on_complex_route(fn, *args):
    """``fn(*args)`` with the library's half spectrum complex at every n3, so that its
    factorizations run complex LAPACK (zgesdd, zheevd) even where they would be real."""
    with pytest.MonkeyPatch.context() as mp:
        for mod in (ta, prox):
            mp.setattr(mod, "_half_spectrum", complex_half_spectrum)
            mp.setattr(mod, "_from_half_spectrum", complex_from_half_spectrum)
        return fn(*args)


def full_factor_tsvt(Y, tau):
    """``prox.tsvt`` from one unblocked factorization of the whole half spectrum, each slice
    rebuilt on its own from the kept columns of its own factors, in the products of the library's
    rebuild: the reference that the blocked routes, which keep and rebuild each run of a block's
    consecutive slices of the same kept count together, must match bit for bit."""
    shape, stack = Y.shape, ta._half_spectrum(Y)
    wide, p = stack.shape[1] < stack.shape[2], min(stack.shape[1:])
    tops = np.linalg.norm(stack, axis=(1, 2))
    if (tops <= tau).all():
        return np.zeros(shape)
    with ta._one_blas_thread():
        kept, blas = None, ta._openblas()
        if (tops <= prox.GRAM_RATIO * tau).all():
            H = stack.conj().swapaxes(1, 2)
            G = stack @ H if wide else H @ stack
            try:
                if stack.dtype == np.complex128 and p >= prox.SUBSET_FLOOR and blas and blas[2]:
                    pairs = prox._eigh_above(G, tau * tau, blas[2])
                else:
                    lam, V = np.linalg.eigh(G)
                    counts = np.count_nonzero(np.sqrt(np.maximum(lam, 0.0)) > tau, axis=1)
                    pairs = [(e[p - c:], v[:, p - c:].conj().T) for e, v, c in zip(lam, V, counts)]
                kept = [(1.0 - tau / np.maximum(np.sqrt(np.maximum(lam, 0.0)), tau), None, Vh)
                        for lam, Vh in pairs]
            except np.linalg.LinAlgError:
                pass
        if kept is None:
            U, s, Vh = np.linalg.svd(stack, full_matrices=False)
            w = np.maximum(s - tau, 0.0)
            kept = [(w[k, :c], U[k, :, :c], Vh[k, :c])
                    for k, c in enumerate(np.count_nonzero(w, axis=1))]
        for M, (w, U, Vh) in zip(stack, kept):
            if U is None and wide:
                M[...] = Vh.conj().T @ (w[:, None] * (Vh @ M))
            else:
                M[...] = ((M @ Vh.conj().T if U is None else U) * w) @ Vh
        return ta._from_half_spectrum(stack, shape[2])
