"""Random test tensors, t-product identities, a complex-route reference and a
full-factor ``tsvt`` reference, importable from every test module (unlike
``conftest``, whose name ``perfbench/tests`` also uses)."""

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
    Qt = ta.ttranspose(Q)
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
    """``prox.tsvt`` as it was while both routes held every singular vector of the stack: each
    block's factors written into outputs as large as the stack (a stack of one block keeps its
    own), and every block rebuilt from them up to the largest rank kept in any slice.  The
    reference that the routes keeping only the vectors they use must match bit for bit."""
    shape, stack = Y.shape, ta._half_spectrum(Y)
    pieces = ta._chunks(stack)
    tops = ta._blockwise(lambda b: np.linalg.norm(stack[b], axis=(1, 2)).max(), pieces)
    if all(top <= tau for top in tops):
        return np.zeros(shape)
    with ta._one_blas_thread():
        if all(top <= prox.GRAM_RATIO * tau for top in tops):
            try:
                return ta._from_half_spectrum(_full_factor_gram_svt(stack, tau, pieces), shape[2])
            except np.linalg.LinAlgError:
                pass
        U, s, Vh = ta._svd(stack)
        s = np.maximum(s - tau, 0.0)
        r = int(np.count_nonzero(s, axis=1).max())
        ta._blockwise(lambda b: np.matmul(U[b, :, :r] * s[b, None, :r], Vh[b, :r], out=stack[b]),
                      pieces)
        return ta._from_half_spectrum(stack, shape[2])


def _full_factor_gram_svt(stack, tau, pieces):
    wide, p = stack.shape[1] < stack.shape[2], min(stack.shape[1:])

    def factor(b):
        S, H = stack[b], stack[b].conj().swapaxes(1, 2)
        return np.linalg.eigh(np.matmul(S, H) if wide else np.matmul(H, S))

    if len(pieces) == 1 and len(pieces[0]) == 1:
        lam, V = factor(pieces[0][0])
    else:
        lam = np.empty(stack.shape[:1] + (p,))
        V = np.empty(stack.shape[:1] + (p, p), stack.dtype)

        def write(b):
            lam[b], V[b] = factor(b)

        ta._blockwise(write, pieces)
    s = np.sqrt(np.maximum(lam, 0.0))
    first = p - int(np.count_nonzero(s > tau, axis=1).max())
    w = 1.0 - tau / np.maximum(s[:, first:], tau)

    def rebuild(b):
        M, Vb = stack[b].conj().swapaxes(1, 2) if wide else stack[b], V[b, :, first:]
        MVw, Vh = (M @ Vb) * w[b, None, :], Vb.conj().swapaxes(1, 2)
        out = np.matmul(MVw, Vh, out=None if wide else stack[b])
        if wide:
            np.conjugate(out.swapaxes(1, 2), out=stack[b])

    ta._blockwise(rebuild, pieces)
    return stack
