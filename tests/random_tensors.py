"""Random test tensors, t-product identities and a complex-route reference,
importable from every test module (unlike ``conftest``, whose name
``perfbench/tests`` also uses)."""

import numpy as np
import pytest

from trpca import prox
from trpca import t_algebra as ta


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
