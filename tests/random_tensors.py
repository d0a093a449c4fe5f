"""Random test tensors and a complex-route reference, importable from every test
module (unlike ``conftest``, whose name ``perfbench/tests`` also uses)."""

import numpy as np
import pytest

from trpca import prox
from trpca import t_algebra as ta


def random_tensor(rng, n1, n2, n3, scale=1.0):
    return scale * rng.normal(size=(n1, n2, n3))


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
