import collections
import os
import signal
import threading
import time

import numpy as np
import pytest

from trpca import t_algebra as ta
from trpca import tensor_core as tc
from trpca.prox import tsvt
from trpca.solver import SolverConfig, incoherence_report, solve

from random_tensors import (
    bcirc,
    complex_from_half_spectrum,
    complex_half_spectrum,
    compose,
    fold,
    identity_tensor,
    is_orthogonal,
    on_complex_route,
    overflowing_tensor,
    random_tensor,
    run_python,
    tprod_oracle,
    ttranspose,
    unfold,
)


def naive_dft_tube(tube):
    """Direct O(n^2) DFT summation, the reference for dft3."""
    n = len(tube)
    out = np.zeros(n, dtype=complex)
    for f in range(n):
        for t in range(n):
            out[f] += tube[t] * np.exp(-2j * np.pi * f * t / n)
    return out


def naive_dft3(A):
    n1, n2, n3 = A.shape
    out = np.zeros(A.shape, dtype=complex)
    for i in range(n1):
        for j in range(n2):
            out[i, j, :] = naive_dft_tube(A[i, j, :])
    return out


class TestDft:
    def test_n3_one_is_identity(self, rng):
        A = random_tensor(rng, 3, 2, 1)
        assert np.allclose(ta.dft3(A), A)

    def test_constant_tube_dc_only(self):
        A = np.full((1, 1, 4), 2.5)
        spec = ta.dft3(A)[0, 0]
        assert spec[0] == pytest.approx(10.0)
        assert np.allclose(spec[1:], 0.0, atol=1e-12)

    def test_matches_naive_dft(self, rng):
        A = random_tensor(rng, 2, 2, 4)
        assert np.allclose(ta.dft3(A), naive_dft3(A), atol=1e-12)

    def test_conjugate_symmetry(self, rng):
        A = random_tensor(rng, 3, 3, 5)
        spec = ta.dft3(A)
        for k in range(1, 5):
            assert np.allclose(spec[:, :, k], spec[:, :, 5 - k].conj(), atol=1e-10)

    def test_parseval(self, rng):
        for _ in range(10):
            A = random_tensor(rng, 4, 3, 5)
            lhs = tc.norm_fro(A) ** 2
            rhs = np.sum(np.abs(ta.dft3(A)) ** 2) / 5
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestBcirc:
    def test_n3_one(self, rng):
        A = random_tensor(rng, 3, 2, 1)
        assert np.array_equal(bcirc(A), A[:, :, 0])

    def test_identity_tensor_gives_identity_matrix(self):
        assert np.array_equal(bcirc(identity_tensor(3, 4)), np.eye(12))

    def test_block_layout(self, rng):
        A = random_tensor(rng, 2, 2, 3)
        M = bcirc(A)
        for r in range(3):
            for c in range(3):
                block = M[2 * r : 2 * r + 2, 2 * c : 2 * c + 2]
                assert np.array_equal(block, A[:, :, (r - c) % 3])

    def test_fourier_block_diagonalization(self, rng):
        # (F (x) I) bcirc(A) (F^-1 (x) I) is block diagonal with the
        # spectral slices on the diagonal
        n1, n2, n3 = 3, 2, 4
        A = random_tensor(rng, n1, n2, n3)
        F = np.fft.fft(np.eye(n3))
        Finv = np.linalg.inv(F)
        M = np.kron(F, np.eye(n1)) @ bcirc(A) @ np.kron(Finv, np.eye(n2))
        spec = ta.dft3(A)
        for r in range(n3):
            for c in range(n3):
                block = M[n1 * r : n1 * (r + 1), n2 * c : n2 * (c + 1)]
                expected = spec[:, :, r] if r == c else np.zeros((n1, n2))
                assert np.allclose(block, expected, atol=1e-8)


class TestFoldUnfold:
    def test_round_trip(self, rng):
        A = random_tensor(rng, 3, 4, 5)
        assert np.array_equal(fold(unfold(A), 5), A)

    def test_single_slice(self, rng):
        A = random_tensor(rng, 2, 3, 1)
        assert np.array_equal(unfold(A), A[:, :, 0])

    def test_stacking_order(self, rng):
        A = random_tensor(rng, 2, 2, 3)
        M = unfold(A)
        assert M.shape == (6, 2)
        for k in range(3):
            assert np.array_equal(M[2 * k : 2 * k + 2], A[:, :, k])

    def test_fold_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            fold(np.zeros((5, 2)), 3)


class TestTprod:
    def test_identity_neutral(self, rng):
        A = random_tensor(rng, 3, 3, 4)
        I = identity_tensor(3, 4)
        assert np.allclose(ta.tprod(A, I), A, atol=1e-12)
        assert np.allclose(ta.tprod(I, A), A, atol=1e-12)

    def test_n3_one_is_matrix_product(self, rng):
        A = random_tensor(rng, 3, 4, 1)
        B = random_tensor(rng, 4, 2, 1)
        assert np.allclose(ta.tprod(A, B)[:, :, 0], A[:, :, 0] @ B[:, :, 0], atol=1e-12)

    def test_matches_oracle(self, rng):
        A = random_tensor(rng, 2, 3, 2)
        B = random_tensor(rng, 3, 2, 2)
        assert np.allclose(ta.tprod(A, B), tprod_oracle(A, B), atol=1e-10)

    def test_matches_oracle_many(self, rng):
        for _ in range(25):
            n1, n2, l, n3 = rng.integers(1, 6, size=4)
            A = random_tensor(rng, n1, n2, n3)
            B = random_tensor(rng, n2, l, n3)
            C, Cref = ta.tprod(A, B), tprod_oracle(A, B)
            assert np.abs(C - Cref).max() <= 1e-10 * max(1.0, np.abs(Cref).max())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ta.tprod(np.zeros((2, 3, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            ta.tprod(np.zeros((2, 3, 2)), np.zeros((3, 2, 3)))

    def test_associativity(self, rng):
        for _ in range(10):
            A = random_tensor(rng, 4, 4, 4)
            B = random_tensor(rng, 4, 3, 4)
            C = random_tensor(rng, 3, 4, 4)
            left = ta.tprod(ta.tprod(A, B), C)
            right = ta.tprod(A, ta.tprod(B, C))
            assert np.allclose(left, right, rtol=0, atol=1e-9 * np.abs(left).max())

    def test_bilinearity(self, rng):
        A1 = random_tensor(rng, 3, 2, 3)
        A2 = random_tensor(rng, 3, 2, 3)
        B = random_tensor(rng, 2, 4, 3)
        lhs = ta.tprod(2.0 * A1 + 3.0 * A2, B)
        rhs = 2.0 * ta.tprod(A1, B) + 3.0 * ta.tprod(A2, B)
        assert np.allclose(lhs, rhs, atol=1e-10)
        C = random_tensor(rng, 4, 3, 3)
        lhs2 = ta.tprod(C, 2.0 * A1 - A2)
        rhs2 = 2.0 * ta.tprod(C, A1) - ta.tprod(C, A2)
        assert np.allclose(lhs2, rhs2, atol=1e-10)


class TestTprodOracle:
    def test_zeros(self):
        assert np.array_equal(
            tprod_oracle(np.zeros((2, 3, 2)), np.ones((3, 2, 2))), np.zeros((2, 2, 2))
        )

    def test_tube_product_is_circular_convolution(self, rng):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        conv = np.array([sum(a[j] * b[(k - j) % 4] for j in range(4)) for k in range(4)])
        C = tprod_oracle(a.reshape(1, 1, 4), b.reshape(1, 1, 4))
        assert np.allclose(C[0, 0], conv, atol=1e-12)


class TestTranspose:
    def test_involution(self, rng):
        A = random_tensor(rng, 3, 4, 5)
        assert np.array_equal(ttranspose(ttranspose(A)), A)

    def test_n3_one(self, rng):
        A = random_tensor(rng, 3, 4, 1)
        assert np.array_equal(ttranspose(A)[:, :, 0], A[:, :, 0].T)

    def test_product_rule(self, rng):
        A = random_tensor(rng, 3, 2, 3)
        B = random_tensor(rng, 2, 4, 3)
        lhs = ttranspose(tprod_oracle(A, B))
        rhs = tprod_oracle(ttranspose(B), ttranspose(A))
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestIdentity:
    def test_spectral_slices_are_identity(self):
        spec = ta.dft3(identity_tensor(3, 5))
        for k in range(5):
            assert np.allclose(spec[:, :, k], np.eye(3), atol=1e-12)

    def test_tnn(self):
        assert ta.tnn(identity_tensor(4, 3)) == pytest.approx(4.0)


class TestIsOrthogonal:
    """The test helper ``is_orthogonal`` that the t-SVD tests rely on."""

    def test_identity(self):
        assert is_orthogonal(identity_tensor(3, 4))

    def test_scaled_identity_fails(self):
        assert not is_orthogonal(2.0 * identity_tensor(3, 4))

    def test_tsvd_factors(self, rng):
        A = random_tensor(rng, 4, 4, 3)
        f = ta.tsvd(A)
        assert is_orthogonal(f.U, tol=1e-8)
        assert is_orthogonal(f.V, tol=1e-8)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            is_orthogonal(np.zeros((2, 3, 2)))


class TestTsvd:
    def test_n3_one_matches_matrix_svd(self, rng):
        A = random_tensor(rng, 4, 3, 1)
        f = ta.tsvd(A)
        s_ref = np.linalg.svd(A[:, :, 0], compute_uv=False)
        assert np.allclose(np.diagonal(f.S[:, :, 0]), s_ref, atol=1e-12)
        assert np.allclose(compose(f), A, atol=1e-12)

    def test_identity_input(self):
        I = identity_tensor(3, 4)
        f = ta.tsvd(I)
        assert np.allclose(f.S, I, atol=1e-12)
        assert np.allclose(compose(f), I, atol=1e-12)

    def test_reconstruction(self, rng):
        A = random_tensor(rng, 4, 3, 2)
        f = ta.tsvd(A)
        assert tc.norm_fro(compose(f) - A) <= 1e-10 * tc.norm_fro(A)

    def test_s_spectral_slices_diagonal_descending(self, rng):
        A = random_tensor(rng, 4, 3, 4)
        f = ta.tsvd(A)
        Sbar = ta.dft3(f.S)
        for k in range(4):
            slab = Sbar[:, :, k]
            d = np.diagonal(slab).real
            assert np.allclose(slab, np.diag(d), atol=1e-10)
            assert np.all(d >= -1e-12)
            assert np.all(np.diff(d) <= 1e-12)

    def test_rank_deficient_input_keeps_factors_orthogonal(self, rng):
        # the null-space singular vectors of the even-n3 middle slice must
        # come out real, or U and V lose orthogonality on the way back
        P = random_tensor(rng, 8, 3, 6)
        Q = random_tensor(rng, 3, 8, 6)
        A = ta.tprod(P, Q)
        f = ta.tsvd(A)
        assert is_orthogonal(f.U, tol=1e-8)
        assert is_orthogonal(f.V, tol=1e-8)
        assert tc.norm_fro(compose(f) - A) <= 1e-10 * tc.norm_fro(A)

    def test_one_sided_orthogonality_rectangular(self, rng):
        A = random_tensor(rng, 5, 3, 4)
        f = ta.tsvd(A)
        I = identity_tensor(3, 4)
        err = tc.norm_fro(ta.tprod(ttranspose(f.U), f.U) - I)
        assert err <= 1e-9 * np.sqrt(3 * 4)
        err_v = tc.norm_fro(ta.tprod(ttranspose(f.V), f.V) - I)
        assert err_v <= 1e-9 * np.sqrt(3 * 4)


def skinny(f, r):
    """The skinny t-SVD of rank r, sliced from the full one ``f``."""
    return ta.TSvd(U=f.U[:, :r], S=f.S[:r, :r], V=f.V[:, :r])


class TestSkinnyTsvd:
    def test_full_rank_matches_full(self, rng):
        A = random_tensor(rng, 4, 3, 2)
        f = skinny(ta.tsvd(A), 3)
        assert tc.norm_fro(compose(f) - A) <= 1e-10 * tc.norm_fro(A)

    def test_exact_on_low_rank_input(self, rng):
        P = random_tensor(rng, 5, 2, 3)
        Q = random_tensor(rng, 2, 5, 3)
        A = ta.tprod(P, Q)
        f = skinny(ta.tsvd(A), 2)
        assert tc.norm_fro(compose(f) - A) <= 1e-9 * tc.norm_fro(A)

    def test_rank_one_identity_error(self):
        # dropping one unit singular value per spectral slice loses 1.0 in
        # squared Frobenius norm after the 1/n3 of the inverse transform
        # (checked against per-slice SVD truncation by hand)
        I = identity_tensor(2, 3)
        f = skinny(ta.tsvd(I), 1)
        assert tc.norm_fro(compose(f) - I) ** 2 == pytest.approx(1.0, rel=1e-9)


class TestSpectralLayer:
    def test_one_svd_call_per_sweep(self, rng, monkeypatch):
        svd, eigh = np.linalg.svd, np.linalg.eigh
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(("svd", args[0].shape))
            return svd(*args, **kwargs)

        def counting_eigh(*args, **kwargs):
            calls.append(("eigh", args[0].shape))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        A = random_tensor(rng, 5, 4, 6)
        tsvt(A, 0.5)
        # one factorization of the whole half spectrum: the 4x4 Gram matrices of
        # slices 0..3 of 6, or the slices themselves, never both
        assert calls in ([("eigh", (4, 4, 4))], [("svd", (4, 5, 4))])
        for sweep in (lambda: ta.tsvd(A), lambda: ta.multi_rank(A)):
            calls.clear()
            sweep()
            # the whole half spectrum, slices 0..3 of 6, in a single call
            assert calls == [("svd", (4, 5, 4))]

    @pytest.mark.parametrize("n3", [1, 4, 5])
    def test_half_spectrum_owns_its_data(self, rng, n3):
        # a view would keep the whole n3-slice dft3 output alive
        stack = ta._half_spectrum(random_tensor(rng, 3, 2, n3))
        assert stack.shape == (n3 // 2 + 1, 3, 2)
        assert stack.base is None and stack.flags.c_contiguous

    @pytest.mark.parametrize("n3", [1, 2, 5, 6])
    @pytest.mark.parametrize("n1, n2", [(5, 3), (3, 5)])
    def test_half_spectrum_round_trip(self, rng, n1, n2, n3):
        # the library's one inverse transform undoes its forward one
        A = random_tensor(rng, n1, n2, n3)
        B = ta._from_half_spectrum(ta._half_spectrum(A), n3)
        assert B.shape == A.shape
        assert np.allclose(B, A, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n3", [1, 2, 7, 8])
    def test_slab_count_changes_no_bit(self, rng, monkeypatch, n3):
        # each tube is transformed on its own, so splitting the rows into slabs and blocks
        # changes no bit; for
        # n3 >= 2 the result is also that of transforming the whole tensor at once
        if not ta._openblas():
            pytest.skip("numpy's bundled OpenBLAS thread-count functions are not available")
        A = random_tensor(rng, 9, 5, n3)
        monkeypatch.setattr(ta, "SLAB_FLOOR", 0)
        outs = []
        # one block per slab, then blocks of one row and of two
        whole_slabs = [(workers, ta._BLOCK) for workers in (0, 1, 2)]
        for workers, block in whole_slabs + [(0, 1), (1, 10 * n3)]:
            monkeypatch.setattr(ta, "_WORKERS", workers)
            monkeypatch.setattr(ta, "_BLOCK", block)
            assert len(ta._slabs(A.shape)) == workers + 1
            stack = ta._half_spectrum(A)
            outs.append((stack, ta._from_half_spectrum(stack, n3)))
        if n3 >= 2:
            whole = complex_half_spectrum(A)
            reference = whole.real if n3 == 2 else whole
            outs.append((reference, complex_from_half_spectrum(whole, n3)))
        for stack, back in outs[1:]:
            assert stack.dtype == outs[0][0].dtype and np.array_equal(stack, outs[0][0])
            assert np.array_equal(back, outs[0][1]) and back.flags.c_contiguous

    @pytest.mark.parametrize("n3", [1, 2, 7, 8])
    @pytest.mark.parametrize("n1, n2", [(120, 80), (80, 120)], ids=["tall", "wide"])
    def test_svd_chunk_and_block_count_changes_no_bit(self, rng, monkeypatch, n1, n2, n3):
        # LAPACK factors each matrix of a batch on its own, so the chunks and blocks of
        # ``_svd`` change no bit of a sweep, of ``tsvd`` or of ``tsvt``'s SVD route
        if not ta._openblas():
            pytest.skip("numpy's bundled OpenBLAS thread-count functions are not available")
        A = random_tensor(rng, n1, n2, n3)
        L = ta.tprod(random_tensor(rng, n1, 3, n3), random_tensor(rng, 3, n2, n3))
        stack = ta._half_spectrum(A)
        assert ta._above_floor(stack)
        tau = np.linalg.norm(stack, axis=(1, 2)).max() / 1000  # the SVD route
        svd, calls = np.linalg.svd, []
        with ta._one_blas_thread():  # one batched call each
            whole, whole_s = svd(stack, full_matrices=False), svd(stack, compute_uv=False)
        # a stack of one block writes into outputs allocated once, with one plain call's bits
        small = stack[:, : n1 // 10, : n2 // 10].copy()
        assert ta._chunks(small) == [[slice(0, len(small))]]
        with ta._one_blas_thread():
            plain, plain_s = svd(small, full_matrices=False), svd(small, compute_uv=False)
        for x, y in zip(ta._svd(small), plain):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert np.array_equal(ta._svd(small, compute_uv=False)[1], plain_s)

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        outs = []
        # default blocks (two or one per chunk here), then blocks of one slice
        for workers, block in [(0, ta._BLOCK), (1, ta._BLOCK), (2, ta._BLOCK), (0, 1), (2, 1)]:
            monkeypatch.setattr(ta, "_WORKERS", workers)
            monkeypatch.setattr(ta, "_BLOCK", block)
            chunks = ta._chunks(stack)
            assert len(chunks) == min(workers + 1, len(stack))
            calls.clear()
            factors = ta._svd(stack)
            # one call per block of each chunk
            blocks = [b for c in chunks for b in c]
            assert sorted(calls) == sorted(b.stop - b.start for b in blocks)
            assert all(np.array_equal(x, y) for x, y in zip(factors, whole))
            assert np.array_equal(ta._svd(stack, compute_uv=False)[1], whole_s)
            f = ta.tsvd(A)
            outs.append([*ta._sweep(A, factors=True), *ta._sweep(L, factors=True),
                         *ta._sweep(A)[:3], f.U, f.S, f.V, tsvt(A, tau)])
        assert np.array_equal(outs[0][5], [3] * n3)  # L's factors are cut to 3 columns
        for out in outs[1:]:
            for x, y in zip(out, outs[0]):
                assert np.asarray(x).dtype == np.asarray(y).dtype and np.array_equal(x, y)

    def test_failed_singular_value_sweep_is_retried(self, rng, monkeypatch):
        A = random_tensor(rng, 5, 3, 4)
        expected = ta.tnn(A)
        svd = np.linalg.svd
        calls = []

        def svd_failing_once(*args, **kwargs):
            calls.append(args[0].shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_failing_once)
        assert ta.tnn(A) == pytest.approx(expected, rel=1e-12)
        assert calls == [(3, 5, 3), (3, 3, 5)]


class TestRealHalfSpectrum:
    """For n3 <= 2 every kept spectral slice is real, so the half spectrum is a float64
    stack and every consumer runs real kernels, agreeing with the complex route."""

    @pytest.mark.parametrize(
        "n3, dtype", [(1, np.float64), (2, np.float64), (3, np.complex128), (4, np.complex128)]
    )
    def test_stack_dtype(self, rng, n3, dtype):
        stack = ta._half_spectrum(random_tensor(rng, 3, 2, n3))
        assert stack.dtype == dtype
        assert stack.base is None and stack.flags.c_contiguous

    @pytest.mark.parametrize("n3", [1, 2])
    @pytest.mark.parametrize("n1, n2", [(6, 4), (4, 6)], ids=["tall", "wide"])
    def test_matches_complex_route(self, rng, n1, n2, n3):
        A = random_tensor(rng, n1, n2, n3)
        B = random_tensor(rng, n2, 3, n3)
        scale = tc.norm_fro(A)
        for fn in (
            lambda A: compose(ta.tsvd(A)),
            lambda A: compose(skinny(ta.tsvd(A), 2)),
            lambda A: ta.tsvd(A).S,
        ):
            assert tc.norm_fro(fn(A) - on_complex_route(fn, A)) <= 1e-12 * scale
        # rank 2 in every slice, so the ranks count past a gap
        L = ta.tprod(random_tensor(rng, n1, 2, n3), random_tensor(rng, 2, n2, n3))
        for X in (A, L):
            assert np.array_equal(ta.multi_rank(X), on_complex_route(ta.multi_rank, X))
            assert ta.tnn(X) == pytest.approx(on_complex_route(ta.tnn, X), rel=1e-12)
            sn = on_complex_route(ta.spectral_norm, X)
            assert ta.spectral_norm(X) == pytest.approx(sn, rel=1e-12)
        assert np.array_equal(ta.multi_rank(L), [2] * n3)
        AB = ta.tprod(A, B)
        bound = 1e-12 * scale * tc.norm_fro(B)
        assert tc.norm_fro(AB - tprod_oracle(A, B)) <= bound
        assert tc.norm_fro(AB - on_complex_route(ta.tprod, A, B)) <= bound

    @pytest.mark.parametrize("n3", [1, 2])
    def test_only_real_factorizations(self, rng, monkeypatch, n3):
        seen = []
        for name in ("svd", "eigh"):
            def spy(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                seen.append((_name, a.dtype))
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        if n3 == 1:
            def no_dft3(A):
                raise AssertionError("the DFT of length 1 is the identity")

            monkeypatch.setattr(ta, "dft3", no_dft3)
        A = random_tensor(rng, 6, 4, n3)
        top = np.linalg.norm(ta._half_spectrum(A), axis=(1, 2)).max()
        tsvt(A, top / 10)  # Gram route
        tsvt(A, top / 1000)  # SVD route
        compose(ta.tsvd(A))
        ta.tprod(A, ttranspose(A))
        ta.multi_rank(A)
        incoherence_report(A)
        solve(A, SolverConfig(max_iter=3))
        assert {name for name, _ in seen} == {"svd", "eigh"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}

    def test_svd_retry_is_real(self, rng, monkeypatch):
        A = random_tensor(rng, 5, 3, 2)
        expected = ta.tnn(A)
        svd = np.linalg.svd
        calls = []

        def svd_failing_once(a, *args, **kwargs):
            calls.append((a.shape, a.dtype))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_failing_once)
        assert ta.tnn(A) == pytest.approx(expected, rel=1e-12)
        assert calls == [((2, 5, 3), np.float64), ((2, 3, 5), np.float64)]


class TestRanks:
    def test_identity(self):
        assert np.array_equal(ta.multi_rank(identity_tensor(3, 4)), [3, 3, 3, 3])
        assert ta.tubal_rank(identity_tensor(3, 4)) == 3

    def test_factor_product_rank(self, rng):
        P = random_tensor(rng, 6, 2, 4)
        Q = random_tensor(rng, 2, 6, 4)
        assert ta.tubal_rank(ta.tprod(P, Q)) == 2

    def test_rank_submultiplicative(self, rng):
        for _ in range(10):
            A = random_tensor(rng, 4, 4, 3)
            B = random_tensor(rng, 4, 4, 3)
            C = ta.tprod(A, B)
            assert ta.tubal_rank(C) <= min(ta.tubal_rank(A), ta.tubal_rank(B))

    def test_average_rank_identity(self):
        assert ta.multi_rank(identity_tensor(3, 4)).mean() == pytest.approx(3.0)

    def test_average_rank_zeros(self):
        assert ta.multi_rank(np.zeros((3, 3, 2))).mean() == 0.0

    def test_average_rank_mixed(self, rng):
        # build distinct per-slice spectral ranks directly in Fourier domain
        n, n3 = 4, 3
        spec = np.zeros((n, n, n3), dtype=complex)
        ranks = [3, 1, 1]  # slices 1 and 2 mirror one another
        for k, r in enumerate(ranks):
            M = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
            spec[:, :, k] = M
        spec[:, :, 2] = spec[:, :, 1].conj()
        A = np.fft.ifft(spec, axis=2).real
        assert np.array_equal(ta._sweep(A, 1e-10)[0], ranks)

    def test_negative_tol_rejected(self, rng):
        for tol in (-1.0, np.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                ta._sweep(random_tensor(rng, 2, 2, 2), tol)


class TestNorms:
    def test_tnn_n3_one(self, rng):
        A = random_tensor(rng, 4, 3, 1)
        assert ta.tnn(A) == pytest.approx(
            np.linalg.svd(A[:, :, 0], compute_uv=False).sum(), rel=1e-12
        )

    def test_tnn_matches_bcirc(self, rng):
        A = random_tensor(rng, 3, 3, 2)
        ref = np.linalg.svd(bcirc(A), compute_uv=False).sum() / 2
        assert ta.tnn(A) == pytest.approx(ref, abs=1e-8)

    def test_spectral_matches_bcirc(self, rng):
        A = random_tensor(rng, 3, 2, 3)
        assert ta.spectral_norm(A) == pytest.approx(
            np.linalg.norm(bcirc(A), 2), abs=1e-8
        )

    def test_spectral_identity(self):
        assert ta.spectral_norm(identity_tensor(3, 4)) == pytest.approx(1.0)

    def test_spectral_homogeneity(self, rng):
        A = random_tensor(rng, 3, 3, 2)
        assert ta.spectral_norm(-2.5 * A) == pytest.approx(2.5 * ta.spectral_norm(A), rel=1e-12)

    def test_nuclear_spectral_duality(self, rng):
        for _ in range(10):
            A = random_tensor(rng, 3, 3, 3)
            B = random_tensor(rng, 3, 3, 3)
            assert abs(np.vdot(A, B)) <= ta.tnn(A) * ta.spectral_norm(B) * (
                1 + 1e-10
            )


class TestNonFiniteSpectrum:
    """A finite tensor whose spectrum, singular values or tnn overflow raises ``LinAlgError``:
    ``_svd`` lets no block that is not finite reach LAPACK and returns no singular value that is
    not finite, and ``_sweep`` checks the tnn's sum."""

    @pytest.mark.parametrize("call", ["solve(X)", "tsvt(X, 1.0)", "ta.tsvd(X)",
                                      "ta.multi_rank(X)"])
    def test_spectrum_overflows(self, call):
        # LAPACK can spin without end on such a spectrum, so the call runs in a child
        code = (
            "import numpy as np\n"
            "from trpca import t_algebra as ta\n"
            "from trpca.prox import tsvt\n"
            "from trpca.solver import solve\n"
            "from random_tensors import overflowing_tensor\n"
            "X = overflowing_tensor(1, (4, 4, 2))\n"
            "try:\n"
            f"    {call}\n"
            "except np.linalg.LinAlgError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no LinAlgError')\n"
        )
        child = run_python(code)
        assert child.returncode == 0, child.stderr

    @pytest.mark.parametrize("fn", [solve, ta.tnn, ta.spectral_norm, ta.multi_rank, ta.tsvd],
                             ids=lambda fn: fn.__name__)
    def test_singular_values_overflow(self, fn):
        X = overflowing_tensor(0, (8, 8, 1))
        with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError):
            fn(X)

    def test_tnn_sum_overflows(self):
        X = np.zeros((2, 2, 1))
        X[0, 0, 0] = X[1, 1, 0] = 1e308  # two finite singular values whose sum is not
        with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError, match="nuclear"):
            ta.tnn(X)


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not ta._openblas(),
    reason="needs os.fork and numpy's bundled OpenBLAS thread-count functions",
)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class UnpicklableError(Exception):
    """An exception that pickles but cannot be rebuilt from its arguments."""

    def __init__(self, what, code):
        super().__init__(what)


@needs_fork
class TestForkMap:
    """``t_algebra._fork_map`` shares whole calls between the calling process and children
    forked for the map; where it does not fork, it runs them one after another on the calling
    thread."""

    @pytest.fixture(autouse=True)
    def one_child(self, monkeypatch):
        monkeypatch.setattr(ta, "_WORKERS", 1)
        self.ran_on = []  # the thread of each call made in this process

    def slow_square(self, x, y=0):
        self.ran_on.append(threading.get_ident())
        time.sleep(0.05)
        return x * x + y, os.getpid()

    def test_results_in_call_order_from_more_than_one_process(self):
        outs = ta._fork_map(self.slow_square, range(7), range(10, 17))
        assert [v for v, _ in outs] == list(map(lambda x, y: x * x + y, range(7), range(10, 17)))
        assert os.getpid() in {pid for _, pid in outs} and len({pid for _, pid in outs}) == 2
        assert_no_child_left()

    def test_every_call_runs_once_past_the_pipe_window(self, tmp_path, monkeypatch):
        # more processes than cores and more calls than the pipe holds indices at once
        monkeypatch.setattr(ta, "_WORKERS", 4)
        log = tmp_path / "calls"
        n = 3 * ta._WINDOW + 5
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:

            def call(k):
                os.write(fd, b"%d\n" % k)  # one atomic append per call, from any process
                return k, os.getpid()

            start = time.monotonic()
            outs = ta._fork_map(call, range(n))
        finally:
            os.close(fd)
        assert time.monotonic() - start < 60
        assert [k for k, _ in outs] == list(range(n))
        assert sorted(map(int, log.read_text().split())) == list(range(n))
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["no_workers", "in_task", "no_fork"])
    def test_forks_nothing(self, monkeypatch, where):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        if where == "no_workers":
            monkeypatch.setattr(ta, "_WORKERS", 0)
        elif where == "no_fork":
            monkeypatch.delattr(os, "fork")
        if where == "in_task":  # each piece of a two-piece _blockwise runs in a task
            pieces = ta._blockwise(lambda _: ta._fork_map(self.slow_square, range(3)), [[0], [1]])
            outs = sum(pieces, [])
        else:
            outs = ta._fork_map(self.slow_square, range(3))
        assert [v for v, _ in outs] == [0, 1, 4] * (2 if where == "in_task" else 1)
        assert {pid for _, pid in outs} == {os.getpid()}
        # every _fork_map ran its three calls on its own thread: the test's, or its piece's
        calls_per_thread = collections.Counter(self.ran_on)
        assert calls_per_thread[threading.get_ident()] == 3
        assert sorted(calls_per_thread.values()) == [3] * (2 if where == "in_task" else 1)

    def test_nested_pieces_in_a_child_are_one(self):
        stack, shape = np.empty((60, 100, 100)), (100, 100, 100)
        assert ta._above_floor(stack) and len(ta._slabs(shape)) == 2

        def pieces(_):
            time.sleep(0.05)
            return len(ta._chunks(stack)), len(ta._slabs(shape)), os.getpid()

        outs = ta._fork_map(pieces, range(4))
        assert len({pid for *_, pid in outs}) == 2
        assert all(out[:2] == (1, 1) for out in outs)

    def test_lowest_index_error_is_raised_with_its_type(self, tmp_path):
        log = tmp_path / "calls"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def call(k):
            os.write(fd, b"%d\n" % k)
            if k == 0:  # fails last, once call 1 has failed in the other process
                time.sleep(0.3)
                raise ValueError("call 0 failed")
            raise KeyError(f"call {k} failed")

        try:
            with pytest.raises(ValueError, match="call 0 failed"):
                ta._fork_map(call, range(6))
        finally:
            os.close(fd)
        assert sorted(map(int, log.read_text().split())) == [0, 1]  # no call starts after a failure
        assert_no_child_left()

    def test_unpicklable_error_comes_back_as_runtime_error(self):
        parent = os.getpid()

        def call(k):
            time.sleep(0.05)
            if os.getpid() != parent:
                raise UnpicklableError("cannot rebuild", 7)
            return k

        with pytest.raises(RuntimeError, match="UnpicklableError"):
            ta._fork_map(call, range(4))
        assert_no_child_left()

    @pytest.mark.parametrize("end, status", [("kill", "signal 9"), ("exit", "exit status 3")])
    def test_a_dead_child_raises(self, end, status):
        parent = os.getpid()

        def call(k):
            time.sleep(0.05)
            if os.getpid() != parent:
                if end == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3)
            return k

        with pytest.raises(RuntimeError, match=status):
            ta._fork_map(call, range(4))
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_children(self):
        parent = os.getpid()

        def call(k):
            if os.getpid() == parent:
                time.sleep(0.05)
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            ta._fork_map(call, range(2))
        assert time.monotonic() - start < 30
        assert_no_child_left()
        assert ta._pin_depth == 0 and not ta._in_task()
