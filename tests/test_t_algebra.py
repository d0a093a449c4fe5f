import numpy as np
import pytest

from trpca import t_algebra as ta
from trpca import tensor_core as tc
from trpca.prox import tsvt
from trpca.solver import SolverConfig, incoherence_report, solve

from random_tensors import on_complex_route, random_tensor


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
        assert np.array_equal(ta.bcirc(A), A[:, :, 0])

    def test_identity_tensor_gives_identity_matrix(self):
        assert np.array_equal(ta.bcirc(ta.identity_tensor(3, 4)), np.eye(12))

    def test_block_layout(self, rng):
        A = random_tensor(rng, 2, 2, 3)
        M = ta.bcirc(A)
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
        M = np.kron(F, np.eye(n1)) @ ta.bcirc(A) @ np.kron(Finv, np.eye(n2))
        spec = ta.dft3(A)
        for r in range(n3):
            for c in range(n3):
                block = M[n1 * r : n1 * (r + 1), n2 * c : n2 * (c + 1)]
                expected = spec[:, :, r] if r == c else np.zeros((n1, n2))
                assert np.allclose(block, expected, atol=1e-8)


class TestFoldUnfold:
    def test_round_trip(self, rng):
        A = random_tensor(rng, 3, 4, 5)
        assert np.array_equal(ta.fold(ta.unfold(A), 5), A)

    def test_single_slice(self, rng):
        A = random_tensor(rng, 2, 3, 1)
        assert np.array_equal(ta.unfold(A), A[:, :, 0])

    def test_stacking_order(self, rng):
        A = random_tensor(rng, 2, 2, 3)
        M = ta.unfold(A)
        assert M.shape == (6, 2)
        for k in range(3):
            assert np.array_equal(M[2 * k : 2 * k + 2], A[:, :, k])

    def test_fold_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            ta.fold(np.zeros((5, 2)), 3)


class TestTprod:
    def test_identity_neutral(self, rng):
        A = random_tensor(rng, 3, 3, 4)
        I = ta.identity_tensor(3, 4)
        assert np.allclose(ta.tprod(A, I), A, atol=1e-12)
        assert np.allclose(ta.tprod(I, A), A, atol=1e-12)

    def test_n3_one_is_matrix_product(self, rng):
        A = random_tensor(rng, 3, 4, 1)
        B = random_tensor(rng, 4, 2, 1)
        assert np.allclose(ta.tprod(A, B)[:, :, 0], A[:, :, 0] @ B[:, :, 0], atol=1e-12)

    def test_matches_oracle(self, rng):
        A = random_tensor(rng, 2, 3, 2)
        B = random_tensor(rng, 3, 2, 2)
        assert np.allclose(ta.tprod(A, B), ta.tprod_oracle(A, B), atol=1e-10)

    def test_matches_oracle_many(self, rng):
        for _ in range(25):
            n1, n2, l, n3 = rng.integers(1, 6, size=4)
            A = random_tensor(rng, n1, n2, n3)
            B = random_tensor(rng, n2, l, n3)
            C, Cref = ta.tprod(A, B), ta.tprod_oracle(A, B)
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
            ta.tprod_oracle(np.zeros((2, 3, 2)), np.ones((3, 2, 2))), np.zeros((2, 2, 2))
        )

    def test_tube_product_is_circular_convolution(self, rng):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        conv = np.array([sum(a[j] * b[(k - j) % 4] for j in range(4)) for k in range(4)])
        C = ta.tprod_oracle(a.reshape(1, 1, 4), b.reshape(1, 1, 4))
        assert np.allclose(C[0, 0], conv, atol=1e-12)


class TestTranspose:
    def test_involution(self, rng):
        A = random_tensor(rng, 3, 4, 5)
        assert np.array_equal(ta.ttranspose(ta.ttranspose(A)), A)

    def test_n3_one(self, rng):
        A = random_tensor(rng, 3, 4, 1)
        assert np.array_equal(ta.ttranspose(A)[:, :, 0], A[:, :, 0].T)

    def test_product_rule(self, rng):
        A = random_tensor(rng, 3, 2, 3)
        B = random_tensor(rng, 2, 4, 3)
        lhs = ta.ttranspose(ta.tprod_oracle(A, B))
        rhs = ta.tprod_oracle(ta.ttranspose(B), ta.ttranspose(A))
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestIdentity:
    def test_spectral_slices_are_identity(self):
        spec = ta.dft3(ta.identity_tensor(3, 5))
        for k in range(5):
            assert np.allclose(spec[:, :, k], np.eye(3), atol=1e-12)

    def test_tnn(self):
        assert ta.tnn(ta.identity_tensor(4, 3)) == pytest.approx(4.0)


class TestIsOrthogonal:
    def test_identity(self):
        assert ta.is_orthogonal(ta.identity_tensor(3, 4))

    def test_scaled_identity_fails(self):
        assert not ta.is_orthogonal(2.0 * ta.identity_tensor(3, 4))

    def test_tsvd_factors(self, rng):
        A = random_tensor(rng, 4, 4, 3)
        f = ta.tsvd(A)
        assert ta.is_orthogonal(f.U, tol=1e-8)
        assert ta.is_orthogonal(f.V, tol=1e-8)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            ta.is_orthogonal(np.zeros((2, 3, 2)))


class TestTsvd:
    def test_n3_one_matches_matrix_svd(self, rng):
        A = random_tensor(rng, 4, 3, 1)
        f = ta.tsvd(A)
        s_ref = np.linalg.svd(A[:, :, 0], compute_uv=False)
        assert np.allclose(np.diagonal(f.S[:, :, 0]), s_ref, atol=1e-12)
        assert np.allclose(f.compose(), A, atol=1e-12)

    def test_identity_input(self):
        I = ta.identity_tensor(3, 4)
        f = ta.tsvd(I)
        assert np.allclose(f.S, I, atol=1e-12)
        assert np.allclose(f.compose(), I, atol=1e-12)

    def test_reconstruction(self, rng):
        A = random_tensor(rng, 4, 3, 2)
        f = ta.tsvd(A)
        assert tc.norm_fro(f.compose() - A) <= 1e-10 * tc.norm_fro(A)

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
        assert ta.is_orthogonal(f.U, tol=1e-8)
        assert ta.is_orthogonal(f.V, tol=1e-8)
        assert tc.norm_fro(f.compose() - A) <= 1e-10 * tc.norm_fro(A)

    def test_one_sided_orthogonality_rectangular(self, rng):
        A = random_tensor(rng, 5, 3, 4)
        f = ta.tsvd(A)
        I = ta.identity_tensor(3, 4)
        err = tc.norm_fro(ta.tprod(ta.ttranspose(f.U), f.U) - I)
        assert err <= 1e-9 * np.sqrt(3 * 4)
        err_v = tc.norm_fro(ta.tprod(ta.ttranspose(f.V), f.V) - I)
        assert err_v <= 1e-9 * np.sqrt(3 * 4)


class TestSkinnyTsvd:
    def test_full_rank_matches_full(self, rng):
        A = random_tensor(rng, 4, 3, 2)
        skinny = ta.tsvd(A, rank=3)
        assert tc.norm_fro(skinny.compose() - A) <= 1e-10 * tc.norm_fro(A)

    def test_exact_on_low_rank_input(self, rng):
        P = random_tensor(rng, 5, 2, 3)
        Q = random_tensor(rng, 2, 5, 3)
        A = ta.tprod(P, Q)
        f = ta.tsvd(A, rank=2)
        assert tc.norm_fro(f.compose() - A) <= 1e-9 * tc.norm_fro(A)

    def test_rank_one_identity_error(self):
        # dropping one unit singular value per spectral slice loses 1.0 in
        # squared Frobenius norm after the 1/n3 of the inverse transform
        # (checked against per-slice SVD truncation by hand)
        I = ta.identity_tensor(2, 3)
        f = ta.tsvd(I, rank=1)
        assert tc.norm_fro(f.compose() - I) ** 2 == pytest.approx(1.0, rel=1e-9)

    def test_rank_out_of_range(self, rng):
        A = random_tensor(rng, 3, 3, 2)
        with pytest.raises(ValueError):
            ta.tsvd(A, rank=4)
        with pytest.raises(ValueError):
            ta.tsvd(A, rank=0)


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
            lambda A: ta.tsvd(A).compose(),
            lambda A: ta.tsvd(A, rank=2).compose(),
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
        assert tc.norm_fro(AB - ta.tprod_oracle(A, B)) <= bound
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
        ta.tsvd(A).compose()
        ta.tprod(A, ta.ttranspose(A))
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
        assert np.array_equal(ta.multi_rank(ta.identity_tensor(3, 4)), [3, 3, 3, 3])
        assert ta.tubal_rank(ta.identity_tensor(3, 4)) == 3

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
        assert ta.average_rank(ta.identity_tensor(3, 4)) == pytest.approx(3.0)

    def test_average_rank_zeros(self):
        assert ta.average_rank(np.zeros((3, 3, 2))) == 0.0

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
        assert np.array_equal(ta.multi_rank(A, 1e-10), ranks)
        assert ta.average_rank(A, 1e-10) == pytest.approx(np.mean(ranks))

    def test_negative_tol_rejected(self, rng):
        for tol in (-1.0, np.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                ta.multi_rank(random_tensor(rng, 2, 2, 2), tol)


class TestNorms:
    def test_tnn_n3_one(self, rng):
        A = random_tensor(rng, 4, 3, 1)
        assert ta.tnn(A) == pytest.approx(
            np.linalg.svd(A[:, :, 0], compute_uv=False).sum(), rel=1e-12
        )

    def test_tnn_matches_bcirc(self, rng):
        A = random_tensor(rng, 3, 3, 2)
        ref = np.linalg.svd(ta.bcirc(A), compute_uv=False).sum() / 2
        assert ta.tnn(A) == pytest.approx(ref, abs=1e-8)

    def test_spectral_matches_bcirc(self, rng):
        A = random_tensor(rng, 3, 2, 3)
        assert ta.spectral_norm(A) == pytest.approx(
            np.linalg.norm(ta.bcirc(A), 2), abs=1e-8
        )

    def test_spectral_identity(self):
        assert ta.spectral_norm(ta.identity_tensor(3, 4)) == pytest.approx(1.0)

    def test_spectral_homogeneity(self, rng):
        A = random_tensor(rng, 3, 3, 2)
        assert ta.spectral_norm(-2.5 * A) == pytest.approx(2.5 * ta.spectral_norm(A), rel=1e-12)

    def test_nuclear_spectral_duality(self, rng):
        for _ in range(10):
            A = random_tensor(rng, 3, 3, 3)
            B = random_tensor(rng, 3, 3, 3)
            assert abs(tc.inner_product(A, B)) <= ta.tnn(A) * ta.spectral_norm(B) * (
                1 + 1e-10
            )
