import ctypes
import sys
import threading
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from trpca import prox
from trpca import t_algebra as ta
from trpca import tensor_core as tc
from trpca.prox import soft_threshold, tsvt

from random_tensors import (
    full_factor_tsvt, identity_tensor, nan_spectrum_tensor, on_complex_route, random_tensor,
    traced_peak, ttranspose
)


def tnn_objective(L, Y, tau):
    """tau*||L||_tnn + (1/2)*||L - Y||_F^2, evaluated from scratch."""
    return tau * ta.tnn(L) + 0.5 * tc.norm_fro(L - Y) ** 2


def scalar_prox_oracle(y, tau, lo=-10.0, hi=10.0):
    """Minimize tau*|x| + (x - y)^2 / 2 numerically.

    A coarse grid brackets the minimizer, then bisection on the monotone
    subgradient x - y + tau*sgn(x) (with sgn([-tau, tau] ni y - x mapped
    through the grid bracket) refines it; the objective itself is too flat
    at the bottom for argmin-based refinement below ~1e-8.
    """
    xs = np.linspace(lo, hi, 2001)
    vals = tau * np.abs(xs) + 0.5 * (xs - y) ** 2
    i = int(np.argmin(vals))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]

    def subgrad(x):
        if x > 0:
            return x - y + tau
        if x < 0:
            return x - y - tau
        return 0.0 if abs(y) <= tau else x - y + tau * np.sign(y)

    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if subgrad(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestTsvt:
    def test_full_shrinkage(self, rng):
        Y = random_tensor(rng, 3, 3, 2)
        tau = ta.spectral_norm(Y) + 1e-12
        assert np.allclose(tsvt(Y, tau), 0.0, atol=1e-10)

    @pytest.mark.parametrize("n3", [1, 2, 5, 6])
    def test_zero_shortcut_factors_nothing(self, rng, monkeypatch, n3):
        # at tau >= max_k ||Y_k||_F every singular value shrinks to 0: +0.0 entries and no
        # factorization; just below it (still above sigma_1) the Gram route gives the same bits
        Y = random_tensor(rng, 6, 4, n3)
        top = np.linalg.norm(ta._half_spectrum(Y), axis=(1, 2)).max()
        calls = TestParallelLayer.factorizations(monkeypatch)
        out = tsvt(Y, top)
        assert calls == [] and out.shape == Y.shape
        assert np.array_equal(out, np.zeros(Y.shape)) and not np.signbit(out).any()
        assert tsvt(Y, top * (1 - 1e-9)).tobytes() == out.tobytes()
        assert calls == [("eigh", n3 // 2 + 1)]

    def test_n3_one_matches_matrix_svt(self, rng):
        Y = random_tensor(rng, 5, 4, 1)
        tau = 0.7
        U, s, Vh = np.linalg.svd(Y[:, :, 0], full_matrices=False)
        ref = (U * np.maximum(s - tau, 0.0)) @ Vh
        assert np.allclose(tsvt(Y, tau)[:, :, 0], ref, atol=1e-9)

    def test_perturbation_optimality(self, rng):
        Y = random_tensor(rng, 4, 4, 3)
        tau = 0.3
        L = tsvt(Y, tau)
        base = tnn_objective(L, Y, tau)
        for radius in (1e-3, 1e-2):
            for _ in range(500):
                D = random_tensor(rng, 4, 4, 3)
                D *= radius / tc.norm_fro(D)
                assert tnn_objective(L + D, Y, tau) > base

    def test_failed_svd_retried_on_conjugate_transpose(self, rng, monkeypatch):
        Y = random_tensor(rng, 6, 4, 5)
        # the spectral slices have Frobenius norms 9.3-11.1, above GRAM_RATIO * tau,
        # so the SVD branch runs
        tau = 0.05
        expected = tsvt(Y, tau)
        svd = np.linalg.svd
        calls = []

        def svd_failing_once(*args, **kwargs):
            calls.append(args[0].shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_failing_once)
        out = tsvt(Y, tau)
        assert calls == [(3, 6, 4), (3, 4, 6)]
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_failed_eigh_falls_back_to_svd(self, rng, monkeypatch):
        Y = random_tensor(rng, 6, 4, 5)
        expected = tsvt(Y, 0.8)
        eigh, svd = np.linalg.eigh, np.linalg.svd
        calls = []

        def eigh_failing_once(*args, **kwargs):
            calls.append("eigh")
            if calls.count("eigh") == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(*args, **kwargs)

        def counting_svd(*args, **kwargs):
            calls.append("svd")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing_once)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        out = tsvt(Y, 0.8)
        assert calls == ["eigh", "svd"]
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_raises_when_both_factorizations_fail(self, rng, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(np.linalg.LinAlgError):
            tsvt(random_tensor(rng, 4, 3, 3), 0.8)

    def test_rejects_nonpositive_tau(self, rng):
        for tau in (0.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                tsvt(random_tensor(rng, 2, 2, 2), tau)

    def test_zero_to_zero(self):
        assert np.array_equal(tsvt(np.zeros((2, 2, 3)), 0.5), np.zeros((2, 2, 3)))

    def test_nonexpansive(self, rng):
        for _ in range(10):
            Y1 = random_tensor(rng, 4, 3, 3)
            Y2 = random_tensor(rng, 4, 3, 3)
            d_out = tc.norm_fro(tsvt(Y1, 0.4) - tsvt(Y2, 0.4))
            assert d_out <= tc.norm_fro(Y1 - Y2) * (1 + 1e-12)

    def test_shrinks_tnn_and_rank(self, rng):
        for _ in range(10):
            Y = random_tensor(rng, 4, 4, 3)
            L = tsvt(Y, 0.5)
            assert ta.tnn(L) <= ta.tnn(Y) + 1e-12
            assert ta._sweep(L, 1e-10)[0].max() <= ta._sweep(Y, 1e-10)[0].max()

    def test_output_real_and_finite(self, rng):
        Y = random_tensor(rng, 5, 3, 6)
        L = tsvt(Y, 0.2)
        assert L.dtype == np.float64
        assert np.isfinite(L).all()

    def test_nan_spectrum_raises(self):
        # Python's max skips a NaN block norm after the first, so a guard folding with it
        # reads this spectrum as zero and returns zeros
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError, match="spectrum"):
            tsvt(nan_spectrum_tensor(), 1.0)


def svt_reference(Y, tau):
    """Matrix SVT of every slice of the full spectrum, one SVD per slice."""
    Ybar = np.fft.fft(Y, axis=2)
    out = np.empty_like(Ybar)
    for k in range(Y.shape[2]):
        U, s, Vh = np.linalg.svd(Ybar[:, :, k], full_matrices=False)
        out[:, :, k] = (U * np.maximum(s - tau, 0.0)) @ Vh
    return np.fft.ifft(out, axis=2).real


def tensor_with_spectrum(rng, n1, n2, n3, svals):
    """Real tensor whose spectral slice k has singular values ``svals(k)`` for
    k <= n3 // 2; the other slices are their conjugates."""
    p = min(n1, n2)
    half = np.empty((n1, n2, n3 // 2 + 1), dtype=complex)
    for k in range(half.shape[2]):
        cplx = 0.0 if k == 0 or 2 * k == n3 else 1.0  # slices 0 and n3/2 are real

        def basis(n):
            return np.linalg.qr(rng.normal(size=(n, p)) + cplx * 1j * rng.normal(size=(n, p)))[0]

        half[:, :, k] = (basis(n1) * svals(k)) @ basis(n2).conj().T
    return np.fft.irfft(half, n=n3, axis=2)


@pytest.fixture
def factorizations(monkeypatch):
    """Names of the batched factorizations called, in order."""
    calls = []
    for name in ("svd", "eigh"):
        def counting(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestTsvtAccuracy:
    """tsvt against the per-slice SVD reference, to 1e-12 of ||Y||_F (the prox is
    nonexpansive, so errors scale with the input)."""

    @staticmethod
    def assert_matches(Y, tau, route, factorizations):
        factorizations.clear()
        out = tsvt(Y, tau)
        assert factorizations == [route]
        assert tc.norm_fro(out - svt_reference(Y, tau)) <= 1e-12 * tc.norm_fro(Y)

    @pytest.mark.parametrize(
        "shape", [(8, 5, 4), (5, 8, 4), (7, 5, 1), (6, 6, 7), (5, 6, 6)],
        ids=["tall", "wide", "n3_one", "odd_n3", "even_n3"],
    )
    def test_random_shapes_take_gram_route(self, rng, factorizations, shape):
        self.assert_matches(random_tensor(rng, *shape), 1.0, "eigh", factorizations)

    @pytest.mark.parametrize("shape", [(7, 5, 6), (5, 7, 5)], ids=["tall", "wide"])
    def test_spectrum_clustered_at_tau(self, rng, factorizations, shape):
        tau = 0.3
        Y = tensor_with_spectrum(
            rng, *shape, lambda k: tau * (1 + 1e-6 * rng.uniform(-1, 1, min(shape[:2])))
        )
        self.assert_matches(Y, tau, "eigh", factorizations)

    @pytest.mark.parametrize("shape", [(7, 5, 6), (5, 7, 1)], ids=["even_n3", "n3_one"])
    def test_largest_ratio_under_guard(self, rng, factorizations, shape):
        # sigma_1 = 99 tau with the rest clustered at tau: ||Y_k||_F is just under 100 tau
        tau = 2.0
        p = min(shape[:2])
        Y = tensor_with_spectrum(
            rng, *shape, lambda k: tau * np.r_[99.0, 1 + 1e-6 * rng.uniform(-1, 1, p - 1)]
        )
        assert np.linalg.norm(ta._half_spectrum(Y), axis=(1, 2)).max() <= 100 * tau
        self.assert_matches(Y, tau, "eigh", factorizations)

    def test_large_ratio_takes_svd(self, rng, factorizations):
        # sigma_1 / tau = 1e6 would cost the Gram route about 1e-5 tau of accuracy
        tau = 1e-3
        Y = tensor_with_spectrum(
            rng, 6, 5, 4, lambda k: tau * np.r_[1e6, 1 + 1e-6 * rng.uniform(-1, 1, 4)]
        )
        self.assert_matches(Y, tau, "svd", factorizations)


class TestRealHalfSpectrum:
    """At n3 <= 2 the half spectrum is real and ``tsvt`` factors it with real LAPACK; both
    routes agree with the complex route to 1e-12 of ||Y||_F."""

    @pytest.mark.parametrize("n3", [1, 2])
    @pytest.mark.parametrize("shape", [(8, 5), (5, 8)], ids=["tall", "wide"])
    @pytest.mark.parametrize("top, route", [(50.0, "eigh"), (1e4, "svd")], ids=["gram", "svd"])
    def test_matches_complex_route(self, rng, factorizations, n3, shape, top, route):
        p = min(shape)
        Y = tensor_with_spectrum(rng, *shape, n3, lambda k: np.r_[top, np.linspace(2.0, 0.5, p - 1)])
        factorizations.clear()
        out = tsvt(Y, 1.0)
        assert factorizations == [route]
        assert tc.norm_fro(out - on_complex_route(tsvt, Y, 1.0)) <= 1e-12 * tc.norm_fro(Y)


class TestSoftThreshold:
    def test_all_below_threshold(self, rng):
        Y = 0.1 * random_tensor(rng, 3, 3, 3)
        assert np.array_equal(soft_threshold(Y, np.abs(Y).max() + 0.01), np.zeros_like(Y))

    def test_scalar_cases(self):
        Y = np.array([[[2.0]], [[-2.0]]]).reshape(2, 1, 1)
        out = soft_threshold(Y, 0.5)
        assert out[0, 0, 0] == pytest.approx(1.5)
        assert out[1, 0, 0] == pytest.approx(-1.5)

    def test_matches_scalar_prox_oracle(self, rng):
        Y = random_tensor(rng, 3, 2, 2)
        out = soft_threshold(Y, 0.1)
        for y, o in zip(Y.ravel(), out.ravel()):
            assert o == pytest.approx(scalar_prox_oracle(y, 0.1), abs=1e-9)

    def test_rejects_nonpositive_tau(self, rng):
        for tau in (-0.1, np.nan):
            with pytest.raises(ValueError, match="positive"):
                soft_threshold(random_tensor(rng, 2, 2, 2), tau)

    def test_zero_to_zero(self):
        assert np.array_equal(soft_threshold(np.zeros((2, 2, 2)), 1.0), np.zeros((2, 2, 2)))

    def test_nonexpansive(self, rng):
        for _ in range(10):
            Y1 = random_tensor(rng, 3, 3, 3)
            Y2 = random_tensor(rng, 3, 3, 3)
            d_out = tc.norm_fro(soft_threshold(Y1, 0.3) - soft_threshold(Y2, 0.3))
            assert d_out <= tc.norm_fro(Y1 - Y2) * (1 + 1e-12)

    def test_perturbation_optimality(self, rng):
        Y = random_tensor(rng, 3, 3, 3)
        tau = 0.25
        E = soft_threshold(Y, tau)
        base = tau * tc.norm_l1(E) + 0.5 * tc.norm_fro(E - Y) ** 2
        for radius in (1e-3, 1e-2):
            for _ in range(500):
                D = random_tensor(rng, 3, 3, 3)
                D *= radius / tc.norm_fro(D)
                val = tau * tc.norm_l1(E + D) + 0.5 * tc.norm_fro(E + D - Y) ** 2
                assert val > base


@pytest.fixture
def blas_threads():
    """Getter of OpenBLAS's thread count, skipping the test without it."""
    blas = ta._openblas()
    if not blas:
        pytest.skip("numpy's bundled OpenBLAS thread-count functions are not available")
    return blas[0]


class TestParallelLayer:
    """Above the work floor ``tsvt`` factors and rebuilds in one chunk per core."""

    @staticmethod
    def factorizations(monkeypatch):
        """(name, leading extent) of each batched factorization, in any thread.  The Gram
        route's subset kernel, ``prox._eigh_above``, counts as "eigh", its other factorization."""
        calls = []
        for owner, attr, name in [
            (np.linalg, "svd", "svd"), (np.linalg, "eigh", "eigh"), (prox, "_eigh_above", "eigh")
        ]:
            def counting(a, *args, _f=getattr(owner, attr), _name=name, **kwargs):
                calls.append((_name, a.shape[0]))
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
        return calls

    @staticmethod
    def gram_factorizations(monkeypatch, wrap):
        """Patch both factorizations of the Gram route, ``np.linalg.eigh`` and the subset kernel
        ``prox._eigh_above``, each with ``wrap(itself)``."""
        monkeypatch.setattr(np.linalg, "eigh", wrap(np.linalg.eigh))
        monkeypatch.setattr(prox, "_eigh_above", wrap(prox._eigh_above))

    @pytest.mark.parametrize(
        "shape", [(80, 50, 7), (80, 50, 8), (50, 80, 7), (50, 80, 8)],
        ids=["tall_odd_n3", "tall_even_n3", "wide_odd_n3", "wide_even_n3"],
    )
    @pytest.mark.parametrize("top, route", [(50.0, "eigh"), (1e4, "svd")], ids=["gram", "svd"])
    @pytest.mark.usefixtures("blas_threads")  # without the pin there is no split
    def test_chunking_changes_no_bit(self, rng, monkeypatch, shape, top, route):
        # slice k keeps k + 2 singular values above tau = 1, so each chunk has its own
        # largest rank; sigma_1 = top picks the route through ||Y_k||_F / tau
        p = min(shape[:2])
        Y = tensor_with_spectrum(
            rng, *shape, lambda k: np.r_[top, np.full(k + 1, 2.0), np.full(p - k - 2, 0.5)]
        )
        stack = ta._half_spectrum(Y)
        assert ta._above_floor(stack)
        calls = self.factorizations(monkeypatch)
        outs = []
        for workers in (0, 1, 2):
            monkeypatch.setattr(ta, "_WORKERS", workers)
            chunks = ta._chunks(stack)
            assert len(chunks) == workers + 1
            assert chunks[0][0].start == 0 and chunks[-1][-1].stop == stack.shape[0]
            assert all(a[-1].stop == b[0].start for a, b in zip(chunks, chunks[1:]))
            calls.clear()
            outs.append(tsvt(Y, 1.0))
            assert sorted(calls) == sorted((route, b.stop - b.start) for c in chunks for b in c)
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])

    def test_failed_chunk_falls_back_and_restores_pin(self, rng, monkeypatch, blas_threads):
        Y = random_tensor(rng, 80, 50, 8)
        tau = np.linalg.norm(ta._half_spectrum(Y), axis=(1, 2)).max() / 10
        monkeypatch.setattr(ta, "_WORKERS", 1)
        expected = tsvt(Y, tau)
        before = blas_threads()
        both = threading.Barrier(2, timeout=60)

        def failing_off_main(factor):
            def call(*args, **kwargs):
                both.wait()  # each chunk on its own thread, so one of them on the pool's
                if threading.current_thread() is not threading.main_thread():
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return factor(*args, **kwargs)

            return call

        self.gram_factorizations(monkeypatch, failing_off_main)
        out = tsvt(Y, tau)
        assert blas_threads() == before
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(np.linalg.LinAlgError):
            tsvt(Y, tau)
        assert blas_threads() == before

    @pytest.mark.parametrize("n3", [1, 2, 7, 8])
    @pytest.mark.parametrize("shape", [(120, 80), (80, 120)], ids=["tall", "wide"])
    @pytest.mark.parametrize("top, route", [(50.0, "eigh"), (1e4, "svd")], ids=["gram", "svd"])
    @pytest.mark.usefixtures("blas_threads")
    def test_blocks_change_no_bit(self, rng, monkeypatch, n3, shape, top, route):
        # the route guard's largest slice norm and either route's result have the same bits in
        # blocks of slices, chunked or not, as in one call over the whole stack
        p = min(shape)
        Y = tensor_with_spectrum(
            rng, *shape, n3, lambda k: np.r_[top, np.full(4, 2.0), np.full(p - 5, 0.5)]
        )
        stack = ta._half_spectrum(Y)
        assert ta._above_floor(stack)
        largest = np.linalg.norm(stack, axis=(1, 2)).max()
        calls, default = self.factorizations(monkeypatch), ta._BLOCK
        monkeypatch.setattr(ta, "_WORKERS", 0)
        monkeypatch.setattr(ta, "_BLOCK", stack.size)  # the whole stack in one block
        whole = tsvt(Y, 1.0)
        assert calls == [(route, stack.shape[0])]
        for workers, block in [(0, default), (1, default), (2, default), (0, 1), (2, 1)]:
            monkeypatch.setattr(ta, "_WORKERS", workers)
            monkeypatch.setattr(ta, "_BLOCK", block)
            blocks = [b for c in ta._chunks(stack) for b in c]
            calls.clear()
            assert tsvt(Y, 1.0).tobytes() == whole.tobytes()
            # one factorization per block, one call when the stack is one block
            assert sorted(calls) == sorted((route, b.stop - b.start) for b in blocks)
            # the guard's maximum is ``largest`` to the bit: at tau = largest everything
            # shrinks to zero unfactored, one ulp below it the slices are factored
            calls.clear()
            assert not tsvt(Y, largest).any() and calls == []
            tsvt(Y, np.nextafter(largest, 0.0))
            assert calls

    def test_failed_block_falls_back_and_restores_pin(self, rng, monkeypatch, blas_threads):
        Y = random_tensor(rng, 80, 50, 8)
        tau = np.linalg.norm(ta._half_spectrum(Y), axis=(1, 2)).max() / 10  # the Gram route
        monkeypatch.setattr(ta, "_WORKERS", 1)
        monkeypatch.setattr(ta, "_BLOCK", 1)  # five one-slice blocks in chunks of two and three

        def failing(factor):
            def call(*args, **kwargs):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            return call

        with monkeypatch.context() as mp:
            self.gram_factorizations(mp, failing)
            expected = tsvt(Y, tau)  # the SVD route
        before = blas_threads()
        both, seen, pool_blocks = threading.Barrier(2, timeout=60), set(), []

        def failing_in_second_pool_block(factor):
            def call(a, *args, **kwargs):
                if threading.get_ident() not in seen:  # each chunk on its own thread
                    seen.add(threading.get_ident())
                    both.wait()
                if threading.current_thread() is not threading.main_thread():
                    pool_blocks.append(a.shape[0])
                    if len(pool_blocks) == 2:
                        raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return factor(a, *args, **kwargs)

            return call

        self.gram_factorizations(monkeypatch, failing_in_second_pool_block)
        assert tsvt(Y, tau).tobytes() == expected.tobytes()
        assert pool_blocks == [1, 1] and len(seen) == 2
        assert blas_threads() == before and ta._pin_depth == 0

    def test_absent_openblas_gives_same_bits(self, rng, monkeypatch, blas_threads):
        Y = random_tensor(rng, 80, 50, 8)
        tau = np.linalg.norm(ta._half_spectrum(Y), axis=(1, 2)).max() / 10
        monkeypatch.setattr(ta, "_WORKERS", 1)
        # the subset kernel needs OpenBLAS's own LAPACK, so the pinned side takes eigh too
        monkeypatch.setattr(ta, "_blas", ta._openblas()[:2] + (None,))
        pinned = tsvt(Y, tau)
        # without the setter the stack goes to LAPACK in one call
        monkeypatch.setattr(ta, "_blas", ())
        assert np.array_equal(tsvt(Y, tau), pinned)

    def test_nested_and_concurrent_pins_restore_once(self, blas_threads):
        before = blas_threads()
        with ta._one_blas_thread():
            with ta._one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == before

        seen = []

        def pin_repeatedly():
            for _ in range(200):
                with ta._one_blas_thread():
                    seen.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_repeatedly) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 1600
        assert blas_threads() == before


class TestKeptVectors:
    """Each block keeps of each slice only the vectors that the slice keeps, at its own width, and
    rebuilds each run of consecutive slices that keep the same count together; every route gives
    the bits of the full factors with each slice rebuilt on its own."""

    @pytest.mark.parametrize("n3", [2, 11], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "shape", [(90, 90), (70, 110), (110, 70)], ids=["square", "wide", "tall"]
    )
    @pytest.mark.parametrize("top, route", [(50.0, "eigh"), (1e4, "svd")], ids=["gram", "svd"])
    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.usefixtures("blas_threads")
    def test_matches_full_factors(self, rng, monkeypatch, n3, shape, top, route, workers):
        # slice k keeps widths[k] singular values above tau = 1: blocks of one slice keep 3, 0,
        # 1, 1, 0 and 2 of them, blocks of two 3, 1 and 2; sigma_1 = top picks the route
        widths = [3, 0, 1, 1, 0, 2]
        p = min(shape)

        def svals(k):
            s = np.r_[np.full(widths[k], 2.0), np.full(p - widths[k], 0.5)]
            s[0] = top if k == 0 else s[0]
            return s

        Y = tensor_with_spectrum(rng, *shape, n3, svals)
        stack = ta._half_spectrum(Y)
        monkeypatch.setattr(ta, "_WORKERS", workers)
        calls = TestParallelLayer.factorizations(monkeypatch)
        for slices in (1, 2):
            monkeypatch.setattr(ta, "_BLOCK", slices * shape[0] * shape[1])
            calls.clear()
            out = tsvt(Y, 1.0)
            assert sorted(calls) == sorted((route, b.stop - b.start)
                                           for c in ta._chunks(stack) for b in c)
            assert np.array_equal(out, full_factor_tsvt(Y, 1.0))

    @pytest.mark.parametrize("n3", [1, 2, 5])
    @pytest.mark.parametrize("route", ["eigh", "svd"])
    def test_nothing_above_tau_gives_zeros(self, monkeypatch, n3, route):
        # every spectral slice is 0.9 tau I, whose Frobenius norm 1.8 tau passes the zero guard
        # although no singular value exceeds tau; one slice per block
        tau = 2.0
        Y = 0.9 * tau * identity_tensor(4, n3)
        monkeypatch.setattr(ta, "_BLOCK", 1)
        if route == "svd":
            monkeypatch.setattr(prox, "GRAM_RATIO", 1.0)
        calls = TestParallelLayer.factorizations(monkeypatch)
        out = tsvt(Y, tau)
        assert {name for name, _ in calls} == {route} and len(calls) == n3 // 2 + 1
        assert np.array_equal(out, np.zeros(Y.shape))

    @pytest.mark.parametrize("top", [50.0, 1e4], ids=["gram", "svd"])
    def test_block_of_width_zero_beside_width_three(self, rng, monkeypatch, top):
        Y = tensor_with_spectrum(
            rng, 12, 8, 2, lambda k: np.r_[top, 2.0, 2.0, np.full(5, 0.5)] if k == 0 else
            np.full(8, 0.5)
        )
        monkeypatch.setattr(ta, "_BLOCK", 1)  # one block per slice
        stacks, rebuilt = [], prox._from_half_spectrum

        def spy(stack, n3):
            stacks.append(stack.copy())
            return rebuilt(stack, n3)

        monkeypatch.setattr(prox, "_from_half_spectrum", spy)
        assert np.array_equal(tsvt(Y, 1.0), full_factor_tsvt(Y, 1.0))
        (stack,) = stacks
        assert np.linalg.matrix_rank(stack[0]) == 3 and not stack[1].any()

    @pytest.mark.parametrize(
        "route, n3",
        [("eigh", 2), ("eigh", 11), ("kernel", 11), ("svd", 2), ("svd", 11)],
        ids=["eigh-real", "eigh-complex", "kernel-complex", "svd-real", "svd-complex"],
    )
    @pytest.mark.parametrize("shape", [(110, 70), (70, 110)], ids=["tall", "wide"])
    @pytest.mark.usefixtures("blas_threads")
    def test_slice_independent_of_the_counts_beside_it(self, rng, monkeypatch, shape, route, n3):
        # each slice of a stack whose slices keep 3, 0, 1, 1, 0 and 2 singular values above
        # tau = 1 (3 and 1 for a real stack) has the bits that it has in a stack of copies of
        # itself, where every slice keeps its own count
        if route == "kernel" and not ta._openblas()[2]:
            pytest.skip("numpy's bundled OpenBLAS lacks the subset kernel's routines")
        Y = kept_widths(rng, shape + (n3,), [3, 0, 1, 1, 0, 2] if n3 == 11 else [3, 1])
        spectrum = ta._half_spectrum(Y)
        if route == "eigh":
            monkeypatch.setattr(prox, "SUBSET_FLOOR", np.inf)
        if route == "svd":
            monkeypatch.setattr(prox, "GRAM_RATIO", 0.0)
        kernel = LapackSpy(monkeypatch) if route == "kernel" else None
        calls = TestParallelLayer.factorizations(monkeypatch)
        stacks, rebuilt = [], prox._from_half_spectrum

        def spy(stack, n3):
            stacks.append(stack.copy())
            return rebuilt(stack, n3)

        monkeypatch.setattr(prox, "_from_half_spectrum", spy)
        tsvt(Y, 1.0)
        for k in range(len(spectrum)):
            copies = np.repeat(spectrum[k : k + 1], len(spectrum), axis=0)
            monkeypatch.setattr(prox, "_half_spectrum", lambda Y, copies=copies: copies.copy())
            tsvt(Y, 1.0)
        beside, *alone = stacks
        assert {name for name, _ in calls} == {"svd" if route == "svd" else "eigh"}
        assert kernel is None or "zhetrd" in kernel.calls
        assert [np.linalg.matrix_rank(M, tol=1e-9) for M in beside] == [
            np.count_nonzero(np.linalg.svd(M, compute_uv=False) > 1.0) for M in spectrum
        ]
        for k, own in enumerate(alone):
            assert np.array_equal(beside[k], own[0])


class TestSymmetries:
    """``tsvt`` commutes with three maps of a tensor that leave its objective unchanged: the
    tensor transpose, which turns tall slices into wide ones, a circular shift along mode 3,
    which puts a phase on each spectral slice, and the mode-3 reversal k -> -k mod n3, which
    conjugates the spectrum.  Each map keeps every slice norm, so the tensor and its image take
    the same route, and each route, on tall and wide shapes, is checked against itself."""

    # largest difference relative to the largest entry of the result: 4.1e-15 over these
    # shapes and levels of tau, five random tensors each
    BOUND = 1e-12
    MAPS = {
        "transpose": ttranspose,
        "roll": lambda A: np.roll(A, 1, axis=2),
        "reverse": lambda A: A[:, :, -np.arange(A.shape[2]) % A.shape[2]],
    }

    @pytest.mark.parametrize("shape, gram", [
        ((40, 34, 5), "kernel"), ((34, 40, 6), "kernel"),  # complex slices from SUBSET_FLOOR on
        ((12, 9, 2), "eigh"), ((9, 12, 2), "eigh"),  # a real half spectrum
        ((12, 9, 6), "eigh"), ((9, 12, 7), "eigh"),  # complex slices below SUBSET_FLOOR
    ])
    @pytest.mark.parametrize("level", ["gram", "svd", "zero"])
    @pytest.mark.parametrize("name", list(MAPS))
    def test_commutes(self, rng, monkeypatch, shape, gram, level, name):
        blas = ta._openblas()
        if gram == "kernel" and not (blas and blas[2]):
            pytest.skip("numpy's bundled OpenBLAS lacks the subset kernel's routines")
        calls = []
        for owner, attr, route in [
            (np.linalg, "svd", "svd"), (np.linalg, "eigh", "eigh"), (prox, "_eigh_above", "kernel")
        ]:
            def counting(*args, _f=getattr(owner, attr), _route=route, **kwargs):
                calls.append(_route)
                return _f(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
        Y, f = random_tensor(rng, *shape), self.MAPS[name]
        top = np.linalg.norm(ta._half_spectrum(Y), axis=(1, 2)).max()
        # tau at a tenth of the largest slice norm takes the Gram route, below a hundredth the
        # SVD, and at least the norm the zero shortcut
        tau = top * {"gram": 0.1, "svd": 1e-3, "zero": 2.0}[level]
        out, mapped = tsvt(Y, tau), tsvt(f(Y), tau)
        assert calls == {"gram": [gram] * 2, "svd": ["svd"] * 2, "zero": []}[level]
        assert np.abs(mapped - f(out)).max() <= self.BOUND * np.abs(out).max()


def eigh_route(Y, tau):
    """``tsvt`` with the Gram route on the batched eigh at every slice width."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prox, "SUBSET_FLOOR", np.inf)
        return tsvt(Y, tau)


class LapackSpy:
    """Wraps the subset kernel's LAPACK routines: ``calls`` lists their names in call order, and
    a routine named in ``fail`` has its INFO set to that value once it returns."""

    INFO = {"zhetrd": 9, "zstemr": 20, "zstedc": 12, "zunm2l": 11}  # INFO's argument index

    def __init__(self, monkeypatch):
        get, set_, routines = ta._openblas()
        self.calls, self.fail = [], {}

        def spy(name, routine):
            def call(*args):
                routine(*args)
                self.calls.append(name)
                if name in self.fail:
                    ctypes.c_int64.from_address(args[self.INFO[name]]).value = self.fail[name]

            return call

        wrapped = tuple(spy(name, routine) for name, routine in zip(self.INFO, routines))
        monkeypatch.setattr(ta, "_blas", (get, set_, wrapped))


@pytest.fixture
def lapack(monkeypatch, blas_threads):
    """A ``LapackSpy``, skipping the test without the subset kernel's routines."""
    if not ta._openblas()[2]:
        pytest.skip("numpy's bundled OpenBLAS lacks zhetrd, zstemr, zstedc or zunm2l")
    return LapackSpy(monkeypatch)


def kept_widths(rng, shape, widths, top=50.0):
    """A tensor whose spectral slice k has ``widths[k]`` singular values above tau = 1, the first
    of them ``top`` on slice 0 and 2.0 otherwise, and the rest 0.5."""
    p = min(shape[:2])

    def svals(k):
        s = np.r_[np.full(widths[k], 2.0), np.full(p - widths[k], 0.5)]
        s[0] = top if k == 0 and widths[k] else s[0]
        return s

    return tensor_with_spectrum(rng, *shape, svals)


class TestSubsetKernel:
    """From ``SUBSET_FLOOR`` on, the Gram route of a complex stack finds only the eigenpairs of
    each slice's Gram matrix above tau^2 (``prox._eigh_above``): by MRRR up to
    ``SUBSET_SHARE * p`` of them, by divide and conquer above it, none at a count of zero."""

    # largest |difference| from the eigh route over 160 random cases of these shapes and
    # spectra: 4.2e-14 tau; the bound leaves a factor of about 5
    BOUND = 2e-13

    @pytest.mark.parametrize(
        "shape", [(32, 32, 5), (40, 64, 6), (64, 40, 7), (100, 100, 3)],
        ids=["floor", "wide", "tall", "square"],
    )
    @pytest.mark.parametrize("spectrum", ["spread", "clustered_at_tau", "clustered_kept"])
    def test_matches_eigh_route(self, rng, lapack, shape, spectrum):
        p = min(shape[:2])
        spectra = {
            "spread": lambda k: np.r_[rng.uniform(1, 50, 3), rng.uniform(0, 0.99, p - 3)],
            # about half of the slice just above tau = 1, so divide and conquer
            "clustered_at_tau": lambda k: np.r_[50.0, 1 + 1e-6 * rng.uniform(-1, 1, p - 1)],
            # 1, p/8 + 1 and p/4 + 1 kept on slices 0, 1 and 2, within 1e-9 of each other
            "clustered_kept": lambda k: np.r_[
                2.0 + 1e-9 * rng.uniform(-1, 1, 1 + k * p // 8), np.full(p - 1 - k * p // 8, 0.5)
            ],
        }
        Y = tensor_with_spectrum(rng, *shape, spectra[spectrum])
        out = tsvt(Y, 1.0)
        assert lapack.calls.count("zhetrd") == shape[2] // 2 + 1
        assert np.abs(out - eigh_route(Y, 1.0)).max() <= self.BOUND

    @pytest.mark.parametrize("widths", [[3, 0, 0], [0, 0, 0]], ids=["one", "all"])
    def test_nothing_above_tau_gives_zeros(self, rng, monkeypatch, lapack, widths):
        # a slice whose singular values are all 0.5 passes the zero guard at tau = 1; zstemr
        # asked for its eigenpairs above tau^2 ended the process (SIGSEGV), so it is only counted
        Y = kept_widths(rng, (40, 40, 5), widths)
        stacks, rebuilt = [], prox._from_half_spectrum

        def spy(stack, n3):
            stacks.append(stack.copy())
            return rebuilt(stack, n3)

        monkeypatch.setattr(prox, "_from_half_spectrum", spy)
        out = tsvt(Y, 1.0)
        counted = ["zhetrd", "zstemr"]
        found = ["zstemr", "zunm2l"] if widths[0] else []
        assert lapack.calls == counted + found + counted * 2
        (stack,) = stacks
        assert np.linalg.matrix_rank(stack[0]) == widths[0] and not stack[1:].any()
        assert np.abs(out - eigh_route(Y, 1.0)).max() <= self.BOUND
        if not widths[0]:
            assert np.array_equal(out, np.zeros(Y.shape))

    def test_count_above_share_takes_divide_and_conquer(self, rng, lapack):
        # p = 50: 10 kept is the share, 11 is above it
        assert prox.SUBSET_SHARE * 50 == 10
        Y = kept_widths(rng, (50, 50, 3), [10, 11])
        out = tsvt(Y, 1.0)
        assert lapack.calls == [
            "zhetrd", "zstemr", "zstemr", "zunm2l", "zhetrd", "zstemr", "zstedc", "zunm2l"
        ]
        assert np.abs(out - eigh_route(Y, 1.0)).max() <= self.BOUND

    @pytest.mark.parametrize("name", list(LapackSpy.INFO))
    def test_failed_call_falls_back_to_svd(self, rng, monkeypatch, lapack, blas_threads, name):
        # two chunks on two threads; slices 1 and 4 go to zstedc, the others to zstemr or none
        Y = kept_widths(rng, (80, 50, 8), [3, 30, 0, 3, 30])
        monkeypatch.setattr(ta, "_WORKERS", 1)
        with monkeypatch.context() as mp:
            mp.setattr(prox, "GRAM_RATIO", 0.0)
            expected = tsvt(Y, 1.0)  # the SVD route
        lapack.fail[name] = 1
        calls = TestParallelLayer.factorizations(monkeypatch)
        before = blas_threads()
        # bit for bit: nothing is written over the stack before every block is factored
        assert tsvt(Y, 1.0).tobytes() == expected.tobytes()
        assert name in lapack.calls
        assert sorted(calls) == [("eigh", 2), ("eigh", 3), ("svd", 2), ("svd", 3)]
        assert blas_threads() == before and ta._pin_depth == 0

    @pytest.mark.parametrize("case", ["real", "below_floor", "absent"])
    def test_eigh_where_the_kernel_does_not_apply(self, rng, monkeypatch, lapack, case):
        n3 = 2 if case == "real" else 5
        p = prox.SUBSET_FLOOR - 1 if case == "below_floor" else 50
        Y = kept_widths(rng, (p + 10, p, n3), [3, 2, 1])
        if case == "absent":
            get, set_, _ = ta._openblas()
            monkeypatch.setattr(ta, "_blas", (get, set_, None))
            assert ta._tridiagonal_routines(types.SimpleNamespace()) is None
        calls = TestParallelLayer.factorizations(monkeypatch)
        subset = []
        kernel = prox._eigh_above
        monkeypatch.setattr(prox, "_eigh_above", lambda *args: subset.append(1) or kernel(*args))
        assert tsvt(Y, 1.0).tobytes() == eigh_route(Y, 1.0).tobytes()
        assert calls and all(name == "eigh" for name, _ in calls) and not subset
        assert lapack.calls == []

    def test_rejects_a_stack_it_cannot_pass_by_address(self, lapack):
        G = np.eye(40, dtype=complex)[None]
        for bad in (G.real.copy(), G.transpose(0, 2, 1), np.ascontiguousarray(G[:, :, :39])):
            with pytest.raises(ValueError, match="C-ordered"):
                prox._eigh_above(bad, 1.0, ta._openblas()[2])
        assert lapack.calls == []

    @pytest.mark.parametrize("count", [1, 10, 20, 60, 100])
    def test_kept_pairs_match_eigh(self, rng, lapack, count):
        # p = 100: up to SUBSET_SHARE * p = 20 kept by MRRR, above it by divide and conquer; the
        # kept eigenvalues 2-100 are about 1 or more apart, so each kept vector is defined to
        # about eps * 100, and the others lie below the threshold 1.  Over 20 random matrices a
        # count the three errors read at most 1.1e-15, 4.9e-14 and 3.1e-15
        p = 100
        lam = np.r_[rng.uniform(0.1, 0.9, p - count), np.linspace(2.0, 100.0, count)]
        Q = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))[0]
        G = (Q * lam) @ Q.conj().T
        G = (G + G.conj().T) / 2
        w, V = np.linalg.eigh(G)
        ((found, Z),) = prox._eigh_above(G[None].copy(), 1.0, ta._openblas()[2])
        assert ("zstedc" in lapack.calls) == (count > prox.SUBSET_SHARE * p)
        assert Z.shape == (count, p)
        assert np.abs(found - w[p - count :]).max() <= 1e-13 * w[-1]
        # rows are the conjugates of the eigenvectors, each up to a phase
        for z, v in zip(Z.conj(), V[:, p - count :].T):
            phase = np.vdot(v, z) / abs(np.vdot(v, z))
            assert np.abs(z - phase * v).max() <= 1e-12
        assert np.abs(Z @ Z.conj().T - np.eye(count)).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(80, 50, 8), (50, 80, 8)], ids=["tall", "wide"])
    def test_blocks_and_workers_change_no_bit(self, rng, monkeypatch, lapack, shape):
        Y = kept_widths(rng, shape, [3, 30, 0, 12, 1])
        stack = ta._half_spectrum(Y)
        assert ta._above_floor(stack)
        default, outs = ta._BLOCK, []
        for workers, block in [(0, stack.size), (0, default), (1, default), (2, 1), (1, 1)]:
            monkeypatch.setattr(ta, "_WORKERS", workers)
            monkeypatch.setattr(ta, "_BLOCK", block)
            lapack.calls.clear()
            outs.append(tsvt(Y, 1.0).tobytes())
            assert sorted(lapack.calls).count("zstedc") == 2
        assert outs == [outs[0]] * len(outs)


class TestBlasPin:
    """``tsvt`` and ``_svd`` pin OpenBLAS to one thread where they call BLAS, so a stack or
    tensor in one piece, which ``_blockwise`` runs as a plain loop, is pinned too, and so are
    the pieces that ``_blockwise`` runs on the pool, which take no pin of their own."""

    @pytest.mark.parametrize(
        "workers, shape",
        [
            pytest.param(0, (30, 20, 1), id="1"),
            pytest.param(0, (30, 20, 8), id="8"),
            pytest.param(1, (80, 50, 8), id="pool"),  # above the floor: one chunk per thread
        ],
    )
    def test_every_batched_call_runs_on_one_blas_thread(
        self, rng, monkeypatch, blas_threads, workers, shape
    ):
        monkeypatch.setattr(ta, "_WORKERS", workers)
        seen = []
        for owner, name in [
            (np.linalg, "eigh"), (prox, "_eigh_above"), (np.linalg, "svd"), (np, "matmul")
        ]:

            def spy(*args, _f=getattr(owner, name), _name=name, **kwargs):
                seen.append((_name, blas_threads(), threading.get_ident()))
                return _f(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        Y = random_tensor(rng, *shape)
        top = np.linalg.norm(ta._half_spectrum(Y), axis=(1, 2)).max()
        before, set_threads = blas_threads(), ta._openblas()[1]
        set_threads(2)
        try:
            tsvt(Y, top / 10)  # the Gram route
            tsvt(Y, top / 1e3)  # the SVD route
            ta._sweep(Y, factors=True)
            ta.tsvd(Y)
            after = blas_threads()
        finally:
            set_threads(before)
        # the Gram route's factorization: the subset kernel from its floor on, eigh below it
        gram = "_eigh_above" if min(shape[:2]) >= prox.SUBSET_FLOOR else "eigh"
        assert {name for name, _, _ in seen} == {gram, "svd", "matmul"}
        assert [count for _, count, _ in seen] == [1] * len(seen)
        assert after == 2 and ta._pin_depth == 0
        on_pool = {name for name, _, thread in seen if thread != threading.get_ident()}
        assert on_pool == ({gram, "svd", "matmul"} if workers else set())


class TestTracedMemory:
    """Traced peak of one ``tsvt`` above the work floor, on two threads, in sizes of its real
    n1 x n2 x n3 argument.  The half spectrum and the result take about one each; beside them
    either route holds only the singular vectors that the slices keep (five here) and the
    temporaries of a block of slices.  Measured: Gram 2.02 (square), 2.04 (wide), 2.04 (tall);
    SVD 2.02, 2.04, 2.04.  When each route held its full factors of the smaller side, one for the
    Gram route and two for the SVD route: Gram 2.29, 2.20, 2.04; SVD 3.31, 2.99, 2.99.  When,
    further, the Gram matrices and the eigenvectors were whole-stack arrays and the guard's norms
    took the whole stack at once: Gram 3.07, 4.66, 2.34; SVD 4.07, 3.59, 3.59 (the SVD factors
    then stayed alive through the inverse transform).  The narrow 8x8x2400 stack, just above the
    floor, is two chunks of blocks of 512 slices, whose factors and temporaries are large beside
    an argument of 1.2 MB, and its peak depends on how the two chunks' blocks overlap in time:
    alone and after the other cases, Gram 2.77-2.96 and SVD 3.33-3.67; when blocks were rebuilt
    at the stack's largest kept width, Gram 2.77-3.33 and SVD 3.33-3.92, on which its bounds
    are set."""

    @pytest.mark.parametrize(
        "shape, gram_bound, svd_bound",
        [
            ((100, 100, 100), 2.25, 2.25),
            ((60, 120, 60), 2.25, 2.25),
            ((120, 60, 60), 2.25, 2.25),
            ((8, 8, 2400), 3.4, 4.0),
        ],
        ids=["square", "wide", "tall", "narrow"],
    )
    @pytest.mark.parametrize("top", [50.0, 1e4], ids=["gram", "svd"])
    @pytest.mark.usefixtures("blas_threads")  # without the pin there are no chunks
    def test_peak(self, rng, monkeypatch, shape, top, gram_bound, svd_bound):
        bound = gram_bound if top <= prox.GRAM_RATIO else svd_bound
        p = min(shape[:2])
        Y = tensor_with_spectrum(
            rng, *shape, lambda k: np.r_[top, np.full(4, 2.0), np.full(p - 5, 0.5)]
        )
        assert ta._above_floor(ta._half_spectrum(Y))
        monkeypatch.setattr(ta, "_WORKERS", 1)
        peak = traced_peak(lambda: tsvt(Y, 1.0))
        assert peak <= bound * Y.nbytes

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.usefixtures("blas_threads")
    def test_no_eigenvector_stack(self, rng, monkeypatch, workers):
        # what the Gram route allocates beside the stack, from its factorization through its
        # rebuild, stays below one (h, p, p) stack of eigenvectors at every moment: it read
        # 0.17-0.28 of one, and 1.12-1.24 while the route kept every eigenvector
        Y = tensor_with_spectrum(
            rng, 100, 100, 100, lambda k: np.r_[50.0, np.full(4, 2.0), np.full(95, 0.5)]
        )
        monkeypatch.setattr(ta, "_WORKERS", workers)
        tsvt(Y, 1.0)  # the pool's threads start outside the trace
        gram, inverse, seen = prox._gram_vectors, prox._from_half_spectrum, []

        def factored(stack, *args):  # the trace runs from the factorization to the rebuilt stack
            seen.append(len(stack) * min(stack.shape[1:]) ** 2 * stack.itemsize)
            tracemalloc.start()
            return gram(stack, *args)

        def rebuilt(stack, n3):
            seen.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            return inverse(stack, n3)

        monkeypatch.setattr(prox, "_gram_vectors", factored)
        monkeypatch.setattr(prox, "_from_half_spectrum", rebuilt)
        try:
            tsvt(Y, 1.0)
        finally:
            tracemalloc.stop()
        eigenvectors, peak = seen
        assert peak < eigenvectors

    @pytest.mark.parametrize("top, route", [(50.0, "_gram_vectors"), (1e4, "_svd")],
                             ids=["gram", "svd"])
    def test_argument_freed_before_the_factorization(self, rng, monkeypatch, top, route):
        # a caller that hands over its only reference, as solve does, gets the argument's
        # memory back once the half spectrum exists
        refs, alive = [], []
        factor = getattr(prox, route)

        def spy(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return factor(*args, **kwargs)

        def handed_over():
            Y = tensor_with_spectrum(rng, 30, 20, 6, lambda k: np.r_[top, np.full(19, 0.5)])
            refs.append(weakref.ref(Y))
            return Y

        monkeypatch.setattr(prox, route, spy)
        tsvt(handed_over(), 1.0)
        assert alive == [False]


class TestWorkSharingMap:
    """``t_algebra._blockwise`` shares its blocks between the calling thread and the pool."""

    @pytest.fixture
    def fresh_pool(self, monkeypatch):
        """Make ``_blockwise`` use a new pool of ``workers`` threads, shut down afterwards."""

        def make(workers):
            monkeypatch.setattr(ta, "_WORKERS", workers)
            monkeypatch.setattr(ta, "_pool", None)

        yield make
        if ta._pool is not None:
            ta._pool.shutdown(wait=True)

    @pytest.mark.parametrize("top, route", [(50.0, "eigh"), (1e4, "svd")], ids=["gram", "svd"])
    def test_tsvt_in_a_task_factors_in_one_call(
        self, rng, monkeypatch, fresh_pool, blas_threads, top, route
    ):
        Y = tensor_with_spectrum(rng, 80, 50, 8, lambda k: np.r_[top, np.full(49, 0.5)])
        stack = ta._half_spectrum(Y)
        assert ta._above_floor(stack)
        fresh_pool(1)
        expected = tsvt(Y, 1.0)
        calls = TestParallelLayer.factorizations(monkeypatch)
        outs = ta._blockwise(lambda Y: tsvt(Y, 1.0), [[Y], [Y], [Y]])
        assert calls == [(route, stack.shape[0])] * 3
        assert all(np.array_equal(out, expected) for out in outs)

    def test_calls_run_on_the_caller_and_the_pool(self, fresh_pool, blas_threads):
        # three calls that wait for each other all run, one on the calling thread
        fresh_pool(2)
        meet = threading.Barrier(3, timeout=60)

        def where(_):
            meet.wait()
            return threading.get_ident()

        ran_on = ta._blockwise(where, [[k] for k in range(3)])
        assert len(set(ran_on)) == 3 and threading.get_ident() in ran_on

    def test_nested_map_runs_on_its_task_thread(self, fresh_pool, blas_threads):
        fresh_pool(2)

        def outer(_):
            here = threading.get_ident()
            inner = ta._blockwise(lambda k: (k, threading.get_ident()), [[k] for k in range(4)])
            return here, inner

        outs = ta._blockwise(outer, [[k] for k in range(2)])
        assert len({here for here, _ in outs}) == 2
        for here, inner in outs:
            assert inner == [(k, here) for k in range(4)]

    def test_error_is_raised_after_every_started_call(self, fresh_pool, blas_threads):
        fresh_pool(1)
        before = blas_threads()
        failed, finished = threading.Event(), []

        def call(k):
            if k == 1:  # on the pool, while call 0 sleeps on the calling thread
                failed.set()
                raise ValueError("call 1 failed")
            assert failed.wait(60)
            time.sleep(0.2)
            finished.append(k)

        with pytest.raises(ValueError, match="call 1 failed"):
            ta._blockwise(call, [[k] for k in range(2)])
        assert finished == [0]
        assert blas_threads() == before and ta._pin_depth == 0

    def test_blocks_are_shared_in_block_order(self, fresh_pool):
        # two pieces of four blocks: piece 0's first block, on the calling thread, waits until
        # the pool thread has run one of piece 0's later blocks, which it can only have taken
        # from the queue that both threads share
        fresh_pool(1)
        caller, later, runs = threading.get_ident(), threading.Event(), []

        def call(k):
            runs.append((k, threading.get_ident()))
            if k == 0:
                assert later.wait(60)
            elif k < 4 and threading.get_ident() != caller:
                later.set()
            return 10 * k

        outs = ta._blockwise(call, [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert outs == [10 * k for k in range(8)]
        assert sorted(k for k, _ in runs) == list(range(8))
        assert any(k < 4 for k, thread in runs if thread != caller)

    def test_every_call_runs_once_on_an_oversized_pool(self, fresh_pool):
        fresh_pool(6)
        runs = []

        def call(k):
            runs.append(k)
            return 3 * k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outs = [ta._blockwise(call, [[k] for k in range(500)]) for _ in range(4)]
        finally:
            sys.setswitchinterval(interval)
        assert outs == [[3 * k for k in range(500)]] * 4
        assert sorted(runs) == sorted(list(range(500)) * 4)
