import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from trpca import prox
from trpca import t_algebra as ta
from trpca import tensor_core as tc
from trpca.prox import soft_threshold, tsvt

from random_tensors import (
    full_factor_tsvt, identity_tensor, nan_spectrum_tensor, on_complex_route, random_tensor,
    traced_peak
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
            assert ta.tubal_rank(L, 1e-10) <= ta.tubal_rank(Y, 1e-10)

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
        """(name, leading extent) of each batched factorization, in any thread."""
        calls = []
        for name in ("svd", "eigh"):
            def counting(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, a.shape[0]))
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

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
        eigh = np.linalg.eigh
        both = threading.Barrier(2, timeout=60)

        def eigh_failing_off_main(*args, **kwargs):
            both.wait()  # each chunk on its own thread, so one of them on the pool's
            if threading.current_thread() is not threading.main_thread():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing_off_main)
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
        eigh = np.linalg.eigh

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        expected = tsvt(Y, tau)  # the SVD route
        before = blas_threads()
        both, seen, pool_blocks = threading.Barrier(2, timeout=60), set(), []

        def eigh_failing_in_second_pool_block(a, *args, **kwargs):
            if threading.get_ident() not in seen:  # each chunk on its own thread
                seen.add(threading.get_ident())
                both.wait()
            if threading.current_thread() is not threading.main_thread():
                pool_blocks.append(a.shape[0])
                if len(pool_blocks) == 2:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing_in_second_pool_block)
        assert tsvt(Y, tau).tobytes() == expected.tobytes()
        assert pool_blocks == [1, 1] and len(seen) == 2
        assert blas_threads() == before and ta._pin_depth == 0

    def test_absent_openblas_gives_same_bits(self, rng, monkeypatch, blas_threads):
        Y = random_tensor(rng, 80, 50, 8)
        tau = np.linalg.norm(ta._half_spectrum(Y), axis=(1, 2)).max() / 10
        monkeypatch.setattr(ta, "_WORKERS", 1)
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
    """Each block of a larger stack keeps only the singular vectors that some slice of it keeps,
    padded back to full width for its rebuild; both routes give the bits of the full factors."""

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
        for owner, name in [(np.linalg, "eigh"), (np.linalg, "svd"), (np, "matmul")]:

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
        assert {name for name, _, _ in seen} == {"eigh", "svd", "matmul"}
        assert [count for _, count, _ in seen] == [1] * len(seen)
        assert after == 2 and ta._pin_depth == 0
        on_pool = {name for name, _, thread in seen if thread != threading.get_ident()}
        assert on_pool == ({"eigh", "svd", "matmul"} if workers else set())


class TestTracedMemory:
    """Traced peak of one ``tsvt`` above the work floor, on two threads, in sizes of its real
    n1 x n2 x n3 argument.  The half spectrum and the result take about one each; beside them
    either route holds only the singular vectors that the slices keep (five here) and the
    temporaries of a block of slices.  Measured: Gram 2.02 (square), 2.04 (wide), 2.04 (tall);
    SVD 2.02, 2.04, 2.04.  When each route held its full factors of the smaller side, one for the
    Gram route and two for the SVD route: Gram 2.29, 2.20, 2.04; SVD 3.31, 2.99, 2.99.  When,
    further, the Gram matrices and the eigenvectors were whole-stack arrays and the guard's norms
    took the whole stack at once: Gram 3.07, 4.66, 2.34; SVD 4.07, 3.59, 3.59 (the SVD factors
    then stayed alive through the inverse transform)."""

    @pytest.mark.parametrize(
        "shape", [(100, 100, 100), (60, 120, 60), (120, 60, 60)], ids=["square", "wide", "tall"]
    )
    @pytest.mark.parametrize("top, bound", [(50.0, 2.25), (1e4, 2.25)], ids=["gram", "svd"])
    @pytest.mark.usefixtures("blas_threads")  # without the pin there are no chunks
    def test_peak(self, rng, monkeypatch, shape, top, bound):
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
        # what the Gram route allocates beside the stack stays below one (h, p, p) stack of
        # eigenvectors at every moment: it read 0.17-0.29 of one, and 1.12-1.24 while the
        # route kept every eigenvector
        Y = tensor_with_spectrum(
            rng, 100, 100, 100, lambda k: np.r_[50.0, np.full(4, 2.0), np.full(95, 0.5)]
        )
        monkeypatch.setattr(ta, "_WORKERS", workers)
        tsvt(Y, 1.0)  # the pool's threads start outside the trace
        gram, seen = prox._gram_svt, []

        def spy(stack, *args):
            tracemalloc.start()
            try:
                out = gram(stack, *args)
                seen.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            eigenvectors = len(stack) * min(stack.shape[1:]) ** 2 * stack.itemsize
            seen.append(eigenvectors)
            return out

        monkeypatch.setattr(prox, "_gram_svt", spy)
        tsvt(Y, 1.0)
        peak, eigenvectors = seen
        assert peak < eigenvectors

    @pytest.mark.parametrize("top, route", [(50.0, "_gram_svt"), (1e4, "_svd")],
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
    """``t_algebra._blockwise`` shares its pieces between the calling thread and the pool."""

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
