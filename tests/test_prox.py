import numpy as np
import pytest

from trpca import t_algebra as ta
from trpca import tensor_core as tc
from trpca.prox import soft_threshold, tsvt

from conftest import random_tensor


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
        expected = tsvt(Y, 0.8)
        svd = np.linalg.svd
        calls = []

        def svd_failing_once(*args, **kwargs):
            calls.append(args[0].shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_failing_once)
        out = tsvt(Y, 0.8)
        assert calls == [(3, 6, 4), (3, 4, 6)]
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_rejects_nonpositive_tau(self, rng):
        with pytest.raises(ValueError):
            tsvt(random_tensor(rng, 2, 2, 2), 0.0)

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
        with pytest.raises(ValueError):
            soft_threshold(random_tensor(rng, 2, 2, 2), -0.1)

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
