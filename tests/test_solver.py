import numpy as np
import pytest

from trpca import t_algebra as ta
from trpca import tensor_core as tc
from trpca.solver import (
    IncoherenceReport,
    SolverConfig,
    default_lambda,
    incoherence_report,
    load_config,
    solve,
)
from trpca.synth import gen_low_rank, gen_sparse_uniform

from random_tensors import basis_column, identity_tensor, random_tensor


def matrix_rpca_reference(X, lam, rho=1.1, mu0=1e-3, mu_max=1e10, eps=1e-8, max_iter=500):
    """Plain matrix ADMM for nuclear + lambda*l1, written without any
    package code; yields (L, E) after every iteration."""
    L = np.zeros_like(X)
    E = np.zeros_like(X)
    Y = np.zeros_like(X)
    mu = mu0
    for _ in range(max_iter):
        U, s, Vh = np.linalg.svd(X - E - Y / mu, full_matrices=False)
        L_new = (U * np.maximum(s - 1.0 / mu, 0.0)) @ Vh
        G = X - L_new - Y / mu
        E_new = np.sign(G) * np.maximum(np.abs(G) - lam / mu, 0.0)
        gap = L_new + E_new - X
        Y = Y + mu * gap
        stop = max(
            np.abs(L_new - L).max(), np.abs(E_new - E).max(), np.abs(gap).max()
        )
        L, E = L_new, E_new
        yield L, E
        mu = min(rho * mu, mu_max)
        if stop <= eps:
            return


class TestDefaultLambda:
    def test_cube(self):
        assert default_lambda((100, 100, 100)) == pytest.approx(0.01)

    def test_matrix_case(self):
        assert default_lambda((80, 60, 1)) == pytest.approx(1.0 / np.sqrt(80))

    def test_rectangular(self):
        assert default_lambda((192, 168, 32)) == pytest.approx(1.0 / np.sqrt(192 * 32))


class TestSolverConfig:
    def test_defaults(self):
        c = SolverConfig()
        assert (c.rho, c.mu0, c.mu_max, c.eps, c.max_iter) == (1.1, 1e-3, 1e10, 1e-8, 500)
        assert c.lam is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"rho": 0.9},
            {"mu0": 0.0},
            {"mu0": 1e20},
            {"eps": 0.0},
            {"max_iter": 0},
            {"lam": np.nan},
            {"lam": np.inf},
            {"rho": np.nan},
            {"rho": np.inf},
            {"mu0": np.nan},
            {"mu_max": np.nan},
            {"mu0": np.inf, "mu_max": np.inf},
            {"eps": np.nan},
            {"eps": np.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolve:
    def test_zero_input(self):
        res = solve(np.zeros((4, 4, 3)))
        assert res.converged
        assert res.iterations == 1
        assert np.array_equal(res.L, np.zeros((4, 4, 3)))
        assert np.array_equal(res.E, np.zeros((4, 4, 3)))

    def test_rejects_nonfinite(self):
        X = np.zeros((2, 2, 2))
        X[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            solve(X)

    def test_converged_residuals_below_eps(self, rng):
        L0 = gen_low_rank((20, 20, 6), 2, rng)
        E0 = gen_sparse_uniform((20, 20, 6), 100, rng)
        res = solve(L0 + E0)
        assert res.converged
        assert all(v <= 1e-8 for v in res.residual_history[-1])

    def test_max_iter_returns_flagged_result(self, rng):
        X = random_tensor(rng, 10, 10, 3)
        res = solve(X, SolverConfig(max_iter=3))
        assert not res.converged
        assert res.iterations == 3

    def test_deterministic(self, rng):
        X = random_tensor(rng, 8, 8, 4)
        r1 = solve(X)
        r2 = solve(X)
        assert np.array_equal(r1.L, r2.L)
        assert np.array_equal(r1.E, r2.E)
        assert r1.residual_history == r2.residual_history

    def test_scaling_homogeneity(self, rng):
        # the minimizer scales with the input (same lambda); the iterate
        # path does not because the mu schedule is absolute, so compare the
        # converged outputs at solver accuracy
        L0 = gen_low_rank((15, 15, 4), 2, 21)
        E0 = gen_sparse_uniform((15, 15, 4), 60, 22)
        X = L0 + E0
        lam = default_lambda(X.shape)
        c = 3.5
        r1 = solve(X, SolverConfig(lam=lam))
        r2 = solve(c * X, SolverConfig(lam=lam))
        assert r1.converged and r2.converged
        scale = c * tc.norm_fro(X)
        assert tc.norm_fro(r2.L - c * r1.L) <= 1e-6 * scale
        assert tc.norm_fro(r2.E - c * r1.E) <= 1e-6 * scale

    def test_small_exact_recovery(self, rng):
        L0 = gen_low_rank((30, 30, 8), 3, 7)
        E0 = gen_sparse_uniform((30, 30, 8), 30 * 30 * 8 // 10, 8)
        res = solve(L0 + E0)
        assert res.converged
        assert tc.norm_fro(res.L - L0) / tc.norm_fro(L0) < 1e-4
        assert ta.tubal_rank(res.L) == 3

    def test_matrix_rpca_trajectory_matches(self, rng):
        # n3 = 1 reduction against the standalone matrix implementation
        L0 = gen_low_rank((25, 25, 1), 2, 3)
        E0 = gen_sparse_uniform((25, 25, 1), 60, 4)
        X = L0 + E0
        lam = default_lambda(X.shape)
        trajectory = []
        solve(X, SolverConfig(lam=lam), callback=lambda k, L, E: trajectory.append((L, E)))
        ref = list(matrix_rpca_reference(X[:, :, 0], lam))
        assert len(trajectory) == len(ref)
        for (L, E), (Lr, Er) in zip(trajectory, ref):
            assert np.abs(L[:, :, 0] - Lr).max() <= 1e-10
            assert np.abs(E[:, :, 0] - Er).max() <= 1e-10


@pytest.mark.slow
class TestPerIterationScaling:
    """Coarse check of the per-iteration cost model
    O(n1*n2*n3*log(n3) + max(n1,n2)*min(n1,n2)^2*n3): doubling n3 should
    roughly double the cost (a dense block-circulant formulation would
    give ~8x) and doubling n1 = n2 stays within the cubic SVD term.
    Timed in process CPU time, which counts the work on every thread (40x40x32
    is above ``PARALLEL_FLOOR``, 40x40x16 below it) and not the time spent
    waiting for a busy host; thresholds still carry generous slack."""

    @staticmethod
    def _per_iter_time(n, n3, iters=30, reps=3):
        import time

        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, n, n3))
        cfg = SolverConfig(max_iter=iters)
        best = float("inf")
        for _ in range(reps):
            t0 = time.process_time()
            solve(X, cfg)
            best = min(best, (time.process_time() - t0) / iters)
        return best

    def test_doubling_n3(self):
        ratio = self._per_iter_time(40, 32) / self._per_iter_time(40, 16)
        assert ratio <= 2.2 * 1.25

    def test_doubling_n(self):
        ratio = self._per_iter_time(60, 16) / self._per_iter_time(30, 16)
        assert ratio <= 8.0 * 1.25


class TestIncoherence:
    def test_identity_tensor(self):
        n, n3 = 4, 3
        rep = incoherence_report(identity_tensor(n, n3))
        assert rep.r == n
        # brute force: U = V = identity tensor, U^T * e_i has one unit tube
        e = basis_column(0, n, n3)
        proj = ta.tprod(ta.ttranspose(identity_tensor(n, n3)), e)
        expected_mu = n * n3 / n * tc.norm_fro(proj) ** 2
        assert rep.mu_u == pytest.approx(expected_mu, rel=1e-9)
        assert rep.mu_v == pytest.approx(expected_mu, rel=1e-9)

    def test_random_low_rank_matches_basis_column_products(self):
        # brute force over every basis column: max_i ||U^T * e_i||_F and
        # max_j ||V^T * e_j||_F through explicit t-products
        n1, n2, n3, r = 30, 20, 7, 3
        L = gen_low_rank((n1, n2, n3), r, 5)
        rep = incoherence_report(L)
        assert rep.r == r
        f = ta.tsvd(L, rank=r)
        for Q, n, mu in ((f.U, n1, rep.mu_u), (f.V, n2, rep.mu_v)):
            Qt = ta.ttranspose(Q)
            max_sq = max(
                tc.norm_fro(ta.tprod(Qt, basis_column(i, n, n3))) ** 2 for i in range(n)
            )
            assert mu == pytest.approx(n * n3 / r * max_sq, rel=1e-9)

    def test_spiky_tensor_is_maximally_incoherent(self):
        n1, n2, n3 = 5, 4, 3
        spike = np.zeros((n1, n2, n3))
        spike[0, 0, 0] = 1.0
        rep = incoherence_report(spike)
        assert rep.r == 1
        assert rep.mu_u == pytest.approx(n1 * n3, rel=1e-9)

    def test_random_low_rank_is_incoherent(self):
        L = gen_low_rank((50, 50, 10), 5, 11)
        rep = incoherence_report(L)
        assert 0 < rep.mu_u < 50
        assert 0 < rep.mu_v < 50
        assert rep.mu_joint > 0
        assert rep.r == 5

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            incoherence_report(np.zeros((3, 3, 2)))

    def test_report_nonnegative(self, rng):
        rep = incoherence_report(random_tensor(rng, 6, 5, 3))
        assert isinstance(rep, IncoherenceReport)
        assert min(rep.mu_u, rep.mu_v, rep.mu_joint) >= 0


class TestConfigFile:
    def test_load_and_override(self, tmp_path):
        path = tmp_path / "solver.cfg"
        path.write_text("# comment\nlambda = 0.05\nrho=1.2\nmax_iter = 50\n\n")
        cfg = load_config(path)
        assert cfg.lam == 0.05
        assert cfg.rho == 1.2
        assert cfg.max_iter == 50
        assert cfg.mu0 == 1e-3  # untouched default

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma = 2\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rho 1.5\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(path)
