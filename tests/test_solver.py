import dataclasses
import io

import numpy as np
import pytest

from trpca import solver
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
from trpca.synth import TrialSpec, gen_low_rank, gen_sparse_uniform, make_instance

from random_tensors import (
    basis_column, identity_tensor, nan_spectrum_tensor, random_tensor, traced_peak, ttranspose
)


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
        # the data-scaled start (mu0 None) and Algorithm 1's rho, mu_max, eps and max_iter
        c = SolverConfig()
        assert (c.rho, c.mu_max, c.eps, c.max_iter) == (1.1, 1e10, 1e-8, 500)
        assert c.lam is None and c.mu0 is None

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

    def test_nan_residuals_raise(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a fold from 0.0 would read these residuals as converged
        monkeypatch.setattr(solver, "tsvt", lambda P, tau: np.full(P.shape, np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="at iteration 1"):
            solve(np.ones((4, 4, 3)))

    def test_nan_spectrum_raises_from_the_paper_start(self):
        # the default start raises in spectral_norm; from mu0 = 1e-3 the first tsvt must raise,
        # not read this NaN spectrum as zero and report converged with L = 0
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError, match="spectrum"):
            solve(nan_spectrum_tensor(), SolverConfig(mu0=1e-3))

    def test_traced_peak(self, monkeypatch):
        """The step-1 argument is not part of the peak: tsvt frees it once its half spectrum
        exists.  Measured 6.29 sizes of the 60^3 X; 7.29 while the argument had a buffer of
        its own for the whole solve."""
        monkeypatch.setattr(ta, "_WORKERS", 1)
        spec = TrialSpec(tc.TensorDims(60, 60, 60), 6, "uniform_m", 60**3 // 10, 3)
        X = np.add(*make_instance(spec))
        peak = traced_peak(lambda: solve(X, SolverConfig(max_iter=5)))
        assert peak <= 6.6 * X.nbytes

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
        # the minimizer scales with the input (same lambda); from the data-scaled start so do
        # the iterates, up to rounding, but eps is absolute, so the two solves stop at
        # different iterations: compare the converged outputs at solver accuracy
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

    def test_large_scale_recovers_under_the_data_scaled_start(self):
        # 20x20x6, r = 2, m = 100, times 1e6: from the paper's mu0 = 1e-3 the absolute eps
        # stops the solve at relative error 1.3 of L with converged=True
        spec = TrialSpec(tc.TensorDims(20, 20, 6), 2, "uniform_m", 100, seed=0)
        L0, E0 = make_instance(spec)
        res = solve(1e6 * (L0 + E0))
        assert res.converged
        assert tc.norm_fro(res.L - 1e6 * L0) <= 1e-8 * tc.norm_fro(1e6 * L0)

    # the absolute eps stops a solve of small data early (ROADMAP item 2): times 1e-9 after 1
    # iteration at relative error 0.95 of L, times 1e-6 after 8 at 1.0e-2
    SMALL_DATA = "ROADMAP item 2: the absolute eps stops small data early, converged=True"

    @pytest.mark.parametrize("c", [
        pytest.param(1e-9, marks=pytest.mark.xfail(strict=True, reason=SMALL_DATA)),
        pytest.param(1e-6, marks=pytest.mark.xfail(strict=True, reason=SMALL_DATA)),
        1e6,
    ])
    def test_scaled_input_scales_the_solution(self, c):
        # the minimizer scales with the input; 1e6 reads 7.5e-9
        spec = TrialSpec(tc.TensorDims(20, 20, 6), 2, "uniform_m", 100, seed=0)
        X = np.add(*make_instance(spec))
        expected = c * solve(X).L
        assert tc.norm_fro(solve(c * X).L - expected) <= 1e-6 * tc.norm_fro(expected)

    def test_zero_input_starts_at_mu_max(self):
        # the spectral norm of 0 is 0, so 1.25 / ||X||_2 is not defined
        assert solve(np.zeros((4, 4, 3)), SolverConfig(mu_max=1e6)).mu0 == 1e6

    def test_small_exact_recovery(self, rng):
        L0 = gen_low_rank((30, 30, 8), 3, 7)
        E0 = gen_sparse_uniform((30, 30, 8), 30 * 30 * 8 // 10, 8)
        res = solve(L0 + E0)
        assert res.converged
        assert tc.norm_fro(res.L - L0) / tc.norm_fro(L0) < 1e-4
        assert ta.tubal_rank(res.L) == 3

    def test_slice_major_input(self, rng):
        """A tensor read from a file is a slice-major view of its payload; the solver's state
        arrays are C-ordered all the same, and the result has the same bytes."""
        X = random_tensor(rng, 40, 36, 40)
        f = io.BytesIO()
        tc.write_tensor(f, X)
        f.seek(0)
        view = tc.read_tensor(f)
        assert np.array_equal(view, X) and not view.flags.c_contiguous
        a, b = solve(view, SolverConfig(max_iter=8)), solve(X, SolverConfig(max_iter=8))
        assert a.E.flags.c_contiguous and a.L.flags.c_contiguous
        assert a.E.tobytes() == b.E.tobytes() and a.L.tobytes() == b.L.tobytes()

    def test_matrix_rpca_trajectory_matches(self, rng):
        # n3 = 1 reduction against the standalone matrix implementation, under the default
        # start 1.25 / ||X||_2 and under the paper's mu0 = 1e-3
        L0 = gen_low_rank((25, 25, 1), 2, 3)
        E0 = gen_sparse_uniform((25, 25, 1), 60, 4)
        X = L0 + E0
        lam = default_lambda(X.shape)
        for mu0, ref_mu0 in [(None, 1.25 / np.linalg.norm(X[:, :, 0], 2)), (1e-3, 1e-3)]:
            trajectory = []
            res = solve(X, SolverConfig(lam=lam, mu0=mu0),
                        callback=lambda k, L, E: trajectory.append((L, E)))
            assert res.mu0 == pytest.approx(ref_mu0, rel=1e-12)
            ref = list(matrix_rpca_reference(X[:, :, 0], lam, mu0=ref_mu0))
            assert len(trajectory) == len(ref)
            for (L, E), (Lr, Er) in zip(trajectory, ref):
                assert np.abs(L[:, :, 0] - Lr).max() <= 1e-10
                assert np.abs(E[:, :, 0] - Er).max() <= 1e-10


class TestSlabs:
    """Above ``t_algebra.SLAB_FLOOR`` each iteration's update and transforms run in one row
    slab per core."""

    @staticmethod
    def instance():
        X = gen_low_rank((50, 40, 30), 3, 5) + gen_sparse_uniform((50, 40, 30), 3000, 6)
        assert X.size >= ta.SLAB_FLOOR
        return X

    def test_slab_and_block_count_change_no_bit(self, monkeypatch):
        if not ta._openblas():
            pytest.skip("numpy's bundled OpenBLAS thread-count functions are not available")
        X = self.instance()
        results = []
        # one or two blocks per slab, then blocks of one row
        for workers, block in [(0, ta._BLOCK), (1, ta._BLOCK), (2, ta._BLOCK), (1, 1)]:
            monkeypatch.setattr(ta, "_WORKERS", workers)
            monkeypatch.setattr(ta, "_BLOCK", block)
            assert len(ta._slabs(X.shape)) == workers + 1
            results.append(solve(X))
        assert results[0].converged
        for res in results[1:]:
            assert np.array_equal(res.L, results[0].L) and np.array_equal(res.E, results[0].E)
            assert res.iterations == results[0].iterations
            assert res.residual_history == results[0].residual_history

    @pytest.mark.parametrize("shape", [(50, 40, 30), (12, 10, 3)], ids=["slabs", "one_slab"])
    def test_callback_arrays_are_never_overwritten(self, shape):
        X = gen_low_rank(shape, 2, 5) + gen_sparse_uniform(shape, int(np.prod(shape)) // 20, 6)
        seen = []
        res = solve(X, callback=lambda k, L, E: seen.append((L, E, L.copy(), E.copy())))
        assert len(seen) == res.iterations > 1
        for L, E, L_then, E_then in seen:
            assert np.array_equal(L, L_then) and np.array_equal(E, E_then)
        # the last call saw the result's values, in copies rather than the solver's own arrays
        assert np.array_equal(res.L, seen[-1][0]) and np.array_equal(res.E, seen[-1][1])
        assert res.L is not seen[-1][0] and res.E is not seen[-1][1]

    @pytest.mark.parametrize("shape", [(50, 40, 30), (12, 10, 3)], ids=["slabs", "one_slab"])
    @pytest.mark.parametrize("workers", [0, 1])
    def test_callback_changes_no_bit(self, monkeypatch, shape, workers):
        # the same buffers either way: a callback is handed copies of the iterates
        X = gen_low_rank(shape, 2, 5) + gen_sparse_uniform(shape, int(np.prod(shape)) // 20, 6)
        monkeypatch.setattr(ta, "_WORKERS", workers)
        if ta._openblas():
            assert len(ta._slabs(X.shape)) == (workers + 1 if X.size >= ta.SLAB_FLOOR else 1)
        plain, seen = solve(X), []
        called = solve(X, callback=lambda k, L, E: seen.append(k))
        assert seen == list(range(1, plain.iterations + 1)) and plain.iterations > 1
        assert plain.L.tobytes() == called.L.tobytes() and plain.E.tobytes() == called.E.tobytes()
        assert plain.iterations == called.iterations and plain.converged == called.converged
        assert plain.residual_history == called.residual_history


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
        proj = ta.tprod(ttranspose(identity_tensor(n, n3)), e)
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
        f = ta.tsvd(L)
        for Q, n, mu in ((f.U[:, :r], n1, rep.mu_u), (f.V[:, :r], n2, rep.mu_v)):
            Qt = ttranspose(Q)
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
        assert cfg.mu0 is None  # untouched default: the data-scaled start

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

    @pytest.mark.parametrize("data", [b"mu0 = 1e11\nmu_max = 1e12\n",
                                      b"mu_max = 1e12\nmu0 = 1e11\n"],
                             ids=["mu0-first", "mu_max-first"])
    def test_key_order_does_not_matter(self, tmp_path, data):
        # mu0 = 1e11 alone is above the default mu_max of 1e10
        path = tmp_path / "solver.cfg"
        path.write_bytes(data)
        cfg = load_config(path)
        assert (cfg.mu0, cfg.mu_max) == (1e11, 1e12)

    @pytest.mark.parametrize(
        "data, line",
        [(b"mu0 = 1e-3\nmu_max = 1e-4\n", 2), (b"mu0 = 1e11\n# note\n", 1),
         (b"mu0 = 1e11\nrho = 2\nmu_max = 1e10\n", 3), (b"mu_max = 1e10\nmu0 = 1e11\n", 2)],
    )
    def test_mu0_above_mu_max_names_the_later_line(self, tmp_path, data, line):
        path = tmp_path / "bad.cfg"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="mu0 <= mu_max") as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:{line}: ")

    def test_mu_max_alone_caps_the_data_scaled_start(self, tmp_path):
        # without mu0 there is no mu0 <= mu_max check: 1.25 / ||X||_2 is 0.41 here, so the
        # solve starts at mu_max
        path = tmp_path / "solver.cfg"
        path.write_bytes(b"mu_max = 1e-4\n")
        cfg = load_config(path)
        assert (cfg.mu0, cfg.mu_max) == (None, 1e-4)
        X = gen_low_rank((8, 8, 3), 1, 0)
        assert 1.25 / ta.spectral_norm(X) > 1e-4
        assert solve(X, dataclasses.replace(cfg, max_iter=2)).mu0 == 1e-4

    @pytest.mark.parametrize(
        "data, line",
        [(b"eps = -1\n", 1), (b"max_iter = 2.5\n", 1), (b"rho = 1.5\n\xff\xfe=1\n", 2)],
        ids=["rejected-value", "failed-cast", "not-utf8"],
    )
    def test_error_starts_with_path_and_line(self, tmp_path, data, line):
        path = tmp_path / "bad.cfg"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:{line}: ")
