import numpy as np
import pytest

from trpca import synth
from trpca import t_algebra as ta
from trpca import tensor_core as tc
from trpca.solver import SolverConfig, solve
from trpca.synth import (
    PhaseGrid,
    TrialSpec,
    gen_low_rank,
    gen_sparse_bernoulli,
    gen_sparse_uniform,
    make_instance,
    phase_grid,
    run_trial,
    write_phase_csv,
    write_trials_csv,
)

from random_tensors import traced_peak


class TestGenLowRank:
    def test_tubal_rank_across_seeds(self):
        for seed in range(20):
            L = gen_low_rank((50, 50, 10), 5, seed)
            assert ta.tubal_rank(L) == 5

    def test_full_rank(self):
        L = gen_low_rank((10, 12, 4), 10, 0)
        assert ta.tubal_rank(L) == 10

    def test_entry_variance(self):
        # each entry sums r*n3 products of two N(0, 1/n1) factors, giving
        # variance r*n3/n1^2 = r/n1 at the cubic aspect n3 = n1
        n1, r = 40, 4
        L = gen_low_rank((n1, 100, n1), r, 123)
        assert L.size >= 1e5
        assert np.var(L) == pytest.approx(r / n1, rel=0.1)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            gen_low_rank((5, 5, 2), 6, 0)


class TestGenSparseUniform:
    def test_zero_m(self):
        assert np.array_equal(gen_sparse_uniform((4, 4, 4), 0, 0), np.zeros((4, 4, 4)))

    def test_exact_support_size(self):
        for m in (1, 17, 64):
            E = gen_sparse_uniform((4, 4, 4), m, m)
            assert np.count_nonzero(E) == m
            assert set(np.unique(E[E != 0])) <= {-1.0, 1.0}

    def test_sign_balance(self):
        m = 4000
        imbalances = []
        for seed in range(10):
            E = gen_sparse_uniform((20, 20, 10), m, seed)
            imbalances.append(abs((E == 1).sum() - (E == -1).sum()))
        # binomial 99% bound
        assert np.mean(imbalances) <= 4 * np.sqrt(m)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            gen_sparse_uniform((2, 2, 2), 9, 0)

    def test_m_must_be_whole(self):
        # an integral float is still m; a fractional one is not truncated
        dims = (3, 3, 2)
        assert np.array_equal(gen_sparse_uniform(dims, 5.0, 1), gen_sparse_uniform(dims, 5, 1))
        for m in (5.9, float("nan")):
            with pytest.raises(ValueError, match="whole number"):
                gen_sparse_uniform(dims, m, 1)


class TestGenSparseBernoulli:
    def test_zero_rho(self):
        assert np.array_equal(gen_sparse_bernoulli((3, 3, 3), 0.0, 0), np.zeros((3, 3, 3)))

    def test_rho_one_all_signs(self):
        E = gen_sparse_bernoulli((5, 5, 5), 1.0, 1)
        assert np.all(np.abs(E) == 1.0)

    def test_empirical_fraction(self):
        rho = 0.3
        E = gen_sparse_bernoulli((30, 30, 30), rho, 7)
        n = E.size
        frac = np.count_nonzero(E) / n
        sigma = np.sqrt(rho * (1 - rho) / n)
        assert abs(frac - rho) <= 3 * sigma

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            gen_sparse_bernoulli((2, 2, 2), 1.5, 0)


class TestTrialSpec:
    def test_validates_rank(self):
        with pytest.raises(ValueError):
            TrialSpec(tc.TensorDims(4, 4, 2), 5, "uniform_m", 3, 0)

    def test_validates_m(self):
        for m in (5.9, -1, 6 * 6 * 3 + 1):
            with pytest.raises(ValueError, match="whole number"):
                TrialSpec(tc.TensorDims(6, 6, 3), 1, "uniform_m", m, 1)
        spec = TrialSpec(tc.TensorDims(6, 6, 3), 1, "uniform_m", 5.0, 1)
        assert np.count_nonzero(make_instance(spec)[1]) == 5

    def test_validates_model(self):
        with pytest.raises(ValueError):
            TrialSpec(tc.TensorDims(4, 4, 2), 2, "poisson", 3, 0)

    def test_construction_identity(self):
        spec = TrialSpec(tc.TensorDims(10, 10, 4), 2, "bernoulli", 0.1, 5)
        L0, E0 = make_instance(spec)
        X = L0 + E0
        assert np.array_equal(X, L0 + E0)
        assert np.isfinite(X).all()


class TestRunTrial:
    def test_zero_rank_zero_sparsity(self):
        spec = TrialSpec(tc.TensorDims(8, 8, 3), 0, "uniform_m", 0, 0)
        out = run_trial(spec)
        assert out.success
        assert out.rank_hat == 0
        assert out.nnz_hat == 0

    def test_small_recovery(self):
        spec = TrialSpec(tc.TensorDims(30, 30, 8), 3, "uniform_m", 30 * 30 * 8 // 10, 42)
        out = run_trial(spec)
        assert out.success
        assert out.rank_hat == 3
        assert out.rel_err_L < 1e-4
        assert out.rel_err_E < 1e-6

    def test_reproducible(self):
        spec = TrialSpec(tc.TensorDims(20, 20, 5), 2, "bernoulli", 0.05, 9)
        a = run_trial(spec)
        b = run_trial(spec)
        assert (a.rank_hat, a.nnz_hat, a.rel_err_L, a.rel_err_E, a.iterations) == (
            b.rank_hat,
            b.nnz_hat,
            b.rel_err_L,
            b.rel_err_E,
            b.iterations,
        )

    def test_success_definition(self):
        spec = TrialSpec(tc.TensorDims(12, 12, 3), 6, "bernoulli", 0.6, 3)
        out = run_trial(spec, SolverConfig(max_iter=60))
        assert out.success == (out.rel_err_L <= 1e-3)

    def test_traced_peak(self, monkeypatch):
        """The ground truth L0 and E0 is freed before the solve and made again for scoring, so
        the solve holds X and its own state only.  Measured 8.29 sizes of the 60^3 tensor; 10.29
        while the trial held L0 and E0 through the solve."""
        monkeypatch.setattr(ta, "_WORKERS", 1)
        spec = TrialSpec(tc.TensorDims(60, 60, 60), 6, "uniform_m", 60**3 // 10, 3)
        peak = traced_peak(lambda: run_trial(spec, SolverConfig(max_iter=5)))
        assert peak <= 9 * 60**3 * 8

    def test_traced_peak_of_scoring(self, monkeypatch):
        """Outside the solve, a trial frees |E| before it makes the instance again.  Measured
        3.64 sizes of the 60^3 tensor, with the solve's result made beforehand; 4.64 while |E|
        lived through the scoring."""
        monkeypatch.setattr(ta, "_WORKERS", 1)
        spec = TrialSpec(tc.TensorDims(60, 60, 60), 6, "uniform_m", 60**3 // 10, 3)
        result = solve(np.add(*make_instance(spec)), SolverConfig(max_iter=5))
        monkeypatch.setattr(synth, "solve", lambda X, config: result)
        peak = traced_peak(lambda: run_trial(spec))
        assert peak <= 4.1 * 60**3 * 8


class TestPhaseGrid:
    def test_corner_behaviour(self):
        grid = phase_grid(
            tc.TensorDims(20, 20, 6), [0.05, 0.5], [0.02, 0.5], trials=2, base_seed=0
        )
        assert grid.success_fraction.shape == (2, 2)
        assert grid.success_fraction[0, 0] == 1.0  # easy corner
        assert grid.success_fraction[1, 1] == 0.0  # hopeless corner

    def test_deterministic(self):
        kwargs = dict(trials=2, base_seed=123)
        g1 = phase_grid(tc.TensorDims(15, 15, 4), [0.1], [0.05], **kwargs)
        g2 = phase_grid(tc.TensorDims(15, 15, 4), [0.1], [0.05], **kwargs)
        assert np.array_equal(g1.success_fraction, g2.success_fraction)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            phase_grid(tc.TensorDims(10, 10, 2), [], [0.1], 1, 0)


class TestCsvOutputs:
    def test_trials_csv_deterministic_bytes(self, tmp_path):
        spec = TrialSpec(tc.TensorDims(15, 15, 4), 2, "uniform_m", 50, 4)
        out = run_trial(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        with open(p1, "w", newline="") as f:
            write_trials_csv(f, [(spec, out)], header_comment="t")
        with open(p2, "w", newline="") as f:
            write_trials_csv(f, [(spec, run_trial(spec))], header_comment="t")
        assert p1.read_bytes() == p2.read_bytes()

    def test_phase_csv_shape(self, tmp_path):
        grid = PhaseGrid(
            r_fractions=[0.1, 0.2],
            rho_values=[0.05],
            success_fraction=np.array([[1.0, 0.5]]),
        )
        path = tmp_path / "g.csv"
        with open(path, "w", newline="") as f:
            write_phase_csv(f, grid, header_comment="g")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3 and lines[0] == "# g"
        assert lines[1].split(",")[1:] == ["0.10000000000000001", "0.20000000000000001"]
        assert lines[2].split(",") == ["0.050000000000000003", "1", "0.5"]


class TestSeedSequenceSpec:
    def test_make_instance_leaves_the_seed_unchanged(self):
        ss = np.random.SeedSequence(entropy=31, spawn_key=(2, 1, 0))
        spec = TrialSpec(tc.TensorDims(12, 10, 4), 2, "bernoulli", 0.1, ss)
        L0, E0 = make_instance(spec)
        assert ss.n_children_spawned == 0
        # run_trial makes the instance a second time to score its solve
        L1, E1 = make_instance(spec)
        assert np.array_equal(L0, L1) and np.array_equal(E0, E1)
        # the instance that spawning two children from the seed would make
        seed_l, seed_e = np.random.SeedSequence(entropy=31, spawn_key=(2, 1, 0)).spawn(2)
        assert np.array_equal(L0, gen_low_rank((12, 10, 4), 2, seed_l))
        assert np.array_equal(E0, gen_sparse_bernoulli((12, 10, 4), 0.1, seed_e))

    def test_run_trial_twice_gives_equal_outcomes(self):
        ss = np.random.SeedSequence(entropy=5, spawn_key=(0, 0, 1))
        spec = TrialSpec(tc.TensorDims(20, 20, 5), 3, "bernoulli", 0.1, ss)
        a, b = run_trial(spec), run_trial(spec)
        a.wall_time = b.wall_time = 0.0
        assert a == b
