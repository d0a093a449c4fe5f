"""End-to-end acceptance runs: one test per criterion, each printing a
PASS/FAIL line.  The experiment-scale tests are marked slow; run the full
suite with plain ``pytest`` (they are not skipped by default) or select
them with ``-m slow``.
"""

import numpy as np
import pytest

from trpca import imaging, t_algebra as ta, tensor_core as tc
from trpca.cli import main
from trpca.prox import soft_threshold, tsvt
from trpca.solver import SolverConfig, default_lambda, solve
from trpca.synth import TrialSpec, gen_low_rank, phase_grid, run_trial

from random_tensors import bcirc, compose, save_netpbm, save_tensor, tprod_oracle
from test_prox import scalar_prox_oracle, tnn_objective
from test_solver import matrix_rpca_reference


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


@pytest.mark.slow
class TestCriterion1ExactRecovery:
    def test_full_row(self):
        spec = TrialSpec(
            dims=tc.TensorDims(100, 100, 100),
            r=10,
            sparsity_model="uniform_m",
            sparsity_param=100_000,
            seed=0,
        )
        out = run_trial(spec)
        ok = out.rank_hat == 10 and out.rel_err_L <= 1e-5 and out.rel_err_E <= 1e-8
        report(
            "1a (n=100 full row)",
            ok,
            f"rank={out.rank_hat} relL={out.rel_err_L:.2e} relE={out.rel_err_E:.2e} "
            f"nnz={out.nnz_hat}",
        )

    def test_smoke_five_seeds(self):
        worst_l = worst_e = 0.0
        for seed in range(5):
            spec = TrialSpec(
                dims=tc.TensorDims(50, 50, 50),
                r=5,
                sparsity_model="uniform_m",
                sparsity_param=round(0.1 * 50**3),
                seed=seed,
            )
            out = run_trial(spec)
            worst_l = max(worst_l, out.rel_err_L)
            worst_e = max(worst_e, out.rel_err_E)
        ok = worst_l <= 1e-4 and worst_e <= 1e-4
        report(
            "1b (n=50 smoke, 5 seeds)",
            ok,
            f"worst relL={worst_l:.2e} worst relE={worst_e:.2e}",
        )


@pytest.mark.slow
class TestCriterion2HarderRegime:
    def test_double_sparsity(self):
        spec = TrialSpec(
            dims=tc.TensorDims(100, 100, 100),
            r=10,
            sparsity_model="uniform_m",
            sparsity_param=200_000,
            seed=0,
        )
        out = run_trial(spec)
        ok = out.rank_hat == 10 and out.rel_err_L <= 1e-5
        report(
            "2 (m = 0.2 n^3)",
            ok,
            f"rank={out.rank_hat} relL={out.rel_err_L:.2e}",
        )


@pytest.mark.slow
class TestCriterion3PhaseTransition:
    def test_grid(self):
        fracs = list(np.linspace(0.02, 0.4, 10))
        grid = phase_grid(
            tc.TensorDims(40, 40, 20), fracs, fracs, trials=3, base_seed=2024
        )
        S = grid.success_fraction
        corner_ok = S[0, 0] == 1.0 and S[-1, -1] == 0.0

        def violations(seq):
            return sum(1 for a, b in zip(seq, seq[1:]) if b > a + 1e-12)

        row_ok = all(violations(list(S[i, :])) <= 1 for i in range(S.shape[0]))
        col_ok = all(violations(list(S[:, j])) <= 1 for j in range(S.shape[1]))
        ok = corner_ok and row_ok and col_ok
        report(
            "3 (phase transition)",
            ok,
            f"S[0,0]={S[0, 0]} S[-1,-1]={S[-1, -1]} rows_mono={row_ok} cols_mono={col_ok}",
        )


class TestCriterion4AlgebraOracles:
    def test_oracle_suite(self):
        rng = np.random.default_rng(4242)
        n_instances = 120
        worst = {"tprod": 0.0, "tnn": 0.0, "spec": 0.0, "recon": 0.0, "parseval": 0.0, "eq10": 0.0}
        for _ in range(n_instances):
            n1, n2, n3 = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 5)
            A = rng.normal(size=(n1, n2, n3))
            B = rng.normal(size=(n2, int(rng.integers(1, 7)), n3))
            scale = max(1.0, tc.norm_fro(A) * tc.norm_fro(B))
            worst["tprod"] = max(
                worst["tprod"],
                tc.norm_fro(ta.tprod(A, B) - tprod_oracle(A, B)) / scale,
            )
            M = bcirc(A)
            sv = np.linalg.svd(M, compute_uv=False)
            worst["tnn"] = max(worst["tnn"], abs(ta.tnn(A) - sv.sum() / n3))
            worst["spec"] = max(worst["spec"], abs(ta.spectral_norm(A) - sv[0]))
            f = ta.tsvd(A)
            worst["recon"] = max(
                worst["recon"],
                tc.norm_fro(compose(f) - A) / max(tc.norm_fro(A), 1e-30),
            )
            worst["parseval"] = max(
                worst["parseval"],
                abs(tc.norm_fro(A) ** 2 - np.sum(np.abs(ta.dft3(A)) ** 2) / n3)
                / max(tc.norm_fro(A) ** 2, 1e-30),
            )
            F = np.fft.fft(np.eye(n3))
            D = np.kron(F, np.eye(n1)) @ M @ np.kron(np.linalg.inv(F), np.eye(n2))
            spec = ta.dft3(A)
            block_diag = np.zeros_like(D)
            for k in range(n3):
                block_diag[n1 * k : n1 * (k + 1), n2 * k : n2 * (k + 1)] = spec[:, :, k]
            worst["eq10"] = max(worst["eq10"], np.abs(D - block_diag).max())
        ok = (
            worst["tprod"] <= 1e-10
            and worst["tnn"] <= 1e-8
            and worst["spec"] <= 1e-8
            and worst["recon"] <= 1e-9
            and worst["parseval"] <= 1e-10
            and worst["eq10"] <= 1e-8
        )
        detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
        report(f"4 (algebra oracles, {n_instances} instances)", ok, detail)


class TestCriterion5ProxOptimality:
    def test_tsvt_beats_perturbations(self):
        rng = np.random.default_rng(55)
        ok = True
        for i in range(20):
            dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 5)))
            Y = rng.normal(size=dims)
            tau = float(rng.uniform(0.1, 1.0))
            L = tsvt(Y, tau)
            base = tnn_objective(L, Y, tau)
            for radius in (1e-3, 1e-2):
                for _ in range(500):
                    D = rng.normal(size=dims)
                    D *= radius / tc.norm_fro(D)
                    if tnn_objective(L + D, Y, tau) <= base:
                        ok = False
        report("5a (tsvt perturbation optimality)", ok)

    def test_soft_threshold_beats_perturbations(self):
        rng = np.random.default_rng(56)
        ok = True
        for i in range(20):
            dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 5)))
            Y = rng.normal(size=dims)
            tau = float(rng.uniform(0.1, 1.0))
            E = soft_threshold(Y, tau)
            base = tau * tc.norm_l1(E) + 0.5 * tc.norm_fro(E - Y) ** 2
            for radius in (1e-3, 1e-2):
                for _ in range(500):
                    D = rng.normal(size=dims)
                    D *= radius / tc.norm_fro(D)
                    val = tau * tc.norm_l1(E + D) + 0.5 * tc.norm_fro(E + D - Y) ** 2
                    if val <= base:
                        ok = False
        report("5b (soft_threshold perturbation optimality)", ok)

    def test_matrix_reductions(self):
        rng = np.random.default_rng(57)
        worst_svt = worst_l1 = 0.0
        for _ in range(5):
            Y = rng.normal(size=(6, 5, 1))
            tau = float(rng.uniform(0.2, 0.8))
            U, s, Vh = np.linalg.svd(Y[:, :, 0], full_matrices=False)
            ref = (U * np.maximum(s - tau, 0.0)) @ Vh
            worst_svt = max(worst_svt, np.abs(tsvt(Y, tau)[:, :, 0] - ref).max())
            out = soft_threshold(Y, tau)
            for y, o in zip(Y.ravel(), out.ravel()):
                worst_l1 = max(worst_l1, abs(o - scalar_prox_oracle(y, tau)))
        ok = worst_svt <= 1e-9 and worst_l1 <= 1e-9
        report("5c (n3=1 prox oracles)", ok, f"svt={worst_svt:.1e} l1={worst_l1:.1e}")


class TestCriterion6RpcaReduction:
    def test_trajectory_match(self):
        rng = np.random.default_rng(66)
        L0 = gen_low_rank((30, 30, 1), 3, 11)
        E0 = np.zeros((30, 30, 1))
        flat = E0.ravel()
        support = rng.choice(flat.size, size=90, replace=False)
        flat[support] = rng.choice([-1.0, 1.0], size=90)
        X = L0 + E0
        lam = default_lambda(X.shape)
        ok, details = True, []
        # the default start 1.25 / ||X||_2, then the paper's mu0 = 1e-3
        for mu0, ref_mu0 in [(None, 1.25 / np.linalg.norm(X[:, :, 0], 2)), (1e-3, 1e-3)]:
            trajectory = []
            res = solve(X, SolverConfig(lam=lam, mu0=mu0),
                        callback=lambda k, L, E: trajectory.append((L, E)))
            ref = list(matrix_rpca_reference(X[:, :, 0], lam, mu0=ref_mu0))
            worst = 0.0
            for (L, E), (Lr, Er) in zip(trajectory, ref):
                worst = max(worst, np.abs(L[:, :, 0] - Lr).max(), np.abs(E[:, :, 0] - Er).max())
            ok = ok and res.converged and len(trajectory) == len(ref) and worst <= 1e-10
            details.append(f"mu0={res.mu0:.3g}: iters={len(trajectory)} "
                           f"worst per-iterate diff={worst:.1e}")
        report("6 (n3=1 matrix ADMM reduction)", ok, "; ".join(details))


def make_test_image(seed, h=64, w=64):
    """Smooth correlated random color field, a stand-in natural image."""
    rng = np.random.default_rng(seed)

    def smooth_field():
        z = rng.normal(size=(h, w))
        fy = np.fft.fftfreq(h)[:, None]
        fx = np.fft.fftfreq(w)[None, :]
        lowpass = 1.0 / (1.0 + (np.hypot(fy, fx) * 18) ** 2)
        return np.real(np.fft.ifft2(np.fft.fft2(z) * lowpass))

    base = smooth_field()
    img = np.empty((h, w, 3))
    for c in range(3):
        img[:, :, c] = base + 0.15 * smooth_field()
    img -= img.min()
    img /= img.max()
    return 0.05 + 0.9 * img


@pytest.mark.slow
class TestCriterion7Denoising:
    def test_color_corpus(self, tmp_path):
        wins = 0
        margins = []
        for s in range(10):
            stack = imaging.tensor_to_stack(make_test_image(100 + s), color=True)
            rep, _, _, _ = imaging.denoise(stack, 0.1, seed=s, baseline=True)
            wins += rep.psnr_trpca > rep.psnr_baseline
            margins.append(rep.psnr_trpca - rep.psnr_baseline)
        ok = wins >= 7
        report(
            "7a (color corpus, tensor vs channelwise)",
            ok,
            f"wins={wins}/10 mean margin={np.mean(margins):.2f} dB",
        )

    def test_rank_one_grayscale_stack(self):
        L = gen_low_rank((48, 42, 1), 1, 77)[:, :, 0]
        L = 0.05 + 0.9 * (L - L.min()) / (L.max() - L.min())
        frames = np.repeat(np.rint(L * 255).astype(np.uint8)[:, :, None], 32, axis=2)
        stack = imaging.ImageStack(frames=frames)
        clean = imaging.stack_to_tensor(stack)
        _, rec, _, _ = imaging.denoise(stack, 0.1, seed=5)
        rel = tc.norm_fro(rec - clean) / tc.norm_fro(clean)
        ok = rel <= 1e-2
        report("7b (rank-1 32-frame stack)", ok, f"rel err={rel:.2e}")


class TestCriterion8Determinism:
    def test_seeded_cli_outputs_identical(self, tmp_path):
        # table1
        t_args = ["table1", "--n", "16", "--n3", "5", "--seeds", "2", "--seed", "11"]
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert main(t_args + ["--out", str(p1)]) == 0
        assert main(t_args + ["--out", str(p2)]) == 0
        table_ok = p1.read_bytes() == p2.read_bytes()

        # phase
        ph_args = ["phase", "--n", "10", "--n3", "3", "--grid", "2x2", "--trials", "1", "--seed", "5"]
        g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        assert main(ph_args + ["--out", str(g1)]) == 0
        assert main(ph_args + ["--out", str(g2)]) == 0
        phase_ok = g1.read_bytes() == g2.read_bytes()

        # solve (tensor outputs)
        X = gen_low_rank((12, 12, 4), 2, 1)
        xp = tmp_path / "x.tns3"
        save_tensor(xp, X)
        outs = []
        for tag in ("a", "b"):
            lp, ep = tmp_path / f"L{tag}.tns3", tmp_path / f"E{tag}.tns3"
            main(["solve", str(xp), "--out-L", str(lp), "--out-E", str(ep)])
            outs.append((lp.read_bytes(), ep.read_bytes()))
        solve_ok = outs[0] == outs[1]

        # denoise (image + csv outputs)
        stack = imaging.tensor_to_stack(make_test_image(3, h=20, w=20), color=True)
        img = tmp_path / "img.ppm"
        save_netpbm(img, stack)
        d_args = ["denoise", str(img), "--fraction", "0.1", "--seed", "2"]
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert main(d_args + ["--out-dir", str(d1)]) == 0
        assert main(d_args + ["--out-dir", str(d2)]) == 0
        denoise_ok = all(
            (d1 / n).read_bytes() == (d2 / n).read_bytes()
            for n in ("img_L.ppm", "img_E.ppm", "img_mask.ppm", "denoise_report.csv")
        )
        ok = table_ok and phase_ok and solve_ok and denoise_ok
        report(
            "8 (seeded CLI byte determinism)",
            ok,
            f"table1={table_ok} phase={phase_ok} solve={solve_ok} denoise={denoise_ok}",
        )
