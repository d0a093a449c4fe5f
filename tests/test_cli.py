import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from trpca import imaging, t_algebra, tensor_core
from trpca.cli import EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_NUMERICAL, EXIT_OK, main
from trpca.solver import incoherence_report
from trpca.synth import TrialSpec, gen_low_rank, gen_sparse_uniform, make_instance

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.tns3"
    tensor_core.save_tensor(path, t_algebra.identity_tensor(4, 3))
    return path


class TestTsvdCommand:
    def test_identity_report(self, identity_file, capsys):
        assert main(["tsvd", str(identity_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tubal rank: 4" in out
        assert "tnn: 4" in out

    def test_json_output(self, identity_file, capsys):
        assert main(["tsvd", str(identity_file), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["tubal_rank"] == 4
        assert report["multi_rank"] == [4, 4, 4]
        assert report["tnn"] == pytest.approx(4.0)

    def test_n3_one_matches_matrix_svd(self, tmp_path, capsys):
        A = gen_low_rank((9, 6, 1), 3, 8)
        path = tmp_path / "m.tns3"
        tensor_core.save_tensor(path, A)
        assert main(["tsvd", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        s = np.linalg.svd(A[:, :, 0], compute_uv=False)
        rank = int((s > t_algebra.DEFAULT_RANK_TOL * s[0]).sum())
        assert rank == 3
        assert report["multi_rank"] == [rank] and report["tubal_rank"] == rank
        assert report["tnn"] == pytest.approx(s.sum(), rel=1e-12)
        assert report["spectral_norm"] == pytest.approx(s[0], rel=1e-12)

    def test_zero_tensor(self, tmp_path, capsys):
        path = tmp_path / "z.tns3"
        tensor_core.save_tensor(path, np.zeros((3, 3, 2)))
        assert main(["tsvd", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tubal rank: 0" in out
        assert "tnn: 0" in out

    def test_corrupted_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.tns3"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        assert main(["tsvd", str(path)]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_oversized_header_exit_2(self, tmp_path, capsys):
        # 8192^3 declared entries (4 TiB) in 100 bytes, from a regular file
        # and from a named pipe, which cannot report how many bytes are left
        header = b"TNS3" + np.array([8192, 8192, 8192], dtype="<u8").tobytes()
        data = header + b"\0" * (100 - len(header))
        streams = ["file", "pipe"] if hasattr(os, "mkfifo") else ["file"]
        for stream in streams:
            path = tmp_path / f"huge-{stream}.tns3"
            if stream == "pipe":
                os.mkfifo(path)
                # the writer blocks until main opens the pipe for reading
                threading.Thread(target=path.write_bytes, args=(data,), daemon=True).start()
            else:
                path.write_bytes(data)
            assert main(["tsvd", str(path)]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "size mismatch" in err
            assert "Traceback" not in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["tsvd", str(tmp_path / "nope.tns3")]) == EXIT_INPUT

    def test_svd_failure_exit_4(self, identity_file, monkeypatch, capsys):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        assert main(["tsvd", str(identity_file)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ")
        assert err.count("\n") == 1

    def test_one_factorization_per_inspection(self, tmp_path, monkeypatch, capsys):
        L = gen_low_rank((9, 7, 6), 3, 0)
        path = tmp_path / "L.tns3"
        tensor_core.save_tensor(path, L)
        svd, fft, rfft = np.linalg.svd, np.fft.fft, np.fft.rfft
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        def no_tprod(*args, **kwargs):
            raise AssertionError("inspection must not form t-products")

        monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
        monkeypatch.setattr(np.fft, "fft", counting("fft", fft))
        monkeypatch.setattr(np.fft, "rfft", counting("fft", rfft))
        monkeypatch.setattr(t_algebra, "tprod", no_tprod)
        assert main(["tsvd", str(path), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["incoherence"]["r"] == 3
        assert calls.count("svd") == 1
        assert calls.count("fft") <= 1
        calls.clear()
        assert incoherence_report(L).r == 3
        assert calls.count("svd") == 1


class TestTsvdReportAgreement:
    """The one-factorization report equals the separate public functions."""

    CASES = {
        "odd_n3": (lambda: gen_low_rank((8, 6, 7), 3, 1), 1e-8),
        "even_n3_rank_deficient": (lambda: gen_low_rank((8, 6, 6), 3, 2), 1e-8),
        "n3_one": (lambda: gen_low_rank((5, 7, 1), 2, 3), 1e-8),
        "tall": (lambda: np.random.default_rng(4).normal(size=(9, 4, 5)), 1e-8),
        "wide": (lambda: np.random.default_rng(5).normal(size=(4, 9, 4)), 1e-8),
        "nonzero_tol": (lambda: np.random.default_rng(6).normal(size=(7, 6, 6)), 0.3),
        "zero": (lambda: np.zeros((3, 4, 2)), 1e-8),
        "tol_above_one": (lambda: np.random.default_rng(7).normal(size=(5, 4, 3)), 1.5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_matches_public_functions(self, case, tmp_path, capsys):
        make, tol = self.CASES[case]
        A = make()
        path = tmp_path / "A.tns3"
        tensor_core.save_tensor(path, A)
        assert main(["tsvd", str(path), "--json", "--tol", repr(tol)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["multi_rank"] == t_algebra.multi_rank(A, tol).tolist()
        assert report["tubal_rank"] == t_algebra.tubal_rank(A, tol)
        assert report["tnn"] == pytest.approx(t_algebra.tnn(A), rel=1e-12, abs=0.0)
        assert report["spectral_norm"] == pytest.approx(
            t_algebra.spectral_norm(A), rel=1e-12, abs=0.0
        )
        if report["tubal_rank"] == 0:
            assert report["incoherence"] is None
            return
        inc = incoherence_report(A, tol)
        assert report["incoherence"]["r"] == inc.r
        for field in ("mu_u", "mu_v", "mu_joint"):
            assert report["incoherence"][field] == pytest.approx(
                getattr(inc, field), rel=1e-12, abs=0.0
            )


class TestSolveCommand:
    def test_recovery_and_round_trip(self, tmp_path, capsys):
        dims = (25, 25, 6)
        X = gen_low_rank(dims, 2, 0) + gen_sparse_uniform(dims, 300, 1)
        x_path = tmp_path / "x.tns3"
        tensor_core.save_tensor(x_path, X)
        l_path, e_path = tmp_path / "L.tns3", tmp_path / "E.tns3"
        code = main(
            ["solve", str(x_path), "--out-L", str(l_path), "--out-E", str(e_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "converged: yes" in out
        assert "tubal rank of L: 2" in out
        L = tensor_core.load_tensor(l_path)
        E = tensor_core.load_tensor(e_path)
        assert np.abs(L + E - X).max() <= 1e-7

    def test_default_lambda_echoed(self, tmp_path, capsys):
        x_path = tmp_path / "x.tns3"
        tensor_core.save_tensor(x_path, np.zeros((10, 10, 4)))
        main(["solve", str(x_path), "--out-L", str(tmp_path / "L"), "--out-E", str(tmp_path / "E")])
        expected = 1.0 / np.sqrt(10 * 4)
        assert f"lambda: {expected:.12g}" in capsys.readouterr().out

    def test_non_convergence_exit_3(self, tmp_path):
        rng = np.random.default_rng(5)
        x_path = tmp_path / "x.tns3"
        tensor_core.save_tensor(x_path, rng.normal(size=(10, 10, 3)))
        cfg = tmp_path / "cfg"
        cfg.write_text("max_iter = 2\n")
        code = main(
            [
                "solve",
                str(x_path),
                "--config",
                str(cfg),
                "--out-L",
                str(tmp_path / "L"),
                "--out-E",
                str(tmp_path / "E"),
            ]
        )
        assert code == EXIT_NO_CONVERGENCE

    def test_cli_lambda_overrides_config(self, tmp_path, capsys):
        x_path = tmp_path / "x.tns3"
        tensor_core.save_tensor(x_path, np.zeros((8, 8, 2)))
        cfg = tmp_path / "cfg"
        cfg.write_text("lambda = 0.5\n")
        main(
            [
                "solve",
                str(x_path),
                "--config",
                str(cfg),
                "--lambda",
                "0.25",
                "--out-L",
                str(tmp_path / "L"),
                "--out-E",
                str(tmp_path / "E"),
            ]
        )
        assert "lambda: 0.25" in capsys.readouterr().out

    def test_non_finite_config_value_exit_2(self, tmp_path, capsys):
        x_path = tmp_path / "x.tns3"
        tensor_core.save_tensor(x_path, np.random.default_rng(8).normal(size=(6, 5, 4)))
        cfg = tmp_path / "cfg"
        cfg.write_text("eps = nan\n")
        outs = ["--out-L", str(tmp_path / "L"), "--out-E", str(tmp_path / "E")]
        assert main(["solve", str(x_path), "--config", str(cfg)] + outs) == EXIT_INPUT
        assert "eps" in capsys.readouterr().err


    def test_outputs_independent_of_blas_threads(self, tmp_path):
        if not t_algebra._openblas():
            pytest.skip("numpy's bundled OpenBLAS thread-count functions are not available")
        spec = TrialSpec(
            dims=tensor_core.TensorDims(100, 100, 4),
            r=10,
            sparsity_model="uniform_m",
            sparsity_param=4000,
            seed=7,
        )
        L0, E0 = make_instance(spec)
        x_path = tmp_path / "x.tns3"
        tensor_core.save_tensor(x_path, L0 + E0)
        outputs = []
        for threads in ("1", "2"):
            l_path, e_path = tmp_path / f"L{threads}.tns3", tmp_path / f"E{threads}.tns3"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-c", "import sys; from trpca.cli import main; sys.exit(main())",
                 "solve", str(x_path), "--out-L", str(l_path), "--out-E", str(e_path)],
                env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
            )
            outputs.append((l_path.read_bytes(), e_path.read_bytes()))
        assert outputs[0] == outputs[1]


class TestTable1Command:
    def test_rows_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        args = [
            "table1",
            "--n",
            "20",
            "--n3",
            "6",
            "--r-frac",
            "0.1",
            "--m-frac",
            "0.1",
            "--seeds",
            "3",
            "--seed",
            "7",
        ]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert "seed: 7" in capsys.readouterr().out
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        lines = b1.decode().strip().splitlines()
        assert len(lines) == 1 + 1 + 3  # comment, header, three seeds


class TestExperimentFlagValidation:
    def test_zero_seeds_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        args = ["table1", "--n", "8", "--n3", "2", "--seeds", "0", "--out", str(out)]
        assert main(args) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "--seeds" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("table1", "--m-frac"), ("table1", "--r-frac"), ("phase", "--lo"), ("phase", "--hi")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_flag_exit_2(self, tmp_path, capsys, command, flag, value):
        args = [command, "--n", "8", "--n3", "2", flag, value, "--out", str(tmp_path / "o.csv")]
        assert main(args) == EXIT_INPUT
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("table1", "--n", "0"),
            ("table1", "--n3", "0"),
            ("table1", "--m-frac", "2"),
            ("table1", "--m-frac", "-0.5"),
            ("table1", "--r-frac", "5"),
            ("table1", "--seed", "-1"),
            ("phase", "--n", "0"),
            ("phase", "--n3", "0"),
            ("phase", "--trials", "0"),
            ("phase", "--grid", "0x3"),
            ("phase", "--hi", "2"),
            ("phase", "--seed", "-1"),
        ],
    )
    def test_out_of_range_flag_exit_2(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o.csv"
        args = [command, "--n", "8", "--n3", "2", flag, value, "--out", str(out)]
        assert main(args) == EXIT_INPUT
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--fraction", "2"), ("--fraction", "nan"),
                                             ("--seed", "-1")])
    def test_denoise_flag_checked_before_any_output(self, tmp_path, capsys, flag, value):
        img = tmp_path / "img.ppm"
        imaging.write_netpbm(img, imaging.ImageStack(np.full((6, 5, 3), 90, np.uint8), True))
        out_dir = tmp_path / "out"
        assert main(["denoise", str(img), flag, value, "--out-dir", str(out_dir)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert not out_dir.exists()


class TestWorkerCountIndependence:
    """The independent solves of ``table1``, ``phase`` and ``denoise --baseline`` give the
    same bytes whether they run one after another or side by side."""

    @staticmethod
    def run_with_workers(monkeypatch, capsys, tmp_path, args, outputs):
        """Bytes of each output file and the stdout lines without ``time=`` per worker count."""
        seen = []
        for workers in (0, 1):
            monkeypatch.setattr(t_algebra, "_WORKERS", workers)
            out = tmp_path / f"w{workers}"
            out.mkdir()
            assert main([a.replace("OUT", str(out)) for a in args]) == EXIT_OK
            text = capsys.readouterr().out.replace(str(out), "OUT")
            lines = [line.split(" time=")[0] for line in text.splitlines()]
            seen.append((lines, [(out / name).read_bytes() for name in outputs]))
        assert seen[0] == seen[1]

    def test_table1(self, monkeypatch, capsys, tmp_path):
        args = ["table1", "--n", "24", "--n3", "8", "--seeds", "3", "--seed", "2",
                "--out", "OUT/t.csv"]
        self.run_with_workers(monkeypatch, capsys, tmp_path, args, ["t.csv"])

    def test_phase(self, monkeypatch, capsys, tmp_path):
        args = ["phase", "--n", "14", "--n3", "4", "--grid", "3x2", "--trials", "2",
                "--seed", "8", "--out", "OUT/p.csv"]
        self.run_with_workers(monkeypatch, capsys, tmp_path, args, ["p.csv"])

    def test_denoise_with_baseline(self, monkeypatch, capsys, tmp_path):
        L = gen_low_rank((24, 20, 3), 2, 4)
        L = 0.05 + 0.9 * (L - L.min()) / (L.max() - L.min())
        img = tmp_path / "img.ppm"
        imaging.write_netpbm(img, imaging.tensor_to_stack(L, color=True))
        args = ["denoise", str(img), "--fraction", "0.1", "--seed", "6", "--baseline",
                "--out-dir", "OUT"]
        names = ["img_L.ppm", "img_E.ppm", "img_mask.ppm", "denoise_report.csv"]
        self.run_with_workers(monkeypatch, capsys, tmp_path, args, names)


class TestTable1BlasThreads:
    def test_csv_independent_of_blas_threads(self, tmp_path):
        if not t_algebra._openblas():
            pytest.skip("numpy's bundled OpenBLAS thread-count functions are not available")
        # 32000 entries per tensor: enough for OpenBLAS to split the norms' dot products
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-c", "import sys; from trpca.cli import main; sys.exit(main())",
                 "table1", "--n", "40", "--n3", "20", "--seeds", "4", "--seed", "0",
                 "--out", str(out)],
                env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestPhaseCommand:
    def test_grid_dims_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        args = [
            "phase",
            "--n",
            "12",
            "--n3",
            "4",
            "--grid",
            "3x2",
            "--trials",
            "1",
            "--seed",
            "3",
        ]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert "seed: 3" in capsys.readouterr().out
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 1 + 1 + 2  # comment, header, one row per rho
        assert len(lines[2].split(",")) == 1 + 3  # rho label + r columns

    def test_bad_grid_exit_2(self):
        assert main(["phase", "--grid", "nonsense"]) == EXIT_INPUT


class TestDenoiseCommand:
    def _write_color_image(self, tmp_path, seed=0, h=20, w=20):
        L = gen_low_rank((h, w, 3), 2, seed)
        L = 0.05 + 0.9 * (L - L.min()) / (L.max() - L.min())
        stack = imaging.tensor_to_stack(L, color=True)
        path = tmp_path / "img.ppm"
        imaging.write_netpbm(path, stack)
        return path

    def test_color_with_baseline(self, tmp_path, capsys):
        img = self._write_color_image(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            [
                "denoise",
                str(img),
                "--fraction",
                "0.1",
                "--seed",
                "1",
                "--baseline",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "psnr_trpca" in text and "psnr_baseline" in text
        assert (out_dir / "img_L.ppm").exists()
        assert (out_dir / "img_mask.ppm").exists()
        report = (out_dir / "denoise_report.csv").read_text().splitlines()
        assert report[0].startswith("file,fraction,seed")
        assert report[1].startswith("img.ppm,0.1,1,")

    def test_byte_deterministic(self, tmp_path):
        img = self._write_color_image(tmp_path)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        args = ["denoise", str(img), "--fraction", "0.1", "--seed", "9"]
        assert main(args + ["--out-dir", str(d1)]) == EXIT_OK
        assert main(args + ["--out-dir", str(d2)]) == EXIT_OK
        for name in ("img_L.ppm", "img_E.ppm", "img_mask.ppm", "denoise_report.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_pgm_stack_directory(self, tmp_path):
        # small grayscale stack of identical frames
        rng = np.random.default_rng(3)
        frame = (rng.random((16, 16)) * 255).astype(np.uint8)
        stack_dir = tmp_path / "frames"
        stack_dir.mkdir()
        for k in range(4):
            imaging.write_netpbm(
                stack_dir / f"f{k}.pgm", imaging.ImageStack(frames=frame[:, :, None])
            )
        out_dir = tmp_path / "out"
        code = main(
            [
                "denoise",
                str(stack_dir),
                "--fraction",
                "0.05",
                "--seed",
                "0",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert (out_dir / "frames_L_000.pgm").exists()
        assert (out_dir / "frames_L_003.pgm").exists()

    def test_unsupported_format_exit_2(self, tmp_path):
        bad = tmp_path / "img.png"
        bad.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\0" * 16)
        assert main(["denoise", str(bad)]) == EXIT_INPUT
