import csv
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from trpca import cli, imaging, synth, t_algebra, tensor_core
from trpca.cli import EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_NUMERICAL, EXIT_OK, main
from trpca.solver import incoherence_report
from trpca.synth import TrialSpec, gen_low_rank, gen_sparse_uniform, make_instance

from random_tensors import (
    identity_tensor, nan_spectrum_tensor, overflowing_tensor, run_python, save_netpbm, save_tensor,
    traced_peak, ttranspose,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.tns3"
    save_tensor(path, identity_tensor(4, 3))
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
        save_tensor(path, A)
        assert main(["tsvd", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        s = np.linalg.svd(A[:, :, 0], compute_uv=False)
        rank = int((s > t_algebra.DEFAULT_RANK_TOL * s[0]).sum())
        assert rank == 3
        assert report["multi_rank"] == [rank] and report["tubal_rank"] == rank
        assert report["tnn"] == pytest.approx(s.sum(), rel=1e-12)
        assert report["spectral_norm"] == pytest.approx(s[0], rel=1e-12)

    def test_traced_peak(self, tmp_path, rng, monkeypatch, capsys):
        """The input is freed once its half spectrum exists, full-rank factors are not copied and
        each real factor tensor is reduced to its row norms at once.  Measured 4.34 sizes of a
        full-rank 60^3 tensor; 7.13 while the command held all three."""
        A = rng.normal(size=(60, 60, 60))
        path = tmp_path / "full.tns3"
        save_tensor(path, A)
        monkeypatch.setattr(t_algebra, "_WORKERS", 1)
        peak = traced_peak(lambda: main(["tsvd", str(path), "--json"]))
        assert '"tubal_rank": 60' in capsys.readouterr().out
        assert peak <= 5 * A.nbytes

    def test_zero_tensor(self, tmp_path, capsys):
        path = tmp_path / "z.tns3"
        save_tensor(path, np.zeros((3, 3, 2)))
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
        save_tensor(path, L)
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
    """The one-factorization report equals the separate public functions, which count ranks at
    ``DEFAULT_RANK_TOL``; at another ``--tol`` its ranks and incoherence equal ``reference``."""

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

    @staticmethod
    def reference(A, tol):
        """Multi rank, tubal rank and incoherence at ``tol`` from the definitions, not through
        ``t_algebra._sweep``: ranks count the singular values of every slice of the full DFT
        above ``tol`` times the largest one, and the incoherence takes the horizontal-slice
        norms of U and V and ``||U * V^T||_inf`` of the t-SVD factors cut at the tubal rank."""
        s = np.linalg.svd(np.moveaxis(np.fft.fft(A, axis=2), 2, 0), compute_uv=False)
        ranks = (s > tol * s.max()).sum(axis=1)
        r = int(ranks.max())
        if r == 0:
            return ranks.tolist(), r, None
        (n1, n2, n3), f = A.shape, t_algebra.tsvd(A)
        U, V = f.U[:, :r], f.V[:, :r]
        uv_inf = np.abs(t_algebra.tprod(U, ttranspose(V))).max()
        return ranks.tolist(), r, {
            "mu_u": n1 * n3 / r * (U**2).sum(axis=(1, 2)).max(),
            "mu_v": n2 * n3 / r * (V**2).sum(axis=(1, 2)).max(),
            "mu_joint": n1 * n2 * n3**2 / r * uv_inf**2,
            "r": r,
        }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_matches_public_functions(self, case, tmp_path, capsys):
        make, tol = self.CASES[case]
        A = make()
        path = tmp_path / "A.tns3"
        save_tensor(path, A)
        assert main(["tsvd", str(path), "--json", "--tol", repr(tol)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        if tol == t_algebra.DEFAULT_RANK_TOL:
            ranks, rank = t_algebra.multi_rank(A).tolist(), t_algebra.tubal_rank(A)
            inc = dataclasses.asdict(incoherence_report(A)) if rank else None
        else:
            ranks, rank, inc = self.reference(A, tol)
        assert report["multi_rank"] == ranks
        assert report["tubal_rank"] == rank
        assert report["tnn"] == pytest.approx(t_algebra.tnn(A), rel=1e-12, abs=0.0)
        assert report["spectral_norm"] == pytest.approx(
            t_algebra.spectral_norm(A), rel=1e-12, abs=0.0
        )
        if inc is None:
            assert report["incoherence"] is None
            return
        assert report["incoherence"]["r"] == inc["r"]
        for field in ("mu_u", "mu_v", "mu_joint"):
            assert report["incoherence"][field] == pytest.approx(inc[field], rel=1e-12, abs=0.0)


class TestSolveCommand:
    def test_recovery_and_round_trip(self, tmp_path, capsys):
        dims = (25, 25, 6)
        X = gen_low_rank(dims, 2, 0) + gen_sparse_uniform(dims, 300, 1)
        x_path = tmp_path / "x.tns3"
        save_tensor(x_path, X)
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
        save_tensor(x_path, np.zeros((10, 10, 4)))
        main(["solve", str(x_path), "--out-L", str(tmp_path / "L"), "--out-E", str(tmp_path / "E")])
        expected = 1.0 / np.sqrt(10 * 4)
        assert f"lambda: {expected:.12g}" in capsys.readouterr().out

    @pytest.mark.parametrize("config, start", [(b"", None), (b"mu0 = 0.001\n", 1e-3)],
                             ids=["data-scaled", "paper"])
    def test_mu0_echoed_after_lambda(self, tmp_path, capsys, config, start):
        X = gen_low_rank((10, 10, 4), 2, 0)
        x_path, cfg = tmp_path / "x.tns3", tmp_path / "cfg"
        save_tensor(x_path, X)
        cfg.write_bytes(config)
        outs = ["--out-L", str(tmp_path / "L"), "--out-E", str(tmp_path / "E")]
        assert main(["solve", str(x_path), "--config", str(cfg)] + outs) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        start = 1.25 / t_algebra.spectral_norm(X) if start is None else start
        assert lines[1] == f"mu0: {start:.12g}" and lines[0].startswith("lambda: ")

    def test_non_convergence_exit_3(self, tmp_path):
        rng = np.random.default_rng(5)
        x_path = tmp_path / "x.tns3"
        save_tensor(x_path, rng.normal(size=(10, 10, 3)))
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
        save_tensor(x_path, np.zeros((8, 8, 2)))
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
        save_tensor(x_path, np.random.default_rng(8).normal(size=(6, 5, 4)))
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
        save_tensor(x_path, L0 + E0)
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
            ("tsvd", "--tol", "-1"),
            ("tsvd", "--tol", "nan"),
        ],
    )
    def test_out_of_range_flag_exit_2(self, tmp_path, capsys, identity_file, command, flag, value):
        out = tmp_path / "o.csv"
        sizes = ["--n", "8", "--n3", "2", "--out", str(out)]
        args = [command] + ([str(identity_file)] if command == "tsvd" else sizes) + [flag, value]
        assert main(args) == EXIT_INPUT
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--fraction", "2"), ("--fraction", "nan"),
                                             ("--seed", "-1")])
    def test_denoise_flag_checked_before_any_output(self, tmp_path, capsys, flag, value):
        img = tmp_path / "img.ppm"
        save_netpbm(img, imaging.ImageStack(np.full((6, 5, 3), 90, np.uint8), True))
        out_dir = tmp_path / "out"
        assert main(["denoise", str(img), flag, value, "--out-dir", str(out_dir)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["table1", "--n", "abc"], "--n"),
        (["table1", "--bogus", "1"], "--bogus"),
        ([], None),
        (["tsvd"], None),
        (["phase", "--grid", "nonsense"], "--grid"),
        (["table1", "--n", "0"], "--n"),
        (["tsvd", "x.tns3", "--tol", "nan"], "--tol"),
    ],
    ids=["not-a-number", "unknown-flag", "no-command", "no-input", "bad-grid", "out-of-range",
         "nan-tol"],
)
def test_bad_command_line_is_one_error_line(capsys, args, flag):
    """argparse checks every flag's type and range, and its errors print one ``error:`` line
    like every other bad input: no usage block, no ``SystemExit``."""
    assert main(args) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and "usage:" not in err
    assert flag is None or flag in err


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["table1", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: trpca table1")


class TestNonFiniteInput:
    """A finite input whose spectrum or singular values overflow exits 4 with one
    ``error: numerical failure:`` line and nothing else on stderr: none of numpy's overflow
    warnings, also from the pool's threads."""

    @pytest.mark.parametrize(
        "args, shape",
        [(["solve", "X.tns3", "--out-L", "L", "--out-E", "E"], (4, 4, 2)),
         (["tsvd", "X.tns3", "--json"], (4, 4, 2)),
         (["tsvd", "X.tns3", "--json"], (60, 40, 30))],
        ids=["solve", "tsvd", "tsvd-row-slabs"],
    )
    def test_spectrum_overflows_exit_4(self, tmp_path, args, shape):
        # LAPACK can spin without end on such a spectrum, so the command runs in a child;
        # 60x40x30 is above SLAB_FLOOR, so its transform also runs on a pool thread
        save_tensor(tmp_path / "X.tns3", overflowing_tensor(1, shape))
        code = ("import os, sys; from trpca.cli import main; os.chdir(sys.argv[1]); "
                "sys.exit(main(sys.argv[2:]))")
        child = run_python(code, str(tmp_path), *args)
        assert child.returncode == EXIT_NUMERICAL, child.stderr
        assert child.stdout == ""
        assert child.stderr == "error: numerical failure: the spectrum is not finite\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["X.tns3"]

    def test_nan_spectrum_from_the_paper_start_exit_4(self, tmp_path, monkeypatch, capsys):
        # not an exit 0 with an all-zero L from a first tsvt that reads this NaN spectrum as
        # zero; the default start fails earlier, in spectral_norm
        monkeypatch.chdir(tmp_path)
        save_tensor("X.tns3", nan_spectrum_tensor())
        (tmp_path / "cfg").write_text("mu0 = 0.001\n")
        args = ["solve", "X.tns3", "--config", "cfg", "--out-L", "L", "--out-E", "E"]
        assert main(args) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: numerical failure: the spectrum is not finite\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["X.tns3", "cfg"]

    def test_singular_values_overflow_exit_4(self, tmp_path, capsys):
        # an infinite tnn would print "tnn": Infinity, which is not JSON
        path = tmp_path / "X.tns3"
        save_tensor(path, overflowing_tensor(0, (8, 8, 1)))
        assert main(["tsvd", str(path), "--json"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: numerical failure: the singular values are not finite\n"


@pytest.mark.parametrize(
    "args",
    [
        ["denoise", "{tmp}/frames", "--out-dir", "{tmp}/out"],
        ["solve", "{tmp}/x.tns3", "--out-L", "{tmp}/missing/L.tns3", "--out-E", "{tmp}/E"],
        ["table1", "--n", "8", "--n3", "2", "--out", "{tmp}/missing/t.csv"],
        ["denoise", "{tmp}/img.ppm", "--out-dir", "{tmp}/img.ppm/x"],
    ],
    ids=["frame_is_directory", "solve_out_missing_dir", "table1_out_missing_dir",
         "denoise_out_dir_under_file"],
)
def test_os_error_exit_2(tmp_path, capsys, args):
    # a path the command cannot read or write
    (tmp_path / "frames" / "a.pgm").mkdir(parents=True)
    image = imaging.ImageStack(np.full((6, 5, 3), 90, np.uint8), True)
    save_netpbm(tmp_path / "img.ppm", image)
    save_tensor(tmp_path / "x.tns3", np.zeros((6, 6, 2)))
    assert main([a.format(tmp=tmp_path) for a in args]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "args, path",
    [
        (["solve", "x.tns3", "--config", "key.cfg"], "key.cfg"),
        (["solve", "x.tns3", "--config", "value.cfg"], "value.cfg"),
        (["solve", "x.tns3", "--config", "cast.cfg"], "cast.cfg"),
        (["solve", "x.tns3", "--config", "utf.cfg"], "utf.cfg"),
        (["solve", "x.tns3", "--config", "missing.cfg"], "missing.cfg"),
        (["tsvd", "magic.tns3"], "magic.tns3"),
        (["tsvd", "missing.tns3"], "missing.tns3"),
        (["denoise", "zero.pgm"], "zero.pgm"),
        (["denoise", "frames"], "frames"),
        (["denoise", "missing.pgm"], "missing.pgm"),
    ],
    ids=["config-key", "config-value", "config-cast", "config-utf8", "config-missing",
         "tensor-magic", "tensor-missing", "image-zero-extent", "frames-zero-extent",
         "image-missing"],
)
def test_bad_input_file_named_once(tmp_path, monkeypatch, capsys, args, path):
    """A bad input file exits 2 with one error line that names the file once.  The command
    runs in ``tmp_path`` on relative paths, so no other part of the test's path is counted."""
    monkeypatch.chdir(tmp_path)
    save_tensor(Path("x.tns3"), np.zeros((3, 3, 2)))
    Path("key.cfg").write_text("foo = 1\n")
    Path("value.cfg").write_text("eps = -1\n")
    Path("cast.cfg").write_text("max_iter = 2.5\n")
    Path("utf.cfg").write_bytes(b"\xff\xfe=1\n")
    Path("magic.tns3").write_bytes(b"NOPE" + b"\0" * 40)
    Path("zero.pgm").write_bytes(b"P5\n0 4 255\n")
    Path("frames").mkdir()
    Path("frames", "a.pgm").write_bytes(b"P5\n0 4 255\n")
    outs = {"solve": ["--out-L", "L", "--out-E", "E"], "tsvd": [], "denoise": ["--out-dir", "o"]}
    assert main(args + outs[args[0]]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert err.count(path) == 1


class TestOutputsOpenedFirst:
    """Output files are opened before anything is computed, and a failed command removes
    the ones it created and leaves any path that was there before as it was."""

    @staticmethod
    def fail_solve(monkeypatch, module=cli):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(module, "solve", failing)

    def test_bad_out_E_leaves_no_L_file(self, tmp_path, capsys):
        save_tensor(tmp_path / "x.tns3", np.zeros((6, 6, 2)))
        l_path = tmp_path / "L.tns3"
        args = ["solve", str(tmp_path / "x.tns3"), "--out-L", str(l_path),
                "--out-E", str(tmp_path / "missing" / "E.tns3")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not l_path.exists()

    def test_failed_solve_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        save_tensor(tmp_path / "x.tns3", np.zeros((6, 6, 2)))
        self.fail_solve(monkeypatch)
        outs = [tmp_path / "L.tns3", tmp_path / "E.tns3"]
        args = ["solve", str(tmp_path / "x.tns3"), "--out-L", str(outs[0]), "--out-E", str(outs[1])]
        assert main(args) == EXIT_NUMERICAL
        assert not any(p.exists() for p in outs)

    def test_failed_solve_leaves_existing_paths_alone(self, tmp_path, monkeypatch, capsys):
        # an output that was there before, a file or a symlink, is neither removed nor cut
        save_tensor(tmp_path / "x.tns3", np.zeros((6, 6, 2)))
        target = tmp_path / "target"
        target.write_bytes(b"old L")
        link = tmp_path / "L.tns3"
        link.symlink_to(target)
        e_path = tmp_path / "E.tns3"
        e_path.write_bytes(b"old E")
        self.fail_solve(monkeypatch)
        args = ["solve", str(tmp_path / "x.tns3"), "--out-L", str(link), "--out-E", str(e_path)]
        assert main(args) == EXIT_NUMERICAL
        assert link.is_symlink() and target.read_bytes() == b"old L"
        assert e_path.read_bytes() == b"old E"

    def test_clean_up_error_keeps_the_command_error(self, tmp_path, monkeypatch, capsys):
        save_tensor(tmp_path / "x.tns3", np.zeros((6, 6, 2)))
        self.fail_solve(monkeypatch)

        def refused(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(os, "unlink", refused)
        args = ["solve", str(tmp_path / "x.tns3"), "--out-L", str(tmp_path / "L.tns3"),
                "--out-E", str(tmp_path / "E.tns3")]
        assert main(args) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_success_cuts_a_longer_file_and_writes_to_a_device(self, tmp_path, capsys):
        save_tensor(tmp_path / "x.tns3", np.zeros((6, 6, 2)))
        fresh, old = tmp_path / "fresh.tns3", tmp_path / "old.tns3"
        old.write_bytes(b"x" * 10_000)
        for out in (fresh, old):
            args = ["solve", str(tmp_path / "x.tns3"), "--out-L", str(out), "--out-E", os.devnull]
            assert main(args) == EXIT_OK
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("command", ["table1", "phase", "denoise", "denoise_frames"])
    def test_unwritable_out_exits_before_any_solve(self, tmp_path, monkeypatch, capsys, command):
        calls = []
        denoise = command.startswith("denoise")
        module, name = (imaging, "denoise") if denoise else (synth, "run_trial")
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        # denoise: a directory where the E image of a colour image goes, or where the mask of
        # a grayscale stack goes, opened after the L images
        save_netpbm(tmp_path / "img.ppm", imaging.ImageStack(np.full((6, 5, 3), 90, np.uint8), True))
        (tmp_path / "frames").mkdir()
        for k in range(3):
            save_netpbm(tmp_path / "frames" / f"f{k}.pgm",
                        imaging.ImageStack(np.full((6, 5, 1), 40 * k, np.uint8)))
        out_dir = tmp_path / "out"
        blocked = ["frames_mask_000.pgm", "img_E.ppm"]
        for name in blocked:
            (out_dir / name).mkdir(parents=True)
        args = {
            "table1": ["table1", "--n", "8", "--n3", "2", "--out", "{tmp}/missing/o.csv"],
            "phase": ["phase", "--n", "8", "--n3", "2", "--grid", "2x2", "--trials", "1",
                      "--out", "{tmp}/missing/o.csv"],
            "denoise": ["denoise", "{tmp}/img.ppm", "--out-dir", "{tmp}/out"],
            "denoise_frames": ["denoise", "{tmp}/frames", "--out-dir", "{tmp}/out"],
        }[command]
        assert main([a.format(tmp=tmp_path) for a in args]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert captured.out == "" and calls == []
        assert sorted(p.name for p in out_dir.iterdir()) == blocked

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_failed_denoise_leaves_no_output(self, tmp_path, monkeypatch, capsys, existing):
        # no image and no report is created; an image or report that was there keeps its bytes
        save_netpbm(tmp_path / "img.ppm", imaging.ImageStack(np.full((6, 5, 3), 90, np.uint8), True))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        before = {"denoise_report.csv": b"file,old\n", "img_L.ppm": b"old L"} if existing else {}
        for name, data in before.items():
            (out_dir / name).write_bytes(data)
        self.fail_solve(monkeypatch, imaging)
        args = ["denoise", str(tmp_path / "img.ppm"), "--baseline", "--out-dir", str(out_dir)]
        assert main(args) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.skipif(not hasattr(os, "fork") or not t_algebra._openblas(),
                        reason="needs os.fork and numpy's bundled OpenBLAS")
    def test_failed_channel_solve_in_a_child_exits_4(self, tmp_path, monkeypatch, capsys):
        # only a call run in a forked child fails; its error crosses back as itself
        save_netpbm(tmp_path / "img.ppm", imaging.ImageStack(np.full((6, 5, 3), 90, np.uint8), True))
        out_dir, taken = tmp_path / "out", tmp_path / "child-took-a-call"
        parent, solve = os.getpid(), imaging.solve

        def failing_in_a_child(X, config):
            if os.getpid() != parent:
                taken.touch()
                raise np.linalg.LinAlgError("SVD did not converge")
            if X.shape[2] == 3:  # the tensor solve here: wait until the child has taken a call
                deadline = time.monotonic() + 30
                while not taken.exists():
                    assert time.monotonic() < deadline, "no forked child took a call in 30 s"
                    time.sleep(0.01)
            return solve(X, config)

        monkeypatch.setattr(t_algebra, "_WORKERS", 1)
        monkeypatch.setattr(imaging, "solve", failing_in_a_child)
        args = ["denoise", str(tmp_path / "img.ppm"), "--baseline", "--out-dir", str(out_dir)]
        assert main(args) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_two_outputs_naming_one_file_exit_2(self, tmp_path, capsys):
        # a new path is not left behind, an existing file keeps its bytes, a device may repeat
        save_tensor(tmp_path / "x.tns3", np.zeros((6, 6, 2)))
        new, old, link = tmp_path / "new.tns3", tmp_path / "old.tns3", tmp_path / "link.tns3"
        old.write_bytes(b"old")
        link.symlink_to(old)
        for out_L, out_E in [(new, new), (old, old), (old, link)]:
            args = ["solve", str(tmp_path / "x.tns3"), "--out-L", str(out_L), "--out-E", str(out_E)]
            assert main(args) == EXIT_INPUT
            captured = capsys.readouterr()
            assert "same file" in captured.err and captured.out == ""
        assert not new.exists() and old.read_bytes() == b"old"
        args = ["solve", str(tmp_path / "x.tns3"), "--out-L", os.devnull, "--out-E", os.devnull]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        # denoise opens its images and its report in one call, so an image may not be the report
        save_netpbm(tmp_path / "img.ppm", imaging.ImageStack(np.full((6, 5, 3), 90, np.uint8), True))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "denoise_report.csv").write_bytes(b"file,old\n")
        (out_dir / "img_L.ppm").symlink_to("denoise_report.csv")
        assert main(["denoise", str(tmp_path / "img.ppm"), "--out-dir", str(out_dir)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "same file" in captured.err and captured.out == ""
        assert sorted(p.name for p in out_dir.iterdir()) == ["denoise_report.csv", "img_L.ppm"]
        assert (out_dir / "denoise_report.csv").read_bytes() == b"file,old\n"


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
        save_netpbm(img, imaging.tensor_to_stack(L, color=True))
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


class TestImportCost:
    def test_import_loads_no_pool_or_process_module(self):
        # the parallel layer imports these only when it first maps or forks
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        lazy = ["concurrent.futures", "logging", "multiprocessing", "mmap"]
        code = f"import sys, trpca; print([m for m in {lazy!r} if m in sys.modules])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
            timeout=300,
        )
        assert out.stdout.strip() == "[]"


class TestNoBusyBlasThread:
    """Every batched BLAS call runs on one BLAS thread, so no OpenBLAS worker is woken to
    spin on after the call and take a core from the next parallel stage."""

    @staticmethod
    def idle_cpu_s():
        start = time.process_time()
        time.sleep(0.3)
        return time.process_time() - start

    def test_no_blas_thread_left_busy(self, tmp_path, capsys):
        blas = t_algebra._openblas()
        if not blas or blas[0]() < 2:
            pytest.skip("needs numpy's bundled OpenBLAS on more than one thread")
        path = tmp_path / "L.tns3"
        save_tensor(path, gen_low_rank((100, 100, 20), 3, 0))
        time.sleep(0.3)  # a worker woken before this test goes back to sleep
        rng = np.random.default_rng(0)
        t_algebra.tprod(rng.normal(size=(100, 10, 100)), rng.normal(size=(10, 100, 100)))
        assert self.idle_cpu_s() < 0.03
        assert main(["tsvd", str(path), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tubal_rank"] == 3
        assert self.idle_cpu_s() < 0.03


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
        save_netpbm(path, stack)
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
            save_netpbm(
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

    @pytest.mark.parametrize("first_fails", [False, True], ids=["both_succeed", "first_fails"])
    def test_overlapping_runs_append_two_rows_under_one_header(
            self, tmp_path, monkeypatch, capsys, first_fails):
        # the second run starts, and finishes, while the first one solves, as two runs started
        # together into one --out-dir do; neither row may overwrite the other, and a failing
        # first run, which created the report, does not remove the second run's row
        img = self._write_color_image(tmp_path, h=12, w=12)
        other = tmp_path / "other.ppm"
        other.write_bytes(img.read_bytes())
        out_dir = tmp_path / "out"
        original = imaging.denoise

        def overlapping(*args, **kwargs):
            monkeypatch.setattr(imaging, "denoise", original)
            assert main(["denoise", str(other), "--seed", "2", "--out-dir", str(out_dir)]) == EXIT_OK
            if first_fails:
                raise np.linalg.LinAlgError("SVD did not converge")
            return original(*args, **kwargs)

        monkeypatch.setattr(imaging, "denoise", overlapping)
        code = main(["denoise", str(img), "--seed", "1", "--out-dir", str(out_dir)])
        assert code == (EXIT_NUMERICAL if first_fails else EXIT_OK)
        lines = (out_dir / "denoise_report.csv").read_text().splitlines()
        assert lines[0] == "file,fraction,seed,psnr_trpca,psnr_baseline,iterations"
        rows = [["other.ppm", "0.1", "2"]] + ([] if first_fails else [["img.ppm", "0.1", "1"]])
        assert [line.split(",")[:3] for line in lines[1:]] == rows

    def test_report_quotes_a_comma_in_the_name(self, tmp_path, capsys):
        img = self._write_color_image(tmp_path, h=8, w=8)
        named = tmp_path / "a,b.ppm"
        img.rename(named)
        out_dir = tmp_path / "out"
        assert main(["denoise", str(named), "--out-dir", str(out_dir)]) == EXIT_OK
        with open(out_dir / "denoise_report.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [6, 6]
        assert rows[1][:3] == ["a,b.ppm", "0.1", "0"]

    def test_unsupported_format_exit_2(self, tmp_path):
        bad = tmp_path / "img.png"
        bad.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\0" * 16)
        assert main(["denoise", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("data, names", [
        (b"P6\n# comment", "header"),  # the comment never ends
        (b"P5\n-4 4 255\n", "header"),
        (b"P5\n0 4 255\n", "extents"),
    ], ids=["unterminated-comment", "negative-width", "zero-width"])
    def test_malformed_netpbm_header_exit_2(self, tmp_path, capsys, data, names):
        bad = tmp_path / "img.pgm"
        bad.write_bytes(data)
        assert main(["denoise", str(bad), "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert names in captured.err.replace(str(bad), "")  # not in the test's own path
