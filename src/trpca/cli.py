"""Command-line front end.

Subcommands: ``tsvd`` (inspect a tensor file), ``solve`` (decompose a tensor), ``table1``
(seeded exact-recovery trials), ``phase`` (rank vs sparsity phase grid), ``denoise`` (image
recovery).  Exit codes: 0 on success, 2 on a bad command line, bad input, a file that cannot be
read or written, or two outputs that name one file, 3 when the solver hits the iteration cap, 4
on a numerical failure (a spectral factorization that LAPACK cannot compute, or a spectrum,
singular values or ADMM residuals that are not finite).  An error prints one ``error:`` line
and no usage block; ``-h`` prints the usage.  A bad flag is named (``error: argument --n: must
be >= 1, got 0``), since argparse checks every flag's type and range before a command runs.  An
error about a file's content starts with the file's path (``path:line:`` for a config file),
and a file that cannot be opened gives Python's ``[Errno N] ...: 'path'``.  Every randomized
command prints its seed, and identical seeds reproduce file outputs byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from . import imaging, synth, t_algebra, tensor_core
from .solver import SolverConfig, _incoherence, load_config, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4


def _build_config(args) -> SolverConfig:
    config = load_config(args.config) if args.config else SolverConfig()
    if getattr(args, "lam", None) is not None:
        config = dataclasses.replace(config, lam=args.lam)
    return config


@contextlib.contextmanager
def _outputs(*outputs):
    """Open every output, a ``(path, mode)`` pair, for writing before the command computes
    anything, so that a path that cannot be written, or two paths naming one regular file,
    exit 2 at once.  Every command opens all its output files in one call here.  A path that
    is already there (a file, a symlink, a device) keeps its bytes until the command has
    succeeded, and a regular file is then cut to what was written.  A mode with ``"a"``
    opens with ``O_APPEND``, so that every write lands at the end as it is then, also when
    another process appends to the same file, and such a file is never cut.  If opening one
    fails or the command fails, the files created here are removed (an appended one only
    while it is still empty), so a failed command leaves no partial output behind, and the
    command's own error is the one raised."""
    files, created, regular = [], [], {}
    try:
        for path, mode in outputs:
            new = not os.path.lexists(path)
            flags = os.O_WRONLY | os.O_CREAT | (os.O_APPEND if "a" in mode else 0)
            fd = os.open(path, flags, 0o666)  # no O_TRUNC, see above
            files.append(open(fd, mode, newline=None if "b" in mode else ""))
            if new:
                created.append((path, "a" in mode))
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                key = (st.st_dev, st.st_ino)
                if key in regular:
                    raise ValueError(f"outputs {regular[key]} and {path} are the same file")
                regular[key] = path
        yield files
        for f, (_, mode) in zip(files, outputs):
            f.flush()
            if "a" not in mode and stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except BaseException:
        for f in files:
            f.close()
        for path, append in created:
            with contextlib.suppress(OSError):
                st = os.lstat(path)
                if stat.S_ISREG(st.st_mode) and not (append and st.st_size):
                    os.unlink(path)
        raise
    finally:
        for f in files:
            f.close()


def cmd_tsvd(args) -> int:
    """The dims come from the factors and the multi rank: ``_sweep`` frees the tensor early."""
    mr, tnn, norm, U, Vh = t_algebra._sweep(
        tensor_core.load_tensor(args.input), args.tol, factors=True
    )
    rank = int(mr.max())
    report = {
        "dims": [U.shape[1], Vh.shape[2], len(mr)],
        "multi_rank": [int(r) for r in mr],
        "tubal_rank": rank,
        "tnn": tnn,
        "spectral_norm": norm,
        "incoherence": dataclasses.asdict(_incoherence(U, Vh, len(mr))) if rank else None,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("dims: {} x {} x {}".format(*report["dims"]))
        print(f"multi rank: {' '.join(str(r) for r in report['multi_rank'])}")
        print(f"tubal rank: {report['tubal_rank']}")
        print(f"tnn: {report['tnn']:.12g}")
        print(f"spectral norm: {report['spectral_norm']:.12g}")
        inc = report["incoherence"]
        if inc is None:
            print("incoherence: undefined (tubal rank 0)")
        else:
            print(
                f"incoherence (r={inc['r']}): mu_u={inc['mu_u']:.6g} "
                f"mu_v={inc['mu_v']:.6g} mu_joint={inc['mu_joint']:.6g}"
            )
    return EXIT_OK


def cmd_solve(args) -> int:
    X = tensor_core.load_tensor(args.input)
    config = _build_config(args)
    with _outputs((args.out_L, "wb"), (args.out_E, "wb")) as (f_L, f_E):
        result = solve(X, config)
        tensor_core.write_tensor(f_L, result.L)
        tensor_core.write_tensor(f_E, result.E)
    res_l, res_e, res_gap = result.residual_history[-1]
    print(f"lambda: {result.lam:.12g}")
    print(f"mu0: {result.mu0:.12g}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    print(f"residuals: dL={res_l:.3e} dE={res_e:.3e} gap={res_gap:.3e}")
    print(f"tubal rank of L: {t_algebra.tubal_rank(result.L)}")
    print(f"wrote {args.out_L} and {args.out_E}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_table1(args) -> int:
    n, n3 = args.n, args.n3
    r = max(1, round(args.r_frac * n))
    m = round(args.m_frac * n * n * n3)
    config = _build_config(args)
    specs = [
        synth.TrialSpec(
            dims=tensor_core.TensorDims(n, n, n3),
            r=r,
            sparsity_model="uniform_m",
            sparsity_param=m,
            seed=args.seed + s,
        )
        for s in range(args.seeds)
    ]
    with _outputs((args.out, "w")) as (f,):
        print(f"seed: {args.seed}  n={n} n3={n3} r={r} m={m} seeds={args.seeds}")
        # the seeds are independent solves, run side by side; rows follow in seed order
        outcomes = t_algebra._fork_map(lambda spec: synth.run_trial(spec, config), specs)
        rows = list(zip(specs, outcomes))
        for spec, out in rows:
            print(
                f"seed {spec.seed}: rank_hat={out.rank_hat} nnz_hat={out.nnz_hat} "
                f"rel_err_L={out.rel_err_L:.3e} rel_err_E={out.rel_err_E:.3e} "
                f"iters={out.iterations} time={out.wall_time:.1f}s"
            )
        synth.write_trials_csv(
            f,
            rows,
            header_comment=f"exact-recovery trials seed={args.seed} n={n} n3={n3} r={r} m={m}",
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_phase(args) -> int:
    nr, nrho = args.grid
    config = _build_config(args)
    r_fracs = [round(v, 10) for v in np.linspace(args.lo, args.hi, nr)]
    rho_list = [round(v, 10) for v in np.linspace(args.lo, args.hi, nrho)]
    with _outputs((args.out, "w")) as (f,):
        print(
            f"seed: {args.seed}  n={args.n} n3={args.n3} grid={nr}x{nrho} "
            f"range=[{args.lo}, {args.hi}] trials={args.trials}"
        )
        grid = synth.phase_grid(
            tensor_core.TensorDims(args.n, args.n, args.n3),
            r_fracs,
            rho_list,
            args.trials,
            args.seed,
            config,
        )
        synth.write_phase_csv(
            f,
            grid,
            header_comment=(
                f"phase grid seed={args.seed} n={args.n} n3={args.n3} trials={args.trials}"
            ),
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_image_input(path: Path) -> imaging.ImageStack:
    if path.is_dir():
        frames = []
        files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".pgm")
        if not files:
            raise ValueError(f"{path}: no PGM frames found")
        for p in files:
            stack = imaging.read_netpbm(p)
            if stack.color:
                raise ValueError(f"{p}: expected grayscale PGM frames")
            frames.append(stack.frames[:, :, 0])
        try:
            return imaging.ImageStack(frames=np.stack(frames, axis=2), color=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return imaging.read_netpbm(path)


def cmd_denoise(args) -> int:
    """Corrupt and recover an image or a directory of PGM frames.  The images and the report
    are opened in one ``_outputs`` call before the solve: a colour image gives ``{name}_L.ppm``,
    ``{name}_E.ppm`` and ``{name}_mask.ppm``, a grayscale stack one ``{name}_L_{k:03d}.pgm``
    per frame and ``{name}_mask_000.pgm``.  One row is appended to ``denoise_report.csv``,
    with a header only when the report is empty as the row is written."""
    stack = _load_image_input(Path(args.input))
    config = _build_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = Path(args.input).stem or "stack"
    if stack.color:
        names = [f"{name}_L.ppm", f"{name}_E.ppm", f"{name}_mask.ppm"]
    else:
        names = [f"{name}_L_{k:03d}.pgm" for k in range(stack.n_frames)] + [f"{name}_mask_000.pgm"]
    outputs = [(out_dir / n, "wb") for n in names] + [(out_dir / "denoise_report.csv", "a")]
    with _outputs(*outputs) as (*images, f):
        print(f"seed: {args.seed}  fraction={args.fraction}")
        report, L, E, mask = imaging.denoise(
            stack, args.fraction, args.seed, config, baseline=args.baseline
        )
        recovered = imaging.tensor_to_stack(L, color=stack.color)
        mask_frames = mask.astype(np.uint8) * 255
        if stack.color:
            sparse = imaging.tensor_to_stack(np.abs(E), color=True)
            pictures = [recovered, sparse, imaging.ImageStack(mask_frames, color=True)]
        else:
            pictures = [imaging.ImageStack(recovered.frames[:, :, k : k + 1])
                        for k in range(stack.n_frames)] + [imaging.ImageStack(mask_frames[:, :, :1])]
        for image, picture in zip(images, pictures):
            imaging.write_netpbm(image, picture)
        base = "" if report.psnr_baseline is None else format(report.psnr_baseline, ".17g")
        rows = csv.writer(f, lineterminator="\n")
        if os.fstat(f.fileno()).st_size == 0:
            rows.writerow(["file", "fraction", "seed", "psnr_trpca", "psnr_baseline", "iterations"])
        rows.writerow([Path(args.input).name, str(args.fraction), args.seed,
                       format(report.psnr_trpca, ".17g"), base, report.solver_iterations])
    print(f"psnr_trpca: {report.psnr_trpca:.4f} dB")
    if report.psnr_baseline is not None:
        print(f"psnr_baseline: {report.psnr_baseline:.4f} dB")
    print(f"wrote outputs under {out_dir}")
    return EXIT_OK


def _closed(kind, lo, hi=math.inf):
    """The ``type=`` of a numeric flag: ``kind`` of the flag's text, which must lie in [lo, hi]."""

    def parse(text):
        value = kind(text)
        if not lo <= value <= hi:  # NaN fails too
            allowed = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {allowed}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'abc'"
    return parse


def _parse_grid(text: str) -> tuple[int, int]:
    """The ``type=`` of ``--grid``: ``NRxNRHO`` as a pair of ints, each at least 1."""
    try:
        nr, nrho = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected like 10x10, got {text!r}") from None
    if min(nr, nrho) < 1:
        raise argparse.ArgumentTypeError(f"both axes must be >= 1, got {text!r}")
    return nr, nrho


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors raise ``ValueError``, so that ``main`` prints a bad
    command line as one ``error:`` line and exits 2, as it does any other bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trpca",
        description="Low-tubal-rank plus sparse tensor decomposition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tsvd", help="inspect ranks, norms and incoherence of a tensor file")
    p.add_argument("input")
    p.add_argument("--tol", type=_closed(float, 0), default=t_algebra.DEFAULT_RANK_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tsvd)

    p = sub.add_parser("solve", help="decompose a tensor file into L + E")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out-L", dest="out_L", default="L.tns3")
    p.add_argument("--out-E", dest="out_E", default="E.tns3")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table1", help="seeded exact-recovery trials, CSV output")
    p.add_argument("--n", type=_closed(int, 1), default=100)
    p.add_argument("--n3", type=_closed(int, 1), default=100)
    p.add_argument("--r-frac", dest="r_frac", type=_closed(float, 0, 1), default=0.1)
    p.add_argument("--m-frac", dest="m_frac", type=_closed(float, 0, 1), default=0.1)
    p.add_argument("--seeds", type=_closed(int, 1), default=1)
    p.add_argument("--seed", type=_closed(int, 0), default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="table1.csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("phase", help="rank vs sparsity phase-transition grid")
    p.add_argument("--n", type=_closed(int, 1), default=40)
    p.add_argument("--n3", type=_closed(int, 1), default=20)
    p.add_argument("--grid", type=_parse_grid, default="10x10")
    p.add_argument("--lo", type=_closed(float, 0, 1), default=0.02)
    p.add_argument("--hi", type=_closed(float, 0, 1), default=0.4)
    p.add_argument("--trials", type=_closed(int, 1), default=3)
    p.add_argument("--seed", type=_closed(int, 0), default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="phase.csv")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("denoise", help="corrupt and recover an image or PGM stack")
    p.add_argument("input", help="PPM/PGM file or a directory of PGM frames")
    p.add_argument("--fraction", type=_closed(float, 0, 1), default=0.1)
    p.add_argument("--seed", type=_closed(int, 0), default=0)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", dest="out_dir", default="denoised")
    p.set_defaults(func=cmd_denoise)

    return parser


def main(argv=None) -> int:
    # Every result that is not finite raises and exits 4 with one line, so numpy's
    # floating-point warnings ("overflow encountered in fft") would only repeat it.  Unlike
    # np.errstate, which is thread-local, the warning filters hold on the pool's threads too.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"(overflow|underflow|invalid value|divide by zero) encountered",
            RuntimeWarning,
        )
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except np.linalg.LinAlgError as exc:
            # a subclass of ValueError, so it must be caught first
            print(f"error: numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
