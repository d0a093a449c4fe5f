"""Command-line front end.

Subcommands: ``tsvd`` (inspect a tensor file), ``solve`` (decompose a
tensor), ``table1`` (seeded exact-recovery trials), ``phase`` (rank vs
sparsity phase grid), ``denoise`` (image recovery).  Exit codes: 0 on
success, 2 on bad input, 3 when the solver hits the iteration cap, 4 on a
numerical failure (a spectral factorization that LAPACK cannot compute).
Every randomized command prints its seed, and identical seeds reproduce file
outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import imaging, synth, t_algebra, tensor_core
from .solver import SolverConfig, _incoherence, load_config, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _load_tensor(path) -> np.ndarray:
    try:
        return tensor_core.load_tensor(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read tensor {path}: {exc}") from exc


def _build_config(args) -> SolverConfig:
    config = SolverConfig()
    if args.config:
        try:
            config = load_config(args.config)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
    if getattr(args, "lam", None) is not None:
        config = dataclasses.replace(config, lam=args.lam)
    return config


def cmd_tsvd(args) -> int:
    A = _load_tensor(args.input)
    mr, tnn, spectral_norm, U, Vh = t_algebra._sweep(A, args.tol, factors=True)
    rank = int(mr.max())
    report = {
        "dims": list(A.shape),
        "multi_rank": [int(r) for r in mr],
        "tubal_rank": rank,
        "tnn": tnn,
        "spectral_norm": spectral_norm,
        "incoherence": dataclasses.asdict(_incoherence(U, Vh, A.shape[2])) if rank else None,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("dims: {} x {} x {}".format(*A.shape))
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
    X = _load_tensor(args.input)
    result = solve(X, _build_config(args))
    tensor_core.save_tensor(args.out_L, result.L)
    tensor_core.save_tensor(args.out_E, result.E)
    res_l, res_e, res_gap = result.residual_history[-1]
    print(f"lambda: {result.lam:.12g}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    print(f"residuals: dL={res_l:.3e} dE={res_e:.3e} gap={res_gap:.3e}")
    print(f"tubal rank of L: {t_algebra.tubal_rank(result.L)}")
    print(f"wrote {args.out_L} and {args.out_E}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# the closed range of each numeric flag, by its dest; ``main`` checks every flag a command
# has before the command runs, so a bad value exits 2 before anything is printed
_FLAG_RANGES = {
    **dict.fromkeys(["n", "n3", "seeds", "trials"], (1, math.inf)),
    "seed": (0, math.inf),
    **dict.fromkeys(["r_frac", "m_frac", "lo", "hi", "fraction"], (0, 1)),
}


def _check_flags(args) -> None:
    for dest, (lo, hi) in _FLAG_RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not lo <= value <= hi:  # NaN fails too
            allowed = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise InputError(f"--{dest.replace('_', '-')} must be {allowed}, got {value}")


def cmd_table1(args) -> int:
    n, n3 = args.n, args.n3
    r = max(1, round(args.r_frac * n))
    m = round(args.m_frac * n * n * n3)
    config = _build_config(args)
    print(f"seed: {args.seed}  n={n} n3={n3} r={r} m={m} seeds={args.seeds}")
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
    # the seeds are independent solves, run side by side; rows follow in seed order
    rows = list(zip(specs, t_algebra._map(lambda spec: synth.run_trial(spec, config), specs)))
    for spec, out in rows:
        print(
            f"seed {spec.seed}: rank_hat={out.rank_hat} nnz_hat={out.nnz_hat} "
            f"rel_err_L={out.rel_err_L:.3e} rel_err_E={out.rel_err_E:.3e} "
            f"iters={out.iterations} time={out.wall_time:.1f}s"
        )
    synth.write_trials_csv(
        args.out,
        rows,
        header_comment=f"exact-recovery trials seed={args.seed} n={n} n3={n3} r={r} m={m}",
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_grid(text: str):
    try:
        nr, nrho = map(int, text.lower().split("x"))
    except ValueError as exc:
        raise InputError(f"bad --grid {text!r}, expected like 10x10") from exc
    if min(nr, nrho) < 1:
        raise InputError(f"bad --grid {text!r}, both axes must be >= 1")
    return nr, nrho


def cmd_phase(args) -> int:
    nr, nrho = _parse_grid(args.grid)
    config = _build_config(args)
    r_fracs = [round(v, 10) for v in np.linspace(args.lo, args.hi, nr)]
    rho_list = [round(v, 10) for v in np.linspace(args.lo, args.hi, nrho)]
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
        args.out,
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
            raise InputError(f"{path}: no PGM frames found")
        for p in files:
            stack = imaging.read_netpbm(p)
            if stack.color:
                raise InputError(f"{p}: expected grayscale PGM frames")
            frames.append(stack.frames[:, :, 0])
        try:
            return imaging.ImageStack(frames=np.stack(frames, axis=2), color=False)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc
    try:
        return imaging.read_netpbm(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read image {path}: {exc}") from exc


def cmd_denoise(args) -> int:
    stack = _load_image_input(Path(args.input))
    config = _build_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"seed: {args.seed}  fraction={args.fraction}")
    report, L, E, mask = imaging.denoise(
        stack, args.fraction, args.seed, config, baseline=args.baseline
    )
    recovered = imaging.tensor_to_stack(L, color=stack.color)
    sparse = imaging.tensor_to_stack(np.abs(E), color=stack.color)
    mask_stack = imaging.ImageStack(
        frames=(mask.astype(np.uint8) * 255), color=stack.color
    )
    name = Path(args.input).stem or "stack"
    if stack.color:
        imaging.write_netpbm(out_dir / f"{name}_L.ppm", recovered)
        imaging.write_netpbm(out_dir / f"{name}_E.ppm", sparse)
        imaging.write_netpbm(out_dir / f"{name}_mask.ppm", mask_stack)
    else:
        for k in range(stack.n_frames):
            imaging.write_netpbm(
                out_dir / f"{name}_L_{k:03d}.pgm",
                imaging.ImageStack(frames=recovered.frames[:, :, k : k + 1]),
            )
        imaging.write_netpbm(
            out_dir / f"{name}_mask_000.pgm",
            imaging.ImageStack(frames=mask_stack.frames[:, :, 0:1]),
        )
    csv_path = out_dir / "denoise_report.csv"
    new_file = not csv_path.exists()
    with open(csv_path, "a", newline="") as f:
        if new_file:
            f.write("file,fraction,seed,psnr_trpca,psnr_baseline,iterations\n")
        base = "" if report.psnr_baseline is None else format(report.psnr_baseline, ".17g")
        f.write(
            f"{Path(args.input).name},{args.fraction},{args.seed},"
            f"{format(report.psnr_trpca, '.17g')},{base},{report.solver_iterations}\n"
        )
    print(f"psnr_trpca: {report.psnr_trpca:.4f} dB")
    if report.psnr_baseline is not None:
        print(f"psnr_baseline: {report.psnr_baseline:.4f} dB")
    print(f"wrote outputs under {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trpca",
        description="Low-tubal-rank plus sparse tensor decomposition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tsvd", help="inspect ranks, norms and incoherence of a tensor file")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=t_algebra.DEFAULT_RANK_TOL)
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
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--n3", type=int, default=100)
    p.add_argument("--r-frac", dest="r_frac", type=float, default=0.1)
    p.add_argument("--m-frac", dest="m_frac", type=float, default=0.1)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="table1.csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("phase", help="rank vs sparsity phase-transition grid")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--n3", type=int, default=20)
    p.add_argument("--grid", default="10x10")
    p.add_argument("--lo", type=float, default=0.02)
    p.add_argument("--hi", type=float, default=0.4)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="phase.csv")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("denoise", help="corrupt and recover an image or PGM stack")
    p.add_argument("input", help="PPM/PGM file or a directory of PGM frames")
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", dest="out_dir", default="denoised")
    p.set_defaults(func=cmd_denoise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        # a subclass of ValueError, so it must be caught first
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
