"""The four workloads: inputs made from the seed, one operation, its check.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  ``op(i)`` runs operation ``i`` through the
public trpca API and returns a small result; ``check(i, result)`` decides
afterwards, outside the timed window, whether it is correct and whether it
counts as recovered.  The library only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import struct
from pathlib import Path

import numpy as np

from trpca import cli, imaging, synth
from trpca.solver import SolverConfig
from trpca.tensor_core import TensorDims


class Recovery100:
    """One Table-1 row: 100^3, tubal rank 10, 0.1 n^3 uniform +-1 corruptions."""

    batch = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def op(self, i: int):
        spec = synth.TrialSpec(
            dims=TensorDims(100, 100, 100),
            r=10,
            sparsity_model="uniform_m",
            sparsity_param=100_000,
            seed=self.seed * 1000 + i,
        )
        return synth.run_trial(spec)

    def check(self, i: int, out):
        ok = out.rank_hat == 10 and out.rel_err_L <= 1e-5 and out.rel_err_E <= 1e-8
        return ok, bool(out.success)


# Diagonal of the 10x10 grid over [0.02, 0.4] that ``trpca phase`` uses.
PHASE_FRACS = [round(v, 10) for v in np.linspace(0.02, 0.4, 10)]
PHASE_MAX_ITER = SolverConfig().max_iter  # run_trial solves with the defaults


class PhaseSweep:
    """The diagonal (r/n, rho_s) cells of the 40x40x20 Bernoulli phase grid.

    One operation is one cell; a sweep is ``batch`` operations and runs
    are whole sweeps, so every run sees the same mix of easy and hard cells.
    """

    batch = len(PHASE_FRACS)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def op(self, i: int):
        sweep, cell = divmod(i, self.batch)
        frac = PHASE_FRACS[cell]
        spec = synth.TrialSpec(
            dims=TensorDims(40, 40, 20),
            r=max(1, round(frac * 40)),
            sparsity_model="bernoulli",
            sparsity_param=frac,
            seed=np.random.SeedSequence(entropy=[self.seed, sweep], spawn_key=(cell,)),
        )
        return synth.run_trial(spec)

    def check(self, i: int, out):
        frac = PHASE_FRACS[i % self.batch]
        ok = (math.isfinite(out.rel_err_L) and math.isfinite(out.rel_err_E)
              and out.iterations < PHASE_MAX_ITER)
        if frac <= 0.11:
            ok = ok and out.success
        return ok, bool(out.success)


def smooth_color_image(seed: int, h: int = 64, w: int = 64) -> np.ndarray:
    """Smooth correlated random colour field in [0.05, 0.95], a stand-in
    natural image (the generator of the colour-denoising acceptance test)."""
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


class DenoiseRgb64:
    """Tensor denoising of a 64x64 colour image against the channelwise
    baseline, 10% of the pixels replaced per channel."""

    batch = 1
    images = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.stacks = [
            imaging.tensor_to_stack(smooth_color_image(seed * 100 + k), color=True)
            for k in range(self.images)
        ]

    def op(self, i: int):
        report, _, _, _ = imaging.denoise(
            self.stacks[i % self.images], 0.1, seed=self.seed * 1000 + i, baseline=True
        )
        return report

    def check(self, i: int, report):
        ok = (math.isfinite(report.psnr_trpca) and report.psnr_baseline is not None
              and report.psnr_trpca > report.psnr_baseline)
        return ok, ok

    def summary(self, reports) -> str:
        done = [r for r in reports if r is not None]
        if not done:
            return "  no denoising result"
        tensor = statistics.median(r.psnr_trpca for r in done)
        base = statistics.median(r.psnr_baseline for r in done)
        return (f"  psnr_db {tensor:.4f} dB, psnr_baseline_db {base:.4f} dB "
                f"(medians of {len(done)} ops)")


def low_rank_tensor(seed: int, n: int, n3: int, r: int) -> np.ndarray:
    """t-product of Gaussian n x r x n3 and r x n x n3 factors, in numpy only."""
    rng = np.random.default_rng(seed)
    P = np.fft.fft(rng.normal(0.0, n**-0.5, size=(n, r, n3)), axis=2)
    Q = np.fft.fft(rng.normal(0.0, n**-0.5, size=(r, n, n3)), axis=2)
    return np.ascontiguousarray(np.fft.ifft(np.einsum("ipk,pjk->ijk", P, Q), axis=2).real)


def write_tns3(path: Path, X: np.ndarray) -> None:
    """The .tns3 format: b'TNS3', extents as <u8, entries <f8 slice-major."""
    with open(path, "wb") as f:
        f.write(b"TNS3" + struct.pack("<QQQ", *X.shape))
        f.write(np.ascontiguousarray(np.moveaxis(X, 2, 0)).astype("<f8").tobytes())


class Inspect100:
    """``trpca tsvd FILE --json`` in-process on a 100^3 tubal-rank-10 tensor."""

    batch = 1
    rank = 10

    def __init__(self, seed: int, workdir: Path):
        self.X = low_rank_tensor(seed, 100, 100, self.rank)
        self.path = workdir / f"inspect_{seed}_{os.getpid()}.tns3"
        write_tns3(self.path, self.X)
        self._reference = None

    def op(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["tsvd", str(self.path), "--json"])
        return code, json.loads(out.getvalue()) if code == 0 else None

    def reference(self):
        """(tnn, spectral norm) from numpy's SVD of every spectral slice."""
        if self._reference is None:
            Xbar = np.moveaxis(np.fft.fft(self.X, axis=2), 2, 0)
            sv = np.linalg.svd(Xbar, compute_uv=False)
            self._reference = (sv.sum() / self.X.shape[2], sv.max())
        return self._reference

    def check(self, i: int, result):
        code, report = result
        if code != 0:
            return False, False
        tnn, spec = self.reference()
        ranks_ok = all(r == self.rank for r in report["multi_rank"])
        ok = (ranks_ok and abs(report["tnn"] - tnn) <= 1e-9 * tnn
              and abs(report["spectral_norm"] - spec) <= 1e-9 * spec)
        return ok, ranks_ok

    def close(self):
        self.path.unlink(missing_ok=True)


WORKLOADS = {
    "recovery_100": Recovery100,
    "phase_sweep": PhaseSweep,
    "denoise_rgb64": DenoiseRgb64,
    "inspect_100": Inspect100,
}
