"""Synthetic data generators and the two recovery experiments: seeded exact
recovery trials and the rank/sparsity phase-transition grid.

All randomness comes from ``numpy.random.default_rng`` (PCG64), so a given
seed reproduces the same tensors on any platform.  Phase-grid cells derive
their per-trial seeds from (base_seed, cell row, cell column, trial index)
through ``numpy``'s SeedSequence spawning, keeping trials independent and
order-insensitive, so the grid runs them side by side through
``t_algebra._map``.
"""

from __future__ import annotations

import copy
import csv
import time
from dataclasses import dataclass

import numpy as np

from .solver import SolverConfig, TrpcaResult, solve
from .t_algebra import _map, tprod, tubal_rank
from .tensor_core import TensorDims, norm_fro

__all__ = [
    "TrialSpec",
    "TrialOutcome",
    "PhaseGrid",
    "gen_low_rank",
    "gen_sparse_uniform",
    "gen_sparse_bernoulli",
    "run_trial",
    "phase_grid",
    "write_trials_csv",
    "write_phase_csv",
]

# Threshold (relative to the max entry) below which a recovered sparse entry
# counts as zero when reporting support size.
NNZ_REL_TOL = 1e-8

# A trial succeeds when the relative error of the recovered L is at most this.
SUCCESS_TOL = 1e-3

TRIAL_CSV_COLUMNS = [
    "n1",
    "n2",
    "n3",
    "r",
    "sparsity_model",
    "sparsity_param",
    "seed",
    "rank_hat",
    "nnz_hat",
    "rel_err_L",
    "rel_err_E",
    "success",
    "iterations",
]


@dataclass(frozen=True)
class TrialSpec:
    """One synthetic recovery instance.

    ``sparsity_model`` is ``"uniform_m"`` (exactly m corrupted entries at a
    uniformly random support) or ``"bernoulli"`` (each entry corrupted
    independently with probability rho_s); ``sparsity_param`` is m or rho_s
    accordingly.
    """

    dims: TensorDims
    r: int
    sparsity_model: str
    sparsity_param: float
    seed: int

    def __post_init__(self):
        d = TensorDims(*self.dims).validate()
        object.__setattr__(self, "dims", d)
        if not 0 <= self.r <= d.n_min:
            raise ValueError(f"rank {self.r} out of range [0, {d.n_min}]")
        if self.sparsity_model == "uniform_m":
            if not 0 <= self.sparsity_param <= d.total:
                raise ValueError("m out of range")
        elif self.sparsity_model == "bernoulli":
            if not 0.0 <= self.sparsity_param <= 1.0:
                raise ValueError("rho_s out of range")
        else:
            raise ValueError(f"unknown sparsity model {self.sparsity_model!r}")


@dataclass
class TrialOutcome:
    """Recovery metrics of one solved trial."""

    rank_hat: int
    nnz_hat: int
    rel_err_L: float
    rel_err_E: float
    success: bool
    iterations: int
    wall_time: float


@dataclass
class PhaseGrid:
    """Aggregated success fractions over a (rank fraction, sparsity) grid.

    ``success_fraction[i, j]`` is the fraction of successful trials at
    rho_values[i] and r_fractions[j].
    """

    r_fractions: list
    rho_values: list
    success_fraction: np.ndarray


def gen_low_rank(dims, r: int, seed) -> np.ndarray:
    """Tensor of tubal rank r as a t-product of two Gaussian factors.

    Factor entries are i.i.d. N(0, 1/n1), keeping the product's entries at
    unit scale for any rank.
    """
    d = TensorDims(*dims).validate()
    if not 1 <= r <= d.n_min:
        raise ValueError(f"rank {r} out of range [1, {d.n_min}]")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d.n1)
    P = rng.normal(0.0, scale, size=(d.n1, r, d.n3))
    Q = rng.normal(0.0, scale, size=(r, d.n2, d.n3))
    return tprod(P, Q)


def gen_sparse_uniform(dims, m: int, seed) -> np.ndarray:
    """Tensor with exactly m nonzeros, +-1 equiprobable, uniform support."""
    d = TensorDims(*dims).validate()
    m = int(m)
    if not 0 <= m <= d.total:
        raise ValueError(f"m={m} out of range [0, {d.total}]")
    rng = np.random.default_rng(seed)
    flat = np.zeros(d.total)
    support = rng.choice(d.total, size=m, replace=False)
    flat[support] = rng.choice([-1.0, 1.0], size=m)
    return flat.reshape(d)


def gen_sparse_bernoulli(dims, rho_s: float, seed) -> np.ndarray:
    """Tensor whose entries are +1 or -1 each w.p. rho_s/2, else 0."""
    d = TensorDims(*dims).validate()
    if not 0.0 <= rho_s <= 1.0:
        raise ValueError(f"rho_s={rho_s} out of range [0, 1]")
    rng = np.random.default_rng(seed)
    u = rng.random(size=tuple(d))
    E = np.zeros(tuple(d))
    E[u < rho_s / 2] = 1.0
    E[(u >= rho_s / 2) & (u < rho_s)] = -1.0
    return E


def make_instance(spec: TrialSpec):
    """Generate (L0, E0) for a trial; X is their sum by construction.

    The spec's SeedSequence is not advanced, so every call on a spec makes the
    same instance.
    """
    ss = (
        spec.seed
        if isinstance(spec.seed, np.random.SeedSequence)
        else np.random.SeedSequence(entropy=spec.seed)
    )
    seed_l, seed_e = copy.copy(ss).spawn(2)
    if spec.r == 0:
        L0 = np.zeros(tuple(spec.dims))
    else:
        L0 = gen_low_rank(spec.dims, spec.r, seed_l)
    if spec.sparsity_model == "uniform_m":
        E0 = gen_sparse_uniform(spec.dims, int(spec.sparsity_param), seed_e)
    else:
        E0 = gen_sparse_bernoulli(spec.dims, spec.sparsity_param, seed_e)
    return L0, E0


def _rel_err(est: np.ndarray, ref: np.ndarray) -> float:
    denom = norm_fro(ref)
    if denom == 0.0:
        return norm_fro(est)
    return norm_fro(est - ref) / denom


def run_trial(spec: TrialSpec, config: SolverConfig | None = None) -> TrialOutcome:
    """Generate one instance, solve it and score the recovery."""
    L0, E0 = make_instance(spec)
    X = L0 + E0
    start = time.perf_counter()
    result: TrpcaResult = solve(X, config)
    wall = time.perf_counter() - start
    e_max = float(np.abs(result.E).max())
    nnz_hat = int(np.count_nonzero(np.abs(result.E) > NNZ_REL_TOL * e_max)) if e_max else 0
    rel_l = _rel_err(result.L, L0)
    return TrialOutcome(
        rank_hat=tubal_rank(result.L),
        nnz_hat=nnz_hat,
        rel_err_L=rel_l,
        rel_err_E=_rel_err(result.E, E0),
        success=rel_l <= SUCCESS_TOL,
        iterations=result.iterations,
        wall_time=wall,
    )


def phase_grid(
    dims,
    r_fracs,
    rho_list,
    trials: int,
    base_seed: int,
    config: SolverConfig | None = None,
) -> PhaseGrid:
    """Success fraction per (rank fraction, Bernoulli sparsity) cell.

    The target rank in each column is ``max(1, round(frac * min(n1, n2)))``.
    """
    d = TensorDims(*dims).validate()
    r_fracs = list(r_fracs)
    rho_list = list(rho_list)
    if not r_fracs or not rho_list or trials < 1:
        raise ValueError("grid axes must be non-empty and trials >= 1")
    specs = [
        TrialSpec(
            dims=d,
            r=max(1, round(frac * d.n_min)),
            sparsity_model="bernoulli",
            sparsity_param=rho_s,
            seed=np.random.SeedSequence(entropy=base_seed, spawn_key=(i, j, t)),
        )
        for i, rho_s in enumerate(rho_list)
        for j, frac in enumerate(r_fracs)
        for t in range(trials)
    ]
    # the trials are independent solves, run side by side
    successes = _map(lambda spec: run_trial(spec, config).success, specs)
    grid = np.reshape(successes, (len(rho_list), len(r_fracs), trials)).sum(axis=2) / trials
    return PhaseGrid(r_fractions=r_fracs, rho_values=rho_list, success_fraction=grid)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_trials_csv(path, rows, header_comment: str | None = None) -> None:
    """Write (TrialSpec, TrialOutcome) pairs as one CSV row per trial.

    Wall times are excluded so identical seeds give byte-identical files.
    """
    with open(path, "w", newline="") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        writer = csv.writer(f)
        writer.writerow(TRIAL_CSV_COLUMNS)
        for spec, out in rows:
            writer.writerow(
                [
                    _fmt(v)
                    for v in (
                        spec.dims.n1,
                        spec.dims.n2,
                        spec.dims.n3,
                        spec.r,
                        spec.sparsity_model,
                        spec.sparsity_param,
                        spec.seed,
                        out.rank_hat,
                        out.nnz_hat,
                        out.rel_err_L,
                        out.rel_err_E,
                        out.success,
                        out.iterations,
                    )
                ]
            )


def write_phase_csv(path, grid: PhaseGrid, header_comment: str | None = None) -> None:
    """Dense success-fraction matrix: rows are rho_s, columns are r/n."""
    with open(path, "w", newline="") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        writer = csv.writer(f)
        writer.writerow(["rho_s\\r_frac"] + [_fmt(v) for v in grid.r_fractions])
        for i, rho in enumerate(grid.rho_values):
            writer.writerow(
                [_fmt(rho)] + [_fmt(v) for v in grid.success_fraction[i]]
            )
