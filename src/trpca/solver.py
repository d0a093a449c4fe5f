"""ADMM solver for the low-rank plus sparse tensor decomposition

    min  ||L||_tnn + lambda * ||E||_1   s.t.  L + E = X,

plus the default lambda rule and incoherence diagnostics of the recovered
low-rank factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import t_algebra
from .prox import soft_threshold, tsvt
from .tensor_core import TensorDims, as_tensor, norm_inf

__all__ = [
    "SolverConfig",
    "TrpcaResult",
    "IncoherenceReport",
    "default_lambda",
    "solve",
    "incoherence_report",
    "load_config",
]


def default_lambda(dims) -> float:
    """Parameter-free regularization weight 1/sqrt(max(n1, n2) * n3)."""
    d = TensorDims(*dims).validate()
    return 1.0 / np.sqrt(d.n_max * d.n3)


@dataclass(frozen=True)
class SolverConfig:
    """ADMM parameters.

    ``lam`` defaults to :func:`default_lambda` of the input when None.
    The remaining defaults follow the standard setting for this scheme:
    penalty mu grows by rho each iteration up to mu_max, and the loop stops
    once all three infinity-norm residuals drop below eps.
    """

    lam: float | None = None
    rho: float = 1.1
    mu0: float = 1e-3
    mu_max: float = 1e10
    eps: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.rho < 1:
            raise ValueError("rho must be >= 1")
        if self.mu0 <= 0 or self.mu_max <= 0 or self.mu0 > self.mu_max:
            raise ValueError("need 0 < mu0 <= mu_max")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class TrpcaResult:
    """Solver output: components, convergence flag and diagnostics.

    ``residual_history[k]`` holds the triple (||L_{k+1}-L_k||_inf,
    ||E_{k+1}-E_k||_inf, ||L_{k+1}+E_{k+1}-X||_inf).
    """

    L: np.ndarray
    E: np.ndarray
    iterations: int
    converged: bool
    residual_history: list = field(default_factory=list)
    mu_final: float = 0.0
    lam: float = 0.0


def solve(X: np.ndarray, config: SolverConfig | None = None, callback=None) -> TrpcaResult:
    """Decompose X into low-tubal-rank L plus sparse E by ADMM.

    Iterates, with mu_k growing geometrically:
      1. L <- tsvt(X - E - Y/mu, 1/mu)
      2. E <- soft_threshold(X - L - Y/mu, lam/mu)
      3. Y <- Y + mu * (L + E - X)
      4. mu <- min(rho * mu, mu_max)
    from L = E = Y = 0, stopping when the max-norm changes of L and E and
    the feasibility gap are all <= eps.  Hitting max_iter returns a result
    flagged converged=False rather than raising.

    ``callback(k, L, E)``, when given, is invoked after every iteration.
    """
    X = as_tensor(X)
    if config is None:
        config = SolverConfig()
    lam = config.lam if config.lam is not None else default_lambda(X.shape)

    L = np.zeros_like(X)
    E = np.zeros_like(X)
    Y = np.zeros_like(X)
    mu = config.mu0
    history = []
    converged = False
    k = 0
    for k in range(1, config.max_iter + 1):
        L_new = tsvt(X - E - Y / mu, 1.0 / mu)
        E_new = soft_threshold(X - L_new - Y / mu, lam / mu)
        gap = L_new + E_new - X
        Y += mu * gap
        res = (norm_inf(L_new - L), norm_inf(E_new - E), norm_inf(gap))
        history.append(res)
        L, E = L_new, E_new
        if callback is not None:
            callback(k, L, E)
        mu = min(config.rho * mu, config.mu_max)
        if max(res) <= config.eps:
            converged = True
            break
    return TrpcaResult(
        L=L,
        E=E,
        iterations=k,
        converged=converged,
        residual_history=history,
        mu_final=mu,
        lam=lam,
    )


@dataclass(frozen=True)
class IncoherenceReport:
    """Tightest incoherence parameters of a low-tubal-rank tensor.

    Each field is the smallest mu making the corresponding bound an
    equality: ``mu_u`` for the column-space projections, ``mu_v`` for the
    row space and ``mu_joint`` for the entrywise bound on U * V^T.
    """

    mu_u: float
    mu_v: float
    mu_joint: float
    r: int


def incoherence_report(L: np.ndarray, tol: float = t_algebra.DEFAULT_RANK_TOL) -> IncoherenceReport:
    """Evaluate the three incoherence bounds at the detected tubal rank."""
    L = as_tensor(L)
    *_, U, Vh = t_algebra._sweep(L, tol, factors=True)
    return _incoherence(U, Vh, L.shape[2])


def _incoherence(U: np.ndarray, Vh: np.ndarray, n3: int) -> IncoherenceReport:
    """Incoherence bounds from the rank-r spectral factors of ``t_algebra._sweep``."""
    n1, r, n2 = U.shape[1], U.shape[2], Vh.shape[2]
    if r < 1:
        raise ValueError("incoherence is undefined at tubal rank 0")
    # ||U^T * e_i||_F = ||U[i, :, :]||_F: the t-product with a column basis
    # tensor picks out horizontal slice i (Parseval along each tube)
    Ut = t_algebra._from_half_spectrum(U, n3)
    Vt = t_algebra._from_half_spectrum(Vh.conj().swapaxes(1, 2), n3)
    max_u_sq = float((Ut**2).sum(axis=(1, 2)).max())
    max_v_sq = float((Vt**2).sum(axis=(1, 2)).max())
    # U * V^T is the slicewise product U_k V_k^H of the spectral factors
    uv_inf = norm_inf(t_algebra._from_half_spectrum(U @ Vh, n3))
    return IncoherenceReport(
        mu_u=n1 * n3 / r * max_u_sq,
        mu_v=n2 * n3 / r * max_v_sq,
        mu_joint=n1 * n2 * n3**2 / r * uv_inf**2,
        r=r,
    )


_CONFIG_FIELDS = {
    "lambda": ("lam", float),
    "lam": ("lam", float),
    "rho": ("rho", float),
    "mu0": ("mu0", float),
    "mu_max": ("mu_max", float),
    "eps": ("eps", float),
    "max_iter": ("max_iter", int),
}


def load_config(path) -> SolverConfig:
    """Read solver parameters from a flat key=value text file.

    Blank lines and '#' comments are ignored; unknown keys are an error.
    Keys the file does not mention keep their :class:`SolverConfig` defaults.
    """
    config = SolverConfig()
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            name, cast = _CONFIG_FIELDS[key]
            config = replace(config, **{name: cast(value)})
    return config
