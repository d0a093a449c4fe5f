"""ADMM solver for the low-rank plus sparse tensor decomposition

    min  ||L||_tnn + lambda * ||E||_1   s.t.  L + E = X,

plus the default lambda rule and incoherence diagnostics of the recovered
low-rank factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import t_algebra
from .prox import _shrink, tsvt
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

    ``lam`` defaults to :func:`default_lambda` of the input when None.  ``mu0`` defaults, when
    None, to the start of Lin, Chen & Ma's inexact ALM (arXiv 1009.5055), 1.25 over the tensor
    spectral norm of the input, capped at mu_max; ``mu0 = 1e-3`` is the start of Lu et al.'s
    Algorithm 1 (arXiv 1708.04181), which assumes data of unit size.  A set ``mu0`` must not
    exceed mu_max.  The remaining defaults are Algorithm 1's: penalty mu grows by rho each
    iteration up to mu_max, and the loop stops once all three infinity-norm residuals drop
    below eps.
    """

    lam: float | None = None
    rho: float = 1.1
    mu0: float | None = None
    mu_max: float = 1e10
    eps: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        for name in _FIELD_RANGES:
            _check_field(name, getattr(self, name))
        if self.mu0 is not None and not self.mu0 <= self.mu_max:
            raise ValueError(f"need mu0 <= mu_max, got mu0={self.mu0}, mu_max={self.mu_max}")


# each field's own range as (test, rule): chained comparisons, so that NaN fails every test
# and inf every upper bound
_FIELD_RANGES = {
    "lam": (lambda v: v is None or 0 < v < np.inf, "lambda must be positive and finite"),
    "rho": (lambda v: 1 <= v < np.inf, "rho must be finite and >= 1"),
    "mu0": (lambda v: v is None or 0 < v < np.inf, "mu0 must be positive and finite"),
    "mu_max": (lambda v: 0 < v < np.inf, "mu_max must be positive and finite"),
    "eps": (lambda v: 0 < v < np.inf, "eps must be positive and finite"),
    "max_iter": (lambda v: v >= 1, "max_iter must be >= 1"),
}


def _check_field(name: str, value) -> None:
    test, rule = _FIELD_RANGES[name]
    if not test(value):
        raise ValueError(f"{rule}, got {value}")


@dataclass
class TrpcaResult:
    """Solver output: components, convergence flag and diagnostics.

    ``residual_history[k]`` holds the triple (||L_{k+1}-L_k||_inf,
    ||E_{k+1}-E_k||_inf, ||L_{k+1}+E_{k+1}-X||_inf).  ``lam`` and ``mu0`` are the weight and
    the first penalty that the solve used.
    """

    L: np.ndarray
    E: np.ndarray
    iterations: int
    converged: bool
    residual_history: list
    lam: float
    mu0: float


def solve(X: np.ndarray, config: SolverConfig | None = None, callback=None) -> TrpcaResult:
    """Decompose X into low-tubal-rank L plus sparse E by ADMM.

    Iterates, with mu_k growing geometrically:
      1. L <- tsvt(X - E - Y/mu, 1/mu)
      2. E <- soft_threshold(X - L - Y/mu, lam/mu)
      3. Y <- Y + mu * (L + E - X)
      4. mu <- min(rho * mu, mu_max)
    from L = E = Y = 0 and mu_1 = config.mu0, stopping when the max-norm changes of L and E
    and the feasibility gap are all <= eps.  Without a set mu0, mu_1 is Lin, Chen & Ma's
    1.25 / ||X||_2 (arXiv 1009.5055), with ||X||_2 the tensor spectral norm, capped at mu_max;
    at X = 0 it is mu_max, and any start converges at iteration 1.  It costs one
    singular-value sweep, at 100^3 about two iterations' factorizations (60-99 ms against
    40-55 ms), and took a 100^3 Table-1 row to 33 iterations, against 50 from the paper's
    1e-3.  Hitting max_iter returns a result flagged converged=False rather than raising.  A
    residual that is not finite (the iterates overflowed) raises ``np.linalg.LinAlgError``
    naming the iteration, as does a spectrum or singular values that are not finite
    (``t_algebra._svd``, also in the spectral norm), so no NaN reads as converged.

    Steps 2 and 3, the three residuals and the next step 1's argument run as one pass over
    cache-sized blocks of rows of the tensor (``_update``), in one row slab per core from the
    parallel layer's ``t_algebra.SLAB_FLOOR`` on.  Step 2 updates E in place and the next step
    1's argument is written over the retired L.  The loop hands that argument to ``tsvt`` and
    keeps no reference, so it is freed once its half spectrum exists: while ``tsvt`` factors,
    the solve holds X, L, E and Y beside the half spectrum and the factors.  Step 2's argument
    and Y/mu exist only a block at a time.  Every expression keeps the association written
    above, so the result has the same bits at any slab or block count.

    ``callback(k, L, E)``, when given, is invoked after every iteration with copies of L and E,
    so no later iteration writes to the arrays it receives.
    """
    X = as_tensor(X)
    if config is None:
        config = SolverConfig()
    lam = config.lam if config.lam is not None else default_lambda(X.shape)
    mu0 = config.mu0
    if mu0 is None:
        norm = t_algebra.spectral_norm(X)
        mu0 = min(1.25 / norm, config.mu_max) if norm > 0 else config.mu_max

    L = np.zeros(X.shape)
    E = np.zeros(X.shape)
    Y = np.zeros(X.shape)
    # the argument of step 1, X - E - Y/mu: with E = Y = 0 that is X, bit for bit; the loop
    # pops it, so that tsvt holds the only reference and frees it before its factorization
    P = [X.copy()]
    slabs = t_algebra._slabs(X.shape)
    mu = mu0
    history = []
    converged = False
    k = 0
    for k in range(1, config.max_iter + 1):
        L_new = tsvt(P.pop(), 1.0 / mu)
        P.append(L)  # the retired L takes the next P
        mu_next = min(config.rho * mu, config.mu_max)
        parts = t_algebra._blockwise(
            lambda b: _update(b, X, L, E, Y, L_new, P[0], mu, lam / mu, mu_next), slabs
        )
        res = tuple(max(values) for values in zip(*parts))
        if not np.isfinite(parts).all():  # max would skip a NaN block maximum after the first
            raise np.linalg.LinAlgError(f"ADMM residuals are not finite at iteration {k}")
        history.append(res)
        L = L_new
        if callback is not None:
            callback(k, L.copy(), E.copy())
        mu = mu_next
        if max(res) <= config.eps:
            converged = True
            break
    return TrpcaResult(
        L=L,
        E=E,
        iterations=k,
        converged=converged,
        residual_history=history,
        lam=lam,
        mu0=mu0,
    )


def _update(b, X, L, E, Y, L_new, P, mu, tau, mu_next) -> tuple:
    """Steps 2 and 3 of ``solve`` on the block of rows ``b``, with tau = lam/mu: updates E and Y
    in place, then writes the next iteration's step-1 argument into P, the retired L: the
    block's dE reads E before its new E is written, and its dL reads L before its P is.
    Returns the block's three residual maxima."""
    x, l_new, e, y = X[b], L_new[b], E[b], Y[b]
    B = np.subtract(x, l_new)
    t = np.divide(y, mu)
    B -= t  # X - L - Y/mu
    _shrink(B, tau, t)  # the new E's block, written over E's once dE has read it
    de = float(np.abs(np.subtract(t, e, out=B), out=B).max())
    e[...] = t
    gap = np.add(l_new, e, out=B)
    gap -= x
    dl = float(np.abs(np.subtract(l_new, L[b], out=t), out=t).max())
    y += np.multiply(mu, gap, out=t)
    dg = float(np.abs(gap, out=gap).max())
    p = np.subtract(x, e, out=P[b])
    p -= np.divide(y, mu_next, out=t)
    return dl, de, dg


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


def incoherence_report(L: np.ndarray) -> IncoherenceReport:
    """Evaluate the three incoherence bounds at the tubal rank (``t_algebra.tubal_rank``)."""
    L = as_tensor(L)
    *_, U, Vh = t_algebra._sweep(L, factors=True)
    return _incoherence(U, Vh, L.shape[2])


def _incoherence(U: np.ndarray, Vh: np.ndarray, n3: int) -> IncoherenceReport:
    """Incoherence bounds from the rank-r spectral factors of ``t_algebra._sweep``."""
    n1, r, n2 = U.shape[1], U.shape[2], Vh.shape[2]
    if r < 1:
        raise ValueError("incoherence is undefined at tubal rank 0")
    # ||U^T * e_i||_F = ||U[i, :, :]||_F: the t-product with a column basis tensor picks out
    # horizontal slice i (Parseval along each tube); each real factor is reduced at once
    max_u_sq = float((t_algebra._from_half_spectrum(U, n3) ** 2).sum(axis=(1, 2)).max())
    max_v_sq = float(
        (t_algebra._from_half_spectrum(Vh.conj().swapaxes(1, 2), n3) ** 2).sum(axis=(1, 2)).max()
    )
    # U * V^T is the slicewise product U_k V_k^H of the spectral factors
    with t_algebra._one_blas_thread():
        uv_inf = norm_inf(t_algebra._from_half_spectrum(U @ Vh, n3))
    return IncoherenceReport(
        mu_u=n1 * n3 / r * max_u_sq,
        mu_v=n2 * n3 / r * max_v_sq,
        mu_joint=n1 * n2 * n3**2 / r * uv_inf**2,
        r=r,
    )


_CONFIG_FIELDS = {
    "lambda": ("lam", float),
    "rho": ("rho", float),
    "mu0": ("mu0", float),
    "mu_max": ("mu_max", float),
    "eps": ("eps", float),
    "max_iter": ("max_iter", int),
}


def load_config(path) -> SolverConfig:
    """Read solver parameters from a flat key=value UTF-8 text file.

    Blank lines and '#' comments are ignored; unknown keys are an error.
    Keys the file does not mention keep their :class:`SolverConfig` defaults.
    A line that does not decode or parse, or whose value is out of its own range, raises
    ``ValueError`` starting with ``path:lineno:``.  The one check that spans two keys,
    ``mu0 <= mu_max`` when mu0 is set, runs once the whole file is read, so the order of the
    keys does not matter; its error names the later of the two lines, or the only one the file
    sets.
    """
    values, linenos = {}, {}
    with open(path, "rb") as f:
        lines = f.read().splitlines()  # at \n, \r\n or \r, as text mode splits
    for lineno, raw in enumerate(lines, 1):
        try:
            text = raw.decode()
            line = text.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"expected key=value, got {text!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            name, cast = _CONFIG_FIELDS[key]
            values[name] = cast(value)
            _check_field(name, values[name])
            linenos[name] = lineno
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return SolverConfig(**values)
    except ValueError as exc:  # mu0 > mu_max, with at least one of them from the file
        lineno = max(linenos.get("mu0", 0), linenos.get("mu_max", 0))
        raise ValueError(f"{path}:{lineno}: {exc}") from exc
