"""Tensor robust principal component analysis via the t-SVD algebra.

Decomposes a 3-way tensor into a low-tubal-rank component plus a sparse
component by minimizing the tensor nuclear norm plus a weighted l1 norm
with an ADMM solver, and ships the synthetic-recovery and image-denoising
experiment harnesses built on top of it.
"""

from .prox import soft_threshold, tsvt
from .solver import (
    IncoherenceReport,
    SolverConfig,
    TrpcaResult,
    default_lambda,
    incoherence_report,
    load_config,
    solve,
)
from .t_algebra import (
    TSvd,
    bcirc,
    dft3,
    fold,
    multi_rank,
    spectral_norm,
    tnn,
    tprod,
    tprod_oracle,
    tsvd,
    ttranspose,
    tubal_rank,
    unfold,
)
from .tensor_core import (
    TensorDims,
    as_tensor,
    load_tensor,
    norm_fro,
    norm_inf,
    norm_l1,
    save_tensor,
)

__version__ = "0.1.0"
