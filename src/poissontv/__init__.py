"""TV-regularized Poisson image restoration toolkit.

Core pieces: a periodic-convolution blur operator, Kullback-Leibler data
fidelity with quadratic models, Huber-smoothed total variation with
reweighted quadratic models, nonnegativity/flux constraint projections,
a scaled gradient projection inner solver, and the outer quadratic-model
line-search solver (``acquire``) together with a test-problem generator
and benchmark CLI.
"""

from .blur import Psf, BlurOperator, gaussian_psf, motion_psf, disk_psf
from .kl import PoissonData, kl_value, kl_gradient, KlQuadraticModel
from .tv import tv_mu_value, tv_mu_gradient, TvQuadraticModel
from .constraints import FeasibleSet, DiagonalMetric
from .sgp import SteplengthState, sgp_solve
from .solver import AcquireConfig, SolverTrace, acquire_solve, sgp_restore

__all__ = [
    "Psf",
    "BlurOperator",
    "gaussian_psf",
    "motion_psf",
    "disk_psf",
    "PoissonData",
    "kl_value",
    "kl_gradient",
    "KlQuadraticModel",
    "tv_mu_value",
    "tv_mu_gradient",
    "TvQuadraticModel",
    "FeasibleSet",
    "DiagonalMetric",
    "SteplengthState",
    "sgp_solve",
    "AcquireConfig",
    "SolverTrace",
    "acquire_solve",
    "sgp_restore",
]
