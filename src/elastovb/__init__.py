"""Subspace variational inference for elastographic inverse problems.

Infers a per-element log-modulus field from noisy displacement data by
combining a plane-strain finite-element forward model with a mean-field
variational posterior confined to an adaptively grown low-dimensional
subspace, and validates the result by importance sampling.
"""

from .mesh_fem import BoundarySpec, Mesh2D, adjoint_jacobian
from .forward import FemForwardModel, ForwardEval, ForwardModel, ForwardSolveError
from .vb import (ElboBreakdown, NoisePrecisionError, ReducedPosterior, elbo,
                 posterior_psi_stats, q_fixed_point, update_q_tau)
from .mean_update import (MuPhaseResult, SmoothPrior, em_phi, gauss_newton_step,
                          log_prior_mu_and_grad, update_mu)
from .config import (DriverConfig, ObservationFile, RunConfig, build_model,
                     generate_data, initial_mu, load_config)
from .driver import RunTrace, add_basis, info_gain, next_prior_precision, run, state_from_dict
from .importance import DegenerateWeightsError, ISReport, compare_vb_is, ess, run_is

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec", "Mesh2D", "adjoint_jacobian",
    "FemForwardModel", "ForwardEval", "ForwardModel", "ForwardSolveError",
    "ElboBreakdown", "NoisePrecisionError", "ReducedPosterior", "elbo",
    "posterior_psi_stats", "q_fixed_point", "update_q_tau",
    "MuPhaseResult", "SmoothPrior", "em_phi", "gauss_newton_step",
    "log_prior_mu_and_grad", "update_mu",
    "DriverConfig", "ObservationFile", "RunConfig", "build_model", "generate_data",
    "initial_mu", "load_config",
    "RunTrace", "add_basis", "info_gain", "next_prior_precision", "run", "state_from_dict",
    "DegenerateWeightsError", "ISReport", "compare_vb_is", "ess", "run_is",
    "__version__",
]
