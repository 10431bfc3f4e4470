"""Subspace variational inference for elastographic inverse problems.

Infers a per-element log-modulus field from noisy displacement data by
combining a plane-strain finite-element forward model with a mean-field
variational posterior confined to an adaptively grown low-dimensional
subspace, and validates the result by importance sampling.
"""

from .mesh_fem import BoundarySpec, Mesh2D, SingularSystemError, adjoint_jacobian
from .forward import (CallCounter, FemForwardModel, ForwardEval, ForwardModel,
                      ForwardSolveError, LinearOracleModel)
from .vb import (ElboBreakdown, ReducedPosterior, elbo, posterior_psi_stats,
                 q_fixed_point, update_q_tau)
from .mean_update import (MuPhaseResult, SmoothPrior, em_phi, gauss_newton_step,
                          log_prior_mu_and_grad, update_mu)
from .driver import (DriverConfig, RunTrace, add_basis, info_gain,
                     next_prior_precision, run, state_from_dict)
from .importance import ISReport, compare_vb_is, ess, run_is
from .config import (ObservationFile, RunConfig, build_model, generate_data,
                     initial_mu, load_config)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec", "Mesh2D", "SingularSystemError", "adjoint_jacobian",
    "CallCounter", "FemForwardModel", "ForwardEval", "ForwardModel",
    "ForwardSolveError", "LinearOracleModel",
    "ElboBreakdown", "ReducedPosterior", "elbo", "posterior_psi_stats",
    "q_fixed_point", "update_q_tau",
    "MuPhaseResult", "SmoothPrior", "em_phi", "gauss_newton_step",
    "log_prior_mu_and_grad", "update_mu",
    "DriverConfig", "RunTrace", "add_basis", "info_gain",
    "next_prior_precision", "run", "state_from_dict",
    "ISReport", "compare_vb_is", "ess", "run_is",
    "ObservationFile", "RunConfig", "build_model", "generate_data",
    "initial_mu", "load_config",
    "__version__",
]
