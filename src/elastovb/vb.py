"""Mean-field variational state and its closed-form coordinate updates.

The posterior over the latent field is parameterized as Psi = mu + W Theta with
q(Theta) = N(0, Lambda^-1) (diagonal, zero mean by construction) and
q(tau) = Gamma(a, b) for the noise precision.  This module fits (Lambda, a, b)
exactly from the residual r = yhat - y(mu) and the basis columns' data terms
e_i = |G w_i|^2 (never G itself), evaluates the variational lower bound F
with a named breakdown, and exposes low-rank posterior statistics for Psi.
The one special function the bound needs, E_q[log tau] = digamma(a) - log b,
uses the closed-form `_digamma` below, so the module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Below the cutoff, digamma(x) = digamma(x + 1) - 1/x raises x; at or above it
# the asymptotic series through x^-14 truncates below 1e-16 (a cutoff of 6
# leaves errors ~1e-13).
_DIGAMMA_CUTOFF = 10.0


def _digamma(x: float) -> float:
    """digamma(x) for x > 0: recurrence up to the cutoff, then the asymptotic series."""
    shift = 0.0
    while x < _DIGAMMA_CUTOFF:
        shift += 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    # sum_k B_2k / (2k x^2k) for k = 1..7, in Horner form
    tail = t * (1 / 12 - t * (1 / 120 - t * (1 / 252 - t * (1 / 240 - t * (
        1 / 132 - t * (691 / 32760 - t / 12))))))
    return math.log(x) - 0.5 / x - tail - shift


@dataclass
class ReducedPosterior:
    """Full variational state: subspace basis, mean, precisions, Gamma parameters."""

    mu: np.ndarray                 # (d_psi,)
    W: np.ndarray                  # (d_psi, d_theta), orthonormal columns
    lambda0: np.ndarray            # (d_theta,) prior precisions
    lam: np.ndarray                # (d_theta,) posterior precisions
    a0: float = 0.0
    b0: float = 0.0
    a: float = 0.0
    b: float = 0.0

    @property
    def d_psi(self) -> int:
        return self.mu.shape[0]

    @property
    def d_theta(self) -> int:
        return self.W.shape[1]

    @property
    def mean_tau(self) -> float:
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("q(tau) not yet updated; a and b must be positive")
        return self.a / self.b

    @property
    def mean_log_tau(self) -> float:
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("q(tau) not yet updated; a and b must be positive")
        return _digamma(self.a) - math.log(self.b)

    def copy(self) -> "ReducedPosterior":
        return replace(self, mu=self.mu.copy(), W=self.W.copy(),
                       lambda0=self.lambda0.copy(), lam=self.lam.copy())


@dataclass
class ElboBreakdown:
    """Lower bound F split into named addends that sum to the total."""

    likelihood: float          # E_q[log p(yhat | Theta, tau)]
    theta_terms: float         # E_q[log p(Theta)] + H[q(Theta)]
    tau_terms: float           # E_q[log p(tau)] + H[q(tau)]
    log_prior_mu: float

    @property
    def total(self) -> float:
        return self.likelihood + self.theta_terms + self.tau_terms + self.log_prior_mu


class NoisePrecisionError(RuntimeError):
    """q(tau) has no proper noise precision: its rate b is not positive."""


def update_q_tau(state: ReducedPosterior, r: np.ndarray) -> tuple[float, float]:
    """q(tau) with no basis column (the mean phase's): a = a0 + d_y/2, b = b0 + |r|^2/2.

    Raises NoisePrecisionError if b is not positive.
    """
    misfit = float(r @ r)
    a = state.a0 + 0.5 * r.size
    b = state.b0 + 0.5 * misfit
    if b <= 0.0:
        if misfit == 0.0 and state.b0 == 0.0:
            raise NoisePrecisionError(
                "q(tau) rate is 0: zero misfit under the improper noise prior b0 = 0 "
                "(the mean fits the data exactly, so the noise precision is unbounded); "
                "set b0 > 0 (config key solver.b0)")
        raise NoisePrecisionError(f"q(tau) rate collapsed to {b}; inputs must be invalid")
    return a, b


def q_fixed_point(state: ReducedPosterior, e: np.ndarray, r: np.ndarray) -> ReducedPosterior:
    """Fixed point of the conjugate q updates, for data terms e_i = |G w_i|^2.

    With r = yhat - y(mu): a = a0 + d_y/2, lam_i = lambda0_i + (a/b) e_i, and the
    rate b solves b = c + (b/2a) sum_i beta_i / (b + beta_i), c = b0 + |r|^2/2,
    beta_i = a e_i / lambda0_i.  The right side is concave and rises from c > 0,
    so the root is unique.  Newton's method from the right side's supremum falls
    monotonically onto it, at least halving the distance each step while at
    most d_y of the e_i are positive, and stops at rounding.
    """
    a, c = update_q_tau(state, r)
    beta = (a * e / state.lambda0)[e > 0.0]     # a column with e_i = 0 adds nothing
    slack = 2.0 * a - beta.size                 # 2a (1 - slope of the right side at 0)
    b = c + float(np.sum(beta)) / (2.0 * a)
    while True:
        u = b / (b + beta)
        v = beta / (b + beta)
        b_next = ((2.0 * a * c + b * float(np.sum(u * v)))
                  / (slack + float(np.sum(u * (1.0 + v)))))
        if not b_next < b:
            break
        b = b_next
    return replace(state, a=a, b=b, lam=state.lambda0 + (a / b) * e)


def _log_gamma_normalizer(shape: float, rate: float) -> float:
    """log Z for Gamma(shape, rate) density tau^(shape-1) e^(-rate tau) / Z."""
    return math.lgamma(shape) - shape * math.log(rate)


def tau_bound_terms(state: ReducedPosterior) -> float:
    """E_q[log p(tau)] + H[q(tau)] for Gamma prior (a0, b0) and posterior (a, b).

    For the default improper prior a0 = b0 = 0 the prior normalizer is an
    (infinite) constant and is dropped; the remaining terms are still the full
    tau-dependence of the bound.  Returns exactly 0 when posterior == prior.
    """
    if state.a == state.a0 and state.b == state.b0:
        return 0.0
    mean_tau = state.mean_tau
    mean_log_tau = state.mean_log_tau
    val = ((state.a0 - state.a) * mean_log_tau + (state.b - state.b0) * mean_tau
           + _log_gamma_normalizer(state.a, state.b))
    if state.a0 > 0.0 and state.b0 > 0.0:
        val -= _log_gamma_normalizer(state.a0, state.b0)
    return val


def elbo(state: ReducedPosterior, e: np.ndarray, r: np.ndarray,
         log_prior_mu: float = 0.0) -> ElboBreakdown:
    """Variational lower bound at the current state, with named addends.

    e and r are as in `q_fixed_point`.  log_prior_mu is the (EM-surrogate) log
    prior of the current mean field, computed by the mean-update module; it is
    a bound itself.  The uniform prior on W contributes a constant, which is
    dropped.
    """
    d_y = r.shape[0]
    mean_tau = state.mean_tau
    trace = float(np.sum(e / state.lam))
    theta_terms = 0.5 * float(np.sum(np.log(state.lambda0) - state.lambda0 / state.lam
                                     - np.log(state.lam)) + state.d_theta)
    likelihood = (-0.5 * d_y * math.log(2.0 * math.pi) + 0.5 * d_y * state.mean_log_tau
                  - 0.5 * mean_tau * float(r @ r) - 0.5 * mean_tau * trace)
    return ElboBreakdown(likelihood=likelihood, theta_terms=theta_terms,
                         tau_terms=tau_bound_terms(state), log_prior_mu=log_prior_mu)


def posterior_psi_stats(state: ReducedPosterior) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and per-element std.

    Cov[Psi] = W diag(1/lam) W^T is never densified; the per-element variance
    is the row-wise sum of W^2 / lam.  It covers only span(W): the model puts
    no variance outside the subspace, so the std is smaller than a full-rank
    posterior's (on the 10x10 benchmark its six directions carry about 47% of
    each element's full-rank variance, median).
    """
    var = (state.W ** 2) @ (1.0 / state.lam)
    return state.mu.copy(), np.sqrt(var)
