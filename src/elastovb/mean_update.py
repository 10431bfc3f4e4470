"""Gauss-Newton ascent of the mean field with a hierarchical jump-penalty prior.

The objective is F_mu(mu) = -(<tau>/2)|yhat - y(mu)|^2 + log p(mu), where the
prior penalizes differences of neighboring elements with per-pair Gamma
precisions.  Those precisions are handled by a two-step EM scheme: an E-step
gives closed-form per-pair Gamma posteriors at the current mu, then the mu step
ascends the resulting quadratic surrogate.  Because the surrogate touches the
true objective at the expansion point, any step that improves the surrogate at
fixed pair precisions also improves the true objective.

Each outer iteration costs exactly one forward evaluation (value and Jacobian
together); trial steps are accepted only if the exact objective, at the
iteration's frozen <tau> and pair precisions, strictly increases.  Before a
trial is spent, the Gauss-Newton model predicts the step's gain from the
Jacobian already in hand; a predicted gain below the phase's relative
tolerance ends the phase, since such a step cannot be told from rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .forward import ForwardEval, ForwardModel, ForwardSolveError
from .vb import ReducedPosterior, update_q_tau

B_PHI_FLOOR = 1e-12
TIKHONOV_FLOOR = 1e-10
GAIN_RTOL = 1e-9          # relative objective gain below which the mean phase stops


def neighbor_pairs(nx: int, ny: int) -> np.ndarray:
    """All horizontally and vertically adjacent element index pairs (d_L, 2)."""
    idx = np.arange(nx * ny).reshape(ny, nx)
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    return np.vstack([horiz, vert])


@dataclass
class SmoothPrior:
    """Neighbor-difference prior with per-pair Gamma precision posteriors."""

    pairs: np.ndarray                      # (d_L, 2) element index pairs
    a_phi: float = 0.0
    b_phi: float = 0.0
    a_post: np.ndarray | None = None       # (d_L,) Gamma shapes, a_phi + 1/2
    b_post: np.ndarray | None = None       # (d_L,) Gamma rates
    floored_count: int = 0                 # pairs clipped at the rate floor

    def __post_init__(self) -> None:
        self.pairs = np.asarray(self.pairs, dtype=int)
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError("pairs must be a (d_L, 2) index array")
        seen = {tuple(sorted(p)) for p in self.pairs.tolist()}
        if len(seen) != self.pairs.shape[0]:
            raise ValueError("duplicate neighbor pair")

    @classmethod
    def for_grid(cls, nx: int, ny: int, a_phi: float = 0.0, b_phi: float = 0.0) -> "SmoothPrior":
        return cls(pairs=neighbor_pairs(nx, ny), a_phi=a_phi, b_phi=b_phi)

    @property
    def d_pairs(self) -> int:
        return self.pairs.shape[0]

    @property
    def mean_phi(self) -> np.ndarray:
        if self.a_post is None or self.b_post is None:
            raise ValueError("no E-step has been run yet")
        return self.a_post / self.b_post


@dataclass
class MuUpdateReport:
    accepted: bool
    delta_norm: float
    f_before: float
    f_after: float
    forward_calls: int
    regularization_active: bool
    halvings: int = 0

    def __post_init__(self) -> None:
        if self.accepted and not self.f_after > self.f_before:
            raise ValueError("accepted step must strictly increase the objective")


def em_phi(mu: np.ndarray, prior: SmoothPrior) -> SmoothPrior:
    """E-step: per-pair Gamma posterior (a_phi + 1/2, b_phi + jump^2/2).

    A zero jump with b_phi = 0 would send the pair precision to infinity; the
    rate is clipped at a small floor and the event counted.
    """
    jumps = mu[prior.pairs[:, 0]] - mu[prior.pairs[:, 1]]
    a_post = np.full(prior.d_pairs, prior.a_phi + 0.5)
    b_post = prior.b_phi + 0.5 * jumps ** 2
    floored = b_post < B_PHI_FLOOR
    return replace(prior, a_post=a_post, b_post=np.maximum(b_post, B_PHI_FLOOR),
                   floored_count=int(np.count_nonzero(floored)))


def log_prior_mu_and_grad(mu: np.ndarray, prior: SmoothPrior) -> tuple[float, np.ndarray]:
    """EM surrogate -1/2 sum_j <phi_j> (mu_k - mu_l)^2 and its gradient."""
    phi = prior.mean_phi
    k, l = prior.pairs[:, 0], prior.pairs[:, 1]
    jumps = mu[k] - mu[l]
    value = -0.5 * float(np.sum(phi * jumps ** 2))
    grad = np.zeros_like(mu)
    np.add.at(grad, k, -phi * jumps)
    np.add.at(grad, l, phi * jumps)
    return value, grad


def _pair_precision_matrix(prior: SmoothPrior, n: int) -> sp.csr_matrix:
    """Sparse L^T diag(<phi>) L for the pair-difference operator L."""
    phi = prior.mean_phi
    k, l = prior.pairs[:, 0], prior.pairs[:, 1]
    rows = np.concatenate([k, l, k, l])
    cols = np.concatenate([k, l, l, k])
    data = np.concatenate([phi, phi, -phi, -phi])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def gauss_newton_step(mu: np.ndarray, ev: ForwardEval, yhat: np.ndarray,
                      mean_tau: float, prior: SmoothPrior | None,
                      regularization_active: bool,
                      fixed_mask: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Solve the symmetric Gauss-Newton system for the mean increment.

    With regularization off the prior terms are dropped from both sides.
    Clamped components are excluded from the solve and returned as exactly 0.
    Returns (delta_mu, floor_used) where floor_used records a Tikhonov fallback
    on a singular system.
    """
    n = mu.shape[0]
    free = np.ones(n, dtype=bool) if fixed_mask is None else ~np.asarray(fixed_mask, dtype=bool)
    r = yhat - ev.y
    H = mean_tau * (ev.G.T @ ev.G)
    rhs = mean_tau * (ev.G.T @ r)
    if regularization_active and prior is not None:
        P = _pair_precision_matrix(prior, n)
        H = H + P.toarray()
        rhs = rhs - P @ mu
    Hf = H[np.ix_(free, free)]
    rhsf = rhs[free]
    floor_used = False
    sol = None
    for attempt in range(2):
        try:
            c, low = scipy.linalg.cho_factor(Hf)
            cand = scipy.linalg.cho_solve((c, low), rhsf)
            if np.all(np.isfinite(cand)):
                sol = cand
                break
        except np.linalg.LinAlgError:
            pass
        Hf = Hf + TIKHONOV_FLOOR * np.eye(Hf.shape[0])
        floor_used = True
    if sol is None:
        sol = np.linalg.lstsq(Hf, rhsf, rcond=None)[0]
    delta = np.zeros(n)
    delta[free] = sol
    return delta, floor_used


@dataclass
class MuPhaseResult:
    mu: np.ndarray
    ev: ForwardEval
    a: float
    b: float
    prior: SmoothPrior | None
    reports: list[MuUpdateReport] = field(default_factory=list)
    forward_calls: int = 0
    log_prior_value: float = 0.0
    budget_exhausted: bool = False


def update_mu(state: ReducedPosterior, model: ForwardModel, yhat: np.ndarray,
              prior: SmoothPrior | None = None, max_outer: int = 30,
              reg_delay: int = 5, max_halvings: int = 10,
              call_budget: int | None = None,
              fixed_mask: np.ndarray | None = None) -> MuPhaseResult:
    """Run the mean-update phase from state.mu; all forward calls happen here.

    The jump-penalty regularization is switched on once `reg_delay` steps have
    been accepted; before that, steps are plain Gauss-Newton on the data term.
    A rejected trial is halved up to max_halvings times (each trial costs one
    forward call); exhausting the halvings ends the phase.  So does a step
    whose predicted gain, -<tau>/2 |r - G delta|^2 + log p(mu + delta) - F_mu,
    is at most GAIN_RTOL (1 + |F_mu|), or an accepted step whose actual gain is.
    """
    mu = state.mu.copy()
    calls = 0
    ev = model.evaluate(mu)
    calls += 1
    a, b = update_q_tau(state, ev, yhat)
    cur_prior = prior
    reports: list[MuUpdateReport] = []
    accepted_count = 0
    budget_exhausted = False

    def out_of_budget() -> bool:
        return call_budget is not None and calls >= call_budget

    for _ in range(max_outer):
        if out_of_budget():
            budget_exhausted = True
            break
        mean_tau = a / b
        reg_active = cur_prior is not None and accepted_count >= reg_delay
        if reg_active:
            cur_prior = em_phi(mu, cur_prior)
            logp_fn = lambda m, pr=cur_prior: log_prior_mu_and_grad(m, pr)[0]
        else:
            logp_fn = lambda m: 0.0
        r = yhat - ev.y
        f_curr = -0.5 * mean_tau * float(r @ r) + logp_fn(mu)
        delta, _ = gauss_newton_step(mu, ev, yhat, mean_tau, cur_prior,
                                     reg_active, fixed_mask)
        r_lin = r - ev.G @ delta
        pred = -0.5 * mean_tau * float(r_lin @ r_lin) + logp_fn(mu + delta) - f_curr
        if pred <= GAIN_RTOL * (1.0 + abs(f_curr)):
            break
        dn = float(np.linalg.norm(delta))
        accepted = False
        halvings = 0
        scale = 1.0
        while halvings <= max_halvings:
            if out_of_budget():
                budget_exhausted = True
                break
            trial = mu + scale * delta
            try:
                ev_try = model.evaluate(trial)
                calls += 1
            except ForwardSolveError:
                calls += 1
                halvings += 1
                scale *= 0.5
                continue
            r_try = yhat - ev_try.y
            f_try = -0.5 * mean_tau * float(r_try @ r_try) + logp_fn(trial)
            if f_try > f_curr:
                accepted = True
                break
            halvings += 1
            scale *= 0.5
        if not accepted:
            if not budget_exhausted:
                reports.append(MuUpdateReport(accepted=False, delta_norm=dn * scale,
                                              f_before=f_curr, f_after=f_curr,
                                              forward_calls=halvings,
                                              regularization_active=reg_active,
                                              halvings=halvings))
            break
        reports.append(MuUpdateReport(accepted=True, delta_norm=dn * scale,
                                      f_before=f_curr, f_after=f_try,
                                      forward_calls=halvings + 1,
                                      regularization_active=reg_active,
                                      halvings=halvings))
        mu, ev = trial, ev_try
        accepted_count += 1
        a, b = update_q_tau(state, ev, yhat)
        if (f_try - f_curr) <= GAIN_RTOL * (1.0 + abs(f_curr)):
            break

    log_prior_value = 0.0
    if cur_prior is not None:
        cur_prior = em_phi(mu, cur_prior)
        log_prior_value, _ = log_prior_mu_and_grad(mu, cur_prior)
    return MuPhaseResult(mu=mu, ev=ev, a=a, b=b, prior=cur_prior, reports=reports,
                         forward_calls=calls, log_prior_value=log_prior_value,
                         budget_exhausted=budget_exhausted)
