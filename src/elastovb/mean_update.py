"""Gauss-Newton ascent of the mean field with a hierarchical jump-penalty prior.

The objective is F_mu(mu) = -(<tau>/2)|yhat - y(mu)|^2 + log p(mu), where the
prior penalizes differences of neighboring elements with per-pair Gamma
precisions.  Those precisions are handled by a two-step EM scheme: an E-step
gives closed-form per-pair Gamma posteriors at the current mu, then the mu step
ascends the resulting quadratic surrogate.  Because the surrogate touches the
true objective at the expansion point, any step that improves the surrogate at
fixed pair precisions also improves the true objective.

Each trial costs one forward evaluation, for its value only; trial steps are
accepted only if the exact objective, at the iteration's frozen <tau> and pair
precisions, strictly increases.  Only the accepted trial's Jacobian is solved,
from that trial's own factorization, so an outer iteration costs one Jacobian
and as many value solves as it has trials.  Before a trial is spent, the
Gauss-Newton model predicts the step's gain from the Jacobian already in hand;
a predicted gain below the phase's relative tolerance ends the phase, since
such a step cannot be told from rounding.

The E-step needs no forward call, so with the prior active each linearization
also takes one corrector step: the E-step is redone at mu + delta_0 and the
same linearized system (same G, residual and <tau>, one Gram matrix) is solved
again for delta_1.  delta_1 becomes the trial step only if the frozen-precision
Gauss-Newton model still predicts a gain for it above the tolerance; otherwise
delta_0 is tried, so the acceptance test and the objective it reads are the
same either way.  Exactly one corrector is taken: iterating the E-step to
convergence on one linearization collapses noisy data to the flat field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

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
    corrected: bool = False                # the trial step came from the corrector E-step

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


@dataclass
class GaussNewtonSystem:
    """Data-term blocks of one linearization, restricted to the free elements."""

    free: np.ndarray          # (n,) bool mask of the solved components
    gram: np.ndarray          # <tau> G_f^T G_f
    rhs: np.ndarray           # <tau> G_f^T (yhat - y)


def gauss_newton_system(ev: ForwardEval, yhat: np.ndarray, mean_tau: float,
                        fixed_mask: np.ndarray) -> GaussNewtonSystem:
    """Form the data-term Gram matrix and right-hand side once per linearization.

    `fixed_mask` is the model's clamp set; clamped columns of G are left out.
    """
    free = ~fixed_mask
    Gf = ev.G if free.all() else ev.G[:, free]
    gram = Gf.T @ Gf
    gram *= mean_tau          # in place: no second (n_free x n_free) temporary
    rhs = Gf.T @ (yhat - ev.y)
    rhs *= mean_tau
    return GaussNewtonSystem(free=free, gram=gram, rhs=rhs)


def gauss_newton_step(mu: np.ndarray, system: GaussNewtonSystem,
                      prior: SmoothPrior | None,
                      regularization_active: bool) -> tuple[np.ndarray, bool]:
    """Solve the symmetric Gauss-Newton system for the mean increment.

    `system` holds the linearization's data-term blocks, from
    `gauss_newton_system`; the prior precision P = L^T diag(<phi>) L (L the
    pair-difference operator) is scattered pair by pair into a copy of its
    free block, a pair with one clamped end adding to its free end's diagonal
    only, and -(P mu) on the free components is the prior's gradient.  With
    regularization off the prior terms are dropped from both sides.  Clamped
    components are excluded from the solve and returned as exactly 0.
    Returns (delta_mu, floor_used) where floor_used records a Tikhonov fallback
    on a singular system.
    """
    free = system.free
    Hf, rhsf = system.gram, system.rhs
    if regularization_active and prior is not None:
        phi = prior.mean_phi
        k, l = prior.pairs[:, 0], prior.pairs[:, 1]
        pos = np.cumsum(free) - 1             # component -> row of the free block
        Hf = Hf.copy()
        Hf.flat[::Hf.shape[0] + 1] += np.bincount(
            np.concatenate([k, l]), weights=np.concatenate([phi, phi]),
            minlength=mu.shape[0])[free]
        both = free[k] & free[l]              # pairs are distinct, so no entry repeats
        Hf[pos[k[both]], pos[l[both]]] -= phi[both]
        Hf[pos[l[both]], pos[k[both]]] -= phi[both]
        rhsf = rhsf + log_prior_mu_and_grad(mu, prior)[1][free]
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
    delta = np.zeros(mu.shape[0])
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
    jacobians: int = 0                     # evaluations whose G was solved
    log_prior_value: float = 0.0
    budget_exhausted: bool = False


def update_mu(state: ReducedPosterior, model: ForwardModel, yhat: np.ndarray,
              prior: SmoothPrior | None = None, max_outer: int = 30,
              reg_delay: int = 5, max_halvings: int = 10,
              call_budget: int | None = None) -> MuPhaseResult:
    """Run the mean-update phase from state.mu; all forward calls happen here.

    The jump-penalty regularization is switched on once `reg_delay` steps have
    been accepted; before that, steps are plain Gauss-Newton on the data term.
    A rejected trial is halved up to max_halvings times (each trial costs one
    value-only forward call); exhausting the halvings ends the phase.  So does
    a step whose predicted gain, -<tau>/2 |r - G delta|^2 + log p(mu + delta)
    - F_mu, is at most GAIN_RTOL (1 + |F_mu|), or an accepted step whose actual
    gain is.  With regularization on, the trial step is the corrector step
    delta_1 when its predicted gain passes the same tolerance (see the module
    docstring).

    The model's clamped components (`model.fixed_mask`) keep their value in
    state.mu.  The accepted trial's G is solved from its own factorization
    after mu's G is released, so one G is alive at a time.  If that solve
    fails, the trial counts as failed and is halved; should the phase then end
    without an accepted step, one more counted call (past the budget if need
    be) solves G at mu again.
    """
    mu = state.mu.copy()
    ev = model.evaluate(mu)
    calls = jacobians = 1
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
        tol = GAIN_RTOL * (1.0 + abs(f_curr))

        def predicted_gain(step: np.ndarray) -> float:
            r_lin = r - ev.G @ step
            return -0.5 * mean_tau * float(r_lin @ r_lin) + logp_fn(mu + step) - f_curr

        system = gauss_newton_system(ev, yhat, mean_tau, model.fixed_mask)
        delta, _ = gauss_newton_step(mu, system, cur_prior, reg_active)
        if predicted_gain(delta) <= tol:
            break
        corrected = False
        if reg_active:
            delta1, _ = gauss_newton_step(mu, system, em_phi(mu + delta, cur_prior), True)
            if predicted_gain(delta1) > tol:
                delta, corrected = delta1, True
        del system        # free the Gram before the trial call, the phase's memory peak
        dn = float(np.linalg.norm(delta))
        accepted = False
        halvings = 0
        scale = 1.0
        while halvings <= max_halvings:
            if out_of_budget():
                budget_exhausted = True
                break
            trial = mu + scale * delta
            ev_try = None     # a rejected trial's factorization must not outlive its rejection
            calls += 1
            try:
                ev_try = model.evaluate(trial, jacobian=False)
                r_try = yhat - ev_try.y
                f_try = -0.5 * mean_tau * float(r_try @ r_try) + logp_fn(trial)
                if f_try > f_curr:
                    ev = None     # one G alive at a time: mu's goes before the trial's is solved
                    ev_try = ev_try.with_jacobian()
                    jacobians += 1
                    accepted = True
                    break
            except ForwardSolveError:
                pass
            halvings += 1
            scale *= 0.5
        if not accepted:
            if not budget_exhausted:
                reports.append(MuUpdateReport(accepted=False, delta_norm=dn * scale,
                                              f_before=f_curr, f_after=f_curr,
                                              forward_calls=halvings,
                                              regularization_active=reg_active,
                                              halvings=halvings, corrected=corrected))
            break
        reports.append(MuUpdateReport(accepted=True, delta_norm=dn * scale,
                                      f_before=f_curr, f_after=f_try,
                                      forward_calls=halvings + 1,
                                      regularization_active=reg_active,
                                      halvings=halvings, corrected=corrected))
        mu, ev = trial, ev_try
        accepted_count += 1
        a, b = update_q_tau(state, ev, yhat)
        if (f_try - f_curr) <= GAIN_RTOL * (1.0 + abs(f_curr)):
            break

    if ev is None:    # the accepted trial's Jacobian failed after mu's was released
        ev = model.evaluate(mu)
        calls += 1
        jacobians += 1
    log_prior_value = 0.0
    if cur_prior is not None:
        cur_prior = em_phi(mu, cur_prior)
        log_prior_value, _ = log_prior_mu_and_grad(mu, cur_prior)
    return MuPhaseResult(mu=mu, ev=ev, a=a, b=b, prior=cur_prior, reports=reports,
                         forward_calls=calls, jacobians=jacobians,
                         log_prior_value=log_prior_value,
                         budget_exhausted=budget_exhausted)
