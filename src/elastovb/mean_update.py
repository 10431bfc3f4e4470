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
precisions, strictly increases.  A step's trials are mu + 2^-k delta on the
grid k = 0..max_halvings, and the step takes the least k whose trial solves
and passes that test.  Far along the ray the forward solve can fail (an
overflowing modulus, a singular system); past such failures the phase does not
walk the grid one exponent per call but gallops over k = 0, 1, 3, 7, ... and
bisects back to the first trial that solves, then goes on from there one
exponent at a time.  When failure is monotone in the step length, that is the
step plain halving takes, reached in fewer calls.  A trial outside the model's
domain (an entry above `model.psi_max`, where the FEM model's modulus
overflows) fails with no call: mu lies in the domain and the domain is
convex, so such failures are monotone in the step length and the search
takes the same step as when it paid a call for each.  Only the accepted trial's
Jacobian is solved, from that trial's own factorization, so an outer
iteration costs one Jacobian and as many value solves as it has trials.
Before a trial is spent, the Gauss-Newton model predicts the step's gain from
the Jacobian already in hand; a predicted gain below the phase's relative
tolerance ends the phase, since such a step cannot be told from rounding.

The E-step needs no forward call, so with the prior active each linearization
also takes one corrector step: the E-step is redone at mu + delta_0 and the
same linearized system (same G, residual and <tau>, one Gram matrix formed
once) is solved again for delta_1.  delta_1 becomes the trial step only if the
frozen-precision Gauss-Newton model still predicts a gain for it above the
tolerance; otherwise delta_0 is tried, so the acceptance test and the
objective it reads are the same either way.  Exactly one corrector is taken:
iterating the E-step to convergence on one linearization collapses noisy data
to the flat field.

G is never formed: the Gram is the one the linearization's evaluation formed
with its sensitivities (`mesh_fem.Sensitivities`), the right-hand side and the
predicted gains take one solve each with the evaluation's factorization, and
each Gauss-Newton solve factors the Gram itself in place and restores it
afterwards.  So the Gram is the only (n_free x n_free) array alive, and the
dense (d_y x d_psi) G is never made.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from ._lapack import posv
from .forward import ForwardEval, ForwardModel, ForwardSolveError
from .mesh_fem import mirror_lower
from .vb import ReducedPosterior, update_q_tau

B_PHI_FLOOR = 1e-12
TIKHONOV_FLOOR = 1e-10
GAIN_RTOL = 1e-9          # relative objective gain below which the mean phase stops
FAILED, REJECTED, PASSED = "failed", "rejected", "passed"   # a trial call's outcomes


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
    failed: int = 0                        # trial calls whose value or Jacobian solve raised
    corrected: bool = False                # the trial step came from the corrector E-step

    def __post_init__(self) -> None:
        if self.accepted and not self.f_after > self.f_before:
            raise ValueError("accepted step must strictly increase the objective")

    @property
    def halvings(self) -> int:
        """Trial calls of the step that were not accepted (perfbench/tracing.py reads it)."""
        return self.forward_calls - self.accepted


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
    gram: np.ndarray          # G_f^T G_f, the evaluation's; solves load it in place, then restore it
    scale: float              # <tau>, which the solves apply to the Gram
    rhs: np.ndarray           # <tau> G_f^T (yhat - y)


def gauss_newton_system(ev: ForwardEval, yhat: np.ndarray, mean_tau: float,
                        fixed_mask: np.ndarray) -> GaussNewtonSystem:
    """The data-term blocks of the linearization at `ev`, with no (n_free x n_free) copy.

    `fixed_mask` is the model's clamp set, the one the evaluation's free Gram
    leaves out.  The Gram is the one the evaluation holds, formed with its
    sensitivities, and the right-hand side is the free entries of
    <tau> G^T (yhat - y), one solve.
    """
    free = ~fixed_mask
    rhs = ev.G.rmatvec(yhat - ev.y)[free]
    rhs *= mean_tau
    return GaussNewtonSystem(free=free, gram=ev.G.gram(), scale=mean_tau, rhs=rhs)


def _cholesky_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve H x = rhs from the lower triangle of H, overwriting it with the factor.

    H's strict upper triangle is neither read nor written.  None if H is not
    numerically positive definite or x is not finite.
    """
    try:
        # H.T is the Fortran-ordered view whose upper triangle is H's lower
        # one: LAPACK factors it in place, with no copy
        x = posv(H.T, rhs)
    except np.linalg.LinAlgError:
        return None
    return x if np.all(np.isfinite(x)) else None


def gauss_newton_step(mu: np.ndarray, system: GaussNewtonSystem,
                      prior: SmoothPrior | None) -> np.ndarray:
    """Solve the symmetric Gauss-Newton system for the mean increment.

    `system` holds the linearization's data-term blocks (`gauss_newton_system`).
    Each factorization reads only the Gram's lower triangle and diagonal: <tau>
    scales them in place, and the prior precision P = L^T diag(<phi>) L (L the
    pair-difference operator) goes there pair by pair, a pair with one clamped
    end adding to its free end's diagonal only; -(P mu) on the free components
    is the prior's gradient.  With no prior (None) both sides hold the data
    terms alone.  The strict upper triangle and one saved copy of the diagonal
    restore the Gram bit for bit after each factorization, failed or not, so
    the corrector and the basis phase can use it again and a retry with the
    Tikhonov floor on the diagonal starts from it.  If that fails too,
    np.linalg.LinAlgError is raised.  Returns delta_mu, with the clamped
    components exactly 0.
    """
    free = system.free
    H = system.gram
    rhsf = system.rhs
    n = H.shape[0]
    prior_diag = None
    if prior is not None:
        phi = prior.mean_phi
        k, l = prior.pairs[:, 0], prior.pairs[:, 1]
        pos = np.cumsum(free) - 1             # component -> row of the free block
        prior_diag = np.bincount(np.concatenate([k, l]), weights=np.concatenate([phi, phi]),
                                 minlength=mu.shape[0])[free]
        both = free[k] & free[l]              # pairs are distinct, so no entry repeats
        rows, cols, off = pos[k[both]], pos[l[both]], phi[both]
        lower = (np.maximum(rows, cols), np.minimum(rows, cols))
        rhsf = rhsf + log_prior_mu_and_grad(mu, prior)[1][free]
    diag = H.diagonal().copy()

    @contextmanager
    def loaded(floor: float):
        """Inside the block the Gram's lower triangle and diagonal hold those of
        <tau> gram + P + floor I; on leaving it the Gram is restored."""
        try:
            np.multiply(H, system.scale, out=H, where=np.tri(n, dtype=bool))
            if prior_diag is not None:
                H.flat[::n + 1] += prior_diag
                H[lower] -= off
            if floor:
                H.flat[::n + 1] += floor
            yield
        finally:
            H.flat[::n + 1] = diag
            mirror_lower(H.T)

    with loaded(0.0):
        sol = _cholesky_solve(H, rhsf)
    if sol is None:
        with loaded(TIKHONOV_FLOOR):
            sol = _cholesky_solve(H, rhsf)
    if sol is None:
        raise np.linalg.LinAlgError(
            f"the Gauss-Newton system has no finite Cholesky solve, even with "
            f"{TIKHONOV_FLOOR:g} added to its diagonal")
    delta = np.zeros(mu.shape[0])
    delta[free] = sol
    return delta


def _f_mu(mu: np.ndarray, r: np.ndarray, mean_tau: float, prior: SmoothPrior | None) -> float:
    """F_mu at mu from its residual r = yhat - y(mu); no prior (None) adds no log p term."""
    logp = 0.0 if prior is None else log_prior_mu_and_grad(mu, prior)[0]
    return -0.5 * mean_tau * float(r @ r) + logp


def _trial_direction(mu: np.ndarray, ev: ForwardEval, yhat: np.ndarray, mean_tau: float,
                     prior: SmoothPrior | None, fixed_mask: np.ndarray, f_mu: float,
                     tol: float) -> tuple[np.ndarray, bool] | None:
    """A step's direction from the linearization at mu, and whether the corrector gave it.

    The predicted gain of delta is -<tau>/2 |r - G delta|^2 + log p(mu + delta)
    - f_mu.  None if delta_0's is at most `tol`; with a prior, delta_1 replaces
    delta_0 if its gain is above `tol` too (see the module docstring).  The
    linearized system holds mu's Gram too and lives only in here.
    """
    r = yhat - ev.y

    def gain(step: np.ndarray) -> float:
        return _f_mu(mu + step, r - ev.G @ step, mean_tau, prior) - f_mu

    system = gauss_newton_system(ev, yhat, mean_tau, fixed_mask)
    delta = gauss_newton_step(mu, system, prior)
    if gain(delta) <= tol:
        return None
    if prior is not None:
        delta1 = gauss_newton_step(mu, system, em_phi(mu + delta, prior))
        if gain(delta1) > tol:
            return delta1, True
    return delta, False


def _first_solving(solves: Callable[[int], bool | None], max_halvings: int) -> int:
    """The least exponent k in 0..max_halvings whose trial solves, by search.

    `solves(k)` tells whether the trial at 2^-k solved, at one call at most
    (None: no call left).  The search gallops over k = 0, 1, 3, 7, ...
    (capped at max_halvings) to a trial that solves, then bisects between
    it and the last one that failed, so crossing b failed trials costs
    O(log b) calls where halving spends one on each.  When failure is
    monotone in the step length, the answer is the first k that halving
    would see solve.  max_halvings + 1 if no trial solves or the calls run
    out.
    """
    lo, hi = -1, max_halvings + 1     # the greatest k seen to fail, the least seen to solve
    while hi - lo > 1:       # gallop until a trial solves, then bisect
        k = min(max(2 * lo + 1, 0), max_halvings) if hi > max_halvings else (lo + hi) // 2
        solved = solves(k)
        if solved is None:
            return max_halvings + 1
        if solved:
            hi = k
        else:
            lo = k
    return hi


@dataclass
class MuPhaseResult:
    """Where the mean phase ended and what it spent; `stop_reason` names the
    exit `update_mu` took, one of the four its docstring lists."""

    mu: np.ndarray
    ev: ForwardEval
    a: float
    b: float
    prior: SmoothPrior | None
    stop_reason: str
    reports: list[MuUpdateReport] = field(default_factory=list)
    forward_calls: int = 0
    jacobians: int = 0                     # evaluations whose G was solved
    log_prior_value: float = 0.0

    @property
    def budget_exhausted(self) -> bool:    # perfbench/tracing.py reads it
        return self.stop_reason == "call_budget"


@dataclass
class _Trial:
    """A step's ledger entry: one call on the trial mu + 2^-k delta and its outcome."""

    k: int
    mu: np.ndarray
    outcome: str = FAILED                  # REJECTED or PASSED once it solved
    f: float = -np.inf                     # F_mu at the trial, once it solved
    ev: ForwardEval | None = None          # kept by the step's least passing k alone


def update_mu(state: ReducedPosterior, model: ForwardModel, yhat: np.ndarray,
              prior: SmoothPrior | None = None, max_outer: int = 30,
              reg_delay: int = 5, max_halvings: int = 10,
              call_budget: int | None = None) -> MuPhaseResult:
    """Run the mean-update phase from state.mu; all forward calls happen here.

    Steps are plain Gauss-Newton on the data term until the jump-penalty prior
    goes on: after `reg_delay` accepted steps, or at the first step before
    that which accepts no trial while calls remain.  The phase ends at one of
    four exits, named in the result's `stop_reason`: a step whose predicted
    gain (`_trial_direction`) is at most GAIN_RTOL (1 + |F_mu|), or an
    accepted step whose actual gain is ("gain_tolerance"); a step with the
    prior on, or with `prior=None`, that accepts no trial
    ("no_acceptable_trial"); `call_budget`, which bounds the growth of
    `model.calls` since entry, running out ("call_budget"); and `max_outer`
    steps run ("max_steps").  The model's clamped components
    (`model.fixed_mask`) keep their state.mu value.

    mu's evaluation, Gram included, is released before the accepted trial
    forms its own from its factorization, so one Gram is alive at a time.  If
    that fails, the trial counts as failed and the step goes on at k + 1; a
    step that then accepts nothing forms mu's again at one more counted call
    (past the budget if need be), so mu's evaluation is whole after every
    step.  A rejected trial's evaluation goes at once; the least passing
    trial's is kept while the search runs (one banded factor: 41 KB on 10x10,
    2.2 MB on 40x40; solving it again cost the 40x40 run 2 more calls).  The
    memory peak is a trial's banded solve while mu's evaluation and Gram are
    held (2.17 MB traced on a 20x20 mesh, of which the Gram is 1.16 MB).
    """
    mu = state.mu.copy()
    start = model.calls
    ev = model.evaluate(mu).with_jacobian()
    jacobians = 1
    a, b = update_q_tau(state, yhat - ev.y)
    reports: list[MuUpdateReport] = []
    warmup = reg_delay                     # accepted steps left before the prior goes on
    budget_exhausted = False

    def out_of_budget() -> bool:           # and records it in budget_exhausted
        nonlocal budget_exhausted
        budget_exhausted = call_budget is not None and model.calls - start >= call_budget
        return budget_exhausted

    for _ in range(max_outer):
        if out_of_budget():
            stop_reason = "call_budget"
            break
        mean_tau = a / b
        step_prior = None
        if prior is not None and warmup <= 0:
            step_prior = prior = em_phi(mu, prior)
        f_curr = _f_mu(mu, yhat - ev.y, mean_tau, step_prior)
        tol = GAIN_RTOL * (1.0 + abs(f_curr))
        direction = _trial_direction(mu, ev, yhat, mean_tau, step_prior, model.fixed_mask,
                                     f_curr, tol)
        if direction is None:
            stop_reason = "gain_tolerance"
            break
        delta, corrected = direction
        ledger: list[_Trial] = []          # the step's trial calls, each with its outcome

        def probe(k: int) -> bool | None:
            """One value-only call on the trial at 2^-k, into the ledger: whether it
            solved, or None with no call left.  A trial outside the model's
            domain fails with no call and no ledger entry."""
            if out_of_budget():
                return None
            trial = _Trial(k, mu + 0.5 ** k * delta)
            if np.max(trial.mu) > model.psi_max:
                return False
            ledger.append(trial)
            try:
                ev_k = model.evaluate(trial.mu)
            except ForwardSolveError:
                return False
            trial.f = _f_mu(trial.mu, yhat - ev_k.y, mean_tau, step_prior)
            trial.outcome = PASSED if trial.f > f_curr else REJECTED
            if trial.outcome == PASSED:
                for other in ledger:       # a passing trial at a larger k is dropped
                    other.ev = None
                trial.ev = ev_k
            return True

        taken = None
        k = _first_solving(probe, max_halvings)
        while k <= max_halvings:   # no trial past one that solved leaves the domain
            seen = {t.k: t for t in ledger}.get(k)     # the latest call at k
            if seen is None or seen.outcome == PASSED and seen.ev is None:
                if probe(k) is None:
                    break
                seen = ledger[-1]
            if seen.ev is not None:
                ev = None  # one Gram alive at a time: mu's goes before the trial's is formed
                try:
                    seen.ev = seen.ev.with_jacobian()
                except ForwardSolveError:
                    seen.outcome, seen.ev = FAILED, None
                else:
                    taken, jacobians = seen, jacobians + 1
                    break
            k += 1
        if not budget_exhausted:           # a step the budget cut short is not reported
            accepted = taken is not None
            reports.append(MuUpdateReport(
                accepted=accepted, delta_norm=float(np.linalg.norm(delta)) * 0.5 ** k,
                f_before=f_curr, f_after=taken.f if accepted else f_curr,
                forward_calls=len(ledger),
                failed=sum(t.outcome == FAILED for t in ledger),
                regularization_active=step_prior is not None, corrected=corrected))
        if taken is not None:
            mu, ev = taken.mu, taken.ev
            warmup -= 1
            a, b = update_q_tau(state, yhat - ev.y)
            if taken.f - f_curr <= tol:
                stop_reason = "gain_tolerance"
                break
            continue
        if ev is None:    # the taken trial's Jacobian failed after mu's was released
            ev = model.evaluate(mu).with_jacobian()
            jacobians += 1
        if budget_exhausted:
            stop_reason = "call_budget"
            break
        if step_prior is not None or prior is None:
            stop_reason = "no_acceptable_trial"
            break
        warmup = 0        # a warm-up step that accepts nothing switches the prior on
    else:
        stop_reason = "max_steps"

    log_prior_value = 0.0
    if prior is not None:
        prior = em_phi(mu, prior)
        log_prior_value, _ = log_prior_mu_and_grad(mu, prior)
    return MuPhaseResult(mu=mu, ev=ev, a=a, b=b, prior=prior, stop_reason=stop_reason,
                         reports=reports, forward_calls=model.calls - start,
                         jacobians=jacobians, log_prior_value=log_prior_value)
