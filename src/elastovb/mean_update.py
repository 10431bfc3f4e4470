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
step plain halving takes, reached in fewer calls.  Only the accepted trial's
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
    halvings: int = 0                      # trials of the step that were not accepted
    failed: int = 0                        # trials whose value or Jacobian solve raised
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
                      prior: SmoothPrior | None) -> tuple[np.ndarray, bool]:
    """Solve the symmetric Gauss-Newton system for the mean increment.

    `system` holds the linearization's data-term blocks, from
    `gauss_newton_system`; its Gram is factored in place and is bit for bit
    the same on return, so the corrector and the basis phase can use it again.
    Each factorization reads only the Gram's lower triangle and diagonal:
    <tau> scales them in place, and the prior precision P = L^T diag(<phi>) L
    (L the pair-difference operator) goes there pair by pair, a pair with one
    clamped end adding to its free end's diagonal only, and -(P mu) on the
    free components is the prior's gradient.  With no prior (None) both
    sides hold the data terms alone.  The strict upper triangle and one saved
    copy of the diagonal restore the Gram after each factorization, failed or
    not, so should the first one fail, the retry with the Tikhonov floor on
    the diagonal starts from the Gram again; only if that fails too does a
    last-resort least squares solve take one full copy.  Clamped components
    are excluded from the solve and returned as exactly 0.  Returns
    (delta_mu, floor_used) where floor_used records a Tikhonov fallback on a
    singular system.
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

    floor_used = False
    with loaded(0.0):
        sol = _cholesky_solve(H, rhsf)
    if sol is None:
        floor_used = True
        with loaded(TIKHONOV_FLOOR):
            sol = _cholesky_solve(H, rhsf)
    if sol is None:
        with loaded(TIKHONOV_FLOOR):
            full = H.copy()
        sol = np.linalg.lstsq(mirror_lower(full), rhsf, rcond=None)[0]
    delta = np.zeros(mu.shape[0])
    delta[free] = sol
    return delta, floor_used


def _first_solving(solves: Callable[[int], bool | None], max_halvings: int) -> int:
    """The least exponent k in 0..max_halvings whose trial solves, by search.

    `solves(k)` spends a call on the trial at 2^-k and tells whether it solved
    (None: no call left).  The search gallops over k = 0, 1, 3, 7, ...
    (capped at max_halvings) to a trial that solves, then bisects between
    it and the last one that failed, so crossing b failed trials costs
    O(log b) calls where halving spends one on each.  When failure is
    monotone in the step length, the answer is the first k that halving
    would see solve.  max_halvings + 1 if no trial solves or the calls run
    out.
    """
    lo, hi = -1, max_halvings + 1     # the greatest k seen to fail, the least seen to solve
    gallop = True
    while hi - lo > 1:
        k = min(max(2 * lo + 1, 0), max_halvings) if gallop else (lo + hi) // 2
        solved = solves(k)
        if solved is None:
            return max_halvings + 1
        if solved:
            hi, gallop = k, False
        else:
            lo = k
    return hi


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
    Each trial of a step is mu + 2^-k delta, one value-only forward call, and
    the step takes the least k in 0..max_halvings whose trial solves and
    passes the acceptance test; finding none ends the phase.  While trials
    raise ForwardSolveError the least k that solves is found by exponential
    search (`_first_solving`); from it, each rejected trial moves on to k + 1.
    The phase also ends at a step whose predicted gain, -<tau>/2 |r - G
    delta|^2 + log p(mu + delta) - F_mu, is at most GAIN_RTOL (1 + |F_mu|),
    or at an accepted step whose actual gain is.  With regularization on, the
    trial step is the corrector step delta_1 when its predicted gain passes
    the same tolerance (see the module docstring).

    The phase's forward calls, which `call_budget` bounds, are the growth of
    `model.calls` since entry.  The model's clamped components
    (`model.fixed_mask`) keep their value in state.mu.  The accepted trial's
    sensitivities, free Gram included, are formed from its own factorization
    after mu's are released, so one Gram is alive at a time.  If that fails, the trial counts as failed and the step
    goes on at k + 1; should the phase then end without an accepted step, one
    more counted call (past the budget if need be) forms them at mu again.
    A rejected trial's evaluation is released at once.  While the search
    runs, one more value-only evaluation may be held: the least exponent's
    trial that solved and passed, which the step takes unless a trial at a
    smaller k passes first (one banded factor: 41 KB on 10x10, 2.2 MB on
    40x40; solving it again instead cost the 40x40 run 2 more calls).

    The phase's memory peak is a trial's banded solve (factor, solve and
    residual check), which runs while mu's evaluation and its Gram are still
    held (2.18 MB traced on a 20x20 mesh, of which the Gram is 1.16 MB).
    """
    mu = state.mu.copy()
    start = model.calls
    ev = model.evaluate(mu).with_jacobian()
    jacobians = 1
    a, b = update_q_tau(state, yhat - ev.y)
    cur_prior = prior
    reports: list[MuUpdateReport] = []
    accepted_count = 0
    budget_exhausted = False

    def out_of_budget() -> bool:
        return call_budget is not None and model.calls - start >= call_budget

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
        delta, _ = gauss_newton_step(mu, system, cur_prior if reg_active else None)
        if predicted_gain(delta) <= tol:
            break
        corrected = False
        if reg_active:
            delta1, _ = gauss_newton_step(mu, system, em_phi(mu + delta, cur_prior))
            if predicted_gain(delta1) > tol:
                delta, corrected = delta1, True
        # system holds mu's Gram too: without this, `ev = None` below would not
        # free it before an accepted trial forms its own, and two would be alive
        del system
        dn = float(np.linalg.norm(delta))
        step_start, failed = model.calls, 0
        # the step's trials are mu + 2^-k delta, k = 0..max_halvings: `settled`
        # holds the exponents whose trial failed or was rejected, and `held` the
        # least exponent's trial that passed, (k, trial, evaluation, r, F_mu)
        settled: set[int] = set()
        held = None

        def probe(k: int) -> bool | None:
            """Spend one value-only call on the trial at 2^-k: whether it solved,
            or None with no call left."""
            nonlocal failed, held, budget_exhausted
            if out_of_budget():
                budget_exhausted = True
                return None
            trial = mu + 0.5 ** k * delta
            try:
                ev_k = model.evaluate(trial)
            except ForwardSolveError:
                failed += 1
                settled.add(k)
                return False
            r_k = yhat - ev_k.y
            f_k = -0.5 * mean_tau * float(r_k @ r_k) + logp_fn(trial)
            if f_k > f_curr:
                held = (k, trial, ev_k, r_k, f_k)   # the one it replaces had a larger k
            else:
                settled.add(k)    # and its evaluation is dropped on return
            return True

        accepted = False
        for k in range(_first_solving(probe, max_halvings), max_halvings + 1):
            if k not in settled and (held is None or held[0] != k):
                if probe(k) is None:
                    break
            if k in settled:
                continue
            _, trial, ev_try, r_try, f_try = held
            held = ev = None  # one Gram alive at a time: mu's goes before the trial's is formed
            try:
                ev_try = ev_try.with_jacobian()
            except ForwardSolveError:
                failed += 1
                ev_try = None
                continue
            jacobians += 1
            accepted = True
            break
        held = None           # a trial still held when the calls ran out goes with the step
        trials = model.calls - step_start
        if not accepted:
            if not budget_exhausted:
                reports.append(MuUpdateReport(accepted=False,
                                              delta_norm=dn * 0.5 ** (max_halvings + 1),
                                              f_before=f_curr, f_after=f_curr,
                                              forward_calls=trials,
                                              regularization_active=reg_active,
                                              halvings=trials, failed=failed,
                                              corrected=corrected))
            break
        reports.append(MuUpdateReport(accepted=True, delta_norm=dn * 0.5 ** k,
                                      f_before=f_curr, f_after=f_try,
                                      forward_calls=trials,
                                      regularization_active=reg_active,
                                      halvings=trials - 1, failed=failed,
                                      corrected=corrected))
        mu, ev = trial, ev_try
        accepted_count += 1
        a, b = update_q_tau(state, r_try)
        if (f_try - f_curr) <= GAIN_RTOL * (1.0 + abs(f_curr)):
            break

    if ev is None:    # the accepted trial's Jacobian failed after mu's was released
        ev = model.evaluate(mu).with_jacobian()
        jacobians += 1
    log_prior_value = 0.0
    if cur_prior is not None:
        cur_prior = em_phi(mu, cur_prior)
        log_prior_value, _ = log_prior_mu_and_grad(mu, cur_prior)
    return MuPhaseResult(mu=mu, ev=ev, a=a, b=b, prior=cur_prior, reports=reports,
                         forward_calls=model.calls - start, jacobians=jacobians,
                         log_prior_value=log_prior_value,
                         budget_exhausted=budget_exhausted)
