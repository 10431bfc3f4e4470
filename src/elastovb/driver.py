"""Orchestration of the full inference: mean phase, then adaptive basis growth.

The mean field is updated first (the only place forward evaluations happen).
The Jacobian G at the final mean is then frozen, so the basis that maximizes
the bound at every subspace size is known in closed form: the minor
eigenvectors of the free-element Gram matrix A_ff = G_f^T G_f, the directions
of largest linearized posterior variance.  The free elements are those outside
the model's clamp set, `model.fixed_mask`, which is the only copy of it.  Stage
d appends eigenvector d (ascending eigenvalue order) and fits q exactly from the
data terms |G w_i|^2 and the final residual alone.  Growth stops once the
relative information gain of newly added coordinates stays below a threshold
for a configured number of consecutive stages, or when a basis cap or the
free-parameter count is reached.

Only the minor end of the spectrum is decomposed: first the info_gain_window
+ 1 pairs that cover the earliest info-gain stop, then, should growth pass
them, the rest up to the cap.  The first decomposition works in place on the
free Gram the final evaluation formed with its sensitivities; only a second
one forms it again, from the same sensitivities.  G itself is never formed
(each |G w_i|^2 takes one solve), so the Gram is the only (n_free x n_free)
array alive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ._lapack import syevr
from .forward import ForwardEval, ForwardModel
from .mean_update import MuPhaseResult, SmoothPrior, update_mu
from .vb import ElboBreakdown, ReducedPosterior, elbo, q_fixed_point


@dataclass
class DriverConfig:
    lambda0_1: float = 1e-10
    info_gain_threshold: float = 0.01
    info_gain_window: int = 5
    max_bases: int | None = None
    seed: int = 0                   # unused: nothing is drawn; kept so configs load
    a0: float = 0.0
    b0: float = 0.0
    mu_reg_delay: int = 5
    mu_call_budget: int | None = 38

    def validate(self) -> None:
        if not 0.0 < self.info_gain_threshold < 1.0:
            raise ValueError("info_gain_threshold must lie in (0, 1)")
        if self.info_gain_window < 1:
            raise ValueError("info_gain_window must be >= 1")
        if self.lambda0_1 <= 0.0:
            raise ValueError("lambda0_1 must be positive")
        if self.max_bases is not None and self.max_bases < 0:
            raise ValueError("max_bases must be nonnegative")
        if not self.a0 >= 0.0:           # Gamma(a0, b0) noise prior; 0 is improper
            raise ValueError("a0 must be nonnegative")
        if not self.b0 >= 0.0:
            raise ValueError("b0 must be nonnegative")
        for key in ("mu_reg_delay", "mu_call_budget"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ValueError(f"{key} must be nonnegative, got {value}")


def kl_terms(lambda0: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per-coordinate KL(prior, posterior) terms -log r + r - 1, r = lam/lambda0."""
    r = np.asarray(lam, dtype=float) / np.asarray(lambda0, dtype=float)
    return -np.log(r) + r - 1.0


def info_gain(lambda0: np.ndarray, lam: np.ndarray, d_theta: int) -> float:
    """Fraction of the total coordinate-wise KL contributed by coordinate d_theta.

    Lies in [0, 1]; equals 1 for d_theta = 1.  If every coordinate carries zero
    divergence (posterior equals prior) the ratio is undefined and 0 is
    returned; callers can detect that case from the zero denominator.
    """
    terms = kl_terms(lambda0[:d_theta], lam[:d_theta])
    total = float(np.sum(terms))
    if total == 0.0:
        return 0.0
    return float(min(max(terms[d_theta - 1] / total, 0.0), 1.0))


def next_prior_precision(lambda0_1: float, lambda_prev: float, lambda0_prev: float) -> float:
    """Prior precision for the next coordinate: max(lambda0_1, lam_prev - lambda0_prev)."""
    return max(lambda0_1, lambda_prev - lambda0_prev)


def add_basis(state: ReducedPosterior, w: np.ndarray, lambda0_1: float) -> ReducedPosterior:
    """Append the unit column w, which the caller keeps orthogonal to the basis.

    The prior precision of the new coordinate is max(lambda0_1, lam_prev -
    lambda0_prev) = max(lambda0_1, <tau> e_prev), with e_prev the previous
    column's data term and <tau> from the previous stage; its posterior
    precision starts at the prior.  The basis columns' e ascend, but <tau>
    falls as columns are added, so lambda0 need not be nondecreasing.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (state.d_psi,):
        raise ValueError(f"basis column has shape {w.shape}, expected ({state.d_psi},)")
    if state.d_theta == 0:
        lam0_new = lambda0_1
    else:
        lam0_new = next_prior_precision(lambda0_1, float(state.lam[-1]),
                                        float(state.lambda0[-1]))
    new = state.copy()
    new.W = np.column_stack([state.W, w])
    new.lambda0 = np.append(state.lambda0, lam0_new)
    new.lam = np.append(state.lam, lam0_new)
    return new


def optimize_W(ev: ForwardEval, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs start..stop-1 of the free-element Gram A_ff = G_f^T G_f.

    Returns (vectors, eigenvalues) in ascending eigenvalue order: vectors is
    (n_free, stop - start) with orthonormal columns, row i belonging to the
    model's i-th unclamped element, `active[i]`; the caller scatters a column
    into d_psi, with exactly zero rows at the clamped elements, only when it
    takes it.  The sign of each column is fixed so that its entry of largest
    magnitude is positive, which makes the basis a function of G alone.  A_ff
    is the Gram the evaluation holds, taken over and decomposed in place; a
    later call forms it again from ev's sensitivities.  Only the requested
    pairs are computed, so the Gram is the only (n_free x n_free) array alive.
    No forward evaluation happens here.  `perfbench/tracing.py` reads `ev`,
    which the driver passes by keyword.
    """
    gram = ev.G.take_gram()
    # the Gram is symmetric, so its transpose is the same matrix in the
    # Fortran order that LAPACK overwrites without a copy
    vals, vecs = syevr(gram.T, start, stop)
    cols = np.arange(vecs.shape[1])
    vecs *= np.where(vecs[np.argmax(np.abs(vecs), axis=0), cols] < 0.0, -1.0, 1.0)
    return vecs, vals


@dataclass
class StageRecord:
    d_theta: int
    info_gain: float
    gain_degenerate: bool
    elbo: float
    sweeps: int                     # q fits in the stage: always 1 (perfbench/run.py reads it)
    lambda0: list[float]
    lam: list[float]


@dataclass
class RunTrace:
    records: list[StageRecord]
    state: ReducedPosterior
    fixed_mask: np.ndarray          # the model's clamp set the run was made under
    forward_calls: int
    stop_reason: str
    mu_result: MuPhaseResult
    elbo_rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        mu = self.mu_result
        return {
            "stop_reason": self.stop_reason,
            "forward_calls": self.forward_calls,
            "records": [asdict(r) for r in self.records],
            "elbo_rows": self.elbo_rows,
            "state": {
                "mu": self.state.mu.tolist(),
                "W": self.state.W.tolist(),
                "lambda0": self.state.lambda0.tolist(),
                "lam": self.state.lam.tolist(),
                "a0": self.state.a0, "b0": self.state.b0,
                "a": self.state.a, "b": self.state.b,
                "clamped": np.flatnonzero(self.fixed_mask).tolist(),
            },
            "mu_phase": {
                "forward_calls": mu.forward_calls,
                "jacobians": mu.jacobians,
                "budget_exhausted": mu.budget_exhausted,
                "floored_count": 0 if mu.prior is None else mu.prior.floored_count,
                "steps": [asdict(r) for r in mu.reports],
            },
        }


def state_from_dict(d: dict) -> tuple[ReducedPosterior, np.ndarray]:
    """The posterior a run trace's dict (`RunTrace.to_dict`) holds, and its clamp set.

    The clamp set is returned as a mask over the d_psi elements; the basis
    has zero rows there.  A missing key, a malformed number or a state that
    is inconsistent in itself raises KeyError, TypeError or ValueError.
    """
    s = d["state"]
    state = ReducedPosterior(
        mu=np.asarray(s["mu"], dtype=float),
        W=np.asarray(s["W"], dtype=float).reshape(len(s["mu"]), -1),
        lambda0=np.asarray(s["lambda0"], dtype=float),
        lam=np.asarray(s["lam"], dtype=float),
        a0=float(s["a0"]), b0=float(s["b0"]), a=float(s["a"]), b=float(s["b"]),
    )
    if not all(np.all(np.isfinite(x)) for x in (state.mu, state.W, state.lambda0, state.lam,
                                                 [state.a0, state.b0, state.a, state.b])):
        raise ValueError("state holds non-finite numbers")
    d = state.d_theta
    if state.lambda0.shape != (d,) or state.lam.shape != (d,):
        raise ValueError(f"state has {d} basis columns, {state.lambda0.size} prior "
                         f"and {state.lam.size} posterior precisions")
    if not (np.all(state.lambda0 > 0.0) and np.all(state.lam > 0.0)):
        raise ValueError("state precisions lambda0 and lam must be positive")
    clamped = s["clamped"]
    if not (isinstance(clamped, list)
            and all(type(k) is int and 0 <= k < state.d_psi for k in clamped)):
        raise ValueError(f"clamped must list element indices in [0, {state.d_psi})")
    fixed_mask = np.zeros(state.d_psi, dtype=bool)
    fixed_mask[clamped] = True
    if np.any(state.W[fixed_mask] != 0.0):
        raise ValueError("state basis has nonzero rows at clamped elements")
    return state, fixed_mask


def run(model: ForwardModel, yhat: np.ndarray, config: DriverConfig,
        prior: SmoothPrior | None = None, mu0: np.ndarray | None = None) -> RunTrace:
    """Full adaptive inference; deterministic given the model, data and config.

    Forward calls happen only in the mean phase.  The basis phase takes at
    most two partial eigendecompositions of the free-element Gram at the final
    mean (none when no basis column is allowed) and one q fixed point per
    stage.  The clamped elements are the model's `fixed_mask`: the mean phase
    leaves them at mu0 and the basis has zero rows there.
    """
    config.validate()
    yhat = np.asarray(yhat, dtype=float)
    if yhat.shape[0] != model.d_y:
        raise ValueError(f"observations have length {yhat.shape[0]}, model d_y is {model.d_y}")
    d_psi = model.d_psi
    mu0 = np.zeros(d_psi) if mu0 is None else np.asarray(mu0, dtype=float)
    state = ReducedPosterior(mu=mu0.copy(), W=np.zeros((d_psi, 0)),
                             lambda0=np.zeros(0), lam=np.zeros(0),
                             a0=config.a0, b0=config.b0)

    mu_res = update_mu(state, model, yhat, prior, reg_delay=config.mu_reg_delay,
                       call_budget=config.mu_call_budget)
    state.mu = mu_res.mu
    state.a, state.b = mu_res.a, mu_res.b
    ev = mu_res.ev
    log_prior_mu = mu_res.log_prior_value
    r = yhat - ev.y

    elbo_rows: list[dict] = []

    def record_elbo(br: ElboBreakdown) -> None:
        elbo_rows.append({"d_theta": state.d_theta, "f": br.total,
                          "likelihood": br.likelihood, "theta_terms": br.theta_terms,
                          "tau_terms": br.tau_terms, "log_prior_mu": br.log_prior_mu})

    e = np.zeros(0)       # |G w_i|^2 of the basis columns
    record_elbo(elbo(state, e, r, log_prior_mu))

    free = model.active
    n_free = free.size
    max_bases = n_free if config.max_bases is None else min(config.max_bases, n_free)

    records: list[StageRecord] = []
    gains: list[float] = []
    stop_reason = "max_bases" if max_bases == 0 else None
    block = min(max_bases, config.info_gain_window + 1)
    while state.d_theta < max_bases:
        if state.d_theta in (0, block):     # the first block, then the rest
            first = state.d_theta
            vecs, _ = optimize_W(ev=ev, start=first,
                                 stop=block if first == 0 else max_bases)
        w = np.zeros(d_psi)
        w[free] = vecs[:, state.d_theta - first]
        # |G w|^2 is w's eigenvalue; eigh would leave a zero one at ~eps |A_ff|
        Gw = ev.G @ w
        e = np.append(e, float(Gw @ Gw))
        state = add_basis(state, w, config.lambda0_1)
        state = q_fixed_point(state, e, r)
        br = elbo(state, e, r, log_prior_mu)
        record_elbo(br)
        terms = kl_terms(state.lambda0, state.lam)
        degenerate = float(np.sum(terms)) == 0.0
        gain = info_gain(state.lambda0, state.lam, state.d_theta)
        gains.append(gain)
        records.append(StageRecord(d_theta=state.d_theta, info_gain=gain,
                                   gain_degenerate=degenerate, elbo=br.total, sweeps=1,
                                   lambda0=state.lambda0.tolist(),
                                   lam=state.lam.tolist()))
        if (len(gains) >= config.info_gain_window
                and all(g < config.info_gain_threshold
                        for g in gains[-config.info_gain_window:])):
            stop_reason = "info_gain"
            break
    if stop_reason is None:
        stop_reason = "max_bases" if max_bases < n_free else "full_rank"
    return RunTrace(records=records, state=state, fixed_mask=model.fixed_mask,
                    forward_calls=mu_res.forward_calls, stop_reason=stop_reason,
                    mu_result=mu_res,
                    elbo_rows=elbo_rows)
