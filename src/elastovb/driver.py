"""Orchestration of the full inference: mean phase, then adaptive basis growth.

The mean field is updated first (the only place forward evaluations happen),
then reduced coordinates are added one at a time.  For each subspace size the
basis optimizer and the closed-form q updates alternate until the bound F is
stable; growth stops once the relative information gain of newly added
coordinates stays below a threshold for a configured number of consecutive
sizes, or when a basis cap or the free-parameter count is reached.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .forward import ForwardModel
from .mean_update import MuPhaseResult, SmoothPrior, update_mu
from .stiefel import optimize_W
from .vb import ReducedPosterior, elbo, q_fixed_point

SCHEMA_VERSION = 1


@dataclass
class DriverConfig:
    lambda0_1: float = 1e-10
    info_gain_threshold: float = 0.01
    info_gain_window: int = 5
    max_bases: int | None = None
    seed: int = 0
    a0: float = 0.0
    b0: float = 0.0
    mu_max_outer: int = 30
    mu_reg_delay: int = 5
    mu_max_halvings: int = 10
    mu_call_budget: int | None = 38
    w_max_iters: int = 200
    w_tol: float = 1e-9
    w_alpha_init: float = 1e-3
    q_max_iters: int = 50
    q_tol: float = 1e-10
    sweep_f_tol: float = 1e-8
    sweep_window: int = 3
    max_sweeps: int = 200

    def validate(self) -> None:
        if not 0.0 < self.info_gain_threshold < 1.0:
            raise ValueError("info_gain_threshold must lie in (0, 1)")
        if self.info_gain_window < 1:
            raise ValueError("info_gain_window must be >= 1")
        if self.lambda0_1 <= 0.0:
            raise ValueError("lambda0_1 must be positive")
        if self.max_bases is not None and self.max_bases < 0:
            raise ValueError("max_bases must be nonnegative")


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


def add_basis(state: ReducedPosterior, rng: np.random.Generator, lambda0_1: float,
              fixed_mask: np.ndarray | None = None) -> ReducedPosterior:
    """Append one random unit column orthogonal to the current basis.

    Rows of clamped elements stay zero so the subspace never moves them.  The
    prior precision of the new coordinate follows the nondecreasing schedule;
    its posterior precision starts at the prior.
    """
    d_psi = state.d_psi
    n_free = d_psi if fixed_mask is None else int(np.count_nonzero(~fixed_mask))
    if state.d_theta >= n_free:
        raise ValueError("cannot add a basis column beyond the free-parameter count")
    v = None
    for _ in range(20):
        cand = rng.standard_normal(d_psi)
        if fixed_mask is not None:
            cand[np.asarray(fixed_mask, dtype=bool)] = 0.0
        for _ in range(2):  # re-orthogonalize twice to kill rounding residue
            if state.d_theta:
                cand = cand - state.W @ (state.W.T @ cand)
        nrm = float(np.linalg.norm(cand))
        if nrm > 1e-8:
            v = cand / nrm
            break
    if v is None:
        raise RuntimeError("failed to draw a new basis direction")
    if state.d_theta == 0:
        lam0_new = lambda0_1
    else:
        lam0_new = next_prior_precision(lambda0_1, float(state.lam[-1]),
                                        float(state.lambda0[-1]))
    new = state.copy()
    new.W = np.column_stack([state.W, v])
    new.lambda0 = np.append(state.lambda0, lam0_new)
    new.lam = np.append(state.lam, lam0_new)
    return new


@dataclass
class StageRecord:
    d_theta: int
    info_gain: float
    gain_degenerate: bool
    elbo: float
    forward_calls: int
    sweeps: int
    lambda0: list[float]
    lam: list[float]


@dataclass
class RunTrace:
    records: list[StageRecord]
    state: ReducedPosterior
    forward_calls: int
    stop_reason: str
    mu_result: MuPhaseResult | None = None
    elbo_rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
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
            },
        }
        mu = self.mu_result
        if mu is not None:
            out["mu_phase"] = {
                "forward_calls": mu.forward_calls,
                "budget_exhausted": mu.budget_exhausted,
                "floored_count": 0 if mu.prior is None else mu.prior.floored_count,
                "steps": [asdict(r) for r in mu.reports],
            }
        return out


def state_from_dict(d: dict) -> ReducedPosterior:
    s = d["state"] if "state" in d else d
    return ReducedPosterior(
        mu=np.asarray(s["mu"], dtype=float),
        W=np.asarray(s["W"], dtype=float).reshape(len(s["mu"]), -1),
        lambda0=np.asarray(s["lambda0"], dtype=float),
        lam=np.asarray(s["lam"], dtype=float),
        a0=float(s["a0"]), b0=float(s["b0"]), a=float(s["a"]), b=float(s["b"]),
    )


def run(model: ForwardModel, yhat: np.ndarray, config: DriverConfig,
        prior: SmoothPrior | None = None, fixed_mask: np.ndarray | None = None,
        mu0: np.ndarray | None = None) -> RunTrace:
    """Full adaptive inference; deterministic given config.seed."""
    config.validate()
    yhat = np.asarray(yhat, dtype=float)
    if yhat.shape[0] != model.d_y:
        raise ValueError(f"observations have length {yhat.shape[0]}, model d_y is {model.d_y}")
    d_psi = model.d_psi
    mu0 = np.zeros(d_psi) if mu0 is None else np.asarray(mu0, dtype=float)
    state = ReducedPosterior(mu=mu0.copy(), W=np.zeros((d_psi, 0)),
                             lambda0=np.zeros(0), lam=np.zeros(0),
                             a0=config.a0, b0=config.b0)
    rng = np.random.default_rng(config.seed)

    mu_res = update_mu(state, model, yhat, prior,
                       max_outer=config.mu_max_outer, reg_delay=config.mu_reg_delay,
                       max_halvings=config.mu_max_halvings,
                       call_budget=config.mu_call_budget, fixed_mask=fixed_mask)
    state.mu = mu_res.mu
    state.a, state.b = mu_res.a, mu_res.b
    ev = mu_res.ev
    log_prior_mu = mu_res.log_prior_value
    calls = mu_res.forward_calls

    elbo_rows: list[dict] = []
    f0 = elbo(state, ev, yhat, log_prior_mu)
    elbo_rows.append({"d_theta": 0, "sweep": 0, "f": f0.total,
                      "likelihood": f0.likelihood, "theta_terms": f0.theta_terms,
                      "tau_terms": f0.tau_terms, "log_prior_mu": f0.log_prior_mu,
                      "forward_calls": calls})

    n_free = d_psi if fixed_mask is None else int(np.count_nonzero(~fixed_mask))
    max_bases = n_free if config.max_bases is None else min(config.max_bases, n_free)

    records: list[StageRecord] = []
    gains: list[float] = []
    stop_reason = "max_bases" if max_bases == 0 else None
    while state.d_theta < max_bases:
        state = add_basis(state, rng, config.lambda0_1, fixed_mask)
        f_hist: list[float] = []
        sweeps = 0
        for sweep in range(1, config.max_sweeps + 1):
            sweeps = sweep
            W_new, _ = optimize_W(state, ev, max_iters=config.w_max_iters,
                                  tol=config.w_tol, alpha_init=config.w_alpha_init)
            state.W = W_new
            state = q_fixed_point(state, ev, yhat, max_iters=config.q_max_iters,
                                  tol=config.q_tol)
            br = elbo(state, ev, yhat, log_prior_mu)
            f_hist.append(br.total)
            elbo_rows.append({"d_theta": state.d_theta, "sweep": sweep, "f": br.total,
                              "likelihood": br.likelihood, "theta_terms": br.theta_terms,
                              "tau_terms": br.tau_terms, "log_prior_mu": br.log_prior_mu,
                              "forward_calls": calls})
            if len(f_hist) > config.sweep_window:
                recent = f_hist[-(config.sweep_window + 1):]
                if max(recent) - min(recent) <= config.sweep_f_tol * (1.0 + abs(recent[-1])):
                    break
        terms = kl_terms(state.lambda0, state.lam)
        degenerate = float(np.sum(terms)) == 0.0
        gain = info_gain(state.lambda0, state.lam, state.d_theta)
        gains.append(gain)
        records.append(StageRecord(d_theta=state.d_theta, info_gain=gain,
                                   gain_degenerate=degenerate, elbo=f_hist[-1],
                                   forward_calls=calls, sweeps=sweeps,
                                   lambda0=state.lambda0.tolist(),
                                   lam=state.lam.tolist()))
        if (len(gains) >= config.info_gain_window
                and all(g < config.info_gain_threshold
                        for g in gains[-config.info_gain_window:])):
            stop_reason = "info_gain"
            break
    if stop_reason is None:
        stop_reason = "max_bases" if max_bases < n_free else "full_rank"
    return RunTrace(records=records, state=state, forward_calls=calls,
                    stop_reason=stop_reason, mu_result=mu_res, elbo_rows=elbo_rows)
