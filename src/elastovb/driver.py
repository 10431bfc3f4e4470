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

import time
from dataclasses import dataclass, field

import numpy as np

from ._lapack import syevr
from .config import DriverConfig, rule
from .forward import ForwardEval, ForwardModel
from .mean_update import MuPhaseRecord, SmoothPrior, update_mu
from .vb import ElboRow, ReducedPosterior, elbo, q_fixed_point

RUN_STOP_REASONS = ("info_gain", "max_bases", "full_rank")     # how `run` ends growth


def kl_terms(lambda0: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per-coordinate KL(prior, posterior) terms -log r + r - 1, r = lam/lambda0."""
    r = lam / lambda0
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
    """Stage d's gain and posterior precisions.  Its ELBO is `elbo_rows[d]` and
    its prior precisions `state.lambda0[:d]`: `add_basis` appends to lambda0
    and never rewrites it, while lam moves with <tau> at every stage."""

    d_theta: int
    info_gain: float
    gain_degenerate: bool
    sweeps: int = rule(ge=0)        # q fits in the stage: always 1 (perfbench/run.py reads it)
    lam: list[float]


@dataclass
class RunState(ReducedPosterior):
    """The posterior a run ends with, and the elements its model clamps (zero rows of W).
    Every field is required: a trace that lacks a0 is not read as the improper prior."""

    a0: float = field(kw_only=True)
    b0: float = field(kw_only=True)
    a: float = field(kw_only=True)
    b: float = field(kw_only=True)
    clamped: list[int] = field(kw_only=True)

    def __post_init__(self) -> None:
        d = self.W.shape[-1]
        if self.mu.ndim != 1 or self.W.shape != (self.d_psi, d) or not (
                self.lambda0.shape == self.lam.shape == (d,)):
            raise ValueError(f"mu {self.mu.shape} and basis {self.W.shape} do not fit "
                             f"{self.lambda0.size} prior and {self.lam.size} posterior precisions")
        if not (np.all(self.lambda0 > 0.0) and np.all(self.lam > 0.0)):
            raise ValueError("precisions lambda0 and lam must be positive")
        if not all(0 <= k < self.d_psi for k in self.clamped):
            raise ValueError(f"clamped must list element indices in [0, {self.d_psi})")
        if np.any(self.W[self.clamped] != 0.0):
            raise ValueError("the basis has nonzero rows at clamped elements")


@dataclass
class RunTrace:
    """A run as its run trace holds it, field by field."""

    stop_reason: str = rule(one_of=RUN_STOP_REASONS)
    forward_calls: int = rule(ge=1, why="the first evaluation is one call")  # the mean phase's
    records: list[StageRecord]
    elbo_rows: list[ElboRow]
    state: RunState
    mu_phase: MuPhaseRecord
    wall_time_s: float = rule(ge=0)

    def __post_init__(self) -> None:
        d = self.state.d_theta
        if [r.d_theta for r in self.elbo_rows + self.records] != [*range(d + 1), *range(1, d + 1)]:
            raise ValueError(f"elbo_rows must run over d_theta 0 to {d}, and records 1 to {d}")


def run(model: ForwardModel, yhat: np.ndarray, config: DriverConfig,
        prior: SmoothPrior | None = None, mu0: np.ndarray | None = None) -> RunTrace:
    """Full adaptive inference; deterministic given the model, data and config,
    apart from the trace's `wall_time_s`.

    Forward calls happen only in the mean phase.  The basis phase takes at
    most two partial eigendecompositions of the free-element Gram at the final
    mean (none when no basis column is allowed) and one q fixed point per
    stage.  The clamped elements are the model's `fixed_mask`: the mean phase
    leaves them at mu0 and the basis has zero rows there.
    """
    start = time.perf_counter()
    config.validate()
    if yhat.shape[0] != model.d_y:
        raise ValueError(f"observations have length {yhat.shape[0]}, model d_y is {model.d_y}")
    d_psi = model.d_psi
    mu0 = np.zeros(d_psi) if mu0 is None else mu0
    state = RunState(mu=mu0.copy(), W=np.zeros((d_psi, 0)), lambda0=np.zeros(0),
                     lam=np.zeros(0), a0=config.a0, b0=config.b0, a=0.0, b=0.0,
                     clamped=np.flatnonzero(model.fixed_mask).tolist())

    mu_res = update_mu(state, model, yhat, prior, reg_delay=config.mu_reg_delay,
                       call_budget=config.mu_call_budget)
    state.mu = mu_res.mu
    state.a, state.b = mu_res.a, mu_res.b
    ev = mu_res.ev
    r = yhat - ev.y

    e = np.zeros(0)       # |G w_i|^2 of the basis columns
    elbo_rows = [elbo(state, e, r, mu_res.log_prior_value)]

    free = model.active
    n_free = free.size
    max_bases = n_free if config.max_bases is None else min(config.max_bases, n_free)

    records: list[StageRecord] = []
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
        elbo_rows.append(elbo(state, e, r, mu_res.log_prior_value))
        degenerate = float(np.sum(kl_terms(state.lambda0, state.lam))) == 0.0
        gain = info_gain(state.lambda0, state.lam, state.d_theta)
        records.append(StageRecord(d_theta=state.d_theta, info_gain=gain,
                                   gain_degenerate=degenerate, sweeps=1,
                                   lam=state.lam.tolist()))
        if (len(records) >= config.info_gain_window
                and all(rec.info_gain < config.info_gain_threshold
                        for rec in records[-config.info_gain_window:])):
            stop_reason = "info_gain"
            break
    if stop_reason is None:
        stop_reason = "max_bases" if max_bases < n_free else "full_rank"
    return RunTrace(stop_reason=stop_reason, forward_calls=mu_res.forward_calls,
                    records=records, elbo_rows=elbo_rows, state=state,
                    mu_phase=mu_res.record, wall_time_s=time.perf_counter() - start)
