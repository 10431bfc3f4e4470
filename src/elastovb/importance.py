"""Importance-sampling validation of the variational posterior.

Draws reduced coordinates from the variational proposal q(Theta), weights them
by the tau-marginalized exact likelihood times the prior over the proposal, and
reports the effective sample size, an evidence estimate, and self-normalized
moment estimates for the latent field.  Every sample costs one value-only
forward call.  The moments are formed in the d_theta-dimensional sample space
(a weighted d_theta x d_theta covariance mapped through W), so no
(d_psi x M) array is built, and the evidence reuses the shifted weights, so
the module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import ForwardModel, ForwardSolveError
from .vb import ReducedPosterior, posterior_psi_stats

RESIDUAL_FLOOR = 1e-300


class DegenerateWeightsError(RuntimeError):
    """No sample has a finite log-weight: every forward solve failed, or every
    residual overflowed."""


@dataclass
class ISReport:
    M: int
    weights: np.ndarray                  # unnormalized (common scale factored out)
    ess: float                           # (sum w)^2 / (M sum w^2), in (0, 1]
    log_evidence: float
    evidence_constant_included: bool     # False under the improper default tau prior
    psi_mean: np.ndarray
    psi_std: np.ndarray
    discarded: int = 0


def ess(weights: np.ndarray) -> float:
    """Normalized effective sample size; invariant to rescaling the weights."""
    w = np.asarray(weights, dtype=float)
    top = float(np.max(w)) if w.size else 0.0
    if top == 0.0:
        return 0.0
    w = w / top    # squares of tiny weights would otherwise lose bits as subnormals
    total = float(np.sum(w))
    sq = float(np.sum(w * w))
    return total * total / (w.size * sq)


def _marginal_constant(a0: float, b0: float, d_y: int) -> float:
    """Residual-independent part of the marginalized log-likelihood."""
    shape = a0 + 0.5 * d_y
    if b0 > 0.0:
        return math.lgamma(shape) - shape * math.log(b0)
    return math.lgamma(shape)


def _marginal_varying(rsq: float, a0: float, b0: float, d_y: int) -> float:
    """Residual-dependent part, kept at full precision.

    Under a concentrated prior (shape ~ 1e14) the constant part is ~1e15 in
    magnitude; folding it into each sample's log weight would quantize the
    O(1) sample-to-sample variation at the float resolution of that magnitude
    (observed as artificial weight spread).  log1p isolates the variation.
    """
    shape = a0 + 0.5 * d_y
    if b0 > 0.0:
        return -shape * math.log1p(0.5 * rsq / b0)
    return -shape * math.log(max(0.5 * rsq, RESIDUAL_FLOOR))


def _fixed_tau_loglik(rsq: float, tau: float, d_y: int) -> float:
    return 0.5 * d_y * (math.log(tau) - math.log(2.0 * math.pi)) - 0.5 * tau * rsq


def run_is(state: ReducedPosterior, model: ForwardModel, yhat: np.ndarray,
           M: int, seed: int, fixed_tau: float | None = None) -> ISReport:
    """Importance sampling with q(Theta) = N(0, Lambda^-1) as the proposal.

    With fixed_tau given, the exact Gaussian likelihood at that precision is
    used instead of the tau-marginalized one (exercised by closed-form evidence
    checks).  Deterministic for a given seed; the weight reduction uses a fixed
    summation order.  A failed forward solve gives its sample zero weight;
    DegenerateWeightsError is raised when no sample keeps a finite log-weight.
    """
    if M < 2:
        raise ValueError("need at least 2 samples")
    yhat = np.asarray(yhat, dtype=float)
    d_y = yhat.shape[0]
    rng = np.random.default_rng(seed)
    thetas = rng.standard_normal((M, state.d_theta)) * (1.0 / np.sqrt(state.lam))

    log_w = np.empty(M)
    discarded = 0
    for m in range(M):
        theta = thetas[m]
        try:
            # keep y only: the evaluation's held factorization goes at once
            y = model.evaluate(state.mu + state.W @ theta).y
        except ForwardSolveError:
            log_w[m] = -np.inf
            discarded += 1
            continue
        r = yhat - y
        rsq = float(r @ r)
        if fixed_tau is None:
            ll = _marginal_varying(rsq, state.a0, state.b0, d_y)
        else:
            ll = _fixed_tau_loglik(rsq, fixed_tau, d_y)
        # log p(theta) - log q(theta) for diagonal Gaussians
        lp = 0.5 * float(np.sum(np.log(state.lambda0) - state.lambda0 * theta ** 2))
        lq = 0.5 * float(np.sum(np.log(state.lam) - state.lam * theta ** 2))
        log_w[m] = ll + (lp - lq)

    finite = np.isfinite(log_w)
    if not np.any(finite):
        raise DegenerateWeightsError(f"no finite importance weight among {M} samples "
                                     f"({discarded} forward solves failed)")
    shift = float(np.max(log_w[finite]))
    weights = np.where(finite, np.exp(log_w - shift), 0.0)
    total = float(np.sum(weights))
    log_evidence = shift + math.log(total) - math.log(M)
    wn = weights / total
    theta_mean = thetas.T @ wn
    Xc = thetas - theta_mean                # (M, d_theta)
    C = (Xc * wn[:, None]).T @ Xc           # weighted covariance of theta
    psi_mean = state.mu + state.W @ theta_mean
    psi_var = np.einsum("ij,jk,ik->i", state.W, C, state.W)
    psi_std = np.sqrt(np.maximum(psi_var, 0.0))

    constant_included = fixed_tau is not None   # the fixed-tau likelihood is normalized
    if fixed_tau is None:
        log_evidence += (_marginal_constant(state.a0, state.b0, d_y)
                         - 0.5 * d_y * math.log(2.0 * math.pi))
        if state.a0 > 0.0 and state.b0 > 0.0:
            log_evidence += state.a0 * math.log(state.b0) - math.lgamma(state.a0)
            constant_included = True
    return ISReport(M=M, weights=weights, ess=ess(weights), log_evidence=log_evidence,
                    evidence_constant_included=constant_included,
                    psi_mean=psi_mean, psi_std=psi_std, discarded=discarded)


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit.

    np.median's NaN check imports numpy.ma, about 1.3 MB of resident memory
    that nothing else in a run loads.  A sort puts NaNs last, so a NaN in
    gives NaN out.  The middle element or pair is averaged as np.mean does
    it, a sum from +0.0 divided by the count, so a -0.0 median reads +0.0.
    """
    s = np.sort(x)
    if math.isnan(s[-1]):
        return float(s[-1])
    h = s.size // 2
    if s.size % 2:
        return 0.0 + float(s[h])
    return (0.0 + float(s[h - 1]) + float(s[h])) / 2.0


def compare_vb_is(state: ReducedPosterior, report: ISReport, free_mask: np.ndarray) -> dict:
    """Max/median relative differences between VB and IS posterior moments
    over the free elements (`free_mask`).

    Mean differences are normalized by the range of the VB mean field (the
    natural scale for a log-modulus map whose entries pass through zero); std
    differences are relative to the VB std, floored to avoid division by zero.
    """
    sel = np.asarray(free_mask, bool)
    mean_vb, std_vb = (x[sel] for x in posterior_psi_stats(state))
    mean_scale = float(np.max(mean_vb) - np.min(mean_vb))
    if mean_scale == 0.0:
        mean_scale = max(float(np.max(np.abs(mean_vb))), 1.0)
    mean_rel = np.abs(report.psi_mean[sel] - mean_vb) / mean_scale
    std_rel = np.abs(report.psi_std[sel] - std_vb) / np.maximum(std_vb, 1e-12)
    return {
        "mean_rel_max": float(np.max(mean_rel)),
        "mean_rel_median": _median(mean_rel),
        "std_rel_max": float(np.max(std_rel)),
        "std_rel_median": _median(std_rel),
    }

