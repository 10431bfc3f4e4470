"""Reference q fit and bound for an arbitrary orthonormal basis W.

The library fits q from the columns' data terms |G w_i|^2 by one scalar solve
and never reads G.  These general-W forms read G directly and approach the
fixed point by iterating the two conjugate updates.  The tests use them as
the oracle for the library's stages and to score bases that are not
eigenvectors.
"""

import math

import numpy as np

from elastovb.driver import add_basis, info_gain
from elastovb.forward import ForwardEval
from elastovb.vb import ElboRow, ReducedPosterior, tau_bound_terms


def column_data_terms(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """s_i = w_i^T G^T G w_i = |G w_i|^2 for each basis column."""
    GW = G @ W
    return np.einsum("ij,ij->j", GW, GW)


def update_q_tau(state: ReducedPosterior, ev: ForwardEval, yhat: np.ndarray) -> tuple[float, float]:
    """Conjugate Gamma update: a = a0 + d_y/2, b = b0 + misfit/2 + trace/2."""
    r = yhat - ev.y
    a = state.a0 + 0.5 * yhat.shape[0]
    trace = float(np.sum(column_data_terms(state.W, ev.G) / state.lam))
    b = state.b0 + 0.5 * float(r @ r) + 0.5 * trace
    if b <= 0.0:
        raise RuntimeError(f"q(tau) rate collapsed to {b}")
    return a, b


def update_q_theta(state: ReducedPosterior, ev: ForwardEval) -> np.ndarray:
    """lambda_i = lambda0_i + <tau> |G w_i|^2; q(Theta) keeps mean zero."""
    return state.lambda0 + state.mean_tau * column_data_terms(state.W, ev.G)


def q_fixed_point(state: ReducedPosterior, ev: ForwardEval, yhat: np.ndarray,
                  max_iters: int = 50, tol: float = 1e-10) -> ReducedPosterior:
    """Iterate the two conjugate updates at fixed (mu, W, G) towards their fixed point."""
    st = state.copy()
    if st.a <= 0.0 or st.b <= 0.0:
        st.a, st.b = update_q_tau(st, ev, yhat)
    for _ in range(max_iters):
        lam_new = update_q_theta(st, ev)
        rel = float(np.max(np.abs(lam_new - st.lam) / (1.0 + np.abs(st.lam)), initial=0.0))
        st.lam = lam_new
        a_new, b_new = update_q_tau(st, ev, yhat)
        rel += abs(a_new - st.a) / (1.0 + abs(st.a)) + abs(b_new - st.b) / (1.0 + abs(st.b))
        st.a, st.b = a_new, b_new
        if rel < tol:
            break
    return st


def elbo(state: ReducedPosterior, ev: ForwardEval, yhat: np.ndarray,
         log_prior_mu: float = 0.0) -> ElboRow:
    """The variational lower bound, with the trace term formed from G and W."""
    r = yhat - ev.y
    d_y = yhat.shape[0]
    mean_tau = state.mean_tau
    trace = float(np.sum(column_data_terms(state.W, ev.G) / state.lam))
    theta_terms = 0.5 * float(np.sum(np.log(state.lambda0) - state.lambda0 / state.lam
                                     - np.log(state.lam)) + state.d_theta)
    likelihood = (-0.5 * d_y * math.log(2.0 * math.pi) + 0.5 * d_y * state.mean_log_tau
                  - 0.5 * mean_tau * float(r @ r) - 0.5 * mean_tau * trace)
    tau_terms = tau_bound_terms(state)
    return ElboRow(state.d_theta, likelihood + theta_terms + tau_terms + log_prior_mu,
                   likelihood, theta_terms, tau_terms, log_prior_mu)


def basis_phase(state: ReducedPosterior, W: np.ndarray, ev: ForwardEval, yhat: np.ndarray,
                config, log_prior_mu: float) -> tuple[list[ReducedPosterior], list[float], str]:
    """The driver's stage loop on the columns of W, with the iterated fit.

    `state` is the mean phase's (no basis column, q(tau) at the final mean).
    Returns every stage's state, its bound, and the stop reason once the
    columns of W run out or the information-gain rule stops growth.
    """
    stages, bounds, gains = [], [], []
    for k in range(W.shape[1]):
        state = q_fixed_point(add_basis(state, W[:, k], config.lambda0_1), ev, yhat)
        stages.append(state)
        bounds.append(elbo(state, ev, yhat, log_prior_mu).f)
        gains.append(info_gain(state.lambda0, state.lam, state.d_theta))
        window = gains[-config.info_gain_window:]
        if (len(gains) >= config.info_gain_window
                and all(g < config.info_gain_threshold for g in window)):
            return stages, bounds, "info_gain"
    return stages, bounds, "columns_exhausted"
