"""The exact q fit, the variational lower bound and the posterior statistics.

Hand-computed scalar cases pin the formulas; the general-W oracle in
`vb_oracle.py`, which reads G and iterates the conjugate updates, pins the fit
and the bound that the library computes from the data terms e_i = |G w_i|^2;
dense linear-algebra oracles pin the low-rank posterior statistics.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import digamma

import vb_oracle as oracle
from elastovb.forward import ForwardEval
from elastovb.vb import (_DIGAMMA_CUTOFF, NoisePrecisionError, ReducedPosterior, _digamma,
                         elbo, posterior_psi_stats, q_fixed_point, update_q_tau)

from conftest import concentrated_tau_prior
from linear_oracle import LinearOracleModel


def make_state(mu, W, lambda0, lam, **kw):
    return ReducedPosterior(mu=np.asarray(mu, float), W=np.asarray(W, float),
                            lambda0=np.asarray(lambda0, float),
                            lam=np.asarray(lam, float), **kw)


def data_terms(state, ev, yhat):
    """(e, r) of a state's columns at an evaluation, as the driver passes them."""
    return oracle.column_data_terms(state.W, ev.G), yhat - ev.y


# ---------------------------------------------------------------------------
# q(tau)


def test_tau_shape_counts_observations():
    # 198 observations with the improper prior: a = 0 + 198/2
    state = make_state(np.zeros(4), np.zeros((4, 0)), [], [])
    a, b = update_q_tau(state, np.full(198, 0.1))
    assert a == 99.0
    assert b == pytest.approx(0.5 * 198 * 0.01)


def test_tau_rate_reduces_to_prior_on_perfect_fit():
    state = make_state(np.zeros(3), np.zeros((3, 0)), [], [], a0=2.0, b0=5.0)
    a, b = update_q_tau(state, np.zeros(6))
    assert (a, b) == (2.0 + 3.0, 5.0)


def test_tau_scalar_toy_by_hand():
    # r = 2 so misfit/2 = 2; with one column of data term e = 0.25 and
    # lambda0 = 1, a = 1/2 and b = 2 + (e/2) b / (b + a e) = 2 + 0.125 b /
    # (b + 0.125), whose positive root is b = 1 + sqrt(5/4)
    state = make_state([0.0], [[1.0]], [1.0], [1.0])
    r = np.array([2.0])
    assert update_q_tau(state, r) == (0.5, 2.0)
    st = q_fixed_point(state, np.array([0.25]), r)
    assert st.a == 0.5
    assert st.b == pytest.approx(1.0 + math.sqrt(1.25), rel=1e-15)
    assert st.lam[0] == pytest.approx(1.0 + 0.5 / st.b * 0.25, rel=1e-15)


def test_tau_rate_collapse_raises():
    state = make_state(np.zeros(2), np.zeros((2, 0)), [], [])
    with pytest.raises(RuntimeError):
        update_q_tau(state, np.zeros(2))   # zero residual, improper prior
    with pytest.raises(RuntimeError):
        q_fixed_point(make_state(np.zeros(2), np.eye(2), [1.0, 1.0], [1.0, 1.0]),
                      np.ones(2), np.zeros(2))


def test_exact_fit_under_improper_prior_names_the_cause():
    # yhat equals the model output bit for bit, so the misfit is exactly 0
    # without relying on a solver's rounding
    state = make_state(np.zeros(2), np.zeros((2, 0)), [], [])
    y = np.array([0.3, -1.7, 2.5])
    with pytest.raises(NoisePrecisionError, match=r"zero misfit under the improper noise "
                                                  r"prior b0 = 0.*set b0 > 0"):
        update_q_tau(state, y.copy() - y)


# ---------------------------------------------------------------------------
# q(Theta), and the general-W oracle it is checked against


def test_theta_precision_formula(rng):
    G = rng.normal(size=(7, 5))
    W, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    state = make_state(np.zeros(5), W, [0.1, 0.2], [0.1, 0.2], a=4.0, b=2.0)
    ev = ForwardEval(y=np.zeros(7), G=G)
    lam = oracle.update_q_theta(state, ev)
    st = q_fixed_point(state, *data_terms(state, ev, np.ones(7)))
    for i in range(2):
        s_i = np.sum((G @ W[:, i]) ** 2)
        assert lam[i] == pytest.approx(state.lambda0[i] + 2.0 * s_i, rel=1e-14)
        assert st.lam[i] == pytest.approx(state.lambda0[i] + st.mean_tau * s_i, rel=1e-14)


def test_theta_precision_linear_in_mean_tau(rng):
    G = rng.normal(size=(6, 4))
    W, _ = np.linalg.qr(rng.normal(size=(4, 3)))
    ev = ForwardEval(y=np.zeros(6), G=G)
    s1 = make_state(np.zeros(4), W, np.ones(3), np.ones(3), a=1.0, b=1.0)
    s2 = make_state(np.zeros(4), W, np.ones(3), np.ones(3), a=3.0, b=1.0)
    lam1 = oracle.update_q_theta(s1, ev) - 1.0
    lam2 = oracle.update_q_theta(s2, ev) - 1.0
    assert np.allclose(lam2, 3.0 * lam1, rtol=1e-13)


def test_column_data_terms_empty():
    assert oracle.column_data_terms(np.zeros((3, 0)), np.zeros((2, 3))).shape == (0,)


# ---------------------------------------------------------------------------
# Joint fixed point


def test_fixed_point_self_consistent(rng):
    # the q fit depends on W and G only through e_i = |G w_i|^2, so it holds
    # for any orthonormal W: one more round of the general-W conjugate updates
    # leaves it where it is
    model = LinearOracleModel(rng.normal(size=(8, 5)))
    W, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    state = make_state(rng.normal(size=5), W, [1e-6, 1e-6, 1e-6],
                       [1e-6, 1e-6, 1e-6])
    ev = model.evaluate(state.mu).with_jacobian()
    yhat = ev.y + rng.normal(0.0, 0.05, 8)
    st = q_fixed_point(state, *data_terms(state, ev, yhat))
    lam_again = oracle.update_q_theta(st, ev)
    a_again, b_again = oracle.update_q_tau(st, ev, yhat)
    assert np.max(np.abs(lam_again - st.lam) / st.lam) < 1e-14
    assert abs(b_again - st.b) / st.b < 1e-14 and a_again == st.a
    assert np.all(st.lam >= st.lambda0)


def test_fixed_point_deterministic(rng):
    model = LinearOracleModel(rng.normal(size=(6, 4)))
    W, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    state = make_state(np.zeros(4), W, [0.5, 1.0], [0.5, 1.0])
    ev = model.evaluate(state.mu).with_jacobian()
    terms = data_terms(state, ev, np.ones(6))
    s1 = q_fixed_point(state, *terms)
    s2 = q_fixed_point(state, *terms)
    assert s1.b == s2.b and np.array_equal(s1.lam, s2.lam)


def test_rank_saturated_q_fit_reaches_its_fixed_point():
    # four columns carry all four observations and a0 = 0, so g'(0) = 1 and
    # the iterated conjugate updates contract arbitrarily slowly: the oracle's
    # fifty, from the prior precisions, stop at b = 3.92e8.  The fixed point
    # solves b^2 - b/2 - 1e10 = 0.
    ev = ForwardEval(y=np.zeros(4), G=np.eye(4))
    yhat = np.array([1.0, 0.0, 0.0, 0.0])
    state = make_state(np.zeros(4), np.eye(4), np.full(4, 1e-10), np.full(4, 1e-10))
    st = q_fixed_point(state, *data_terms(state, ev, yhat))
    assert st.b == pytest.approx(0.25 + math.sqrt(0.0625 + 1e10), rel=4e-16)
    assert np.allclose(st.lam, 1e-10 + 2.0 / st.b, rtol=1e-15, atol=0.0)


def rate_map(state, e, r, b):
    """g(b) = b0 + |r|^2/2 + 1/2 sum_i e_i b / (lambda0_i b + a e_i)."""
    a = state.a0 + 0.5 * r.size
    return state.b0 + 0.5 * float(r @ r) + 0.5 * float(np.sum(e * b / (state.lambda0 * b + a * e)))


def zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(zero_or(1e-8, 1e8), st.floats(1e-10, 1e4)), max_size=12),
       st.integers(0, 30), zero_or(1e-6, 10.0), zero_or(1e-12, 10.0), zero_or(1e-6, 30.0))
def test_q_fit_rate_is_a_fixed_point(columns, spare_obs, a0, b0, residual):
    # e ascends and may hold zeros; at most d_y of its entries are positive,
    # as for the eigenvalues of G^T G with G of d_y rows.  A positive rate
    # starts at 1e-12, so that <tau> = a/b stays finite (near 1e-308 it
    # overflows whatever the fit).
    assume(b0 + residual > 0.0)
    e = np.sort([c[0] for c in columns])
    lambda0 = np.array([c[1] for c in columns])
    r = np.zeros(max(1, int(np.count_nonzero(e)) + spare_obs))
    r[0] = residual
    d = e.size
    state = make_state(np.zeros(d), np.eye(d), lambda0, lambda0, a0=a0, b0=b0)
    fit = q_fixed_point(state, e, r)
    assert fit.a == a0 + 0.5 * r.size
    assert 0.0 < fit.b and abs(rate_map(state, e, r, fit.b) - fit.b) <= 4.0 * np.spacing(fit.b)
    assert np.array_equal(fit.lam, lambda0 + (fit.a / fit.b) * e)


# ---------------------------------------------------------------------------
# Lower bound


def test_elbo_addends_and_likelihood_formula():
    state = make_state([0.0], [[1.0]], [2.0], [3.0], a=4.0, b=8.0)
    # r = (1, 1), so the misfit is 2; |G w|^2 = 0.25, so the trace is 0.25/3
    br = elbo(state, np.array([0.25]), np.ones(2), log_prior_mu=-1.25)
    # likelihood: <tau> = 0.5
    mean_log_tau = digamma(4.0) - math.log(8.0)
    lik = -math.log(2 * math.pi) + mean_log_tau - 0.25 * (2.0 + 0.25 / 3.0)
    assert br.likelihood == pytest.approx(lik, rel=1e-14)
    # theta terms: (log 2 - 2/3 - log 3 + 1)/2
    assert br.theta_terms == pytest.approx(0.5 * (math.log(2) - 2 / 3 - math.log(3) + 1))
    assert br.log_prior_mu == -1.25
    assert br.total == pytest.approx(br.likelihood + br.theta_terms + br.tau_terms
                                     + br.log_prior_mu)


def test_tau_terms_vanish_when_posterior_equals_prior():
    # proper prior, posterior untouched: E[log p] + H cancels exactly
    state = make_state(np.zeros(2), np.zeros((2, 0)), [], [],
                       a0=1.5, b0=2.5, a=1.5, b=2.5)
    br = elbo(state, np.zeros(0), np.ones(3))
    assert br.tau_terms == 0.0


def test_tau_terms_proper_prior_closed_form():
    # KL(Gamma(a,b) || Gamma(a0,b0)) reproduced with opposite sign
    a0, b0, a, b = 2.0, 3.0, 5.0, 7.0
    state = make_state(np.zeros(1), np.zeros((1, 0)), [], [],
                       a0=a0, b0=b0, a=a, b=b)
    br = elbo(state, np.zeros(0), np.zeros(2))
    kl = ((a - a0) * digamma(a) - math.lgamma(a) + math.lgamma(a0)
          + a0 * (math.log(b) - math.log(b0)) + a * (b0 - b) / b)
    assert br.tau_terms == pytest.approx(-kl, rel=1e-12)


def test_elbo_deterministic(rng):
    G = rng.normal(size=(5, 3))
    W, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    state = make_state(rng.normal(size=3), W, [0.1, 0.3], [0.4, 0.9], a=2.0, b=3.0)
    ev = ForwardEval(y=rng.normal(size=5), G=G)
    yhat = rng.normal(size=5)
    terms = data_terms(state, ev, yhat)
    assert elbo(state, *terms).total == elbo(state, *terms).total
    # the same arithmetic as the general-W oracle, bit for bit
    assert elbo(state, *terms, log_prior_mu=0.5) == oracle.elbo(state, ev, yhat, 0.5)


# ---------------------------------------------------------------------------
# Posterior field statistics


def test_psi_stats_empty_subspace():
    state = make_state([1.0, -2.0], np.zeros((2, 0)), [], [])
    mean, std = posterior_psi_stats(state)
    assert np.array_equal(mean, [1.0, -2.0])
    assert np.array_equal(std, [0.0, 0.0])


def test_psi_stats_match_dense_covariance(rng):
    W, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    lam = np.array([2.0, 5.0, 9.0])
    state = make_state(rng.normal(size=6), W, lam / 2, lam)
    mean, std = posterior_psi_stats(state)
    dense = W @ np.diag(1.0 / lam) @ W.T
    assert np.max(np.abs(std ** 2 - np.diag(dense))) < 1e-12
    assert np.array_equal(mean, state.mu)


def test_full_rank_eigenbasis_reproduces_exact_gaussian_posterior(rng):
    # with a complete eigenvector basis, matched lambda, and a concentrated
    # tau prior, the low-rank covariance equals the exact conditional
    # posterior covariance (lambda0 I + tau A^T A)^-1
    A = rng.normal(size=(9, 4))
    tau, lam0 = 3.0, 0.7
    sig2, V = np.linalg.eigh(A.T @ A)
    lam = lam0 + tau * sig2
    state = make_state(np.zeros(4), V, np.full(4, lam0), lam)
    _, std = posterior_psi_stats(state)
    exact = np.linalg.inv(lam0 * np.eye(4) + tau * (A.T @ A))
    assert np.max(np.abs(state.W @ np.diag(1.0 / state.lam) @ state.W.T - exact)) < 1e-12
    assert np.max(np.abs(std ** 2 - np.diag(exact))) < 1e-12


# ---------------------------------------------------------------------------
# State validation and helpers


def test_mean_tau_requires_update():
    state = make_state(np.zeros(2), np.zeros((2, 0)), [], [])
    with pytest.raises(ValueError):
        state.mean_tau
    state.a, state.b = 6.0, 2.0
    assert state.mean_tau == 3.0
    assert state.mean_log_tau == pytest.approx(digamma(6.0) - math.log(2.0))


def test_digamma_matches_scipy():
    # log grid over [1e-3, 1e15]: both sides of the recurrence cutoff, the sign
    # change near 1.4616 and the shapes of a concentrated prior (~1e14)
    xs = np.concatenate([np.logspace(-3, 15, 4001),
                         np.nextafter(_DIGAMMA_CUTOFF, [0.0, np.inf]), [_DIGAMMA_CUTOFF]])
    assert xs.min() < 1.0 < _DIGAMMA_CUTOFF < xs.max()
    got = np.array([_digamma(float(x)) for x in xs])
    ref = digamma(xs)
    # absolute where |digamma| < 1, relative above
    err = np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)
    assert err.max() <= 2e-15


def test_concentrated_tau_prior_moments():
    a0, b0 = concentrated_tau_prior(2.5e7)
    assert a0 / b0 == pytest.approx(2.5e7)
    # relative sd of the prior is 1/sqrt(a0): effectively a point mass
    assert 1.0 / math.sqrt(a0) < 1e-5
    with pytest.raises(ValueError):
        concentrated_tau_prior(0.0)
