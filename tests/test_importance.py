"""Importance-sampling validation: weights, ESS, evidence, moment checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from elastovb.forward import ForwardEval, ForwardModel, ForwardSolveError
from elastovb.importance import (DegenerateWeightsError, _marginal_constant,
                                 _marginal_varying, _median, compare_vb_is, ess, run_is)
from elastovb.vb import ReducedPosterior, posterior_psi_stats

from conftest import concentrated_tau_prior
from linear_oracle import DenseSensitivities, LinearOracleModel


def marginal_log_likelihood(theta: np.ndarray, state: ReducedPosterior,
                            model: ForwardModel, yhat: np.ndarray) -> float:
    """log of the tau-integrated likelihood at Psi = mu + W theta, up to a constant.

    The value is log Gamma(a0 + d_y/2) - (a0 + d_y/2) log(b0 + |r|^2/2); the
    theta-independent factor (2 pi)^(-d_y/2) b0^a0 / Gamma(a0) is excluded
    (it cancels in normalized weights).  It is assembled from the two parts
    run_is uses, so the quadrature checks below cover them.
    """
    ev = model.evaluate(state.mu + state.W @ theta)
    r = yhat - ev.y
    rsq, d_y = float(r @ r), yhat.shape[0]
    return (_marginal_constant(state.a0, state.b0, d_y)
            + _marginal_varying(rsq, state.a0, state.b0, d_y))


def fixed_tau_log_evidence(state: ReducedPosterior, A: np.ndarray, offset: np.ndarray,
                           yhat: np.ndarray, tau: float) -> float:
    """Closed-form log p(yhat | mu, W) for a linear model at known noise precision.

    Marginalizes Theta analytically: yhat ~ N(A mu + offset, tau^-1 I + (AW)
    Lambda0^-1 (AW)^T).  Used as the oracle against the IS evidence estimate.
    """
    d_y = yhat.shape[0]
    mean = A @ state.mu + offset
    C = np.eye(d_y) / tau
    if state.d_theta:
        AW = A @ state.W
        C = C + (AW / state.lambda0[None, :]) @ AW.T
    sign, logdet = np.linalg.slogdet(C)
    if sign <= 0:
        raise RuntimeError("covariance not positive definite")
    r = yhat - mean
    return -0.5 * (d_y * math.log(2.0 * math.pi) + logdet + float(r @ np.linalg.solve(C, r)))


class RefusingModel(ForwardModel):
    """Linear model that fails whenever the first parameter is positive."""

    def __init__(self, A):
        self.A = A
        super().__init__()

    @property
    def d_psi(self):
        return self.A.shape[1]

    @property
    def d_y(self):
        return self.A.shape[0]

    def _evaluate(self, psi):
        if psi[0] > 0.0:
            raise ForwardSolveError("refused")
        return ForwardEval(y=self.A @ psi, G=None,
                           _jacobian=lambda: DenseSensitivities(self.A, self.active))


def point_state(mu, a0=0.0, b0=0.0):
    mu = np.asarray(mu, float)
    return ReducedPosterior(mu=mu, W=np.zeros((mu.size, 0)),
                            lambda0=np.zeros(0), lam=np.zeros(0), a0=a0, b0=b0)


def conjugate_state(A, yhat, tau, lambda0):
    """Exact conditional posterior of the linear model in its eigenbasis.

    The mean sits at the least-squares solution, so the coordinate posterior
    is zero-mean with the diagonal precision lambda0 + tau sigma_i^2; the
    proposal then coincides with the exact posterior.
    """
    sig2, V = np.linalg.eigh(A.T @ A)
    lam = lambda0 + tau * sig2
    mu = np.linalg.lstsq(A, yhat, rcond=None)[0]
    return ReducedPosterior(mu=mu, W=V, lambda0=np.full(A.shape[1], lambda0),
                            lam=lam)


# ---------------------------------------------------------------------------
# Effective sample size


def test_ess_equal_weights_is_one():
    assert ess(np.full(50, 0.3)) == pytest.approx(1.0, abs=1e-15)


def test_ess_single_atom_is_one_over_m():
    w = np.zeros(20)
    w[7] = 5.0
    assert ess(w) == pytest.approx(1.0 / 20.0, abs=1e-15)


def test_ess_all_zero():
    assert ess(np.zeros(4)) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=40).filter(
    lambda w: sum(w) > 0),
    st.floats(1e-6, 1e6))
@example([1.7132633813440214e-155, 1.7132633813440214e-155], 0.0625)  # subnormal squares
def test_ess_rescaling_invariance(w, c):
    w = np.array(w)
    # no ESS can be invariant when scaling rounds a weight (w = [0, 5e-324]
    # at c = 0.5 underflows to all zeros), so keep the weights that scale exactly
    assume(np.allclose((c * w) / c, w, rtol=1e-15, atol=0))
    assert abs(ess(w) - ess(c * w)) <= 1e-12


# ---------------------------------------------------------------------------
# Marginalized likelihood


def test_equal_residuals_equal_likelihood():
    A = np.eye(2)
    state = ReducedPosterior(mu=np.zeros(2), W=np.eye(2),
                             lambda0=np.ones(2), lam=np.ones(2))
    model = LinearOracleModel(A)
    yhat = np.zeros(2)
    v1 = marginal_log_likelihood(np.array([1.0, 0.0]), state, model, yhat)
    v2 = marginal_log_likelihood(np.array([0.0, -1.0]), state, model, yhat)
    assert v1 == v2


@pytest.mark.parametrize("a0,b0", [(0.0, 0.0), (2.0, 3.0)])
def test_marginal_likelihood_matches_quadrature(a0, b0):
    # integrate tau^(a0 + d_y/2 - 1) exp(-tau (b0 + rsq/2)) numerically
    yhat = np.array([1.5, 0.5, 0.0])        # rsq = 2.5 against y = 0
    rsq = float(yhat @ yhat)
    d_y = 3
    state = point_state(np.zeros(1), a0=a0, b0=b0)
    model = LinearOracleModel(np.zeros((3, 1)))
    got = marginal_log_likelihood(np.zeros(0), state, model, yhat)
    rate = b0 + 0.5 * rsq
    integral, err = quad(lambda t: t ** (a0 + 0.5 * d_y - 1.0) * math.exp(-rate * t),
                         0.0, np.inf)
    assert got == pytest.approx(math.log(integral), rel=1e-6)


def test_zero_residual_hits_floor_without_overflow():
    state = point_state(np.zeros(1))
    model = LinearOracleModel(np.zeros((2, 1)))
    v = marginal_log_likelihood(np.zeros(0), state, model, np.zeros(2))
    assert np.isfinite(v)
    assert v > 600.0        # -log of the 1e-300 floor dominates


# ---------------------------------------------------------------------------
# Sampling runs


def test_run_is_requires_two_samples():
    state = point_state(np.zeros(1))
    model = LinearOracleModel(np.zeros((2, 1)))
    with pytest.raises(ValueError, match="need at least 2 samples"):
        run_is(state, model, np.zeros(2), 1, 0)
    assert run_is(state, model, np.zeros(2), 2, 0).weights.tolist() == [1.0, 1.0]


def test_run_is_deterministic(rng):
    A = rng.normal(size=(6, 3))
    yhat = rng.normal(size=6)
    state = conjugate_state(A, yhat, tau=4.0, lambda0=1.0)
    r1 = run_is(state, LinearOracleModel(A), yhat, 64, seed=5, fixed_tau=4.0)
    r2 = run_is(state, LinearOracleModel(A), yhat, 64, seed=5, fixed_tau=4.0)
    assert np.array_equal(r1.weights, r2.weights)
    assert r1.log_evidence == r2.log_evidence


def test_point_posterior_all_weights_equal(rng):
    # no reduced coordinates: every draw is the same field, ESS is exactly 1;
    # a Gamma prior with a zero shape or rate is improper, so its constant
    # b0^a0 / Gamma(a0) is left out of the evidence, as at a0 = b0 = 0
    A = rng.normal(size=(5, 2))
    yhat = rng.normal(size=5)
    for a0, b0 in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
        state = point_state(np.array([0.3, -0.2]), a0=a0, b0=b0)
        rep = run_is(state, LinearOracleModel(A), yhat, 32, seed=0)
        assert rep.ess == 1.0
        assert np.array_equal(rep.psi_mean, state.mu)
        assert np.array_equal(rep.psi_std, np.zeros(2))
        r = yhat - A @ state.mu
        shape = a0 + 2.5
        expected = (math.lgamma(shape) - shape * math.log(b0 + 0.5 * float(r @ r))
                    - 2.5 * math.log(2.0 * math.pi))
        assert rep.log_evidence == pytest.approx(expected, rel=1e-12)
        assert not rep.evidence_constant_included


def test_point_posterior_evidence_under_a_proper_noise_prior(rng):
    # with no reduced coordinate every sample has the same weight, so log Z is
    # the Student-t marginal of the data at the mean, Gamma prior constant included
    A = rng.normal(size=(5, 2))
    yhat = rng.normal(size=5)
    a0, b0 = 2.0, 3.0
    state = point_state(np.array([0.3, -0.2]), a0=a0, b0=b0)
    rep = run_is(state, LinearOracleModel(A), yhat, 8, seed=0)
    r = yhat - A @ state.mu
    shape = a0 + 2.5
    expected = (math.lgamma(shape) - math.lgamma(a0) + a0 * math.log(b0)
                - shape * math.log(b0 + 0.5 * float(r @ r)) - 2.5 * math.log(2.0 * math.pi))
    assert rep.ess == 1.0
    assert rep.log_evidence == pytest.approx(expected, rel=1e-12)
    assert rep.evidence_constant_included


def test_perfect_proposal_unit_ess_and_exact_evidence(rng):
    # proposal equal to the exact conjugate posterior: constant weights and a
    # zero-variance evidence estimate matching the closed form
    A = rng.normal(size=(10, 4))
    psi_true = rng.normal(size=4)
    tau = 30.0
    yhat = A @ psi_true + rng.normal(0.0, 1.0 / math.sqrt(tau), 10)
    state = conjugate_state(A, yhat, tau=tau, lambda0=0.5)
    rep = run_is(state, LinearOracleModel(A), yhat, 200, seed=1, fixed_tau=tau)
    assert rep.ess > 1.0 - 1e-9
    oracle = fixed_tau_log_evidence(state, A, np.zeros(10), yhat, tau)
    assert rep.log_evidence == pytest.approx(oracle, rel=1e-9)
    assert rep.evidence_constant_included


def test_concentrated_prior_weights_keep_full_precision(rng):
    # the tau-marginalized path with shape ~ 1e14: the huge constant must not
    # be folded into per-sample log weights, or their O(1) variation collapses
    # to the float resolution at that magnitude
    A = rng.normal(size=(10, 4))
    tau = 30.0
    yhat = A @ rng.normal(size=4) + rng.normal(0.0, 1.0 / math.sqrt(tau), 10)
    state = conjugate_state(A, yhat, tau=tau, lambda0=0.5)
    state.a0, state.b0 = concentrated_tau_prior(tau)
    rep = run_is(state, LinearOracleModel(A), yhat, 300, seed=4)
    assert rep.ess > 1.0 - 1e-6
    assert rep.evidence_constant_included


def test_mismatched_proposal_lowers_ess_but_keeps_evidence(rng):
    # widen the proposal: weights spread out, the estimate stays consistent
    A = rng.normal(size=(10, 4))
    tau = 30.0
    yhat = A @ rng.normal(size=4) + rng.normal(0.0, 1.0 / math.sqrt(tau), 10)
    state = conjugate_state(A, yhat, tau=tau, lambda0=0.5)
    state.lam = state.lam * 0.7
    rep = run_is(state, LinearOracleModel(A), yhat, 4000, seed=2, fixed_tau=tau)
    assert rep.ess < 1.0 - 1e-6
    oracle = fixed_tau_log_evidence(state, A, np.zeros(10), yhat, tau)
    # self-normalized spread gives a rough standard error for the log estimate
    se = math.sqrt((1.0 / (rep.ess * rep.M)) - 1.0 / rep.M + 1e-18)
    assert abs(rep.log_evidence - oracle) < 5.0 * se + 1e-3


def test_discarded_samples_are_counted_and_zero_weighted(rng):
    A = rng.normal(size=(4, 2))
    state = ReducedPosterior(mu=np.zeros(2), W=np.eye(2),
                             lambda0=np.ones(2), lam=np.ones(2))
    model = RefusingModel(A)
    rep = run_is(state, model, rng.normal(size=4), 100, seed=3)
    assert 0 < rep.discarded < 100          # about half the draws refused
    assert int(np.sum(rep.weights == 0.0)) >= rep.discarded
    assert model.calls == 100               # a refused draw costs its call too
    assert rep.ess > 0.0
    assert np.isfinite(rep.log_evidence)


def widened_state(rng, d_psi, d_theta):
    """A state whose proposal is wider than the prior, so the weights spread."""
    W, _ = np.linalg.qr(rng.normal(size=(d_psi, d_theta)))
    lam = np.linspace(1.0, 3.0, d_theta)
    return ReducedPosterior(mu=rng.normal(size=d_psi), W=W, lambda0=2.0 * lam, lam=lam)


def test_run_is_moments_and_evidence_match_explicit_forms(rng):
    # oracle: redraw run_is's samples, weight each field psi_m = mu + W theta_m
    # explicitly, and take the log evidence as a logsumexp of the log weights
    A = rng.normal(size=(8, 6))
    yhat = rng.normal(size=8)
    tau, M, seed = 3.0, 400, 7
    state = widened_state(rng, 6, 3)
    rep = run_is(state, RefusingModel(A), yhat, M, seed=seed, fixed_tau=tau)
    assert 0 < rep.discarded < M and rep.ess < 0.9

    thetas = np.random.default_rng(seed).standard_normal((M, 3)) / np.sqrt(state.lam)
    psis = state.mu + thetas @ state.W.T                  # (M, d_psi)
    ok = psis[:, 0] <= 0.0                                # RefusingModel's accepted draws
    rsq = np.sum((yhat - psis @ A.T) ** 2, axis=1)
    log_w = (0.5 * yhat.size * (math.log(tau) - math.log(2.0 * math.pi)) - 0.5 * tau * rsq
             + 0.5 * np.sum(np.log(state.lambda0) - state.lambda0 * thetas ** 2, axis=1)
             - 0.5 * np.sum(np.log(state.lam) - state.lam * thetas ** 2, axis=1))
    assert rep.log_evidence == pytest.approx(logsumexp(log_w[ok]) - math.log(M), rel=1e-14)

    assert np.array_equal(rep.weights == 0.0, ~ok)
    wn = rep.weights / np.sum(rep.weights)
    mean = wn @ psis
    std = np.sqrt(wn @ (psis - mean) ** 2)
    assert rep.psi_mean == pytest.approx(mean, rel=1e-12)
    assert rep.psi_std == pytest.approx(std, rel=1e-12)


def test_run_is_builds_no_field_by_sample_array(rng):
    # the moments need only d_theta x d_theta work arrays: the traced peak
    # stays below one (d_psi x M) float array
    d_psi, M = 400, 1000
    A = rng.normal(size=(10, d_psi))
    state = widened_state(rng, d_psi, 6)
    model, yhat = LinearOracleModel(A), rng.normal(size=10)
    tracemalloc.start()
    try:
        rep = run_is(state, model, yhat, M, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ess > 0.0 and np.all(rep.psi_std > 0.0)
    assert peak < d_psi * M * 8


def test_all_discarded_flags_degenerate():
    A = np.ones((3, 1))

    class AlwaysFails(RefusingModel):
        def _evaluate(self, psi):
            raise ForwardSolveError("no")

    state = ReducedPosterior(mu=np.zeros(1), W=np.eye(1),
                             lambda0=np.ones(1), lam=np.ones(1))
    model = AlwaysFails(A)
    # no weight and no -inf evidence to report: a named numerical failure
    with pytest.raises(DegenerateWeightsError, match="8 forward solves failed"):
        run_is(state, model, np.zeros(3), 8, seed=0)
    assert model.calls == 8


def test_all_residuals_overflowing_is_degenerate():
    # every solve succeeds, but each |r|^2 overflows to inf: no weight is finite
    state = ReducedPosterior(mu=np.zeros(1), W=np.eye(1),
                             lambda0=np.ones(1), lam=np.ones(1))
    model = LinearOracleModel(np.full((3, 1), 1e200))
    with pytest.raises(DegenerateWeightsError, match="0 forward solves failed"):
        run_is(state, model, np.zeros(3), 8, seed=0)
    assert model.calls == 8


# ---------------------------------------------------------------------------
# Moment comparison report


# a small pool makes ties (and signed-zero ties) common among arbitrary floats
MEDIAN_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])


@given(st.lists(st.one_of(MEDIAN_TIES, st.floats()), min_size=1, max_size=41))
@example([3.0])
@example([2.0, 1.0, 2.0, 1.0])
@example([-math.inf, 1.0, math.inf])
@example([-math.inf, math.inf])
@example([math.inf, 1e308, math.inf, 1e308])
@example([-0.0, 0.0, -0.0])
@example([1.0, math.nan, 2.0])
@example([math.nan, 1.0])
def test_median_matches_numpy_bit_for_bit(xs):
    x = np.array(xs)
    with np.errstate(all="ignore"):     # np.mean's inf - inf and overflow warnings
        expected = float(np.median(x))
    got = _median(x)
    assert got.hex() == expected.hex()
    if any(math.isnan(v) for v in xs):
        assert math.isnan(got)


def test_compare_vb_is_normalizations(rng):
    W, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    lam = np.array([4.0, 9.0])
    state = ReducedPosterior(mu=np.linspace(0.0, 2.0, 5), W=W,
                             lambda0=lam / 2, lam=lam)
    mean_vb, std_vb = posterior_psi_stats(state)
    rep = run_is(state, LinearOracleModel(np.zeros((3, 5))), np.ones(3), 4, seed=0)
    rep.psi_mean = mean_vb + 0.05 * 2.0     # shift by 5% of the mean range
    rep.psi_std = std_vb * 1.10
    cmp = compare_vb_is(state, rep, free_mask=np.ones(5, bool))
    assert cmp["mean_rel_max"] == pytest.approx(0.05)
    assert cmp["mean_rel_median"] == pytest.approx(0.05)
    assert cmp["std_rel_max"] == pytest.approx(0.10)
    assert cmp["std_rel_median"] == pytest.approx(0.10)
    assert set(cmp) == {"mean_rel_max", "mean_rel_median", "std_rel_max", "std_rel_median"}


@pytest.mark.parametrize("level,scale", [(2.0, 2.0), (-0.3, 1.0)])
def test_compare_vb_is_scales_a_constant_mean_by_its_size(level, scale, rng):
    # a flat VB mean has no range: its magnitude, at least 1, is the scale
    W, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    state = ReducedPosterior(mu=np.full(5, level), W=W, lambda0=np.ones(2), lam=np.ones(2))
    rep = run_is(state, LinearOracleModel(np.zeros((3, 5))), np.ones(3), 4, seed=0)
    mean_vb, _ = posterior_psi_stats(state)
    rep.psi_mean = mean_vb + 0.1
    cmp = compare_vb_is(state, rep, free_mask=np.ones(5, bool))
    assert cmp["mean_rel_max"] == pytest.approx(0.1 / scale)
    assert cmp["mean_rel_median"] == pytest.approx(0.1 / scale)


def test_compare_vb_is_respects_free_mask(rng):
    W, _ = np.linalg.qr(rng.normal(size=(4, 1)))
    state = ReducedPosterior(mu=np.array([0.0, 1.0, 2.0, 50.0]), W=W,
                             lambda0=np.ones(1), lam=np.ones(1))
    rep = run_is(state, LinearOracleModel(np.zeros((2, 4))), np.ones(2), 4, seed=0)
    free = np.array([True, True, True, False])
    mean_vb, _ = posterior_psi_stats(state)
    rep.psi_mean = mean_vb.copy()
    rep.psi_mean[3] += 100.0                # clamped element, excluded from summary
    cmp = compare_vb_is(state, rep, free_mask=free)
    assert cmp["mean_rel_max"] == pytest.approx(0.0, abs=1e-12)
