"""Adaptive subspace growth: gain statistic, precision schedule, eigenbasis, runs."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastovb.config import build_model, generate_data, initial_mu
from elastovb.driver import (DriverConfig, add_basis, info_gain, kl_terms,
                             next_prior_precision, optimize_W, run, state_from_dict)
from elastovb.forward import (CallCounter, FemForwardModel, ForwardEval,
                              LinearOracleModel)
from elastovb.mean_update import SmoothPrior
from elastovb.vb import ReducedPosterior, elbo, q_fixed_point

from conftest import example1_config


def zero_state(d_psi, d_theta=0, **kw):
    W = np.zeros((d_psi, d_theta))
    W[:d_theta, :d_theta] = np.eye(d_theta)
    lam0 = np.ones(d_theta)
    return ReducedPosterior(mu=np.zeros(d_psi), W=W, lambda0=lam0,
                            lam=lam0.copy(), **kw)


def orthonormality_defect(W):
    return float(np.max(np.abs(W.T @ W - np.eye(W.shape[1]))))


# ---------------------------------------------------------------------------
# Information gain


def test_gain_degenerate_when_posterior_equals_prior():
    lam0 = np.array([1.0, 2.0])
    assert info_gain(lam0, lam0.copy(), 2) == 0.0
    assert np.array_equal(kl_terms(lam0, lam0), np.zeros(2))


def test_gain_zero_for_uninformed_last_coordinate():
    lam0 = np.array([1.0, 1.0])
    lam = np.array([math.e, 1.0])
    assert info_gain(lam0, lam, 2) == 0.0


def test_gain_is_one_for_first_coordinate():
    assert info_gain(np.array([1.0]), np.array([7.0]), 1) == 1.0


def test_gain_splits_equal_ratios_evenly():
    # both coordinates doubled: identical terms, so the split is exactly 1/2
    assert info_gain(np.array([1.0, 2.0]), np.array([2.0, 4.0]), 2) == pytest.approx(0.5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-6, 1e6), st.floats(1e-3, 1e3)),
                min_size=1, max_size=8))
def test_gain_terms_nonnegative_and_normalized(pairs):
    lam0 = np.array([p[0] for p in pairs])
    lam = lam0 * np.array([p[1] for p in pairs])
    terms = kl_terms(lam0, lam)
    assert np.all(terms >= 0.0)
    g = info_gain(lam0, lam, len(pairs))
    assert 0.0 <= g <= 1.0


# ---------------------------------------------------------------------------
# Prior-precision schedule


def test_schedule_floor_and_formula():
    assert next_prior_precision(1e-10, 0.5, 1e-10) == 0.5 - 1e-10
    assert next_prior_precision(1e-10, 1e-10, 1e-10) == 1e-10   # floor binds
    assert next_prior_precision(2.0, 3.0, 2.5) == 2.0           # 0.5 < floor


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-12, 1.0), st.floats(1e-12, 1e6), st.floats(1e-12, 1e6))
def test_schedule_never_below_first_precision(lam0_1, lam_prev, lam0_prev):
    assert next_prior_precision(lam0_1, lam_prev, lam0_prev) >= lam0_1


# ---------------------------------------------------------------------------
# Basis growth


def test_add_basis_orthonormal_and_scheduled(rng):
    columns, _ = np.linalg.qr(rng.normal(size=(12, 5)))
    state = zero_state(12)
    for k in range(5):
        state = add_basis(state, columns[:, k], 1e-10)
        assert state.lam[-1] == state.lambda0[-1]          # starts at the prior
        state.lam = state.lam.copy()
        state.lam[-1] = state.lambda0[-1] + float(k + 1)   # pretend an update ran
        assert orthonormality_defect(state.W) < 1e-10
    assert state.d_theta == 5
    assert np.array_equal(state.W, columns)
    # each new prior precision equals the previous coordinate's excess
    assert np.allclose(state.lambda0, [1e-10, 1.0, 2.0, 3.0, 4.0], rtol=1e-12)


def test_add_basis_respects_clamp_and_cap(rng):
    fixed = np.zeros(6, dtype=bool)
    fixed[4:] = True
    G = rng.normal(size=(9, 6))
    basis, _ = optimize_W(np.flatnonzero(~fixed), ForwardEval(y=np.zeros(9), G=G))
    assert basis.shape == (6, 4)            # one column per free element, no more
    state = zero_state(6)
    for k in range(4):
        state = add_basis(state, basis[:, k], 1e-10)
    assert np.all(state.W[4:, :] == 0.0)
    assert orthonormality_defect(state.W) < 1e-10
    with pytest.raises(ValueError):
        add_basis(state, np.ones(5), 1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        DriverConfig(max_bases=-1).validate()
    with pytest.raises(ValueError):
        DriverConfig(info_gain_threshold=0.0).validate()
    with pytest.raises(ValueError):
        DriverConfig(lambda0_1=0.0).validate()
    DriverConfig().validate()


# ---------------------------------------------------------------------------
# Full runs on the linear conjugate model


@pytest.fixture
def linear_problem(rng):
    A = rng.normal(size=(8, 4)) + 2.0 * np.eye(8, 4)
    psi_true = rng.normal(size=4)
    return A, psi_true


def test_run_caps_at_max_bases(linear_problem, rng):
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 1e-3, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig(max_bases=1))
    assert trace.stop_reason == "max_bases"
    assert trace.state.d_theta == 1
    assert len(trace.records) == 1


def test_run_zero_noise_recovers_truth(linear_problem):
    A, psi_true = linear_problem
    trace = run(LinearOracleModel(A), A @ psi_true, DriverConfig())
    assert np.max(np.abs(trace.state.mu - psi_true)) < 1e-6
    assert trace.stop_reason == "full_rank"
    assert trace.state.d_theta == 4


@pytest.mark.xfail(
    strict=True,
    reason="with the pinned schedule (first prior precision 1e-10) the "
    "coordinate-KL sum is dominated by lam_1/lambda0_1 and decreases as <tau> "
    "falls with each added coordinate; measured -0.4%/stage on the benchmark")
def test_run_kl_numerator_nondecreasing(linear_problem, rng):
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig())
    totals = [float(np.sum(kl_terms(np.array(r.lambda0), np.array(r.lam))))
              for r in trace.records]
    for prev, nxt in zip(totals, totals[1:]):
        assert nxt >= prev - 1e-9 * (1.0 + abs(prev))


def test_run_prior_precisions_end_nondecreasing(linear_problem, rng):
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig())
    assert np.all(np.diff(trace.records[-1].lambda0) >= 0.0)


def test_run_counts_calls_only_in_mean_phase(linear_problem, rng):
    A, psi_true = linear_problem
    counter = CallCounter()
    model = LinearOracleModel(A, counter=counter)
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(model, yhat, DriverConfig())
    assert counter.count == trace.forward_calls == trace.mu_result.forward_calls
    assert all(r.forward_calls == trace.forward_calls for r in trace.records)


def test_run_reproducible_bit_for_bit(linear_problem, rng):
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    t1 = run(LinearOracleModel(A), yhat, DriverConfig())
    t2 = run(LinearOracleModel(A), yhat, DriverConfig())
    assert np.array_equal(t1.state.mu, t2.state.mu)
    assert np.array_equal(t1.state.W, t2.state.W)
    assert np.array_equal(t1.state.lam, t2.state.lam)
    assert t1.stop_reason == t2.stop_reason


def test_run_trace_round_trips_through_dict(linear_problem, rng):
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig(max_bases=2))
    back = state_from_dict(trace.to_dict())
    assert np.array_equal(back.mu, trace.state.mu)
    assert np.array_equal(back.W, trace.state.W)
    assert np.array_equal(back.lam, trace.state.lam)
    assert (back.a, back.b) == (trace.state.a, trace.state.b)


def test_run_rejects_mismatched_observations(linear_problem):
    A, _ = linear_problem
    with pytest.raises(ValueError):
        run(LinearOracleModel(A), np.zeros(5), DriverConfig())


def test_run_info_gain_stop_with_clamp(rng):
    # 12 parameters, 2 clamped; tiny first prior precision makes the first
    # gain term dominate, so growth stops after exactly window+1 additions
    A = rng.normal(size=(30, 12))
    A[:, 10:] = 0.0                 # clamped parameters carry no sensitivity
    psi_true = rng.normal(size=12)
    psi_true[10:] = 0.0
    fixed = np.zeros(12, dtype=bool)
    fixed[10:] = True
    yhat = A @ psi_true + rng.normal(0.0, 1e-4, 30)
    cfg = DriverConfig(info_gain_window=3)
    trace = run(LinearOracleModel(A, fixed_mask=fixed), yhat, cfg)
    assert trace.stop_reason == "info_gain"
    assert trace.state.d_theta == 4           # 1 + window consecutive low gains
    assert np.all(trace.state.W[10:, :] == 0.0)
    assert trace.records[0].info_gain == 1.0
    assert all(r.info_gain < 0.01 for r in trace.records[1:])


def test_run_without_basis_columns_takes_no_eigendecomposition(linear_problem, rng,
                                                                monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called although no basis column is allowed")

    monkeypatch.setattr("elastovb.driver.eigh", refuse)
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig(max_bases=0))
    assert (trace.stop_reason, trace.state.d_theta, trace.records) == ("max_bases", 0, [])
    trace = run(LinearOracleModel(A, fixed_mask=np.ones(4, dtype=bool)), yhat,
                DriverConfig())
    assert (trace.stop_reason, trace.state.d_theta, trace.records) == ("max_bases", 0, [])
    with pytest.raises(AssertionError, match="eigh called"):
        run(LinearOracleModel(A), yhat, DriverConfig(max_bases=1))


# ---------------------------------------------------------------------------
# The basis the driver returns, on the built-in benchmark


def run_example1(model_cls=FemForwardModel):
    cfg = example1_config()
    obs, _, _ = generate_data(cfg)
    _, mesh, bc, _, mask = build_model(cfg)
    model = model_cls(mesh, bc, fixed_mask=mask, poisson=cfg.mesh.poisson)
    prior = SmoothPrior.for_grid(mesh.nx, mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
    trace = run(model, obs.yhat, cfg.solver, prior=prior, mu0=initial_mu(cfg, mesh))
    return SimpleNamespace(trace=trace, yhat=obs.yhat, mask=mask)


@pytest.fixture(scope="module")
def example1():
    return run_example1()


def test_run_reads_the_clamp_set_from_the_model():
    # the config-built model and `run` with no mask argument: the clamped top
    # row stays out of the basis.  While `run` took the mask as a separate
    # argument, this call gave d_theta 5, 22 forward calls and all five basis
    # columns on the clamped row.
    cfg = example1_config()
    obs, _, _ = generate_data(cfg)
    model, mesh, _, _, _ = build_model(cfg)
    prior = SmoothPrior.for_grid(mesh.nx, mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
    trace = run(model, obs.yhat, cfg.solver, prior=prior, mu0=initial_mu(cfg, mesh))
    assert trace.state.d_theta == 6
    assert trace.forward_calls == 11
    assert model.fixed_mask.sum() == mesh.nx
    assert np.sum(trace.state.W[model.fixed_mask] ** 2) == 0.0


def test_basis_is_the_ordered_minor_eigenbasis(example1):
    state, ev = example1.trace.state, example1.trace.mu_result.ev
    free = ~example1.mask
    G_f = ev.G[:, free]
    A_ff = G_f.T @ G_f
    W_f = state.W[free]
    assert state.d_theta == 6
    assert orthonormality_defect(state.W) <= 1e-13
    D = W_f.T @ A_ff @ W_f
    scale = float(np.linalg.norm(A_ff, 2))
    assert np.max(np.abs(D - np.diag(np.diag(D)))) <= 1e-13 * scale
    assert np.all(np.diff(np.diag(D)) > 0.0)
    assert np.allclose(np.diag(D), np.linalg.eigvalsh(A_ff)[:6], rtol=0.0,
                       atol=1e-13 * scale)


def test_basis_clamped_rows_zero_and_signs_fixed(example1):
    W = example1.trace.state.W
    assert np.all(W[example1.mask] == 0.0)
    assert np.all(W[np.argmax(np.abs(W), axis=0), np.arange(W.shape[1])] > 0.0)


def test_basis_beats_random_frames_at_the_same_schedule(example1):
    # at the run's prior-precision schedule, no other orthonormal frame on the
    # free elements reaches a higher q-fixed-point ELBO than the driver's basis
    trace, yhat = example1.trace, example1.yhat
    state, ev = trace.state, trace.mu_result.ev
    log_prior_mu = trace.mu_result.log_prior_value
    best = elbo(state, ev, yhat, log_prior_mu).total
    free = ~example1.mask
    rng = np.random.default_rng(0)

    def score(W):
        refit = q_fixed_point(replace(state, W=W), ev, yhat)
        return elbo(refit, ev, yhat, log_prior_mu).total

    for _ in range(100):
        W = np.zeros_like(state.W)
        W[free], _ = np.linalg.qr(rng.normal(size=(int(free.sum()), state.d_theta)))
        assert score(W) < best
    for _ in range(20):                     # small rotations of the optimum
        W = state.W.copy()
        W[free], _ = np.linalg.qr(W[free] + 1e-3 * rng.normal(size=W[free].shape))
        assert score(W) < best
    assert score(state.W[:, [1, 0, 2, 3, 4, 5]]) < best   # order matters too


class RoundedJacobianModel(FemForwardModel):
    """FemForwardModel whose G carries a fixed relative perturbation of 1e-13."""

    def _evaluate(self, psi):
        ev = super()._evaluate(psi)

        def jacobian():
            G = ev.with_jacobian().G
            noise = np.random.default_rng(1).uniform(-1.0, 1.0, G.shape)
            return G * (1.0 + 1e-13 * noise)

        return ForwardEval(y=ev.y, G=None, _jacobian=jacobian)


def test_basis_stable_under_rounding_of_G(example1):
    # Measured: a 1e-13 relative change in every G moves the final mean by
    # ~4e-9 and W by ~1e-9 (the mean phase amplifies it; the eigendecomposition
    # alone moves W by ~2e-13), so 1e-8 leaves a tenfold margin.
    base = example1.trace
    other = run_example1(RoundedJacobianModel).trace
    assert other.state.d_theta == base.state.d_theta
    assert other.stop_reason == base.stop_reason
    assert other.forward_calls == base.forward_calls
    assert np.max(np.abs(other.state.W - base.state.W)) <= 1e-8


def test_run_trace_counts_mean_phase_jacobians(example1):
    # the start plus one per accepted step; example1 rejects no trial, so
    # every forward call solves a Jacobian
    mu_phase = example1.trace.to_dict()["mu_phase"]
    accepted = sum(st["accepted"] for st in mu_phase["steps"])
    assert mu_phase["jacobians"] == 1 + accepted == 11
    assert mu_phase["forward_calls"] == 11
