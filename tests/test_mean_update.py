"""Mean-field Gauss-Newton phase and the hierarchical jump-penalty prior."""

import numpy as np
import pytest

from elastovb.config import build_model, example1_config, generate_data, initial_mu
from elastovb.forward import (CallCounter, FemForwardModel, ForwardEval,
                              ForwardModel, LinearOracleModel, free_dofs)
from elastovb.mean_update import (MuUpdateReport, SmoothPrior, em_phi,
                                  gauss_newton_step, log_prior_mu_and_grad,
                                  neighbor_pairs, update_mu)
from elastovb.mesh_fem import Mesh2D
from elastovb.vb import ReducedPosterior


def empty_state(d, a0=1.0, b0=1.0):
    return ReducedPosterior(mu=np.zeros(d), W=np.zeros((d, 0)),
                            lambda0=np.zeros(0), lam=np.zeros(0), a0=a0, b0=b0)


def pair_operator(pairs, n):
    L = np.zeros((len(pairs), n))
    for j, (k, l) in enumerate(pairs):
        L[j, k], L[j, l] = 1.0, -1.0
    return L


# ---------------------------------------------------------------------------
# Neighbor structure and E-step


def test_neighbor_pairs_grid_count_and_membership():
    pairs = neighbor_pairs(3, 2)
    assert pairs.shape == (2 * 2 + 3 * 1, 2)
    as_set = {tuple(sorted(p)) for p in pairs.tolist()}
    assert (0, 1) in as_set and (1, 2) in as_set      # first row
    assert (0, 3) in as_set and (2, 5) in as_set      # vertical
    assert (0, 4) not in as_set                       # no diagonals


def test_em_phi_inverse_square_jumps():
    prior = SmoothPrior(pairs=np.array([[0, 1], [1, 2]]))
    mu = np.array([0.0, 3.0, 3.5])
    post = em_phi(mu, prior)
    assert np.allclose(post.mean_phi, [1.0 / 9.0, 1.0 / 0.25], rtol=1e-14)
    assert post.floored_count == 0


def test_em_phi_floor_on_constant_field():
    prior = SmoothPrior.for_grid(3, 3)
    post = em_phi(np.full(9, 2.0), prior)
    assert post.floored_count == post.d_pairs
    assert np.all(post.b_post == 1e-12)
    assert np.all(post.mean_phi == 0.5 / 1e-12)


def test_prior_validation():
    with pytest.raises(ValueError):
        SmoothPrior(pairs=np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        SmoothPrior(pairs=np.array([[0, 1]])).mean_phi


# ---------------------------------------------------------------------------
# Surrogate log-prior


def test_log_prior_gradient_matches_finite_differences(rng):
    prior = em_phi(rng.normal(size=6), SmoothPrior.for_grid(3, 2, 1.0, 1.0))
    mu = rng.normal(size=6)
    value, grad = log_prior_mu_and_grad(mu, prior)
    eps = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = eps
        fd = (log_prior_mu_and_grad(mu + e, prior)[0]
              - log_prior_mu_and_grad(mu - e, prior)[0]) / (2 * eps)
        assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-9)


def test_log_prior_zero_on_constant_field():
    prior = em_phi(np.zeros(4), SmoothPrior.for_grid(2, 2, 1.0, 1.0))
    value, grad = log_prior_mu_and_grad(np.full(4, 7.3), prior)
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(4))


# ---------------------------------------------------------------------------
# Gauss-Newton system


def test_unregularized_step_solves_least_squares(rng):
    A = rng.normal(size=(9, 4))
    yhat = rng.normal(size=9)
    mu = rng.normal(size=4)
    model = LinearOracleModel(A)
    delta, floored = gauss_newton_step(mu, model.evaluate(mu), yhat,
                                       mean_tau=3.0, prior=None,
                                       regularization_active=False)
    target = np.linalg.lstsq(A, yhat, rcond=None)[0]
    assert np.max(np.abs((mu + delta) - target)) < 1e-10
    assert not floored


def test_scalar_newton_step_by_hand():
    model = LinearOracleModel(np.array([[2.0]]))
    mu = np.array([1.0])
    delta, _ = gauss_newton_step(mu, model.evaluate(mu), np.array([6.0]),
                                 mean_tau=5.0, prior=None,
                                 regularization_active=False)
    assert delta[0] == pytest.approx(2.0, rel=1e-14)


def test_singular_system_records_tikhonov_floor():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])      # rank one
    model = LinearOracleModel(A)
    mu = np.zeros(2)
    delta, floored = gauss_newton_step(mu, model.evaluate(mu), np.array([1.0, 2.0]),
                                       mean_tau=1.0, prior=None,
                                       regularization_active=False)
    assert floored
    assert np.all(np.isfinite(delta))


def test_clamped_components_stay_exactly_zero(rng):
    A = rng.normal(size=(8, 5))
    model = LinearOracleModel(A)
    mu = rng.normal(size=5)
    yhat = rng.normal(size=8)
    fixed = np.array([False, True, False, False, True])
    delta, _ = gauss_newton_step(mu, model.evaluate(mu), yhat,
                                 mean_tau=2.0, prior=None,
                                 regularization_active=False, fixed_mask=fixed)
    assert delta[1] == 0.0 and delta[4] == 0.0
    free = ~fixed
    H = 2.0 * (A.T @ A)
    rhs = 2.0 * (A.T @ (yhat - A @ mu))
    resid = H[np.ix_(free, free)] @ delta[free] - rhs[free]
    assert np.max(np.abs(resid)) < 1e-10


def test_regularized_system_matches_dense_construction(rng):
    A = rng.normal(size=(10, 6))
    model = LinearOracleModel(A)
    mu = rng.normal(size=6)
    yhat = rng.normal(size=10)
    prior = em_phi(mu, SmoothPrior.for_grid(3, 2, 2.0, 1.0))
    tau = 4.0
    delta, _ = gauss_newton_step(mu, model.evaluate(mu), yhat, tau, prior,
                                 regularization_active=True)
    L = pair_operator(prior.pairs, 6)
    P = L.T @ np.diag(prior.mean_phi) @ L
    H = tau * (A.T @ A) + P
    rhs = tau * (A.T @ (yhat - A @ mu)) - P @ mu
    assert np.max(np.abs(H @ delta - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# Full mean phase


def test_stationary_at_exact_data(rng):
    A = rng.normal(size=(7, 4))
    psi_true = rng.normal(size=4)
    model = LinearOracleModel(A)
    yhat = A @ psi_true
    state = empty_state(4)
    state.mu = psi_true.copy()
    res = update_mu(state, model, yhat)
    assert np.array_equal(res.mu, psi_true)
    assert res.reports == []
    assert res.forward_calls == 1


def test_no_trial_call_for_a_gain_below_tolerance(rng):
    # one tiny step from the optimum the Gauss-Newton model predicts a gain
    # far below the stop tolerance, so the phase ends without a trial call
    A = rng.normal(size=(7, 4))
    psi_true = rng.normal(size=4)
    counter = CallCounter()
    model = LinearOracleModel(A, counter=counter)
    state = empty_state(4, a0=1e8, b0=1e8)          # pins <tau> ~= 1
    state.mu = psi_true + 1e-7
    res = update_mu(state, model, A @ psi_true)
    assert res.reports == []
    assert res.forward_calls == counter.count == 1
    assert np.array_equal(res.mu, state.mu)


class ScaledJacobianModel(ForwardModel):
    """Delegates to another model and scales its Jacobian by a constant."""

    def __init__(self, inner, scale):
        super().__init__(inner.counter)
        self.inner = inner
        self.scale = scale

    @property
    def d_psi(self):
        return self.inner.d_psi

    @property
    def d_y(self):
        return self.inner.d_y

    def _evaluate(self, psi, jacobian):
        ev = self.inner._evaluate(psi, jacobian)
        return ForwardEval(y=ev.y, G=None if ev.G is None else ev.G * self.scale)


def test_example1_call_count_robust_to_jacobian_rounding():
    # a relative change of ~1e-15 in G must not change how many forward calls
    # the mean phase spends on the benchmark configuration (a step-norm stop
    # spent 21, 27 and 24 calls at the first, third and fourth scale)
    cfg = example1_config()
    obs, _, _ = generate_data(cfg)
    model, mesh, _, _, clamp = build_model(cfg)
    s = cfg.solver
    calls = []
    for scale in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 3e-15):
        state = empty_state(mesh.n_elems, a0=s.a0, b0=s.b0)
        state.mu = initial_mu(cfg, mesh)
        prior = SmoothPrior.for_grid(mesh.nx, mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
        res = update_mu(state, ScaledJacobianModel(model, scale), obs.yhat, prior,
                        max_outer=s.mu_max_outer, reg_delay=s.mu_reg_delay,
                        max_halvings=s.mu_max_halvings, call_budget=s.mu_call_budget,
                        fixed_mask=clamp)
        assert not res.budget_exhausted
        assert sum(rep.halvings for rep in res.reports) == 0
        calls.append(res.forward_calls)
    assert calls == [calls[0]] * 4


def test_accepted_steps_strictly_improve_fem_objective(rng):
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    from conftest import compression_bc
    bc = compression_bc(mesh)
    model = FemForwardModel(mesh, bc, free_dofs(mesh, bc))
    psi_true = rng.normal(0.0, 0.4, 9)
    y_true = model.evaluate(psi_true).y
    yhat = y_true + rng.normal(0.0, 1e-4 * float(np.std(y_true)), y_true.size)
    res = update_mu(empty_state(9, a0=0.0, b0=0.0), model, yhat)
    assert any(rep.accepted for rep in res.reports)
    for rep in res.reports:
        if rep.accepted:
            assert rep.f_after > rep.f_before
    r0 = yhat - model.evaluate(np.zeros(9)).y
    r1 = yhat - res.ev.y
    assert r1 @ r1 < r0 @ r0


def test_em_map_fixed_point_stationarity(rng):
    # linear model with regularization from the first step: the phase should
    # land where tau A^T (yhat - A mu) = L^T <Phi> L mu at self-consistent Phi
    A = rng.normal(size=(12, 5))
    psi_true = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    tau = 50.0
    yhat = A @ psi_true + rng.normal(0.0, 1.0 / np.sqrt(tau), 12)
    model = LinearOracleModel(A)
    prior = SmoothPrior.for_grid(5, 1, a_phi=1.0, b_phi=1.0)
    state = empty_state(5, a0=tau * 1e8, b0=1e8)      # pins <tau> ~= tau
    res = update_mu(state, model, yhat, prior=prior, reg_delay=0, max_outer=200)
    post = em_phi(res.mu, res.prior)
    L = pair_operator(post.pairs, 5)
    P = L.T @ np.diag(post.mean_phi) @ L
    grad = (res.a / res.b) * (A.T @ (yhat - A @ res.mu)) - P @ res.mu
    scale = (res.a / res.b) * float(np.linalg.norm(A.T @ yhat)) + 1.0
    assert np.linalg.norm(grad) / scale < 1e-6


def test_call_budget_accounting(rng):
    A = rng.normal(size=(6, 3))
    counter = CallCounter()
    model = LinearOracleModel(A, counter=counter)
    yhat = rng.normal(size=6)
    res = update_mu(empty_state(3), model, yhat, call_budget=2)
    assert res.budget_exhausted
    assert res.forward_calls == counter.count == 2


def test_report_validation():
    with pytest.raises(ValueError):
        MuUpdateReport(accepted=True, delta_norm=1.0, f_before=0.0,
                       f_after=0.0, forward_calls=1, regularization_active=False)
