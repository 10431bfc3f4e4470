"""Mean-field Gauss-Newton phase and the hierarchical jump-penalty prior."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from elastovb.config import build_model, generate_data, initial_mu
import elastovb.forward as fwd
from elastovb.forward import FemForwardModel, ForwardEval, ForwardModel, ForwardSolveError
from elastovb.mean_update import (TIKHONOV_FLOOR, GaussNewtonSystem, MuUpdateReport,
                                  SmoothPrior, em_phi, gauss_newton_step,
                                  gauss_newton_system, log_prior_mu_and_grad,
                                  neighbor_pairs, update_mu)
from elastovb.mesh_fem import Mesh2D, _solve_reduced
from elastovb.vb import ReducedPosterior, update_q_tau

from conftest import compression_bc, example1_config, top_clamped_model, traced_peak
from jacobian_oracle import dense, direct_jacobian
from linear_oracle import DenseSensitivities, LinearOracleModel


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
    system = gauss_newton_system(model.evaluate(mu).with_jacobian(), yhat, 3.0,
                                 model.fixed_mask)
    delta, floored = gauss_newton_step(mu, system, prior=None)
    target = np.linalg.lstsq(A, yhat, rcond=None)[0]
    assert np.max(np.abs((mu + delta) - target)) < 1e-10
    assert not floored


def test_scalar_newton_step_by_hand():
    model = LinearOracleModel(np.array([[2.0]]))
    mu = np.array([1.0])
    system = gauss_newton_system(model.evaluate(mu).with_jacobian(), np.array([6.0]), 5.0,
                                 model.fixed_mask)
    delta, _ = gauss_newton_step(mu, system, prior=None)
    assert delta[0] == pytest.approx(2.0, rel=1e-14)


def test_singular_system_records_tikhonov_floor():
    # <tau> G^T G and the one pair's prior precision both vanish on (1, 1);
    # in powers of two the Cholesky meets an exactly zero pivot with the prior
    # on or off, and the floor is not lost against H's entries (2^-30, 2^-28)
    A = 2.0 ** -16 * np.array([[1.0, -1.0], [1.0, -1.0]])
    model = LinearOracleModel(A)
    mu = np.array([0.3, -0.2])
    yhat = np.array([1.0, 2.0])
    prior = SmoothPrior(pairs=np.array([[0, 1]]), a_post=np.array([3.0]),
                        b_post=np.array([2.0 ** 30]))         # <phi> = 3 * 2^-30
    L = pair_operator(prior.pairs, 2)
    P = L.T @ np.diag(prior.mean_phi) @ L
    system = gauss_newton_system(model.evaluate(mu).with_jacobian(), yhat, 2.0,
                                 model.fixed_mask)
    gram = system.gram.copy()
    for reg in (False, True):
        delta, floored = gauss_newton_step(mu, system, prior if reg else None)
        assert floored
        H = 2.0 * (A.T @ A) + (P if reg else 0.0)
        rhs = 2.0 * (A.T @ (yhat - A @ mu)) - (P @ mu if reg else 0.0)
        assert np.allclose(delta, np.linalg.solve(H + 1e-10 * np.eye(2), rhs),
                           rtol=1e-12, atol=0.0)
        # the failed factorization and the floored retry both overwrote the
        # Gram, which each restored
        assert np.array_equal(system.gram, gram)


def test_clamped_components_stay_exactly_zero(rng):
    A = rng.normal(size=(8, 5))
    fixed = np.array([False, True, False, False, True])
    model = LinearOracleModel(A, fixed_mask=fixed)
    mu = rng.normal(size=5)
    yhat = rng.normal(size=8)
    system = gauss_newton_system(model.evaluate(mu).with_jacobian(), yhat, 2.0, fixed)
    delta, _ = gauss_newton_step(mu, system, prior=None)
    assert delta[1] == 0.0 and delta[4] == 0.0
    free = ~fixed
    H = 2.0 * (A.T @ A)
    rhs = 2.0 * (A.T @ (yhat - A @ mu))
    resid = H[np.ix_(free, free)] @ delta[free] - rhs[free]
    assert np.max(np.abs(resid)) < 1e-10


def test_reused_system_gives_the_same_step(rng):
    A = rng.normal(size=(10, 6))
    fixed = np.array([False, False, True, False, False, False])
    model = LinearOracleModel(A, fixed_mask=fixed)
    mu = rng.normal(size=6)
    yhat = rng.normal(size=10)
    prior = em_phi(mu, SmoothPrior.for_grid(3, 2, 2.0, 1.0))
    ev = model.evaluate(mu).with_jacobian()
    system = gauss_newton_system(ev, yhat, 4.0, fixed)
    gram = system.gram.copy()
    for reg in (True, False):
        step_prior = prior if reg else None
        fresh, _ = gauss_newton_step(mu, gauss_newton_system(ev, yhat, 4.0, fixed), step_prior)
        reused, _ = gauss_newton_step(mu, system, step_prior)
        assert np.array_equal(fresh, reused)
    assert np.array_equal(system.gram, gram)        # factored in place, then restored


def test_regularized_system_matches_dense_construction(rng):
    A = rng.normal(size=(10, 6))
    model = LinearOracleModel(A)
    mu = rng.normal(size=6)
    yhat = rng.normal(size=10)
    prior = em_phi(mu, SmoothPrior.for_grid(3, 2, 2.0, 1.0))
    tau = 4.0
    system = gauss_newton_system(model.evaluate(mu).with_jacobian(), yhat, tau,
                                 model.fixed_mask)
    delta, _ = gauss_newton_step(mu, system, prior)
    L = pair_operator(prior.pairs, 6)
    P = L.T @ np.diag(prior.mean_phi) @ L
    H = tau * (A.T @ A) + P
    rhs = tau * (A.T @ (yhat - A @ mu)) - P @ mu
    assert np.max(np.abs(H @ delta - rhs)) < 1e-9


def test_regularized_step_with_clamped_components_matches_dense_construction(rng):
    # on the 3x2 grid, clamping elements 1 and 5 leaves two pairs with both
    # ends free and five with one clamped end, which reach the free block only
    # on their free end's diagonal and through mu of the clamped end
    A = rng.normal(size=(10, 6))
    fixed = np.array([False, True, False, False, False, True])
    model = LinearOracleModel(A, fixed_mask=fixed)
    mu = rng.normal(size=6)
    yhat = rng.normal(size=10)
    free = ~fixed
    prior = em_phi(mu, SmoothPrior.for_grid(3, 2, 2.0, 1.0))
    tau = 4.0
    system = gauss_newton_system(model.evaluate(mu).with_jacobian(), yhat, tau, fixed)
    delta, floor_used = gauss_newton_step(mu, system, prior)
    L = pair_operator(prior.pairs, 6)
    P = L.T @ np.diag(prior.mean_phi) @ L
    Af = A[:, free]
    H = tau * (Af.T @ Af) + P[np.ix_(free, free)]
    rhs = tau * (Af.T @ (yhat - A @ mu)) - (P @ mu)[free]
    assert not floor_used
    assert np.all(delta[fixed] == 0.0)
    assert np.max(np.abs(H @ delta[free] - rhs)) < 1e-9
    assert np.allclose(delta[free], np.linalg.solve(H, rhs), rtol=1e-10, atol=1e-12)


def full_matrix(mu, system, prior, reg, floor=0.0):
    """(H, rhs) built whole, on a scaled copy of the Gram: the prior on both
    triangles, then the floor on the diagonal."""
    free = system.free
    H = system.scale * system.gram
    rhs = system.rhs
    n = rhs.size
    if reg:
        phi = prior.mean_phi
        k, l = prior.pairs[:, 0], prior.pairs[:, 1]
        pos = np.cumsum(free) - 1
        H.flat[::n + 1] += np.bincount(np.concatenate([k, l]),
                                       weights=np.concatenate([phi, phi]),
                                       minlength=mu.shape[0])[free]
        both = free[k] & free[l]
        rows, cols, off = pos[k[both]], pos[l[both]], phi[both]
        H[rows, cols] -= off
        H[cols, rows] -= off
        rhs = rhs + log_prior_mu_and_grad(mu, prior)[1][free]
    if floor:
        H.flat[::n + 1] += floor
    return H, rhs


def step_problem(rng, fixed=()):
    A = rng.normal(size=(10, 6))
    mu = rng.normal(size=6)
    yhat = rng.normal(size=10)
    mask = np.zeros(6, dtype=bool)
    mask[list(fixed)] = True
    ev = LinearOracleModel(A, fixed_mask=mask).evaluate(mu).with_jacobian()
    system = gauss_newton_system(ev, yhat, 4.0, mask)
    return mu, system


@pytest.mark.parametrize("case", ["unregularized", "regularized", "clamped", "reversed-pairs"])
def test_in_place_step_matches_a_factored_copy_bit_for_bit(case, rng):
    # the in-place solve loads only the lower triangle that LAPACK reads, so
    # delta carries the bits of a solve that factors a whole copy of H; with
    # the pairs reversed, the prior's entries fall on the other triangle
    mu, system = step_problem(rng, fixed=(1, 5) if case == "clamped" else ())
    pairs = neighbor_pairs(3, 2)
    if case == "reversed-pairs":
        pairs = pairs[:, ::-1]
    prior = em_phi(mu, SmoothPrior(pairs=pairs, a_phi=2.0, b_phi=1.0))
    reg = case != "unregularized"
    gram = system.gram.copy()
    delta, floored = gauss_newton_step(mu, system, prior if reg else None)
    H, rhs = full_matrix(mu, system, prior, reg)
    expected = np.zeros(6)
    expected[system.free] = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(H.T, overwrite_a=True), rhs)
    assert not floored
    assert np.array_equal(delta, expected)
    assert np.array_equal(system.gram, gram)


@pytest.mark.parametrize("reg", [False, True])
def test_least_squares_fallback_restores_the_gram(reg, rng):
    # an indefinite Gram fails both Cholesky factorizations; the last resort
    # solves the whole floored matrix by least squares
    B = rng.normal(size=(6, 6))
    gram = B + B.T - 20.0 * np.eye(6)
    system = GaussNewtonSystem(free=np.ones(6, dtype=bool), gram=gram, scale=1.0,
                               rhs=rng.normal(size=6))
    mu = rng.normal(size=6)
    prior = em_phi(mu, SmoothPrior.for_grid(3, 2, 2.0, 1.0))
    kept = gram.copy()
    delta, floored = gauss_newton_step(mu, system, prior if reg else None)
    H, rhs = full_matrix(mu, system, prior, reg, TIKHONOV_FLOOR)
    assert floored
    assert np.array_equal(delta, np.linalg.lstsq(H, rhs, rcond=None)[0])
    assert np.array_equal(system.gram, kept)


@pytest.mark.parametrize("case", ["non-finite-prior", "mismatched-rhs"])
def test_step_that_raises_restores_the_gram(case, rng):
    # a NaN precision fails the finiteness check after the prior is loaded;
    # a right-hand side of the wrong length fails after the factorization
    mu, system = step_problem(rng)
    prior = em_phi(mu, SmoothPrior.for_grid(3, 2, 2.0, 1.0))
    if case == "non-finite-prior":
        prior = replace(prior, a_post=np.full(prior.d_pairs, np.nan))
    else:
        system = replace(system, rhs=np.ones(7))
    gram = system.gram.copy()
    with pytest.raises(ValueError):
        gauss_newton_step(mu, system, prior if case == "non-finite-prior" else None)
    assert np.array_equal(system.gram, gram)


def test_free_gram_matches_the_dense_product(rng):
    # the system's blocks from the evaluation's sensitivity operator against
    # the dense products of the direct-differentiation G: 40 free elements,
    # more than one block of columns, with scattered clamps
    mesh = Mesh2D(7, 6, 7.0, 6.0)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[[0, 5, 17, 30, 41]] = True
    model = FemForwardModel(mesh, compression_bc(mesh), fixed_mask=fixed, poisson=0.3)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    ev = model.evaluate(psi).with_jacobian()
    yhat = ev.y + rng.normal(0.0, 1e-3, model.d_y)
    system = gauss_newton_system(ev, yhat, 3.0, fixed)
    G_f = direct_jacobian(mesh, _solve_reduced(model.plan, psi), model.active,
                          model.obs_dofs)[:, ~fixed]
    assert system.gram is ev.G.gram() and system.scale == 3.0
    assert np.array_equal(system.gram, system.gram.T)
    assert np.allclose(system.gram, G_f.T @ G_f, rtol=1e-13, atol=1e-13 * np.abs(G_f).max() ** 2)
    assert np.allclose(system.rhs, 3.0 * G_f.T @ (yhat - ev.y), rtol=1e-12, atol=0.0)


# Peaks at 20x20 with the top row clamped (n_free = 380; a dense G would be
# 2.2 n_free^2), in units of one (n_free x n_free) float64 array; the
# evaluation, its Gram and the system exist before tracing starts.  Solving
# with a copy of G_f and copying the Gram twice per step peaked at 3.1 and
# 2.1; factoring one copy of the Gram per step peaked at 1.16.


@pytest.fixture(scope="module")
def mesh20_linearization():
    model = top_clamped_model(20)
    rng = np.random.default_rng(0)
    psi = rng.normal(0.0, 0.4, model.d_psi)
    ev = model.evaluate(psi).with_jacobian()
    yhat = ev.y + rng.normal(0.0, 1e-3, model.d_y)
    return model, psi, ev, yhat


def test_gauss_newton_system_peak_memory_near_one_gram(mesh20_linearization):
    # the system borrows the Gram the evaluation holds and makes only vectors
    # (measured 0.06); forming the Gram from a dense G took the Gram (1) plus
    # one 64-row block of G_f (64/380 = 0.17)
    model, _, ev, yhat = mesh20_linearization
    unit = 8 * np.count_nonzero(~model.fixed_mask) ** 2
    peak = traced_peak(lambda: gauss_newton_system(ev, yhat, 3.0, model.fixed_mask))
    assert peak < 1.5 * unit


def test_regularized_step_peak_memory_under_half_a_gram(mesh20_linearization):
    # the Gram is factored in place, so only boolean masks (1/8 each, one at
    # a time: the triangle <tau> scales and the finiteness check's) and
    # vectors of length n_free are made
    model, psi, ev, yhat = mesh20_linearization
    unit = 8 * np.count_nonzero(~model.fixed_mask) ** 2
    system = gauss_newton_system(ev, yhat, 3.0, model.fixed_mask)
    prior = em_phi(psi, SmoothPrior.for_grid(20, 20, 0.0, 1e-2))
    peak = traced_peak(lambda: gauss_newton_step(psi, system, prior))
    assert peak < 0.5 * unit


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
    model = LinearOracleModel(A)
    state = empty_state(4, a0=1e8, b0=1e8)          # pins <tau> ~= 1
    state.mu = psi_true + 1e-7
    res = update_mu(state, model, A @ psi_true)
    assert res.reports == []
    assert res.forward_calls == model.calls == 1
    assert np.array_equal(res.mu, state.mu)


class ScaledJacobianModel(ForwardModel):
    """Delegates to another model, clamp set included, and scales its Jacobian."""

    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = scale
        super().__init__(inner.fixed_mask)

    @property
    def d_psi(self):
        return self.inner.d_psi

    @property
    def d_y(self):
        return self.inner.d_y

    def _evaluate(self, psi):
        ev = self.inner._evaluate(psi)
        return ForwardEval(y=ev.y, G=None, _jacobian=lambda: DenseSensitivities(
            dense(ev.with_jacobian().G) * self.scale, self.active))


def example1_mean_phase(snr=None, noise_seed=None, jacobian_scale=None, mesh_n=None):
    """The mean phase alone on the benchmark configuration, as `driver.run` calls it.

    mesh_n refines the grid to mesh_n x mesh_n elements on the same domain.
    """
    cfg = example1_config()
    if mesh_n is not None:
        cfg.mesh.nx = cfg.mesh.ny = mesh_n
    if snr is not None:
        cfg.noise.snr = snr
    if noise_seed is not None:
        cfg.noise.seed = noise_seed
    obs, _, _ = generate_data(cfg)
    model, mesh, _, _, _ = build_model(cfg)
    if jacobian_scale is not None:
        model = ScaledJacobianModel(model, jacobian_scale)
    s = cfg.solver
    state = empty_state(mesh.n_elems, a0=s.a0, b0=s.b0)
    state.mu = initial_mu(cfg, mesh)
    prior = SmoothPrior.for_grid(mesh.nx, mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
    return update_mu(state, model, obs.yhat, prior,
                     max_outer=s.mu_max_outer, reg_delay=s.mu_reg_delay,
                     max_halvings=s.mu_max_halvings, call_budget=s.mu_call_budget)


def test_example1_call_count_robust_to_jacobian_rounding():
    # a relative change of ~1e-15 in G must not change how many forward calls
    # the mean phase spends on the benchmark configuration (a step-norm stop
    # spent 21, 27 and 24 calls at the first, third and fourth scale)
    calls = []
    for scale in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 3e-15):
        res = example1_mean_phase(jacobian_scale=scale)
        assert not res.budget_exhausted
        assert sum(rep.halvings for rep in res.reports) == 0
        calls.append(res.forward_calls)
    assert calls == [calls[0]] * 4


def test_example1_mean_phase_calls_with_corrector():
    # one forward call per linearization plus a corrector E-step: the shipped
    # benchmark took 16 calls without the corrector
    res = example1_mean_phase()
    assert res.forward_calls <= 12
    assert sum(rep.halvings for rep in res.reports) == 0
    assert any(rep.corrected for rep in res.reports)
    assert not any(rep.corrected for rep in res.reports if not rep.regularization_active)


@pytest.mark.parametrize("noise_seed", range(1, 9))
def test_example1_noise_seeds_mean_phase_calls(noise_seed):
    # without the corrector these seeds took 16, 18, 16, 17, 16, 18, 16, 20 calls
    res = example1_mean_phase(snr=1e5, noise_seed=noise_seed)
    assert not res.budget_exhausted
    assert res.forward_calls <= 13


def test_accepted_steps_strictly_improve_fem_objective(rng):
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    from conftest import compression_bc
    bc = compression_bc(mesh)
    model = FemForwardModel(mesh, bc)
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


def assert_em_fixed_point(res, A, yhat):
    """tau A^T (yhat - A mu) = L^T <Phi> L mu at the Phi of the final mu."""
    post = em_phi(res.mu, res.prior)
    L = pair_operator(post.pairs, A.shape[1])
    P = L.T @ np.diag(post.mean_phi) @ L
    grad = (res.a / res.b) * (A.T @ (yhat - A @ res.mu)) - P @ res.mu
    scale = (res.a / res.b) * float(np.linalg.norm(A.T @ yhat)) + 1.0
    assert np.linalg.norm(grad) / scale < 1e-6


def em_map_problem(rng, tau=50.0):
    A = rng.normal(size=(12, 5))
    psi_true = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    yhat = A @ psi_true + rng.normal(0.0, 1.0 / np.sqrt(tau), 12)
    state = empty_state(5, a0=tau * 1e8, b0=1e8)      # pins <tau> ~= tau
    return A, yhat, state


def test_em_map_fixed_point_stationarity(rng):
    # linear model with regularization from the first step: the phase should
    # land where tau A^T (yhat - A mu) = L^T <Phi> L mu at self-consistent Phi
    A, yhat, state = em_map_problem(rng)
    prior = SmoothPrior.for_grid(5, 1, a_phi=1.0, b_phi=1.0)
    res = update_mu(state, LinearOracleModel(A), yhat, prior=prior, reg_delay=0,
                    max_outer=200)
    assert_em_fixed_point(res, A, yhat)


def test_corrector_steps_reach_em_fixed_point(rng):
    # the same fixed point after unregularized warm-up steps, with the trial
    # steps taken from the corrector E-step where it predicts a gain
    A, yhat, state = em_map_problem(rng)
    prior = SmoothPrior.for_grid(5, 1, a_phi=1.0, b_phi=1.0)
    res = update_mu(state, LinearOracleModel(A), yhat, prior=prior, reg_delay=1,
                    max_outer=200)
    assert any(rep.corrected for rep in res.reports)
    assert not res.reports[0].corrected            # no E-step before the prior is on
    assert all(rep.f_after > rep.f_before for rep in res.reports if rep.accepted)
    assert_em_fixed_point(res, A, yhat)


def test_corrector_without_frozen_gain_falls_back():
    # one jump the data pull to 10 from 0.1, with b_phi = 0: the E-step at
    # mu + delta_0 stiffens the pair enough that delta_1 overshoots the frozen
    # model's maximizer by more than |delta_0|, so its predicted gain is
    # negative and the trial must be delta_0
    A = np.eye(2)
    model = LinearOracleModel(A)
    yhat = np.array([5.0, -5.0])
    state = empty_state(2, a0=2e8, b0=1e8)          # pins <tau> ~= 2
    state.mu = np.array([0.05, -0.05])
    prior = SmoothPrior(pairs=np.array([[0, 1]]))
    res = update_mu(state, model, yhat, prior=prior, reg_delay=0, max_outer=1)
    (rep,) = res.reports
    assert rep.accepted and not rep.corrected

    ev = model.evaluate(state.mu).with_jacobian()
    a, b = update_q_tau(state, yhat - ev.y)
    tau = a / b
    system = gauss_newton_system(ev, yhat, tau, model.fixed_mask)
    prior0 = em_phi(state.mu, prior)
    delta0, _ = gauss_newton_step(state.mu, system, prior0)
    delta1, _ = gauss_newton_step(state.mu, system, em_phi(state.mu + delta0, prior))

    def frozen_gain(step):
        r = yhat - A @ (state.mu + step)
        r0 = yhat - ev.y
        return (-0.5 * tau * (r @ r - r0 @ r0)
                + log_prior_mu_and_grad(state.mu + step, prior0)[0]
                - log_prior_mu_and_grad(state.mu, prior0)[0])

    assert frozen_gain(delta0) > 0.0 >= frozen_gain(delta1)
    assert rep.delta_norm == pytest.approx(np.linalg.norm(delta0), rel=1e-12)


def test_call_budget_accounting(rng):
    A = rng.normal(size=(6, 3))
    model = LinearOracleModel(A)
    yhat = rng.normal(size=6)
    res = update_mu(empty_state(3), model, yhat, call_budget=2)
    assert res.budget_exhausted
    assert res.forward_calls == model.calls == 2


class JacobianRefusingModel(LinearOracleModel):
    """Linear model whose value solve, or only its Jacobian solve, fails at one call."""

    def __init__(self, A, refuse_call, value=False):
        super().__init__(A)
        self.refuse_call = refuse_call
        self.refuse_value = value

    def _evaluate(self, psi):
        ev = super()._evaluate(psi)
        if self.calls != self.refuse_call:
            return ev
        if self.refuse_value:
            raise ForwardSolveError("value solve refused")

        def refuse():
            raise ForwardSolveError("sensitivity solve refused")

        return ForwardEval(y=ev.y, G=None, _jacobian=refuse)


def test_failed_jacobian_halves_the_trial_like_a_failed_solve(rng):
    # the first trial (call 2) solves its value and is accepted, but its G
    # fails: it is halved and counted once, exactly as a failed value solve
    A = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    yhat = rng.normal(size=6)
    jac_model = JacobianRefusingModel(A, refuse_call=2)
    val_model = JacobianRefusingModel(A, refuse_call=2, value=True)
    jac = update_mu(empty_state(3), jac_model, yhat)
    val = update_mu(empty_state(3), val_model, yhat)
    first = jac.reports[0]
    assert first.accepted and first.halvings == 1 and first.forward_calls == 2
    assert jac.forward_calls == jac_model.calls == val_model.calls
    assert jac.reports == val.reports
    assert np.array_equal(jac.mu, val.mu)
    assert np.array_equal(dense(jac.ev.G), A)
    assert jac.jacobians == val.jacobians == 1 + sum(r.accepted for r in jac.reports)


def test_failed_jacobian_without_a_later_accept_solves_mu_again(rng):
    # with no halving allowed the phase ends at mu, whose G was released
    # before the failed solve: one more counted call gives it back
    A = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    model = JacobianRefusingModel(A, refuse_call=2)
    res = update_mu(empty_state(3), model, rng.normal(size=6), max_halvings=0)
    (rep,) = res.reports
    assert not rep.accepted and rep.forward_calls == 1
    assert res.forward_calls == model.calls == 3
    assert res.jacobians == 2
    assert np.array_equal(res.mu, np.zeros(3))
    assert np.array_equal(dense(res.ev.G), A) and np.array_equal(res.ev.y, np.zeros(6))


@pytest.mark.parametrize("mesh_n", [None, 20], ids=["example1", "mesh20"])
def test_jacobians_solved_only_for_accepted_trials(mesh_n, monkeypatch):
    # every rejected trial is a value solve only; the accepted trial's G has
    # the bits of a fresh value+Jacobian call at the same field
    solved = []
    inner = fwd.adjoint_jacobian

    def counting(*args, **kwargs):
        solved.append(args[1].e_mod.copy())      # exp(psi) of the held solve
        return inner(*args, **kwargs)

    monkeypatch.setattr(fwd, "adjoint_jacobian", counting)
    res = example1_mean_phase(mesh_n=mesh_n)
    accepted = sum(rep.accepted for rep in res.reports)
    assert len(solved) == res.jacobians == 1 + accepted
    assert res.forward_calls == res.jacobians + sum(rep.halvings for rep in res.reports)
    assert np.array_equal(solved[-1], np.exp(res.mu))
    monkeypatch.undo()
    cfg = example1_config()
    if mesh_n is not None:
        cfg.mesh.nx = cfg.mesh.ny = mesh_n
    fresh = build_model(cfg)[0].evaluate(res.mu).with_jacobian()
    assert res.ev.G.gram().tobytes() == fresh.G.gram().tobytes()
    assert dense(res.ev.G).tobytes() == dense(fresh.G).tobytes()
    assert res.ev.y.tobytes() == fresh.y.tobytes()


class ArctanModel(ForwardModel):
    """y = arctan(10 psi): far from the root the full Gauss-Newton step overshoots.

    Keeps a weak reference to every value-only evaluation and every G it
    returns, and records how many of each are alive at each call and how
    many G are alive at each Jacobian solve.
    """

    def __init__(self):
        super().__init__()
        self.values = []
        self.jacobians = []
        self.alive_at_call = []          # (value-only evaluations, G) alive
        self.g_alive_at_solve = []

    @property
    def d_psi(self):
        return 1

    @property
    def d_y(self):
        return 1

    @staticmethod
    def _alive(refs):
        return sum(ref() is not None for ref in refs)

    def _evaluate(self, psi):
        self.alive_at_call.append((self._alive(self.values), self._alive(self.jacobians)))

        def jacobian():
            self.g_alive_at_solve.append(self._alive(self.jacobians))
            G = DenseSensitivities((10.0 / (1.0 + 100.0 * psi ** 2))[:, None], np.arange(1))
            self.jacobians.append(weakref.ref(G))
            return G

        ev = ForwardEval(y=np.arctan(10.0 * psi), G=None, _jacobian=jacobian)
        self.values.append(weakref.ref(ev))
        return ev


def test_rejected_trial_released_before_the_next_trial():
    # from psi = 1 the full step lands near -14 and the first halvings are
    # rejected; when any trial is evaluated, only the current iterate's G may
    # still be alive, never a rejected trial's evaluation or its handle
    model = ArctanModel()
    state = empty_state(1)
    state.mu = np.array([1.0])
    res = update_mu(state, model, np.zeros(1))
    assert res.reports[0].accepted and res.reports[0].halvings >= 2
    assert model.alive_at_call[0] == (0, 0)
    assert max(v for v, _ in model.alive_at_call) == 0
    assert max(g for _, g in model.alive_at_call) == 1


def test_one_jacobian_alive_at_each_solve():
    # the accepted trial's G is solved only after mu's G is released, and
    # only accepted trials (plus the start) solve one
    model = ArctanModel()
    state = empty_state(1)
    state.mu = np.array([1.0])
    res = update_mu(state, model, np.zeros(1))
    accepted = sum(rep.accepted for rep in res.reports)
    assert len(model.g_alive_at_solve) == res.jacobians == 1 + accepted
    assert model.g_alive_at_solve == [0] * res.jacobians
    assert res.forward_calls == model.calls > res.jacobians


def test_report_validation():
    with pytest.raises(ValueError):
        MuUpdateReport(accepted=True, delta_norm=1.0, f_before=0.0,
                       f_after=0.0, forward_calls=1, regularization_active=False)
