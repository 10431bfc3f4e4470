"""Mean-field Gauss-Newton phase and the hierarchical jump-penalty prior."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from elastovb.config import build_model, generate_data, initial_mu
import elastovb.forward as fwd
from elastovb import mean_update
from elastovb.forward import FemForwardModel, ForwardEval, ForwardModel, ForwardSolveError
from elastovb.mean_update import (GAIN_TOL, TIKHONOV_FLOOR, GaussNewtonSystem,
                                  MuUpdateReport, SmoothPrior, _trial_direction, em_phi,
                                  gauss_newton_step, gauss_newton_system,
                                  log_prior_mu_and_grad, neighbor_pairs, update_mu)
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
    # distinct triples are no duplicate pairs: only the shape rule refuses them
    with pytest.raises(ValueError, match=r"pairs must be a \(d_L, 2\) index array"):
        SmoothPrior(pairs=np.array([[0, 1, 2], [3, 4, 5]]))
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
    delta = gauss_newton_step(mu, system, prior=None)
    target = np.linalg.lstsq(A, yhat, rcond=None)[0]
    assert np.max(np.abs((mu + delta) - target)) < 1e-10


def test_scalar_newton_step_by_hand():
    model = LinearOracleModel(np.array([[2.0]]))
    mu = np.array([1.0])
    system = gauss_newton_system(model.evaluate(mu).with_jacobian(), np.array([6.0]), 5.0,
                                 model.fixed_mask)
    delta = gauss_newton_step(mu, system, prior=None)
    assert delta[0] == pytest.approx(2.0, rel=1e-14)


def test_singular_system_takes_the_tikhonov_floor():
    # <tau> G^T G and the one pair's prior precision both vanish on (1, 1);
    # in powers of two the Cholesky meets an exactly zero pivot with the prior
    # on or off, and the floor is not lost against H's entries (2^-30, 2^-28):
    # the step is the floored system's, bit for bit
    A = 2.0 ** -16 * np.array([[1.0, -1.0], [1.0, -1.0]])
    model = LinearOracleModel(A)
    mu = np.array([0.3, -0.2])
    yhat = np.array([1.0, 2.0])
    prior = SmoothPrior(pairs=np.array([[0, 1]]), a_post=np.array([3.0]),
                        b_post=np.array([2.0 ** 30]))         # <phi> = 3 * 2^-30
    system = gauss_newton_system(model.evaluate(mu).with_jacobian(), yhat, 2.0,
                                 model.fixed_mask)
    gram = system.gram.copy()
    for reg in (False, True):
        with pytest.raises(np.linalg.LinAlgError):
            factored_copy_step(mu, system, prior, reg)      # singular without the floor
        delta = gauss_newton_step(mu, system, prior if reg else None)
        assert np.array_equal(delta, factored_copy_step(mu, system, prior, reg,
                                                        TIKHONOV_FLOOR))
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
    delta = gauss_newton_step(mu, system, prior=None)
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
        fresh = gauss_newton_step(mu, gauss_newton_system(ev, yhat, 4.0, fixed), step_prior)
        reused = gauss_newton_step(mu, system, step_prior)
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
    delta = gauss_newton_step(mu, system, prior)
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
    delta = gauss_newton_step(mu, system, prior)
    L = pair_operator(prior.pairs, 6)
    P = L.T @ np.diag(prior.mean_phi) @ L
    Af = A[:, free]
    H = tau * (Af.T @ Af) + P[np.ix_(free, free)]
    rhs = tau * (Af.T @ (yhat - A @ mu)) - (P @ mu)[free]
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


def factored_copy_step(mu, system, prior, reg, floor=0.0):
    """The step from a Cholesky factorization of a whole copy of H (+ floor I)."""
    H, rhs = full_matrix(mu, system, prior, reg, floor)
    delta = np.zeros(mu.shape[0])
    delta[system.free] = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(H.T, overwrite_a=True), rhs)
    return delta


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
    delta = gauss_newton_step(mu, system, prior if reg else None)
    assert np.array_equal(delta, factored_copy_step(mu, system, prior, reg))
    assert np.array_equal(system.gram, gram)


@pytest.mark.parametrize("reg", [False, True])
def test_floored_failure_raises_and_restores_the_gram(reg, rng):
    # an indefinite Gram fails both Cholesky factorizations: the step raises
    # the error the CLI reports as a numerical failure, with the Gram intact
    B = rng.normal(size=(6, 6))
    gram = B + B.T - 20.0 * np.eye(6)
    system = GaussNewtonSystem(free=np.ones(6, dtype=bool), gram=gram, scale=1.0,
                               rhs=rng.normal(size=6))
    mu = rng.normal(size=6)
    prior = em_phi(mu, SmoothPrior.for_grid(3, 2, 2.0, 1.0))
    kept = gram.copy()
    with pytest.raises(np.linalg.LinAlgError, match="no finite Cholesky solve"):
        gauss_newton_step(mu, system, prior if reg else None)
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
    assert res.record.stop_reason == "gain_tolerance"
    # with no prior there is no jump precision to floor
    assert (res.prior, res.log_prior_value, res.record.floored_count) == (None, 0.0, 0)


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
    assert res.record.stop_reason == "gain_tolerance"
    assert np.array_equal(res.mu, state.mu)


def test_a_step_predicted_to_gain_nothing_is_never_tried(rng, monkeypatch):
    # at exact data the step is 0 and predicts a gain of exactly 0.0, which
    # does not exceed even a zero tolerance
    A = rng.normal(size=(7, 4))
    psi_true = rng.normal(size=4)
    model = LinearOracleModel(A)
    ev = model.evaluate(psi_true).with_jacobian()
    monkeypatch.setattr(mean_update, "GAIN_TOL", 0.0)
    assert _trial_direction(psi_true, ev, A @ psi_true, 1.0, None, model.fixed_mask,
                            0.0) is None


@pytest.mark.parametrize("with_prior", [False, True], ids=["no-prior", "prior"])
def test_predicted_gain_is_half_the_step_in_the_precision_norm(with_prior, rng, monkeypatch):
    # the gain _trial_direction compares with its tolerance is 1/2 d^T H d
    # for the Gauss-Newton step d = H^-1 g, H = tau A^T A + L^T <Phi> L: a
    # tolerance just under it lets the step through, one just over it does not
    A = rng.normal(size=(7, 4))
    model = LinearOracleModel(A)
    mu, yhat, tau = rng.normal(size=4), rng.normal(size=7), 3.0
    r = yhat - A @ mu
    f_mu, g, H = -0.5 * tau * (r @ r), tau * (A.T @ r), tau * (A.T @ A)
    prior = None
    if with_prior:
        prior = em_phi(mu, SmoothPrior.for_grid(4, 1, a_phi=1.0, b_phi=1.0))
        L = pair_operator(prior.pairs, 4)
        P = L.T @ np.diag(prior.mean_phi) @ L
        f_mu, g, H = f_mu + log_prior_mu_and_grad(mu, prior)[0], g - P @ mu, H + P
    delta = np.linalg.solve(H, g)
    predicted = 0.5 * delta @ H @ delta
    ev = model.evaluate(mu).with_jacobian()

    def direction(tol):
        monkeypatch.setattr(mean_update, "GAIN_TOL", tol)
        return _trial_direction(mu, ev, yhat, tau, prior, model.fixed_mask, f_mu)

    assert direction(predicted * (1.0 - 1e-12)) is not None
    assert direction(predicted * (1.0 + 1e-12)) is None


def test_stop_takes_the_step_above_the_tolerance_and_not_the_one_below():
    # one jump with b_phi = 0 near the fold where its EM fixed point appears,
    # so the gains fall slowly; the Newton gains at self-consistent Phi before
    # and after the last step are 1.22 and 0.79 times the tolerance.  The
    # phase takes the step above the tolerance and stops before the one below
    A = np.eye(2)
    yhat = np.array([1.0, -1.0])

    def phase(max_outer):
        state = empty_state(2, a0=2.225e8, b0=1e8)      # pins <tau> ~= 2.225
        state.mu = np.array([0.5, -0.5])
        return update_mu(state, LinearOracleModel(A), yhat,
                         prior=SmoothPrior(pairs=np.array([[0, 1]])), reg_delay=0,
                         max_outer=max_outer)

    res = phase(30)
    assert res.record.stop_reason == "gain_tolerance" and len(res.reports) == 4
    assert all(rep.accepted and rep.forward_calls == 1 for rep in res.reports)
    before_last = phase(3)
    assert before_last.record.stop_reason == "max_steps"
    gains = []
    for r in (before_last, res):
        grad, H = em_gradient(r, A, yhat)
        gains.append(0.5 * grad @ np.linalg.solve(H, grad) / GAIN_TOL)
    assert 1.0 < gains[0] <= 1.5 and 1.0 / 1.5 <= gains[1] < 1.0


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


def example1_mean_phase(snr=None, noise_seed=None, jacobian_scale=None, mesh_n=None,
                        wrap=None, poisson=None):
    """The mean phase alone on the benchmark configuration, as `driver.run` calls it.

    mesh_n refines the grid to mesh_n x mesh_n elements on the same domain;
    wrap, given the call to update_mu, runs it (by default it is just called).
    """
    cfg = example1_config()
    if mesh_n is not None:
        cfg.mesh.nx = cfg.mesh.ny = mesh_n
    if snr is not None:
        cfg.noise.snr = snr
    if noise_seed is not None:
        cfg.noise.seed = noise_seed
    if poisson is not None:
        cfg.mesh.poisson = poisson
    obs, _, _ = generate_data(cfg)
    model, mesh, _, _, _ = build_model(cfg)
    if jacobian_scale is not None:
        model = ScaledJacobianModel(model, jacobian_scale)
    s = cfg.solver
    state = empty_state(mesh.n_elems, a0=s.a0, b0=s.b0)
    state.mu = initial_mu(cfg, mesh)
    prior = SmoothPrior.for_grid(mesh.nx, mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
    run = lambda: update_mu(state, model, obs.yhat, prior,  # noqa: E731
                            reg_delay=s.mu_reg_delay, call_budget=s.mu_call_budget)
    return run() if wrap is None else wrap(run)


def test_mesh20_mean_phase_holds_one_gram_at_a_time():
    # the peak is a trial's banded solve while mu's evaluation and its Gram
    # are held (measured 1.89 Grams); with the linearized system still
    # holding mu's Gram when an accepted trial forms its own it was 2.76
    def traced(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    res, peak = example1_mean_phase(mesh_n=20, wrap=traced)
    assert res.record.jacobians > 1                 # an accepted trial formed its Gram
    assert peak < 2.3 * res.ev.G.gram().nbytes


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


def test_noisy10_mean_phase_searches_past_failed_solves():
    # the benchmark's noisy10 (SNR 1e2, the shipped noise seed 1): step 4's
    # trials at 2^0..2^-7 fail (exp overflows at 2^0 and 2^-1, max psi 5111
    # and 2548, then inaccurate solves); halving spent 10 calls there and 28
    # in all, the search spent 7 while it called the overflowing trials; now
    # it skips 2^0 and 2^-1 as outside the domain and calls 2^-3, 2^-7
    # (fail), 2^-10, 2^-8 (solve, 2^-8 rejected), 2^-9.  Under a stop at a
    # relative gain of 1e-9 the phase took 3 more one-call steps (23 calls)
    res = example1_mean_phase(snr=1e2)
    assert [rep.forward_calls for rep in res.reports] == [2, 2, 2, 5, 2] + [1] * 6
    assert [rep.failed for rep in res.reports] == [0, 0, 0, 2] + [0] * 7
    assert res.forward_calls == 20 and res.reports[3].accepted
    assert not res.budget_exhausted


def test_accepted_step_within_the_tolerance_ends_the_phase():
    # Poisson ratio 0.49, SNR 1e2, noise seed 15: the phase's last step, with
    # the prior on, is accepted but gains 1.22e-3 nat, within the tolerance,
    # which ends it.  The next step's predicted gain is within it too, so a
    # phase without this exit spends no more calls here; the scaled-Jacobian
    # warm-up test below is the one such a phase fails
    res = example1_mean_phase(snr=1e2, noise_seed=15, poisson=0.49)
    last = res.reports[-1]
    assert res.record.stop_reason == "gain_tolerance" and not res.budget_exhausted
    assert last.accepted and last.regularization_active and res.forward_calls == 24
    assert 0.0 < last.f_after - last.f_before <= GAIN_TOL


def test_noisy10_skips_exactly_the_overflowing_calls(monkeypatch):
    # the same FEM map with no declared domain calls the two overflowing
    # trials and fails them; it takes every step of the bounded phase, bit
    # for bit, at two more calls
    bounded = example1_mean_phase(snr=1e2)
    monkeypatch.setattr(FemForwardModel, "psi_max", np.inf)
    unbounded = example1_mean_phase(snr=1e2)
    assert unbounded.mu.tobytes() == bounded.mu.tobytes()
    assert ([(rep.accepted, rep.delta_norm) for rep in unbounded.reports]
            == [(rep.accepted, rep.delta_norm) for rep in bounded.reports])
    assert unbounded.forward_calls == bounded.forward_calls + 2 == 22
    assert [rep.failed for rep in unbounded.reports] == [0, 0, 0, 4] + [0] * 7


def three_by_three_compression(rng, clamp_top_row):
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    fixed = np.zeros(9, dtype=bool)
    fixed[-3:] = clamp_top_row
    model = FemForwardModel(mesh, compression_bc(mesh), fixed_mask=fixed)
    psi_true = rng.normal(0.0, 0.4, 9)
    psi_true[fixed] = 0.0                   # the clamped elements' mu0
    y_true = model.evaluate(psi_true).y
    return model, y_true + rng.normal(0.0, 1e-4 * float(np.std(y_true)), y_true.size)


def test_accepted_steps_strictly_improve_fem_objective(rng):
    # the top row is clamped, as in the shipped config; unclamped, the data
    # fix the moduli only up to a common factor (the next test)
    model, yhat = three_by_three_compression(rng, clamp_top_row=True)
    res = update_mu(empty_state(9, a0=0.0, b0=0.0), model, yhat)
    assert any(rep.accepted for rep in res.reports)
    for rep in res.reports:
        if rep.accepted:
            assert rep.f_after > rep.f_before
    r0 = yhat - model.evaluate(np.zeros(9)).y
    r1 = yhat - res.ev.y
    assert r1 @ r1 < r0 @ r0


def test_unclamped_compression_without_load_is_a_numerical_failure(rng):
    # prescribed displacements alone do not change when every modulus is
    # scaled by one factor, so with no element clamped G has the all-ones
    # null vector, which the Tikhonov floor is too small to lift against the
    # Gram's scale; the phase raises the error the CLI reports with exit 2
    model, yhat = three_by_three_compression(rng, clamp_top_row=False)
    G = model.evaluate(np.zeros(9)).with_jacobian().G
    assert np.linalg.norm(G @ np.ones(9)) < 1e-12 * np.linalg.norm(G @ np.eye(9)[0])
    with pytest.raises(np.linalg.LinAlgError, match="no finite Cholesky solve"):
        update_mu(empty_state(9, a0=0.0, b0=0.0), model, yhat)


def em_gradient(res, A, yhat):
    """F_mu's gradient tau A^T (yhat - A mu) - L^T <Phi> L mu at the final mu
    and the Phi of that mu, with the precision tau A^T A + L^T <Phi> L there."""
    post = em_phi(res.mu, res.prior)
    L = pair_operator(post.pairs, A.shape[1])
    P = L.T @ np.diag(post.mean_phi) @ L
    tau = res.a / res.b
    return tau * (A.T @ (yhat - A @ res.mu)) - P @ res.mu, tau * (A.T @ A) + P


def assert_em_fixed_point(res, A, yhat):
    """tau A^T (yhat - A mu) = L^T <Phi> L mu at the Phi of the final mu."""
    grad, _ = em_gradient(res, A, yhat)
    scale = (res.a / res.b) * float(np.linalg.norm(A.T @ yhat)) + 1.0
    assert np.linalg.norm(grad) / scale < 1e-6


def em_map_problem(rng, tau=50.0):
    A = rng.normal(size=(12, 5))
    psi_true = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    yhat = A @ psi_true + rng.normal(0.0, 1.0 / np.sqrt(tau), 12)
    state = empty_state(5, a0=tau * 1e8, b0=1e8)      # pins <tau> ~= tau
    return A, yhat, state


def test_em_map_fixed_point_stationarity(rng):
    # linear model with regularization from the first step: the phase lands
    # where, at self-consistent Phi, the Newton step to the stationary point
    # tau A^T (yhat - A mu) = L^T <Phi> L mu would gain at most the tolerance
    A, yhat, state = em_map_problem(rng)
    prior = SmoothPrior.for_grid(5, 1, a_phi=1.0, b_phi=1.0)
    res = update_mu(state, LinearOracleModel(A), yhat, prior=prior, reg_delay=0,
                    max_outer=200)
    assert res.record.stop_reason == "gain_tolerance"
    grad, H = em_gradient(res, A, yhat)
    assert 0.5 * grad @ np.linalg.solve(H, grad) <= GAIN_TOL


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
    # one jump the data pull to 10 from 0.1, with b_phi = 0: delta_0 takes it
    # to 0.196 and gains 0.47 nat, and the E-step at mu + delta_0 softens the
    # pair so much that delta_1 overshoots the frozen model's maximizer by
    # more than |delta_0|, so its predicted gain is negative and the trial
    # must be delta_0.  At <tau> ~= 2 delta_0 gained 2.5e-5 nat, within the
    # tolerance, and the phase took no step
    A = np.eye(2)
    model = LinearOracleModel(A)
    yhat = np.array([5.0, -5.0])
    state = empty_state(2, a0=4e8, b0=1e8)          # pins <tau> ~= 4
    state.mu = np.array([0.05, -0.05])
    prior = SmoothPrior(pairs=np.array([[0, 1]]))
    res = update_mu(state, model, yhat, prior=prior, reg_delay=0, max_outer=1)
    (rep,) = res.reports
    assert rep.accepted and not rep.corrected
    assert res.record.stop_reason == "max_steps"

    ev = model.evaluate(state.mu).with_jacobian()
    a, b = update_q_tau(state, yhat - ev.y)
    tau = a / b
    system = gauss_newton_system(ev, yhat, tau, model.fixed_mask)
    prior0 = em_phi(state.mu, prior)
    delta0 = gauss_newton_step(state.mu, system, prior0)
    delta1 = gauss_newton_step(state.mu, system, em_phi(state.mu + delta0, prior))

    def frozen_gain(step):
        r = yhat - A @ (state.mu + step)
        r0 = yhat - ev.y
        return (-0.5 * tau * (r @ r - r0 @ r0)
                + log_prior_mu_and_grad(state.mu + step, prior0)[0]
                - log_prior_mu_and_grad(state.mu, prior0)[0])

    assert frozen_gain(delta0) > GAIN_TOL and 0.0 >= frozen_gain(delta1)
    assert rep.delta_norm == pytest.approx(np.linalg.norm(delta0), rel=1e-12)


def test_call_budget_accounting(rng):
    # 1, the least budget the config accepts, is the first evaluation's call
    A = rng.normal(size=(6, 3))
    yhat = rng.normal(size=6)
    for budget in (1, 2):
        model = LinearOracleModel(A)
        res = update_mu(empty_state(3), model, yhat, call_budget=budget)
        assert res.budget_exhausted and res.record.stop_reason == "call_budget"
        assert res.forward_calls == model.calls == budget


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
    assert jac.record.jacobians == val.record.jacobians == 1 + sum(r.accepted for r in jac.reports)


def test_failed_jacobian_without_a_later_accept_solves_mu_again(rng):
    # with no halving allowed the phase ends at mu, whose G was released
    # before the failed solve: one more counted call gives it back
    A = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    model = JacobianRefusingModel(A, refuse_call=2)
    res = update_mu(empty_state(3), model, rng.normal(size=6), max_halvings=0)
    (rep,) = res.reports
    assert not rep.accepted and rep.forward_calls == 1
    # mu did not move: the step reads 0, not |delta| * 2^-(max_halvings + 1)
    assert rep.delta_norm == 0.0 and rep.f_after == rep.f_before
    assert res.record.stop_reason == "no_acceptable_trial"      # no prior to switch on
    assert res.forward_calls == model.calls == 3
    assert res.record.jacobians == 2
    assert np.array_equal(res.mu, np.zeros(3))
    assert np.array_equal(dense(res.ev.G), A) and np.array_equal(res.ev.y, np.zeros(6))


def test_warm_up_step_whose_jacobian_fails_goes_on_with_the_prior(rng):
    # the warm-up's first step has one trial (call 2), which passes but whose
    # G fails: the step accepts nothing, call 3 forms mu's evaluation again,
    # and the phase goes on from mu = 0 with the prior on
    A = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    yhat = rng.normal(size=6)
    model = JacobianRefusingModel(A, refuse_call=2)
    prior = SmoothPrior.for_grid(3, 1, a_phi=1.0, b_phi=1.0)
    res = update_mu(empty_state(3), model, yhat, prior=prior, reg_delay=2, max_halvings=0)
    stalled, *regularized = res.reports
    assert not stalled.accepted and not stalled.regularization_active
    assert res.record.stop_reason == "gain_tolerance"
    assert stalled.forward_calls == stalled.failed == 1
    assert regularized and all(rep.regularization_active for rep in regularized)
    a, b = update_q_tau(empty_state(3), yhat)
    assert regularized[0].accepted
    assert regularized[0].f_before == pytest.approx(-0.5 * (a / b) * (yhat @ yhat), rel=1e-12)
    assert res.forward_calls == model.calls == 3 + sum(rep.forward_calls for rep in regularized)
    assert res.record.jacobians == 2 + sum(rep.accepted for rep in regularized)
    assert np.array_equal(dense(res.ev.G), A)
    assert np.array_equal(res.ev.y, model.evaluate(res.mu).y)


def test_warm_up_at_tolerance_switches_the_prior_on_at_no_call(rng):
    # the warm-up's first step is the least-squares fit; at it the next
    # unregularized step predicts no gain, which switches the prior on, and
    # the same linearization is solved again with it, at no call
    A = rng.normal(size=(7, 4))
    yhat = rng.normal(size=7)
    model = LinearOracleModel(A)
    prior = SmoothPrior.for_grid(4, 1, a_phi=1.0, b_phi=1.0)
    res = update_mu(empty_state(4, a0=1e8, b0=1e8), model, yhat, prior=prior)
    warm, *regularized = res.reports
    assert warm.accepted and not warm.regularization_active
    assert regularized and all(rep.regularization_active for rep in regularized)
    assert res.forward_calls == model.calls == 1 + sum(rep.forward_calls for rep in res.reports)
    assert res.record.jacobians == 1 + sum(rep.accepted for rep in res.reports)


def test_warm_up_step_that_gains_within_tolerance_switches_the_prior_on():
    # a Jacobian 100 times too large makes every step 1/100 of the
    # Gauss-Newton one, which is predicted to gain ~1e-2 nat and gains ~2e-4:
    # the warm-up's first step switches the prior on, and the next, with the
    # prior on, ends the phase
    model = ScaledJacobianModel(LinearOracleModel(np.eye(2)), 100.0)
    prior = SmoothPrior.for_grid(2, 1, a_phi=1.0, b_phi=1.0)
    res = update_mu(empty_state(2, a0=1e8, b0=1e8), model, np.array([0.1, 0.1]), prior=prior)
    warm, regularized = res.reports
    assert not warm.regularization_active and regularized.regularization_active
    for rep in res.reports:
        assert rep.accepted and 0.0 < rep.f_after - rep.f_before <= GAIN_TOL
    assert res.record.stop_reason == "gain_tolerance" and res.forward_calls == 3


def test_step_with_the_prior_on_that_accepts_nothing_ends_the_phase(rng):
    # the same failed G with the prior on from the first step: nothing is
    # left to switch on, so the phase ends there and names that exit
    A = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    model = JacobianRefusingModel(A, refuse_call=2)
    prior = SmoothPrior.for_grid(3, 1, a_phi=1.0, b_phi=1.0)
    res = update_mu(empty_state(3), model, rng.normal(size=6), prior=prior, reg_delay=0,
                    max_halvings=0)
    (rep,) = res.reports
    assert not rep.accepted and rep.regularization_active
    assert res.record.stop_reason == "no_acceptable_trial" and not res.budget_exhausted
    assert res.forward_calls == model.calls == 3


class CliffModel(LinearOracleModel):
    """Linear model whose value solve fails where |psi| > `radius`, and whose
    Jacobian solve also fails where |psi| > `jacobian_radius`; counts both."""

    def __init__(self, A, radius, jacobian_radius=np.inf):
        super().__init__(A)
        self.radius = radius
        self.jacobian_radius = jacobian_radius
        self.failures = 0

    def _evaluate(self, psi):
        norm = np.linalg.norm(psi)
        if norm > self.radius:
            self.failures += 1
            raise ForwardSolveError("value solve past the cliff")
        if norm <= self.jacobian_radius:
            return super()._evaluate(psi)

        def refuse():
            self.failures += 1
            raise ForwardSolveError("sensitivity solve past the cliff")

        return ForwardEval(y=self.A @ psi, G=None, _jacobian=refuse)


def cliff_problem(seed):
    """A, yhat and the phase's first Gauss-Newton step from psi = 0."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    yhat = rng.normal(size=6)
    state = empty_state(3)
    ev = LinearOracleModel(A).evaluate(state.mu).with_jacobian()
    a, b = update_q_tau(state, yhat - ev.y)
    system = gauss_newton_system(ev, yhat, a / b, np.zeros(3, dtype=bool))
    return A, yhat, gauss_newton_step(state.mu, system, None)


def halving_reference(model, yhat, delta, max_halvings):
    """The step plain halving takes from psi = 0: the least k whose trial
    2^-k delta solves value and Jacobian and raises F_mu; (k, psi), or (None, 0)."""
    state = empty_state(delta.size)
    ev = model.evaluate(state.mu).with_jacobian()
    a, b = update_q_tau(state, yhat - ev.y)
    f0 = -0.5 * (a / b) * float((yhat - ev.y) @ (yhat - ev.y))
    for k in range(max_halvings + 1):
        trial = state.mu + 0.5 ** k * delta
        try:
            ev_k = model.evaluate(trial)
            r = yhat - ev_k.y
            if -0.5 * (a / b) * float(r @ r) > f0:
                ev_k.with_jacobian()
                return k, trial
        except ForwardSolveError:
            pass
    return None, state.mu


# calls to reach the first exponent b whose trial solves, of max_halvings = 10
FIRST_SOLVING = [*range(11), None]
HALVING_CALLS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 11]
SEARCH_CALLS = [1, 2, 4, 4, 6, 6, 6, 6, 6, 7, 7, 5]


@pytest.mark.parametrize("b,halving_calls,search_calls",
                         zip(FIRST_SOLVING, HALVING_CALLS, SEARCH_CALLS),
                         ids=[f"b={b}" for b in FIRST_SOLVING])
def test_search_past_failed_solves_takes_the_halving_step(b, halving_calls, search_calls):
    # every trial beyond the cliff fails, every one within it is accepted:
    # the step is halving's, bit for bit, in the search's calls
    A, yhat, delta = cliff_problem(0)
    dn = np.linalg.norm(delta)
    radius = dn * (1.5 * 0.5 ** b if b is not None else 0.5 ** 11)
    ref_model = CliffModel(A, radius)
    k_ref, mu_ref = halving_reference(ref_model, yhat, delta, 10)
    assert k_ref == b and ref_model.calls == 1 + halving_calls
    model = CliffModel(A, radius)
    res = update_mu(empty_state(3), model, yhat, max_outer=1, max_halvings=10)
    (rep,) = res.reports
    assert rep.accepted == (b is not None)
    assert res.mu.tobytes() == mu_ref.tobytes()
    assert rep.forward_calls == search_calls
    assert res.forward_calls == model.calls == 1 + search_calls
    assert rep.failed == model.failures
    assert rep.halvings == rep.forward_calls - rep.accepted
    assert rep.delta_norm == (dn * 0.5 ** b if b is not None else 0.0)


@pytest.mark.parametrize("b", range(10))
def test_failed_jacobian_at_the_first_solving_trial_moves_on(b):
    # the trial at 2^-b solves and passes but its G fails: the step is
    # accepted at 2^-(b+1), which is solved again if the search saw it
    A, yhat, delta = cliff_problem(1)
    dn = np.linalg.norm(delta)
    model = CliffModel(A, 1.5 * 0.5 ** b * dn, jacobian_radius=0.75 * 0.5 ** b * dn)
    k_ref, mu_ref = halving_reference(CliffModel(A, model.radius, model.jacobian_radius),
                                      yhat, delta, 10)
    assert k_ref == b + 1
    res = update_mu(empty_state(3), model, yhat, max_outer=1, max_halvings=10)
    (rep,) = res.reports
    assert rep.accepted and res.mu.tobytes() == mu_ref.tobytes()
    assert rep.forward_calls == SEARCH_CALLS[b] + 1
    assert rep.failed == model.failures >= 1
    assert res.record.jacobians == 2 and np.array_equal(dense(res.ev.G), A)


class CeilingModel(LinearOracleModel):
    """Linear model whose value solve fails where an entry of psi is above
    `ceiling`, as the FEM model's does past its modulus overflow; it declares
    that edge as its `psi_max` only if `declared`, and counts its calls there."""

    def __init__(self, A, ceiling, declared):
        super().__init__(A)
        self.ceiling = ceiling
        if declared:
            self.psi_max = ceiling
        self.over = 0

    def _evaluate(self, psi):
        if np.max(psi) > self.ceiling:
            self.over += 1
            raise ForwardSolveError("modulus overflow past the ceiling")
        return super()._evaluate(psi)


@pytest.mark.parametrize("b", FIRST_SOLVING, ids=[f"b={b}" for b in FIRST_SOLVING])
def test_declared_domain_skips_calls_and_keeps_every_step(b):
    # the first step's trials lie outside the domain up to 2^-b (all of them
    # for b = None), and later steps leave it too; declaring the domain takes
    # the same steps, bit for bit, and spends no call outside it
    A, yhat, delta = cliff_problem(0)
    assert np.max(delta) > 0
    ceiling = np.max(delta) * (1.5 * 0.5 ** b if b is not None else 0.5 ** 11)
    bounded = CeilingModel(A, ceiling, declared=True)
    unbounded = CeilingModel(A, ceiling, declared=False)
    assert unbounded.psi_max == np.inf and bounded.psi_max == ceiling
    res_b = update_mu(empty_state(3), bounded, yhat)
    res_u = update_mu(empty_state(3), unbounded, yhat)
    assert res_b.mu.tobytes() == res_u.mu.tobytes()
    assert ([(rep.accepted, rep.delta_norm) for rep in res_b.reports]
            == [(rep.accepted, rep.delta_norm) for rep in res_u.reports])
    assert bounded.over == 0 and (unbounded.over > 0) == (b != 0)
    assert res_u.forward_calls - res_b.forward_calls == unbounded.over
    assert res_b.forward_calls == bounded.calls and res_u.forward_calls == unbounded.calls
    assert sum(rep.failed for rep in res_b.reports) == 0
    assert all(rep.halvings == rep.forward_calls - rep.accepted for rep in res_b.reports)


class PatternModel(ForwardModel):
    """y = A arctan(psi), whose value solve fails at the exponents `fail` of every
    step, and whose output at the exponents `reject` is moved far off the data.

    A trial is at exponent k when its distance from the last field whose G
    was solved is 2^-k times that of the step's first trial.  Logs each
    trial as (k, solved) and keeps every field whose G was solved.
    """

    def __init__(self, A, fail, reject=()):
        self.A = A
        super().__init__()
        self.fail = set(fail)
        self.reject = set(reject)
        self.solved_g = []
        self.first_step = None
        self.trials = []

    @property
    def d_psi(self):
        return self.A.shape[1]

    @property
    def d_y(self):
        return self.A.shape[0]

    def _evaluate(self, psi):
        k = None
        if self.solved_g:
            step = float(np.linalg.norm(psi - self.solved_g[-1]))
            self.first_step = self.first_step or step
            k = round(np.log2(self.first_step / step))
            self.trials.append((k, k not in self.fail))
            if k in self.fail:
                raise ForwardSolveError("value solve at a failing exponent")

        def jacobian():
            self.solved_g.append(psi.copy())
            self.first_step = None
            return DenseSensitivities(self.A / (1.0 + psi ** 2), self.active)

        y = self.A @ np.arctan(psi) + (1e3 if k in self.reject else 0.0)
        return ForwardEval(y=y, G=None, _jacobian=jacobian)


@pytest.mark.parametrize("fail", [(0, 1, 3, 4, 8), (0, 1, 3, 7, 10), (1, 2, 5), (0, 2, 3, 9)],
                         ids=lambda fail: "fail-" + "-".join(map(str, fail)))
def test_non_monotone_failures_keep_every_step_an_ascent(fail, rng):
    # where a trial fails at a shorter step than one that solves, the search
    # may take another step than halving, or none: with (0, 1, 3, 7, 10) it
    # sees only failures and ends the phase where halving would accept 2^-2;
    # still every accepted field lowers the misfit (raises F_mu at any frozen
    # <tau>) and the calls keep to the budget
    A = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    yhat = A @ np.arctan(rng.normal(size=3)) + 0.01 * rng.normal(size=6)
    model = PatternModel(A, fail)
    res = update_mu(empty_state(3), model, yhat, call_budget=30)
    reported, failed = (sum(rep.failed for rep in res.reports),
                        sum(not ok for _, ok in model.trials))
    # a step cut short by the budget is not reported
    assert reported == failed or res.budget_exhausted and reported <= failed
    assert res.forward_calls == model.calls <= 30
    misfits = [float(np.sum((yhat - A @ np.arctan(psi)) ** 2)) for psi in model.solved_g]
    assert len(misfits) == res.record.jacobians == 1 + sum(rep.accepted for rep in res.reports)
    assert all(later < earlier for earlier, later in zip(misfits, misfits[1:]))
    assert np.array_equal(model.solved_g[-1], res.mu)
    if fail == (0, 1, 3, 7, 10):
        assert model.trials == [(k, False) for k in fail]
        assert [rep.accepted for rep in res.reports] == [False]


@pytest.mark.parametrize("budget", range(2, 7))
def test_call_budget_runs_out_mid_search(budget):
    # b = 8 takes the trials at k = 0, 1, 3, 7 (fail), 10 and 8 (solve): a
    # budget that ends the search first leaves mu where it was, and the
    # trial held from the gallop is not taken
    A, yhat, delta = cliff_problem(2)
    model = CliffModel(A, 1.5 * 0.5 ** 8 * np.linalg.norm(delta))
    res = update_mu(empty_state(3), model, yhat, call_budget=budget)
    assert res.budget_exhausted and res.reports == []
    assert res.forward_calls == model.calls == budget
    assert np.array_equal(res.mu, np.zeros(3))
    assert res.record.jacobians == 1 and np.array_equal(dense(res.ev.G), A)
    full = update_mu(empty_state(3), CliffModel(A, model.radius), yhat, max_outer=1,
                     call_budget=7)
    assert full.reports[0].accepted and full.forward_calls == 7


def test_call_budget_runs_out_in_the_walk_up():
    # the search calls k = 0, 1, 3 (fail), 7 (passes), 5 (rejected) and 4
    # (fail) and returns 5; the step then walks up to k = 6, for which no
    # call is left.  The step ends there with nothing accepted: the trial at
    # k = 7 still holds its evaluation, but the walk never passed k = 6
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    yhat = A @ np.arctan(rng.normal(size=3))
    model = PatternModel(A, fail=(0, 1, 3, 4), reject=(5, 6))
    res = update_mu(empty_state(3), model, yhat, call_budget=7)
    assert model.trials == [(0, False), (1, False), (3, False), (7, True), (5, True),
                            (4, False)]
    assert res.budget_exhausted and res.reports == []
    assert res.forward_calls == model.calls == 7
    assert res.record.jacobians == 1 and np.array_equal(res.mu, np.zeros(3))


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
    assert len(solved) == res.record.jacobians == 1 + accepted
    assert res.forward_calls == res.record.jacobians + sum(rep.halvings for rep in res.reports)
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
    many G are alive at each Jacobian solve.  Its solve fails where |psi|
    exceeds `limit`.  `y_alive_at_call` logs each call as (|y| at the last
    field whose G was solved, [|y| of each value-only evaluation alive]);
    with yhat = 0 a trial passes the acceptance test exactly when its |y| is
    below the first.
    """

    def __init__(self, limit=np.inf):
        super().__init__()
        self.limit = limit
        self.values = []
        self.jacobians = []
        self.alive_at_call = []          # (value-only evaluations, G) alive
        self.g_alive_at_solve = []
        self.y_at_g = None
        self.y_alive_at_call = []

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
        self.y_alive_at_call.append(
            (self.y_at_g, [abs(float(ref().y[0])) for ref in self.values if ref() is not None]))
        if abs(psi[0]) > self.limit:
            raise ForwardSolveError("modulus overflow past the limit")
        y = np.arctan(10.0 * psi)

        def jacobian():
            self.g_alive_at_solve.append(self._alive(self.jacobians))
            self.y_at_g = abs(float(y[0]))
            G = DenseSensitivities((10.0 / (1.0 + 100.0 * psi ** 2))[:, None], np.arange(1))
            self.jacobians.append(weakref.ref(G))
            return G

        ev = ForwardEval(y=y, G=None, _jacobian=jacobian)
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
    assert len(model.g_alive_at_solve) == res.record.jacobians == 1 + accepted
    assert model.g_alive_at_solve == [0] * res.record.jacobians
    assert res.forward_calls == model.calls > res.record.jacobians


def test_search_holds_at_most_one_passing_trial_at_each_call():
    # from psi = 1 the full step lands near -14, past |psi| = 3; the gallop
    # finds 2^-3 solving and passing and holds it while the bisection tries
    # 2^-2, which solves but is rejected: at no call is more than that one
    # trial alive, and never a rejected one
    model = ArctanModel(limit=3.0)
    state = empty_state(1)
    state.mu = np.array([1.0])
    res = update_mu(state, model, np.zeros(1))
    assert res.reports[0].accepted and res.reports[0].failed == 2
    assert res.reports[0].forward_calls == 4
    assert model.y_alive_at_call[0] == (None, [])
    for y_mu, alive in model.y_alive_at_call[1:]:
        assert len(alive) <= 1
        assert all(y < y_mu for y in alive)
    assert any(alive for _, alive in model.y_alive_at_call)


def test_report_validation():
    with pytest.raises(ValueError):
        MuUpdateReport(accepted=True, delta_norm=1.0, f_before=0.0, f_after=0.0,
                       forward_calls=1, regularization_active=False, failed=0,
                       corrected=False)
