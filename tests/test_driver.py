"""Adaptive subspace growth: gain statistic, precision schedule, eigenbasis, runs."""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from elastovb import driver
from elastovb.config import (ConfigError, build_model, config_from_dict, generate_data,
                             initial_mu, parse_block, to_plain)
from elastovb.driver import (DriverConfig, RunTrace, add_basis, info_gain, kl_terms,
                             next_prior_precision, optimize_W, run)
from elastovb.forward import FemForwardModel, ForwardEval
from elastovb.mean_update import SmoothPrior, em_phi, log_prior_mu_and_grad
from elastovb.vb import ReducedPosterior, elbo, update_q_tau

import vb_oracle as oracle
from conftest import (concentrated_tau_prior, example1_config, example1_dict, top_clamped_model,
                      traced_peak)
from jacobian_oracle import dense
from linear_oracle import DenseSensitivities, LinearOracleModel


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
    ev = LinearOracleModel(G, fixed_mask=fixed).evaluate(np.zeros(6)).with_jacobian()
    vecs, vals = optimize_W(ev, 0, 4)
    assert vecs.shape == (4, 4)             # one column per free element, no more
    assert orthonormality_defect(vecs) < 1e-10
    assert np.allclose((vecs * vals) @ vecs.T, G[:, :4].T @ G[:, :4], rtol=0.0, atol=1e-12)
    # the driver scatters each column it takes onto the free rows; G is
    # constant, so the run's final Jacobian gives the same eigenvectors
    yhat = G @ rng.normal(size=6) + rng.normal(0.0, 0.01, 9)
    state = run(LinearOracleModel(G, fixed_mask=fixed), yhat, DriverConfig()).state
    assert state.d_theta == 4
    assert np.all(state.W[4:, :] == 0.0)
    assert np.array_equal(state.W[:4, :], vecs)
    assert orthonormality_defect(state.W) < 1e-10
    with pytest.raises(ValueError):
        add_basis(state, np.ones(5), 1e-10)
    # a column given as a (d_psi x 1) matrix would stack as one column too
    with pytest.raises(ValueError, match=r"basis column has shape \(6, 1\), expected \(6,\)"):
        add_basis(state, np.ones((6, 1)), 1e-10)


def test_optimize_W_peak_memory_near_one_gram():
    # 20x20 with the top row clamped (n_free = 380), in units of one
    # (n_free x n_free) float64 array.  The first call takes the Gram the
    # evaluation holds; the traced second one forms it again from the
    # sensitivities: the Gram (1), one block of solves (0.18) and the
    # contraction's temporaries, then the in-place decomposition (measured
    # 1.40).  Computing all n_free eigenvectors peaked at 2.1, and forming the
    # full d_psi^2 Gram and copying its free block at 3.1.
    model = top_clamped_model(20)
    psi = np.random.default_rng(0).normal(0.0, 0.4, model.d_psi)
    ev = model.evaluate(psi).with_jacobian()
    n_free = model.active.size
    assert traced_peak(lambda: optimize_W(ev, 0, 6)) < 1.5 * 8 * n_free ** 2


def test_run_peak_memory_near_G_plus_one_gram():
    # the whole run on the 20x20 model with the top row clamped: one Gram at a
    # time, the linearization's or the basis phase's, which both solves and
    # eigendecompositions overwrite in place, and no dense G (measured 1.9
    # (n_free x n_free) arrays; G alone is 2.2).  A factored copy of the
    # Gram, or all n_free eigenvectors, peaked at G + 2.2.
    model = top_clamped_model(20)
    psi_true = np.zeros(model.d_psi)
    psi_true[150:160] = 1.0
    y = model.evaluate(psi_true).y
    yhat = y + np.random.default_rng(1).normal(0.0, 1e-3 * float(np.std(y)), model.d_y)
    prior = SmoothPrior.for_grid(20, 20)
    traces = []
    peak = traced_peak(lambda: traces.append(run(model, yhat, DriverConfig(), prior=prior)))
    assert (traces[-1].state.d_theta, traces[-1].stop_reason) == (6, "info_gain")
    n_free = int(np.count_nonzero(~model.fixed_mask))
    assert peak <= 8 * model.d_y * model.d_psi + 1.5 * 8 * n_free ** 2


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


def test_null_space_columns_carry_no_data(rng):
    # 3 observations of 8 free parameters: the first 5 minor eigenvectors span
    # G's null space, so their posterior precisions must stay at the prior and
    # growth stops on five zero gains.  eigh returns those eigenvalues as
    # ~1e-16 |G^T G|; taken as the data terms, they put lam 0.7% above lambda0.
    G = rng.normal(size=(3, 8))
    yhat = G @ rng.normal(size=8) + rng.normal(0.0, 1e-2, 3)
    a0, b0 = concentrated_tau_prior(1e4)
    trace = run(LinearOracleModel(G), yhat, DriverConfig(a0=a0, b0=b0))
    assert (trace.state.d_theta, trace.stop_reason) == (5, "info_gain")
    assert np.allclose(trace.state.lam, trace.state.lambda0, rtol=1e-12, atol=0.0)


def test_gain_is_degenerate_while_no_column_carries_data(rng):
    # parameter 3 moves no observation, so the minor eigenvector is e_3 and its
    # data term exactly 0: stage 1's posterior is its prior, and stage 2's is not
    A = rng.normal(size=(8, 4)) + 2.0 * np.eye(8, 4)
    A[:, 3] = 0.0
    yhat = A @ rng.normal(size=4) + rng.normal(0.0, 0.01, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig())
    assert trace.state.W[:, 0].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert [r.gain_degenerate for r in trace.records] == [True, False, False, False]


def test_run_caps_at_max_bases(linear_problem, rng):
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 1e-3, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig(max_bases=1))
    assert trace.stop_reason == "max_bases"
    assert trace.state.d_theta == 1
    assert len(trace.records) == 1


def test_run_zero_noise_recovers_truth(linear_problem):
    # a proper noise prior keeps q(tau) defined however closely the first
    # Gauss-Newton step lands on psi_true
    A, psi_true = linear_problem
    trace = run(LinearOracleModel(A), A @ psi_true, DriverConfig(a0=1e-6, b0=1e-6))
    assert np.max(np.abs(trace.state.mu - psi_true)) < 1e-6
    assert trace.stop_reason == "full_rank"
    assert trace.state.d_theta == 4


def test_run_from_an_exact_fit_needs_a_proper_noise_prior(linear_problem):
    # started at psi_true, the model output equals the data bit for bit
    A, psi_true = linear_problem
    model, yhat = LinearOracleModel(A), A @ psi_true
    with pytest.raises(RuntimeError, match=r"zero misfit under the improper noise prior"):
        run(model, yhat, DriverConfig(), mu0=psi_true)
    trace = run(model, yhat, DriverConfig(a0=1e-6, b0=1e-6), mu0=psi_true)
    assert np.array_equal(trace.state.mu, psi_true)


@pytest.mark.xfail(
    strict=True,
    reason="with the pinned schedule (first prior precision 1e-10) the "
    "coordinate-KL sum is dominated by lam_1/lambda0_1 and decreases as <tau> "
    "falls with each added coordinate; measured -0.4%/stage on the benchmark")
def test_run_kl_numerator_nondecreasing(linear_problem, rng):
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig())
    totals = [float(np.sum(kl_terms(trace.state.lambda0[:r.d_theta], np.array(r.lam))))
              for r in trace.records]
    for prev, nxt in zip(totals, totals[1:]):
        assert nxt >= prev - 1e-9 * (1.0 + abs(prev))


def test_run_prior_precisions_end_nondecreasing(linear_problem, rng):
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig())
    # a stage's prior precisions are the first d of the final ones
    assert np.all(np.diff(trace.state.lambda0[:trace.records[-1].d_theta]) >= 0.0)


def test_run_counts_calls_only_in_mean_phase(linear_problem, rng):
    A, psi_true = linear_problem
    model = LinearOracleModel(A)
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(model, yhat, DriverConfig())
    assert model.calls == trace.forward_calls


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
    fixed = np.array([False, True, False, False])
    trace = run(LinearOracleModel(A, fixed_mask=fixed), yhat, DriverConfig(max_bases=2))
    d = to_plain(trace)
    assert d["state"]["clamped"] == [1]
    back = parse_block(RunTrace, d)
    assert to_plain(back) == d
    assert back.state.clamped == [1]
    assert np.array_equal(back.state.mu, trace.state.mu)
    assert np.array_equal(back.state.W, trace.state.W)
    assert np.array_equal(back.state.lam, trace.state.lam)
    assert (back.state.a, back.state.b) == (trace.state.a, trace.state.b)
    # an integral float is an index, as every config integer reads
    d["state"]["clamped"] = [1.0]
    assert parse_block(RunTrace, d).state.clamped == [1]


@pytest.mark.parametrize("value", [0, 1, "true", None])
def test_trace_reads_a_flag_only_as_a_boolean(value, linear_problem, rng):
    # a JSON 1 is not true: a count summed as a flag would print as one
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    d = to_plain(run(LinearOracleModel(A), yhat, DriverConfig(max_bases=2)))
    d["mu_phase"]["steps"][0]["accepted"] = value
    with pytest.raises(ConfigError, match=r"mu_phase\.steps\[0\]\.accepted must be true or false"):
        parse_block(RunTrace, d)


@pytest.mark.parametrize("edit,says", [
    (lambda d: d.update(records=d["records"][:-1]),
     "elbo_rows must run over d_theta 0 to 2, and records 1 to 2"),
    (lambda d: d.update(extra=1), "unknown top-level keys: ['extra']")],
    ids=["record-cut", "extra-key"])
def test_trace_top_level_error_names_no_block(edit, says, linear_problem, rng):
    # a rule of the trace's top level is reported as it stands, where the
    # reader used to name the root of every record "config"
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    d = to_plain(run(LinearOracleModel(A), yhat, DriverConfig(max_bases=2)))
    edit(d)
    with pytest.raises(ConfigError) as info:
        parse_block(RunTrace, d)
    assert str(info.value) == says


def test_run_rejects_mismatched_observations(linear_problem):
    A, _ = linear_problem
    with pytest.raises(ValueError, match="observations have length 5, model d_y is 8"):
        run(LinearOracleModel(A), np.zeros(5), DriverConfig())


def test_run_validates_its_config(linear_problem):
    # a window of 0 stages would stop growth on no evidence at all
    A, psi_true = linear_problem
    model = LinearOracleModel(A)
    with pytest.raises(ConfigError, match=r"solver\.info_gain_window must be >= 1"):
        run(model, A @ psi_true, DriverConfig(info_gain_window=0))
    assert model.calls == 0


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

    monkeypatch.setattr("elastovb.driver.syevr", refuse)
    A, psi_true = linear_problem
    yhat = A @ psi_true + rng.normal(0.0, 0.01, 8)
    trace = run(LinearOracleModel(A), yhat, DriverConfig(max_bases=0))
    assert (trace.stop_reason, trace.state.d_theta, trace.records) == ("max_bases", 0, [])
    trace = run(LinearOracleModel(A, fixed_mask=np.ones(4, dtype=bool)), yhat,
                DriverConfig())
    assert (trace.stop_reason, trace.state.d_theta, trace.records) == ("max_bases", 0, [])
    with pytest.raises(AssertionError, match="eigh called"):
        run(LinearOracleModel(A), yhat, DriverConfig(max_bases=1))


def block_problem(rng):
    # 12 parameters, 2 clamped; with lambda0_1 = 1 every gain stays above the
    # threshold, so growth runs on to the cap
    A = rng.normal(size=(30, 12))
    fixed = np.zeros(12, dtype=bool)
    fixed[10:] = True
    yhat = A @ rng.normal(size=12) + rng.normal(0.0, 1e-2, 30)
    return LinearOracleModel(A, fixed_mask=fixed), yhat


def record_optimize_W(monkeypatch):
    """Wrap the driver's optimize_W; the list receives (start, stop, pairs computed)."""
    calls = []
    real = optimize_W

    def recorded(ev, start, stop):
        vecs, vals = real(ev, start, stop)
        calls.append((start, stop, vals.size))
        return vecs, vals

    monkeypatch.setattr("elastovb.driver.optimize_W", recorded)
    return calls


@pytest.mark.parametrize("max_bases,stop_reason", [(None, "full_rank"), (7, "max_bases")])
def test_basis_across_the_block_boundary_is_the_minor_eigenbasis(max_bases, stop_reason,
                                                                  rng, monkeypatch):
    # info_gain_window 3 makes a first block of 4 pairs; the run passes it and
    # takes the rest up to the cap in a second decomposition
    model, yhat = block_problem(rng)
    calls = record_optimize_W(monkeypatch)
    cfg = DriverConfig(info_gain_window=3, lambda0_1=1.0, max_bases=max_bases)
    trace = run(model, yhat, cfg)
    d = 10 if max_bases is None else max_bases
    assert (trace.state.d_theta, trace.stop_reason) == (d, stop_reason)
    assert calls == [(0, 4, 4), (4, d, d - 4)]
    free = ~model.fixed_mask
    G_f = dense(model.evaluate(trace.state.mu).with_jacobian().G)[:, free]
    _, vecs = np.linalg.eigh(G_f.T @ G_f)
    vecs = vecs[:, :d] * np.where(
        vecs[np.argmax(np.abs(vecs[:, :d]), axis=0), np.arange(d)] < 0.0, -1.0, 1.0)
    W = trace.state.W
    assert np.all(W[~free] == 0.0)
    assert np.max(np.abs(W[free] - vecs)) <= 1e-12
    assert orthonormality_defect(W) <= 1e-13


def test_cap_below_the_block_decomposes_only_the_capped_pairs(rng, monkeypatch):
    model, yhat = block_problem(rng)
    calls = record_optimize_W(monkeypatch)
    trace = run(model, yhat, DriverConfig(info_gain_window=5, lambda0_1=1.0, max_bases=3))
    assert (trace.state.d_theta, trace.stop_reason) == (3, "max_bases")
    assert calls == [(0, 3, 3)]


# ---------------------------------------------------------------------------
# The basis the driver returns, on the built-in benchmark


def run_example1(model_cls=FemForwardModel, cfg=None):
    cfg = example1_config() if cfg is None else cfg
    obs, _, _ = generate_data(cfg)
    _, mesh, bc, _, mask = build_model(cfg)
    model = model_cls(mesh, bc, fixed_mask=mask, poisson=cfg.mesh.poisson)
    prior = SmoothPrior.for_grid(mesh.nx, mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
    trace = run(model, obs.yhat, cfg.solver, prior=prior, mu0=initial_mu(cfg, mesh))
    return SimpleNamespace(trace=trace, yhat=obs.yhat, mask=mask, model=model)


def final_evaluation(example):
    """The evaluation, Jacobian included, at the run's final mean: the one its
    basis phase worked from, solved again at one more call on its model."""
    return example.model.evaluate(example.trace.state.mu).with_jacobian()


@pytest.fixture(scope="module")
def example1():
    return run_example1()


# (Poisson ratio, SNR, noise seed) of example1 runs whose unregularized warm-up
# has a step that accepts no trial.  While such a step ended the mean phase,
# each reported a runaway field (free |mu| from 16.5 to 1.9e48) with d 7 to 13.
STALLED_WARM_UPS = [(0.0, 1e3, 7), (0.0, 1e2, 5), (0.3, 1e3, 18), (0.3, 1e2, 6),
                    (0.3, 1e2, 11), (0.49, 1e3, 15), (0.49, 1e3, 20), (0.49, 1e2, 2)]


@pytest.mark.parametrize("poisson,snr,noise_seed", STALLED_WARM_UPS)
def test_stalled_warm_up_switches_the_prior_on(poisson, snr, noise_seed):
    cfg = example1_config()
    cfg.mesh.poisson, cfg.noise.snr, cfg.noise.seed = poisson, snr, noise_seed
    res = run_example1(cfg=cfg)
    reports = res.trace.mu_phase.steps
    assert any(not rep.accepted and not rep.regularization_active for rep in reports)
    assert reports[-1].regularization_active
    assert np.max(np.abs(res.trace.state.mu[~res.mask])) < 10.0
    assert res.trace.state.d_theta == 6


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
    state, ev = example1.trace.state, final_evaluation(example1)
    free = ~example1.mask
    G_f = dense(ev.G)[:, free]
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
    state, ev = trace.state, final_evaluation(example1)
    log_prior_mu = trace.elbo_rows[0].log_prior_mu
    best = oracle.elbo(state, ev, yhat, log_prior_mu).f
    free = ~example1.mask
    rng = np.random.default_rng(0)

    def score(W):
        refit = oracle.q_fixed_point(replace(state, W=W), ev, yhat)
        return oracle.elbo(refit, ev, yhat, log_prior_mu).f

    for _ in range(100):
        W = np.zeros_like(state.W)
        W[free], _ = np.linalg.qr(rng.normal(size=(int(free.sum()), state.d_theta)))
        assert score(W) < best
    for _ in range(20):                     # small rotations of the optimum
        W = state.W.copy()
        W[free], _ = np.linalg.qr(W[free] + 1e-3 * rng.normal(size=W[free].shape))
        assert score(W) < best
    assert score(state.W[:, [1, 0, 2, 3, 4, 5]]) < best   # order matters too


def test_stages_match_the_general_W_oracle(example1):
    # the driver fits each stage from the data terms |G w_i|^2 and the
    # residual alone; the oracle forms them from the run's own W and final G
    # and iterates the conjugate updates towards their fixed point.  Measured:
    # bounds within 7e-16 relative and precisions within 2e-12.
    trace, yhat = example1.trace, example1.yhat
    ev = final_evaluation(example1)
    a, b = update_q_tau(trace.state, yhat - ev.y)       # the mean phase's q(tau)
    start = ReducedPosterior(mu=trace.state.mu, W=np.zeros((trace.state.d_psi, 0)),
                             lambda0=np.zeros(0), lam=np.zeros(0), a0=trace.state.a0,
                             b0=trace.state.b0, a=a, b=b)
    stages, bounds, stop = oracle.basis_phase(start, trace.state.W, ev, yhat,
                                              example1_config().solver,
                                              trace.elbo_rows[0].log_prior_mu)
    assert (len(stages), stop) == (trace.state.d_theta, trace.stop_reason) == (6, "info_gain")
    for record, st, bound in zip(trace.records, stages, bounds):
        d = record.d_theta
        assert trace.elbo_rows[d].f == pytest.approx(bound, rel=1e-12, abs=0.0)
        assert np.allclose(record.lam, st.lam, rtol=1e-9, atol=0.0)
        assert np.allclose(trace.state.lambda0[:d], st.lambda0, rtol=1e-9, atol=0.0)
    assert trace.state.b == pytest.approx(stages[-1].b, rel=1e-9, abs=0.0)


class RoundedJacobianModel(FemForwardModel):
    """FemForwardModel whose G carries a fixed relative perturbation of 1e-13."""

    def _evaluate(self, psi):
        ev = super()._evaluate(psi)

        def jacobian():
            G = dense(ev.with_jacobian().G)
            noise = np.random.default_rng(1).uniform(-1.0, 1.0, G.shape)
            return DenseSensitivities(G * (1.0 + 1e-13 * noise), self.active)

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
    trace = to_plain(example1.trace)
    mu_phase = trace["mu_phase"]
    accepted = sum(st["accepted"] for st in mu_phase["steps"])
    assert mu_phase["jacobians"] == 1 + accepted == 11
    assert trace["forward_calls"] == 11
    assert all(st["forward_calls"] - st["accepted"] == 0 for st in mu_phase["steps"])


@pytest.mark.parametrize("changes,calls", [
    ({}, 11), ({"mesh": {"nx": 20, "ny": 20}}, 13), ({"noise": {"snr": 100.0}}, 23),
    ({"noise": {"snr": 100.0, "seed": 15}}, 16)],
    ids=["example1", "mesh20", "noisy10", "flat_field"])
def test_trace_round_trips_through_its_dict(changes, calls):
    # the benchmark's three workloads, and a noisy run whose mean ends near the
    # flat field; every block is read back, through JSON, to the same dict
    d = example1_dict()
    for block, values in changes.items():
        d[block].update(values)
    trace = run_example1(cfg=config_from_dict(d)).trace
    assert trace.forward_calls == calls
    written = to_plain(trace)
    assert to_plain(parse_block(RunTrace, json.loads(json.dumps(written)))) == written


# each record's file, and the text format it is written in
RECORD_FILES = {"config.yaml": (yaml.safe_load, yaml.safe_dump),
                "observations.json": (json.loads, json.dumps),
                "run_trace.json": (json.loads, json.dumps)}


@pytest.mark.parametrize("name", list(RECORD_FILES))
def test_record_round_trips_through_its_file(name, monkeypatch):
    # to_plain writes a record as its file holds it and parse_block reads it
    # back, to the same text; the trace's elbo_rows are vb.elbo's rows of the
    # inputs the run passed it at each stage
    bounds = []

    def spy(*args):         # a row of its own, which the run cannot reach
        bounds.append(elbo(*args))
        return elbo(*args)

    monkeypatch.setattr(driver, "elbo", spy)
    cfg = example1_config()
    record = {"config.yaml": lambda: cfg, "observations.json": lambda: generate_data(cfg)[0],
              "run_trace.json": lambda: run_example1(cfg=cfg).trace}[name]()
    loads, dumps = RECORD_FILES[name]
    written = to_plain(record)
    back = parse_block(type(record), loads(dumps(written)))
    assert to_plain(back) == written
    assert dumps(to_plain(back)) == dumps(written)      # 1.0 == 1, but not as text
    if name == "run_trace.json":
        assert [row.d_theta for row in back.elbo_rows] == list(range(7))
        assert back.elbo_rows == bounds


def test_bound_holds_the_log_prior_at_the_final_mean(example1):
    # update_mu closes with an E-step at the final mean; without it the
    # bound's log_prior_mu reads 0 and the ELBO moves by 8 nat
    cfg = example1_config()
    prior = SmoothPrior.for_grid(cfg.mesh.nx, cfg.mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
    mu = example1.trace.state.mu
    expected = log_prior_mu_and_grad(mu, em_phi(mu, prior))[0]
    assert expected == pytest.approx(-8.000001075154891, rel=1e-6, abs=0.0)
    written = to_plain(example1.trace)["elbo_rows"][-1]["log_prior_mu"]
    assert written == pytest.approx(expected, rel=1e-6, abs=0.0)
