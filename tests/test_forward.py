"""Forward-model interface: evaluation contract, call accounting, determinism."""

import gc
import tracemalloc

import numpy as np
import pytest

from elastovb.forward import FemForwardModel, ForwardEval, ForwardSolveError
from elastovb.importance import run_is
from elastovb.mean_update import update_mu
from elastovb.mesh_fem import Mesh2D, _ReducedSystem
from elastovb.vb import ReducedPosterior

from conftest import compression_bc, top_clamped_model, traced_peak
from jacobian_oracle import dense
from linear_oracle import LinearOracleModel


def test_linear_oracle_identity():
    A = np.eye(3)
    model = LinearOracleModel(A)
    ev = model.evaluate(np.array([1.0, -2.0, 0.5])).with_jacobian()
    assert np.array_equal(ev.y, [1.0, -2.0, 0.5])
    assert np.array_equal(dense(ev.G), A)


def test_linear_oracle_offset_and_jacobian(rng):
    A = rng.normal(size=(5, 3))
    off = rng.normal(size=5)
    model = LinearOracleModel(A, offset=off)
    psi = rng.normal(size=3)
    value = model.evaluate(psi)
    assert value.G is None
    assert np.allclose(value.y, A @ psi + off, atol=1e-14)
    # Jacobian independent of the evaluation point
    ev = value.with_jacobian()
    ev2 = model.evaluate(psi + 1.0).with_jacobian()
    assert np.array_equal(dense(ev.G), dense(ev2.G))
    assert np.array_equal(ev.y, value.y)


def test_call_counter_accounting():
    model = LinearOracleModel(np.eye(2))
    assert model.calls == 0
    for i in range(4):
        model.evaluate(np.zeros(2)).with_jacobian()
    assert model.calls == 4


def test_evaluate_validates_shape():
    model = LinearOracleModel(np.eye(2))
    with pytest.raises(ValueError):
        model.evaluate(np.zeros(3))
    with pytest.raises(ValueError):
        model.evaluate(np.zeros((2, 1)))


def test_evaluate_rejects_nonfinite_psi():
    model = LinearOracleModel(np.eye(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            model.evaluate(np.array([0.0, bad]))
    assert model.calls == 0


def test_model_owns_its_clamp_set():
    # nothing is clamped unless the model is told so; the model keeps its own
    # read-only copy, so no later edit of the caller's array can disagree with it
    assert not LinearOracleModel(np.eye(3)).fixed_mask.any()
    given = np.array([True, False, False])
    model = LinearOracleModel(np.eye(3), fixed_mask=given)
    given[1] = True
    assert model.fixed_mask.tolist() == [True, False, False]
    with pytest.raises(ValueError):
        model.fixed_mask[2] = True
    with pytest.raises(ValueError, match="fixed_mask has shape"):
        LinearOracleModel(np.eye(3), fixed_mask=np.zeros(2, dtype=bool))


def test_forward_eval_validates():
    with pytest.raises(ValueError):
        ForwardEval(y=np.zeros(3), G=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ForwardEval(y=np.array([np.inf]), G=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        ForwardEval(y=np.array([np.nan]), G=None)
    assert ForwardEval(y=np.zeros(3), G=None).G is None


def test_fem_model_bit_identical_and_counts(rng):
    # an evaluation at another field in between must not leak into the
    # model's assembly plan
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    bc = compression_bc(mesh)
    model = FemForwardModel(mesh, bc)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    ev1 = model.evaluate(psi).with_jacobian()
    other = model.evaluate(psi + rng.normal(0.0, 0.4, mesh.n_elems)).with_jacobian()
    ev2 = model.evaluate(psi).with_jacobian()
    assert model.calls == 3
    assert not np.array_equal(ev1.y, other.y)
    assert np.array_equal(ev1.y, ev2.y)
    assert np.array_equal(dense(ev1.G), dense(ev2.G))
    assert np.array_equal(ev1.G.gram(), ev2.G.gram())
    assert model.d_psi == 9 and model.d_y == ev1.y.size == ev1.G.shape[0]


@pytest.mark.parametrize("clamp_rows", [0, 1])
def test_value_only_evaluation(clamp_rows, rng):
    mesh = Mesh2D(4, 3, 4.0, 3.0)
    bc = compression_bc(mesh)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[mesh.n_elems - clamp_rows * mesh.nx:] = True
    model = FemForwardModel(mesh, bc, fixed_mask=fixed, poisson=0.3)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    full = model.evaluate(psi).with_jacobian()
    value = model.evaluate(psi)
    assert model.calls == 2
    assert value.G is None
    assert value.y.tobytes() == full.y.tobytes()


def test_value_only_evaluation_gives_its_jacobian_later(rng):
    # the held factorization gives the same bits as a value+Jacobian call,
    # with no second solve and no second count
    mesh = Mesh2D(4, 3, 4.0, 3.0)
    bc = compression_bc(mesh)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[-mesh.nx:] = True
    model = FemForwardModel(mesh, bc, fixed_mask=fixed, poisson=0.3)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    value = model.evaluate(psi)
    model.evaluate(psi + 1.0).with_jacobian()    # another field in between
    assert model.calls == 2
    full = value.with_jacobian()
    assert model.calls == 2
    assert full.y is value.y
    fresh = model.evaluate(psi).with_jacobian().G
    assert dense(full.G).tobytes() == dense(fresh).tobytes()
    assert full.G.gram().tobytes() == fresh.gram().tobytes()
    assert full.with_jacobian() is full


def test_completed_evaluation_holds_no_reduced_system(rng):
    # the value-only handle holds the call's whole solved system; once the
    # sensitivities are formed it is spent, and G keeps only the banded factor
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    bc = compression_bc(mesh)
    model = FemForwardModel(mesh, bc)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)

    def systems_alive():
        gc.collect()
        return sum(isinstance(o, _ReducedSystem) for o in gc.get_objects())

    before = systems_alive()
    value = model.evaluate(psi)
    assert value._jacobian is not None
    assert systems_alive() == before + 1
    full = value.with_jacobian()
    del value
    fresh = model.evaluate(psi).with_jacobian()
    assert full._jacobian is None and fresh._jacobian is None
    assert systems_alive() == before


def test_value_only_evaluation_without_handle_refuses_jacobian():
    with pytest.raises(ValueError, match="no Jacobian handle"):
        ForwardEval(y=np.zeros(2), G=None).with_jacobian()


def test_failed_sensitivity_solve_is_a_forward_solve_error(rng, monkeypatch):
    import elastovb.forward as fwd

    mesh = Mesh2D(3, 3, 3.0, 3.0)
    bc = compression_bc(mesh)
    model = FemForwardModel(mesh, bc)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    value = model.evaluate(psi)
    failure = ForwardSolveError("sensitivity solve produced non-finite values")

    def broken(*args, **kwargs):
        raise failure

    monkeypatch.setattr(fwd, "adjoint_jacobian", broken)
    with pytest.raises(ForwardSolveError) as err:
        value.with_jacobian()
    assert err.value is failure


def test_a_bug_inside_a_solve_is_not_a_failed_trial(rng, monkeypatch):
    # only a ForwardSolveError is a numerical failure: any other exception in
    # a solve propagates from the evaluation, from a mean-phase trial, which
    # must not be halved, and from an importance sample, which must not be
    # discarded
    import elastovb.forward as fwd

    mesh = Mesh2D(3, 3, 3.0, 3.0)
    model = FemForwardModel(mesh, compression_bc(mesh))
    yhat = model.evaluate(rng.normal(0.0, 0.4, mesh.n_elems)).y
    state = ReducedPosterior(mu=np.zeros(mesh.n_elems), W=np.zeros((mesh.n_elems, 0)),
                             lambda0=np.zeros(0), lam=np.zeros(0), a0=1.0, b0=1.0)
    real = fwd._solve_reduced
    solves_left = [0]          # good solves before the bug

    def buggy(plan, psi):
        if solves_left[0] == 0:
            raise IndexError("bug inside the solve")
        solves_left[0] -= 1
        return real(plan, psi)

    monkeypatch.setattr(fwd, "_solve_reduced", buggy)
    with pytest.raises(IndexError):
        model.evaluate(state.mu)
    solves_left[0] = 1         # the mean phase's start; its first trial meets the bug
    before = model.calls
    with pytest.raises(IndexError):
        update_mu(state, model, yhat)
    assert model.calls == before + 2
    before = model.calls
    with pytest.raises(IndexError):
        run_is(state, model, yhat, M=4, seed=0)
    assert model.calls == before + 1


def test_jacobian_evaluation_peak_memory_near_G(rng):
    # one value+Jacobian call at 20x20 (380 active elements): besides the free
    # Gram only one block of right-hand sides and solutions is alive.  Solving
    # all active elements at once into a dense G peaked at 2.9 G.nbytes.
    model = top_clamped_model(20)
    psi = rng.normal(0.0, 0.4, model.d_psi)
    peak = traced_peak(lambda: model.evaluate(psi).with_jacobian())
    assert peak < 1.5 * 8 * model.d_y * model.d_psi


def test_sensitivities_never_form_the_dense_jacobian(rng):
    # one value+Jacobian call at 40x40 with the top row clamped: the free Gram
    # (18.6 MiB) and one block of solves, below the dense G it never forms
    # (d_y x n_elems, 39 MiB), which the blocked direct solve peaked above
    model = top_clamped_model(40)
    psi = rng.normal(0.0, 0.4, model.d_psi)
    tracemalloc.start()
    try:
        model.evaluate(psi).with_jacobian()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * model.d_y * model.d_psi


def test_fem_model_wraps_failures():
    # an unconstrained system cannot be factorized; the model's evaluation
    # raises the solver's named failure, which names the modulus range
    mesh = Mesh2D(2, 2, 1.0, 1.0)
    from elastovb.mesh_fem import BoundarySpec
    bc = BoundarySpec(dirichlet=[], tractions=[(3, 1.0)])
    model = FemForwardModel(mesh, bc, np.array([0, 1]))
    with pytest.raises(ForwardSolveError, match=r"log-moduli in \[0, 0\]"):
        model.evaluate(np.zeros(4))
    assert model.calls == 1
