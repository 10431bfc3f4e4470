"""Forward-model interface: evaluation contract, call accounting, determinism."""

import gc

import numpy as np
import pytest

from elastovb.forward import (CallCounter, FemForwardModel, ForwardEval,
                              ForwardSolveError, LinearOracleModel)
from elastovb.mesh_fem import Mesh2D, _ReducedSystem

from conftest import compression_bc, top_clamped_model, traced_peak


def test_linear_oracle_identity():
    A = np.eye(3)
    model = LinearOracleModel(A)
    ev = model.evaluate(np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(ev.y, [1.0, -2.0, 0.5])
    assert np.array_equal(ev.G, A)


def test_linear_oracle_offset_and_jacobian(rng):
    A = rng.normal(size=(5, 3))
    off = rng.normal(size=5)
    model = LinearOracleModel(A, offset=off)
    psi = rng.normal(size=3)
    ev = model.evaluate(psi)
    assert np.allclose(ev.y, A @ psi + off, atol=1e-14)
    # Jacobian independent of the evaluation point
    ev2 = model.evaluate(psi + 1.0)
    assert np.array_equal(ev.G, ev2.G)
    value = model.evaluate(psi, jacobian=False)
    assert value.G is None and np.array_equal(value.y, ev.y)


def test_call_counter_accounting():
    counter = CallCounter()
    model = LinearOracleModel(np.eye(2), counter=counter)
    assert counter.count == 0
    for i in range(4):
        model.evaluate(np.zeros(2))
    assert counter.count == 4


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
    assert model.counter.count == 0


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
    counter = CallCounter()
    model = FemForwardModel(mesh, bc, counter=counter)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    ev1 = model.evaluate(psi)
    other = model.evaluate(psi + rng.normal(0.0, 0.4, mesh.n_elems))
    ev2 = model.evaluate(psi)
    assert counter.count == 3
    assert not np.array_equal(ev1.y, other.y)
    assert np.array_equal(ev1.y, ev2.y)
    assert np.array_equal(ev1.G, ev2.G)
    assert model.d_psi == 9 and model.d_y == ev1.y.size == ev1.G.shape[0]


@pytest.mark.parametrize("clamp_rows", [0, 1])
def test_value_only_evaluation(clamp_rows, rng):
    mesh = Mesh2D(4, 3, 4.0, 3.0)
    bc = compression_bc(mesh)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[mesh.n_elems - clamp_rows * mesh.nx:] = True
    counter = CallCounter()
    model = FemForwardModel(mesh, bc, fixed_mask=fixed, poisson=0.3, counter=counter)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    full = model.evaluate(psi)
    value = model.evaluate(psi, jacobian=False)
    assert counter.count == 2
    assert value.G is None
    assert value.y.tobytes() == full.y.tobytes()


def test_value_only_evaluation_gives_its_jacobian_later(rng):
    # the held factorization gives the same bits as a value+Jacobian call,
    # with no second solve and no second count
    mesh = Mesh2D(4, 3, 4.0, 3.0)
    bc = compression_bc(mesh)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[-mesh.nx:] = True
    counter = CallCounter()
    model = FemForwardModel(mesh, bc, fixed_mask=fixed, poisson=0.3, counter=counter)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    value = model.evaluate(psi, jacobian=False)
    model.evaluate(psi + 1.0)                    # another field in between
    assert counter.count == 2
    full = value.with_jacobian()
    assert counter.count == 2
    assert full.y is value.y
    assert full.G.tobytes() == model.evaluate(psi).G.tobytes()
    assert full.with_jacobian() is full


def test_completed_evaluation_holds_no_factorization(rng):
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    bc = compression_bc(mesh)
    model = FemForwardModel(mesh, bc)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)

    def systems_alive():
        gc.collect()
        return sum(isinstance(o, _ReducedSystem) for o in gc.get_objects())

    before = systems_alive()
    value = model.evaluate(psi, jacobian=False)
    assert value._jacobian is not None
    assert systems_alive() == before + 1
    full = value.with_jacobian()
    del value
    fresh = model.evaluate(psi)
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
    value = model.evaluate(psi, jacobian=False)

    def broken(*args, **kwargs):
        raise RuntimeError("no pivot")

    monkeypatch.setattr(fwd, "adjoint_jacobian", broken)
    with pytest.raises(ForwardSolveError, match="sensitivity solve failed") as err:
        value.with_jacobian()
    assert np.array_equal(err.value.psi, psi)


def test_jacobian_evaluation_peak_memory_near_G(rng):
    # one value+Jacobian call at 20x20 (380 active elements): besides G only
    # one block of right-hand sides and solutions is alive.  Solving all
    # active elements at once peaked at 2.9 G.nbytes.
    model = top_clamped_model(20)
    psi = rng.normal(0.0, 0.4, model.d_psi)
    peak = traced_peak(lambda: model.evaluate(psi))
    assert peak < 1.5 * 8 * model.d_y * model.d_psi


def test_fem_model_wraps_failures():
    # an unconstrained system cannot be factorized; the model reports which
    # parameter vector triggered it
    mesh = Mesh2D(2, 2, 1.0, 1.0)
    from elastovb.mesh_fem import BoundarySpec
    bc = BoundarySpec(dirichlet=[], tractions=[(3, 1.0)])
    model = FemForwardModel(mesh, bc, np.array([0, 1]))
    psi = np.zeros(4)
    with pytest.raises(ForwardSolveError) as err:
        model.evaluate(psi)
    assert np.array_equal(err.value.psi, psi)
