"""Forward-model interface: evaluation contract, call accounting, determinism."""

import numpy as np
import pytest

from elastovb.forward import (CallCounter, FemForwardModel, ForwardEval,
                              ForwardSolveError, LinearOracleModel, free_dofs)
from elastovb.mesh_fem import Mesh2D

from conftest import compression_bc


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
    counter.reset()
    assert counter.count == 0


def test_evaluate_validates_shape():
    model = LinearOracleModel(np.eye(2))
    with pytest.raises(ValueError):
        model.evaluate(np.zeros(3))
    with pytest.raises(ValueError):
        model.evaluate(np.zeros((2, 1)))


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
    model = FemForwardModel(mesh, bc, free_dofs(mesh, bc), counter=counter)
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
    model = FemForwardModel(mesh, bc, free_dofs(mesh, bc), fixed_mask=fixed,
                            poisson=0.3, counter=counter)
    psi = rng.normal(0.0, 0.4, mesh.n_elems)
    full = model.evaluate(psi)
    value = model.evaluate(psi, jacobian=False)
    assert counter.count == 2
    assert value.G is None
    assert value.y.tobytes() == full.y.tobytes()


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
