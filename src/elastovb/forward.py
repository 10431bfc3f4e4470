"""Forward-model contract: evaluate outputs and sensitivities at a parameter point.

Every model returns the output vector and, unless the caller asks for the value
only (`jacobian=False`, as importance sampling does), its Jacobian; models that
cannot provide sensitivities are not admitted.  Each evaluation bumps a shared
call counter by exactly one, with or without the Jacobian.  The counter is the
unit of computational cost throughout the package.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .mesh_fem import (BoundarySpec, MaterialField, Mesh2D, adjoint_jacobian,
                       assembly_plan, _solve_reduced)


class ForwardSolveError(RuntimeError):
    """Forward solver failed; carries the offending parameter vector."""

    def __init__(self, message: str, psi: np.ndarray):
        super().__init__(message)
        self.psi = np.array(psi, copy=True)


@dataclass(frozen=True)
class ForwardEval:
    """Model output y (length d_y) and sensitivity matrix G (d_y x d_psi).

    G is None for a value-only evaluation.
    """

    y: np.ndarray
    G: np.ndarray | None

    def __post_init__(self) -> None:
        if self.G is not None and self.y.shape[0] != self.G.shape[0]:
            raise ValueError(f"y has {self.y.shape[0]} entries but G has {self.G.shape[0]} rows")
        if not (np.all(np.isfinite(self.y))
                and (self.G is None or np.all(np.isfinite(self.G)))):
            raise ValueError("forward evaluation produced non-finite values")


class CallCounter:
    """Thread-safe forward-call accumulator."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def increment(self) -> None:
        with self._lock:
            self._count += 1

    def reset(self) -> None:
        with self._lock:
            self._count = 0


class ForwardModel(ABC):
    """Abstract forward model: psi -> (y, dy/dpsi)."""

    def __init__(self, counter: CallCounter | None = None):
        self.counter = counter if counter is not None else CallCounter()

    @property
    @abstractmethod
    def d_psi(self) -> int: ...

    @property
    @abstractmethod
    def d_y(self) -> int: ...

    @abstractmethod
    def _evaluate(self, psi: np.ndarray, jacobian: bool) -> ForwardEval: ...

    def evaluate(self, psi: np.ndarray, jacobian: bool = True) -> ForwardEval:
        """One forward call; with jacobian=False the result's G is None."""
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (self.d_psi,):
            raise ValueError(f"psi has shape {psi.shape}, expected ({self.d_psi},)")
        self.counter.increment()
        return self._evaluate(psi, jacobian)


class LinearOracleModel(ForwardModel):
    """y = A psi + offset with constant Jacobian A; conjugate-Gaussian test model."""

    def __init__(self, A: np.ndarray, offset: np.ndarray | None = None,
                 counter: CallCounter | None = None):
        super().__init__(counter)
        self.A = np.asarray(A, dtype=float)
        self.offset = (np.zeros(self.A.shape[0]) if offset is None
                       else np.asarray(offset, dtype=float))
        if self.offset.shape != (self.A.shape[0],):
            raise ValueError("offset length does not match A rows")

    @property
    def d_psi(self) -> int:
        return self.A.shape[1]

    @property
    def d_y(self) -> int:
        return self.A.shape[0]

    def _evaluate(self, psi: np.ndarray, jacobian: bool) -> ForwardEval:
        return ForwardEval(y=self.A @ psi + self.offset,
                           G=self.A.copy() if jacobian else None)


class FemForwardModel(ForwardModel):
    """Plane-strain elastography model: displacements at observed dofs vs log-moduli.

    The assembly plan (element stiffness, dof maps, loads, sparsity pattern) is
    built at construction; a singular configuration still surfaces at
    `evaluate`, as a ForwardSolveError.
    """

    def __init__(self, mesh: Mesh2D, bc: BoundarySpec, obs_dofs: np.ndarray,
                 fixed_mask: np.ndarray | None = None, poisson: float = 0.0,
                 counter: CallCounter | None = None):
        super().__init__(counter)
        self.mesh = mesh
        self.bc = bc
        self.obs_dofs = np.asarray(obs_dofs, dtype=int)
        self.poisson = poisson
        if fixed_mask is None:
            fixed_mask = np.zeros(mesh.n_elems, dtype=bool)
        self.fixed_mask = np.asarray(fixed_mask, dtype=bool)
        self.plan = assembly_plan(mesh, bc, poisson)

    @property
    def d_psi(self) -> int:
        return self.mesh.n_elems

    @property
    def d_y(self) -> int:
        return self.obs_dofs.size

    def _evaluate(self, psi: np.ndarray, jacobian: bool) -> ForwardEval:
        field_ = MaterialField(psi=psi, fixed_mask=self.fixed_mask)
        try:
            system = _solve_reduced(self.mesh, self.bc, field_, self.poisson, plan=self.plan)
            G = (adjoint_jacobian(self.mesh, self.bc, field_, self.obs_dofs,
                                  self.poisson, system=system) if jacobian else None)
        except Exception as exc:
            raise ForwardSolveError(f"forward solve failed: {exc}", psi) from exc
        return ForwardEval(y=system.U[self.obs_dofs].copy(), G=G)


def free_dofs(mesh: Mesh2D, bc: BoundarySpec) -> np.ndarray:
    """All dof indices not prescribed by the boundary conditions, ascending."""
    ddofs, _ = bc.dirichlet_arrays(mesh.n_dofs)
    prescribed = np.zeros(mesh.n_dofs, dtype=bool)
    prescribed[ddofs] = True
    return np.flatnonzero(~prescribed)
