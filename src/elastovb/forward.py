"""Forward-model contract: evaluate outputs and sensitivities at a parameter point.

A model's `_evaluate` gives the output vector together with a handle that
gives its sensitivities later, from the same forward solve; models that cannot
provide sensitivities are not admitted.  The sensitivities G are an operator
(`mesh_fem.Sensitivities`): G v, G^T w and the free Gram G_f^T G_f.  The FEM
model's operator works on the call's held banded factorization and never forms
the dense (d_y x d_psi) G.  `evaluate(psi)` is that value followed by
`with_jacobian()`; with `jacobian=False` the caller keeps the value-only
evaluation and asks for G only if it reads it, as the mean phase does for its
accepted trial alone.  Each evaluation bumps a shared call counter by exactly
one, whether or not its sensitivities are ever formed.  The counter is the
unit of computational cost throughout the package.  A model also owns its
clamp set, `fixed_mask`, and the FEM model owns its assembly plan and
observed dofs, so nothing that defines the map is passed alongside it.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .mesh_fem import (BoundarySpec, Mesh2D, Sensitivities, adjoint_jacobian,
                       assembly_plan, mirror_lower, _solve_reduced)


class ForwardSolveError(RuntimeError):
    """Forward solver failed; carries the offending parameter vector."""

    def __init__(self, message: str, psi: np.ndarray):
        super().__init__(message)
        self.psi = np.array(psi, copy=True)


@dataclass(frozen=True)
class ForwardEval:
    """Model output y (length d_y) and sensitivities G, an operator of shape (d_y, d_psi).

    G is None for a value-only evaluation.  A value-only evaluation from a
    model also holds `_jacobian`, a private handle that gives G from the call's
    own forward solve; `with_jacobian()` spends it.  An evaluation with G holds
    no handle; for the FEM model, G keeps the call's banded factor.
    """

    y: np.ndarray
    G: Sensitivities | None
    _jacobian: Callable[[], Sensitivities] | None = field(default=None, repr=False,
                                                          compare=False)

    def __post_init__(self) -> None:
        if self.G is not None and self.y.shape[0] != self.G.shape[0]:
            raise ValueError(f"y has {self.y.shape[0]} entries but G has {self.G.shape[0]} rows")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("forward evaluation produced non-finite values")

    def with_jacobian(self) -> "ForwardEval":
        """The same evaluation with G filled in and no handle; no new forward call.

        The FEM model forms G's free Gram here, so a failed or non-finite
        sensitivity solve raises ForwardSolveError now.
        """
        if self.G is not None:
            return self
        if self._jacobian is None:
            raise ValueError("value-only evaluation holds no Jacobian handle")
        return ForwardEval(y=self.y, G=self._jacobian())


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


class ForwardModel(ABC):
    """Abstract forward model: psi -> (y, dy/dpsi), with its clamp set.

    `fixed_mask` marks the components of psi that are clamped: held at their
    value and never inferred.  The model is its only owner; the mean phase and
    the basis phase read it from here.  `active` lists the other components,
    the columns of the sensitivities' free Gram.  Subclasses call `__init__`
    once d_psi is defined.
    """

    def __init__(self, counter: CallCounter | None = None,
                 fixed_mask: np.ndarray | None = None):
        self.counter = counter if counter is not None else CallCounter()
        mask = (np.zeros(self.d_psi, dtype=bool) if fixed_mask is None
                else np.array(fixed_mask, dtype=bool))
        if mask.shape != (self.d_psi,):
            raise ValueError(f"fixed_mask has shape {mask.shape}, expected ({self.d_psi},)")
        mask.setflags(write=False)
        self.fixed_mask = mask
        self.active = np.flatnonzero(~mask)

    @property
    @abstractmethod
    def d_psi(self) -> int: ...

    @property
    @abstractmethod
    def d_y(self) -> int: ...

    @abstractmethod
    def _evaluate(self, psi: np.ndarray) -> ForwardEval:
        """Value-only evaluation holding a handle that solves for its Jacobian."""

    def evaluate(self, psi: np.ndarray, jacobian: bool = True) -> ForwardEval:
        """One forward call; with jacobian=False the result's G is None.

        A value-only result can still give its G through `with_jacobian()`.
        """
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (self.d_psi,):
            raise ValueError(f"psi has shape {psi.shape}, expected ({self.d_psi},)")
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi contains non-finite log-moduli")
        self.counter.increment()
        ev = self._evaluate(psi)
        return ev.with_jacobian() if jacobian else ev


class DenseSensitivities(Sensitivities):
    """Sensitivities held as a dense (d_y x d_psi) matrix A, for closed-form test models."""

    def __init__(self, A: np.ndarray, free: np.ndarray):
        if not np.all(np.isfinite(A)):
            raise ValueError("forward evaluation produced non-finite values")
        self.A = A
        self.shape = A.shape
        self._free = free

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.A @ v

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        return self.A.T @ w

    def _form_gram(self) -> np.ndarray:
        A_f = self.A[:, self._free]
        return mirror_lower(A_f.T @ A_f)


class LinearOracleModel(ForwardModel):
    """y = A psi + offset with constant Jacobian A; conjugate-Gaussian test model."""

    def __init__(self, A: np.ndarray, offset: np.ndarray | None = None,
                 counter: CallCounter | None = None, fixed_mask: np.ndarray | None = None):
        self.A = np.asarray(A, dtype=float)
        super().__init__(counter, fixed_mask)
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

    def _evaluate(self, psi: np.ndarray) -> ForwardEval:
        return ForwardEval(y=self.A @ psi + self.offset, G=None,
                           _jacobian=lambda: DenseSensitivities(self.A, self.active))


class FemForwardModel(ForwardModel):
    """Plane-strain elastography model: displacements at observed dofs vs log-moduli.

    The model owns the three facts that define its map: the assembly plan
    (element stiffness, dof maps, loads, band slots, and so the free dofs), the
    observed dofs, and the clamped elements, whose sensitivity columns are
    exactly zero and never solved.  It observes every free dof unless given a
    subset, which must hold free dofs only.  All of it is fixed at
    construction; a singular configuration still surfaces at `evaluate`, as a
    ForwardSolveError.
    """

    def __init__(self, mesh: Mesh2D, bc: BoundarySpec, obs_dofs: np.ndarray | None = None,
                 fixed_mask: np.ndarray | None = None, poisson: float = 0.0,
                 counter: CallCounter | None = None):
        self.mesh = mesh
        super().__init__(counter, fixed_mask)
        self.plan = assembly_plan(mesh, bc, poisson)
        self.obs_dofs = Q = (self.plan.free if obs_dofs is None
                             else np.asarray(obs_dofs, dtype=int))
        if Q.size and (Q.min() < 0 or Q.max() >= mesh.n_dofs):
            raise IndexError("observation dof out of range")
        prescribed = self.plan.free_pos[Q] < 0
        if np.any(prescribed):
            raise ValueError(f"observed dofs {Q[prescribed].tolist()} are prescribed; "
                             "their displacements do not depend on psi")

    @property
    def d_psi(self) -> int:
        return self.mesh.n_elems

    @property
    def d_y(self) -> int:
        return self.obs_dofs.size

    def _evaluate(self, psi: np.ndarray) -> ForwardEval:
        try:
            system = _solve_reduced(self.plan, psi)
        except Exception as exc:
            raise ForwardSolveError(f"forward solve failed: {exc}", psi) from exc

        def jacobian() -> Sensitivities:
            # the held factorization, moduli and U of this call; no second solve
            try:
                return adjoint_jacobian(self.mesh, system, self.active, self.obs_dofs)
            except Exception as exc:
                raise ForwardSolveError(f"sensitivity solve failed: {exc}", psi) from exc

        return ForwardEval(y=system.U[self.obs_dofs].copy(), G=None, _jacobian=jacobian)
