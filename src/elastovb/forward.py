"""Forward-model contract: evaluate outputs and sensitivities at a parameter point.

A model's `_evaluate` gives the output vector together with a handle that
gives its sensitivities later, from the same forward solve; models that cannot
provide sensitivities are not admitted.  The sensitivities G are an operator
(`mesh_fem.Sensitivities`): G v, G^T w and the free Gram G_f^T G_f.  The FEM
model's operator works on the call's held banded factorization and never forms
the dense (d_y x d_psi) G.  `evaluate(psi)` is the value alone; a caller
that reads G asks for it with `with_jacobian()`, as the mean phase does for
its start and its accepted trials only.  Each evaluation bumps the model's
`calls` by exactly one, whether or not its sensitivities are ever formed;
that count is the unit of computational cost throughout the package.  A
numerical failure of the solve or of its sensitivities is the one
`ForwardSolveError`, raised in `mesh_fem` where it is detected; anything else
a model raises is a bug and propagates as it is.  A model also owns its
clamp set, `fixed_mask`, and the FEM model owns its assembly plan and
observed dofs, so nothing that defines the map is passed alongside it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .mesh_fem import (PSI_MAX, BoundarySpec, ForwardSolveError, Mesh2D, Sensitivities,
                       adjoint_jacobian, assembly_plan, _solve_reduced)


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


class ForwardModel(ABC):
    """Abstract forward model: psi -> (y, dy/dpsi), with its clamp set.

    `fixed_mask` marks the components of psi that are clamped: held at their
    value and never inferred.  The model is its only owner; the mean phase and
    the basis phase read it from here.  `active` lists the other components,
    the columns of the sensitivities' free Gram.  `calls` counts the model's
    evaluations.  `psi_max` bounds the model's domain: every evaluation at a
    psi with an entry above it raises ForwardSolveError, so a caller may count
    such a point as failed without spending a call on it.  It is +inf unless a
    subclass declares its edge.  Subclasses call `__init__` once d_psi is
    defined.
    """

    psi_max = np.inf

    def __init__(self, fixed_mask: np.ndarray | None = None):
        self.calls = 0
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

    def evaluate(self, psi: np.ndarray) -> ForwardEval:
        """One forward call, value only; the result gives G through `with_jacobian()`."""
        if psi.shape != (self.d_psi,):
            raise ValueError(f"psi has shape {psi.shape}, expected ({self.d_psi},)")
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi contains non-finite log-moduli")
        self.calls += 1
        return self._evaluate(psi)


class FemForwardModel(ForwardModel):
    """Plane-strain elastography model: displacements at observed dofs vs log-moduli.

    The model owns the three facts that define its map: the assembly plan
    (element stiffness, dof maps, loads, band slots, and so the free dofs), the
    observed dofs, and the clamped elements, whose sensitivity columns are
    exactly zero and never solved.  It observes every free dof unless given a
    subset, which must hold free dofs only.  All of it is fixed at
    construction; a singular configuration still surfaces at `evaluate`, as a
    ForwardSolveError.  Its domain is the log-moduli whose exp does not
    overflow, `psi_max = mesh_fem.PSI_MAX`.
    """

    psi_max = PSI_MAX

    def __init__(self, mesh: Mesh2D, bc: BoundarySpec, obs_dofs: np.ndarray | None = None,
                 fixed_mask: np.ndarray | None = None, poisson: float = 0.0):
        self.mesh = mesh
        super().__init__(fixed_mask)
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
        system = _solve_reduced(self.plan, psi)

        def jacobian() -> Sensitivities:
            # the held factorization, moduli and U of this call; no second solve
            return adjoint_jacobian(self.mesh, system, self.active, self.obs_dofs)

        return ForwardEval(y=system.U[self.obs_dofs].copy(), G=None, _jacobian=jacobian)
