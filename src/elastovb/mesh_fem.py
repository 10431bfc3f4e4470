"""Structured 2D quadrilateral FEM for plane-strain linear elasticity.

The solver works on a regular nx-by-ny grid of bilinear 4-node quads with a
per-element elastic modulus given in log scale, psi_k = log(E_k).  Loads are
either prescribed nodal displacements or applied nodal tractions.  Everything
that does not depend on psi (the element stiffness, the dof maps, the load
vector and where each element entry lands in the band of the reduced
stiffness) is built once into an AssemblyPlan, which `forward.FemForwardModel`
owns together with its observed dofs and its clamped elements; every solve is
`_solve_reduced(plan, psi)`.  The reduced stiffness is symmetric positive
definite with half-bandwidth at most 2 nx + 5 in the node numbering below, so a
solve costs one exp, one bincount, a banded Cholesky factorization (LAPACK
pbtrf, which needs no fill-reducing ordering), the solve (pbtrs) and a residual
check (BLAS sbmv).  The three run in the OpenBLAS that numpy bundles, bound in
`_lapack`, so the package loads no scipy.
Output sensitivities dy/dpsi reuse that factorization as an operator,
`BandedSensitivities`, and the dense (d_y x n_elems) G is never formed: G v
and G^T w take one solve each, and the free Gram G_f^T G_f, which the mean and
basis phases factor and decompose, is formed from two solves per column over
blocks of SENSITIVITY_BLOCK active elements.  Its memory is the Gram and one
(n_free x block) array, where a dense G would be d_y n_elems (39 MiB at 40x40,
~650 MB at 80x80).

Node (ix, iy) has index iy*(nx+1) + ix; its displacement dofs are
(2*index, 2*index + 1) for (ux, uy).  Element (ex, ey) has index ey*nx + ex.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ._lapack import pbtrf, pbtrs, sbmv


SENSITIVITY_BLOCK = 32    # right-hand sides per sensitivity solve
# the largest log-modulus a solve admits, log(DBL_MAX) = 709.782712893384:
# exp of it is finite, and exp of the next double up overflows
PSI_MAX = float(np.log(np.finfo(float).max))


class ForwardSolveError(RuntimeError):
    """A forward solve failed numerically, the one failure a forward call names.

    It is raised where the failure is detected: a modulus that overflows,
    a stiffness that is singular or solved inaccurately, or a sensitivity
    solve that gives non-finite values.
    """


@dataclass(frozen=True)
class Mesh2D:
    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"element counts must be >= 1, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError(f"side lengths must be > 0, got {self.lx}x{self.ly}")

    @property
    def n_elems(self) -> int:
        return self.nx * self.ny

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    def node_index(self, ix: int, iy: int) -> int:
        return iy * (self.nx + 1) + ix

    def element_dofs(self) -> np.ndarray:
        """(n_elems, 8) global dof indices per element, node order CCW from lower-left."""
        ex, ey = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        ex = ex.ravel()
        ey = ey.ravel()
        n1 = ey * (self.nx + 1) + ex
        n2 = n1 + 1
        n3 = n2 + (self.nx + 1)
        n4 = n1 + (self.nx + 1)
        nodes = np.column_stack([n1, n2, n3, n4])
        dofs = np.empty((self.n_elems, 8), dtype=int)
        dofs[:, 0::2] = 2 * nodes
        dofs[:, 1::2] = 2 * nodes + 1
        return dofs

    def element_centers(self) -> np.ndarray:
        """(n_elems, 2) element-center coordinates, element order ey*nx + ex."""
        hx = self.lx / self.nx
        hy = self.ly / self.ny
        ex, ey = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        cx = (ex.ravel() + 0.5) * hx
        cy = (ey.ravel() + 0.5) * hy
        return np.column_stack([cx, cy])


@dataclass
class BoundarySpec:
    """Dirichlet and traction data as (dof index, value) pairs."""

    dirichlet: list[tuple[int, float]] = field(default_factory=list)
    tractions: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        ddofs = [d for d, _ in self.dirichlet]
        if len(set(ddofs)) != len(ddofs):
            raise ValueError("repeated dof in Dirichlet list")
        overlap = set(ddofs) & {d for d, _ in self.tractions}
        if overlap:
            raise ValueError(f"dofs {sorted(overlap)} appear in both Dirichlet and traction lists")

    def dirichlet_arrays(self, n_dofs: int) -> tuple[np.ndarray, np.ndarray]:
        dofs = np.array([d for d, _ in self.dirichlet], dtype=int)
        vals = np.array([v for _, v in self.dirichlet])
        if np.any((dofs < 0) | (dofs >= n_dofs)):
            raise IndexError("Dirichlet dof out of range")
        return dofs, vals


def element_stiffness_unit(mesh: Mesh2D, poisson: float) -> np.ndarray:
    """8x8 stiffness of one rectangular element with E = 1, plane strain.

    The 2x2 Gauss rule (points +-1/sqrt(3), weights 1) integrates the
    rectangular bilinear element's stiffness exactly.
    """
    if not 0.0 <= poisson < 0.5:
        raise ValueError(f"Poisson ratio must be in [0, 0.5), got {poisson}")
    nu = poisson
    c = 1.0 / ((1.0 + nu) * (1.0 - 2.0 * nu))
    C = c * np.array([
        [1.0 - nu, nu, 0.0],
        [nu, 1.0 - nu, 0.0],
        [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0],
    ])
    a = mesh.lx / mesh.nx  # element width
    b = mesh.ly / mesh.ny  # element height
    g = np.sqrt(3.0) / 3.0    # 1/sqrt(3), correctly rounded
    # local node coords in (xi, eta)
    xi_n = np.array([-1.0, 1.0, 1.0, -1.0])
    eta_n = np.array([-1.0, -1.0, 1.0, 1.0])
    Ke = np.zeros((8, 8))
    for xi in (-g, g):
        for eta in (-g, g):
            dN_dxi = 0.25 * xi_n * (1.0 + eta * eta_n)
            dN_deta = 0.25 * eta_n * (1.0 + xi * xi_n)
            dN_dx = dN_dxi * 2.0 / a
            dN_dy = dN_deta * 2.0 / b
            B = np.zeros((3, 8))
            B[0, 0::2] = dN_dx
            B[1, 1::2] = dN_dy
            B[2, 0::2] = dN_dy
            B[2, 1::2] = dN_dx
            detJ = (a / 2.0) * (b / 2.0)
            Ke += (B.T @ C @ B) * detJ
    return Ke


@dataclass(frozen=True)
class AssemblyPlan:
    """The parts of K(psi) U = f that do not depend on psi, built once per model.

    Both the reduced stiffness K_ff and the Dirichlet lift K_fp u_p are linear
    in the moduli E = exp(psi): entry j adds E[elem[j]] * coef[j] to slot[j].
    Slots [0, (kd + 1) n_free) are K_ff's upper triangle in LAPACK band
    storage, column-major so that it reshapes to a Fortran-ordered
    (kd + 1, n_free) array with K_ff[i, j] in row kd + i - j of column j;
    slots past it are the lift, so one bincount assembles both.  kd is the
    tight half-bandwidth, the largest |i - j| over K_ff's nonzeros.
    """

    ke: np.ndarray            # 8x8 element stiffness at E = 1
    dofs: np.ndarray          # (n_elems, 8) element dof indices
    free: np.ndarray          # free dof indices, ascending
    free_pos: np.ndarray      # full-length map dof -> position in free list (-1 if prescribed)
    U0: np.ndarray            # full-length prescribed displacements, zero on free dofs
    f_free: np.ndarray        # applied tractions on the free dofs
    kd: int                   # half-bandwidth of K_ff
    elem: np.ndarray          # element of each assembly entry
    coef: np.ndarray          # value of each assembly entry at E = 1
    slot: np.ndarray          # destination of each assembly entry

    def assemble(self, e_mod: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K_ff's upper band, (kd + 1, n_free) Fortran-ordered, and f_f - K_fp u_p."""
        n_free = self.free.size
        n_band = (self.kd + 1) * n_free
        acc = np.bincount(self.slot, weights=e_mod[self.elem] * self.coef,
                          minlength=n_band + n_free)
        return (acc[:n_band].reshape(self.kd + 1, n_free, order="F"),
                self.f_free - acc[n_band:])


def assembly_plan(mesh: Mesh2D, bc: BoundarySpec, poisson: float = 0.0) -> AssemblyPlan:
    """Element stiffness, dof maps, load vector and the band slots of K_ff."""
    n = mesh.n_dofs
    ke = element_stiffness_unit(mesh, poisson)
    dofs = mesh.element_dofs()
    ddofs, dvals = bc.dirichlet_arrays(n)
    U0 = np.zeros(n)
    U0[ddofs] = dvals
    prescribed = np.zeros(n, dtype=bool)
    prescribed[ddofs] = True
    free = np.flatnonzero(~prescribed)
    n_free = free.size
    free_pos = np.full(n, -1, dtype=int)
    free_pos[free] = np.arange(n_free)
    f = np.zeros(n)
    for dof, val in bc.tractions:
        if dof < 0 or dof >= n:
            raise IndexError(f"traction dof {dof} out of range")
        f[dof] += val

    pos = free_pos[dofs]
    # element e couples its local dofs a (row i) and b (column j); keep i <= j
    e, a, b = np.nonzero((pos[:, :, None] >= 0) & (pos[:, :, None] <= pos[:, None, :]))
    i, j = pos[e, a], pos[e, b]
    kd = int(np.max(j - i, initial=0))
    lift = U0[dofs] @ ke.T            # element k adds E_k lift[k, c] to its free dof c
    k, c = np.nonzero((pos >= 0) & (lift != 0.0))
    return AssemblyPlan(
        ke=ke, dofs=dofs, free=free, free_pos=free_pos, U0=U0, f_free=f[free], kd=kd,
        elem=np.concatenate([e, k]),
        coef=np.concatenate([ke[a, b], lift[k, c]]),
        slot=np.concatenate([j * (kd + 1) + kd + i - j, (kd + 1) * n_free + pos[k, c]]))


@dataclass
class _ReducedSystem:
    """Factorized reduced stiffness at one field, reused for the sensitivities."""

    plan: AssemblyPlan
    e_mod: np.ndarray         # moduli exp(psi)
    factor: np.ndarray        # upper band Cholesky factor of K_ff, as pbtrf gives it
    U: np.ndarray             # full displacement vector


def _moduli(psi: np.ndarray) -> np.ndarray:
    """exp(psi); a log-modulus above PSI_MAX, whose exp overflows, fails the solve."""
    top = float(np.max(psi))
    if top > PSI_MAX:
        raise ForwardSolveError(
            f"modulus overflow: exp(psi) at max psi {top:.4g} (at most {PSI_MAX:.15g})")
    return np.exp(psi)


def _modulus_range(psi: np.ndarray) -> str:
    """Modulus range in log scale, since exp(min psi) can underflow to 0."""
    lo, hi = float(np.min(psi)), float(np.max(psi))
    return f"log-moduli in [{lo:.4g}, {hi:.4g}], contrast e^{hi - lo:.4g}"


def _solve_reduced(plan: AssemblyPlan, psi: np.ndarray) -> _ReducedSystem:
    """Factor K_ff(psi) and solve for U, the one forward solve of the package."""
    n_free = plan.free.size
    if n_free == 0:
        raise ForwardSolveError("all dofs prescribed, nothing to solve")
    e_mod = _moduli(psi)
    band, rhs = plan.assemble(e_mod)
    try:
        factor = pbtrf(band)
    except np.linalg.LinAlgError as exc:  # a pivot that is not positive
        raise ForwardSolveError(
            f"stiffness factorization failed ({exc}; {_modulus_range(psi)}); check "
            "that the Dirichlet set constrains all rigid-body modes and that the "
            "modulus contrast is not extreme") from exc
    u_f = pbtrs(factor, rhs)
    resid = np.linalg.norm(sbmv(band, u_f) - rhs)
    if not np.all(np.isfinite(u_f)) or resid > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise ForwardSolveError(
            f"reduced solve inaccurate (residual {resid:.3e}; {_modulus_range(psi)}); "
            "either the modulus contrast is too large for double precision or the "
            "Dirichlet set leaves rigid-body modes unconstrained")
    U = plan.U0.copy()
    U[plan.free] = u_f
    return _ReducedSystem(plan=plan, e_mod=e_mod, factor=factor, U=U)


class Sensitivities(ABC):
    """The sensitivities G = dy/dpsi (d_y x d_psi) as an operator, with a held free Gram.

    An implementation gives G v (`G @ v`), G^T w (`G.rmatvec(w)`) and
    `_form_gram`, the unscaled free Gram A_ff = G_f^T G_f over the model's
    unclamped columns.  The Gram is formed on the first request and held:
    `gram()` lends it to a caller that restores whatever it overwrites, and
    `take_gram()` hands it over for good, so the next request forms it again.
    """

    shape: tuple[int, int]
    _gram: np.ndarray | None = None

    @abstractmethod
    def __matmul__(self, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def rmatvec(self, w: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _form_gram(self) -> np.ndarray: ...

    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self._form_gram()
        return self._gram

    def take_gram(self) -> np.ndarray:
        gram, self._gram = self.gram(), None
        return gram


class BandedSensitivities(Sensitivities):
    """G = S_Q K_ff^-1 B^T on the held banded factor of K_ff; G itself is never formed.

    B^T's column for an active element is `adjoint_jacobian`'s b_k and zero
    for a clamped one, S_Q picks the observed rows, and P_Q = S_Q^T S_Q counts
    the observations of each free dof (the identity when every free dof is
    observed once).  G v and G^T w take one solve each; with no active
    element nothing is solved.  The free Gram A_ff =
    B_f K_ff^-1 P_Q K_ff^-1 B_f^T is formed over blocks of SENSITIVITY_BLOCK
    active columns: two solves per block and an 8-term sparse contraction into
    the lower triangle, which is then mirrored onto the upper one.  Besides
    the Gram only one block's (n_free x block) arrays are alive.
    """

    def __init__(self, system: _ReducedSystem, active: np.ndarray, rows: np.ndarray,
                 d_psi: int):
        plan = system.plan
        n_free = plan.free.size
        dofs = plan.dofs[active]
        pos = plan.free_pos[dofs]
        vals = -system.e_mod[active, None] * (system.U[dofs] @ plan.ke.T)
        self.shape = (rows.size, d_psi)
        self._factor = system.factor
        self._active = active
        self._rows = rows
        self._n_free = n_free
        # B^T's entries, eight per active element: a prescribed dof adds 0 to row 0
        self._pos = np.maximum(pos, 0)
        self._vals = np.where(pos >= 0, vals, 0.0)
        self._obs_count = np.bincount(rows, minlength=n_free).astype(float)

    def _rhs(self, idx: np.ndarray, weights: np.ndarray, m: int) -> np.ndarray:
        """(n_free x m) right-hand sides: the weights summed at flat indices row + n_free col."""
        flat = np.bincount(idx.ravel(), weights=weights.ravel(), minlength=self._n_free * m)
        return flat.reshape(m, self._n_free).T          # Fortran-ordered, as LAPACK reads it

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """K_ff^-1 b, in place: every caller's b is a fresh Fortran-ordered array."""
        return pbtrs(self._factor, b, overwrite=True)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """G v for a d_psi vector or a (d_psi x m) matrix v: one solve."""
        out_shape = (self.shape[0],) + v.shape[1:]
        if self._active.size == 0:
            return np.zeros(out_shape)
        V = v[self._active].reshape(self._active.size, 1, -1)
        m = V.shape[2]
        x = self._solve(self._rhs(self._pos[:, :, None] + self._n_free * np.arange(m),
                                  self._vals[:, :, None] * V, m))
        return x[self._rows].reshape(out_shape)

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """G^T w for a d_y vector w: one solve; exactly zero at the clamped elements."""
        out = np.zeros(self.shape[1])
        if self._active.size:
            x = self._solve(np.bincount(self._rows, weights=w, minlength=self._n_free))
            out[self._active] = np.sum(self._vals * x[self._pos], axis=1)
        return out

    def _form_gram(self) -> np.ndarray:
        n = self._active.size
        gram = np.empty((n, n))
        for lo in range(0, n, SENSITIVITY_BLOCK):
            hi = min(lo + SENSITIVITY_BLOCK, n)
            m = hi - lo
            x = self._solve(self._rhs(self._pos[lo:hi] + self._n_free * np.arange(m)[:, None],
                                      self._vals[lo:hi], m))
            x *= self._obs_count[:, None]
            x = self._solve(x)
            # rows lo.. of columns lo..hi-1: the block's part of the lower triangle
            block = gram[lo:, lo:hi]
            np.multiply(self._vals[lo:, 0, None], x[self._pos[lo:, 0]], out=block)
            for c in range(1, 8):
                block += self._vals[lo:, c, None] * x[self._pos[lo:, c]]
            if not np.all(np.isfinite(block)):
                raise ForwardSolveError("sensitivity solve produced non-finite values")
        return mirror_lower(gram)


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the strict lower triangle of the square `a` onto its strict upper one.

    Works in place, a column at a time, so no (n x n) temporary is made;
    `mirror_lower(a.T)` copies the upper triangle onto the lower instead.
    """
    for j in range(1, a.shape[0]):
        a[:j, j] = a[j, :j]
    return a


def adjoint_jacobian(mesh: Mesh2D, system: _ReducedSystem, active: np.ndarray,
                     Q: np.ndarray) -> BandedSensitivities:
    """Sensitivities G[i, k] = d y_i / d psi_k at the field `system` was solved for.

    Differentiating K_ff u_f = f_f - K_fp u_p gives du_f/dpsi_k = K_ff^-1 b_k,
    with b_k = -E_k Ke_unit U_e on element k's free dofs (the chain rule through
    E_k = exp(psi_k) included), so G[:, active] = S_Q K_ff^-1 B^T; the columns
    of the other (clamped) elements are exactly zero.  G is returned as an
    operator on the system's factorization, with its free Gram over the active
    elements formed here, so a non-finite sensitivity raises now.  Q holds free
    dofs only, which the forward model checks once when it is built.
    `perfbench/tracing.py` reads the mesh and Q as the first and fourth
    positional arguments.
    """
    G = BandedSensitivities(system, active, system.plan.free_pos[Q], mesh.n_elems)
    G.gram()
    return G
