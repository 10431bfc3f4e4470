"""Structured 2D quadrilateral FEM for plane-strain linear elasticity.

The solver works on a regular nx-by-ny grid of bilinear 4-node quads with a
per-element elastic modulus given in log scale, psi_k = log(E_k).  Loads are
either prescribed nodal displacements or applied nodal tractions.  Everything
that does not depend on psi (the element stiffness, the dof maps, the load
vector and the sparsity pattern of the reduced stiffness) is built once into an
AssemblyPlan, so a solve costs one exp, one bincount, the factorization, the
solve and a residual check.  Output sensitivities dy/dpsi reuse that
factorization and are computed by direct differentiation, one right-hand side
per active element: observing every free dof makes d_y about 2 n_elems, so this
is the smaller side (the adjoint method would need one per observable).

Node (ix, iy) has index iy*(nx+1) + ix; its displacement dofs are
(2*index, 2*index + 1) for (ux, uy).  Element (ex, ey) has index ey*nx + ex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularSystemError(RuntimeError):
    """Stiffness system is singular after applying Dirichlet conditions."""


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

    def node_coords(self) -> np.ndarray:
        """(n_nodes, 2) array of node coordinates on the regular grid."""
        xs = np.linspace(0.0, self.lx, self.nx + 1)
        ys = np.linspace(0.0, self.ly, self.ny + 1)
        gx, gy = np.meshgrid(xs, ys)  # row-major in iy
        return np.column_stack([gx.ravel(), gy.ravel()])

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
        if not self.dirichlet:
            return np.empty(0, dtype=int), np.empty(0)
        dofs = np.array([d for d, _ in self.dirichlet], dtype=int)
        vals = np.array([v for _, v in self.dirichlet])
        if dofs.min() < 0 or dofs.max() >= n_dofs:
            raise IndexError("Dirichlet dof out of range")
        return dofs, vals


@dataclass
class MaterialField:
    """Per-element log-modulus vector with optional clamped entries."""

    psi: np.ndarray
    fixed_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.psi = np.asarray(self.psi, dtype=float)
        if not np.all(np.isfinite(self.psi)):
            raise ValueError("material field contains non-finite log-moduli")
        if self.fixed_mask is None:
            self.fixed_mask = np.zeros(self.psi.shape, dtype=bool)
        else:
            self.fixed_mask = np.asarray(self.fixed_mask, dtype=bool)
            if self.fixed_mask.shape != self.psi.shape:
                raise ValueError("fixed_mask shape does not match psi")


def element_stiffness_unit(mesh: Mesh2D, poisson: float, n_gauss: int = 2) -> np.ndarray:
    """8x8 stiffness of one rectangular element with E = 1, plane strain."""
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
    pts, wts = np.polynomial.legendre.leggauss(n_gauss)
    # local node coords in (xi, eta)
    xi_n = np.array([-1.0, 1.0, 1.0, -1.0])
    eta_n = np.array([-1.0, -1.0, 1.0, 1.0])
    Ke = np.zeros((8, 8))
    for xi, wx in zip(pts, wts):
        for eta, wy in zip(pts, wts):
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
            Ke += (B.T @ C @ B) * detJ * wx * wy
    return Ke


@dataclass(frozen=True)
class AssemblyPlan:
    """The parts of K(psi) U = f that do not depend on psi, built once per model.

    Both the reduced stiffness K_ff and the Dirichlet lift K_fp u_p are linear
    in the moduli E = exp(psi): entry j adds E[elem[j]] * coef[j] to slot[j],
    where slots [0, nnz) are K_ff's CSC data and slots [nnz, nnz + n_free) are
    the lift, so one bincount assembles both.
    """

    ke: np.ndarray            # 8x8 element stiffness at E = 1
    dofs: np.ndarray          # (n_elems, 8) element dof indices
    free: np.ndarray          # free dof indices, ascending
    free_pos: np.ndarray      # full-length map dof -> position in free list (-1 if prescribed)
    U0: np.ndarray            # full-length prescribed displacements, zero on free dofs
    f_free: np.ndarray        # applied tractions on the free dofs
    indices: np.ndarray       # CSC row indices of K_ff
    indptr: np.ndarray        # CSC column pointers of K_ff
    elem: np.ndarray          # element of each assembly entry
    coef: np.ndarray          # value of each assembly entry at E = 1
    slot: np.ndarray          # destination of each assembly entry


def assembly_plan(mesh: Mesh2D, bc: BoundarySpec, poisson: float = 0.0) -> AssemblyPlan:
    """Element stiffness, dof maps, load vector and the sparsity pattern of K_ff."""
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
    # element e couples its local dofs a (row) and b (column)
    e, a, b = np.nonzero((pos[:, :, None] >= 0) & (pos[:, None, :] >= 0))
    # column-major keys sort into CSC order; duplicates share a slot
    keys, slot = np.unique(pos[e, b] * n_free + pos[e, a], return_inverse=True)
    indptr = np.zeros(n_free + 1, dtype=int)
    np.cumsum(np.bincount(keys // n_free, minlength=n_free), out=indptr[1:])
    lift = U0[dofs] @ ke.T            # element k adds E_k lift[k, c] to its free dof c
    k, c = np.nonzero((pos >= 0) & (lift != 0.0))
    return AssemblyPlan(
        ke=ke, dofs=dofs, free=free, free_pos=free_pos, U0=U0, f_free=f[free],
        indices=keys % n_free, indptr=indptr,
        elem=np.concatenate([e, k]),
        coef=np.concatenate([ke[a, b], lift[k, c]]),
        slot=np.concatenate([slot.ravel(), keys.size + pos[k, c]]))


@dataclass
class _ReducedSystem:
    """Factorized reduced stiffness at one field, reused for the sensitivities."""

    plan: AssemblyPlan
    e_mod: np.ndarray         # moduli exp(psi)
    lu: spla.SuperLU
    U: np.ndarray             # full displacement vector

    # free and free_pos forward to the plan for the tests' dense oracle,
    # which predates the plan; the library reads system.plan directly
    @property
    def free(self) -> np.ndarray:
        return self.plan.free

    @property
    def free_pos(self) -> np.ndarray:
        return self.plan.free_pos


def _moduli(psi: np.ndarray) -> np.ndarray:
    try:
        with np.errstate(over="raise"):
            return np.exp(psi)
    except FloatingPointError as exc:
        raise SingularSystemError(
            f"modulus overflow: exp(psi) at max psi {float(np.max(psi)):.4g}") from exc


def _modulus_range(psi: np.ndarray) -> str:
    """Modulus range in log scale, since exp(min psi) can underflow to 0."""
    lo, hi = float(np.min(psi)), float(np.max(psi))
    return f"log-moduli in [{lo:.4g}, {hi:.4g}], contrast e^{hi - lo:.4g}"


def _solve_reduced(mesh: Mesh2D, bc: BoundarySpec, field_: MaterialField,
                   poisson: float, plan: AssemblyPlan | None = None) -> _ReducedSystem:
    """Factor K_ff(psi) and solve for U; without a plan, one is built for this call."""
    if field_.psi.shape[0] != mesh.n_elems:
        raise ValueError(f"field length {field_.psi.shape[0]} != element count {mesh.n_elems}")
    if plan is None:
        plan = assembly_plan(mesh, bc, poisson)
    n_free = plan.free.size
    if n_free == 0:
        raise SingularSystemError("all dofs prescribed, nothing to solve")
    e_mod = _moduli(field_.psi)
    nnz = plan.indices.size
    acc = np.bincount(plan.slot, weights=e_mod[plan.elem] * plan.coef,
                      minlength=nnz + n_free)
    K_ff = sp.csc_matrix((acc[:nnz], plan.indices, plan.indptr), shape=(n_free, n_free))
    rhs = plan.f_free - acc[nnz:]
    try:
        # K_ff is symmetric, so order on its own pattern rather than on A^T A's
        lu = spla.splu(K_ff, permc_spec="MMD_AT_PLUS_A")
        u_f = lu.solve(rhs)
    except RuntimeError as exc:  # zero pivot and friends
        raise SingularSystemError(
            f"stiffness factorization failed ({exc}; {_modulus_range(field_.psi)}); check "
            "that the Dirichlet set constrains all rigid-body modes and that the "
            "modulus contrast is not extreme") from exc
    resid = np.linalg.norm(K_ff @ u_f - rhs)
    if not np.all(np.isfinite(u_f)) or resid > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise SingularSystemError(
            f"reduced solve inaccurate (residual {resid:.3e}; {_modulus_range(field_.psi)}); "
            "either the modulus contrast is too large for double precision or the "
            "Dirichlet set leaves rigid-body modes unconstrained")
    U = plan.U0.copy()
    U[plan.free] = u_f
    return _ReducedSystem(plan=plan, e_mod=e_mod, lu=lu, U=U)


def assemble_and_solve(mesh: Mesh2D, bc: BoundarySpec, field_: MaterialField,
                       poisson: float = 0.0) -> np.ndarray:
    """Solve K(psi) U = f with prescribed dofs eliminated; returns full U."""
    return _solve_reduced(mesh, bc, field_, poisson).U


def observe(U: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """y_i = U[Q[i]]; Q is an integer dof-selection array (may be empty)."""
    Q = np.asarray(Q, dtype=int)
    if Q.size and (Q.min() < 0 or Q.max() >= U.shape[0]):
        raise IndexError("observation dof out of range")
    return U[Q].copy()


def adjoint_jacobian(mesh: Mesh2D, bc: BoundarySpec, field_: MaterialField,
                     Q: np.ndarray, poisson: float = 0.0,
                     system: _ReducedSystem | None = None) -> np.ndarray:
    """Sensitivities G[i, k] = d y_i / d psi_k, one solve per active element.

    Differentiating K_ff u_f = f_f - K_fp u_p gives du_f/dpsi_k = K_ff^-1 b_k,
    with b_k = -E_k Ke_unit U_e on element k's free dofs (the chain rule through
    E_k = exp(psi_k) included), so G[:, active] = S_Q K_ff^-1 B^T: one solve with
    a right-hand side per active (unclamped) element.  The adjoint route needs
    one per observable instead; models built from a config observe every free
    dof, so d_y is about 2 n_elems and the direct side is always the smaller.
    Columns of clamped elements are exactly zero.  A system from
    _solve_reduced at the same field can be passed in to reuse its
    factorization and plan.
    """
    Q = np.asarray(Q, dtype=int)
    if system is None:
        system = _solve_reduced(mesh, bc, field_, poisson)
    plan = system.plan
    if Q.size and (Q.min() < 0 or Q.max() >= mesh.n_dofs):
        raise IndexError("observation dof out of range")
    rows = plan.free_pos[Q]
    if np.any(rows < 0):
        raise ValueError(f"sensitivities requested for prescribed dofs {Q[rows < 0].tolist()}; "
                         "prescribed displacements are constant")
    active = np.flatnonzero(~field_.fixed_mask)
    G = np.zeros((Q.size, mesh.n_elems))
    if active.size:
        # the right-hand sides die with the solve call, so at most two
        # (n_free x n_active) blocks are alive at any time
        G[:, active] = system.lu.solve(_sensitivity_rhs(system, active))[rows]
    return G


def _sensitivity_rhs(system: _ReducedSystem, active: np.ndarray) -> np.ndarray:
    """B^T: column k is -E_k Ke_unit U_e on active element k's free dofs."""
    plan = system.plan
    dofs = plan.dofs[active]
    pos = plan.free_pos[dofs]
    v = -system.e_mod[active, None] * (system.U[dofs] @ plan.ke.T)   # (n_active, 8)
    k, c = np.nonzero(pos >= 0)
    Bt = np.zeros((plan.free.size, active.size), order="F")
    Bt[pos[k, c], k] = v[k, c]              # an element's 8 dofs are distinct
    return Bt
