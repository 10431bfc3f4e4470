"""Structured 2D quadrilateral FEM for plane-strain linear elasticity.

The solver works on a regular nx-by-ny grid of bilinear 4-node quads with a
per-element elastic modulus given in log scale, psi_k = log(E_k).  Loads are
either prescribed nodal displacements or applied nodal tractions.  Output
sensitivities dy/dpsi are computed with the adjoint method, reusing one sparse
factorization of the reduced stiffness for all observables.

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


@dataclass
class _ReducedSystem:
    """Factorized reduced stiffness plus bookkeeping for adjoint reuse."""

    free: np.ndarray          # free dof indices
    free_pos: np.ndarray      # full-length map dof -> position in free list (-1 if prescribed)
    lu: spla.SuperLU
    U: np.ndarray             # full displacement vector
    K: sp.csr_matrix          # full assembled stiffness (for energy checks)


def _assemble(mesh: Mesh2D, field_: MaterialField, poisson: float) -> sp.csr_matrix:
    try:
        with np.errstate(over="raise"):
            e_mod = np.exp(field_.psi)
    except FloatingPointError as exc:
        raise SingularSystemError(
            f"modulus overflow: exp(psi) at max psi {float(np.max(field_.psi)):.4g}") from exc
    ke = element_stiffness_unit(mesh, poisson)
    dofs = mesh.element_dofs()
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    data = (e_mod[:, None] * ke.ravel()[None, :]).ravel()
    n = mesh.n_dofs
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _modulus_range(psi: np.ndarray) -> str:
    """Modulus range in log scale, since exp(min psi) can underflow to 0."""
    lo, hi = float(np.min(psi)), float(np.max(psi))
    return f"log-moduli in [{lo:.4g}, {hi:.4g}], contrast e^{hi - lo:.4g}"


def _solve_reduced(mesh: Mesh2D, bc: BoundarySpec, field_: MaterialField,
                   poisson: float) -> _ReducedSystem:
    if field_.psi.shape[0] != mesh.n_elems:
        raise ValueError(f"field length {field_.psi.shape[0]} != element count {mesh.n_elems}")
    K = _assemble(mesh, field_, poisson)
    n = mesh.n_dofs
    ddofs, dvals = bc.dirichlet_arrays(n)
    prescribed = np.zeros(n, dtype=bool)
    prescribed[ddofs] = True
    free = np.flatnonzero(~prescribed)
    if free.size == 0:
        raise SingularSystemError("all dofs prescribed, nothing to solve")
    free_pos = np.full(n, -1, dtype=int)
    free_pos[free] = np.arange(free.size)

    f = np.zeros(n)
    for dof, val in bc.tractions:
        if dof < 0 or dof >= n:
            raise IndexError(f"traction dof {dof} out of range")
        f[dof] += val

    U = np.zeros(n)
    U[ddofs] = dvals
    K_ff = K[free][:, free].tocsc()
    rhs = f[free] - K[free][:, ddofs] @ dvals if ddofs.size else f[free]
    try:
        lu = spla.splu(K_ff)
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
    U[free] = u_f
    return _ReducedSystem(free=free, free_pos=free_pos, lu=lu, U=U, K=K)


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
    """Sensitivities G[i, k] = d y_i / d psi_k via one adjoint solve per observable.

    The chain rule through E_k = exp(psi_k) is included; columns for clamped
    elements are zeroed.  A system from a prior assemble_and_solve at the same
    field can be passed in to reuse its factorization.
    """
    Q = np.asarray(Q, dtype=int)
    if system is None:
        system = _solve_reduced(mesh, bc, field_, poisson)
    if Q.size and (Q.min() < 0 or Q.max() >= mesh.n_dofs):
        raise IndexError("observation dof out of range")
    if np.any(system.free_pos[Q] < 0):
        bad = Q[system.free_pos[Q] < 0]
        raise ValueError(f"sensitivities requested for prescribed dofs {bad.tolist()}; "
                         "prescribed displacements are constant")
    n_free = system.free.size
    d_y = Q.size
    # adjoint solves: K_ff nu_i = e_{q_i} (K symmetric), all RHS at once
    rhs = np.zeros((n_free, d_y))
    rhs[system.free_pos[Q], np.arange(d_y)] = 1.0
    nu_f = system.lu.solve(rhs) if d_y else rhs

    # dy_i/dpsi_k = -E_k * nu_i|_e . (Ke_unit U_e): row k of B holds
    # -E_k Ke_unit U_e on element k's free dofs (prescribed dofs have nu = 0,
    # clamped elements have no entries), so G^T = B nu_f
    ke = element_stiffness_unit(mesh, poisson)
    dofs = mesh.element_dofs()
    v = -np.exp(field_.psi)[:, None] * (system.U[dofs] @ ke.T)   # (n_elems, 8)
    cols = system.free_pos[dofs]
    keep = (cols >= 0) & ~field_.fixed_mask[:, None]
    rows = np.broadcast_to(np.arange(mesh.n_elems)[:, None], dofs.shape)
    B = sp.csr_matrix((v[keep], (rows[keep], cols[keep])), shape=(mesh.n_elems, n_free))
    return np.ascontiguousarray((B @ nu_f).T)


def strain_energy(mesh: Mesh2D, field_: MaterialField, U: np.ndarray,
                  poisson: float = 0.0) -> float:
    """U^T K(psi) U, nonnegative for any displacement field."""
    K = _assemble(mesh, field_, poisson)
    return float(U @ (K @ U))
