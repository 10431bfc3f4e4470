"""Finite-element forward model against independent oracles.

The dense oracle below re-derives the element stiffness and assembly from
scratch (explicit shape-function loops, 3x3 Gauss, dense algebra) so that any
agreement with the production path is meaningful.
"""

import re
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded

from elastovb import mesh_fem
from elastovb.mesh_fem import (BoundarySpec, ForwardSolveError, Mesh2D, _solve_reduced,
                               adjoint_jacobian, assembly_plan, element_stiffness_unit)
from elastovb.forward import FemForwardModel

from conftest import cantilever_bc, compression_bc
from jacobian_oracle import dense, direct_jacobian


# ---------------------------------------------------------------------------
# Independent dense oracle


def oracle_element_stiffness(hx, hy, e_mod, poisson):
    """Plane-strain bilinear-quad stiffness by explicit loops, 3x3 Gauss."""
    fac = e_mod / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    C = fac * np.array([[1.0 - poisson, poisson, 0.0],
                        [poisson, 1.0 - poisson, 0.0],
                        [0.0, 0.0, 0.5 * (1.0 - 2.0 * poisson)]])
    pts, wts = np.polynomial.legendre.leggauss(3)
    K = np.zeros((8, 8))
    signs = [(-1, -1), (1, -1), (1, 1), (-1, 1)]   # CCW from lower-left
    for xi, wx in zip(pts, wts):
        for eta, wy in zip(pts, wts):
            B = np.zeros((3, 8))
            for a, (sx, sy) in enumerate(signs):
                dn_dxi = 0.25 * sx * (1.0 + sy * eta)
                dn_deta = 0.25 * sy * (1.0 + sx * xi)
                dn_dx = dn_dxi * 2.0 / hx
                dn_dy = dn_deta * 2.0 / hy
                B[0, 2 * a] = dn_dx
                B[1, 2 * a + 1] = dn_dy
                B[2, 2 * a] = dn_dy
                B[2, 2 * a + 1] = dn_dx
            K += wx * wy * (B.T @ C @ B) * (hx * hy / 4.0)
    return K


def oracle_stiffness(mesh, psi, poisson=0.0):
    """Dense global stiffness K(psi) on every dof, assembled element by element."""
    n = mesh.n_dofs
    K = np.zeros((n, n))
    hx, hy = mesh.lx / mesh.nx, mesh.ly / mesh.ny
    for ey in range(mesh.ny):
        for ex in range(mesh.nx):
            k = ey * mesh.nx + ex
            nodes = [ey * (mesh.nx + 1) + ex, ey * (mesh.nx + 1) + ex + 1,
                     (ey + 1) * (mesh.nx + 1) + ex + 1, (ey + 1) * (mesh.nx + 1) + ex]
            dofs = []
            for nd in nodes:
                dofs += [2 * nd, 2 * nd + 1]
            Ke = oracle_element_stiffness(hx, hy, np.exp(psi[k]), poisson)
            for a in range(8):
                for b in range(8):
                    K[dofs[a], dofs[b]] += Ke[a, b]
    return K


def oracle_reduced(mesh, bc, psi, poisson=0.0):
    """Free dofs, K_ff and f_f - K_fp u_p with explicit index bookkeeping."""
    n = mesh.n_dofs
    K = oracle_stiffness(mesh, psi, poisson)
    f = np.zeros(n)
    for dof, val in bc.tractions:
        f[dof] += val
    pres = {dof: val for dof, val in bc.dirichlet}
    free = [i for i in range(n) if i not in pres]
    rhs = f[free] - K[np.ix_(free, list(pres))] @ np.array(list(pres.values()))
    return free, K[np.ix_(free, free)], rhs


def oracle_solve(mesh, bc, psi, poisson=0.0):
    """Dense assembly and a block solve."""
    free, K_ff, rhs = oracle_reduced(mesh, bc, psi, poisson)
    U = np.zeros(mesh.n_dofs)
    for dof, val in bc.dirichlet:
        U[dof] = val
    U[free] = np.linalg.solve(K_ff, rhs)
    return U


def unpack_upper_band(band):
    """Dense symmetric matrix from LAPACK upper band storage; slots outside it must be 0."""
    kd, n = band.shape[0] - 1, band.shape[1]
    K = np.zeros((n, n))
    for j in range(n):
        for r in range(kd + 1):
            i = j + r - kd
            if i < 0:
                assert band[r, j] == 0.0
            else:
                K[i, j] = K[j, i] = band[r, j]
    return K


# ---------------------------------------------------------------------------
# Assembly


@pytest.mark.parametrize("nx,ny", [(5, 4), (11, 3), (3, 9)])
@pytest.mark.parametrize("make_bc", [compression_bc, cantilever_bc])
def test_band_assembly_matches_dense_oracle(nx, ny, make_bc, rng):
    # the band holds every nonzero of K_ff and nothing else, and kd is tight
    mesh = Mesh2D(nx, ny, float(nx), float(ny))
    bc = make_bc(mesh)
    psi = rng.normal(0.0, 0.6, mesh.n_elems)
    plan = assembly_plan(mesh, bc, poisson=0.3)
    band, rhs = plan.assemble(np.exp(psi))
    free, K_ff, rhs_oracle = oracle_reduced(mesh, bc, psi, poisson=0.3)
    assert np.array_equal(plan.free, free)
    i, j = np.nonzero(K_ff)
    assert plan.kd == np.max(np.abs(i - j))
    assert band.shape == (plan.kd + 1, len(free))
    K_band = unpack_upper_band(band)
    assert np.array_equal(K_band != 0.0, K_ff != 0.0)
    assert np.max(np.abs(K_band - K_ff)) <= 1e-12 * np.max(np.abs(K_ff))
    assert np.max(np.abs(rhs - rhs_oracle)) <= 1e-12 * (1.0 + np.max(np.abs(rhs_oracle)))


# ---------------------------------------------------------------------------
# Solutions


def solve_with_plan(mesh, bc, psi, poisson=0.0):
    """Full displacement from the package's one solve path, with a plan for the call."""
    return _solve_reduced(assembly_plan(mesh, bc, poisson), psi).U


def test_uniform_compression_is_exact():
    # nu = 0 and uniform modulus: the exact solution u = (0, -0.01 x2) is
    # bilinear, so the FE solution reproduces it to machine precision
    mesh = Mesh2D(10, 10, 10.0, 10.0)
    bc = compression_bc(mesh, u_top=-0.1)
    U = solve_with_plan(mesh, bc, np.zeros(100), poisson=0.0)
    node_y = np.repeat(np.linspace(0.0, mesh.ly, mesh.ny + 1), mesh.nx + 1)
    expected = np.zeros(mesh.n_dofs)
    expected[1::2] = -0.01 * node_y
    assert np.max(np.abs(U - expected)) < 1e-12


def test_matches_dense_oracle_dirichlet(rng):
    mesh = Mesh2D(2, 2, 2.0, 1.0)
    bc = compression_bc(mesh, u_top=-0.05)
    psi = rng.normal(0.0, 0.7, mesh.n_elems)
    U = solve_with_plan(mesh, bc, psi, poisson=0.3)
    U_oracle = oracle_solve(mesh, bc, psi, poisson=0.3)
    assert np.max(np.abs(U - U_oracle)) < 1e-12


def test_matches_dense_oracle_traction(rng):
    mesh = Mesh2D(3, 2, 3.0, 2.0)
    bc = cantilever_bc(mesh, load=0.02)
    psi = rng.normal(0.0, 0.5, mesh.n_elems)
    U = solve_with_plan(mesh, bc, psi, poisson=0.25)
    U_oracle = oracle_solve(mesh, bc, psi, poisson=0.25)
    assert np.max(np.abs(U - U_oracle)) < 1e-12


@pytest.mark.parametrize("shift", [-1.0, 0.5, 2.0])
def test_displacement_shift_invariance(shift, rng):
    # purely Dirichlet-driven loading: scaling every modulus by e^c rescales
    # the stiffness and its right-hand side identically
    mesh = Mesh2D(4, 4, 2.0, 2.0)
    bc = compression_bc(mesh)
    psi = rng.normal(0.0, 0.6, mesh.n_elems)
    U0 = solve_with_plan(mesh, bc, psi)
    U1 = solve_with_plan(mesh, bc, psi + shift)
    assert np.max(np.abs(U0 - U1)) < 1e-12


def test_shift_invariance_fails_under_traction(rng):
    # with an applied force the response scales like e^-c; guards against the
    # invariance accidentally holding for the wrong reason
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    bc = cantilever_bc(mesh)
    psi = rng.normal(0.0, 0.3, mesh.n_elems)
    U0 = solve_with_plan(mesh, bc, psi)
    U1 = solve_with_plan(mesh, bc, psi + 1.0)
    assert np.max(np.abs(U0 - np.e * U1)) < 1e-12


def test_mirror_symmetry():
    # symmetric phantom under symmetric compression: u1 is odd and u2 even
    # about the vertical midline
    mesh = Mesh2D(4, 4, 4.0, 4.0)
    bc = compression_bc(mesh)
    psi = np.zeros(16)
    psi[5] = psi[6] = 1.0      # two center elements of row 1, mirror images
    psi[9] = psi[10] = 1.0
    U = solve_with_plan(mesh, bc, psi)
    for iy in range(mesh.ny + 1):
        for ix in range(mesh.nx + 1):
            a = mesh.node_index(ix, iy)
            b = mesh.node_index(mesh.nx - ix, iy)
            assert abs(U[2 * a] + U[2 * b]) < 1e-10
            assert abs(U[2 * a + 1] - U[2 * b + 1]) < 1e-10


def strain_energy(mesh, psi, U, poisson=0.0):
    """U^T K(psi) U, summed element by element."""
    Ue = U[mesh.element_dofs()]
    ke = element_stiffness_unit(mesh, poisson)
    return float(np.exp(psi) @ np.einsum("ka,ab,kb->k", Ue, ke, Ue))


def test_strain_energy_nonnegative(rng):
    mesh = Mesh2D(3, 3, 1.0, 1.0)
    psi = rng.normal(0.0, 1.0, mesh.n_elems)
    for _ in range(5):
        U = rng.normal(0.0, 1.0, mesh.n_dofs)
        assert strain_energy(mesh, psi, U, poisson=0.2) >= 0.0


def test_rigid_motion_has_zero_energy():
    mesh = Mesh2D(3, 2, 3.0, 2.0)
    U = np.zeros(mesh.n_dofs)
    U[0::2] = 0.7          # uniform translation
    U[1::2] = -1.3
    e = strain_energy(mesh, np.zeros(mesh.n_elems), U, poisson=0.3)
    assert abs(e) < 1e-12


# ---------------------------------------------------------------------------
# Adjoint Jacobian


def fd_jacobian(mesh, bc, psi, Q, poisson, step=1e-6):
    cols = []
    for k in range(mesh.n_elems):
        up = psi.copy()
        up[k] += step
        dn = psi.copy()
        dn[k] -= step
        yu = solve_with_plan(mesh, bc, up, poisson)[Q]
        yd = solve_with_plan(mesh, bc, dn, poisson)[Q]
        cols.append((yu - yd) / (2.0 * step))
    return np.column_stack(cols)


@pytest.mark.parametrize("nx,ny,make_bc,poisson", [
    (3, 3, compression_bc, 0.0),
    (4, 4, compression_bc, 0.3),
    (4, 3, cantilever_bc, 0.25),
])
def test_adjoint_matches_finite_differences(nx, ny, make_bc, poisson, rng):
    mesh = Mesh2D(nx, ny, float(nx), float(ny))
    bc = make_bc(mesh)
    psi = rng.normal(0.0, 0.5, mesh.n_elems)
    model = FemForwardModel(mesh, bc, poisson=poisson)
    G = dense(model.evaluate(psi).with_jacobian().G)
    G_fd = fd_jacobian(mesh, bc, psi, model.obs_dofs, poisson)
    scale = np.max(np.abs(G_fd)) + 1e-30
    assert np.max(np.abs(G - G_fd)) / scale < 1e-5


def test_jacobian_rows_sum_to_zero_for_dirichlet_loading(rng):
    # derivative form of the shift invariance: G @ 1 = 0
    mesh = Mesh2D(4, 4, 4.0, 4.0)
    bc = compression_bc(mesh)
    psi = rng.normal(0.0, 0.5, mesh.n_elems)
    G = FemForwardModel(mesh, bc).evaluate(psi).with_jacobian().G
    assert np.max(np.abs(G @ np.ones(mesh.n_elems))) < 1e-10 * np.max(np.abs(dense(G)))


def test_clamped_elements_have_zero_columns(rng):
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    bc = compression_bc(mesh)
    psi = rng.normal(0.0, 0.5, mesh.n_elems)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[6:] = True       # top element row
    model = FemForwardModel(mesh, bc, fixed_mask=fixed)
    G = dense(model.evaluate(psi).with_jacobian().G)
    assert np.all(G[:, 6:] == 0.0)
    assert np.any(G[:, :6] != 0.0)


def test_all_elements_clamped_gives_zero_jacobian(rng):
    # no active element leaves no right-hand side to solve for
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    bc = compression_bc(mesh)
    psi = rng.normal(0.0, 0.5, mesh.n_elems)
    fixed = np.ones(mesh.n_elems, dtype=bool)
    model = FemForwardModel(mesh, bc, fixed_mask=fixed, poisson=0.3)
    ev = model.evaluate(psi).with_jacobian()
    free_ev = FemForwardModel(mesh, bc, poisson=0.3).evaluate(psi)
    assert ev.G.shape == (free_ev.y.size, mesh.n_elems)
    assert np.all(dense(ev.G) == 0.0)
    assert ev.G.gram().shape == (0, 0)
    assert np.array_equal(ev.y, free_ev.y)


def dense_adjoint_jacobian(mesh, bc, psi, fixed, Q, poisson):
    """Adjoint sensitivities by the dense (n_elems, 8, d_y) contraction.

    nu holds the adjoint fields on every dof (zero on prescribed ones); the
    blocked production path must reproduce this to rounding.
    """
    plan = assembly_plan(mesh, bc, poisson)
    system = _solve_reduced(plan, psi)
    rhs = np.zeros((plan.free.size, Q.size))
    rhs[plan.free_pos[Q], np.arange(Q.size)] = 1.0
    nu = np.zeros((mesh.n_dofs, Q.size))
    nu[plan.free] = cho_solve_banded((system.factor, False), rhs)
    dofs = mesh.element_dofs()
    v = system.U[dofs] @ element_stiffness_unit(mesh, poisson).T
    G = -np.exp(psi)[None, :] * np.einsum("keo,ke->ok", nu[dofs], v)
    G[:, fixed] = 0.0
    return G


@pytest.mark.parametrize("make_bc,poisson", [(compression_bc, 0.3), (cantilever_bc, 0.25)])
def test_adjoint_matches_dense_contraction(make_bc, poisson, rng):
    mesh = Mesh2D(5, 4, 5.0, 4.0)
    bc = make_bc(mesh)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[-mesh.nx:] = True       # top element row clamped
    psi = rng.normal(0.0, 0.6, mesh.n_elems)
    model = FemForwardModel(mesh, bc, fixed_mask=fixed, poisson=poisson)
    G = dense(model.evaluate(psi).with_jacobian().G)
    G_dense = dense_adjoint_jacobian(mesh, bc, psi, fixed, model.obs_dofs, poisson)
    assert G.shape == G_dense.shape == (model.d_y, mesh.n_elems)
    assert np.linalg.norm(G - G_dense) <= 1e-12 * np.linalg.norm(G_dense)
    assert np.all(G[:, fixed] == 0.0)


@pytest.mark.parametrize("nx,ny,clamp_top,make_bc", [
    (4, 4, False, compression_bc),    # 16 active: below one block
    (11, 3, False, compression_bc),   # 33 active: one column past a block
    (7, 5, False, compression_bc),    # 35 active: not a multiple of the block
    (10, 10, True, compression_bc),   # clamped top row, 90 active over three blocks
    (9, 5, False, cantilever_bc),     # traction loading, 45 active
])
@pytest.mark.parametrize("block", [None, 1, 2, 7, 128])
def test_blocked_sensitivities_match_single_block_solve(nx, ny, clamp_top, make_bc,
                                                        block, rng, monkeypatch):
    # a column's two solves do not depend on the other columns of its block,
    # so the free Gram formed in blocks equals the one formed from a single
    # block of every active column bit for bit, at any block size: a lone
    # trailing column (33 = 32 + 1 at the default) is solved with the same bits
    size = mesh_fem.SENSITIVITY_BLOCK if block is None else block
    mesh = Mesh2D(nx, ny, float(nx), float(ny))
    bc = make_bc(mesh)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    if clamp_top:
        fixed[-mesh.nx:] = True
    active = np.flatnonzero(~fixed)
    plan = assembly_plan(mesh, bc, 0.3)
    system = _solve_reduced(plan, rng.normal(0.0, 0.6, mesh.n_elems))
    Q = plan.free[::-1]               # unsorted rows exercise the row map too
    monkeypatch.setattr(mesh_fem, "SENSITIVITY_BLOCK", active.size)
    single = adjoint_jacobian(mesh, system, active, Q).gram()
    monkeypatch.setattr(mesh_fem, "SENSITIVITY_BLOCK", size)
    G = adjoint_jacobian(mesh, system, active, Q)
    assert np.array_equal(G.gram(), single)
    assert np.all(dense(G)[:, fixed] == 0.0)


def test_all_clamped_jacobian_skips_the_solve(rng, monkeypatch):
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    bc = compression_bc(mesh)
    plan = assembly_plan(mesh, bc, 0.3)
    system = _solve_reduced(plan, rng.normal(0.0, 0.5, mesh.n_elems))
    Q = plan.free

    def no_solve(*args, **kwargs):
        raise AssertionError("sensitivity solve called")

    monkeypatch.setattr(mesh_fem, "pbtrs", no_solve)
    G = adjoint_jacobian(mesh, system, np.empty(0, dtype=int), Q)
    assert G.shape == (Q.size, mesh.n_elems)
    assert G.gram().shape == (0, 0)
    assert np.all(dense(G) == 0.0)
    assert np.all(G.rmatvec(np.ones(Q.size)) == 0.0)


@pytest.mark.parametrize("make_bc", [compression_bc, cantilever_bc])
def test_model_plan_matches_plan_free_and_dense_oracle(make_bc, rng):
    # the model's build-once plan against a plan built for the call and
    # against the dense assembly and contraction above
    mesh = Mesh2D(5, 4, 5.0, 4.0)
    bc = make_bc(mesh)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[-mesh.nx:] = True       # top element row clamped
    psi = rng.normal(0.0, 0.6, mesh.n_elems)
    model = FemForwardModel(mesh, bc, fixed_mask=fixed, poisson=0.3)
    ev = model.evaluate(psi).with_jacobian()
    Q = model.obs_dofs
    system = _solve_reduced(assembly_plan(mesh, bc, 0.3), psi)
    y_free = system.U[Q]
    G_free = dense(adjoint_jacobian(mesh, system, np.flatnonzero(~fixed), Q))
    y_oracle = oracle_solve(mesh, bc, psi, poisson=0.3)[Q]
    G_dense = dense_adjoint_jacobian(mesh, bc, psi, fixed, Q, 0.3)
    for y_ref, G_ref in ((y_free, G_free), (y_oracle, G_dense)):
        assert np.linalg.norm(ev.y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)
        assert np.linalg.norm(dense(ev.G) - G_ref) <= 1e-12 * np.linalg.norm(G_ref)
    assert np.all(dense(ev.G)[:, fixed] == 0.0)


def test_unsorted_observation_subset_gives_exact_rows(rng):
    mesh = Mesh2D(4, 4, 4.0, 4.0)
    bc = cantilever_bc(mesh)
    psi = rng.normal(0.0, 0.5, mesh.n_elems)
    model = FemForwardModel(mesh, bc, poisson=0.3)
    full = model.evaluate(psi).with_jacobian()
    pick = np.array([17, 3, 9])
    sub_model = FemForwardModel(mesh, bc, model.obs_dofs[pick], poisson=0.3)
    sub = sub_model.evaluate(psi).with_jacobian()
    assert np.array_equal(sub.y, full.y[pick])
    assert np.array_equal(dense(sub.G), dense(full.G)[pick])


@pytest.mark.parametrize("case", ["dirichlet", "traction", "clamped-row", "all-clamped",
                                  "unsorted-subset"])
def test_operator_matches_the_direct_jacobian(case, rng):
    # G v, G^T w and the free Gram against the dense G of direct
    # differentiation; the subset, unsorted and with one dof observed twice,
    # is the only case whose Gram weighs the free dofs by their observations
    mesh = Mesh2D(6, 4, 6.0, 4.0)
    bc = (cantilever_bc if case == "traction" else compression_bc)(mesh)
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    if case == "clamped-row":
        fixed[-mesh.nx:] = True
    elif case == "all-clamped":
        fixed[:] = True
    plan = assembly_plan(mesh, bc, 0.3)
    Q = None
    if case == "unsorted-subset":
        Q = rng.permutation(plan.free)[:plan.free.size // 3]
        Q = np.append(Q, Q[0])
    model = FemForwardModel(mesh, bc, Q, fixed_mask=fixed, poisson=0.3)
    psi = rng.normal(0.0, 0.5, mesh.n_elems)
    G = model.evaluate(psi).with_jacobian().G
    G_ref = direct_jacobian(mesh, _solve_reduced(plan, psi), model.active, model.obs_dofs)
    G_f = G_ref[:, model.active]
    v, w = rng.normal(size=mesh.n_elems), rng.normal(size=model.d_y)
    assert G.shape == G_ref.shape == (model.d_y, mesh.n_elems)
    for got, want in ((G @ v, G_ref @ v), (G.rmatvec(w), G_ref.T @ w),
                      (G.gram(), G_f.T @ G_f)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert np.array_equal(G.gram(), G.gram().T)
    assert np.all(G.rmatvec(w)[fixed] == 0.0)


def test_model_rejects_bad_obs_dofs_at_construction(mesh3):
    # a prescribed displacement has no sensitivity, and a dof past the mesh
    # does not exist: both are refused once, when the model is built
    bc = compression_bc(mesh3)
    pres = bc.dirichlet[0][0]
    with pytest.raises(ValueError, match="prescribed"):
        FemForwardModel(mesh3, bc, np.array([pres]))
    for dof in (-1, mesh3.n_dofs):
        with pytest.raises(IndexError, match="out of range"):
            FemForwardModel(mesh3, bc, np.array([dof]))


# ---------------------------------------------------------------------------
# Validation and error paths


def solve_through_model(mesh, bc, psi):
    """The model's plan path, which must raise the solver's own failure."""
    return FemForwardModel(mesh, bc).evaluate(psi).y


SOLVE_PATHS = (solve_with_plan, solve_through_model)


def test_singular_without_constraints():
    mesh = Mesh2D(2, 2, 1.0, 1.0)
    bc = BoundarySpec(dirichlet=[], tractions=[(0, 1.0)])
    for solve in SOLVE_PATHS:
        with pytest.raises(ForwardSolveError):
            solve(mesh, bc, np.zeros(4))


def test_modulus_overflow_is_named_without_warning():
    # exp(psi) past the float range is a failed solve, reported at the exp
    # rather than as an inf that surfaces later as a factorization error
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    psi = np.zeros(mesh.n_elems)
    psi[4] = 1000.0
    for solve in SOLVE_PATHS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ForwardSolveError, match="modulus overflow"):
                solve(mesh, compression_bc(mesh), psi)


def test_modulus_bound_is_the_edge_of_exp_overflow():
    # PSI_MAX is the largest double whose exp is finite: the moduli accept it,
    # and the next double up fails, named, with no warning
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    psi = np.zeros(mesh.n_elems)
    psi[4] = mesh_fem.PSI_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(mesh_fem._moduli(psi)))
        psi[4] = np.nextafter(mesh_fem.PSI_MAX, np.inf)
        with pytest.raises(ForwardSolveError, match="modulus overflow"):
            mesh_fem._moduli(psi)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(psi[4]))
    # the model declares the bound; a direct call past it is still a counted call
    model = FemForwardModel(mesh, compression_bc(mesh))
    assert model.psi_max == mesh_fem.PSI_MAX
    with pytest.raises(ForwardSolveError, match="modulus overflow"):
        model.evaluate(psi)
    assert model.calls == 1


def test_ill_conditioned_solve_states_modulus_range():
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    psi = np.zeros(mesh.n_elems)
    psi[4] = 700.0
    for solve in SOLVE_PATHS:
        with pytest.raises(ForwardSolveError,
                           match=r"log-moduli in \[0, 700\], contrast e\^700"):
            solve(mesh, compression_bc(mesh), psi)


@pytest.mark.parametrize("bc", [
    BoundarySpec(dirichlet=[(-1, 0.0)]), BoundarySpec(dirichlet=[(32, 0.0)]),
    BoundarySpec(tractions=[(-1, 1.0)]), BoundarySpec(tractions=[(32, 1.0)])],
    ids=["dirichlet-negative", "dirichlet-past", "traction-negative", "traction-past"])
def test_plan_refuses_a_dof_outside_the_mesh(bc, mesh3):
    # 32 dofs on 3x3: a negative index would wrap onto the last dof
    with pytest.raises(IndexError, match="dof .*out of range"):
        assembly_plan(mesh3, bc)


@pytest.mark.parametrize("poisson", [-0.1, 0.5])
def test_element_stiffness_refuses_a_poisson_ratio_outside_its_range(poisson):
    with pytest.raises(ValueError, match=r"Poisson ratio must be in \[0, 0.5\)"):
        element_stiffness_unit(Mesh2D(1, 1, 1.0, 1.0), poisson)


def test_fully_prescribed_mesh_has_nothing_to_solve():
    # on one element the bottom and top edges hold all four nodes
    mesh = Mesh2D(1, 1, 1.0, 1.0)
    model = FemForwardModel(mesh, compression_bc(mesh))
    with pytest.raises(ForwardSolveError, match="all dofs prescribed"):
        model.evaluate(np.zeros(1))


def test_non_finite_sensitivity_fails_when_the_jacobian_is_formed(mesh3, rng):
    # the free Gram is formed with the sensitivities, so a non-finite column
    # fails the Jacobian at once rather than the first solve that reads it
    plan = assembly_plan(mesh3, compression_bc(mesh3), 0.3)
    system = _solve_reduced(plan, rng.normal(0.0, 0.5, mesh3.n_elems))
    system.e_mod[4] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ForwardSolveError, match="non-finite"):
        adjoint_jacobian(mesh3, system, np.arange(mesh3.n_elems), plan.free)


def test_boundary_spec_rejects_duplicates_and_overlap():
    with pytest.raises(ValueError):
        BoundarySpec(dirichlet=[(0, 0.0), (0, 1.0)])
    with pytest.raises(ValueError):
        BoundarySpec(dirichlet=[(2, 0.0)], tractions=[(2, 1.0)])


def test_mesh_validation():
    for args, says in [((0, 2, 1.0, 1.0), "element counts must be >= 1, got 0x2"),
                       ((2, 0, 1.0, 1.0), "element counts must be >= 1, got 2x0"),
                       ((2, 2, -1.0, 1.0), "side lengths must be > 0, got -1.0x1.0"),
                       ((2, 2, 0.0, 1.0), "side lengths must be > 0, got 0.0x1.0"),
                       ((2, 2, 1.0, 0.0), "side lengths must be > 0, got 1.0x0.0")]:
        with pytest.raises(ValueError, match=re.escape(says)):
            Mesh2D(*args)


def test_element_stiffness_basic_structure():
    mesh = Mesh2D(1, 1, 2.0, 3.0)
    Ke = element_stiffness_unit(mesh, poisson=0.3)
    assert Ke.shape == (8, 8)
    assert np.max(np.abs(Ke - Ke.T)) < 1e-14
    w = np.linalg.eigvalsh(Ke)
    assert w[0] > -1e-12          # positive semidefinite
    assert np.sum(w < 1e-10) == 3  # exactly the three 2D rigid-body modes
