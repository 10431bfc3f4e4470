"""The dense sensitivity matrix G, the reference for the library's sensitivity operator.

The library never forms G: `mesh_fem.BandedSensitivities` gives G v, G^T w and
the free Gram G_f^T G_f from the call's banded factor.  `direct_jacobian` is
the direct differentiation the library used to form G with, one solve per
active element in blocks of SENSITIVITY_BLOCK columns written into G, kept
here as the oracle the operator is checked against.  `dense` reads an
operator's own dense matrix, for the tests that compare G entry by entry.
"""

import numpy as np
from scipy.linalg import cho_solve_banded

from elastovb import mesh_fem


def direct_jacobian(mesh, system, active, Q):
    """G[i, k] = d y_i / d psi_k at the field `system` was solved for.

    Differentiating K_ff u_f = f_f - K_fp u_p gives du_f/dpsi_k = K_ff^-1 b_k,
    with b_k = -E_k Ke_unit U_e on element k's free dofs, so G[:, active] =
    S_Q K_ff^-1 B^T; the columns of the other (clamped) elements are zero.
    """
    rows = system.plan.free_pos[Q]
    G = np.zeros((rows.size, mesh.n_elems))
    for lo in range(0, active.size, mesh_fem.SENSITIVITY_BLOCK):
        cols = active[lo:lo + mesh_fem.SENSITIVITY_BLOCK]
        G[:, cols] = cho_solve_banded((system.factor, False), sensitivity_rhs(system, cols),
                                      check_finite=False)[rows]
    return G


def sensitivity_rhs(system, active):
    """B^T: column k is -E_k Ke_unit U_e on active element k's free dofs."""
    plan = system.plan
    dofs = plan.dofs[active]
    pos = plan.free_pos[dofs]
    v = -system.e_mod[active, None] * (system.U[dofs] @ plan.ke.T)   # (n_active, 8)
    k, c = np.nonzero(pos >= 0)
    Bt = np.zeros((plan.free.size, active.size), order="F")
    Bt[pos[k, c], k] = v[k, c]              # an element's 8 dofs are distinct
    return Bt


def dense(G):
    """The dense (d_y x d_psi) matrix of a sensitivity operator: G applied to the identity."""
    return G @ np.eye(G.shape[1])
