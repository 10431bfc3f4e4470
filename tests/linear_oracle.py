"""A linear forward model, the closed-form fake the tests run the library on.

`LinearOracleModel` is y = A psi + offset with the constant Jacobian A, so
conjugate-Gaussian results hold exactly for it.  Its sensitivities are a
`DenseSensitivities`, the operator of a dense matrix, which the tests also
use to build models whose G is a given matrix.
"""

import numpy as np

from elastovb.forward import ForwardEval, ForwardModel
from elastovb.mesh_fem import Sensitivities, mirror_lower


class DenseSensitivities(Sensitivities):
    """Sensitivities held as a dense (d_y x d_psi) matrix A."""

    def __init__(self, A, free):
        if not np.all(np.isfinite(A)):
            raise ValueError("forward evaluation produced non-finite values")
        self.A = A
        self.shape = A.shape
        self._free = free

    def __matmul__(self, v):
        return self.A @ v

    def rmatvec(self, w):
        return self.A.T @ w

    def _form_gram(self):
        A_f = self.A[:, self._free]
        return mirror_lower(A_f.T @ A_f)


class LinearOracleModel(ForwardModel):
    """y = A psi + offset with constant Jacobian A; conjugate-Gaussian test model."""

    def __init__(self, A, offset=None, fixed_mask=None):
        self.A = np.asarray(A, dtype=float)
        super().__init__(fixed_mask)
        self.offset = (np.zeros(self.A.shape[0]) if offset is None
                       else np.asarray(offset, dtype=float))
        if self.offset.shape != (self.A.shape[0],):
            raise ValueError("offset length does not match A rows")

    @property
    def d_psi(self):
        return self.A.shape[1]

    @property
    def d_y(self):
        return self.A.shape[0]

    def _evaluate(self, psi):
        return ForwardEval(y=self.A @ psi + self.offset, G=None,
                           _jacobian=lambda: DenseSensitivities(self.A, self.active))
