"""The six LAPACK and BLAS routines the package calls, from numpy's own OpenBLAS.

numpy's wheels bundle an OpenBLAS built with 64-bit integers (ILP64),
`numpy.libs/libscipy_openblas64_*.so`, which exports each Fortran routine as
`scipy_<name>_64_`.  Binding those with ctypes reaches the LAPACK code that
`scipy.linalg` would call, without loading scipy or a second OpenBLAS.  The
library is loaded and every routine looked up once, at import; if either is
missing, the import fails with an ImportError that names what it expected.

Fortran takes every argument by reference, and each character argument has a
hidden length appended after the others.  The per-call cost is kept to the
call: the argument types are set once, and the scalar arguments are ctypes
objects built once, the integers held per value since LAPACK only reads them.
An array is passed as its own buffer, which ctypes checks to be writable and
contiguous.  Arrays are float64 and Fortran-ordered; each function says which
argument it overwrites.  A pivot that is not positive raises
np.linalg.LinAlgError, as `scipy.linalg` does.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

_P, _C, _L = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
# each routine's argument types in LAPACK's order: a character is _C, its
# hidden length _L at the end, and every other argument a pointer, _P
_SIGNATURES = {
    "dpbtrf": [_C] + [_P] * 5 + [_L],
    "dpbtrs": [_C] + [_P] * 8 + [_L],
    "dsbmv": [_C] + [_P] * 10 + [_L],
    "dpotrf": [_C] + [_P] * 4 + [_L],
    "dpotrs": [_C] + [_P] * 7 + [_L],
    "dsyevr": [_C] * 3 + [_P] * 18 + [_L] * 3,
}


def _load(libdir: str) -> dict:
    """The routines of the OpenBLAS in `libdir`, by LAPACK name, argument types set."""
    paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")))
    if not paths:
        raise ImportError(f"elastovb calls LAPACK in the OpenBLAS bundled with numpy, but "
                          f"{libdir} holds no libscipy_openblas64_*.so (numpy's Linux wheels "
                          "ship it)")
    try:
        lib = ctypes.CDLL(paths[0])
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _SIGNATURES}
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot bind LAPACK in {paths[0]}: {exc}") from exc
    for name, fn in routines.items():
        fn.argtypes, fn.restype = _SIGNATURES[name], None
    return routines


_K = _load(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"))
_ONE_D, _ZERO_D = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(0.0))
_LEN1 = ctypes.c_size_t(1)           # the hidden length of a character argument
_BUF = ctypes.c_char * 0


@functools.lru_cache(maxsize=256)
def _i(n: int):
    """An integer argument by reference, held: LAPACK only reads these."""
    return ctypes.byref(ctypes.c_int64(n))


def _ptr(a: np.ndarray):
    """The writable, Fortran-contiguous `a` as a pointer argument."""
    return _BUF.from_buffer(a.T)


def _square(a: np.ndarray, routine: str) -> int:
    """The order of `a`, which `routine` overwrites: square, float64, Fortran order."""
    if a.dtype != float or a.ndim != 2 or a.shape[0] != a.shape[1] or not a.flags.f_contiguous:
        raise ValueError(f"{routine} works in place on a square float64 Fortran-ordered array, "
                         f"not a {a.dtype} {a.shape} one")
    return a.shape[0]


def _check(info: ctypes.c_int64, routine: str) -> None:
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of {routine}")
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor not positive definite")


def pbtrf(band: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor, in the same band storage, of the symmetric positive
    definite matrix whose upper band `band` holds ((kd + 1) x n); `band` is kept."""
    factor = np.array(band, dtype=float, order="F")
    kd1, n = factor.shape
    info = ctypes.c_int64()
    _K["dpbtrf"](b"U", _i(n), _i(kd1 - 1), _ptr(factor), _i(kd1), ctypes.byref(info), _LEN1)
    _check(info, "dpbtrf")
    return factor


def pbtrs(factor: np.ndarray, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """x solving A x = b from `pbtrf`'s factor of A, for a vector or an (n x m) b.

    With `overwrite`, a float64 Fortran-ordered b is solved in place and
    returned; any other b is copied first.
    """
    x = np.asfortranarray(b, dtype=float) if overwrite else np.array(b, dtype=float, order="F")
    kd1, n = factor.shape
    if factor.dtype != float or x.shape[0] != n:
        raise ValueError(f"a {factor.dtype} factor of order {n} cannot solve for "
                         f"{x.shape[0]} rows")
    info = ctypes.c_int64()
    _K["dpbtrs"](b"U", _i(n), _i(kd1 - 1), _i(1 if x.ndim == 1 else x.shape[1]),
                 _ptr(factor), _i(kd1), _ptr(x), _i(max(n, 1)), ctypes.byref(info), _LEN1)
    _check(info, "dpbtrs")
    return x


def sbmv(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric A whose upper band `band` holds ((kd + 1) x n, Fortran
    order), with x a contiguous float64 vector."""
    kd1, n = band.shape
    if band.dtype != float or x.dtype != float or x.shape != (n,):
        raise ValueError(f"a {band.dtype} band of order {n} cannot multiply a {x.dtype} "
                         f"{x.shape} array")
    y = np.zeros(n)
    _K["dsbmv"](b"U", _i(n), _i(kd1 - 1), _ONE_D, _ptr(band), _i(kd1), _ptr(x), _i(1),
                _ZERO_D, _ptr(y), _i(1), _LEN1)
    return y


def posv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x solving A x = b for the symmetric positive definite A in the upper
    triangle of the Fortran-ordered `a`, which its Cholesky factor overwrites.

    The strict lower triangle of `a` is neither read nor written; b is kept.
    """
    n = _square(a, "posv")
    x = np.array(b, dtype=float, order="F")
    if x.shape[0] != n:
        raise ValueError(f"a matrix of order {n} cannot solve for {x.shape[0]} rows")
    info = ctypes.c_int64()
    _K["dpotrf"](b"U", _i(n), _ptr(a), _i(max(n, 1)), ctypes.byref(info), _LEN1)
    _check(info, "dpotrf")
    _K["dpotrs"](b"U", _i(n), _i(1 if x.ndim == 1 else x.shape[1]), _ptr(a), _i(max(n, 1)),
                 _ptr(x), _i(max(n, 1)), ctypes.byref(info), _LEN1)
    _check(info, "dpotrs")
    return x


def syevr(a: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs start..stop-1, in ascending order, of the symmetric matrix in the
    lower triangle of the Fortran-ordered `a`, which the reduction overwrites.

    Returns (eigenvalues, vectors), vectors (n x (stop - start)) with
    orthonormal columns.
    """
    n = _square(a, "syevr")
    if not 0 <= start < stop <= n:
        raise ValueError(f"eigenpair range [{start}, {stop}) is not within [0, {n})")
    m, info = ctypes.c_int64(), ctypes.c_int64()
    w = np.empty(n)
    z = np.empty((n, stop - start), order="F")
    isuppz = np.empty(2 * (stop - start), dtype=np.int64)
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    for query in (True, False):
        _K["dsyevr"](b"V", b"I", b"L", _i(n), _ptr(a), _i(n), _ZERO_D, _ZERO_D,
                     _i(start + 1), _i(stop), _ZERO_D, ctypes.byref(m), _ptr(w), _ptr(z),
                     _i(n), _ptr(isuppz), _ptr(work), _i(-1 if query else work.size),
                     _ptr(iwork), _i(-1 if query else iwork.size), ctypes.byref(info),
                     _LEN1, _LEN1, _LEN1)
        if info.value:
            raise np.linalg.LinAlgError(f"dsyevr failed with info {info.value}")
        if query:                      # the workspace sizes LAPACK asks for
            work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    if m.value != stop - start:        # a NaN in the matrix, say, gives no pairs and info 0
        raise np.linalg.LinAlgError(f"dsyevr found {m.value} eigenpairs, not the "
                                    f"{stop - start} asked for")
    return w[:m.value], z
