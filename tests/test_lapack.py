"""The LAPACK and BLAS kernels bound from numpy's OpenBLAS, against scipy.linalg.

scipy calls the same LAPACK routines through its own OpenBLAS build, so each
kernel must agree with it to rounding: within 1e-14 of the largest entry
(bit for bit where the two builds share their kernels).
"""

import os
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg.blas import dsbmv

from elastovb import _lapack
from elastovb.mesh_fem import ForwardSolveError, Mesh2D, _solve_reduced, assembly_plan

from conftest import compression_bc

SEEDS = st.integers(0, 2**32 - 1)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)


def spd_band(rng, n, kd):
    """The upper band ((kd + 1) x n, Fortran order) of a random SPD matrix of
    half-bandwidth kd: diagonally dominant, so positive definite."""
    band = np.asfortranarray(rng.uniform(-1.0, 1.0, (kd + 1, n)))
    band[kd] = 2.0 * (kd + 1) + rng.uniform(0.0, 1.0, n)
    for d in range(1, kd + 1):
        band[kd - d, :d] = 0.0          # entries above the first row of the band
    return band


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + np.eye(n)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, kd=st.sampled_from([25, 45, 85]), extra=st.integers(0, 120),
       nrhs=st.sampled_from([None, 1, 7, 32]))
def test_banded_factor_solve_and_product_match_scipy(seed, kd, extra, nrhs):
    rng = np.random.default_rng(seed)
    n = kd + 1 + extra
    band = spd_band(rng, n, kd)
    kept = band.copy()
    factor = _lapack.pbtrf(band)
    assert np.array_equal(band, kept)                 # the factor is a copy
    assert_close(factor, scipy.linalg.cholesky_banded(band))
    b = rng.normal(size=n if nrhs is None else (n, nrhs))
    want = scipy.linalg.cho_solve_banded((factor, False), b)
    bf = np.array(b, order="F")
    kept = b.copy()
    x = _lapack.pbtrs(factor, bf)                     # the default copies b
    assert x is not bf and np.array_equal(bf, kept)
    assert_close(x, want)
    x = _lapack.pbtrs(factor, bf, overwrite=True)     # Fortran-ordered: solved in place
    assert x is bf
    assert_close(x, want)
    if b.ndim == 2 and b.shape[1] > 1:
        x = _lapack.pbtrs(factor, b, overwrite=True)  # C-ordered: copied even so
        assert x is not b and np.array_equal(b, kept)
        assert_close(x, want)
    v = rng.normal(size=n)
    assert_close(_lapack.sbmv(band, v), dsbmv(kd, 1.0, band, v))


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 150), nrhs=st.sampled_from([None, 1, 4]))
def test_dense_upper_cholesky_solve_matches_scipy(seed, n, nrhs):
    rng = np.random.default_rng(seed)
    a = spd(rng, n)
    a[np.tril_indices(n, -1)] = np.nan                # the strict lower triangle is unread
    b = rng.normal(size=n if nrhs is None else (n, nrhs))
    ref = np.array(a, order="F")
    want = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(ref, overwrite_a=True, check_finite=False), b,
        check_finite=False)
    work = np.array(a, order="F")
    assert_close(_lapack.posv(work, b), want)
    upper = np.triu_indices(n)
    assert_close(work[upper], ref[upper])             # overwritten with the same factor
    assert np.all(np.isnan(work[np.tril_indices(n, -1)]))


def test_dense_solve_refuses_an_indefinite_matrix_and_a_c_ordered_one():
    a = np.asfortranarray(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        _lapack.posv(a, np.ones(3))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _lapack.posv(np.ascontiguousarray(np.ones((3, 3)) + 2.0 * np.eye(3)), np.ones(3))
    with pytest.raises(ValueError, match="cannot solve for 2 rows"):
        _lapack.posv(np.asfortranarray(np.eye(3)), np.ones(2))
    with pytest.raises(ValueError, match="square"):
        _lapack.syevr(np.asfortranarray(np.ones((3, 2))), 0, 1)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 120), data=st.data())
def test_eigenpair_range_matches_scipy(seed, n, data):
    start = data.draw(st.sampled_from([0, data.draw(st.integers(1, n - 1))]), label="start")
    stop = data.draw(st.integers(start + 1, min(n, start + 12)), label="stop")
    rng = np.random.default_rng(seed)
    a = spd(rng, n)
    want_vals, want_vecs = scipy.linalg.eigh(a, subset_by_index=[start, stop - 1])
    work = np.array(a, order="F")
    vals, vecs = _lapack.syevr(work, start, stop)
    assert vecs.shape == (n, stop - start)
    assert_close(vals, want_vals)
    assert_close(vecs, want_vecs)


def test_eigenpair_range_refuses_an_empty_range():
    with pytest.raises(ValueError, match="not within"):
        _lapack.syevr(np.asfortranarray(np.eye(3)), 2, 2)


def test_indefinite_stiffness_is_a_singular_system_with_its_modulus_range():
    # a negated stiffness fails at the first pivot: LAPACK's info reaches the
    # solver's named error, not a traceback
    mesh = Mesh2D(3, 3, 3.0, 3.0)
    plan = assembly_plan(mesh, compression_bc(mesh), 0.3)
    negated = replace(plan, coef=-plan.coef)
    psi = np.linspace(-0.5, 1.5, mesh.n_elems)
    with pytest.raises(ForwardSolveError,
                       match=r"factorization failed \(1-th leading minor not positive "
                             r"definite; log-moduli in \[-0.5, 1.5\], contrast e\^2\)"):
        _solve_reduced(negated, psi)


def test_loader_names_the_library_and_the_directory_it_searched(tmp_path):
    with pytest.raises(ImportError) as info:
        _lapack._load(str(tmp_path))
    assert "libscipy_openblas64_*.so" in str(info.value)
    assert str(tmp_path) in str(info.value)


def test_loader_names_a_library_without_the_routines(tmp_path):
    # any shared library that is not numpy's OpenBLAS lacks the symbols
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    other = next(name for name in sorted(os.listdir(libs)) if "openblas" not in name)
    fake = tmp_path / "libscipy_openblas64_fake.so"
    fake.symlink_to(os.path.join(libs, other))
    with pytest.raises(ImportError, match=re.escape(f"cannot bind LAPACK in {fake}")):
        _lapack._load(str(tmp_path))


def test_kernels_refuse_arrays_they_cannot_pass():
    # a pointer into a too-short, non-float or strided array would make LAPACK
    # read or write outside it
    band = spd_band(np.random.default_rng(1), 30, 25)
    factor = _lapack.pbtrf(band)
    with pytest.raises(ValueError, match="cannot solve for 29 rows"):
        _lapack.pbtrs(factor, np.ones(29))
    with pytest.raises(ValueError, match="cannot multiply"):
        _lapack.sbmv(band, np.ones(29))
    with pytest.raises(ValueError, match="cannot multiply"):
        _lapack.sbmv(band, np.ones(30, dtype=np.float32))
    with pytest.raises(TypeError, match="not C contiguous"):
        _lapack.sbmv(band, np.ones(60)[::2])
