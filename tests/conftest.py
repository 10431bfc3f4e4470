"""Shared helpers: the shipped example1 config, boundary conditions, small meshes,
a point-mass noise prior and a traced memory peak."""

import os
import tracemalloc
from pathlib import Path

# One BLAS thread, set before numpy loads: a suite that shares its CPUs with
# another process must not oversubscribe them with BLAS worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import yaml  # noqa: E402

from elastovb.config import RunConfig, load_config  # noqa: E402
from elastovb.forward import FemForwardModel  # noqa: E402
from elastovb.mesh_fem import BoundarySpec, Mesh2D  # noqa: E402

EXAMPLE1_YAML = Path(__file__).resolve().parents[1] / "configs" / "example1.yaml"


def example1_dict() -> dict:
    """The shipped benchmark config as a plain mapping, fresh on every call."""
    return yaml.safe_load(EXAMPLE1_YAML.read_text())


def example1_config() -> RunConfig:
    return load_config(EXAMPLE1_YAML)


def compression_bc(mesh: Mesh2D, u_top: float = -0.1) -> BoundarySpec:
    """Bottom edge fully fixed; top edge held laterally and pushed down."""
    dirichlet = []
    for ix in range(mesh.nx + 1):
        n = mesh.node_index(ix, 0)
        dirichlet += [(2 * n, 0.0), (2 * n + 1, 0.0)]
        n = mesh.node_index(ix, mesh.ny)
        dirichlet += [(2 * n, 0.0), (2 * n + 1, u_top)]
    return BoundarySpec(dirichlet=dirichlet)


def cantilever_bc(mesh: Mesh2D, load: float = 0.01) -> BoundarySpec:
    """Left edge fixed, downward point load at the lower-right corner node."""
    dirichlet = []
    for iy in range(mesh.ny + 1):
        n = mesh.node_index(0, iy)
        dirichlet += [(2 * n, 0.0), (2 * n + 1, 0.0)]
    tip = mesh.node_index(mesh.nx, 0)
    return BoundarySpec(dirichlet=dirichlet, tractions=[(2 * tip + 1, -load)])


def top_clamped_model(n: int) -> FemForwardModel:
    """n x n compression model with its top row of elements clamped."""
    mesh = Mesh2D(n, n, float(n), float(n))
    fixed = np.zeros(mesh.n_elems, dtype=bool)
    fixed[-mesh.nx:] = True
    return FemForwardModel(mesh, compression_bc(mesh), fixed_mask=fixed, poisson=0.3)


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, after one untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def concentrated_tau_prior(tau: float, scale: float = 1e12) -> tuple[float, float]:
    """Gamma prior (a0, b0) sharply peaked at a known noise precision tau."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    return tau * scale, scale


@pytest.fixture
def mesh3() -> Mesh2D:
    return Mesh2D(3, 3, 3.0, 3.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
