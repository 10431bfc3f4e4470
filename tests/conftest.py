"""Shared helpers: the shipped example1 config, boundary conditions and small meshes."""

import os
from pathlib import Path

# One BLAS thread, set before numpy loads: a suite that shares its CPUs with
# another process must not oversubscribe them with BLAS worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import yaml  # noqa: E402

from elastovb.config import RunConfig, load_config  # noqa: E402
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


@pytest.fixture
def mesh3() -> Mesh2D:
    return Mesh2D(3, 3, 3.0, 3.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
