"""Run configuration, phantom synthesis, and artifact file formats.

A run is described by one YAML file with nested blocks (mesh, phantom, bc,
noise, solver, clamp, prior, validation, output).  This module parses and
validates that file, builds the mesh/boundary/phantom objects from it, and
reads/writes the on-disk artifacts: the observation file (JSON), element
fields and nodal displacements (CSV), and re-emitted configs.

All floats are written with 17 significant digits so files round-trip
losslessly and regeneration with the same seed is byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np
import yaml

from .driver import DriverConfig
from .forward import CallCounter, FemForwardModel, free_dofs
from .mesh_fem import BoundarySpec, MaterialField, Mesh2D, assemble_and_solve, observe

SCHEMA_VERSION = 1
FLOAT_FMT = "%.17g"
_EDGES = ("bottom", "top", "left", "right")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; reported as a usage error."""


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(block) - allowed)
    if extra:
        raise ConfigError(f"unknown keys in {where}: {extra}")


def _as_float(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc


def _as_int(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be an integer, got {value!r}") from exc


@dataclass
class MeshBlock:
    nx: int
    ny: int
    lx: float
    ly: float
    poisson: float = 0.0


@dataclass
class Inclusion:
    """One phantom inclusion; membership is decided at element centers."""
    shape: str                      # "ellipse" or "rectangle"
    value: float                    # log-modulus inside the shape
    center: list[float] = field(default_factory=list)   # ellipse only
    radii: list[float] = field(default_factory=list)    # ellipse only
    x: list[float] = field(default_factory=list)        # rectangle extents
    y: list[float] = field(default_factory=list)


@dataclass
class PhantomBlock:
    background: float = 0.0
    inclusions: list[Inclusion] = field(default_factory=list)


@dataclass
class EdgeCondition:
    """Prescribed displacement components along one mesh edge; None leaves a
    component free."""
    edge: str
    ux: float | None = None
    uy: float | None = None


@dataclass
class PointLoad:
    node: list[int]                 # (ix, iy)
    fx: float = 0.0
    fy: float = 0.0


@dataclass
class BCBlock:
    dirichlet: list[EdgeCondition] = field(default_factory=list)
    loads: list[PointLoad] = field(default_factory=list)


@dataclass
class NoiseBlock:
    snr: float = 1e5                # power ratio mean(y^2)/sigma^2; inf = exact data
    seed: int = 0


@dataclass
class ClampBlock:
    """Elements excluded from inversion, held at a fixed log-modulus."""
    top_element_rows: int = 0
    value: float = 0.0


@dataclass
class PriorBlock:
    enabled: bool = False
    a_phi: float = 0.0
    b_phi: float = 0.0


@dataclass
class ValidationBlock:
    samples: int = 1000
    seed: int = 0


@dataclass
class OutputBlock:
    directory: str = "out"
    formats: list[str] = field(default_factory=lambda: ["csv", "json"])


@dataclass
class RunConfig:
    mesh: MeshBlock
    phantom: PhantomBlock = field(default_factory=PhantomBlock)
    bc: BCBlock = field(default_factory=BCBlock)
    noise: NoiseBlock = field(default_factory=NoiseBlock)
    solver: DriverConfig = field(default_factory=DriverConfig)
    clamp: ClampBlock = field(default_factory=ClampBlock)
    prior: PriorBlock = field(default_factory=PriorBlock)
    validation: ValidationBlock = field(default_factory=ValidationBlock)
    output: OutputBlock = field(default_factory=OutputBlock)
    mu0: float = 0.0

    def validate(self) -> None:
        m = self.mesh
        if m.nx < 1 or m.ny < 1 or m.lx <= 0 or m.ly <= 0:
            raise ConfigError("mesh dimensions must be positive")
        if not 0.0 <= m.poisson < 0.5:
            raise ConfigError(f"mesh.poisson {m.poisson} outside [0, 0.5)")
        if not self.noise.snr > 0:
            raise ConfigError("noise.snr must be positive")
        for inc in self.phantom.inclusions:
            self._validate_inclusion(inc)
        for cond in self.bc.dirichlet:
            if cond.edge not in _EDGES:
                raise ConfigError(f"unknown edge {cond.edge!r}; expected one of {_EDGES}")
            if cond.ux is None and cond.uy is None:
                raise ConfigError(f"edge {cond.edge!r} prescribes no component")
        for load in self.bc.loads:
            ix, iy = load.node
            if not (0 <= ix <= m.nx and 0 <= iy <= m.ny):
                raise ConfigError(f"load node {load.node} outside the grid")
        if not self.bc.dirichlet:
            raise ConfigError("at least one Dirichlet edge is required")
        if not 0 <= self.clamp.top_element_rows <= m.ny:
            raise ConfigError("clamp.top_element_rows outside [0, ny]")
        if self.validation.samples < 2:
            raise ConfigError("validation.samples must be >= 2")
        try:
            self.solver.validate()
        except ValueError as exc:
            raise ConfigError(f"solver block: {exc}") from exc

    def _validate_inclusion(self, inc: Inclusion) -> None:
        m = self.mesh
        if inc.shape == "ellipse":
            if len(inc.center) != 2 or len(inc.radii) != 2:
                raise ConfigError("ellipse needs center [cx, cy] and radii [rx, ry]")
            (cx, cy), (rx, ry) = inc.center, inc.radii
            if rx <= 0 or ry <= 0:
                raise ConfigError("ellipse radii must be positive")
            if cx - rx < 0 or cx + rx > m.lx or cy - ry < 0 or cy + ry > m.ly:
                raise ConfigError("ellipse extends outside the domain")
        elif inc.shape == "rectangle":
            if len(inc.x) != 2 or len(inc.y) != 2:
                raise ConfigError("rectangle needs x [x0, x1] and y [y0, y1]")
            if not (0 <= inc.x[0] < inc.x[1] <= m.lx and 0 <= inc.y[0] < inc.y[1] <= m.ly):
                raise ConfigError("rectangle extends outside the domain")
        else:
            raise ConfigError(f"unknown inclusion shape {inc.shape!r}")

    def to_dict(self) -> dict:
        d = {
            "mesh": asdict(self.mesh),
            "phantom": asdict(self.phantom),
            "bc": asdict(self.bc),
            "noise": asdict(self.noise),
            "solver": asdict(self.solver),
            "clamp": asdict(self.clamp),
            "prior": asdict(self.prior),
            "validation": asdict(self.validation),
            "output": asdict(self.output),
            "mu0": self.mu0,
        }
        return d


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(raw, {"mesh", "phantom", "bc", "noise", "solver", "clamp",
                      "prior", "validation", "output", "mu0"}, "config")
    if "mesh" not in raw or not isinstance(raw["mesh"], dict):
        raise ConfigError("config requires a mesh block")

    def block(name: str) -> dict:
        b = raw.get(name) or {}
        if not isinstance(b, dict):
            raise ConfigError(f"{name} block must be a mapping")
        return b

    mb = block("mesh")
    _check_keys(mb, {"nx", "ny", "lx", "ly", "poisson"}, "mesh")
    try:
        mesh = MeshBlock(nx=_as_int(mb["nx"], "mesh.nx"), ny=_as_int(mb["ny"], "mesh.ny"),
                         lx=_as_float(mb["lx"], "mesh.lx"),
                         ly=_as_float(mb["ly"], "mesh.ly"),
                         poisson=_as_float(mb.get("poisson", 0.0), "mesh.poisson"))
    except KeyError as exc:
        raise ConfigError(f"mesh block missing key {exc.args[0]!r}") from exc

    pb = block("phantom")
    _check_keys(pb, {"background", "inclusions"}, "phantom")
    inclusions = []
    for i, entry in enumerate(pb.get("inclusions") or []):
        if not isinstance(entry, dict):
            raise ConfigError(f"phantom.inclusions[{i}] must be a mapping")
        _check_keys(entry, {"shape", "value", "center", "radii", "x", "y"},
                    f"phantom.inclusions[{i}]")
        if "shape" not in entry or "value" not in entry:
            raise ConfigError(f"phantom.inclusions[{i}] needs shape and value")
        inclusions.append(Inclusion(
            shape=str(entry["shape"]),
            value=_as_float(entry["value"], "inclusion value"),
            center=[float(v) for v in entry.get("center", [])],
            radii=[float(v) for v in entry.get("radii", [])],
            x=[float(v) for v in entry.get("x", [])],
            y=[float(v) for v in entry.get("y", [])]))
    phantom = PhantomBlock(background=_as_float(pb.get("background", 0.0),
                                                "phantom.background"),
                           inclusions=inclusions)

    bb = block("bc")
    _check_keys(bb, {"dirichlet", "loads"}, "bc")
    dirichlet = []
    for i, entry in enumerate(bb.get("dirichlet") or []):
        if not isinstance(entry, dict):
            raise ConfigError(f"bc.dirichlet[{i}] must be a mapping")
        _check_keys(entry, {"edge", "ux", "uy"}, f"bc.dirichlet[{i}]")
        dirichlet.append(EdgeCondition(
            edge=str(entry.get("edge", "")),
            ux=None if entry.get("ux") is None else _as_float(entry["ux"], "ux"),
            uy=None if entry.get("uy") is None else _as_float(entry["uy"], "uy")))
    loads = []
    for i, entry in enumerate(bb.get("loads") or []):
        _check_keys(entry, {"node", "fx", "fy"}, f"bc.loads[{i}]")
        node = entry.get("node")
        if not isinstance(node, (list, tuple)) or len(node) != 2:
            raise ConfigError(f"bc.loads[{i}].node must be [ix, iy]")
        loads.append(PointLoad(node=[_as_int(v, f"bc.loads[{i}].node") for v in node],
                               fx=_as_float(entry.get("fx", 0.0), "fx"),
                               fy=_as_float(entry.get("fy", 0.0), "fy")))
    bc = BCBlock(dirichlet=dirichlet, loads=loads)

    nb = block("noise")
    _check_keys(nb, {"snr", "seed"}, "noise")
    noise = NoiseBlock(snr=_as_float(nb.get("snr", 1e5), "noise.snr"),
                       seed=_as_int(nb.get("seed", 0), "noise.seed"))

    sb = block("solver")
    solver_fields = {f.name for f in dataclass_fields(DriverConfig)}
    _check_keys(sb, solver_fields, "solver")
    kwargs = {}
    for key, value in sb.items():
        if value is None:
            kwargs[key] = None
        elif key in ("info_gain_window", "max_bases", "seed", "mu_max_outer",
                     "mu_reg_delay", "mu_max_halvings", "mu_call_budget",
                     "w_max_iters", "q_max_iters", "sweep_window", "max_sweeps"):
            kwargs[key] = _as_int(value, f"solver.{key}")
        else:
            kwargs[key] = _as_float(value, f"solver.{key}")
    solver = DriverConfig(**kwargs)

    cb = block("clamp")
    _check_keys(cb, {"top_element_rows", "value"}, "clamp")
    clamp = ClampBlock(top_element_rows=_as_int(cb.get("top_element_rows", 0),
                                                "clamp.top_element_rows"),
                       value=_as_float(cb.get("value", 0.0), "clamp.value"))

    prb = block("prior")
    _check_keys(prb, {"enabled", "a_phi", "b_phi"}, "prior")
    prior = PriorBlock(enabled=bool(prb.get("enabled", False)),
                       a_phi=_as_float(prb.get("a_phi", 0.0), "prior.a_phi"),
                       b_phi=_as_float(prb.get("b_phi", 0.0), "prior.b_phi"))

    vb_ = block("validation")
    _check_keys(vb_, {"samples", "seed"}, "validation")
    validation = ValidationBlock(
        samples=_as_int(vb_.get("samples", 1000), "validation.samples"),
        seed=_as_int(vb_.get("seed", 0), "validation.seed"))

    ob = block("output")
    _check_keys(ob, {"directory", "formats"}, "output")
    output = OutputBlock(directory=str(ob.get("directory", "out")),
                         formats=[str(f) for f in (ob.get("formats") or ["csv", "json"])])

    cfg = RunConfig(mesh=mesh, phantom=phantom, bc=bc, noise=noise, solver=solver,
                    clamp=clamp, prior=prior, validation=validation, output=output,
                    mu0=_as_float(raw.get("mu0", 0.0), "mu0"))
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return config_from_dict(raw)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True,
                                         default_flow_style=False))


# ---------------------------------------------------------------------------
# Builders


def build_mesh(cfg: RunConfig) -> Mesh2D:
    m = cfg.mesh
    return Mesh2D(nx=m.nx, ny=m.ny, lx=m.lx, ly=m.ly)


def _edge_nodes(mesh: Mesh2D, edge: str) -> list[int]:
    if edge == "bottom":
        return [mesh.node_index(ix, 0) for ix in range(mesh.nx + 1)]
    if edge == "top":
        return [mesh.node_index(ix, mesh.ny) for ix in range(mesh.nx + 1)]
    if edge == "left":
        return [mesh.node_index(0, iy) for iy in range(mesh.ny + 1)]
    if edge == "right":
        return [mesh.node_index(mesh.nx, iy) for iy in range(mesh.ny + 1)]
    raise ConfigError(f"unknown edge {edge!r}")


def build_bc(cfg: RunConfig, mesh: Mesh2D) -> BoundarySpec:
    values: dict[int, float] = {}
    for cond in cfg.bc.dirichlet:
        for node in _edge_nodes(mesh, cond.edge):
            for comp, val in ((0, cond.ux), (1, cond.uy)):
                if val is None:
                    continue
                dof = 2 * node + comp
                if dof in values and values[dof] != val:
                    raise ConfigError(
                        f"conflicting Dirichlet values at dof {dof}: "
                        f"{values[dof]} vs {val}")
                values[dof] = val
    tractions = []
    for load in cfg.bc.loads:
        node = mesh.node_index(load.node[0], load.node[1])
        if load.fx:
            tractions.append((2 * node, load.fx))
        if load.fy:
            tractions.append((2 * node + 1, load.fy))
    return BoundarySpec(dirichlet=sorted(values.items()), tractions=tractions)


def build_phantom(cfg: RunConfig, mesh: Mesh2D) -> np.ndarray:
    """Per-element log-modulus field; later inclusions overwrite earlier ones."""
    centers = mesh.element_centers()
    psi = np.full(mesh.n_elems, cfg.phantom.background, dtype=float)
    for inc in cfg.phantom.inclusions:
        if inc.shape == "ellipse":
            (cx, cy), (rx, ry) = inc.center, inc.radii
            inside = (((centers[:, 0] - cx) / rx) ** 2
                      + ((centers[:, 1] - cy) / ry) ** 2) <= 1.0
        else:
            inside = ((inc.x[0] <= centers[:, 0]) & (centers[:, 0] <= inc.x[1])
                      & (inc.y[0] <= centers[:, 1]) & (centers[:, 1] <= inc.y[1]))
        psi[inside] = inc.value
    return psi


def clamp_mask(cfg: RunConfig, mesh: Mesh2D) -> np.ndarray:
    """Boolean mask of elements excluded from the inversion."""
    mask = np.zeros(mesh.n_elems, dtype=bool)
    rows = cfg.clamp.top_element_rows
    if rows > 0:
        mask[(mesh.ny - rows) * mesh.nx:] = True
    return mask


def build_model(cfg: RunConfig, counter: CallCounter | None = None
                ) -> tuple[FemForwardModel, Mesh2D, BoundarySpec, np.ndarray, np.ndarray]:
    """Forward model observing every free dof, plus its building blocks.

    Returns (model, mesh, bc, obs_dofs, clamp mask).
    """
    mesh = build_mesh(cfg)
    bc = build_bc(cfg, mesh)
    obs = free_dofs(mesh, bc)
    mask = clamp_mask(cfg, mesh)
    model = FemForwardModel(mesh, bc, obs, fixed_mask=mask,
                            poisson=cfg.mesh.poisson, counter=counter)
    return model, mesh, bc, obs, mask


def initial_mu(cfg: RunConfig, mesh: Mesh2D) -> np.ndarray:
    mu = np.full(mesh.n_elems, cfg.mu0, dtype=float)
    mu[clamp_mask(cfg, mesh)] = cfg.clamp.value
    return mu


# ---------------------------------------------------------------------------
# Observation file


@dataclass
class ObservationFile:
    """Synthetic observations plus the bookkeeping needed to validate a run.

    tau_true is the generating noise precision (inf for exact data) and is
    never consumed by the inversion itself.
    """
    d_y: int
    obs_dofs: np.ndarray
    yhat: np.ndarray
    y_clean: np.ndarray
    seed: int
    tau_true: float
    snr_target: float

    def __post_init__(self) -> None:
        self.obs_dofs = np.asarray(self.obs_dofs, dtype=int)
        self.yhat = np.asarray(self.yhat, dtype=float)
        self.y_clean = np.asarray(self.y_clean, dtype=float)
        if not (self.d_y == self.obs_dofs.size == self.yhat.size == self.y_clean.size):
            raise ConfigError("observation file length mismatch")
        if not self.tau_true > 0:
            raise ConfigError("tau_true must be positive")

    def save(self, path: str | Path) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "d_y": self.d_y,
            "obs_dofs": self.obs_dofs.tolist(),
            "yhat": self.yhat.tolist(),
            "y_clean": self.y_clean.tolist(),
            "seed": self.seed,
            "tau_true": self.tau_true,     # serialized as Infinity for exact data
            "snr_target": self.snr_target,
        }
        Path(path).write_text(json.dumps(payload, indent=1) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ObservationFile":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read observations {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid observation file {path}: {exc}") from exc
        try:
            return cls(d_y=int(payload["d_y"]),
                       obs_dofs=payload["obs_dofs"], yhat=payload["yhat"],
                       y_clean=payload["y_clean"], seed=int(payload["seed"]),
                       tau_true=float(payload["tau_true"]),
                       snr_target=float(payload["snr_target"]))
        except KeyError as exc:
            raise ConfigError(f"observation file missing key {exc.args[0]!r}") from exc


def generate_data(cfg: RunConfig) -> tuple[ObservationFile, np.ndarray, np.ndarray]:
    """Solve the phantom forward problem and add noise at the target SNR.

    Noise is i.i.d. Gaussian with sigma^2 = mean(y^2)/snr, so tau_true =
    snr/mean(y^2).  Returns (observations, true field, full displacement).
    """
    mesh = build_mesh(cfg)
    bc = build_bc(cfg, mesh)
    psi_true = build_phantom(cfg, mesh)
    U = assemble_and_solve(mesh, bc, MaterialField(psi_true), poisson=cfg.mesh.poisson)
    obs = free_dofs(mesh, bc)
    y = observe(U, obs)
    if math.isinf(cfg.noise.snr):
        yhat = y.copy()
        tau_true = math.inf
    else:
        sigma2 = float(np.mean(y ** 2)) / cfg.noise.snr
        if sigma2 == 0.0:
            raise ConfigError("observed response is identically zero; SNR undefined")
        rng = np.random.default_rng(cfg.noise.seed)
        yhat = y + rng.normal(0.0, math.sqrt(sigma2), size=y.shape)
        tau_true = 1.0 / sigma2
    out = ObservationFile(d_y=y.size, obs_dofs=obs, yhat=yhat, y_clean=y,
                          seed=cfg.noise.seed, tau_true=tau_true,
                          snr_target=cfg.noise.snr)
    return out, psi_true, U


# ---------------------------------------------------------------------------
# CSV field formats


def write_element_field(path: str | Path, mesh: Mesh2D, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_elems,):
        raise ValueError(f"expected {mesh.n_elems} element values, got {values.shape}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["elem_ix", "elem_iy", "value"])
        for k in range(mesh.n_elems):
            writer.writerow([k % mesh.nx, k // mesh.nx, FLOAT_FMT % values[k]])


def read_element_field(path: str | Path) -> np.ndarray:
    """Reads a field CSV back into element order ey*nx + ex."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append((int(row["elem_ix"]), int(row["elem_iy"]),
                         float(row["value"])))
    if not rows:
        raise ConfigError(f"empty field file {path}")
    nx = max(r[0] for r in rows) + 1
    ny = max(r[1] for r in rows) + 1
    values = np.full(nx * ny, np.nan)
    for ix, iy, v in rows:
        values[iy * nx + ix] = v
    if np.any(np.isnan(values)):
        raise ConfigError(f"field file {path} does not cover the full grid")
    return values


def write_node_displacements(path: str | Path, mesh: Mesh2D, U: np.ndarray) -> None:
    U = np.asarray(U, dtype=float)
    if U.shape != (mesh.n_dofs,):
        raise ValueError(f"expected {mesh.n_dofs} dof values, got {U.shape}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_ix", "node_iy", "ux", "uy"])
        for node in range(mesh.n_nodes):
            writer.writerow([node % (mesh.nx + 1), node // (mesh.nx + 1),
                             FLOAT_FMT % U[2 * node], FLOAT_FMT % U[2 * node + 1]])


def example1_dict() -> dict:
    """Built-in tissue-mimicking benchmark: 10x10 unit-modulus matrix with a
    stiff circular inclusion, compressed from the top by a 1% displacement."""
    return {
        "mesh": {"nx": 10, "ny": 10, "lx": 10.0, "ly": 10.0, "poisson": 0.0},
        "phantom": {
            "background": 0.0,
            "inclusions": [
                {"shape": "ellipse", "center": [5.0, 5.0], "radii": [2.0, 2.0],
                 "value": float(np.log(5.0))},
            ],
        },
        "bc": {
            "dirichlet": [
                {"edge": "bottom", "ux": 0.0, "uy": 0.0},
                {"edge": "top", "ux": 0.0, "uy": -0.1},
            ],
        },
        "noise": {"snr": 1e5, "seed": 1},
        "solver": {"seed": 0},
        "clamp": {"top_element_rows": 1, "value": 0.0},
        "prior": {"enabled": True, "a_phi": 0.0, "b_phi": 0.0},
        "validation": {"samples": 1000, "seed": 0},
        "output": {"directory": "runs/example1", "formats": ["csv", "json"]},
    }


def example1_config() -> RunConfig:
    return config_from_dict(example1_dict())
