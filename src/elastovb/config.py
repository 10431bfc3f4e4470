"""Run configuration and phantom synthesis.

A run is described by one YAML file with nested blocks (mesh, phantom, bc,
noise, solver, clamp, prior, validation, output), each a dataclass.  One
reader builds them from the dataclass fields: every key is converted as its
field is annotated (integers must be integral, strings strings, and only an
`X | None` field takes null), an absent key or a
null block or list takes the field's default, and every error names the
dotted key, e.g. `phantom.inclusions[0].center[1]`.  Defaults live only on
the dataclasses and rules on values only in the `validate` methods.  The same
rules read `observations.json` and the run trace's `state` block back.

The module also reads and writes the YAML config, builds the
mesh/boundary/phantom objects from it, synthesizes the observations and maps
them to and from the dict that `observations.json` holds; `cli` owns the
JSON and CSV artifacts and their format.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

from .forward import FemForwardModel
from .mesh_fem import BoundarySpec, Mesh2D, _solve_reduced

_EDGES = ("bottom", "top")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; reported as a usage error."""


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(block) - allowed, key=str)
    removed = [f"{where}.{key}" for key in extra if f"{where}.{key}" in _REMOVED_KEYS]
    if removed:
        raise ConfigError(f"{removed[0]} was removed: {_REMOVED_KEYS[removed[0]]}; "
                          "delete the key")
    if extra:
        raise ConfigError(f"unknown keys in {where}: {extra}")


def as_float(value, where: str) -> float:
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
            raise ConfigError(f"{where} must be finite, got {value!r}")
    raise ConfigError(f"{where} must be a number, got {value!r}")


def as_int(value, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _as_str(value, where: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{where} must be a string, got {value!r}")


_SCALARS = {int: as_int, float: as_float, str: _as_str}

# Keys of earlier versions, with the reason each went.
_REMOVED_KEYS = {f"{block}.{key}": reason for block, keys, reason in (
    ("solver", ("w_max_iters", "w_tol", "w_alpha_init"),
     "the basis now comes from one eigendecomposition, which has nothing to tune"),
    ("solver", ("sweep_f_tol", "sweep_window", "max_sweeps"),
     "each stage takes one eigenvector and fits q once: there are no sweeps to bound"),
    ("solver", ("q_max_iters", "q_tol"),
     "q is now fitted exactly by one scalar solve, with no iteration cap or tolerance"),
    ("solver", ("mu_max_outer", "mu_max_halvings"),
     "no shipped configuration changed it; the mean phase takes <= 30 steps of <= 10 halvings"),
    ("prior", ("enabled",),
     "the jump prior is part of the model and always on; a_phi and b_phi set it"),
) for key in keys}


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
    shape: str                      # "ellipse", the one shape
    value: float                    # log-modulus inside the shape
    center: list[float] = field(default_factory=list)
    radii: list[float] = field(default_factory=list)


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
    snr: float = 1e5                # power ratio mean(y^2)/sigma^2
    seed: int = 0


@dataclass
class DriverConfig:
    """The `solver` block: basis growth, the noise prior and the mean phase's limits."""
    lambda0_1: float = 1e-10
    info_gain_threshold: float = 0.01
    info_gain_window: int = 5
    max_bases: int | None = None
    seed: int = 0                   # unused: nothing is drawn; kept so configs load
    a0: float = 0.0
    b0: float = 0.0
    mu_reg_delay: int = 5
    mu_call_budget: int | None = 38

    def validate(self) -> None:
        if not 0.0 < self.info_gain_threshold < 1.0:
            raise ConfigError("solver.info_gain_threshold must lie in (0, 1)")
        if self.info_gain_window < 1:
            raise ConfigError("solver.info_gain_window must be >= 1")
        if self.lambda0_1 <= 0.0:
            raise ConfigError("solver.lambda0_1 must be positive")
        if self.max_bases is not None and self.max_bases < 0:
            raise ConfigError("solver.max_bases must be nonnegative")
        for key in ("a0", "b0"):        # Gamma(a0, b0) noise prior; 0 is improper
            if not getattr(self, key) >= 0.0:
                raise ConfigError(f"solver.{key} must be nonnegative")
        for key in ("mu_reg_delay", "mu_call_budget"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ConfigError(f"solver.{key} must be nonnegative, got {value}")


@dataclass
class ClampBlock:
    """Elements excluded from inversion, held at a fixed log-modulus."""
    top_element_rows: int = 0
    value: float = 0.0


@dataclass
class PriorBlock:
    """Gamma(a_phi, b_phi) prior on each neighbor pair's jump precision."""
    a_phi: float = 0.0
    b_phi: float = 0.0


@dataclass
class ValidationBlock:
    samples: int = 1000
    seed: int = 0


@dataclass
class OutputBlock:
    directory: str = "out"


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
        for key in ("nx", "ny", "lx", "ly"):
            if not getattr(m, key) > 0:
                raise ConfigError(f"mesh.{key} must be positive, got {getattr(m, key)!r}")
        if not 0.0 <= m.poisson < 0.5:
            raise ConfigError(f"mesh.poisson {m.poisson} outside [0, 0.5)")
        # the reader refuses inf, but a RunConfig edited in code may hold it
        if not 0 < self.noise.snr < math.inf:
            raise ConfigError(f"noise.snr must be finite and positive, "
                              f"got {self.noise.snr!r}")
        for key in ("noise", "validation"):
            seed = getattr(self, key).seed
            if seed < 0:
                raise ConfigError(f"{key}.seed must be nonnegative, got {seed}")
        for key in ("a_phi", "b_phi"):      # Gamma shape and rate; 0 is improper
            if not (value := getattr(self.prior, key)) >= 0.0:
                raise ConfigError(f"prior.{key} must be nonnegative, got {value!r}")
        for i, inc in enumerate(self.phantom.inclusions):
            self._validate_inclusion(inc, f"phantom.inclusions[{i}]")
        for i, cond in enumerate(self.bc.dirichlet):
            if cond.edge not in _EDGES:
                raise ConfigError(f"bc.dirichlet[{i}].edge: unknown edge {cond.edge!r}; "
                                  f"expected one of {_EDGES}")
            if cond.ux is None and cond.uy is None:
                raise ConfigError(f"bc.dirichlet[{i}]: edge {cond.edge!r} prescribes no component")
        for i, load in enumerate(self.bc.loads):
            if len(load.node) != 2:
                raise ConfigError(f"bc.loads[{i}].node must be [ix, iy]")
            ix, iy = load.node
            if not (0 <= ix <= m.nx and 0 <= iy <= m.ny):
                raise ConfigError(f"bc.loads[{i}].node {load.node} outside the grid")
        if not self.bc.dirichlet:
            raise ConfigError("bc.dirichlet: at least one Dirichlet edge is required")
        if not 0 <= self.clamp.top_element_rows < m.ny:    # one free row at least
            raise ConfigError(f"clamp.top_element_rows {self.clamp.top_element_rows} "
                              f"outside [0, ny) = [0, {m.ny})")
        if self.clamp.top_element_rows == 0 and not any(
                load.fx or load.fy for load in self.bc.loads):
            raise ConfigError("clamp.top_element_rows 0 needs a point load with a nonzero "
                              "component: prescribed displacements alone fix the moduli "
                              "only up to a common factor")
        if self.validation.samples < 2:
            raise ConfigError("validation.samples must be >= 2")
        self.solver.validate()

    def _validate_inclusion(self, inc: Inclusion, where: str) -> None:
        m = self.mesh
        if inc.shape != "ellipse":
            raise ConfigError(f"{where}.shape: unknown inclusion shape {inc.shape!r}; "
                              "the one shape is 'ellipse'")
        if len(inc.center) != 2 or len(inc.radii) != 2:
            raise ConfigError(f"{where}: ellipse needs center [cx, cy] and radii [rx, ry]")
        (cx, cy), (rx, ry) = inc.center, inc.radii
        if rx <= 0 or ry <= 0:
            raise ConfigError(f"{where}.radii: ellipse radii must be positive")
        if cx - rx < 0 or cx + rx > m.lx or cy - ry < 0 or cy + ry > m.ly:
            raise ConfigError(f"{where}: ellipse extends outside the domain")

    def to_dict(self) -> dict:
        return asdict(self)


def parse_block(cls, raw, where: str = ""):
    """Build dataclass `cls` from the mapping `raw`, converting each key as its
    field is annotated.  `where` is the dotted path of `raw` in its file.

    An absent key, or a null block or list, takes the field's default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config root'} must be a mapping, got {raw!r}")
    hints = typing.get_type_hints(cls)
    _check_keys(raw, set(hints), where or "config")
    values = {}
    for f in fields(cls):
        path, hint, value = f"{where}.{f.name}".lstrip("."), hints[f.name], raw.get(f.name)
        if value is None and (f.name not in raw or is_dataclass(hint)
                              or typing.get_origin(hint) is list):
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path} is required")
            continue
        values[f.name] = _convert(hint, value, path)
    return cls(**values)


def _convert(hint, value, where: str):
    if is_dataclass(hint):
        return parse_block(hint, value, where)
    args = typing.get_args(hint)
    if type(None) in args:                          # X | None: null is the value
        (inner,) = set(args) - {type(None)}
        return None if value is None else _convert(inner, value, where)
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_convert(args[0], item, f"{where}[{i}]") for i, item in enumerate(value)]
    return _SCALARS[hint](value, where)


def config_from_dict(raw: dict) -> RunConfig:
    cfg = parse_block(RunConfig, raw)
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
    iy = 0 if edge == "bottom" else mesh.ny          # "top"
    return [mesh.node_index(ix, iy) for ix in range(mesh.nx + 1)]


def build_bc(cfg: RunConfig, mesh: Mesh2D) -> BoundarySpec:
    """The edges' Dirichlet values and the point loads.  A dof that two edges
    prescribe must get one value, and a load must act on a free dof."""
    values: dict[int, float] = {}
    for i, cond in enumerate(cfg.bc.dirichlet):
        for node in _edge_nodes(mesh, cond.edge):
            for comp, dof, val in (("ux", 2 * node, cond.ux), ("uy", 2 * node + 1, cond.uy)):
                if val is None:
                    continue
                if dof in values and values[dof] != val:
                    raise ConfigError(
                        f"bc.dirichlet[{i}].{comp}: {val} at dof {dof} conflicts with "
                        f"{values[dof]} from an earlier edge")
                values[dof] = val
    tractions = []
    for i, load in enumerate(cfg.bc.loads):
        node = mesh.node_index(load.node[0], load.node[1])
        for comp, dof, val in (("fx", 2 * node, load.fx), ("fy", 2 * node + 1, load.fy)):
            if not val:
                continue
            if dof in values:
                raise ConfigError(f"bc.loads[{i}].{comp}: bc.dirichlet prescribes this "
                                  f"component at node {load.node}; a load needs a free dof")
            tractions.append((dof, val))
    return BoundarySpec(dirichlet=sorted(values.items()), tractions=tractions)


def build_phantom(cfg: RunConfig, mesh: Mesh2D) -> np.ndarray:
    """Per-element log-modulus field; later inclusions overwrite earlier ones."""
    centers = mesh.element_centers()
    psi = np.full(mesh.n_elems, cfg.phantom.background, dtype=float)
    for inc in cfg.phantom.inclusions:
        (cx, cy), (rx, ry) = inc.center, inc.radii
        inside = (((centers[:, 0] - cx) / rx) ** 2
                  + ((centers[:, 1] - cy) / ry) ** 2) <= 1.0
        psi[inside] = inc.value
    return psi


def clamp_mask(cfg: RunConfig, mesh: Mesh2D) -> np.ndarray:
    """Boolean mask of elements excluded from the inversion."""
    mask = np.zeros(mesh.n_elems, dtype=bool)
    rows = cfg.clamp.top_element_rows
    if rows > 0:
        mask[(mesh.ny - rows) * mesh.nx:] = True
    return mask


def build_model(cfg: RunConfig
                ) -> tuple[FemForwardModel, Mesh2D, BoundarySpec, np.ndarray, np.ndarray]:
    """Forward model observing every free dof, plus its building blocks.

    Returns (model, mesh, bc, obs_dofs, clamp mask); the last two are the
    model's own `obs_dofs` and `fixed_mask`.
    """
    mesh = build_mesh(cfg)
    bc = build_bc(cfg, mesh)
    model = FemForwardModel(mesh, bc, fixed_mask=clamp_mask(cfg, mesh),
                            poisson=cfg.mesh.poisson)
    return model, mesh, bc, model.obs_dofs, model.fixed_mask


def initial_mu(cfg: RunConfig, mesh: Mesh2D) -> np.ndarray:
    mu = np.full(mesh.n_elems, cfg.mu0, dtype=float)
    mu[clamp_mask(cfg, mesh)] = cfg.clamp.value
    return mu


# ---------------------------------------------------------------------------
# Observations


@dataclass
class ObservationFile:
    """Synthetic observations and the noise precision that generated them.

    tau_true is finite and positive, and is never consumed by the inversion
    itself.  The noise-free response is `displacement.csv` at `obs_dofs`,
    and the seed and SNR are the noise block of the run's `config.yaml`.
    """
    obs_dofs: np.ndarray
    yhat: np.ndarray
    tau_true: float

    def __post_init__(self) -> None:
        self.obs_dofs = np.asarray(self.obs_dofs, dtype=int)
        self.yhat = np.asarray(self.yhat, dtype=float)
        if self.obs_dofs.size != self.yhat.size:
            raise ConfigError("observation file length mismatch")
        if not 0 < self.tau_true < math.inf:
            raise ConfigError(f"tau_true must be finite and positive, "
                              f"got {self.tau_true!r}")

    def to_dict(self) -> dict:
        return {"obs_dofs": self.obs_dofs.tolist(), "yhat": self.yhat.tolist(),
                "tau_true": self.tau_true}

    @classmethod
    def from_dict(cls, d: dict) -> "ObservationFile":
        """Read with the config reader's rules; a missing key raises KeyError."""
        _check_keys(d, {"obs_dofs", "yhat", "tau_true"}, "observations")
        return cls(obs_dofs=_convert(list[int], d["obs_dofs"], "obs_dofs"),
                   yhat=_convert(list[float], d["yhat"], "yhat"),
                   tau_true=as_float(d["tau_true"], "tau_true"))


def generate_data(cfg: RunConfig) -> tuple[ObservationFile, np.ndarray, np.ndarray]:
    """Solve the phantom forward problem and add noise at the target SNR.

    Noise is i.i.d. Gaussian with sigma^2 = mean(y^2)/snr, so tau_true =
    snr/mean(y^2).  The phantom is solved with the plan of `build_model`'s
    model, uncounted, and observed at its dofs.  Returns (observations, true
    field, full displacement).
    """
    model, mesh, _, obs, _ = build_model(cfg)
    psi_true = build_phantom(cfg, mesh)
    U = _solve_reduced(model.plan, psi_true).U
    y = U[obs]
    sigma2 = float(np.mean(y ** 2)) / cfg.noise.snr
    if sigma2 == 0.0:
        raise ConfigError("noise.snr: the observed response is identically zero, "
                          "so no noise level has this SNR")
    rng = np.random.default_rng(cfg.noise.seed)
    yhat = y + rng.normal(0.0, math.sqrt(sigma2), size=y.shape)
    return ObservationFile(obs_dofs=obs, yhat=yhat, tau_true=1.0 / sigma2), psi_true, U
