"""Run configuration and phantom synthesis.

A run is described by one YAML file with nested blocks (mesh, phantom, bc,
noise, solver, clamp, prior, validation, output), each a dataclass.  One
reader builds them from the dataclass fields: every key is converted as its
field is annotated (integers must be integral, booleans true or false,
strings strings, and only an `X | None` field takes null), an absent key or a
null block or list takes the field's default, and every error names the
dotted key, e.g. `phantom.inclusions[0].center[1]`.  Defaults and rules on
one value live only on the dataclass fields (`rule`), and rules that relate
values in the `validate` methods.  The same rules read `observations.json`
and every block of the run trace back, and one writer, `to_plain`, turns any
of these records back into the plain data the reader takes.

The module also reads and writes the YAML config, builds the
mesh/boundary/phantom objects from it and synthesizes the observations;
`cli` owns the JSON and CSV artifacts and their format.
"""

from __future__ import annotations

import math
import operator
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

from .forward import FemForwardModel
from .mesh_fem import BoundarySpec, Mesh2D, _solve_reduced


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; reported as a usage error."""


# a rule's bounds: how each is met, and how a message states it
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "lt": (operator.lt, "<"),
           "one_of": (lambda value, choices: value in choices, "one of")}


def rule(default=MISSING, *, why: str = "", **bounds):
    """A dataclass field whose value meets each of `bounds`: `ge`, `gt`, `lt`, `one_of`."""
    return field(default=default, metadata={"rule": bounds, "why": why})


def rule_text(f) -> str:
    """Field `f`'s rule as a message states it, e.g. `>= 0 and < 0.5`."""
    return " and ".join(f"{_BOUNDS[key][1]} {bound!r}" for key, bound in f.metadata["rule"].items())


def check_rules(record, where: str = "", deep: bool = False) -> None:
    """Refuse a field of `record` that breaks its `rule`, naming its dotted key
    under `where`; a null value breaks none.  With `deep`, the records held in
    its fields are checked too, as a record built or edited in code needs."""
    for f in fields(record):
        value, path = getattr(record, f.name), f"{where}.{f.name}".lstrip(".")
        if deep and is_dataclass(value):
            check_rules(value, path, deep)
        for i, item in enumerate(value if deep and isinstance(value, list) else ()):
            if is_dataclass(item):
                check_rules(item, f"{path}[{i}]", deep)
        if "rule" in f.metadata and value is not None and not all(
                _BOUNDS[key][0](value, bound) for key, bound in f.metadata["rule"].items()):
            why = f" ({f.metadata['why']})" if f.metadata["why"] else ""
            hint = typing.get_type_hints(type(record))[f.name]
            null = " or null" if type(None) in typing.get_args(hint) else ""
            raise ConfigError(f"{path} must be {rule_text(f)}{why}{null}, got {value!r}")


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(block) - allowed, key=str)
    removed = [f"{where}.{key}" for key in extra if f"{where}.{key}" in _REMOVED_KEYS]
    if removed:
        raise ConfigError(f"{removed[0]} was removed: {_REMOVED_KEYS[removed[0]]}; "
                          "delete the key")
    if extra:
        raise ConfigError(f"unknown keys in {where}: {extra}" if where
                          else f"unknown top-level keys: {extra}")


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


def _as_bool(value, where: str) -> bool:
    if isinstance(value, bool):        # not 0 or 1
        return value
    raise ConfigError(f"{where} must be true or false, got {value!r}")


def _as_array(value, where: str) -> np.ndarray:     # a ragged nesting raises ValueError
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return np.array([(_as_array if isinstance(item, list) else as_float)(item, f"{where}[{i}]")
                     for i, item in enumerate(value)])


_SCALARS = {int: as_int, float: as_float, str: _as_str, bool: _as_bool, np.ndarray: _as_array}

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
    nx: int = rule(gt=0)
    ny: int = rule(gt=0)
    lx: float = rule(gt=0)
    ly: float = rule(gt=0)
    poisson: float = rule(0.0, ge=0, lt=0.5, why="0.5 is incompressible")


@dataclass
class Inclusion:
    """One phantom inclusion; membership is decided at element centers."""
    shape: str = rule(one_of=("ellipse",))
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
    edge: str = rule(one_of=("bottom", "top"))
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
    snr: float = rule(1e5, gt=0, lt=math.inf)       # power ratio mean(y^2)/sigma^2
    seed: int = rule(0, ge=0)


@dataclass
class DriverConfig:
    """The `solver` block: basis growth, the noise prior and the mean phase's limits."""
    lambda0_1: float = rule(1e-10, gt=0)
    info_gain_threshold: float = rule(0.01, gt=0, lt=1)
    info_gain_window: int = rule(5, ge=1, why="a window of 0 stages stops growth on no evidence")
    max_bases: int | None = rule(None, ge=0)
    seed: int = 0                   # unused: nothing is drawn; kept so configs load
    a0: float = rule(0.0, ge=0, why="the noise prior's Gamma shape; 0 is improper")
    b0: float = rule(0.0, ge=0, why="the noise prior's Gamma rate; 0 is improper")
    mu_reg_delay: int = rule(5, ge=0)
    mu_call_budget: int | None = rule(38, ge=1, why="the first evaluation is one call")

    def validate(self) -> None:
        check_rules(self, "solver")


@dataclass
class ClampBlock:
    """Elements excluded from inversion, held at a fixed log-modulus."""
    top_element_rows: int = rule(0, ge=0)
    value: float = 0.0


@dataclass
class PriorBlock:
    """Gamma(a_phi, b_phi) prior on each neighbor pair's jump precision."""
    a_phi: float = rule(0.0, ge=0, why="the jump prior's Gamma shape; 0 is improper")
    b_phi: float = rule(0.0, ge=0, why="the jump prior's Gamma rate; 0 is improper")


@dataclass
class ValidationBlock:
    samples: int = rule(1000, ge=2)
    seed: int = rule(0, ge=0)


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
        check_rules(self, deep=True)    # a RunConfig edited in code may break any rule
        m = self.mesh
        for i, inc in enumerate(self.phantom.inclusions):
            where = f"phantom.inclusions[{i}]"
            if len(inc.center) != 2 or len(inc.radii) != 2:
                raise ConfigError(f"{where}: ellipse needs center [cx, cy] and radii [rx, ry]")
            (cx, cy), (rx, ry) = inc.center, inc.radii
            if rx <= 0 or ry <= 0:
                raise ConfigError(f"{where}.radii: ellipse radii must be positive")
            if cx - rx < 0 or cx + rx > m.lx or cy - ry < 0 or cy + ry > m.ly:
                raise ConfigError(f"{where}: ellipse extends outside the domain")
        for i, cond in enumerate(self.bc.dirichlet):
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
        if not self.clamp.top_element_rows < m.ny:    # one free row at least
            raise ConfigError(f"clamp.top_element_rows {self.clamp.top_element_rows} "
                              f"outside [0, ny) = [0, {m.ny})")
        if self.clamp.top_element_rows == 0 and not any(
                load.fx or load.fy for load in self.bc.loads):
            raise ConfigError("clamp.top_element_rows 0 needs a point load with a nonzero "
                              "component: prescribed displacements alone fix the moduli "
                              "only up to a common factor")


def parse_block(cls, raw, where: str = ""):
    """Build dataclass `cls` from the mapping `raw`, converting each key as its
    field is annotated.  `where` is the dotted path of `raw` in its file, empty
    at the top level.

    An absent key, or a null block or list, takes the field's default; `cls`'s
    own ValueError is reported at `where`, and at the top level as it stands.
    Its field rules are checked once, here: its blocks checked theirs."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config root'} must be a mapping, got {raw!r}")
    hints = typing.get_type_hints(cls)
    _check_keys(raw, set(hints), where)
    values = {}
    for f in fields(cls):
        path, hint, value = f"{where}.{f.name}".lstrip("."), hints[f.name], raw.get(f.name)
        if value is None and (f.name not in raw or is_dataclass(hint)
                              or typing.get_origin(hint) is list):
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path} is required")
            continue
        values[f.name] = _convert(hint, value, path)
    try:
        record = cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc
    check_rules(record, where)
    return record


def to_plain(record) -> dict:
    """`parse_block`'s inverse: the record's fields as plain data, arrays as lists."""
    return asdict(record, dict_factory=lambda items: {
        key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in items})


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
    Path(path).write_text(yaml.safe_dump(to_plain(cfg), sort_keys=True,
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
    mask[(mesh.ny - cfg.clamp.top_element_rows) * mesh.nx:] = True
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

    tau_true is never consumed by the inversion itself.  The noise-free
    response is `displacement.csv` at `obs_dofs`, and the seed and SNR are the
    noise block of the run's `config.yaml`.  Both lists are read as lists, so
    a dof must be integral, and are held as arrays.
    """
    obs_dofs: list[int]
    yhat: list[float]
    tau_true: float = rule(gt=0, lt=math.inf)

    def __post_init__(self) -> None:
        self.obs_dofs = np.asarray(self.obs_dofs, dtype=int)
        self.yhat = np.asarray(self.yhat, dtype=float)
        if self.obs_dofs.size != self.yhat.size:
            raise ConfigError("observation file length mismatch")
        check_rules(self)               # one built in code, too


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
