"""Command-line front end: generate, invert, validate, report.

The four verbs compose through files in the output directory:

    elastovb generate --config run.yaml --out DIR        # observations + truth
    elastovb invert   --config run.yaml --out DIR        # posterior + traces
    elastovb validate --config run.yaml --out DIR        # importance sampling
    elastovb report   --out DIR                          # human-readable summary

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.

This module owns every artifact: its name, its format and its schema
version.  One writer stamps `schema_version` on each JSON file, one writer
formats every CSV, and one reader refuses a JSON file of another version.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from collections.abc import Callable, Iterable
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError, ObservationFile, RunConfig, as_float, as_int
from .driver import run as driver_run, state_from_dict
from .forward import ForwardSolveError
from .importance import DegenerateWeightsError, compare_vb_is, run_is
from .mean_update import SmoothPrior
from .mesh_fem import Mesh2D
from .vb import NoisePrecisionError, posterior_psi_stats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

# A stage's numerical failures, each raised where it is detected; any other
# exception is a bug and propagates with its traceback
NUMERICAL_FAILURES = (ForwardSolveError, NoisePrecisionError, DegenerateWeightsError,
                      np.linalg.LinAlgError)

SCHEMA_VERSION = 4        # of every JSON artifact
FLOAT_FMT = "%.17g"       # every float in a CSV: 17 digits round-trip losslessly

OBS_FILE = "observations.json"
TRUE_FIELD_FILE = "true_field.csv"
DISPLACEMENT_FILE = "displacement.csv"
CONFIG_FILE = "config.yaml"
TRACE_FILE = "run_trace.json"
MEAN_FILE = "posterior_mean.csv"
STD_FILE = "posterior_std.csv"
LAMBDA_FILE = "lambda_table.csv"
ELBO_FILE = "elbo_trace.csv"
GAIN_FILE = "info_gain.csv"
IS_FILE = "is_report.json"
IS_WEIGHTS_FILE = "is_weights.csv"
IS_MEAN_FILE = "is_mean.csv"
IS_STD_FILE = "is_std.csv"
ERROR_FILE = "error.json"

# What each stage writes; a stage that runs again removes its own and every
# later stage's files first, so no artifact outlives the inputs it came from
GENERATE_FILES = (OBS_FILE, TRUE_FIELD_FILE, DISPLACEMENT_FILE, CONFIG_FILE)
INVERT_FILES = (TRACE_FILE, MEAN_FILE, STD_FILE, LAMBDA_FILE, ELBO_FILE, GAIN_FILE)
VALIDATE_FILES = (IS_FILE, IS_WEIGHTS_FILE, IS_MEAN_FILE, IS_STD_FILE)

# The note `report` adds to its mu_phase line for each way the mean phase ends
# (`MuPhaseResult.stop_reason`); a converged phase gets none
MU_STOP_NOTES = {"gain_tolerance": None, "no_acceptable_trial": "no trial accepted",
                 "call_budget": "call budget used up", "max_steps": "step cap reached"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; remap to the documented 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="elastovb",
                     description="Subspace variational inference for elastography")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, help_: str, needs_config: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if needs_config:
            p.add_argument("--config", required=True, metavar="PATH",
                           help="YAML run configuration")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: output.directory from config)")
        return p

    g = add("generate", "synthesize noisy observations from the phantom")
    g.add_argument("--seed", type=int, default=None, help="override noise seed")
    add("invert", "run the adaptive subspace inversion")
    add("validate", "importance-sample the converged posterior")
    add("report", "summarize artifacts in the output directory", needs_config=False)
    return parser


def _out_dir(args, cfg: RunConfig | None) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg is not None:
        return Path(cfg.output.directory)
    raise UsageError("--out is required when no config is given")


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _read_json(path: Path, what: str, parse: Callable[[dict], object]):
    """`parse` of the JSON artifact at `path`, a `what` of this schema version,
    given the payload without its `schema_version`.  An unreadable file, another
    schema version or a payload that `parse` refuses (KeyError, IndexError,
    TypeError, ValueError) raises UsageError naming the file.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:    # a directory, say, or malformed JSON
        raise UsageError(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"unreadable {what} {path}: root must be a mapping")
    version = payload.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise UsageError(f"unreadable {what} {path}: schema_version {version!r}, but this "
                         f"version of elastovb reads {SCHEMA_VERSION}; rerun the stage "
                         "that writes it")
    try:
        return parse(payload)
    except KeyError as exc:
        raise UsageError(f"unreadable {what} {path}: missing key {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"unreadable {what} {path}: {exc}") from exc


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(x) if isinstance(x, float) else x for x in row]
                         for row in rows)


def _write_field(path: Path, mesh: Mesh2D, values: np.ndarray) -> None:
    """One row per element, in element order ey*nx + ex."""
    _write_csv(path, ["elem_ix", "elem_iy", "value"],
               ([k % mesh.nx, k // mesh.nx, v] for k, v in enumerate(values)))


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _remove_stale(out: Path, names: tuple[str, ...]) -> None:
    for name in names + (ERROR_FILE,):
        path = out / name
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:    # a directory in its place, say
            raise UsageError(f"cannot remove stale artifact {path}: {exc}") from exc


def _numerical_failure(out: Path, stage: str, exc: Exception, calls: int) -> int:
    """Record a stage's numerical failure in error.json and on stderr."""
    _write_json(out / ERROR_FILE, {"stage": stage, "error": str(exc),
                                   "type": type(exc).__name__, "forward_calls": calls})
    noun = {"invert": "inversion", "validate": "validation"}[stage]
    print(f"{noun} failed after {calls} forward calls: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_generate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    if args.seed is not None:
        cfg.noise.seed = args.seed
        cfg.validate()
    out = _out_dir(args, cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:    # a file in its place, say
        raise UsageError(f"cannot create output directory {out}: {exc}") from exc
    _remove_stale(out, GENERATE_FILES + INVERT_FILES + VALIDATE_FILES)
    try:
        obs, psi_true, U = cfgmod.generate_data(cfg)
    except ForwardSolveError as exc:
        print(f"forward solve failed on the phantom: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    mesh = cfgmod.build_mesh(cfg)
    _write_json(out / OBS_FILE, obs.to_dict())
    _write_field(out / TRUE_FIELD_FILE, mesh, psi_true)
    _write_csv(out / DISPLACEMENT_FILE, ["node_ix", "node_iy", "ux", "uy"],
               ([n % (mesh.nx + 1), n // (mesh.nx + 1), ux, uy]
                for n, (ux, uy) in enumerate(U.reshape(-1, 2))))
    cfgmod.save_config(cfg, out / CONFIG_FILE)
    print(f"wrote {obs.yhat.size} observations to {out / OBS_FILE}")
    print(f"tau_true: {_fmt(obs.tau_true)}")
    return EXIT_OK


def _stage_inputs(args, inputs: tuple[str, ...]):
    """The config, output directory, observations, configured model and mesh
    of a stage that needs the files `inputs` in the output directory.

    A missing input, or observations at other dofs than the model observes,
    raises UsageError.
    """
    cfg = cfgmod.load_config(args.config)
    out = _out_dir(args, cfg)
    for name in inputs:
        if not (out / name).exists():
            raise UsageError(f"missing {out / name}; run the earlier stages first")
    obs = _read_json(out / OBS_FILE, "observations", ObservationFile.from_dict)
    model, mesh, _, _, _ = cfgmod.build_model(cfg)
    if not np.array_equal(obs.obs_dofs, model.obs_dofs):
        raise UsageError("observation file does not match the configured mesh/bc")
    return cfg, out, obs, model, mesh


def cmd_invert(args) -> int:
    cfg, out, obs, model, mesh = _stage_inputs(args, (OBS_FILE,))
    prior = SmoothPrior.for_grid(mesh.nx, mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
    mu0 = cfgmod.initial_mu(cfg, mesh)
    _remove_stale(out, INVERT_FILES + VALIDATE_FILES)

    t0 = time.perf_counter()
    try:
        trace = driver_run(model, obs.yhat, cfg.solver, prior=prior, mu0=mu0)
    except NUMERICAL_FAILURES as exc:
        return _numerical_failure(out, "invert", exc, model.calls)
    wall = time.perf_counter() - t0

    payload = trace.to_dict()
    payload["wall_time_s"] = wall
    _write_json(out / TRACE_FILE, payload)

    mean, std = posterior_psi_stats(trace.state)
    _write_field(out / MEAN_FILE, mesh, mean)
    _write_field(out / STD_FILE, mesh, std)
    _write_csv(out / LAMBDA_FILE, ["index", "lambda0", "lambda"],
               ([i, l0, l] for i, (l0, l) in
                enumerate(zip(trace.state.lambda0, trace.state.lam), start=1)))
    _write_csv(out / ELBO_FILE, list(trace.elbo_rows[0]),
               (list(r.values()) for r in trace.elbo_rows))
    _write_csv(out / GAIN_FILE, ["d_theta", "info_gain", "degenerate", "elbo"],
               ([r.d_theta, r.info_gain, int(r.gain_degenerate), row["f"]]
                for r, row in zip(trace.records, trace.elbo_rows[1:])))
    print(f"d_theta: {trace.state.d_theta}")
    print(f"forward_calls: {trace.forward_calls}")
    print(f"stop_reason: {trace.stop_reason}")
    print(f"elbo: {_fmt(trace.elbo_rows[-1]['f'])}")
    print(f"wall_time_s: {wall:.2f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg, out, obs, model, mesh = _stage_inputs(args, (OBS_FILE, TRACE_FILE))
    state, clamped = _read_json(out / TRACE_FILE, "run trace", state_from_dict)
    if state.d_psi != model.d_psi:
        raise UsageError("run trace does not match the configured mesh/bc")
    if not np.array_equal(clamped, model.fixed_mask):
        raise UsageError(f"run trace was inverted with elements "
                         f"{np.flatnonzero(clamped).tolist()} clamped; the config clamps "
                         f"{np.flatnonzero(model.fixed_mask).tolist()}")
    M, seed = cfg.validation.samples, cfg.validation.seed
    _remove_stale(out, VALIDATE_FILES)

    try:
        report = run_is(state, model, obs.yhat, M=M, seed=seed)
        comparison = compare_vb_is(state, report, free_mask=~model.fixed_mask)
    except NUMERICAL_FAILURES as exc:
        return _numerical_failure(out, "validate", exc, model.calls)
    payload = {
        "M": report.M,
        "seed": seed,
        "ess": report.ess,
        "log_evidence": report.log_evidence,
        "evidence_constant_included": report.evidence_constant_included,
        "discarded": report.discarded,
        "forward_calls": report.M,
        "mean_rel_max": comparison["mean_rel_max"],
        "mean_rel_median": comparison["mean_rel_median"],
        "std_rel_max": comparison["std_rel_max"],
        "std_rel_median": comparison["std_rel_median"],
    }
    _write_json(out / IS_FILE, payload)
    _write_csv(out / IS_WEIGHTS_FILE, ["index", "weight"],
               ([i, w] for i, w in enumerate(report.weights)))
    _write_field(out / IS_MEAN_FILE, mesh, report.psi_mean)
    _write_field(out / IS_STD_FILE, mesh, report.psi_std)
    print(f"ess: {_fmt(report.ess)}")
    print(f"discarded: {report.discarded}")
    print(f"mean_rel_median: {_fmt(comparison['mean_rel_median'])}")
    return EXIT_OK


def _trace_summary(payload: dict) -> tuple[list[str], float]:
    state, _ = state_from_dict(payload)
    mu = payload["mu_phase"]
    calls = as_int(payload["forward_calls"], "forward_calls")
    jacobians = as_int(mu["jacobians"], "mu_phase.jacobians")
    elbo = as_float(payload["elbo_rows"][-1]["f"], "elbo_rows[-1].f")
    steps = mu["steps"]
    reason = mu["stop_reason"]
    if reason not in MU_STOP_NOTES:
        raise ValueError(f"mu_phase stop_reason {reason!r} is none of {sorted(MU_STOP_NOTES)}")
    notes = [MU_STOP_NOTES[reason]] if MU_STOP_NOTES[reason] else []
    if not any(st["regularization_active"] for st in steps):
        notes.append("no step ran with the jump prior on")
    return [
        f"d_theta: {state.d_theta}",
        f"forward_calls: {calls} ({jacobians} with a Jacobian)",
        f"stop_reason: {payload['stop_reason']}",
        f"elbo: {_fmt(elbo)}",
        f"tau_mean: {_fmt(state.mean_tau)}",
        f"mu_phase: {sum(st['accepted'] for st in steps)} accepted steps, "
        f"{sum(st['forward_calls'] - st['accepted'] for st in steps)} trials not accepted "
        f"({sum(st['failed'] for st in steps)} failed), "
        f"{sum(st['corrected'] for st in steps)} corrector steps"
        + (f" ({'; '.join(notes)})" if notes else ""),
    ], state.mean_tau


def _obs_summary(payload: dict, tau_mean: float | None) -> tuple[list[str], None]:
    tau_true = ObservationFile.from_dict(payload).tau_true
    lines = [f"tau_true: {_fmt(tau_true)}"]
    if tau_mean is not None:
        lines.append(f"tau_ratio: {_fmt(tau_mean / tau_true)}")
    return lines, None


def _is_summary(payload: dict) -> tuple[list[str], None]:
    return [f"{key}: {_fmt(as_float(payload[key], key))}"
            for key in ("ess", "mean_rel_median")], None


def cmd_report(args) -> int:
    out = _out_dir(args, None)
    if not out.is_dir():
        raise UsageError(f"output directory {out} does not exist")
    missing: list[str] = []
    lines: list[str] = []

    def summary(name: str, what: str, parse: Callable[[dict], tuple[list[str], object]]):
        """Print the lines of `parse` and return its value; a missing file is
        listed, and an unreadable one prints one line and returns None."""
        if not (out / name).exists():
            missing.append(name)
            return None
        try:
            more, value = _read_json(out / name, what, parse)
        except UsageError as exc:
            lines.append(str(exc))
            return None
        lines.extend(more)
        return value

    tau_mean = summary(TRACE_FILE, "run trace", _trace_summary)
    summary(OBS_FILE, "observations", lambda payload: _obs_summary(payload, tau_mean))
    summary(IS_FILE, "IS report", _is_summary)

    for line in lines:
        print(line)
    if missing:
        print("missing: " + ", ".join(missing))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        handler = {"generate": cmd_generate, "invert": cmd_invert,
                   "validate": cmd_validate, "report": cmd_report}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"elastovb: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"elastovb: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
