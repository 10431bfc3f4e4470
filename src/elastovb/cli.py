"""Command-line front end: generate, invert, validate, report.

The four verbs compose through files in the output directory:

    elastovb generate --config run.yaml --out DIR        # observations + truth
    elastovb invert   --config run.yaml --out DIR        # posterior + traces
    elastovb validate --config run.yaml --out DIR        # importance sampling
    elastovb report   --out DIR                          # human-readable summary

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError, ObservationFile, RunConfig
from .driver import SCHEMA_VERSION, run as driver_run, state_from_dict
from .forward import FemForwardModel, ForwardSolveError
from .importance import compare_vb_is, run_is
from .mean_update import SmoothPrior
from .vb import posterior_psi_stats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

# A stage's numerical failures: ForwardSolveError and the q(tau) fit's
# failures are RuntimeErrors, and numpy raises the other two
NUMERICAL_FAILURES = (RuntimeError, FloatingPointError, np.linalg.LinAlgError)

OBS_FILE = "observations.json"
TRUE_FIELD_FILE = "true_field.csv"
DISPLACEMENT_FILE = "displacement.csv"
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
INVERT_FILES = (TRACE_FILE, MEAN_FILE, STD_FILE, LAMBDA_FILE, ELBO_FILE, GAIN_FILE)
VALIDATE_FILES = (IS_FILE, IS_WEIGHTS_FILE, IS_MEAN_FILE, IS_STD_FILE)


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
    g.add_argument("--snr", type=float, default=None,
                   help="override target SNR (a number, or 'inf' for exact data)")

    i = add("invert", "run the adaptive subspace inversion")
    i.add_argument("--max-bases", type=int, default=None,
                   help="override the basis-count cap")

    v = add("validate", "importance-sample the converged posterior")
    v.add_argument("--seed", type=int, default=None, help="override sampling seed")
    v.add_argument("--samples", type=int, default=None,
                   help="number of importance samples")

    add("report", "summarize artifacts in the output directory", needs_config=False)
    return parser


def _out_dir(args, cfg: RunConfig | None) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg is not None:
        return Path(cfg.output.directory)
    raise UsageError("--out is required when no config is given")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return cfgmod.FLOAT_FMT % x


def _remove_stale(out: Path, names: tuple[str, ...]) -> None:
    for name in names + (ERROR_FILE,):
        (out / name).unlink(missing_ok=True)


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
    if args.snr is not None:
        cfg.noise.snr = args.snr
    cfg.validate()
    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    try:
        obs, psi_true, U = cfgmod.generate_data(cfg)
    except ForwardSolveError as exc:
        print(f"forward solve failed on the phantom: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    mesh = cfgmod.build_mesh(cfg)
    _remove_stale(out, INVERT_FILES + VALIDATE_FILES)
    obs.save(out / OBS_FILE)
    cfgmod.write_element_field(out / TRUE_FIELD_FILE, mesh, psi_true)
    cfgmod.write_node_displacements(out / DISPLACEMENT_FILE, mesh, U)
    cfgmod.save_config(cfg, out / "config.yaml")
    tau = "inf" if math.isinf(obs.tau_true) else _fmt(obs.tau_true)
    print(f"wrote {obs.d_y} observations to {out / OBS_FILE}")
    print(f"tau_true: {tau}")
    return EXIT_OK


def _check_observed_dofs(obs: ObservationFile, model: FemForwardModel) -> None:
    """Observations are usable only at the dofs the configured model observes."""
    if obs.d_y != model.d_y or not np.array_equal(obs.obs_dofs, model.obs_dofs):
        raise UsageError("observation file does not match the configured mesh/bc")


def cmd_invert(args) -> int:
    cfg = cfgmod.load_config(args.config)
    if args.max_bases is not None:
        cfg.solver.max_bases = args.max_bases
    cfg.validate()
    out = _out_dir(args, cfg)
    obs_path = out / OBS_FILE
    if not obs_path.exists():
        raise UsageError(f"missing {obs_path}; run generate first")
    obs = ObservationFile.load(obs_path)

    model, mesh, _, _, _ = cfgmod.build_model(cfg)
    _check_observed_dofs(obs, model)
    prior = (SmoothPrior.for_grid(mesh.nx, mesh.ny, cfg.prior.a_phi, cfg.prior.b_phi)
             if cfg.prior.enabled else None)
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
    cfgmod.write_element_field(out / MEAN_FILE, mesh, mean)
    cfgmod.write_element_field(out / STD_FILE, mesh, std)
    _write_rows(out / LAMBDA_FILE, ["index", "lambda0", "lambda"],
                [[i + 1, _fmt(l0), _fmt(l)] for i, (l0, l) in
                 enumerate(zip(trace.state.lambda0, trace.state.lam))])
    _write_rows(out / ELBO_FILE,
                ["d_theta", "sweep", "f", "likelihood", "theta_terms",
                 "tau_terms", "log_prior_mu", "forward_calls"],
                [[r["d_theta"], r["sweep"], _fmt(r["f"]), _fmt(r["likelihood"]),
                  _fmt(r["theta_terms"]), _fmt(r["tau_terms"]),
                  _fmt(r["log_prior_mu"]), r["forward_calls"]]
                 for r in trace.elbo_rows])
    _write_rows(out / GAIN_FILE,
                ["d_theta", "info_gain", "degenerate", "elbo", "sweeps"],
                [[r.d_theta, _fmt(r.info_gain), int(r.gain_degenerate),
                  _fmt(r.elbo), r.sweeps] for r in trace.records])
    final_f = trace.elbo_rows[-1]["f"] if trace.elbo_rows else float("nan")
    print(f"d_theta: {trace.state.d_theta}")
    print(f"forward_calls: {trace.forward_calls}")
    print(f"stop_reason: {trace.stop_reason}")
    print(f"elbo: {_fmt(final_f)}")
    print(f"wall_time_s: {wall:.2f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    if args.seed is not None:
        cfg.validation.seed = args.seed
    if args.samples is not None:
        cfg.validation.samples = args.samples
    cfg.validate()
    out = _out_dir(args, cfg)
    obs_path, trace_path = out / OBS_FILE, out / TRACE_FILE
    for p in (obs_path, trace_path):
        if not p.exists():
            raise UsageError(f"missing {p}; run the earlier stages first")
    obs = ObservationFile.load(obs_path)
    try:
        state, clamped = state_from_dict(json.loads(trace_path.read_text()))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"unreadable run trace {trace_path}: {exc}") from exc

    model, mesh, _, _, _ = cfgmod.build_model(cfg)
    _check_observed_dofs(obs, model)
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
        "schema_version": SCHEMA_VERSION,
        "M": report.M,
        "seed": seed,
        "ess": report.ess,
        "log_evidence": report.log_evidence,
        "evidence_constant_included": report.evidence_constant_included,
        "discarded": report.discarded,
        "degenerate": report.degenerate,
        "forward_calls": report.forward_calls,
        "mean_rel_max": comparison["mean_rel_max"],
        "mean_rel_median": comparison["mean_rel_median"],
        "std_rel_max": comparison["std_rel_max"],
        "std_rel_median": comparison["std_rel_median"],
    }
    _write_json(out / IS_FILE, payload)
    _write_rows(out / IS_WEIGHTS_FILE, ["index", "weight"],
                [[i, _fmt(w)] for i, w in enumerate(report.weights)])
    cfgmod.write_element_field(out / IS_MEAN_FILE, mesh, report.psi_mean)
    cfgmod.write_element_field(out / IS_STD_FILE, mesh, report.psi_std)
    print(f"ess: {_fmt(report.ess)}")
    print(f"discarded: {report.discarded}")
    print(f"mean_rel_median: {_fmt(comparison['mean_rel_median'])}")
    if report.degenerate:
        print("all importance weights degenerate", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_report(args) -> int:
    out = _out_dir(args, None)
    if not out.is_dir():
        raise UsageError(f"output directory {out} does not exist")
    missing: list[str] = []
    lines: list[str] = []

    trace_path = out / TRACE_FILE
    tau_mean = None
    if trace_path.exists():
        try:
            payload = json.loads(trace_path.read_text())
            state, _ = state_from_dict(payload)
            lines.append(f"d_theta: {state.d_theta}")
            calls = f"forward_calls: {payload.get('forward_calls', 'unknown')}"
            if "jacobians" in payload.get("mu_phase", {}):
                calls += f" ({payload['mu_phase']['jacobians']} with a Jacobian)"
            lines.append(calls)
            lines.append(f"stop_reason: {payload.get('stop_reason', 'unknown')}")
            rows = payload.get("elbo_rows", [])
            if rows:
                lines.append(f"elbo: {_fmt(rows[-1]['f'])}")
            if state.a > 0 and state.b > 0:
                tau_mean = state.a / state.b
                lines.append(f"tau_mean: {_fmt(tau_mean)}")
            if "mu_phase" in payload:
                steps = payload["mu_phase"]["steps"]
                lines.append(
                    f"mu_phase: {sum(st['accepted'] for st in steps)} accepted steps, "
                    f"{sum(st['halvings'] for st in steps)} halvings, "
                    f"{sum(st['corrected'] for st in steps)} corrector steps")
        except (KeyError, TypeError, ValueError) as exc:
            lines.append(f"run trace unreadable: {exc}")
    else:
        missing.append(TRACE_FILE)

    obs_path = out / OBS_FILE
    if obs_path.exists():
        try:
            obs = ObservationFile.load(obs_path)
            tau = "inf" if math.isinf(obs.tau_true) else _fmt(obs.tau_true)
            lines.append(f"tau_true: {tau}")
            if tau_mean is not None and math.isfinite(obs.tau_true):
                lines.append(f"tau_ratio: {_fmt(tau_mean / obs.tau_true)}")
        except ConfigError as exc:
            lines.append(f"observations unreadable: {exc}")
    else:
        missing.append(OBS_FILE)

    is_path = out / IS_FILE
    if is_path.exists():
        try:
            rep = json.loads(is_path.read_text())
            lines.append(f"ess: {_fmt(rep['ess'])}")
            lines.append(f"mean_rel_median: {_fmt(rep['mean_rel_median'])}")
        except (KeyError, TypeError, ValueError) as exc:
            lines.append(f"IS report unreadable: {exc}")
    else:
        missing.append(IS_FILE)

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
