#!/usr/bin/env python3
"""End-to-end benchmark of the elastovb pipeline: generate, invert, validate, report.

Usage, from the repository root:

    python3 perfbench/run.py --workload example1 --seed 0 --seconds 30 --trace 0

The four CLI verbs run in this process through `elastovb.cli.main`, on a
configuration written from the workload and the seed.  The pipeline repeats as
often as the first one says fits in `--seconds` (at least twice), and timings
are medians over the repeats.

--trace 0 prints the end-to-end metrics, measured with no spans recorded.
--trace 1 alternates untraced and traced pipelines and prints the per-layer
metrics, each layer's self time and the tracing overhead.

The lines before the last print every metric with its unit, the machine and the
checks.  The last line is one JSON object with the keys correct, attempted,
failed and metrics.  Full results, and the spans of a traced run, are written
to .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# One BLAS thread (never more than nproc): the plain single-threaded baseline
# that later per-layer changes are compared on.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_PROBES = 5
MIN_PIPELINES = 2
MAX_PIPELINES = 50
VERBS = ("generate", "invert", "validate", "report")

END_TO_END = [
    ("setup_s", "s"),
    ("forward_calls", "count"),
    ("peak_rss_mb", "MB"),
    ("forward_ok_frac", "ratio"),
    ("elbo", "nat"),
    ("mu_rmse", "logE"),
]

# Printed by every run with the end-to-end metrics but not gated: the verb
# times spread from run to run by more than the largest bound, and the IS
# figures are Monte-Carlo estimates that move with the IS seed (see README.md).
REPORTED = [
    ("invert_s", "s"),
    ("validate_s", "s"),
    ("is_ess", "ratio"),
    ("is_mean_rel_median", "ratio"),
    ("is_std_rel_median", "ratio"),
    ("forward_failed_frac", "ratio"),
    ("d_theta", "count"),
]

LAYERS = ("config", "driver", "mean_update", "stiefel", "vb", "importance",
          "forward", "mesh_fem")

PER_LAYER = [
    ("mesh_fem.solve.calls", "count"),
    ("mesh_fem.solve.s", "s"),
    ("mesh_fem.adjoint.calls", "count"),
    ("mesh_fem.adjoint.s", "s"),
    ("mesh_fem.adjoint.bytes_computed", "B"),
    ("mesh_fem.adjoint.used_frac", "ratio"),
    ("mesh_fem.adjoint.share_of_validate", "ratio"),
    ("forward.evaluate.calls", "count"),
    ("forward.evaluate.s", "s"),
    ("forward.evaluate.p50_ms", "ms"),
    ("forward.evaluate.p95_ms", "ms"),
    ("forward.failed", "count"),
    ("forward.jacobian_used_frac", "ratio"),
    ("mean_update.update_mu.s", "s"),
    ("mean_update.gn_step.calls", "count"),
    ("mean_update.gn_step.s", "s"),
    ("mean_update.accepted_steps", "count"),
    ("mean_update.halvings", "count"),
    ("mean_update.budget_exhausted", "count"),
    ("stiefel.optimize_W.calls", "count"),
    ("stiefel.optimize_W.s", "s"),
    ("stiefel.optimize_W.share_of_invert", "ratio"),
    ("stiefel.iterations", "count"),
    ("stiefel.gram_flops_computed", "flop"),
    ("vb.q_fixed_point.calls", "count"),
    ("vb.q_fixed_point.s", "s"),
    ("vb.elbo.calls", "count"),
    ("vb.elbo.s", "s"),
    ("driver.basis_phase.s", "s"),
    ("driver.sweeps", "count"),
    ("driver.d_theta", "count"),
    ("importance.run_is.s", "s"),
    ("importance.compare_vb_is.s", "s"),
    ("importance.discarded", "count"),
    ("importance.ess", "ratio"),
    ("importance.mean_rel_median", "ratio"),
    ("importance.std_rel_median", "ratio"),
    ("config.load_config.s", "s"),
    ("config.generate_data.s", "s"),
    ("config.build_model.s", "s"),
    ("cli.invert.s", "s"),
    ("cli.validate.s", "s"),
    ("cli.artifacts.s", "s"),
    ("cli.artifacts.bytes", "B"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("trace.overhead.invert_s", "s"),
    ("trace.overhead.validate_s", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_us", "us"),
]


class Ops:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _blas_threads_in_use() -> dict:
    """Thread count each loaded OpenBLAS reports (read from this process's maps)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return {}
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _machine(args, blas_env_given: dict) -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_env_given": blas_env_given,
        "blas_env_used": {k: os.environ[k] for k in BLAS_ENV},
        "blas_threads_in_use": _blas_threads_in_use(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _measure_setup(src: Path, cfg_path: Path, ops: Ops) -> list[float]:
    values = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src), str(cfg_path)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
            ok, detail = proc.returncode == 0, proc.stderr[-300:]
            if ok:
                values.append(float(proc.stdout.strip().splitlines()[-1]))
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            ok, detail = False, repr(exc)
        ops.record(f"setup probe {i}", ok, detail)
    return values


def _run_verbs(cli_main, cfg_path: Path, out: Path, ops: Ops, rec) -> tuple[dict, dict]:
    times, stdout = {}, {}
    for verb in VERBS:
        argv = [verb, "--out", str(out)]
        if verb != "report":
            argv += ["--config", str(cfg_path)]
        buf = io.StringIO()
        sid = rec.start(f"cli.{verb}") if rec is not None else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli_main(argv)
        except Exception:
            rc = traceback.format_exc(limit=3)
        times[verb] = time.perf_counter() - t0
        if rec is not None:
            rec.end(sid)
        stdout[verb] = buf.getvalue()
        ops.record(f"{verb} exits 0", rc == 0, f"returned {rc!r}")
    times["total"] = sum(times.values())
    return times, stdout


def _read_field(path: Path):
    import numpy as np

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["elem_ix", "elem_iy", "value"] or len(rows) < 2:
        raise ValueError(f"{path.name}: unexpected header or no rows")
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    return data[:, 1].astype(int), data[:, 2]


def _read_outcome(out: Path, stdout: dict, cfg: dict) -> dict:
    """Parse every artifact; raises on anything missing or malformed."""
    import numpy as np

    trace = json.loads((out / "run_trace.json").read_text())
    isr = json.loads((out / "is_report.json").read_text())
    json.loads((out / "observations.json").read_text())
    iy, truth = _read_field(out / "true_field.csv")
    iy_mean, mean = _read_field(out / "posterior_mean.csv")
    _, std = _read_field(out / "posterior_std.csv")
    if not (truth.shape == mean.shape == std.shape) or not np.array_equal(iy, iy_mean):
        raise ValueError("element fields disagree in shape or order")
    for name in ("lambda_table.csv", "elbo_trace.csv", "info_gain.csv", "is_weights.csv"):
        with open(out / name, newline="") as fh:
            if len(list(csv.reader(fh))) < 2:
                raise ValueError(f"{name} has no data rows")
    for key in ("d_theta:", "forward_calls:", "stop_reason:", "ess:"):
        if key not in stdout["report"]:
            raise ValueError(f"report output lacks {key!r}")
    free = iy < cfg["mesh"]["ny"] - cfg["clamp"]["top_element_rows"]
    return {
        "forward_calls": int(trace["forward_calls"]),
        "d_theta": len(trace["state"]["lam"]),
        "stop_reason": trace["stop_reason"],
        "sweeps": sum(int(r["sweeps"]) for r in trace["records"]),
        "elbo": float(trace["elbo_rows"][-1]["f"]),
        "mu_rmse": float(np.sqrt(np.mean((mean[free] - truth[free]) ** 2))),
        "is_ess": float(isr["ess"]),
        "is_mean_rel_median": float(isr["mean_rel_median"]),
        "is_std_rel_median": float(isr["std_rel_median"]),
        "is_discarded": int(isr["discarded"]),
        "is_seed": int(isr["seed"]),
        "is_forward_calls": int(isr["forward_calls"]),
        "artifact_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    }


def run_pipeline(cli_main, cfg_path: Path, cfg: dict, out: Path, ops: Ops, rec=None) -> dict:
    """generate -> invert -> validate -> report in a fresh output directory."""
    from tracing import ForwardTally, patched

    shutil.rmtree(out, ignore_errors=True)
    tally = ForwardTally()
    with patched(rec, tally):
        times, stdout = _run_verbs(cli_main, cfg_path, out, ops, rec)
    try:
        outcome = _read_outcome(out, stdout, cfg)
        ops.record("artifacts parse", True)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        ops.record("artifacts parse", False, repr(exc))
        outcome = None
    if outcome is not None:
        seed = cfg["validation"]["seed"]
        ops.record("IS seed is the benchmark seed", outcome["is_seed"] == seed,
                   f"is_report seed {outcome['is_seed']} != {seed}")
    return {"times": times, "outcome": outcome, "traced": rec is not None,
            "fwd_attempted": tally.attempted, "fwd_failed": tally.failed}


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def layer_metrics(spans: list[list], pipe: dict) -> dict:
    """Per-layer counts, busy and self seconds for one traced pipeline."""
    from tracing import root_names, self_times

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    attrs: dict[tuple, float] = {}
    self_s = dict.fromkeys(LAYERS + ("cli",), 0.0)
    fwd_ms: list[float] = []
    failed = 0
    stiefel_in_invert = adjoint_in_validate = 0.0
    for s, own, root in zip(spans, self_times(spans), root_names(spans)):
        name, dur = s[2], s[4] - s[3]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur
        self_s[name.split(".")[0]] += own
        for k, v in (s[6] or {}).items():
            if k != "error":
                attrs[(name, k)] = attrs.get((name, k), 0) + v
        if name == "forward.evaluate":
            fwd_ms.append(dur * 1e3)
            failed += (s[6] or {}).get("error") == "ForwardSolveError"
        elif name == "stiefel.optimize_W" and root == "cli.invert":
            stiefel_in_invert += dur
        elif name == "mesh_fem.adjoint" and root == "cli.validate":
            adjoint_in_validate += dur

    o = pipe["outcome"]
    accepted = attrs.get(("mean_update.update_mu", "accepted"), 0)
    used = 1 + accepted
    m = {
        "mesh_fem.solve.calls": calls.get("mesh_fem.solve", 0),
        "mesh_fem.solve.s": busy.get("mesh_fem.solve", 0.0),
        "mesh_fem.adjoint.calls": calls.get("mesh_fem.adjoint", 0),
        "mesh_fem.adjoint.s": busy.get("mesh_fem.adjoint", 0.0),
        "mesh_fem.adjoint.bytes_computed": attrs.get(("mesh_fem.adjoint", "bytes"), 0),
        "mesh_fem.adjoint.used_frac": used / max(calls.get("mesh_fem.adjoint", 0), 1),
        "mesh_fem.adjoint.share_of_validate": adjoint_in_validate / pipe["times"]["validate"],
        "forward.evaluate.calls": calls.get("forward.evaluate", 0),
        "forward.evaluate.s": busy.get("forward.evaluate", 0.0),
        "forward.evaluate.p50_ms": _percentile(fwd_ms, 50),
        "forward.evaluate.p95_ms": _percentile(fwd_ms, 95),
        "forward.failed": failed,
        "forward.jacobian_used_frac": used / o["forward_calls"],
        "mean_update.update_mu.s": busy.get("mean_update.update_mu", 0.0),
        "mean_update.gn_step.calls": calls.get("mean_update.gn_step", 0),
        "mean_update.gn_step.s": busy.get("mean_update.gn_step", 0.0),
        "mean_update.accepted_steps": accepted,
        "mean_update.halvings": attrs.get(("mean_update.update_mu", "halvings"), 0),
        "mean_update.budget_exhausted": attrs.get(("mean_update.update_mu", "budget_exhausted"), 0),
        "stiefel.optimize_W.calls": calls.get("stiefel.optimize_W", 0),
        "stiefel.optimize_W.s": busy.get("stiefel.optimize_W", 0.0),
        "stiefel.optimize_W.share_of_invert": stiefel_in_invert / pipe["times"]["invert"],
        "stiefel.iterations": attrs.get(("stiefel.optimize_W", "iterations"), 0),
        "stiefel.gram_flops_computed": attrs.get(("stiefel.optimize_W", "gram_flops"), 0),
        "vb.q_fixed_point.calls": calls.get("vb.q_fixed_point", 0),
        "vb.q_fixed_point.s": busy.get("vb.q_fixed_point", 0.0),
        "vb.elbo.calls": calls.get("vb.elbo", 0),
        "vb.elbo.s": busy.get("vb.elbo", 0.0),
        "driver.basis_phase.s": busy.get("driver.run", 0.0) - busy.get("mean_update.update_mu", 0.0),
        "driver.sweeps": o["sweeps"],
        "driver.d_theta": o["d_theta"],
        "importance.run_is.s": busy.get("importance.run_is", 0.0),
        "importance.compare_vb_is.s": busy.get("importance.compare_vb_is", 0.0),
        "importance.discarded": o["is_discarded"],
        "importance.ess": o["is_ess"],
        "importance.mean_rel_median": o["is_mean_rel_median"],
        "importance.std_rel_median": o["is_std_rel_median"],
        "config.load_config.s": busy.get("config.load_config", 0.0),
        "config.generate_data.s": busy.get("config.generate_data", 0.0),
        "config.build_model.s": busy.get("config.build_model", 0.0),
        "cli.invert.s": pipe["times"]["invert"],
        "cli.validate.s": pipe["times"]["validate"],
        # verb wall time not covered by a library span: parsing and artifact I/O
        "cli.artifacts.s": self_s["cli"],
        "cli.artifacts.bytes": o["artifact_bytes"],
        "trace.spans": len(spans),
    }
    m.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    if len(fwd_ms) >= 1000:
        m["forward.evaluate.p99_ms"] = _percentile(fwd_ms, 99)
    return m


def _loop(seconds: float, trace: int, run_one) -> list[dict]:
    """Run as many pipelines as the first one says fit in `seconds`, at least two.

    A fixed count, rather than a deadline, keeps a slow stretch of the machine
    from cutting a run's sample count.  With tracing, pipelines alternate
    untraced/traced and are counted in pairs.
    """
    step = 2 if trace else 1
    pipes = [run_one(traced=bool(trace) and i == 1) for i in range(step)]
    first = sum(p["times"]["total"] for p in pipes)
    total = step * max(MIN_PIPELINES // step, round(seconds / first))
    while len(pipes) < min(total, MAX_PIPELINES):
        pipes.append(run_one(traced=bool(trace) and len(pipes) % 2 == 1))
    return pipes


def _checks(workload: str, pipes: list[dict], ops: Ops) -> None:
    from workloads import CALL_GATE, D_THETA_RANGE

    outcomes = [p["outcome"] for p in pipes if p["outcome"] is not None]
    if not outcomes:
        return
    keys = {(o["elbo"].hex(), o["forward_calls"], o["is_ess"].hex()) for o in outcomes}
    ops.record("repeats bit-identical (elbo, forward_calls, is_ess)",
               len(outcomes) >= 2 and len(keys) == 1, f"{len(outcomes)} repeats, {len(keys)} distinct")
    o = outcomes[0]
    if workload in CALL_GATE:
        ops.record(f"forward_calls <= {CALL_GATE[workload]}",
                   o["forward_calls"] <= CALL_GATE[workload], str(o["forward_calls"]))
    if workload in D_THETA_RANGE:
        lo, hi = D_THETA_RANGE[workload]
        ops.record(f"d_theta in {lo}..{hi}", lo <= o["d_theta"] <= hi, str(o["d_theta"]))


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    src, base_path = ROOT / "src", ROOT / "configs" / "example1.yaml"
    if not (src / "elastovb" / "__init__.py").is_file() or not base_path.is_file():
        print(f"perfbench: {ROOT} lacks src/elastovb or configs/example1.yaml; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    blas_env_given = {k: os.environ.get(k) for k in BLAS_ENV}
    for k in BLAS_ENV:
        os.environ[k] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import elastovb
    import yaml
    from elastovb import cli
    from tracing import SpanRecorder, span_cost_s
    from workloads import load_base, workload_config

    if not Path(elastovb.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported elastovb from {elastovb.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = workload_config(args.workload, args.seed, load_base(base_path), str(work / "out"))
    cfg_path = work / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    machine = _machine(args, blas_env_given)
    ops = Ops()
    rec = SpanRecorder() if args.trace else None

    def run_one(traced: bool) -> dict:
        if traced:
            rec.pipeline += 1
            first = len(rec.spans)
        pipe = run_pipeline(cli.main, cfg_path, cfg, work / "out", ops, rec if traced else None)
        if traced:
            pipe["spans"] = rec.spans[first:]
        return pipe

    try:
        setup = [] if args.trace else _measure_setup(src, cfg_path, ops)
        pipes = _loop(args.seconds, args.trace, run_one)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _checks(args.workload, pipes, ops)
    plain = [p for p in pipes if not p["traced"]]
    ok_plain = [p for p in plain if p["outcome"] is not None]
    ok_traced = [p for p in pipes if p["traced"] and p["outcome"] is not None]
    samples = {"setup_s": setup,
               "invert_s": [p["times"]["invert"] for p in plain],
               "validate_s": [p["times"]["validate"] for p in plain]}
    metrics: dict[str, float] = {}
    extra: dict[str, float] = {}
    labels: dict[str, str] = {}
    if ok_plain:
        o = ok_plain[0]["outcome"]
        attempted = sum(p["fwd_attempted"] for p in plain)
        failed = sum(p["fwd_failed"] for p in plain)
        extra = {name: statistics.median(samples[name]) for name in ("invert_s", "validate_s")}
        extra.update({"is_ess": o["is_ess"], "is_mean_rel_median": o["is_mean_rel_median"],
                      "is_std_rel_median": o["is_std_rel_median"],
                      "forward_failed_frac": failed / attempted, "d_theta": o["d_theta"]})
        labels = {"stop_reason": o["stop_reason"],
                  "forward_failed_frac_base":
                      f"{failed} of {attempted} forward evaluations in {len(plain)} pipelines"}
        if not args.trace:
            metrics = {"setup_s": statistics.median(setup)} if setup else {}
            metrics.update({"forward_calls": o["forward_calls"], "peak_rss_mb": peak_rss_mb,
                            "forward_ok_frac": 1.0 - failed / attempted,
                            "elbo": o["elbo"], "mu_rmse": o["mu_rmse"]})
        elif ok_traced:
            per = [layer_metrics(p["spans"], p) for p in ok_traced]
            metrics = {key: statistics.median(d[key] for d in per) for key in per[0]}
            for verb in ("invert", "validate"):
                metrics[f"trace.overhead.{verb}_s"] = (
                    statistics.median(p["times"][verb] for p in ok_traced)
                    - statistics.median(p["times"][verb] for p in ok_plain))
            metrics["trace.span_cost_us"] = span_cost_s() * 1e6

    units = dict(END_TO_END + REPORTED + PER_LAYER)
    units["forward.evaluate.p99_ms"] = "ms"
    want = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    shown = [n for n in want if math.isfinite(metrics.get(n, math.nan))]
    ops.record("every metric measured", shown == want,
               f"missing {sorted(set(want) - set(shown))}")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"pipelines untraced={len(plain)} traced={len(pipes) - len(plain)}")
    gated = [(n, metrics[n]) for n, _ in END_TO_END if n in metrics]
    for name, value in gated + list(extra.items()):
        note = [f"median of {len(samples[name])}"] if name in samples else []
        note += [] if name in metrics else ["not gated"]
        print(f"metric {name} {_fmt(value)} {units[name]}"
              + (f" ({', '.join(note)})" if note else ""))
    for name in [n for n in metrics if n not in dict(END_TO_END)]:
        print(f"layer {name} {_fmt(metrics[name])} {units[name]} "
              f"(median of {len(ok_traced)} traced pipelines)")
    for key, value in labels.items():
        print(f"label {key} {value}")
    for failure in ops.failures:
        print(f"check FAILED {failure}")
    print(f"checks {ops.attempted - len(ops.failures)} of {ops.attempted} passed")

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "machine": machine, "metrics": metrics, "reported": extra, "labels": labels,
        "units": {k: units[k] for k in list(metrics) + list(extra)},
        "samples": samples, "failures": ops.failures, "attempted": ops.attempted,
    }, indent=1))
    if rec is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(rec.to_json()))

    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in shown},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
