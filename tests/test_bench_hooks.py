"""The benchmark's layer hooks still find the names they wrap, and its reader
still parses the artifacts.

`perfbench/tracing.py` times the package from outside by replacing names its
callers look up, and reads some of their arguments.  A renamed function or a
moved argument breaks the benchmark's per-layer metrics; this suite runs one
small traced pipeline and the set-up probe so that such a change fails here.
`perfbench/run.py` reads its end-to-end metrics from the JSON keys of the
artifacts; a dropped or renamed key fails here too.  Nothing under
`perfbench/` is modified.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import yaml

import elastovb
from elastovb import cli
from elastovb.cli import main
from elastovb.config import parse_block
from elastovb.driver import RunTrace

from conftest import EXAMPLE1_YAML, example1_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_example1(tmp_path):
    """example1 with 20 importance samples, written to tmp_path: (its dict, its path)."""
    d = example1_dict()
    d["validation"]["samples"] = 20
    d["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "example1.yaml"
    path.write_text(yaml.safe_dump(d))
    return d, path


def test_traced_pipeline_records_every_layer_without_errors(tmp_path, capsys):
    tracing = load_perfbench("tracing")
    for target, attr, _, _ in tracing.LAYER_HOOKS:
        assert callable(getattr(tracing._resolve(target), attr)), (target, attr)
    _, path = small_example1(tmp_path)
    rec, tally = tracing.SpanRecorder(), tracing.ForwardTally()
    with tracing.patched(rec, tally):
        for verb in ("generate", "invert", "validate"):
            assert main([verb, "--config", str(path)]) == 0
    capsys.readouterr()
    spans = rec.to_json()
    assert all(s["end"] is not None for s in spans)
    assert [s for s in spans if s["attrs"] and "error" in s["attrs"]] == []
    names = {s["name"] for s in spans}
    assert {"mesh_fem.solve", "mesh_fem.adjoint"} <= names
    assert names == {name for _, _, name, _ in tracing.LAYER_HOOKS}
    assert tally.attempted > 0 and tally.failed == 0


def test_benchmark_reads_the_artifacts_of_one_pipeline(tmp_path, capsys):
    d, path = small_example1(tmp_path)
    for verb in ("generate", "invert", "validate"):
        assert main([verb, "--config", str(path)]) == 0
    capsys.readouterr()
    out = Path(d["output"]["directory"])
    assert main(["report", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    outcome = load_perfbench("run")._read_outcome(out, {"report": report}, d)
    assert (outcome["forward_calls"], outcome["d_theta"]) == (11, 6)
    assert outcome["stop_reason"] == "info_gain" and outcome["sweeps"] == 6
    assert outcome["is_forward_calls"] == 20 and 0.0 < outcome["mu_rmse"] < 0.1
    assert f"elbo: {cli._fmt(outcome['elbo'])}" in report.splitlines()
    # the benchmark reads the trace by hand; it must read what the library reads
    trace = cli._read_json(out / cli.TRACE_FILE, "run trace",
                           lambda payload: parse_block(RunTrace, payload))
    assert ([outcome[key] for key in ("forward_calls", "d_theta", "stop_reason", "sweeps", "elbo")]
            == [trace.forward_calls, trace.state.d_theta, trace.stop_reason,
                sum(rec.sweeps for rec in trace.records), trace.elbo_rows[-1].f])


def test_setup_probe_prints_seconds():
    src = Path(elastovb.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(src),
                           str(EXAMPLE1_YAML)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip()) > 0.0
