"""Configuration round-trips, data generation, and the four CLI verbs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import elastovb
from elastovb import config as cfgmod
from elastovb.cli import main
from elastovb.config import (ConfigError, ObservationFile, config_from_dict,
                             example1_config, example1_dict, load_config,
                             save_config)


def small_dict(nx=4, ny=4, snr=1e4, seed=3):
    d = example1_dict()
    d["mesh"].update({"nx": nx, "ny": ny, "lx": float(nx), "ly": float(ny)})
    d["phantom"]["inclusions"] = [
        {"shape": "ellipse", "center": [nx / 2, ny / 2], "radii": [1.0, 1.0],
         "value": 1.0}]
    d["noise"] = {"snr": snr, "seed": seed}
    d["clamp"] = {"top_element_rows": 1, "value": 0.0}
    d["validation"] = {"samples": 50, "seed": 0}
    return d


@pytest.fixture
def small_cfg_path(tmp_path):
    cfg = config_from_dict(small_dict())
    cfg.output.directory = str(tmp_path / "out")
    path = tmp_path / "run.yaml"
    save_config(cfg, path)
    return path


# ---------------------------------------------------------------------------
# Configuration


def test_config_round_trip(tmp_path):
    cfg = example1_config()
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    again = load_config(path)
    assert again.to_dict() == cfg.to_dict()


def test_unknown_key_rejected():
    d = example1_dict()
    d["mesh"]["cells"] = 10
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_invalid_values_rejected():
    bad = example1_dict()
    bad["mesh"]["poisson"] = 0.5
    with pytest.raises(ConfigError):
        config_from_dict(bad).validate()
    bad = example1_dict()
    bad["noise"]["snr"] = -1.0
    with pytest.raises(ConfigError):
        config_from_dict(bad).validate()
    bad = example1_dict()
    bad["bc"]["dirichlet"] = []
    with pytest.raises(ConfigError):
        config_from_dict(bad).validate()


# ---------------------------------------------------------------------------
# Data generation


def test_generation_is_byte_identical(small_cfg_path, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(small_cfg_path), "--out", str(d1)]) == 0
    assert main(["generate", "--config", str(small_cfg_path), "--out", str(d2)]) == 0
    assert (d1 / "observations.json").read_bytes() == (d2 / "observations.json").read_bytes()


def test_empirical_snr_near_target(small_cfg_path, tmp_path):
    out = tmp_path / "snr"
    assert main(["generate", "--config", str(small_cfg_path), "--out", str(out)]) == 0
    obs = ObservationFile.load(out / "observations.json")
    noise = obs.yhat - obs.y_clean
    snr = float(np.mean(obs.y_clean ** 2) / np.mean(noise ** 2))
    assert snr == pytest.approx(obs.snr_target, rel=0.35)
    assert obs.tau_true == pytest.approx(
        obs.snr_target / float(np.mean(obs.y_clean ** 2)), rel=1e-12)


def test_infinite_snr_gives_exact_data(small_cfg_path, tmp_path):
    out = tmp_path / "exact"
    assert main(["generate", "--config", str(small_cfg_path),
                 "--out", str(out), "--snr", "inf"]) == 0
    obs = ObservationFile.load(out / "observations.json")
    assert np.array_equal(obs.yhat, obs.y_clean)
    assert math.isinf(obs.tau_true)


def test_observation_file_round_trip(small_cfg_path, tmp_path):
    out = tmp_path / "rt"
    main(["generate", "--config", str(small_cfg_path), "--out", str(out)])
    obs = ObservationFile.load(out / "observations.json")
    obs.save(out / "copy.json")
    again = ObservationFile.load(out / "copy.json")
    assert np.array_equal(obs.yhat, again.yhat)
    assert np.array_equal(obs.obs_dofs, again.obs_dofs)
    assert obs.tau_true == again.tau_true


def test_csv_schemas(small_cfg_path, tmp_path):
    out = tmp_path / "csv"
    main(["generate", "--config", str(small_cfg_path), "--out", str(out)])
    assert (out / "true_field.csv").read_text().splitlines()[0] == "elem_ix,elem_iy,value"
    assert (out / "displacement.csv").read_text().splitlines()[0] == "node_ix,node_iy,ux,uy"
    field = cfgmod.read_element_field(out / "true_field.csv")
    assert field.shape == (16,)
    assert np.any(field == 1.0) and np.any(field == 0.0)


# ---------------------------------------------------------------------------
# Full pipeline (small mesh, in-process)


def test_pipeline_smoke(small_cfg_path, tmp_path, capsys):
    out = tmp_path / "pipe"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0
    assert main(["validate"] + args + ["--samples", "40"]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for key in ("d_theta:", "forward_calls:", "stop_reason:", "elbo:",
                "tau_mean:", "tau_true:", "tau_ratio:", "ess:",
                "mean_rel_median:"):
        assert key in text
    assert "missing:" not in text
    for name in ("run_trace.json", "posterior_mean.csv", "posterior_std.csv",
                 "lambda_table.csv", "elbo_trace.csv", "info_gain.csv",
                 "is_report.json", "is_weights.csv"):
        assert (out / name).exists()
    trace = json.loads((out / "run_trace.json").read_text())
    assert trace["schema_version"] == 1
    assert trace["stop_reason"] in ("info_gain", "max_bases", "full_rank")


def test_invert_max_bases_override(small_cfg_path, tmp_path):
    out = tmp_path / "cap"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    main(["generate"] + args)
    assert main(["invert"] + args + ["--max-bases", "1"]) == 0
    trace = json.loads((out / "run_trace.json").read_text())
    assert len(trace["state"]["lambda0"]) == 1
    assert trace["stop_reason"] == "max_bases"


# ---------------------------------------------------------------------------
# Exit codes


def test_usage_errors_exit_one(small_cfg_path, tmp_path):
    assert main([]) == 1
    assert main(["invert", "--config", str(small_cfg_path),
                 "--out", str(tmp_path / "none")]) == 1      # no observations yet
    assert main(["validate", "--config", str(small_cfg_path),
                 "--out", str(tmp_path / "none")]) == 1
    assert main(["generate", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path)]) == 1               # missing config file
    assert main(["report", "--out", str(tmp_path / "nodir")]) == 1
    out = tmp_path / "neg"
    main(["generate", "--config", str(small_cfg_path), "--out", str(out)])
    assert main(["invert", "--config", str(small_cfg_path), "--out", str(out),
                 "--max-bases", "-2"]) == 1


def test_bad_yaml_exits_one(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("mesh: [unclosed\n")
    assert main(["generate", "--config", str(path), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("block,key,value", [
    ("mesh", "poisson", -0.2),
    ("mesh", "nx", "ten"),
    ("noise", "seed", "one"),
    ("solver", "mu_max_outer", "thirty"),
    ("clamp", "top_element_rows", [1]),
    ("validation", "samples", "many"),
])
def test_invalid_field_exits_one_with_message(block, key, value, tmp_path, capsys):
    d = small_dict()
    d[block][key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("elastovb: config error:")
    assert f"{block}.{key}" in err


def run_cli(*args):
    """`python -m elastovb.cli` in a child that imports the package under test."""
    src = str(Path(elastovb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "elastovb.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_bad_flag_exits_one_in_subprocess(small_cfg_path):
    proc = run_cli("generate", "--config", str(small_cfg_path), "--nonsense")
    assert proc.returncode == 1
    assert "--nonsense" in proc.stderr


def test_console_entry_point_runs(tmp_path, small_cfg_path):
    out = tmp_path / "sp"
    proc = run_cli("generate", "--config", str(small_cfg_path), "--out", str(out))
    assert proc.returncode == 0
    assert "tau_true:" in proc.stdout
    assert (out / "observations.json").exists()


def test_singular_phantom_exits_two(tmp_path):
    # pinning only horizontal motion leaves a rigid vertical translation;
    # loading that direction makes the solve singular: numerical failure, exit 2
    d = small_dict()
    d["bc"]["dirichlet"] = [{"edge": "left", "ux": 0.0}]
    d["bc"]["loads"] = [{"node": [4, 4], "fy": -0.01}]
    cfg = config_from_dict(d)
    path = tmp_path / "sing.yaml"
    save_config(cfg, path)
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_validate_numerical_failure_exits_two(small_cfg_path, tmp_path, monkeypatch, capsys):
    out = tmp_path / "val"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0

    def failing_run_is(state, model, yhat, M, seed):
        model.evaluate(state.mu, jacobian=False)
        raise np.linalg.LinAlgError("posterior covariance not positive definite")

    monkeypatch.setattr("elastovb.cli.run_is", failing_run_is)
    capsys.readouterr()
    assert main(["validate"] + args) == 2
    assert "not positive definite" in capsys.readouterr().err
    error = json.loads((out / "error.json").read_text())
    assert error == {"stage": "validate", "type": "LinAlgError",
                     "error": "posterior covariance not positive definite",
                     "forward_calls": 1}
    assert not (out / "is_report.json").exists()


def test_report_on_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 0
    text = capsys.readouterr().out
    assert "missing:" in text
    for name in ("run_trace.json", "observations.json", "is_report.json"):
        assert name in text
    # a second run behaves identically
    assert main(["report", "--out", str(empty)]) == 0
