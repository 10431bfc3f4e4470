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
from elastovb import cli
from elastovb import config as cfgmod
from elastovb.cli import main
from elastovb.config import (ConfigError, ObservationFile, config_from_dict,
                             load_config, save_config)
from elastovb.forward import ForwardSolveError

from conftest import EXAMPLE1_YAML, example1_config, example1_dict


def load_observations(path):
    return cli._read_json(path, "observations", ObservationFile.from_dict)


def clean_response(out, obs_dofs):
    """The noise-free response at `obs_dofs`: displacement.csv's ux/uy there."""
    rows = np.loadtxt(out / "displacement.csv", delimiter=",", skiprows=1)
    return rows[:, 2:].ravel()[obs_dofs]


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


def write_small_config(path, **blocks):
    """small_dict() with each block's keys updated, written to `path`."""
    d = small_dict()
    for block, values in blocks.items():
        d[block].update(values)
    path.write_text(yaml.safe_dump(d))
    return path


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


def every_field_dict():
    """A complete config with every field away from its dataclass default."""
    return {
        "mesh": {"nx": 6, "ny": 5, "lx": 3.0, "ly": 2.5, "poisson": 0.3},
        "phantom": {"background": 0.25, "inclusions": [
            {"shape": "ellipse", "value": 1.5, "center": [1.0, 1.25], "radii": [0.5, 0.75]},
            {"shape": "ellipse", "value": -0.5, "center": [2.0, 1.0],
             "radii": [0.5, 0.4]}]},
        "bc": {"dirichlet": [{"edge": "bottom", "ux": 0.0, "uy": None},
                             {"edge": "top", "ux": 0.1, "uy": 0.0}],
               "loads": [{"node": [3, 2], "fx": 0.01, "fy": -0.02}]},
        "noise": {"snr": 250.0, "seed": 7},
        "solver": {"lambda0_1": 1e-8, "info_gain_threshold": 0.05,
                   "info_gain_window": 3, "max_bases": 3, "seed": 4, "a0": 1.0,
                   "b0": 2.0, "mu_reg_delay": 2, "mu_call_budget": None},
        "clamp": {"top_element_rows": 2, "value": 0.5},
        "prior": {"a_phi": 1.0, "b_phi": 0.5},
        "validation": {"samples": 10, "seed": 9},
        "output": {"directory": "elsewhere"},
        "mu0": 0.5,
    }


def test_every_field_round_trips(tmp_path):
    cfg = config_from_dict(every_field_dict())
    assert cfg.to_dict() == every_field_dict()      # no key fell back to a default
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    assert load_config(path).to_dict() == cfg.to_dict()


def test_null_optional_fields_load():
    d = example1_dict()
    d["solver"]["max_bases"] = None
    d["bc"]["dirichlet"][0]["ux"] = None
    d["phantom"] = None                             # a null block takes its default
    cfg = config_from_dict(d)
    assert cfg.solver.max_bases is None and cfg.bc.dirichlet[0].ux is None
    assert cfg.phantom == cfgmod.PhantomBlock()


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


def test_infinite_snr_set_in_code_is_refused():
    # the reader refuses .inf; validate keeps a config edited in code from
    # reaching generate_data, which reports a zero noise level as a zero response
    cfg = example1_config()
    cfg.noise.snr = math.inf
    with pytest.raises(ConfigError, match="noise.snr must be finite and positive, got inf"):
        cfg.validate()


# ---------------------------------------------------------------------------
# Data generation


def test_generation_is_byte_identical(small_cfg_path, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(small_cfg_path), "--out", str(d1)]) == 0
    assert main(["generate", "--config", str(small_cfg_path), "--out", str(d2)]) == 0
    assert (d1 / "observations.json").read_bytes() == (d2 / "observations.json").read_bytes()


def test_empirical_snr_near_target(small_cfg_path, tmp_path):
    # the clean response is displacement.csv at the observed dofs, and the
    # target SNR is the noise block of the config that generate wrote
    out = tmp_path / "snr"
    assert main(["generate", "--config", str(small_cfg_path), "--out", str(out)]) == 0
    obs = load_observations(out / "observations.json")
    y = clean_response(out, obs.obs_dofs)
    snr_target = load_config(out / "config.yaml").noise.snr
    noise = obs.yhat - y
    snr = float(np.mean(y ** 2) / np.mean(noise ** 2))
    assert snr == pytest.approx(snr_target, rel=0.35)
    assert obs.tau_true == pytest.approx(snr_target / float(np.mean(y ** 2)), rel=1e-12)


def test_generated_config_is_the_config_the_run_used(small_cfg_path, tmp_path):
    # config.yaml holds the noise seed and SNR behind the observations, so
    # observations.json states neither; no later stage rewrites the file
    out = tmp_path / "cfg"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args + ["--seed", "15"]) == 0
    ran = load_config(small_cfg_path)
    assert ran.noise.seed != 15
    ran.noise.seed = 15
    assert load_config(out / "config.yaml").to_dict() == ran.to_dict()    # snr included
    before = (out / "config.yaml").read_bytes()
    assert main(["invert"] + args) == 0
    assert main(["validate"] + args) == 0
    assert (out / "config.yaml").read_bytes() == before


def test_each_fact_is_written_once(small_cfg_path, tmp_path):
    # the clean response, the noise seed and SNR, and the IS report's
    # all-weights-degenerate flag (= ess == 0) are stated elsewhere
    out = tmp_path / "once"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    for verb in ("generate", "invert", "validate"):
        assert main([verb] + args) == 0
    obs = json.loads((out / "observations.json").read_text())
    assert set(obs) == {"schema_version", "obs_dofs", "yhat", "tau_true"}
    report = json.loads((out / "is_report.json").read_text())
    assert "degenerate" not in report
    assert report["forward_calls"] == report["M"]
    assert obs["schema_version"] == report["schema_version"] == cli.SCHEMA_VERSION == 4


def test_observation_file_round_trip(small_cfg_path, tmp_path):
    out = tmp_path / "rt"
    main(["generate", "--config", str(small_cfg_path), "--out", str(out)])
    obs = load_observations(out / "observations.json")
    cli._write_json(out / "copy.json", obs.to_dict())
    assert (out / "copy.json").read_bytes() == (out / "observations.json").read_bytes()
    again = load_observations(out / "copy.json")
    assert np.array_equal(obs.yhat, again.yhat)
    assert np.array_equal(obs.obs_dofs, again.obs_dofs)
    assert obs.tau_true == again.tau_true


def test_csv_schemas(small_cfg_path, tmp_path):
    out = tmp_path / "csv"
    main(["generate", "--config", str(small_cfg_path), "--out", str(out)])
    assert (out / "true_field.csv").read_text().splitlines()[0] == "elem_ix,elem_iy,value"
    assert (out / "displacement.csv").read_text().splitlines()[0] == "node_ix,node_iy,ux,uy"
    rows = [line.split(",") for line in
            (out / "true_field.csv").read_text().splitlines()[1:]]
    # one row per element, in element order ey*nx + ex
    assert [(int(ix), int(iy)) for ix, iy, _ in rows] == [(k % 4, k // 4) for k in range(16)]
    field = np.array([float(v) for _, _, v in rows])
    assert np.any(field == 1.0) and np.any(field == 0.0)


# ---------------------------------------------------------------------------
# Full pipeline (small mesh, in-process)


def test_pipeline_smoke(tmp_path, capsys):
    out = tmp_path / "pipe"
    path = write_small_config(tmp_path / "run.yaml", validation={"samples": 40})
    args = ["--config", str(path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0
    assert main(["validate"] + args) == 0
    assert json.loads((out / "is_report.json").read_text())["M"] == 40
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
    assert trace["schema_version"] == cli.SCHEMA_VERSION
    assert trace["stop_reason"] in ("info_gain", "max_bases", "full_rank")


def test_run_trace_records_mean_phase(small_cfg_path, tmp_path, capsys):
    out = tmp_path / "mu"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0
    trace = json.loads((out / "run_trace.json").read_text())
    assert trace["schema_version"] == cli.SCHEMA_VERSION
    # each fact once: a stage's ELBO is its elbo_rows entry, its prior
    # precisions a prefix of the state's, and the run's calls the mean phase's
    assert set(trace["records"][0]) == {"d_theta", "info_gain", "gain_degenerate",
                                        "sweeps", "lam"}
    mu = trace["mu_phase"]
    assert set(mu) == {"jacobians", "stop_reason", "floored_count", "steps"}
    assert mu["stop_reason"] == "gain_tolerance"
    assert isinstance(mu["floored_count"], int) and mu["floored_count"] >= 0
    steps = mu["steps"]
    assert steps and all(st["accepted"] for st in steps)
    for st in steps:
        assert ({"accepted", "forward_calls", "failed", "regularization_active", "corrected"}
                <= set(st)) and "halvings" not in st
        assert 0 <= st["failed"] <= st["forward_calls"] - st["accepted"]
        assert st["regularization_active"] or not st["corrected"]
    # the first call linearizes at mu0; every other call is a step's trial
    assert 1 + sum(st["forward_calls"] for st in steps) == trace["forward_calls"]
    assert mu["jacobians"] == 1 + len(steps)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert (f"forward_calls: {trace['forward_calls']} ({mu['jacobians']} with a Jacobian)"
            in text.splitlines())
    lines = [l for l in text.splitlines() if l.startswith("mu_phase:")]
    # a phase that ends inside the warm-up, as this one does, is noted
    warm_up_only = not any(st["regularization_active"] for st in steps)
    assert lines == [f"mu_phase: {len(steps)} accepted steps, "
                     f"{sum(st['forward_calls'] - st['accepted'] for st in steps)} "
                     "trials not accepted "
                     f"({sum(st['failed'] for st in steps)} failed), "
                     f"{sum(st['corrected'] for st in steps)} corrector steps"
                     + " (no step ran with the jump prior on)" * warm_up_only]


def test_report_says_when_the_call_budget_ran_out(tmp_path, capsys):
    # the trace records an exhausted budget; the report's mu_phase line says
    # so, and that the phase ended inside the warm-up, with the prior never on
    cfg = config_from_dict(small_dict())
    cfg.solver.mu_call_budget = 2
    out = tmp_path / "out"
    cfg.output.directory = str(out)
    save_config(cfg, tmp_path / "run.yaml")
    args = ["--config", str(tmp_path / "run.yaml")]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0
    trace = json.loads((out / "run_trace.json").read_text())
    mu = trace["mu_phase"]
    assert mu["stop_reason"] == "call_budget" and trace["forward_calls"] == 2
    assert not any(st["regularization_active"] for st in mu["steps"])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("mu_phase:")]
    assert len(lines) == 1 and lines[0].endswith(
        " corrector steps (call budget used up; no step ran with the jump prior on)")


@pytest.mark.parametrize("seed,stop,calls,note", [
    (None, "gain_tolerance", 11, ""),
    (15, "max_steps", 31, " (step cap reached)")], ids=["shipped", "noise_seed_15"])
def test_report_says_how_the_mean_phase_ended(seed, stop, calls, note, tmp_path, capsys):
    # the shipped config converges; at noise seed 15 its mean phase takes all
    # 30 steps, each accepted, and its last step still gains 7.6e-4, far above
    # the tolerance, so the report must not print it like a converged run
    out = tmp_path / "out"
    args = ["--config", str(EXAMPLE1_YAML), "--out", str(out)]
    seed_args = [] if seed is None else ["--seed", str(seed)]
    assert main(["generate"] + args + seed_args) == 0
    assert main(["invert"] + args) == 0
    trace = json.loads((out / "run_trace.json").read_text())
    mu = trace["mu_phase"]
    assert (mu["stop_reason"], trace["forward_calls"]) == (stop, calls)
    assert all(st["accepted"] for st in mu["steps"])
    assert len(mu["steps"]) == calls - 1
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("mu_phase:")]
    assert len(lines) == 1 and lines[0].endswith(" corrector steps" + note)


def test_invert_max_bases_override(tmp_path):
    out = tmp_path / "cap"
    path = write_small_config(tmp_path / "run.yaml", solver={"max_bases": 1})
    args = ["--config", str(path), "--out", str(out)]
    main(["generate"] + args)
    assert main(["invert"] + args) == 0
    trace = json.loads((out / "run_trace.json").read_text())
    assert len(trace["state"]["lambda0"]) == 1
    assert trace["stop_reason"] == "max_bases"


def test_empty_basis_run_validates(tmp_path):
    # at d_theta = 0 every sample is the mean: equal weights and no spread
    out = tmp_path / "d0"
    path = write_small_config(tmp_path / "run.yaml", solver={"max_bases": 0})
    args = ["--config", str(path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0
    assert main(["validate"] + args) == 0
    trace = json.loads((out / "run_trace.json").read_text())
    assert trace["state"]["lam"] == [] and trace["stop_reason"] == "max_bases"
    assert json.loads((out / "is_report.json").read_text())["ess"] == 1.0
    std = [line.split(",")[2] for line in (out / "is_std.csv").read_text().splitlines()[1:]]
    assert len(std) == 16 and all(float(v) == 0.0 for v in std)
    assert (out / "is_mean.csv").read_text() == (out / "posterior_mean.csv").read_text()


def test_rerun_removes_the_artifacts_of_later_stages(small_cfg_path, tmp_path, capsys):
    # validating a d = 0 posterior and then inverting again used to leave the
    # d = 0 importance-sampling report beside the new posterior, and `report`
    # printed the new d_theta next to the old ESS
    out = tmp_path / "rerun"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    capped = write_small_config(tmp_path / "capped.yaml", solver={"max_bases": 0})
    assert main(["generate"] + args) == 0
    assert main(["invert", "--config", str(capped), "--out", str(out)]) == 0
    assert main(["validate"] + args) == 0
    (out / "error.json").write_text("{}")
    assert main(["invert"] + args) == 0
    for name in ("is_report.json", "is_weights.csv", "is_mean.csv", "is_std.csv",
                 "error.json"):
        assert not (out / name).exists()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "missing: is_report.json" in text.splitlines()
    assert "ess:" not in text
    assert main(["validate"] + args) == 0
    assert main(["generate"] + args) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config.yaml", "displacement.csv", "observations.json", "true_field.csv"]


# ---------------------------------------------------------------------------
# Exit codes


def test_usage_errors_exit_one(small_cfg_path, tmp_path, capsys):
    assert main([]) == 1
    none = tmp_path / "none"
    for verb in ("invert", "validate"):             # no observations yet
        assert main([verb, "--config", str(small_cfg_path), "--out", str(none)]) == 1
        assert f"missing {none / 'observations.json'};" in capsys.readouterr().err
    assert main(["generate", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path)]) == 1               # missing config file
    assert main(["report", "--out", str(tmp_path / "nodir")]) == 1
    out = tmp_path / "neg"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args + ["--seed", "-1"]) == 1
    assert not out.exists()
    assert main(["generate"] + args) == 0
    capsys.readouterr()
    assert main(["validate"] + args) == 1           # no run trace yet
    assert f"missing {out / 'run_trace.json'};" in capsys.readouterr().err


@pytest.mark.parametrize("verb,flag", [
    ("generate", "--snr"), ("invert", "--max-bases"),
    ("validate", "--seed"), ("validate", "--samples")])
def test_retired_override_flag_exits_one(verb, flag, small_cfg_path, tmp_path, capsys):
    # noise.snr, solver.max_bases, validation.seed and validation.samples are
    # set in the config file; generate --seed is the one override
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([verb, "--config", str(small_cfg_path), "--out", str(out), flag, "3"]) == 1
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not out.exists()


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
    ("noise", "snr", math.inf),         # data are always noisy: the SNR is finite
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


DELETE = object()


@pytest.mark.parametrize("keys,value,named", [
    (("phantom", "inclusions", 0, "center"), ["a", 5], "phantom.inclusions[0].center[0]"),
    (("phantom", "inclusions", 0, "center"), 5.0, "phantom.inclusions[0].center"),
    (("phantom", "inclusions"), 5, "phantom.inclusions"),
    (("phantom", "inclusions", 0, "shape"), DELETE, "phantom.inclusions[0].shape"),
    (("bc", "loads"), [3], "bc.loads[0]"),
    (("bc", "loads"), [{"node": [1], "fx": 0.1}], "bc.loads[0].node"),
    (("solver", "lambda0_1"), None, "solver.lambda0_1"),
    (("prior", "enabled"), "no", "prior.enabled"),
    (("noise", "snr"), "loud", "noise.snr"),
    (("output", "directory"), ["a"], "output.directory"),
    (("mesh", "nx"), 10.7, "mesh.nx"),
    (("mesh", "nx"), True, "mesh.nx"),
    (("mesh", "nx"), DELETE, "mesh.nx"),
], ids=lambda p: "missing" if p is DELETE else None if isinstance(p, tuple) else str(p))
def test_malformed_field_exits_one_naming_it(keys, value, named, tmp_path, capsys):
    d = small_dict()
    *parents, last = keys
    block = d
    for key in parents:
        block = block[key]
    if value is DELETE:
        del block[last]
    else:
        block[last] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("elastovb: config error:")
    assert named in err


@pytest.mark.parametrize("block,key,reason", [
    pytest.param(*dotted.split("."), reason, id=dotted.split(".")[1])
    for dotted, reason in cfgmod._REMOVED_KEYS.items()
])
def test_removed_solver_key_exits_one_naming_it(block, key, reason, tmp_path, capsys):
    d = small_dict()
    d[block][key] = 10
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("elastovb: config error:") and "Traceback" not in err
    assert f"{block}.{key} was removed: {reason}; delete the key" in err


def add_second_inclusion(d):
    d["phantom"]["inclusions"].append(
        {"shape": "ellipse", "center": [2.0, 2.0], "radii": [2.0, -1.0], "value": 1.0})


def set_inclusion(**fields):
    def edit(d):
        d["phantom"]["inclusions"] = [{"value": 1.0, **fields}]
    return edit


@pytest.mark.parametrize("edit,named,says", [
    (add_second_inclusion, "phantom.inclusions[1]", "radii must be positive"),
    (lambda d: d["mesh"].update(lx=-1.0), "mesh.lx", "must be positive"),
    (lambda d: d["bc"]["dirichlet"][0].update(edge="lft"), "bc.dirichlet[0].edge",
     "unknown edge"),
    (lambda d: d["bc"]["dirichlet"][0].update(edge="left"), "bc.dirichlet[0].edge",
     "unknown edge 'left'; expected one of ('bottom', 'top')"),
    (lambda d: d["clamp"].update(top_element_rows=d["mesh"]["ny"]), "clamp.top_element_rows",
     "outside [0, ny)"),
    (lambda d: d["clamp"].update(top_element_rows=0), "clamp.top_element_rows",
     "prescribed displacements alone fix the moduli only up to a common factor"),
    (lambda d: d["bc"]["dirichlet"][0].update(ux=None, uy=None),
     "bc.dirichlet[0]", "prescribes no component"),
    (lambda d: d["bc"].update(loads=[{"node": [5, 2], "fx": 0.1}]),
     "bc.loads[0].node", "outside the grid"),
    (lambda d: d["bc"].update(loads=[{"node": [2, 4], "fy": -1.0}]),
     "bc.loads[0].fy", "a load needs a free dof"),
    (lambda d: d["bc"]["dirichlet"].append({"edge": "bottom", "ux": 0.5}),
     "bc.dirichlet[2].ux", "conflicts with 0.0 from an earlier edge"),
    (lambda d: d["bc"]["dirichlet"][1].update(uy=0.0),
     "noise.snr", "observed response is identically zero"),
    (set_inclusion(shape="ellipse", center=[2.0, 2.0]),
     "phantom.inclusions[0]", "ellipse needs center"),
    (set_inclusion(shape="ellipse", center=[0.5, 2.0], radii=[1.0, 1.0]),
     "phantom.inclusions[0]", "ellipse extends outside the domain"),
    (set_inclusion(shape="rectangle", center=[2.0, 2.0], radii=[1.0, 1.0]),
     "phantom.inclusions[0].shape",
     "unknown inclusion shape 'rectangle'; the one shape is 'ellipse'"),
    (set_inclusion(shape="rectangle", x=[1.0, 2.0], y=[1.0, 2.0]),
     "phantom.inclusions[0]", "unknown keys in phantom.inclusions[0]: ['x', 'y']"),
    (set_inclusion(shape="triangle"),
     "phantom.inclusions[0].shape", "unknown inclusion shape"),
], ids=["inclusion_radii", "mesh_lx", "dirichlet_edge", "left_edge", "clamp_every_row",
        "no_clamp_without_load", "edge_without_component", "load_outside_grid",
        "load_on_prescribed_dof", "conflicting_dirichlet", "zero_response",
        "ellipse_without_radii", "ellipse_outside", "rectangle", "rectangle_extents",
        "unknown_shape"])
def test_cross_field_rule_exits_one_naming_key(edit, named, says, tmp_path, capsys):
    # RunConfig.validate reads most rules; the loads and the Dirichlet values
    # meet the mesh in build_bc, and the response is seen in generate_data
    d = small_dict()
    edit(d)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("elastovb: config error:") and "Traceback" not in err
    assert named in err and says in err
    assert not (tmp_path / "o" / "observations.json").exists()


def test_ellipse_marks_the_elements_whose_centers_lie_inside(tmp_path):
    # 4x4 unit elements, centers at 0.5, 1.5, 2.5, 3.5; the centers (1.5, 1.5)
    # and (2.5, 1.5) lie on the ellipse's boundary, which counts as inside
    d = small_dict()
    set_inclusion(shape="ellipse", center=[2.0, 1.5], radii=[0.5, 1.0])(d)
    d["bc"]["loads"] = [{"node": [4, 2], "fx": 0.05}]
    path = tmp_path / "ellipse.yaml"
    path.write_text(yaml.safe_dump(d))
    out = tmp_path / "o"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "true_field.csv", delimiter=",", skiprows=1)
    inside = {(int(ix), int(iy)) for ix, iy, value in rows if value == 1.0}
    assert inside == {(1, 1), (2, 1)}
    assert np.all(rows[:, 2][rows[:, 2] != 1.0] == 0.0)
    cfg = load_config(path)
    mesh = cfgmod.build_mesh(cfg)
    assert cfgmod.build_bc(cfg, mesh).tractions == [(2 * mesh.node_index(4, 2), 0.05)]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("keys,value", [
    (("phantom", "background"), NAN),
    (("phantom", "background"), INF),
    (("mu0",), NAN),
    (("clamp", "value"), NAN),
    (("solver", "b0"), NAN),
    (("mesh", "lx"), INF),
    (("bc", "dirichlet", 1, "uy"), NAN),
    (("solver", "b0"), -1.0),
    (("solver", "a0"), -1.0),
    (("solver", "lambda0_1"), INF),
    (("noise", "snr"), -INF),
    (("noise", "snr"), "x"),
    (("noise", "seed"), -1),
    (("validation", "seed"), -2),
    (("validation", "samples"), 1),
    (("solver", "max_bases"), -2),
    (("solver", "mu_max_outer"), -1),       # a removed key: named as removed
    (("solver", "mu_reg_delay"), -1),
    (("solver", "mu_max_halvings"), -1),    # a removed key: named as removed
    (("solver", "mu_call_budget"), -5),
    (("prior", "a_phi"), -1.0),
    (("prior", "b_phi"), -1.0),
], ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else str(p))
def test_bad_number_exits_one_naming_it(keys, value, tmp_path, capsys):
    # each used to end in a traceback, in exit 2, or in a run that went ahead
    # (a negative mean-phase count left mu at the flat field after one call)
    out = tmp_path / "o"
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(small_dict()))
    assert main(["generate", "--config", str(good), "--out", str(out)]) == 0
    d = small_dict()
    *parents, last = keys
    block = d
    for key in parents:
        block = block[key]
    block[last] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(d))
    named = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
    capsys.readouterr()
    for verb in ("generate", "invert"):
        assert main([verb, "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("elastovb: config error:") and "Traceback" not in err
        assert named in err


def test_unclamped_config_needs_a_nonzero_point_load():
    # a point load fixes the moduli's common factor that the prescribed
    # displacements leave free; a load with no nonzero component does not
    d = small_dict()
    d["clamp"]["top_element_rows"] = 0
    d["bc"]["loads"] = [{"node": [4, 2], "fx": 0.0, "fy": 0.0}]
    with pytest.raises(ConfigError, match="clamp.top_element_rows"):
        config_from_dict(d)
    d["bc"]["loads"][0]["fx"] = 0.05
    assert config_from_dict(d).clamp.top_element_rows == 0


def test_removed_output_formats_key_exits_one_as_unknown(small_cfg_path, tmp_path, capsys):
    # valid artifacts are in place, so only the key can stop invert and validate
    out = tmp_path / "fmt"
    assert main(["generate", "--config", str(small_cfg_path), "--out", str(out)]) == 0
    assert main(["invert", "--config", str(small_cfg_path), "--out", str(out)]) == 0
    d = yaml.safe_load(small_cfg_path.read_text())
    d["output"]["formats"] = ["csv", "json"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(d))
    capsys.readouterr()
    for verb in ("generate", "invert", "validate"):
        assert main([verb, "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("elastovb: config error:")
        assert "unknown keys in output: ['formats']" in err
    assert not (out / "is_report.json").exists()


DIRECTORY = object()      # the artifact replaced by a directory


def previous_schema(payload):
    return {**payload, "schema_version": cli.SCHEMA_VERSION - 1}


def forward_calls_true(trace):      # a field that only `report` reads
    return {**trace, "forward_calls": True}


def first_item(key, value):
    return lambda payload: {**payload, key: [value] + payload[key][1:]}


def in_state(corrupt):
    """`corrupt` applied to the run trace's state block."""
    return lambda trace: {**trace, "state": corrupt(trace["state"])}


@pytest.mark.parametrize("name,corrupt,named", [
    ("observations.json", lambda obs: [obs], "root must be a mapping"),
    ("observations.json", lambda obs: {**obs, "yhat": "abc"}, "yhat must be a list"),
    ("observations.json", lambda obs: {**obs, "tau_true": None},
     "tau_true must be a number, got None"),
    ("observations.json", lambda obs: {**obs, "tau_true": True},       # not tau = 1
     "tau_true must be a number, got True"),
    ("observations.json", lambda obs: {**obs, "tau_true": math.inf},   # exact data
     "tau_true must be finite"),
    ("observations.json", first_item("yhat", math.nan), "yhat[0] must be finite"),
    ("observations.json", first_item("yhat", True), "yhat[0] must be a number, got True"),
    ("observations.json", lambda obs: {**obs, "seed": "x"},
     "unknown keys in observations: ['seed']"),
    ("observations.json", previous_schema, ""),
    ("observations.json", DIRECTORY, ""),
    ("run_trace.json", lambda trace: [trace], "root must be a mapping"),
    ("run_trace.json", in_state(lambda st: {**st, "mu": "abc"}), "state.mu must be a list"),
    ("run_trace.json", in_state(lambda st: {**st, "a": None}),
     "state.a must be a number, got None"),
    ("run_trace.json", in_state(lambda st: {**st, "a": True}),
     "state.a must be a number, got True"),
    ("run_trace.json", in_state(first_item("mu", math.nan)), "state.mu[0] must be finite"),
    ("run_trace.json", in_state(first_item("mu", True)),
     "state.mu[0] must be a number, got True"),
    ("run_trace.json", in_state(lambda st: {**st, "tau": 1.0}),
     "unknown keys in state: ['tau']"),
    ("run_trace.json", in_state(lambda st: {**st, "lam": st["lam"][:-1]}),
     "posterior precisions"),
    ("run_trace.json", in_state(first_item("lam", -1.0)),
     "precisions lambda0 and lam must be positive"),
    ("run_trace.json", in_state(lambda st: {k: v for k, v in st.items() if k != "clamped"}),
     "state.clamped is required"),
    ("run_trace.json", in_state(lambda st: {**st, "clamped": [1.5]}),
     "state.clamped[0] must be an integer"),
    ("run_trace.json", in_state(lambda st: {**st, "clamped": [0]}),
     "nonzero rows at clamped elements"),
    ("run_trace.json", forward_calls_true, "forward_calls must be an integer, got True"),
    ("run_trace.json", previous_schema, ""),
    ("is_report.json", lambda report: {**report, "ess": True},
     "ess must be a number, got True"),
    ("is_report.json", previous_schema, ""),
], ids=["obs-root-list", "obs-yhat-text", "obs-tau_true-null", "obs-tau_true-bool",
        "obs-tau_true-infinite", "obs-yhat-nan", "obs-yhat-bool", "obs-seed-text",
        "obs-schema-previous", "obs-directory",
        "trace-root-list", "trace-mu-text", "trace-a-null", "trace-a-bool", "trace-mu-nan",
        "trace-mu-bool", "trace-state-unknown-key", "trace-lam-short", "trace-lam-negative",
        "trace-clamped-missing", "trace-clamped-fraction", "trace-clamped-basis-row",
        "trace-forward_calls-bool", "trace-schema-previous", "is-ess-bool",
        "is-schema-previous"])
def test_malformed_artifact_exits_one_or_is_reported(name, corrupt, named, small_cfg_path,
                                                     tmp_path, capsys):
    # an artifact of another schema version is refused by its version, not
    # by the first key it lacks (report printed "run trace unreadable:
    # 'failed'" for a trace written before mu_phase steps counted failures);
    # a value is read with the config reader's rules, and its error names
    # the dotted key (a boolean read as 1, and an unknown key passed unseen)
    out = tmp_path / "art"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    stages = ["generate", "invert"] + (["validate"] if name == "is_report.json" else [])
    for verb in stages:
        assert main([verb] + args) == 0
    path = out / name
    if corrupt is DIRECTORY:
        path.unlink()
        path.mkdir()
    else:
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    expected = [named] + ([f"schema_version {cli.SCHEMA_VERSION - 1}",
                           f"reads {cli.SCHEMA_VERSION}"] if corrupt is previous_schema else [])
    capsys.readouterr()
    readers = [] if corrupt is forward_calls_true else {
        "observations.json": ["invert", "validate"], "run_trace.json": ["validate"],
        "is_report.json": []}[name]
    for verb in readers:
        assert main([verb] + args) == 1
        err = capsys.readouterr().err
        assert str(path) in err and all(v in err for v in expected)
    assert main(["report", "--out", str(out)]) == 0
    what = {"observations.json": "observations", "run_trace.json": "run trace",
            "is_report.json": "IS report"}[name]
    text = capsys.readouterr().out
    unreadable = [line for line in text.splitlines() if "unreadable" in line]
    assert len(unreadable) == 1 and "KeyError" not in text
    assert unreadable[0].startswith(f"unreadable {what} {path}: ")
    assert all(v in unreadable[0] for v in expected)


def test_output_path_taken_by_a_file_exits_one(small_cfg_path, tmp_path, capsys):
    # mkdir on an existing file raised FileExistsError with a traceback
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    capsys.readouterr()
    assert main(["generate", "--config", str(small_cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("elastovb: error: cannot create output directory")
    assert str(out) in err


@pytest.mark.parametrize("name", ["run_trace.json", "is_report.json"])
def test_artifact_that_is_a_directory_exits_one_or_is_reported(name, small_cfg_path,
                                                                tmp_path, capsys):
    # a directory in an artifact's place is an unreadable artifact, as
    # malformed JSON is; reading it raised IsADirectoryError with a traceback
    out = tmp_path / "dir"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    for verb in ("generate", "invert", "validate"):
        assert main([verb] + args) == 0
    path = out / name
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    if name == "run_trace.json":
        assert main(["validate"] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("elastovb: error: unreadable run trace")
        assert str(path) in err
    assert main(["report", "--out", str(out)]) == 0
    what = "run trace" if name == "run_trace.json" else "IS report"
    assert f"unreadable {what} {path}: " in capsys.readouterr().out


@pytest.mark.parametrize("verb,name", [
    ("generate", "observations.json"), ("generate", "config.yaml"),
    ("invert", "run_trace.json"), ("invert", "posterior_mean.csv"),
    ("invert", "error.json"), ("validate", "is_weights.csv"),
])
def test_directory_in_an_artifacts_place_exits_one(verb, name, small_cfg_path, tmp_path,
                                                   capsys):
    # a verb meeting a directory where it writes an artifact raised
    # IsADirectoryError with a traceback, from the observation writer when
    # generating and from Path.unlink when removing a stale artifact
    out = tmp_path / "dirs"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    verbs = ["generate", "invert", "validate"]
    for earlier in verbs[:verbs.index(verb)]:
        assert main([earlier] + args) == 0
    path = out / name
    path.mkdir(parents=True)
    capsys.readouterr()
    assert main([verb] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("elastovb: error: cannot remove stale artifact")
    assert str(path) in err
    assert path.is_dir()


@pytest.mark.parametrize("value", [2.5, True], ids=["obs_dofs-fraction", "obs_dofs-bool"])
def test_observation_file_integer_exits_one_naming_it(value, small_cfg_path,
                                                       tmp_path, capsys):
    # integers in the observation file follow the config reader's rule: a
    # fraction or a boolean is refused, where int() used to truncate it
    out = tmp_path / "ints"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0
    path = out / "observations.json"
    obs = json.loads(path.read_text())
    obs["obs_dofs"][2] = value
    path.write_text(json.dumps(obs))
    capsys.readouterr()
    for verb in ("invert", "validate"):
        assert main([verb] + args) == 1
        assert "obs_dofs[2] must be an integer" in capsys.readouterr().err


def test_validate_refuses_observations_of_another_model(tmp_path, capsys):
    # a bottom edge that prescribes ux alone observes its uy as well: validate
    # must refuse the observations exactly as invert does, not weigh them
    # against the other model
    d = example1_dict()
    d["validation"]["samples"] = 20
    d["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "example1.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["invert", "--config", str(path)]) == 0
    d["bc"]["dirichlet"][0] = {"edge": "bottom", "ux": 0.0}
    other = tmp_path / "other.yaml"
    other.write_text(yaml.safe_dump(d))
    capsys.readouterr()
    for verb in ("invert", "validate"):
        assert main([verb, "--config", str(other)]) == 1
        assert "observation file does not match" in capsys.readouterr().err
    assert not (tmp_path / "out" / "is_report.json").exists()


def test_stages_refuse_observations_of_another_mesh(small_cfg_path, tmp_path, capsys):
    # 4x4 observations under a 5x5 config: both readers refuse them before
    # any stale artifact is removed
    out = tmp_path / "mesh"
    args = ["--out", str(out)]
    for verb in ("generate", "invert"):
        assert main([verb, "--config", str(small_cfg_path)] + args) == 0
    other = tmp_path / "five.yaml"
    other.write_text(yaml.safe_dump(small_dict(nx=5, ny=5)))
    capsys.readouterr()
    for verb in ("invert", "validate"):
        assert main([verb, "--config", str(other)] + args) == 1
        assert "observation file does not match" in capsys.readouterr().err
    assert (out / "run_trace.json").exists() and not (out / "is_report.json").exists()


def test_validate_refuses_a_trace_inverted_under_another_clamp_set(small_cfg_path, tmp_path,
                                                                   capsys):
    # a posterior inverted with one clamped row, weighed under a config that
    # clamps two, used to exit 0 and report moments over the other model's
    # free elements
    out = tmp_path / "clamp"
    args = ["--out", str(out)]
    assert main(["generate", "--config", str(small_cfg_path)] + args) == 0
    assert main(["invert", "--config", str(small_cfg_path)] + args) == 0
    d = small_dict()
    d["clamp"]["top_element_rows"] = 2
    other = tmp_path / "two_rows.yaml"
    other.write_text(yaml.safe_dump(d))
    capsys.readouterr()
    assert main(["validate", "--config", str(other)] + args) == 1
    assert ("run trace was inverted with elements [12, 13, 14, 15] clamped; the config "
            "clamps [8, 9, 10, 11, 12, 13, 14, 15]") in capsys.readouterr().err
    assert not (out / "is_report.json").exists()
    fewer = write_small_config(tmp_path / "fewer.yaml", validation={"samples": 20})
    assert main(["validate", "--config", str(fewer)] + args) == 0


def run_child(*args):
    """`python *args` in a child that imports the package under test."""
    src = str(Path(elastovb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(*args):
    """`python -m elastovb.cli` in a child that imports the package under test."""
    return run_child("-m", "elastovb.cli", *args)


@pytest.mark.parametrize("package", ["scipy.sparse", "scipy.special", "scipy", "numpy.ma"])
def test_package_import_leaves_scipy_sparse_unloaded(package, small_cfg_path, tmp_path):
    # the package calls LAPACK in numpy's own OpenBLAS and loads no scipy
    # module at all; scipy.linalg alone would double every process's import
    # time and resident memory (58 MB against 30 MB). np.median's NaN check
    # would import numpy.ma (1.3 MB); numpy.matrixlib loads with numpy, so
    # a package matches by name or dotted prefix only. The child runs every
    # verb in one interpreter, as the benchmark does.
    out = tmp_path / "footprint"
    proc = run_child("-c", f"""
import sys
from elastovb.cli import main
args = ["--config", {str(small_cfg_path)!r}, "--out", {str(out)!r}]
codes = [main([verb] + args) for verb in ("generate", "invert", "validate")]
codes.append(main(["report", "--out", {str(out)!r}]))
print(codes)
print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + "."!r})))
""")
    assert proc.returncode == 0, proc.stderr
    *_, codes, loaded = proc.stdout.strip().splitlines()
    assert codes == "[0, 0, 0, 0]"
    assert loaded == "[]"


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
    d["bc"]["dirichlet"] = [{"edge": "bottom", "ux": 0.0}]
    d["bc"]["loads"] = [{"node": [4, 4], "fy": -0.01}]
    cfg = config_from_dict(d)
    path = tmp_path / "sing.yaml"
    save_config(cfg, path)
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_failed_generate_leaves_no_earlier_artifacts(small_cfg_path, tmp_path, capsys):
    # a phantom whose modulus overflows fails its solve; the earlier run's
    # observations used to stay, and invert under the new config exited 0 on them
    out = tmp_path / "o"
    args = ["--out", str(out)]
    for verb in ("generate", "invert", "validate"):
        assert main([verb, "--config", str(small_cfg_path)] + args) == 0
    d = small_dict()
    d["phantom"]["inclusions"][0]["value"] = 800.0      # above mesh_fem.PSI_MAX
    bad = tmp_path / "overflow.yaml"
    bad.write_text(yaml.safe_dump(d))
    assert main(["generate", "--config", str(bad)] + args) == 2
    assert list(out.iterdir()) == []
    capsys.readouterr()
    assert main(["invert", "--config", str(bad)] + args) == 1
    assert f"missing {out / 'observations.json'};" in capsys.readouterr().err


def test_validate_numerical_failure_exits_two(small_cfg_path, tmp_path, monkeypatch, capsys):
    out = tmp_path / "val"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0

    def failing_run_is(state, model, yhat, M, seed):
        model.evaluate(state.mu)
        raise np.linalg.LinAlgError("posterior covariance not positive definite")

    monkeypatch.setattr("elastovb.cli.run_is", failing_run_is)
    capsys.readouterr()
    assert main(["validate"] + args) == 2
    assert "not positive definite" in capsys.readouterr().err
    error = json.loads((out / "error.json").read_text())
    assert error == {"schema_version": cli.SCHEMA_VERSION, "stage": "validate",
                     "type": "LinAlgError",
                     "error": "posterior covariance not positive definite",
                     "forward_calls": 1}
    assert not (out / "is_report.json").exists()


def test_validate_with_no_finite_weight_exits_two(small_cfg_path, tmp_path, monkeypatch,
                                                  capsys):
    # every importance solve fails: validate used to write a full report
    # (log_evidence -Infinity, zero weights) and then exit 2; now the one
    # exit-2 path writes error.json and no validation artifact
    out = tmp_path / "degenerate"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0

    def failing_solve(plan, psi):
        raise ForwardSolveError("injected failure")

    monkeypatch.setattr("elastovb.forward._solve_reduced", failing_solve)
    capsys.readouterr()
    assert main(["validate"] + args) == 2
    assert "no finite importance weight among 50 samples" in capsys.readouterr().err
    error = json.loads((out / "error.json").read_text())
    assert error["type"] == "DegenerateWeightsError" and error["forward_calls"] == 50
    assert not any((out / name).exists() for name in cli.VALIDATE_FILES)


def test_exact_fit_exits_two(tmp_path, capsys):
    # a flat phantom at mu0 with its noise-free response as the data fits at
    # the first call, so q(tau) has no rate under the improper noise prior: a
    # named numerical failure
    d = small_dict()
    d["phantom"]["inclusions"] = []
    path = tmp_path / "flat.yaml"
    path.write_text(yaml.safe_dump(d))
    args = ["--config", str(path), "--out", str(tmp_path / "o")]
    assert main(["generate"] + args) == 0
    obs_path = tmp_path / "o" / "observations.json"
    obs = json.loads(obs_path.read_text())
    yhat = clean_response(tmp_path / "o", obs["obs_dofs"]).tolist()
    obs_path.write_text(json.dumps({**obs, "yhat": yhat}))
    capsys.readouterr()
    assert main(["invert"] + args) == 2
    assert "set b0 > 0 (config key solver.b0)" in capsys.readouterr().err
    error = json.loads((tmp_path / "o" / "error.json").read_text())
    assert error["type"] == "NoisePrecisionError" and error["forward_calls"] == 1


def test_bug_in_a_solve_propagates_without_error_file(small_cfg_path, tmp_path, monkeypatch):
    # only named numerical failures exit 2; any other exception is a bug, and
    # used to be reported as one (exit 2, an error.json of its type)
    out = tmp_path / "bug"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0

    def broken_solve(plan, psi):
        raise NotImplementedError("injected bug")

    monkeypatch.setattr("elastovb.forward._solve_reduced", broken_solve)
    with pytest.raises(NotImplementedError, match="injected bug"):
        main(["invert"] + args)
    assert not (out / "error.json").exists()


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
