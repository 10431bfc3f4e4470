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

from conftest import EXAMPLE1_YAML, example1_config, example1_dict


def load_observations(path):
    return cli._read_json(path, "observations", ObservationFile.from_dict)


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
    obs = load_observations(out / "observations.json")
    noise = obs.yhat - obs.y_clean
    snr = float(np.mean(obs.y_clean ** 2) / np.mean(noise ** 2))
    assert snr == pytest.approx(obs.snr_target, rel=0.35)
    assert obs.tau_true == pytest.approx(
        obs.snr_target / float(np.mean(obs.y_clean ** 2)), rel=1e-12)


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


def test_invert_max_bases_override(small_cfg_path, tmp_path):
    out = tmp_path / "cap"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    main(["generate"] + args)
    assert main(["invert"] + args + ["--max-bases", "1"]) == 0
    trace = json.loads((out / "run_trace.json").read_text())
    assert len(trace["state"]["lambda0"]) == 1
    assert trace["stop_reason"] == "max_bases"


def test_empty_basis_run_validates(small_cfg_path, tmp_path):
    # at d_theta = 0 every sample is the mean: equal weights and no spread
    out = tmp_path / "d0"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args + ["--max-bases", "0"]) == 0
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
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args + ["--max-bases", "0"]) == 0
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
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    main(["generate"] + args)
    assert main(["invert"] + args + ["--max-bases", "-2"]) == 1
    assert main(["generate"] + args + ["--seed", "-1"]) == 1
    assert main(["invert"] + args) == 0
    assert main(["validate"] + args + ["--seed", "-1"]) == 1
    assert main(["validate"] + args + ["--samples", "1"]) == 1
    assert main(["generate"] + args + ["--snr", "x"]) == 1


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
    (lambda d: ["--snr", "inf"], "noise.snr", "must be finite and positive, got inf"),
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
        "load_on_prescribed_dof", "conflicting_dirichlet", "zero_response", "snr_flag_inf",
        "ellipse_without_radii", "ellipse_outside", "rectangle", "rectangle_extents",
        "unknown_shape"])
def test_cross_field_rule_exits_one_naming_key(edit, named, says, tmp_path, capsys):
    # RunConfig.validate reads most rules; the loads and the Dirichlet values
    # meet the mesh in build_bc, and the response is seen in generate_data.
    # An edit may return flags for generate: --snr is checked by the same rules
    d = small_dict()
    flags = edit(d) or []
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]
                + flags) == 1
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
    (("noise", "seed"), -1),
    (("validation", "seed"), -2),
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


@pytest.mark.parametrize("name,corrupt", [
    ("observations.json", lambda obs: [obs]),
    ("observations.json", lambda obs: {**obs, "seed": "x"}),
    ("observations.json", lambda obs: {**obs, "yhat": "abc"}),
    ("observations.json", lambda obs: {**obs, "tau_true": None}),
    ("observations.json", lambda obs: {**obs, "tau_true": math.inf}),   # exact data
    ("observations.json", lambda obs: {**obs, "yhat": [math.nan] + obs["yhat"][1:]}),
    ("observations.json", previous_schema),
    ("observations.json", DIRECTORY),
    ("run_trace.json", lambda trace: [trace]),
    ("run_trace.json", lambda trace: {**trace, "state": {**trace["state"], "mu": "abc"}}),
    ("run_trace.json", lambda trace: {**trace, "state": {**trace["state"], "a": None}}),
    ("run_trace.json", lambda trace: {**trace, "state": {
        **trace["state"], "mu": [math.nan] + trace["state"]["mu"][1:]}}),
    ("run_trace.json", lambda trace: {**trace, "state": {
        **trace["state"], "lam": trace["state"]["lam"][:-1]}}),
    ("run_trace.json", lambda trace: {**trace, "state": {
        **trace["state"], "lam": [-1.0] + trace["state"]["lam"][1:]}}),
    ("run_trace.json", lambda trace: {**trace, "state": {
        k: v for k, v in trace["state"].items() if k != "clamped"}}),
    ("run_trace.json", lambda trace: {**trace, "state": {**trace["state"], "clamped": [1.5]}}),
    ("run_trace.json", lambda trace: {**trace, "state": {**trace["state"], "clamped": [0]}}),
    ("run_trace.json", previous_schema),
    ("is_report.json", previous_schema),
], ids=["obs-root-list", "obs-seed-text", "obs-yhat-text", "obs-tau_true-null",
        "obs-tau_true-infinite", "obs-yhat-nan", "obs-schema-previous", "obs-directory",
        "trace-root-list", "trace-mu-text", "trace-a-null", "trace-mu-nan",
        "trace-lam-short", "trace-lam-negative", "trace-clamped-missing",
        "trace-clamped-fraction", "trace-clamped-basis-row", "trace-schema-previous",
        "is-schema-previous"])
def test_malformed_artifact_exits_one_or_is_reported(name, corrupt, small_cfg_path,
                                                     tmp_path, capsys):
    # an artifact of another schema version is refused by its version, not
    # by the first key it lacks (report printed "run trace unreadable:
    # 'failed'" for a trace written before mu_phase steps counted failures)
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
    versions = ([f"schema_version {cli.SCHEMA_VERSION - 1}", f"reads {cli.SCHEMA_VERSION}"]
                if corrupt is previous_schema else [])
    capsys.readouterr()
    readers = {"observations.json": ["invert", "validate"], "run_trace.json": ["validate"],
               "is_report.json": []}[name]
    for verb in readers:
        assert main([verb] + args) == 1
        err = capsys.readouterr().err
        assert str(path) in err and all(v in err for v in versions)
    assert main(["report", "--out", str(out)]) == 0
    what = {"observations.json": "observations", "run_trace.json": "run trace",
            "is_report.json": "IS report"}[name]
    text = capsys.readouterr().out
    unreadable = [line for line in text.splitlines() if "unreadable" in line]
    assert len(unreadable) == 1 and "KeyError" not in text
    assert unreadable[0].startswith(f"unreadable {what} {path}: ")
    assert all(v in unreadable[0] for v in versions)


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


@pytest.mark.parametrize("key,value", [
    ("seed", lambda obs: 1.5),
    ("seed", lambda obs: True),
    ("obs_dofs[2]", lambda obs: obs["obs_dofs"][2] + 0.5),
], ids=["seed-fraction", "seed-bool", "obs_dofs-fraction"])
def test_observation_file_integer_exits_one_naming_it(key, value, small_cfg_path,
                                                       tmp_path, capsys):
    # integers in the observation file follow the config reader's rule: a
    # fraction or a boolean is refused, where int() used to truncate it
    out = tmp_path / "ints"
    args = ["--config", str(small_cfg_path), "--out", str(out)]
    assert main(["generate"] + args) == 0
    assert main(["invert"] + args) == 0
    path = out / "observations.json"
    obs = json.loads(path.read_text())
    if key.startswith("obs_dofs"):
        obs["obs_dofs"][2] = value(obs)
    else:
        obs[key] = value(obs)
    path.write_text(json.dumps(obs))
    capsys.readouterr()
    for verb in ("invert", "validate"):
        assert main([verb] + args) == 1
        assert f"{key} must be an integer" in capsys.readouterr().err


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
    assert main(["validate", "--config", str(small_cfg_path), "--samples", "20"] + args) == 0


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
    obs_path.write_text(json.dumps({**obs, "yhat": obs["y_clean"]}))
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
