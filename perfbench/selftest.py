"""Tests of the benchmark itself.

The file name keeps it out of the repository's own test run.  From the
repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, _ in run.END_TO_END + run.REPORTED + run.PER_LAYER]
    names.append("forward.evaluate.p99_ms")
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_what_the_command_declares():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w for w, _ in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == run.PER_LAYER


def test_seed_reaches_the_is_seed_and_leaves_noise_and_solver_seeds():
    base = workloads.load_base(ROOT / "configs" / "example1.yaml")
    for name in workloads.WORKLOADS:
        a = workloads.workload_config(name, 7, base, "out")
        b = workloads.workload_config(name, 8, base, "out")
        assert (a["validation"]["seed"], b["validation"]["seed"]) == (7, 8)
        assert a["noise"]["seed"] == b["noise"]["seed"] == base["noise"]["seed"]
        assert a["solver"]["seed"] == b["solver"]["seed"] == base["solver"]["seed"]
    shipped = workloads.workload_config("example1", base["validation"]["seed"], base,
                                        base["output"]["directory"])
    assert shipped == base


def test_self_time_subtracts_direct_children_only():
    # ids start at 7: a later pipeline's slice of the recorder's list
    spans = [[7, -1, "cli.invert", 0.0, 10.0, 2, None],
             [8, 7, "driver.run", 1.0, 4.0, 2, None],
             [9, 8, "stiefel.optimize_W", 2.0, 3.0, 2, None],
             [10, 7, "config.load_config", 5.0, 6.0, 2, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.root_names(spans) == ["cli.invert"] * 4


def test_patched_restores_every_wrapped_name():
    hooks = [(tracing._resolve(t), attr) for t, attr, _, _ in tracing.LAYER_HOOKS]
    before = [getattr(owner, attr) for owner, attr in hooks]
    with tracing.patched(tracing.SpanRecorder(), tracing.ForwardTally()):
        assert all(getattr(o, a) is not f for (o, a), f in zip(hooks, before))
    assert all(getattr(o, a) is f for (o, a), f in zip(hooks, before))


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = _bench(["--workload", "example1", "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # includes the check that validate's IS seed is the benchmark seed
    assert result["correct"] and result["failed"] == 0, proc.stdout
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in listed]
    if not trace:
        for name, _ in run.END_TO_END + run.REPORTED:
            assert f"metric {name} " in proc.stdout


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench(["--workload", "example1", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
