"""Benchmark workloads: the shipped example1 configuration and two variants.

Each workload is a function of the shipped `configs/example1.yaml` and the
benchmark seed.  The seed reaches the importance-sampling seed only.  The noise
realization and the solver seed stay at their shipped values, because the
numbers each workload exists to show are defined on them (21 forward calls on
example1; 34 calls with 8 overflow failures on noisy10) and because other
values move the measured work by more than any bound the benchmark could hold
(see README.md, "Why the seed reaches only the IS seed").
"""

from __future__ import annotations

import copy

import yaml

# name -> (one-line reason, changes applied to the shipped configuration)
WORKLOADS: dict[str, tuple[str, dict]] = {
    "example1": (
        "paper benchmark as shipped: Stiefel basis phase dominates invert, "
        "1000 cheap forward calls dominate validate",
        {},
    ),
    "mesh20": (
        "same phantom on a 20x20 mesh: dense adjoint temporary and per-sweep "
        "Gram grow with the mesh",
        {"mesh": {"nx": 20, "ny": 20}, "validation": {"samples": 75}},
    ),
    "noisy10": (
        "example1 at SNR 1e2: mean phase overflows and halves, ESS collapses, "
        "forward calls near the gate",
        {"noise": {"snr": 100.0}},
    ),
}

# Checks that only hold on one workload (criterion 1 is defined on example1).
CALL_GATE = {"example1": 40}
D_THETA_RANGE = {"example1": (5, 12)}


def load_base(path) -> dict:
    with open(path) as fh:
        return yaml.safe_load(fh)


def workload_config(name: str, seed: int, base: dict, out_dir: str) -> dict:
    """Configuration dict for one workload at one benchmark seed."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    cfg = copy.deepcopy(base)
    for block, values in WORKLOADS[name][1].items():
        cfg[block].update(values)
    cfg["validation"]["seed"] = int(seed)
    cfg["output"]["directory"] = str(out_dir)
    return cfg
