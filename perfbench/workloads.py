"""Workload definitions: one fedssa YAML config per workload.

Every workload is a plain config mapping that the worker writes to disk
and loads through `fedssa.config.load_config`, so the program sees exactly
what a user of `fedssa run --config` would give it. The benchmark's
`--seed` becomes the config's `seed`, which drives data synthesis,
partitioning and training alike.

Per workload, `setup_reps` is how many times one repeat builds the dataset
(setup_s is the median over all of them), `repeat_s` is the nominal time
of one repeat, from which the run length sets a fixed repeat count, and
`smoke_rounds` replaces T in smoke mode.
"""

from __future__ import annotations

import copy

# The README quick-start hyperparameters; the two graph workloads reuse them
# so that only graph size and client count differ between workloads.
_HYPER = {"T": 50, "E": 2, "K": 3, "k_node": 2, "k_struct": 2,
          "lambda1": 1.0e-3, "lambda2": 1.0e-3, "lr": 0.15, "d_z": 8, "h": 16}

WORKLOADS = {
    # The README quick start: 10 clients x 150 nodes from two planted
    # regimes, 50 rounds. Client training and server work are both visible.
    "quickstart": {
        "config": {
            "dataset": {"kind": "two-regime", "clients_per_regime": 5,
                        "nodes_per_client": 150, "classes": 4, "features": 24,
                        "p_intra_a": 0.10, "p_inter_a": 0.01,
                        "p_intra_b": 0.01, "p_inter_b": 0.10,
                        "mean_scale": 1.0, "noise": 1.0},
            "method": "fedssa",
            "hyperparams": dict(_HYPER),
        },
        "setup_reps": 9,
        "repeat_s": 15.0,
        "smoke_rounds": 2,
    },
    # One 4,800-node SBM split into 4 disjoint clients of 1,200 nodes:
    # local training on large dense tapes dominates time and memory.
    "large-graph": {
        "config": {
            "dataset": {"kind": "synthetic", "nodes": 4800, "classes": 4,
                        "features": 24, "p_intra": 0.006, "p_inter": 0.0012,
                        "mean_scale": 1.0, "noise": 1.0},
            "partition": {"scheme": "nonoverlap", "clients": 4},
            "method": "fedssa",
            "hyperparams": dict(_HYPER, T=4),
        },
        "setup_reps": 1,
        "repeat_s": 7.5,
        "smoke_rounds": 1,
    },
    # One 3,000-node SBM split by the overlapping scheme into 100 clients
    # of 75 nodes: per-op Python overhead, O(M^2) server loops and the
    # O(M*|E|) partitioner dominate. mean_scale is the synthetic default
    # 2.0: at 1.0, accuracy after a few rounds swings by several points with
    # the seed's class means, which would hide a change in results.
    "many-clients": {
        "config": {
            "dataset": {"kind": "synthetic", "nodes": 3000, "classes": 4,
                        "features": 24, "p_intra": 0.02, "p_inter": 0.002,
                        "mean_scale": 2.0, "noise": 1.0},
            "partition": {"scheme": "overlap", "clients": 100},
            "method": "fedssa",
            "hyperparams": dict(_HYPER, T=5),
        },
        "setup_reps": 1,
        "repeat_s": 15.0,
        "smoke_rounds": 1,
    },
}


def repeat_count(name: str, seconds: float) -> int:
    """Repeats that fill about `seconds`; fixed per workload, so every run
    of a workload attempts the same operations whatever the machine speed."""
    return max(1, round(seconds / WORKLOADS[name]["repeat_s"]))


def workload_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The config mapping for one workload run, with the seed filled in."""
    spec = WORKLOADS[name]
    cfg = copy.deepcopy(spec["config"])
    cfg["seed"] = int(seed)
    if smoke:
        cfg["hyperparams"]["T"] = spec["smoke_rounds"]
    return cfg
