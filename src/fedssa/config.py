"""Experiment configuration: strict YAML schema and dataset assembly.

Configs are YAML mappings validated key by key; any unknown key fails fast
with its name so typos cannot silently fall back to defaults. The dataset
section supports three kinds:

  synthetic   one stochastic block model graph, partitioned into clients
              per the partition section (nonoverlap or overlap scheme).
  two-regime  per-client graphs drawn directly from two planted regimes
              (distinct class means and distinct intra/inter edge
              probabilities); no partition section.
  file        a saved graph JSON (partitioned per the partition section)
              or a saved dataset directory with manifest.json.

Each section's keys, types and defaults are stated once: a table per
dataset kind and for the partition, and for hyperparams and ablations a map
onto `RunConfig` fields, so an omitted hyperparams or ablations key takes
the `RunConfig` field default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError
from .federation import METHODS, RunConfig
from .graphs import (FederationDataset, LocalGraph, SynthSpec, TASKS, load_dataset,
                     load_graph, partition_nonoverlap, partition_overlap,
                     synth_dataset)
from .rng import spawn_key, stream

_TOP_KEYS = {"dataset", "partition", "method", "hyperparams", "ablations",
             "seed", "out_dir"}
# Each dataset kind's keys besides kind and task, with their defaults; a
# default of None marks a required string.
_DATASET_KEYS = {
    "synthetic": {"nodes": 600, "classes": 4, "features": 8, "p_intra": 0.05,
                  "p_inter": 0.01, "mean_scale": 2.0, "noise": 1.0},
    "two-regime": {"clients_per_regime": 5, "nodes_per_client": 150, "classes": 4,
                   "features": 8, "p_intra_a": 0.10, "p_inter_a": 0.01,
                   "p_intra_b": 0.01, "p_inter_b": 0.10, "mean_scale": 2.0,
                   "noise": 1.0},
    "file": {"path": None},
}
_PARTITION_KEYS = {"scheme": "nonoverlap", "clients": 10}
# hyperparams key -> RunConfig field; ablation keys are RunConfig fields
_HYPER_FIELDS = {"T": "rounds", "E": "epochs", "K": "order", "k_node": "k_node",
                 "k_struct": "k_struct", "lambda1": "lambda1", "lambda2": "lambda2",
                 "lr": "lr", "d_z": "latent_dim", "h": "hidden", "w_max": "w_max"}
_ABLATION_KEYS = ("semantic", "structural")
_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_SCHEMES = ("nonoverlap", "overlap")
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    return obj

def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj).difference(allowed), key=lambda k: (type(k).__name__, str(k)))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _get(obj: dict, key: str, default, where: str, kind=None, choices=None):
    """obj[key], or default when absent, checked against kind (the type of
    default unless given). An integer passes as a number and comes back as a
    float; a bool passes only as a bool."""
    value = obj.get(key, default)
    kind = kind or type(default)
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)):
        raise ConfigError(f"{where}.{key} must be {_EXPECTED[kind]}, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{where}.{key} must be one of {tuple(choices)}, got {value!r}")
    return float(value) if kind is float else value


@dataclass(frozen=True)
class PartitionSpec:
    scheme: str
    clients: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one CLI invocation needs, parsed and validated."""

    dataset: dict
    partition: Optional[PartitionSpec]
    run: RunConfig
    seed: int
    out_dir: str


def _parse_dataset(obj, where: str = "dataset") -> dict:
    obj = _require_mapping(obj, where)
    if "kind" not in obj:
        raise ConfigError(f"{where}.kind is required")
    kind = _get(obj, "kind", None, where, str)
    task = _get(obj, "task", "multiclass", where, choices=TASKS)
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"{where}.kind must be synthetic, two-regime or file,"
                          f" got {kind!r}")
    _reject_unknown(obj, {"kind", "task", *_DATASET_KEYS[kind]}, where)
    parsed = {"kind": kind, "task": task}
    for key, default in _DATASET_KEYS[kind].items():
        if default is None and key not in obj:
            raise ConfigError(f"{where}.{key} is required for kind {kind!r}")
        parsed[key] = _get(obj, key, default, where, str if default is None else None)
    if parsed.get("clients_per_regime", 1) < 1:
        raise ConfigError(f"{where}.clients_per_regime must be >= 1")
    if task == "binary-auc" and parsed.get("classes", 2) != 2:
        raise ConfigError(f"{where}: binary-auc task requires exactly 2 classes,"
                          f" got classes: {parsed['classes']}")
    return parsed


def _parse_partition(obj, where: str = "partition") -> PartitionSpec:
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, _PARTITION_KEYS, where)
    scheme = _get(obj, "scheme", _PARTITION_KEYS["scheme"], where, choices=_SCHEMES)
    clients = _get(obj, "clients", _PARTITION_KEYS["clients"], where)
    if clients < 2:
        raise ConfigError(f"{where}.clients must be >= 2, got {clients}")
    return PartitionSpec(scheme=scheme, clients=clients)


def parse_config(raw, where: str = "config") -> ExperimentConfig:
    raw = _require_mapping(raw, where)
    _reject_unknown(raw, _TOP_KEYS, where)
    if "dataset" not in raw:
        raise ConfigError(f"{where}.dataset is required")
    dataset = _parse_dataset(raw["dataset"])
    partition = _parse_partition(raw["partition"]) if "partition" in raw else None
    if dataset["kind"] == "two-regime" and partition is not None:
        raise ConfigError("two-regime datasets define their own clients;"
                          " remove the partition section")
    hyper = _require_mapping(raw.get("hyperparams", {}), "hyperparams")
    _reject_unknown(hyper, _HYPER_FIELDS, "hyperparams")
    ablations = _require_mapping(raw.get("ablations", {}), "ablations")
    _reject_unknown(ablations, _ABLATION_KEYS, "ablations")
    values = {"method": _get(raw, "method", _RUN_DEFAULTS["method"], where,
                             choices=METHODS)}
    for key, name in _HYPER_FIELDS.items():
        values[name] = _get(hyper, key, _RUN_DEFAULTS[name], "hyperparams")
    for name in _ABLATION_KEYS:
        values[name] = _get(ablations, name, _RUN_DEFAULTS[name], "ablations")
    run = RunConfig(**values)
    run.validate()
    seed = _get(raw, "seed", 0, where)
    out_dir = _get(raw, "out_dir", "runs/out", where)
    return ExperimentConfig(dataset=dataset, partition=partition, run=run,
                            seed=seed, out_dir=out_dir)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    return parse_config(raw, where=str(path))


def synth_spec_from(dataset: dict) -> SynthSpec:
    if dataset["kind"] != "synthetic":
        raise ConfigError("dataset.kind must be 'synthetic' for this command")
    return SynthSpec(num_nodes=dataset["nodes"], num_classes=dataset["classes"],
                     feature_dim=dataset["features"], p_intra=dataset["p_intra"],
                     p_inter=dataset["p_inter"], mean_scale=dataset["mean_scale"],
                     noise=dataset["noise"])


def two_regime_federation(dataset: dict, seed: int) -> FederationDataset:
    """Per-client graphs from two planted regimes.

    Both regimes share the label set but draw their own class means and
    their own edge densities; clients 0..R-1 belong to regime A and clients
    R..2R-1 to regime B.
    """
    c, d = dataset["classes"], dataset["features"]
    per = dataset["clients_per_regime"]
    mean_rng = stream(seed, "two-regime-means")
    means = [dataset["mean_scale"] * mean_rng.standard_normal((c, d)) for _ in range(2)]
    densities = [(dataset["p_intra_a"], dataset["p_inter_a"]),
                 (dataset["p_intra_b"], dataset["p_inter_b"])]
    clients = []
    for i in range(2 * per):
        regime = 0 if i < per else 1
        p_intra, p_inter = densities[regime]
        spec = SynthSpec(num_nodes=dataset["nodes_per_client"], num_classes=c,
                         feature_dim=d, p_intra=p_intra, p_inter=p_inter,
                         noise=dataset["noise"], class_means=means[regime])
        clients.append(synth_dataset(spec, spawn_key(seed, "regime-client", i)))
    maps = tuple(np.arange(g.n) for g in clients)
    return FederationDataset(tuple(clients), c, d, dataset["task"], maps, 0)


def build_global_graph(cfg: ExperimentConfig, seed: int) -> LocalGraph:
    dataset = cfg.dataset
    if dataset["kind"] == "synthetic":
        return synth_dataset(synth_spec_from(dataset), seed)
    if dataset["kind"] == "file":
        path = Path(dataset["path"])
        if path.is_dir():
            raise ConfigError(f"{path} is a dataset directory, not a single graph")
        return load_graph(path)
    raise ConfigError(f"dataset kind {dataset['kind']!r} does not define a global graph")


def build_dataset(cfg: ExperimentConfig, seed: int) -> FederationDataset:
    """Materialize the federation the config describes, deterministically."""
    dataset = cfg.dataset
    if dataset["kind"] == "two-regime":
        return two_regime_federation(dataset, seed)
    if dataset["kind"] == "file":
        path = Path(dataset["path"])
        if path.is_dir():
            if cfg.partition is not None:
                raise ConfigError("a saved dataset directory is already partitioned;"
                                  " remove the partition section")
            return load_dataset(path)
    if cfg.partition is None:
        raise ConfigError("a partition section is required for this dataset kind")
    graph = build_global_graph(cfg, seed)
    if cfg.partition.scheme == "overlap":
        return partition_overlap(graph, cfg.partition.clients, seed, dataset["task"])
    return partition_nonoverlap(graph, cfg.partition.clients, seed, dataset["task"])
