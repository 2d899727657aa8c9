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
"""

from __future__ import annotations

from dataclasses import dataclass
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
_SYNTH_KEYS = {"kind", "task", "nodes", "classes", "features", "p_intra",
               "p_inter", "mean_scale", "noise"}
_TWO_REGIME_KEYS = {"kind", "task", "clients_per_regime", "nodes_per_client",
                    "classes", "features", "p_intra_a", "p_inter_a",
                    "p_intra_b", "p_inter_b", "mean_scale", "noise"}
_FILE_KEYS = {"kind", "task", "path"}
_PARTITION_KEYS = {"scheme", "clients"}
_HYPER_KEYS = {"T", "E", "K", "k_node", "k_struct", "lambda1", "lambda2",
               "lr", "d_z", "h", "w_max"}
_ABLATION_KEYS = {"semantic", "structural"}
_SCHEMES = ("nonoverlap", "overlap")


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    return obj

def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _get_int(obj: dict, key: str, default, where: str) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _get_float(obj: dict, key: str, default, where: str) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return float(value)


def _get_bool(obj: dict, key: str, default, where: str) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _get_str(obj: dict, key: str, default, where: str, choices=None) -> str:
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{where}.{key} must be one of {tuple(choices)}, got {value!r}")
    return value


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
    kind = _get_str(obj, "kind", None, where) if "kind" in obj else None
    if kind is None:
        raise ConfigError(f"{where}.kind is required")
    task = _get_str(obj, "task", "multiclass", where, choices=TASKS)
    if kind == "synthetic":
        _reject_unknown(obj, _SYNTH_KEYS, where)
        parsed = {
            "kind": kind, "task": task,
            "nodes": _get_int(obj, "nodes", 600, where),
            "classes": _get_int(obj, "classes", 4, where),
            "features": _get_int(obj, "features", 8, where),
            "p_intra": _get_float(obj, "p_intra", 0.05, where),
            "p_inter": _get_float(obj, "p_inter", 0.01, where),
            "mean_scale": _get_float(obj, "mean_scale", 2.0, where),
            "noise": _get_float(obj, "noise", 1.0, where),
        }
    elif kind == "two-regime":
        _reject_unknown(obj, _TWO_REGIME_KEYS, where)
        parsed = {
            "kind": kind, "task": task,
            "clients_per_regime": _get_int(obj, "clients_per_regime", 5, where),
            "nodes_per_client": _get_int(obj, "nodes_per_client", 150, where),
            "classes": _get_int(obj, "classes", 4, where),
            "features": _get_int(obj, "features", 8, where),
            "p_intra_a": _get_float(obj, "p_intra_a", 0.10, where),
            "p_inter_a": _get_float(obj, "p_inter_a", 0.01, where),
            "p_intra_b": _get_float(obj, "p_intra_b", 0.01, where),
            "p_inter_b": _get_float(obj, "p_inter_b", 0.10, where),
            "mean_scale": _get_float(obj, "mean_scale", 2.0, where),
            "noise": _get_float(obj, "noise", 1.0, where),
        }
        if parsed["clients_per_regime"] < 1:
            raise ConfigError(f"{where}.clients_per_regime must be >= 1")
    elif kind == "file":
        _reject_unknown(obj, _FILE_KEYS, where)
        if "path" not in obj:
            raise ConfigError(f"{where}.path is required for kind 'file'")
        parsed = {"kind": kind, "task": task, "path": _get_str(obj, "path", None, where)}
    else:
        raise ConfigError(f"{where}.kind must be synthetic, two-regime or file,"
                          f" got {kind!r}")
    if task == "binary-auc" and parsed.get("classes", 2) != 2:
        raise ConfigError(f"{where}: binary-auc task requires exactly 2 classes,"
                          f" got classes: {parsed['classes']}")
    return parsed


def _parse_partition(obj, where: str = "partition") -> PartitionSpec:
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, _PARTITION_KEYS, where)
    scheme = _get_str(obj, "scheme", "nonoverlap", where, choices=_SCHEMES)
    clients = _get_int(obj, "clients", 10, where)
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
    _reject_unknown(hyper, _HYPER_KEYS, "hyperparams")
    ablations = _require_mapping(raw.get("ablations", {}), "ablations")
    _reject_unknown(ablations, _ABLATION_KEYS, "ablations")
    method = _get_str(raw, "method", "fedssa", where, choices=METHODS)
    run = RunConfig(
        method=method,
        rounds=_get_int(hyper, "T", 50, "hyperparams"),
        epochs=_get_int(hyper, "E", 3, "hyperparams"),
        order=_get_int(hyper, "K", 6, "hyperparams"),
        k_node=_get_int(hyper, "k_node", 3, "hyperparams"),
        k_struct=_get_int(hyper, "k_struct", 2, "hyperparams"),
        lambda1=_get_float(hyper, "lambda1", 1e-3, "hyperparams"),
        lambda2=_get_float(hyper, "lambda2", 1e-3, "hyperparams"),
        lr=_get_float(hyper, "lr", 0.01, "hyperparams"),
        latent_dim=_get_int(hyper, "d_z", 8, "hyperparams"),
        hidden=_get_int(hyper, "h", 32, "hyperparams"),
        w_max=_get_float(hyper, "w_max", 5.0, "hyperparams"),
        semantic=_get_bool(ablations, "semantic", True, "ablations"),
        structural=_get_bool(ablations, "structural", True, "ablations"),
    )
    run.validate()
    seed = _get_int(raw, "seed", 0, where)
    out_dir = _get_str(raw, "out_dir", "runs/out", where)
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
