"""Config schema checks: strict key rejection, typed getters, defaults, and
dataset assembly for all three dataset kinds."""

import copy
import re
from dataclasses import fields

import numpy as np
import pytest
import yaml

from fedssa.config import (_HYPER_FIELDS, build_dataset, build_global_graph,
                           load_config, parse_config, synth_spec_from,
                           two_regime_federation)
from fedssa.errors import ConfigError
from fedssa.federation import RunConfig
from fedssa.graphs import save_dataset


def _minimal(**overrides) -> dict:
    raw = {"dataset": {"kind": "synthetic"}}
    raw.update(overrides)
    return raw


def _small_synth(**dataset_overrides) -> dict:
    dataset = {"kind": "synthetic", "nodes": 40, "classes": 2, "features": 6,
               "p_intra": 0.3, "p_inter": 0.05}
    dataset.update(dataset_overrides)
    return {"dataset": dataset, "partition": {"scheme": "nonoverlap", "clients": 2}}


# --- parsing ---------------------------------------------------------------------


def test_defaults():
    cfg = parse_config(_minimal())
    run = cfg.run
    assert (run.rounds, run.epochs, run.order) == (50, 3, 6)
    assert (run.k_node, run.k_struct) == (3, 2)
    assert run.lambda1 == run.lambda2 == 1e-3
    assert run.lr == 0.01
    assert (run.latent_dim, run.hidden) == (8, 32)
    assert run.w_max == 5.0
    assert run.method == "fedssa"
    assert run.semantic and run.structural
    assert cfg.seed == 0
    assert cfg.out_dir == "runs/out"
    assert cfg.partition is None
    assert cfg.dataset["nodes"] == 600


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="'outdir'"):
        parse_config(_minimal(outdir="x"))
    with pytest.raises(ConfigError, match="'n_nodes'"):
        parse_config({"dataset": {"kind": "synthetic", "n_nodes": 5}})
    with pytest.raises(ConfigError, match="'rounds'"):
        parse_config(_minimal(hyperparams={"rounds": 5}))
    with pytest.raises(ConfigError, match="'node'"):
        parse_config(_minimal(ablations={"node": False}))
    with pytest.raises(ConfigError, match="'parts'"):
        parse_config(_minimal(partition={"parts": 4}))


def test_unknown_keys_of_mixed_types_are_named():
    with pytest.raises(ConfigError, match="unknown key 1 in hyperparams"):
        parse_config({"dataset": {"kind": "synthetic"}, "hyperparams": {1: 2, "foo": 3}})
    with pytest.raises(ConfigError, match="unknown key 10 in hyperparams"):
        parse_config({"dataset": {"kind": "synthetic"}, "hyperparams": {2: 1, 10: 1}})


def test_typed_getters_reject_wrong_types():
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(_minimal(hyperparams={"T": "many"}))
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(_minimal(hyperparams={"T": True}))
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(_minimal(hyperparams={"lr": "fast"}))
    with pytest.raises(ConfigError, match="must be true or false"):
        parse_config(_minimal(ablations={"semantic": 1}))
    with pytest.raises(ConfigError, match="must be a string"):
        parse_config(_minimal(method=3))
    with pytest.raises(ConfigError, match="must be a mapping"):
        parse_config(_minimal(dataset=[1, 2]))
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(_minimal(seed="zero"))


def test_dataset_kind_requirements():
    with pytest.raises(ConfigError, match="kind is required"):
        parse_config({"dataset": {}})
    with pytest.raises(ConfigError, match="synthetic, two-regime or file"):
        parse_config({"dataset": {"kind": "citation"}})
    with pytest.raises(ConfigError, match="path is required"):
        parse_config({"dataset": {"kind": "file"}})
    with pytest.raises(ConfigError, match="task"):
        parse_config({"dataset": {"kind": "synthetic", "task": "regression"}})


@pytest.mark.parametrize("kind", ["synthetic", "two-regime"])
def test_binary_auc_needs_two_classes(kind):
    with pytest.raises(ConfigError, match="binary-auc task requires exactly 2 classes"):
        parse_config({"dataset": {"kind": kind, "task": "binary-auc", "classes": 3}})
    cfg = parse_config({"dataset": {"kind": kind, "task": "binary-auc", "classes": 2}})
    assert cfg.dataset["task"] == "binary-auc"


def test_two_regime_forbids_partition():
    raw = {"dataset": {"kind": "two-regime"},
           "partition": {"scheme": "nonoverlap", "clients": 4}}
    with pytest.raises(ConfigError, match="remove the partition section"):
        parse_config(raw)


def test_partition_validation():
    with pytest.raises(ConfigError, match="clients must be >= 2"):
        parse_config(_minimal(partition={"clients": 1}))
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(_minimal(partition={"scheme": "random"}))
    cfg = parse_config(_minimal(partition={}))
    assert cfg.partition.scheme == "nonoverlap"
    assert cfg.partition.clients == 10


def test_method_choices():
    with pytest.raises(ConfigError, match="method"):
        parse_config(_minimal(method="gossip"))
    assert parse_config(_minimal(method="fedavg")).run.method == "fedavg"


def test_invalid_hyperparams_rejected_by_run_validation():
    with pytest.raises(ConfigError, match="k_node"):
        parse_config(_minimal(hyperparams={"k_node": 0}))
    with pytest.raises(ConfigError, match="lr"):
        parse_config(_minimal(hyperparams={"lr": -0.1}))


def test_w_max_below_the_identity_start_is_rejected():
    # the filter starts at w = e_0, so a box bound below 1 excludes the start
    with pytest.raises(ConfigError, match="w_max must be >= 1"):
        parse_config(_minimal(hyperparams={"w_max": 0.5}))
    assert parse_config(_minimal(hyperparams={"w_max": 1.0})).run.w_max == 1.0


def test_load_config_file_handling(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("dataset: [unclosed\n")
    with pytest.raises(ConfigError, match="could not parse"):
        load_config(bad)
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(_small_synth() | {"seed": 7}))
    cfg = load_config(good)
    assert cfg.seed == 7
    assert cfg.dataset["nodes"] == 40


# --- every key of every section ---------------------------------------------------

_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
# what an omitted dataset key parses to, per kind, in the parsed dict's order
_DATASET_DEFAULTS = {
    "synthetic": {"kind": "synthetic", "task": "multiclass", "nodes": 600,
                  "classes": 4, "features": 8, "p_intra": 0.05, "p_inter": 0.01,
                  "mean_scale": 2.0, "noise": 1.0},
    "two-regime": {"kind": "two-regime", "task": "multiclass",
                   "clients_per_regime": 5, "nodes_per_client": 150, "classes": 4,
                   "features": 8, "p_intra_a": 0.1, "p_inter_a": 0.01,
                   "p_intra_b": 0.01, "p_inter_b": 0.1, "mean_scale": 2.0,
                   "noise": 1.0},
}
_SYNTH = {"dataset": {"kind": "synthetic"}}
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
_WRONG = {int: ("x", True, 1.5, None), float: ("x", True, None, [1.0]),
          bool: (1, 0, "yes", None), str: (3, True, None, ["a"])}


def _key_cases():
    """(section, key, base config, default) for every key the schema accepts;
    a default of None marks a required string key. The section is the prefix
    the error names: top-level keys are named config.<key>."""
    cases = []
    for kind, defaults in _DATASET_DEFAULTS.items():
        cases += [("dataset", key, {"dataset": {"kind": kind}}, default)
                  for key, default in defaults.items() if key != "kind"]
    file = {"dataset": {"kind": "file", "path": "graph.json"}}
    cases += [("dataset", "kind", file, None), ("dataset", "task", file, "multiclass"),
              ("dataset", "path", file, None)]
    cases += [("partition", "scheme", _SYNTH | {"partition": {}}, "nonoverlap"),
              ("partition", "clients", _SYNTH | {"partition": {}}, 10)]
    cases += [("hyperparams", key, _SYNTH, _RUN_DEFAULTS[name])
              for key, name in _HYPER_FIELDS.items()]
    cases += [("ablations", key, _SYNTH, _RUN_DEFAULTS[key])
              for key in ("semantic", "structural")]
    cases += [("config", "method", _SYNTH, _RUN_DEFAULTS["method"]),
              ("config", "seed", _SYNTH, 0), ("config", "out_dir", _SYNTH, "runs/out")]
    return [pytest.param(section, key, base, default, id=f"{section}.{key}"
                         + (f"[{base['dataset']['kind']}]" if section == "dataset" else ""))
            for section, key, base, default in cases]


def _with(base: dict, section: str, key: str, value) -> dict:
    raw = copy.deepcopy(base)
    (raw if section == "config" else raw.setdefault(section, {}))[key] = value
    return raw


def _without(base: dict, section: str, key: str) -> dict:
    raw = copy.deepcopy(base)
    (raw if section == "config" else raw.get(section, {})).pop(key, None)
    return raw


def _parsed(cfg, section: str, key: str):
    if section == "dataset":
        return cfg.dataset[key]
    if section == "partition":
        return getattr(cfg.partition, key)
    if section == "hyperparams":
        return getattr(cfg.run, _HYPER_FIELDS[key])
    return getattr(cfg.run if key in _RUN_DEFAULTS else cfg, key)


@pytest.mark.parametrize("section, key, base, default", _key_cases())
def test_every_key_rejects_wrong_types(section, key, base, default):
    kind = str if default is None else type(default)
    for value in _WRONG[kind]:
        message = f"{section}.{key} must be {_EXPECTED[kind]}, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(_with(base, section, key, value))
    if kind is float:  # an integer passes as a number and parses to a float
        value = _parsed(parse_config(_with(base, section, key, 1)), section, key)
        assert value == 1.0 and type(value) is float


@pytest.mark.parametrize("section, key, base, default", _key_cases())
def test_every_omitted_key_takes_its_default(section, key, base, default):
    raw = _without(base, section, key)
    if default is None:
        with pytest.raises(ConfigError, match=f"{section}.{key} is required"):
            parse_config(raw)
        return
    value = _parsed(parse_config(raw), section, key)
    assert value == default and type(value) is type(default)


@pytest.mark.parametrize("kind", sorted(_DATASET_DEFAULTS))
def test_dataset_defaults_per_kind(kind):
    parsed = parse_config({"dataset": {"kind": kind}}).dataset
    want = _DATASET_DEFAULTS[kind]
    assert list(parsed) == list(want)
    assert [(v, type(v)) for v in parsed.values()] == [(v, type(v)) for v in want.values()]


def test_every_run_field_is_reachable_from_one_hyperparams_key():
    base = RunConfig()
    reached = []
    for key, default in ((k, _RUN_DEFAULTS[n]) for k, n in _HYPER_FIELDS.items()):
        value = default + 1 if isinstance(default, int) else default * 2
        run = parse_config(_SYNTH | {"hyperparams": {key: value}}).run
        changed = [f.name for f in fields(RunConfig)
                   if getattr(run, f.name) != getattr(base, f.name)]
        assert len(changed) == 1, (key, changed)
        reached += changed
    others = {f.name for f in fields(RunConfig)} - {"method", "semantic", "structural"}
    assert sorted(reached) == sorted(others)


# --- dataset assembly --------------------------------------------------------------


def test_synth_spec_from_maps_fields():
    cfg = parse_config(_small_synth())
    spec = synth_spec_from(cfg.dataset)
    assert (spec.num_nodes, spec.num_classes, spec.feature_dim) == (40, 2, 6)
    assert (spec.p_intra, spec.p_inter) == (0.3, 0.05)
    two = parse_config({"dataset": {"kind": "two-regime"}})
    with pytest.raises(ConfigError):
        synth_spec_from(two.dataset)


def test_build_dataset_synthetic_partition():
    cfg = parse_config(_small_synth())
    ds = build_dataset(cfg, seed=1)
    assert ds.num_clients == 2
    assert ds.num_classes == 2
    assert ds.feature_dim == 6
    again = build_dataset(cfg, seed=1)
    assert ds.clients[0].features.tobytes() == again.clients[0].features.tobytes()


def test_build_dataset_overlap_scheme():
    raw = _small_synth()
    raw["partition"] = {"scheme": "overlap", "clients": 5}
    ds = build_dataset(parse_config(raw), seed=1)
    assert ds.num_clients == 5


def test_build_dataset_requires_partition_for_synthetic():
    cfg = parse_config(_minimal())
    with pytest.raises(ConfigError, match="partition section is required"):
        build_dataset(cfg, seed=0)


def test_two_regime_federation_structure():
    raw = {"dataset": {"kind": "two-regime", "clients_per_regime": 2,
                       "nodes_per_client": 20, "classes": 2, "features": 6,
                       "p_intra_a": 0.4, "p_inter_a": 0.05,
                       "p_intra_b": 0.05, "p_inter_b": 0.4}}
    cfg = parse_config(raw)
    ds = build_dataset(cfg, seed=3)
    assert ds.num_clients == 4
    assert all(g.n == 20 for g in ds.clients)
    again = two_regime_federation(cfg.dataset, seed=3)
    assert ds.clients[2].features.tobytes() == again.clients[2].features.tobytes()
    # regimes draw distinct class means, so cross-regime features differ
    assert ds.clients[0].features.tobytes() != ds.clients[2].features.tobytes()
    assert all(np.array_equal(m, np.arange(20)) for m in ds.node_maps)


def test_build_dataset_from_saved_directory(tmp_path):
    src = parse_config(_small_synth())
    ds = build_dataset(src, seed=2)
    out = tmp_path / "saved"
    save_dataset(ds, out)
    raw = {"dataset": {"kind": "file", "path": str(out)}}
    loaded = build_dataset(parse_config(raw), seed=0)
    assert loaded.num_clients == ds.num_clients
    assert loaded.clients[1].features.tobytes() == ds.clients[1].features.tobytes()
    withpart = {"dataset": {"kind": "file", "path": str(out)},
                "partition": {"clients": 2}}
    with pytest.raises(ConfigError, match="already partitioned"):
        build_dataset(parse_config(withpart), seed=0)


def test_build_global_graph_kinds(tmp_path):
    g = build_global_graph(parse_config(_small_synth()), seed=0)
    assert g.n == 40
    two = parse_config({"dataset": {"kind": "two-regime"}})
    with pytest.raises(ConfigError, match="global graph"):
        build_global_graph(two, seed=0)
    src = parse_config(_small_synth())
    out = tmp_path / "saved"
    save_dataset(build_dataset(src, seed=2), out)
    dir_cfg = parse_config({"dataset": {"kind": "file", "path": str(out)},
                            "partition": {"clients": 2}})
    with pytest.raises(ConfigError, match="not a single graph"):
        build_global_graph(dir_cfg, seed=0)
