"""Config schema checks: strict key rejection, typed getters, defaults, and
dataset assembly for all three dataset kinds."""

import numpy as np
import pytest
import yaml

from fedssa.config import (build_dataset, build_global_graph, load_config,
                           parse_config, synth_spec_from,
                           two_regime_federation)
from fedssa.errors import ConfigError
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
