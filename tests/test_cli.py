"""End-to-end CLI checks: exit codes (2 for configuration, 3 for divergence,
4 for any other package error), artifact layout, byte-identical reruns, the
ablation grid, and the diagnose/report readers."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import fedssa
from fedssa import cli, federation
from fedssa.cli import main
from fedssa.config import build_dataset, load_config, two_regime_federation
from fedssa.errors import (ContractError, NumericError, ProtocolError, RankError,
                           ShapeError, TrainingDivergenceError, UndefinedMetricError)
from fedssa.graphs import FederationDataset, LocalGraph, load_graph, save_dataset
from helpers import dict_checkpoint, normalized_laplacian

TWO_REGIME = {
    "dataset": {"kind": "two-regime", "clients_per_regime": 1,
                "nodes_per_client": 14, "classes": 2, "features": 6,
                "p_intra_a": 0.5, "p_inter_a": 0.1,
                "p_intra_b": 0.1, "p_inter_b": 0.5},
    "method": "fedssa",
    "hyperparams": {"T": 2, "E": 1, "K": 3, "k_node": 2, "k_struct": 2,
                    "d_z": 4, "h": 8, "lr": 0.05},
    "seed": 11,
}

SYNTH = {
    "dataset": {"kind": "synthetic", "nodes": 30, "classes": 2, "features": 6,
                "p_intra": 0.3, "p_inter": 0.05},
    "partition": {"scheme": "nonoverlap", "clients": 2},
    "method": "fedavg",
    "hyperparams": {"T": 1, "E": 1, "K": 3, "d_z": 4, "h": 8},
    "seed": 3,
}


def _write_cfg(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --- run -------------------------------------------------------------------------


def test_run_writes_all_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_rows(out / "metrics.csv")
    assert header == ["round", "client", "ce", "vgae", "node", "struct",
                      "train_metric", "val_metric", "test_metric",
                      "bytes_up", "bytes_down"]
    assert len(rows) == 2 * 2  # rounds x clients
    for row in rows:
        assert len(row) == len(header)
        for cell in row[2:9]:
            float(cell)  # parseable loss/metric columns
    assert (out / "diagnostics_semantic.csv").exists()
    assert (out / "diagnostics_structural.csv").exists()
    floor_header, floor_rows = _read_rows(out / "diagnostics_floor.csv")
    assert floor_header == ["round", "error_floor"]
    assert [r[0] for r in floor_rows] == ["1", "2"]
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["seed"] == 11
    assert checkpoint["rounds_completed"] == 2
    assert [c["client_id"] for c in checkpoint["clients"]] == [0, 1]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "fedssa"
    assert summary["clients"] == 2 and summary["rounds"] == 2
    assert summary["total_bytes_up"] > 0
    assert len(summary["error_floor_trajectory"]) == 2
    assert not (out / "distances").exists()


def test_checkpoint_reproduces_last_round_metrics(tmp_path):
    # a plain numpy forward from the checkpoint's w and head over dense
    # L^k X must give every client's last-round split metrics exactly
    raw = dict(TWO_REGIME, dataset=dict(TWO_REGIME["dataset"], clients_per_regime=2,
                                        nodes_per_client=40))
    cfg = _write_cfg(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    dataset = build_dataset(load_config(cfg), raw["seed"])
    header, rows = _read_rows(out / "metrics.csv")
    last = {int(r[1]): dict(zip(header, r)) for r in rows
            if int(r[0]) == raw["hyperparams"]["T"]}
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert [c["client_id"] for c in checkpoint["clients"]] == [0, 1, 2, 3]
    for params in checkpoint["clients"]:
        cid = params["client_id"]
        g = dataset.clients[cid]
        w = np.asarray(params["w"])
        head = {k: np.asarray(params["head"][k]) for k in ("w1", "b1", "w2", "b2")}
        lap = normalized_laplacian(g)
        p = sum(wk * np.linalg.matrix_power(lap, k) @ g.features for k, wk in enumerate(w))
        pred = np.argmax(np.tanh(p @ head["w1"] + head["b1"]) @ head["w2"] + head["b2"],
                         axis=1)
        for split in ("train", "val", "test"):
            idx = g.split(split)
            assert float(np.mean(pred[idx] == g.labels[idx])) == \
                float(last[cid][f"{split}_metric"]), f"client {cid} {split}"


@pytest.mark.parametrize("case", ["fedssa", "fedavg", "local", "zero-rounds", "one-client"])
def test_streamed_checkpoint_matches_dict_form(tmp_path, case):
    cfg = load_config(_write_cfg(tmp_path, TWO_REGIME))
    dataset = build_dataset(cfg, cfg.seed)
    run_cfg = cfg.run
    if case in ("fedavg", "local"):
        run_cfg = replace(run_cfg, method=case)
    elif case == "zero-rounds":
        run_cfg = replace(run_cfg, rounds=0)
    elif case == "one-client":
        dataset = replace(dataset, clients=dataset.clients[:1])
        run_cfg = replace(run_cfg, k_node=1, k_struct=1)
    result = federation.run_federation_detailed(dataset, run_cfg, cfg.seed)
    cli.write_run_artifacts(tmp_path / "out", result.history, result.states, cfg.seed,
                            run_cfg)
    streamed = (tmp_path / "out" / "checkpoint.json").read_bytes()
    assert streamed == dict_checkpoint(result.states, cfg.seed, run_cfg.rounds,
                                       run_cfg.w_max)
    checkpoint = json.loads(streamed)
    assert checkpoint["rounds_completed"] == run_cfg.rounds
    assert [c["client_id"] for c in checkpoint["clients"]] == \
        list(range(dataset.num_clients))


def test_run_artifacts_are_byte_identical_across_reruns(tmp_path):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    for name in ("metrics.csv", "summary.json", "checkpoint.json",
                 "diagnostics_floor.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seed_override(tmp_path):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert json.loads((b / "summary.json").read_text())["seed"] == 99
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()


def test_run_with_latent_dim_above_64(tmp_path):
    raw = dict(TWO_REGIME, hyperparams=dict(TWO_REGIME["hyperparams"], T=1, d_z=65))
    cfg = _write_cfg(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["rounds"] == 1


def test_run_dump_distances(tmp_path):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), "--dump-distances"])
    assert code == 0
    # the frames travel in round 1 only, so one matrix covers the run
    assert sorted(p.name for p in (out / "distances").iterdir()) == ["distances_r0001.csv"]
    header, rows = _read_rows(out / "distances" / "distances_r0001.csv")
    assert header == ["client", "0", "1"]
    assert len(rows) == 2
    assert float(rows[0][1]) == 0.0  # zero diagonal


def test_run_uses_config_out_dir_by_default(tmp_path):
    out = tmp_path / "from_config"
    raw = dict(TWO_REGIME, out_dir=str(out))
    cfg = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg]) == 0
    assert (out / "summary.json").exists()


def test_fedavg_run_has_no_floor_but_counts_bytes(tmp_path):
    cfg = _write_cfg(tmp_path, SYNTH)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error_floor_trajectory"] == [None]
    assert summary["total_bytes_up"] > 0
    assert summary["total_bytes_down"] > 0


# --- exit codes -------------------------------------------------------------------


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, dict(TWO_REGIME, typo_key=1))
    assert main(["run", "--config", cfg]) == 2


def test_fractional_label_in_graph_file_exits_2(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    assert main(["synth", "--config", _write_cfg(tmp_path, SYNTH), "--out", str(graph)]) == 0
    obj = json.loads(graph.read_text())
    obj["labels"][0] = 0.5
    graph.write_text(json.dumps(obj))
    raw = dict(SYNTH, dataset={"kind": "file", "path": str(graph)})
    out = tmp_path / "out"
    assert main(["run", "--config", _write_cfg(tmp_path, raw), "--out", str(out)]) == 2
    assert "labels must be a list of integers, got 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_negative_label_in_dataset_dir_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["partition", "--config", _write_cfg(tmp_path, SYNTH),
                 "--out", str(data)]) == 0
    client = data / "client_001.json"
    obj = json.loads(client.read_text())
    obj["labels"][0] = -1
    client.write_text(json.dumps(obj))
    raw = {key: SYNTH[key] for key in ("method", "hyperparams", "seed")}
    raw["dataset"] = {"kind": "file", "path": str(data)}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--config", _write_cfg(tmp_path, raw), "--out", str(out)]) == 2
    assert f"{client}: labels must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_w_max_below_one_exits_2(tmp_path, capsys):
    raw = dict(TWO_REGIME, hyperparams=dict(TWO_REGIME["hyperparams"], w_max=0.5))
    out = tmp_path / "out"
    assert main(["run", "--config", _write_cfg(tmp_path, raw), "--out", str(out)]) == 2
    assert "w_max must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_3(tmp_path, capsys):
    raw = {"dataset": dict(TWO_REGIME["dataset"]),
           "method": "local",
           "hyperparams": {"T": 1, "E": 2, "K": 3, "d_z": 4, "h": 8,
                           "lr": 1.0e+308},
           "seed": 0}
    cfg = _write_cfg(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "diverged in round 1" in capsys.readouterr().err
    # no round completed: every CSV holds its header only, and no parameters
    # or summary are written
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics_floor.csv", "diagnostics_semantic.csv",
        "diagnostics_structural.csv", "metrics.csv"]
    for path in out.iterdir():
        assert len(path.read_text().splitlines()) == 1
    assert _read_rows(out / "metrics.csv") == (list(cli.METRICS_HEADER), [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["local", "fedssa"])
def test_divergence_in_the_evaluation_forward_exits_3(tmp_path, capsys, method):
    # with E = 1 the first non-finite value appears in the evaluation
    # forward, not in training; it still exits 3 before any round completes
    raw = {"dataset": dict(TWO_REGIME["dataset"]),
           "method": method,
           "hyperparams": {"T": 2, "E": 1, "K": 3, "d_z": 4, "h": 8,
                           "lr": 1.0e+308},
           "seed": 0}
    out = tmp_path / "out"
    assert main(["run", "--config", _write_cfg(tmp_path, raw), "--out", str(out)]) == 3
    assert "diverged in round 1" in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()
    for path in out.iterdir():
        assert len(path.read_text().splitlines()) == 1, path.name


def test_divergence_in_round_3_leaves_rounds_1_and_2(tmp_path, capsys, monkeypatch):
    train = federation.local_round

    def diverge_in_round_3(groups, broadcasts, cfg, seed, round_index):
        if round_index == 3:
            raise TrainingDivergenceError("client 1 diverged in round 3: injected")
        return train(groups, broadcasts, cfg, seed, round_index)

    two_rounds = tmp_path / "two_rounds"
    assert main(["run", "--config", _write_cfg(tmp_path, TWO_REGIME),
                 "--out", str(two_rounds)]) == 0
    monkeypatch.setattr(federation, "local_round", diverge_in_round_3)
    raw = dict(TWO_REGIME, hyperparams=dict(TWO_REGIME["hyperparams"], T=3))
    out = tmp_path / "out"
    assert main(["run", "--config", _write_cfg(tmp_path, raw, "t3.yaml"),
                 "--out", str(out)]) == 3
    assert "diverged in round 3" in capsys.readouterr().err
    _, rows = _read_rows(out / "metrics.csv")
    assert sorted({row[0] for row in rows}) == ["1", "2"]
    assert not (out / "checkpoint.json").exists()
    assert not (out / "summary.json").exists()
    # the CSVs are those of a run that stops after round 2
    for name in ("metrics.csv", "diagnostics_semantic.csv",
                 "diagnostics_structural.csv", "diagnostics_floor.csv"):
        assert (out / name).read_bytes() == (two_rounds / name).read_bytes(), name


@pytest.mark.parametrize("edges", ["edgeless", "cycle"])
def test_rank_deficient_client_exits_2(tmp_path, capsys, edges):
    good = two_regime_federation(load_config(_write_cfg(tmp_path, TWO_REGIME)).dataset, 11)
    g = good.clients[1]
    ring = [[i, (i + 1) % g.n] for i in range(g.n)]
    odd = LocalGraph(g.features, g.labels, ring if edges == "cycle" else np.zeros((0, 2)),
                     g.train_idx, g.val_idx, g.test_idx)
    save_dataset(FederationDataset((good.clients[0], odd), good.num_classes,
                                   good.feature_dim, good.task), tmp_path / "data")
    raw = dict(TWO_REGIME, dataset={"kind": "file", "path": str(tmp_path / "data")})
    cfg = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: client 1 ") and "structural: false" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [ProtocolError, ShapeError, RankError, NumericError,
                                   ContractError, UndefinedMetricError])
def test_other_package_errors_exit_4(tmp_path, capsys, monkeypatch, error):
    def failing_run(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "run_federation_detailed", failing_run)
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == f"error: {error.__name__}: boom\n"


# --- synth and partition ------------------------------------------------------------


def test_synth_writes_loadable_graph(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SYNTH)
    out = tmp_path / "graph.json"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote graph with 30 nodes" in capsys.readouterr().out
    g = load_graph(out)
    assert g.n == 30


def test_synth_rejects_non_synthetic_dataset(tmp_path):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "g.json")]) == 2


def test_synth_rejects_binary_auc_with_three_classes(tmp_path, capsys):
    raw = dict(SYNTH, dataset=dict(SYNTH["dataset"], task="binary-auc", classes=3))
    cfg = _write_cfg(tmp_path, raw)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "g.json")]) == 2
    assert "binary-auc task requires exactly 2 classes" in capsys.readouterr().err


def test_partition_writes_dataset_dir(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SYNTH)
    out = tmp_path / "clients"
    assert main(["partition", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert f"{manifest['dropped_edges']} cross edges dropped" in capsys.readouterr().out
    assert manifest["clients"] == 2
    assert len(manifest["files"]) == 2
    run_raw = {"dataset": {"kind": "file", "path": str(out)},
               "method": "local",
               "hyperparams": {"T": 1, "E": 1, "K": 3, "d_z": 4, "h": 8}}
    run_cfg = _write_cfg(tmp_path, run_raw, name="run.yaml")
    assert main(["run", "--config", run_cfg, "--out", str(tmp_path / "o")]) == 0


def test_overlap_partition_reports_cuts_per_client(tmp_path, capsys):
    # each client counts its own edges with one end outside it, so the sum
    # can exceed the graph's edge count
    raw = dict(SYNTH, dataset=dict(SYNTH["dataset"], nodes=200, p_intra=0.1),
               partition={"scheme": "overlap", "clients": 5})
    cfg = _write_cfg(tmp_path, raw)
    graph = tmp_path / "graph.json"
    assert main(["synth", "--config", cfg, "--out", str(graph)]) == 0
    out = tmp_path / "clients"
    assert main(["partition", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]) == 5
    assert manifest["dropped_edges"] > load_graph(graph).edges.shape[0]
    assert (f"{manifest['dropped_edges']} edges cut, counted once per client they leave"
            in capsys.readouterr().out)


def test_partition_requires_partition_section(tmp_path):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    assert main(["partition", "--config", cfg, "--out", str(tmp_path / "d")]) == 2


# --- ablate -----------------------------------------------------------------------


def test_ablate_grid_and_semantic_tie(tmp_path):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    out = tmp_path / "grid"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_rows(out / "ablation.csv")
    assert header == ["cell", "semantic", "structural", "final_mean_test_metric"]
    cells = {row[0]: float(row[3]) for row in rows}
    assert set(cells) == {"full", "no_semantic", "no_structural", "neither"}
    # the classifier path shares no parameters with the encoder, so the
    # semantic branch cannot move accuracy: exact ties per structural setting
    assert cells["full"] == cells["no_semantic"]
    assert cells["no_structural"] == cells["neither"]
    for name in cells:
        assert (out / name / "summary.json").exists()


def test_ablate_requires_fedssa(tmp_path):
    cfg = _write_cfg(tmp_path, SYNTH)
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "g")]) == 2


# --- diagnose and report -------------------------------------------------------------


def test_diagnose_after_run(tmp_path):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["diagnose", "--run", str(out), "--l-f", "4.0",
                 "--lam-f", "1.0", "--rounds", "10"]) == 0
    payload = json.loads((out / "diagnose.json").read_text())
    assert payload["rho"] == pytest.approx(1.0 - 1.0 / 5.0)
    assert len(payload["distances"]) == 11
    assert set(payload["schedule_rounds"]) == {"0.1", "0.001", "1e-06"}
    assert payload["error_floor"] >= 0.0


def test_diagnose_rejects_nonfinite_flags_with_exit_4(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    for flag, value, name in (("--dist0", "nan", "dist0"), ("--dist0", "inf", "dist0"),
                              ("--l-f", "inf", "l_f")):
        assert main(["diagnose", "--run", str(out), flag, value]) == 4
        assert f"ContractError: {name} must be finite" in capsys.readouterr().err
    assert not (out / "diagnose.json").exists()


def test_diagnose_needs_finished_run(tmp_path):
    assert main(["diagnose", "--run", str(tmp_path)] ) == 2


def test_report_run_and_ablation(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TWO_REGIME)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--run", str(out)]) == 0
    text = capsys.readouterr().out
    assert "method: fedssa" in text
    assert "best round by val metric" in text
    assert "error floor" in text
    grid = tmp_path / "grid"
    main(["ablate", "--config", cfg, "--out", str(grid)])
    capsys.readouterr()
    assert main(["report", "--run", str(grid)]) == 0
    assert "no_structural" in capsys.readouterr().out
    assert main(["report", "--run", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("text", ["{}", '{"method": "fedssa"', "[]"],
                         ids=["empty", "truncated", "list"])
def test_report_rejects_an_incomplete_summary_with_exit_2(tmp_path, capsys, text):
    (tmp_path / "summary.json").write_text(text)
    assert main(["report", "--run", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(tmp_path / "summary.json") in captured.err
    assert "not a complete run summary" in captured.err


def test_module_invocation():
    # the child imports the package this suite imported, installed or not
    src = str(Path(fedssa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fedssa.cli", "--help"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "diagnose" in proc.stdout
