"""Federation loop checks: bit-reproducibility, stacked groups against
clients trained alone, upload privacy, the lossless wire form
and its byte accounting, fixed spectral-energy frames and the rank-deficient
client rule, fedavg fixed points, divergence rollback, server protocol
errors, and structural cluster recovery from hand-built uploads."""

import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fedssa import cli, federation, tape as tp
from fedssa.config import build_dataset, parse_config, two_regime_federation
from fedssa.errors import (ConfigError, ContractError, ProtocolError,
                           ShapeError, TrainingDivergenceError)
from fedssa.federation import (ClientUpload, RunConfig, RunState, ServerBroadcast,
                               _loss_parts, encode_broadcast, encode_upload, group_clients,
                               local_round, run_federation_detailed, run_round,
                               server_step)
from fedssa.graphs import (FederationDataset, LocalGraph, SynthSpec, stratified_split,
                           synth_dataset)
from fedssa.linalg import qr_thin
from fedssa.models import ClassGaussian, init_params, sample_nonedges
from fedssa.rng import stream
from fedssa.semantic import alignment_inputs
from fedssa.structural import SpectralEnergy
from helpers import decode_broadcast, decode_params, decode_upload, round_signature

ORDER = 3
DIM = 8


def _tiny_cfg(**overrides) -> RunConfig:
    base = dict(method="fedssa", rounds=2, epochs=1, order=ORDER, k_node=2,
                k_struct=2, lambda1=1e-3, lambda2=1e-3, lr=0.05, latent_dim=4,
                hidden=8)
    base.update(overrides)
    return RunConfig(**base)


def _tiny_dataset(num_clients=3, seed=0, task="multiclass") -> FederationDataset:
    spec = SynthSpec(num_nodes=14, num_classes=2, feature_dim=DIM,
                     p_intra=0.6, p_inter=0.1)
    clients = tuple(synth_dataset(spec, seed + i) for i in range(num_clients))
    return FederationDataset(clients=clients, num_classes=2, feature_dim=DIM,
                             task=task)


def _signatures(history) -> tuple:
    return tuple(round_signature(r) for r in history)


def _groups(graphs, cfg):
    """The training groups of a two-class dataset of the given graphs, in id order."""
    ds = FederationDataset(clients=tuple(graphs), num_classes=2, feature_dim=DIM,
                           task="multiclass")
    params = init_params(DIM, 2, cfg.order, cfg.hidden, cfg.latent_dim,
                         stream(0, "init"))
    return group_clients(ds, cfg, params)


def _alone(graph, cfg):
    """The one-member training group of a client graph."""
    return _groups([graph], cfg)


def _forward(group, cfg, broadcasts=None):
    """Round 1's first training forward of a group: (tape, leaves, parts)."""
    broadcasts = broadcasts or {}
    received = [broadcasts.get(s.client_id) for s in group.states]
    coeffs = [getattr(b, "cluster_coefficients", None) for b in received]
    aligned = alignment_inputs(group.plan, [getattr(b, "class_representatives", {})
                                            for b in received])
    return _loss_parts(group, None if coeffs[0] is None else np.stack(coeffs), aligned, cfg,
                       0, "train", 1, 0)


# --- training memory -----------------------------------------------------------


def test_training_tape_holds_no_rows_by_nodes_constant():
    n = 1000
    graph = synth_dataset(SynthSpec(num_nodes=n, num_classes=2, feature_dim=DIM,
                                    p_intra=0.01, p_inter=0.002), 0)
    num_edges = graph.edges.shape[0]
    assert num_edges > 1000
    cfg = _tiny_cfg(latent_dim=8, hidden=16)
    tape, _leaves, _parts = _forward(_alone(graph, cfg)[0], cfg)
    arrays = {}
    for node in tape.nodes:
        constants = [x for x in node.inputs if isinstance(x, np.ndarray)]
        constants += [x for x in node.aux.values() if isinstance(x, np.ndarray)]
        for x in constants:
            mat = np.atleast_2d(x)
            rows, cols = mat.reshape(-1, mat.shape[-1]).shape  # stacked rows
            assert not (cols >= n and rows >= num_edges), \
                f"{node.op} holds a {x.shape} constant"
            arrays[id(x)] = x.nbytes
        arrays[id(node.value)] = node.value.nbytes
    assert sum(arrays.values()) < 10 * 2 ** 20


def test_training_forward_records_at_most_35_tape_nodes():
    # a quickstart-sized fedssa client (150 nodes, 4 classes, 24 features,
    # K = 3, d_z = 8, h = 16) whose broadcast turns on both alignment terms
    ds = two_regime_federation({
        "clients_per_regime": 1, "nodes_per_client": 150, "classes": 4,
        "features": 24, "p_intra_a": 0.10, "p_inter_a": 0.01, "p_intra_b": 0.01,
        "p_inter_b": 0.10, "mean_scale": 1.0, "noise": 1.0, "task": "multiclass"}, 0)
    cfg = RunConfig(method="fedssa", rounds=1, epochs=1, order=3, k_node=2,
                    k_struct=2, lr=0.15, latent_dim=8, hidden=16)
    params = init_params(24, 4, cfg.order, cfg.hidden, cfg.latent_dim, stream(0, "init"))
    groups = group_clients(ds, cfg, params)
    assert len(groups) == 1  # the bound holds per group forward, not per client
    _stats, uploads = local_round(groups, {}, cfg, 0, 1)
    broadcasts = server_step(uploads, cfg.k_node, cfg.k_struct, 0).broadcasts
    tape, _leaves, parts = _forward(groups[0], cfg, broadcasts)
    assert parts["node"] is not None and broadcasts[0].cluster_coefficients is not None
    assert len(tape.nodes) <= 35, f"{len(tape.nodes)} tape nodes per forward"


def test_forward_reads_the_plan_built_at_setup():
    cfg = _tiny_cfg()
    graph = _tiny_dataset(1).clients[0]
    groups = _alone(graph, cfg)
    plan = groups[0].plan
    assert np.array_equal(plan.ce_rows, graph.train_idx)
    tape, _leaves, parts = _forward(groups[0], cfg)
    by_op = {node.op: node for node in tape.nodes}
    assert np.shares_memory(by_op["softmax_ce"].aux["labels"], plan.ce_labels)
    assert by_op["segment_moments"].aux["segments"] is plan.classes
    assert parts["moments"] is by_op["segment_moments"]
    assert np.shares_memory(by_op["pair_bce"].aux["y"], plan.pair_y)
    local_round(groups, {}, cfg, 0, 1)
    assert groups[0].plan is plan


def test_setup_and_round_memory_targets():
    # dataset setup of the 4,800-node benchmark graph, then one 10,000-node
    # client (60k edges) through setup and a training round; a dense n x n
    # float matrix alone would be 184 MB and 800 MB. The client peaks at about
    # 31 MiB. Edge scores built from (P, d) row gathers take it to 40 MiB, and
    # Laplacian powers built with one bincount over all n·d entries
    # (O((n + |E|)·d) scratch) to 99 MiB; both fail the 36 MiB bound.
    spec = SynthSpec(num_nodes=4800, num_classes=4, feature_dim=24,
                     p_intra=0.006, p_inter=0.0012, mean_scale=1.0)
    n, m, d, c = 10_000, 60_000, 24, 4
    rng = np.random.default_rng(0)
    labels = rng.integers(0, c, n)
    edges = rng.integers(0, n, (m, 2))
    graph = LocalGraph(rng.standard_normal((n, d)), labels,
                       edges[edges[:, 0] != edges[:, 1]],
                       *stratified_split(labels, rng))
    cfg = _tiny_cfg(epochs=1, latent_dim=8, hidden=16)
    params = init_params(d, c, cfg.order, cfg.hidden, cfg.latent_dim, stream(0, "init"))
    tracemalloc.start()
    try:
        synth_dataset(spec, 0)
        synth_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ds = FederationDataset(clients=(graph,), num_classes=c, feature_dim=d,
                               task="multiclass")
        local_round(group_clients(ds, cfg, params), {}, cfg, 0, 1)
        client_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert synth_peak < 32 * 2 ** 20, f"synth_dataset peak {synth_peak / 2 ** 20:.1f} MB"
    assert client_peak < 36 * 2 ** 20, f"10k-node client peak {client_peak / 2 ** 20:.1f} MB"


def test_checkpoint_is_written_one_client_at_a_time(tmp_path):
    # 100 clients at the many-clients sizes (24 features, 4 classes, K = 3,
    # h = 16, d_z = 8): all of them as one dict of float lists and its JSON
    # text take about 10 MB, one client's payload about 0.1 MB.
    # write_run_artifacts reads only .client_id and .params of a state.
    cfg = RunConfig(order=3, hidden=16, latent_dim=8)
    params = init_params(24, 4, cfg.order, cfg.hidden, cfg.latent_dim, stream(0, "init"))
    states = [SimpleNamespace(client_id=i, params=params) for i in range(100)]
    tracemalloc.start()
    try:
        cli.write_run_artifacts(tmp_path, [], states, 0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"write_run_artifacts peak {peak / 2 ** 20:.2f} MB"
    checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
    assert [c["client_id"] for c in checkpoint["clients"]] == list(range(100))


def test_full_stacked_group_memory():
    # one round of a full 2,048-row group: 16 quickstart-sized clients (128
    # nodes, 4 classes, 24 features, K = 3, d_z = 8, h = 16). It peaks at
    # 4.0 MiB; edge scores built from (P, d) row gathers take it to 4.9 MiB.
    ds = two_regime_federation({
        "clients_per_regime": 8, "nodes_per_client": 128, "classes": 4,
        "features": 24, "p_intra_a": 0.10, "p_inter_a": 0.01, "p_intra_b": 0.01,
        "p_inter_b": 0.10, "mean_scale": 1.0, "noise": 1.0, "task": "multiclass"}, 0)
    cfg = RunConfig(method="fedssa", rounds=1, epochs=2, order=3, k_node=2,
                    k_struct=2, lr=0.15, latent_dim=8, hidden=16)
    params = init_params(24, 4, cfg.order, cfg.hidden, cfg.latent_dim, stream(0, "init"))
    groups = group_clients(ds, cfg, params)
    assert [len(g.states) for g in groups] == [16]
    assert groups[0].h_stack.shape[0] * groups[0].plan.n == federation.STACK_ROWS
    tracemalloc.start()
    try:
        local_round(groups, {}, cfg, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2 ** 20, f"2,048-row group round peak {peak / 2 ** 20:.1f} MB"


def test_group_nonedge_draws_match_one_fresh_stream_per_member():
    cfg = _tiny_cfg()
    (group,) = _groups(_tiny_dataset(num_clients=4).clients, cfg)
    for path in (("train-nonedges", 3, 1), ("eval-nonedges", 2)):
        got = federation._samples(group.plan, 7, *path)
        want = [sample_nonedges(group.plan, m, count, stream(7, *path))
                for m, count in enumerate(group.plan.nonedge_counts)]
        assert len(got) == 4
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert len({a.tobytes() for a in got}) > 1


# --- determinism and stacking ---------------------------------------------------


def test_rerun_is_bit_reproducible():
    ds = _tiny_dataset()
    cfg = _tiny_cfg()
    a = run_federation_detailed(ds, cfg, seed=5)
    b = run_federation_detailed(ds, _tiny_cfg(), seed=5)
    assert _signatures(a.history) == _signatures(b.history)
    for sa, sb in zip(a.states, b.states):
        assert sa.params["w"].tobytes() == sb.params["w"].tobytes()
        assert sa.params["mu_w"].tobytes() == sb.params["mu_w"].tobytes()


def _fresh_state(ds: FederationDataset, cfg: RunConfig, seed: int) -> RunState:
    params0 = init_params(ds.feature_dim, ds.num_classes, cfg.order, cfg.hidden,
                          cfg.latent_dim, stream(seed, "init"))
    return RunState(groups=group_clients(ds, cfg, params0), num_clients=ds.num_clients)


@pytest.mark.parametrize("method", ["fedssa", "fedavg", "local"])
def test_run_round_steps_match_the_whole_run(method):
    ds = _tiny_dataset()
    cfg = _tiny_cfg(method=method, rounds=3)
    whole = run_federation_detailed(ds, cfg, seed=4)
    state = _fresh_state(ds, cfg, seed=4)
    for round_index in range(1, cfg.rounds + 1):
        metrics = run_round(state, cfg, seed=4)
        assert metrics is state.history[-1]
        assert metrics.round_index == round_index == len(state.history)
    assert _signatures(state.history) == _signatures(whole.history)
    assert [s.client_id for s in state.states] == [0, 1, 2]
    for a, b in zip(state.states, whole.states):
        assert list(a.params) == list(b.params)
        for name, arr in a.params.items():
            assert arr.tobytes() == b.params[name].tobytes(), name
    assert (state.chordal is None) == (whole.chordal is None) == (method != "fedssa")
    if method == "fedssa":
        assert state.chordal[0] == whole.chordal[0]
        assert state.chordal[1].tobytes() == whole.chordal[1].tobytes()
        assert state.structure == whole.structure


def test_divergence_in_round_3_keeps_round_2_state(monkeypatch):
    ds = _tiny_dataset()
    cfg = _tiny_cfg(rounds=3)
    train = federation.local_round

    def diverge_in_round_3(groups, broadcasts, cfg, seed, round_index):
        if round_index == 3:
            raise TrainingDivergenceError("client 1 diverged in round 3: injected")
        return train(groups, broadcasts, cfg, seed, round_index)

    monkeypatch.setattr(federation, "local_round", diverge_in_round_3)
    state = _fresh_state(ds, cfg, seed=0)
    run_round(state, cfg, seed=0)
    run_round(state, cfg, seed=0)
    round_2 = state.broadcasts
    with pytest.raises(TrainingDivergenceError, match="round 3") as info:
        run_round(state, cfg, seed=0)
    assert [rm.round_index for rm in state.history] == [1, 2]
    assert info.value.history == tuple(state.history)
    assert state.broadcasts is round_2
    assert sorted(round_2) == [0, 1, 2]


def _ragged_dataset() -> FederationDataset:
    """Five 14-node clients with different edge counts and train-row counts."""
    clients = []
    for i, g in enumerate(_tiny_dataset(num_clients=5, seed=20).clients):
        train = np.sort(np.concatenate([g.train_idx, g.val_idx[:i]]))
        clients.append(LocalGraph(g.features, g.labels, g.edges[: g.edges.shape[0] - 2 * i],
                                  train, g.val_idx[i:], g.test_idx))
    return FederationDataset(clients=tuple(clients), num_classes=2, feature_dim=DIM,
                             task="multiclass")


_GROUP_CLIENTS = federation.group_clients
_CLIENT_ROUND = federation.client_round


def _recorded_run(monkeypatch, ds, cfg, stack_rows):
    """Run with the given row cap; returns (result, groups, client rounds),
    the client rounds as (round, client id, stats, upload) in that order."""
    monkeypatch.setattr(federation, "STACK_ROWS", stack_rows)
    groups, rounds = [], []
    real_group, real_round = _GROUP_CLIENTS, _CLIENT_ROUND

    def recording_group(dataset, cfg, params0):
        groups.extend(real_group(dataset, cfg, params0))
        return groups

    def recording_round(group, member, evaluation, cfg, round_index):
        out = real_round(group, member, evaluation, cfg, round_index)
        rounds.append((round_index, group.states[member].client_id, *out))
        return out

    monkeypatch.setattr(federation, "group_clients", recording_group)
    monkeypatch.setattr(federation, "client_round", recording_round)
    result = run_federation_detailed(ds, cfg, seed=2)
    return result, groups, sorted(rounds, key=lambda item: item[:2])


def _adam_of(groups) -> dict:
    """{client_id: (m bytes, v bytes, t)} read from each client's group row."""
    return {s.client_id: ({k: a[i].tobytes() for k, a in g.adam.m.items()},
                          {k: a[i].tobytes() for k, a in g.adam.v.items()}, g.adam.t)
            for g in groups for i, s in enumerate(g.states)}


def _upload_bytes(upload) -> tuple:
    return (upload.coefficients.tobytes(),
            tuple((g.label, g.mean.tobytes(), g.cov.tobytes(), g.count)
                  for g in upload.class_gaussians))


@pytest.mark.parametrize("stack_rows, members, sizes", [
    (1024, None, [5]),                     # one stacked group
    (30, None, [2, 2, 1]),                 # the row cap splits the client list
    (45, [[0, 1, 2], [3, 4]], [3, 2]),     # clients 2 and 4 get new partners
])
def test_stacked_groups_match_clients_trained_alone(monkeypatch, stack_rows,
                                                    members, sizes):
    ds = _ragged_dataset()
    assert len({g.edges.shape[0] for g in ds.clients}) == 5
    assert len({g.train_idx.size for g in ds.clients}) > 1
    cfg = _tiny_cfg(rounds=3, epochs=2)
    alone, alone_groups, alone_rounds = _recorded_run(monkeypatch, ds, cfg, 1)
    assert [len(g.states) for g in alone_groups] == [1] * 5
    stacked, groups, rounds = _recorded_run(monkeypatch, ds, _tiny_cfg(rounds=3, epochs=2),
                                            stack_rows)
    assert [len(g.states) for g in groups] == sizes
    if members is not None:
        assert [[s.client_id for s in g.states] for g in groups] == members
    assert _signatures(stacked.history) == _signatures(alone.history)
    for a, b in zip(stacked.states, alone.states):
        assert {k: v.tobytes() for k, v in a.params.items()} == \
            {k: v.tobytes() for k, v in b.params.items()}
    assert _adam_of(groups) == _adam_of(alone_groups)
    assert [(r, c, stats, _upload_bytes(u)) for r, c, stats, u in rounds] == \
        [(r, c, stats, _upload_bytes(u)) for r, c, stats, u in alone_rounds]
    assert stacked.history[-1].per_client[0].node != 0.0  # the alignment KL ran


@pytest.mark.parametrize("method", ["fedssa", "fedavg", "local"])
def test_client_round_runs_once_per_client_per_round(monkeypatch, method):
    # client_round is the benchmark's unit of work: perfbench counts its
    # calls through a wrapper of the module attribute, as this test does
    ds = _ragged_dataset()
    cfg = _tiny_cfg(method=method, rounds=2)
    result, groups, rounds = _recorded_run(monkeypatch, ds, cfg, 30)
    assert len(groups) >= 2
    assert [(r, c) for r, c, _stats, _upload in rounds] == \
        [(r, c) for r in (1, 2) for c in range(ds.num_clients)]
    for r, c, stats, upload in rounds:
        logged = result.history[r - 1].per_client[c]
        assert stats.bytes_up == stats.bytes_down == 0
        assert stats == dataclasses.replace(logged, bytes_up=0, bytes_down=0)
        assert (upload is not None) == (method == "fedssa")


def _interleaved_groups(cfg):
    """Training groups of four clients of 14, 15, 14 and 15 nodes: in id
    order they stack as [0, 2] and [1, 3], so member 0 of the second group
    is client 1."""
    graphs = [synth_dataset(SynthSpec(num_nodes=14 + i % 2, num_classes=2, feature_dim=DIM,
                                      p_intra=0.6, p_inter=0.1), i) for i in range(4)]
    groups = _groups(graphs, cfg)
    assert [[s.client_id for s in g.states] for g in groups] == [[0, 2], [1, 3]]
    return groups


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("diverging, named", [((1,), 1), ((0, 2), 0), ((3,), 3)])
def test_group_divergence_names_lowest_client_and_rolls_back(monkeypatch, diverging,
                                                             named):
    cfg = _tiny_cfg(epochs=2)
    groups = _interleaved_groups(cfg)
    local_round(groups, {}, cfg, 0, 1)
    poisoned_group = next(i for i, g in enumerate(groups)
                          if any(s.client_id in diverging for s in g.states))
    before = [_group_snapshot(g) for g in groups]
    real = federation.elbo_path
    calls = []

    def poisoned(mu, logvar, plan, eps, nonedges):
        out = real(mu, logvar, plan, eps, nonedges)
        group = groups[poisoned_group]
        if plan is group.plan:
            calls.append(1)
            if len(calls) == 2:  # the second epoch, after one stacked step
                out.value[[m for m, s in enumerate(group.states)
                           if s.client_id in diverging]] = np.nan
        return out

    monkeypatch.setattr(federation, "elbo_path", poisoned)
    with pytest.raises(TrainingDivergenceError,
                       match=f"client {named} diverged in round 2: non-finite loss"):
        local_round(groups, {}, cfg, 0, 2)
    assert len(calls) == 2
    # the diverging group rolled back, and no later group trained
    after = [_group_snapshot(g) for g in groups]
    assert after[poisoned_group:] == before[poisoned_group:]


def test_seed_changes_results():
    ds = _tiny_dataset()
    a = run_federation_detailed(ds, _tiny_cfg(), seed=1).history
    b = run_federation_detailed(ds, _tiny_cfg(), seed=2).history
    assert _signatures(a) != _signatures(b)


def test_zero_epochs_leaves_parameters_untouched():
    ds = _tiny_dataset(num_clients=1)
    init = run_federation_detailed(ds, _tiny_cfg(method="local", rounds=0),
                                   seed=9)
    after = run_federation_detailed(ds, _tiny_cfg(method="local", rounds=1,
                                                  epochs=0), seed=9)
    want = init.states[0].params
    assert list(after.states[0].params) == list(want) == [
        "w", "head_w1", "head_b1", "head_w2", "head_b2"]
    for name, arr in after.states[0].params.items():
        assert arr.tobytes() == want[name].tobytes(), name


# the two-regime data of the CI console-script step
CI_TWO_REGIME = {"clients_per_regime": 2, "nodes_per_client": 20, "classes": 2,
                 "features": 6, "p_intra_a": 0.5, "p_inter_a": 0.1, "p_intra_b": 0.1,
                 "p_inter_b": 0.5, "mean_scale": 2.0, "noise": 1.0, "task": "multiclass"}


def _classifier_trace(history) -> bytes:
    """Every round's per-client ce, struct and split metrics, as bits."""
    return np.array([(s.ce, s.struct, s.train_metric, s.val_metric, s.test_metric)
                     for rm in history for _cid, s in sorted(rm.per_client.items())]).tobytes()


@pytest.mark.parametrize("run, reference", [
    (dict(method="fedssa", semantic=False), dict(method="fedssa", semantic=True)),
    (dict(method="local"), dict(method="fedssa", semantic=True, structural=False)),
    (dict(method="local"), dict(method="fedssa", semantic=False, structural=False)),
], ids=["no_semantic-vs-full", "local-vs-no_structural", "local-vs-neither"])
def test_classifier_never_reads_the_vgae(run, reference):
    # the semantic-on runs train the VGAE and align it; the classifier
    # shares no parameter or draw with it, so it follows the same path
    ds = two_regime_federation(CI_TWO_REGIME, 0)
    base = dict(rounds=6, epochs=2, order=3, k_node=2, k_struct=2, lr=0.05,
                latent_dim=4, hidden=8)
    got = run_federation_detailed(ds, RunConfig(**base, **run), seed=0).history
    want = run_federation_detailed(ds, RunConfig(**base, **reference), seed=0).history
    assert _classifier_trace(got) == _classifier_trace(want)


@pytest.mark.parametrize("overrides, vgae", [
    (dict(), True), (dict(structural=False), True), (dict(semantic=False), False),
    (dict(method="fedavg"), False), (dict(method="local"), False)],
    ids=["full", "no_structural", "no_semantic", "fedavg", "local"])
def test_only_the_semantic_channel_trains_a_vgae(overrides, vgae):
    cfg = _tiny_cfg(**overrides)
    (group,) = _groups(_tiny_dataset().clients, cfg)
    assert (group.x_in is not None) == vgae
    head = ["w", "head_w1", "head_b1", "head_w2", "head_b2"]
    assert (list(group.params) == head) != vgae
    assert list(group.adam.m) == list(group.params)
    stats, _uploads = local_round([group], {}, cfg, 0, 1)
    assert all((s.vgae != 0.0) == vgae for s in stats.values())


def test_history_shape_and_round_indexing():
    ds = _tiny_dataset()
    history = run_federation_detailed(ds, _tiny_cfg(rounds=3), seed=0).history
    assert [r.round_index for r in history] == [1, 2, 3]
    for r in history:
        assert sorted(r.per_client) == [0, 1, 2]
        assert r.floor is not None and r.floor.total >= 0.0
        assert r.heterogeneity is not None


def test_order_too_high_for_feature_dim_rejected():
    ds = _tiny_dataset()
    with pytest.raises(ConfigError):
        run_federation_detailed(ds, _tiny_cfg(order=DIM), seed=0)


def test_run_returns_round_one_chordal_matrix(monkeypatch):
    # the frames travel once, so round 1's server matrix covers the run
    run, captured = _captured_run(monkeypatch)
    chordal = run.chordal
    first = captured[0][1]
    assert chordal[0] == first.distance_ids == (0, 1, 2)
    assert chordal[1] is first.distance_matrix
    assert all(server.distance_matrix is None for _uploads, server in captured[1:])
    mat = chordal[1]
    assert mat.shape == (3, 3)
    assert np.array_equal(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0, atol=1e-6)


@pytest.mark.parametrize("overrides", [dict(structural=False), dict(method="fedavg"),
                                       dict(method="local")])
def test_run_without_frames_has_no_chordal_matrix(overrides):
    run = run_federation_detailed(_tiny_dataset(), _tiny_cfg(**overrides), seed=0)
    assert run.chordal is None


# --- privacy of the wire format -----------------------------------------------
# The README's closed-form message sizes, in bytes: int32 header entries cost
# 4 bytes and float64 entries 8.


def _upload_size(order: int, d: int, classes: int, frame: tuple) -> int:
    rows, cols = frame
    return 4 * (6 + 2 * classes) + 8 * (order + 1 + 2 * d * classes + rows * cols)


def _broadcast_size(coefficients: int, d: int, reps: int) -> int:
    return 4 * (3 + reps) + 8 * (coefficients + reps * (d + d * (d + 1) // 2))


def _params_size(order: int, features: int, hidden: int, classes: int, d: int) -> int:
    floats = order + 1 + hidden * (features + 1) + classes * (hidden + 1)
    return 4 * 5 + 8 * floats  # w and the 4 head arrays: FedAvg trains no VGAE


def test_upload_carries_only_statistics():
    ds = _tiny_dataset(num_clients=1)
    cfg = _tiny_cfg()
    _stats, uploads = local_round(_alone(ds.clients[0], cfg), {}, cfg, seed=0,
                                  round_index=1)
    upload = uploads[0]
    field_names = {f.name for f in dataclasses.fields(ClientUpload)}
    assert field_names == {"client_id", "coefficients", "class_gaussians",
                           "spectral_energy"}
    # statistics have statistic-sized shapes, not node-table shapes
    assert upload.coefficients.shape == (cfg.order + 1,)
    for g in upload.class_gaussians:
        assert g.mean.shape == (cfg.latent_dim,)
    assert upload.spectral_energy.q.shape == (DIM, cfg.order + 1)
    graph = ds.clients[0]
    assert sum(g.count for g in upload.class_gaussians) == graph.train_idx.size
    # and nothing else can ride along in a message of exactly their length
    classes = np.unique(graph.labels[graph.train_idx]).size
    assert len(encode_upload(upload)) == _upload_size(cfg.order, cfg.latent_dim, classes,
                                                      (DIM, cfg.order + 1))


def test_local_and_fedavg_clients_never_build_uploads():
    ds = _tiny_dataset(num_clients=1)
    for method in ("local", "fedavg"):
        cfg = _tiny_cfg(method=method)
        stats, uploads = local_round(_alone(ds.clients[0], cfg), {}, cfg, seed=0,
                                     round_index=1)
        assert uploads == {}
        assert list(stats) == [0]
        assert np.isfinite(dataclasses.astuple(stats[0])).all()
        assert stats[0].bytes_up == stats[0].bytes_down == 0


def test_ablated_uploads_shrink():
    ds = _tiny_dataset(num_clients=1)
    full_cfg = _tiny_cfg()
    bare_cfg = _tiny_cfg(semantic=False, structural=False)
    full = local_round(_alone(ds.clients[0], full_cfg), {},
                       full_cfg, seed=0, round_index=1)[1][0]
    bare = local_round(_alone(ds.clients[0], bare_cfg), {},
                       bare_cfg, seed=0, round_index=1)[1][0]
    assert bare.class_gaussians == ()
    assert bare.spectral_energy is None
    assert (len(encode_upload(bare)) == _upload_size(ORDER, 0, 0, (0, 0))
            < len(encode_upload(full)))


def test_byte_accounting_by_method():
    ds = _tiny_dataset()
    fedssa, local, fedavg = (
        run_federation_detailed(ds, _tiny_cfg(method=method, rounds=1), seed=0).history[0]
        for method in ("fedssa", "local", "fedavg"))
    for cid in range(3):
        assert fedssa.per_client[cid].bytes_up > 0
        assert fedssa.per_client[cid].bytes_down > 0
        assert local.per_client[cid].bytes_up == 0
        assert local.per_client[cid].bytes_down == 0
        # the averaged parameters go down in the message shape they came up in
        assert fedavg.per_client[cid].bytes_up == fedavg.per_client[cid].bytes_down > 0
    down = {fedavg.per_client[cid].bytes_down for cid in range(3)}
    assert len(down) == 1  # everyone receives the same averaged parameters


def _captured_run(monkeypatch, rounds=3):
    """A small fedssa run plus each round's (uploads, server round)."""
    captured = []
    step = federation.server_step

    def capture(uploads, *args, **kwargs):
        out = step(uploads, *args, **kwargs)
        captured.append((dict(uploads), out))
        return out

    monkeypatch.setattr(federation, "server_step", capture)
    run = run_federation_detailed(_tiny_dataset(), _tiny_cfg(rounds=rounds), seed=0)
    assert len(captured) == rounds
    return run, captured


def _fedavg_messages(monkeypatch, rounds=2) -> list:
    """A small fedavg run's messages as (parameters sent, message) pairs."""
    sent = []
    encode = federation.encode_params

    def capture(params):
        message = encode(params)
        sent.append(({name: a.copy() for name, a in params.items()}, message))
        return message

    monkeypatch.setattr(federation, "encode_params", capture)
    run_federation_detailed(_tiny_dataset(), _tiny_cfg(method="fedavg", rounds=rounds),
                            seed=0)
    assert len(sent) == rounds * (3 + 1)  # three uploads and one averaged message
    return sent


def test_wire_form_is_lossless(monkeypatch):
    _run, captured = _captured_run(monkeypatch)
    for round_index, (uploads, server) in enumerate(captured, start=1):
        for cid, up in uploads.items():
            wire = decode_upload(encode_upload(up))
            assert wire["client_id"] == cid
            assert np.array_equal(wire["coefficients"], up.coefficients)
            assert len(wire["classes"]) == len(up.class_gaussians) > 0
            for (label, count, mean, cov), g in zip(wire["classes"], up.class_gaussians):
                assert (label, count) == (g.label, g.count)
                assert np.array_equal(mean, g.mean) and np.array_equal(cov, g.cov)
            if round_index == 1:
                assert np.array_equal(wire["q"], up.spectral_energy.q)
            else:
                assert wire["q"] is None and up.spectral_energy is None
        for bc in server.broadcasts.values():
            reps, coeffs = decode_broadcast(encode_broadcast(bc))
            assert sorted(reps) == sorted(bc.class_representatives)
            for label, (mean, cov) in reps.items():
                rep = bc.class_representatives[label]
                assert np.array_equal(mean, rep.mean) and np.array_equal(cov, rep.cov)
            assert np.array_equal(coeffs, bc.cluster_coefficients)
    cfg = _tiny_cfg()
    template = {name: a for name, a in init_params(DIM, 2, cfg.order, cfg.hidden,
                                                   cfg.latent_dim, stream(0, "init")).items()
                if name == "w" or name.startswith("head_")}
    for params, message in _fedavg_messages(monkeypatch):
        decoded = decode_params(message, template)
        assert list(decoded) == list(params)
        assert all(np.array_equal(decoded[name], params[name]) for name in params)


def test_run_counts_the_bytes_of_its_payloads(monkeypatch):
    run, captured = _captured_run(monkeypatch)
    shared = 0
    for metrics, (uploads, server) in zip(run.history, captured):
        for cid, up in uploads.items():
            assert metrics.per_client[cid].bytes_up == len(encode_upload(up))
        for cid, bc in server.broadcasts.items():
            assert metrics.per_client[cid].bytes_down == len(encode_broadcast(bc))
        reps = [r for bc in server.broadcasts.values()
                for r in bc.class_representatives.values()]
        shared += len(reps) - len({id(r) for r in reps})
    assert shared > 0  # clients of one cluster share representatives


def test_message_lengths_match_the_closed_form(monkeypatch):
    _run, captured = _captured_run(monkeypatch)
    d = _tiny_cfg().latent_dim
    for round_index, (uploads, server) in enumerate(captured, start=1):
        frame = (DIM, ORDER + 1) if round_index == 1 else (0, 0)
        for up in uploads.values():
            assert len(encode_upload(up)) == _upload_size(ORDER, d, len(up.class_gaussians),
                                                          frame)
        for bc in server.broadcasts.values():
            assert len(encode_broadcast(bc)) == _broadcast_size(
                ORDER + 1, d, len(bc.class_representatives))
    cfg = _tiny_cfg()
    want = _params_size(ORDER, DIM, cfg.hidden, 2, cfg.latent_dim)
    assert all(len(message) == want for _params, message in _fedavg_messages(monkeypatch))


def test_byte_columns_repeat_across_seeds():
    # the length of a message follows from its shapes, not from its values
    ds = _tiny_dataset()
    runs = [run_federation_detailed(ds, _tiny_cfg(rounds=3), seed=seed).history
            for seed in (0, 1)]
    columns = [[(s.bytes_up, s.bytes_down) for rm in h for s in rm.per_client.values()]
               for h in runs]
    assert columns[0] == columns[1]
    assert _signatures(runs[0]) != _signatures(runs[1])


def _rep(label, d=3, skew=0.0):
    rng = np.random.default_rng(label)
    a = rng.standard_normal((d, d))
    cov = a @ a.T
    cov = 0.5 * (cov + cov.T) + np.eye(d)
    cov[0, 1] += skew
    return ClassGaussian(label, rng.standard_normal(d), cov, 5)


def test_hand_built_broadcasts_round_trip():
    # labels go in ascending order whatever the dict order (10 sorts after 2);
    # a broadcast may lack coefficients, representatives or both
    r2, r10, r11 = _rep(2), _rep(10), _rep(11)
    broadcasts = [
        ServerBroadcast({11: r11, 2: r2, 10: r10}, np.array([0.5, -1.25, 3.0])),
        ServerBroadcast({10: r10}, None),
        ServerBroadcast({}, np.array([1.0, 2.0, 3.0])),
        ServerBroadcast({}, None),
    ]
    for bc in broadcasts:
        message = encode_broadcast(bc)
        reps, coeffs = decode_broadcast(message)
        assert list(reps) == sorted(bc.class_representatives)
        for label, (mean, cov) in reps.items():
            rep = bc.class_representatives[label]
            assert np.array_equal(mean, rep.mean) and np.array_equal(cov, rep.cov)
        if bc.cluster_coefficients is None:
            assert coeffs is None
        else:
            assert np.array_equal(coeffs, bc.cluster_coefficients)
        sent = 0 if coeffs is None else coeffs.size
        assert len(message) == _broadcast_size(sent, 3, len(reps))


def test_wire_form_rejects_what_it_would_drop():
    cov = np.array([[1.0, 0.25], [0.25, 1.0]])
    upload = ClientUpload(0, np.ones(3), (ClassGaussian(0, np.zeros(2), cov, 4),), None)
    with pytest.raises(ContractError, match="off-diagonal"):
        encode_upload(upload)
    skewed = _rep(1, skew=1e-12)  # within ClassGaussian's symmetry tolerance
    with pytest.raises(ContractError, match="not symmetric"):
        encode_broadcast(ServerBroadcast({1: skewed}, None))


# --- spectral-energy frames -------------------------------------------------------


# The many-clients benchmark workload at seed 0 for 3 rounds: 100 overlapping
# 75-node clients whose bit-identical frames k-means split differently in
# every round while the server reclustered them with each round's seed.
MANY_CLIENTS = {
    "seed": 0, "method": "fedssa",
    "dataset": {"kind": "synthetic", "nodes": 3000, "classes": 4, "features": 24,
                "p_intra": 0.02, "p_inter": 0.002, "mean_scale": 2.0, "noise": 1.0},
    "partition": {"scheme": "overlap", "clients": 100},
    "hyperparams": {"T": 3, "E": 2, "K": 3, "k_node": 2, "k_struct": 2,
                    "lambda1": 1e-3, "lambda2": 1e-3, "lr": 0.15, "d_z": 8, "h": 16},
}


def test_frames_travel_once_and_structural_clusters_stay_fixed(monkeypatch):
    cfg = parse_config(MANY_CLIENTS)
    rounds = []
    step = federation.server_step

    def recording_step(uploads, *args, **kwargs):
        out = step(uploads, *args, **kwargs)
        rounds.append((dict(uploads), out))
        return out

    calls = []

    def counted(name):
        real = getattr(federation, name)

        def counting(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(federation, name, counting)

    counted("structural_cluster")
    counted("pairwise_chordal")
    monkeypatch.setattr(federation, "server_step", recording_step)
    run_federation_detailed(build_dataset(cfg, cfg.seed), cfg.run, cfg.seed)
    assert len(rounds) == 3
    assert calls == ["structural_cluster", "pairwise_chordal"]
    first = rounds[0][1].structural_map.assignments
    assert sorted(first) == list(range(100)) and len(set(first.values())) == 2
    for index, (uploads, server) in enumerate(rounds, start=1):
        framed = {cid for cid, u in uploads.items() if u.spectral_energy is not None}
        assert framed == (set(uploads) if index == 1 else set())
        assert (server.distance_matrix is not None) == (index == 1)
        assert server.structural_map.assignments == first


def _edgeless_client(seed):
    g = _tiny_dataset(num_clients=1, seed=seed).clients[0]
    return LocalGraph(g.features, g.labels, np.zeros((0, 2), dtype=np.int64),
                      g.train_idx, g.val_idx, g.test_idx)


def _cycle_client(seed):
    g = _tiny_dataset(num_clients=1, seed=seed).clients[0]
    ring = [[i, (i + 1) % g.n] for i in range(g.n)]
    return LocalGraph(g.features, g.labels, ring, g.train_idx, g.val_idx, g.test_idx)


@pytest.mark.parametrize("odd_client", [_edgeless_client, _cycle_client],
                         ids=["edgeless", "cycle"])
def test_rank_deficient_client_rejected_at_run_start(odd_client):
    good = _tiny_dataset(num_clients=2).clients
    ds = FederationDataset(clients=good + (odd_client(7),), num_classes=2,
                           feature_dim=DIM, task="multiclass")
    with pytest.raises(ConfigError, match=r"client 2 .*structural: false.*lower order"):
        run_federation_detailed(ds, _tiny_cfg(), seed=0)
    # the frame is the only use of the rank, so either remedy lets the run go on
    for cfg in (_tiny_cfg(structural=False), _tiny_cfg(order=0)):
        assert len(run_federation_detailed(ds, cfg, seed=0).history) == 2


def test_setup_names_the_lowest_rank_deficient_client_across_groups():
    # clients 0 and 2 have 14 nodes and train together, client 1 has 15 and
    # trains alone; clients 1 and 2 are edgeless. Setup walks the clients in
    # id order, so client 1 is named, not client 2 of the first group.
    g0 = _tiny_dataset(num_clients=1).clients[0]
    wide = synth_dataset(SynthSpec(num_nodes=15, num_classes=2, feature_dim=DIM,
                                   p_intra=0.6, p_inter=0.1), 3)
    g1 = LocalGraph(wide.features, wide.labels, np.zeros((0, 2), dtype=np.int64),
                    wide.train_idx, wide.val_idx, wide.test_idx)
    ds = FederationDataset(clients=(g0, g1, _edgeless_client(7)), num_classes=2,
                           feature_dim=DIM, task="multiclass")
    groups = _groups(ds.clients, _tiny_cfg(structural=False))
    assert [[s.client_id for s in g.states] for g in groups] == [[0, 2], [1]]
    with pytest.raises(ConfigError, match=r"client 1 has rank-deficient"):
        run_federation_detailed(ds, _tiny_cfg(), seed=0)


# --- fedavg fixed point ---------------------------------------------------------


def test_fedavg_with_identical_clients_matches_solo_training():
    # shared init plus client-independent training noise means identical
    # graphs produce identical trajectories, so averaging is a fixed point.
    g = _tiny_dataset(num_clients=1).clients[0]
    twin = FederationDataset(clients=(g, g), num_classes=2, feature_dim=DIM,
                             task="multiclass")
    solo = FederationDataset(clients=(g,), num_classes=2, feature_dim=DIM,
                             task="multiclass")
    avg = run_federation_detailed(twin, _tiny_cfg(method="fedavg", rounds=3),
                                  seed=4)
    one = run_federation_detailed(solo, _tiny_cfg(method="local", rounds=3),
                                  seed=4)
    a, b = avg.states
    assert list(a.params) == list(one.states[0].params)
    for name, arr in a.params.items():
        assert arr.tobytes() == b.params[name].tobytes(), name
        assert arr.tobytes() == one.states[0].params[name].tobytes(), name


# --- divergence rollback --------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_rolls_back_and_raises():
    ds = _tiny_dataset(num_clients=1)
    cfg = _tiny_cfg(method="local", epochs=2, lr=1.0e308)
    groups = _alone(ds.clients[0], cfg)
    state = groups[0].states[0]
    before = {name: a.copy() for name, a in state.params.items()}
    with pytest.raises(TrainingDivergenceError, match="client 0"):
        local_round(groups, {}, cfg, seed=0, round_index=1)
    for name, arr in before.items():
        assert state.params[name].tobytes() == arr.tobytes()
    assert groups[0].adam.t == 0
    assert all(not m.any() for m in groups[0].adam.m.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["local", "fedssa"])
def test_divergence_in_the_evaluation_forward_rolls_back(method):
    # one epoch at lr 1e308 keeps the training forward finite; the
    # evaluation forward then meets a non-finite loss (local) or encoder
    # leaf (fedssa), and the round rolls back as a training divergence does
    ds = _tiny_dataset(num_clients=2)
    cfg = _tiny_cfg(method=method, epochs=1, lr=1.0e308)
    groups = _groups(ds.clients, cfg)
    before = _group_snapshot(groups[0])
    with pytest.raises(TrainingDivergenceError, match="client 0 diverged in round 1"):
        local_round(groups, {}, cfg, seed=0, round_index=1)
    assert _group_snapshot(groups[0]) == before
    with pytest.raises(TrainingDivergenceError) as info:
        run_federation_detailed(ds, cfg, seed=0)
    assert info.value.history == ()


def _semantic_round_inputs():
    """A two-client fedssa group after round 1, its config and its round-2 broadcasts."""
    ds = _tiny_dataset(num_clients=2)
    cfg = _tiny_cfg()
    groups = _groups(ds.clients, cfg)
    _stats, uploads = local_round(groups, {}, cfg, 0, 1)
    broadcasts = server_step(uploads, cfg.k_node, cfg.k_struct, 0).broadcasts
    assert len(groups) == 1 and broadcasts[0].class_representatives
    return groups[0], cfg, broadcasts


def _group_snapshot(group):
    """Bytes of every member's parameters plus the group's Adam state."""
    return ([{name: a.tobytes() for name, a in s.params.items()} for s in group.states],
            {name: a.tobytes() for name, a in group.adam.m.items()},
            {name: a.tobytes() for name, a in group.adam.v.items()}, group.adam.t)


def test_nonpositive_class_variance_rolls_back(monkeypatch):
    group, cfg, broadcasts = _semantic_round_inputs()
    real = tp.segment_moments

    def zero_variances(mu, logvar, groups):
        moments = real(mu, logvar, groups)
        moments.value[:, cfg.latent_dim:] = 0.0
        return moments

    monkeypatch.setattr(tp, "segment_moments", zero_variances)
    before = _group_snapshot(group)
    with pytest.raises(TrainingDivergenceError,
                       match="client 0 .*variances must be positive"):
        local_round([group], broadcasts, cfg, seed=0, round_index=2)
    assert _group_snapshot(group) == before


def test_indefinite_representative_rolls_back():
    group, cfg, broadcasts = _semantic_round_inputs()
    dz = cfg.latent_dim
    indefinite = np.eye(dz) + 2.0 * (np.ones((dz, dz)) - np.eye(dz))
    bad = dataclasses.replace(broadcasts[1], class_representatives={
        label: ClassGaussian(label, np.zeros(dz), indefinite, 1)
        for label in broadcasts[1].class_representatives})
    before = _group_snapshot(group)
    with pytest.raises(TrainingDivergenceError, match="client 1 .*positive definite"):
        local_round([group], {**broadcasts, 1: bad}, cfg, seed=0, round_index=2)
    assert _group_snapshot(group) == before


def test_indefinite_representative_in_two_groups_names_lowest_client():
    # the representative reaches client 2 in the first group and client 1
    # in the second, and no group trains
    cfg = _tiny_cfg()
    groups = _interleaved_groups(cfg)
    broadcasts = server_step(local_round(groups, {}, cfg, 0, 1)[1],
                             cfg.k_node, cfg.k_struct, 0).broadcasts
    dz = cfg.latent_dim
    indefinite = np.eye(dz) + 2.0 * (np.ones((dz, dz)) - np.eye(dz))
    for cid in (2, 1):
        broadcasts[cid] = dataclasses.replace(broadcasts[cid], class_representatives={
            label: ClassGaussian(label, np.zeros(dz), indefinite, 1)
            for label in broadcasts[cid].class_representatives})
    before = [_group_snapshot(g) for g in groups]
    with pytest.raises(TrainingDivergenceError,
                       match="client 1 diverged in round 2: .*positive definite"):
        local_round(groups, broadcasts, cfg, seed=0, round_index=2)
    assert [_group_snapshot(g) for g in groups] == before


@pytest.mark.filterwarnings("error")
def test_divergence_propagates_from_run_federation():
    ds = _tiny_dataset(num_clients=1)
    with pytest.raises(TrainingDivergenceError):
        run_federation_detailed(ds, _tiny_cfg(method="local", epochs=2, lr=1.0e308), seed=0)


@pytest.mark.filterwarnings("error")
def test_vgae_divergence_raises_no_floating_point_warning():
    # the overflow is reported once, as the divergence, not as numpy warnings
    with pytest.raises(TrainingDivergenceError, match="client 0 diverged in round 1"):
        run_federation_detailed(_tiny_dataset(), _tiny_cfg(lr=1.0e200), seed=0)


# --- server protocol ------------------------------------------------------------


def _frame(rng, base):
    q, _ = qr_thin(base + 1e-3 * rng.standard_normal(base.shape))
    return q


def _hand_uploads(seed=0):
    """{client_id: upload} of four clients in two structural regimes, no
    semantic branch."""
    rng = np.random.default_rng(seed)
    base_a = rng.standard_normal((DIM, ORDER + 1))
    base_b = rng.standard_normal((DIM, ORDER + 1))
    w_a = np.array([1.0, 0.5, 0.0, 0.0])
    w_b = np.array([-1.0, 0.0, 0.5, 2.0])
    uploads = {}
    for cid in range(4):
        base = base_a if cid < 2 else base_b
        w = (w_a if cid < 2 else w_b) + 0.01 * cid
        uploads[cid] = ClientUpload(client_id=cid, coefficients=w, class_gaussians=(),
                                    spectral_energy=SpectralEnergy(cid, _frame(rng, base)))
    return uploads


def test_server_recovers_structural_regimes():
    uploads = _hand_uploads()
    server = server_step(uploads, k_node=2, k_struct=2, seed=0)
    a = server.structural_map.assignments
    assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
    want = np.mean([uploads[0].coefficients, uploads[1].coefficients], axis=0)
    got = server.broadcasts[0].cluster_coefficients
    assert np.allclose(got, want)
    assert server.semantic_map is None
    assert server.broadcasts[0].class_representatives == {}


def test_server_recovers_semantic_groups():
    def gaussians(center):
        return (ClassGaussian(0, np.full(3, center), 0.05 * np.eye(3), 10),)

    uploads = {cid: ClientUpload(cid, np.ones(4), gaussians(-50.0 if cid < 2 else 50.0), None)
               for cid in range(4)}
    server = server_step(uploads, k_node=2, k_struct=2, seed=0)
    assert server.structural_map is None
    reps = {cid: server.broadcasts[cid].class_representatives[0] for cid in range(4)}
    assert np.allclose(reps[0].mean, reps[1].mean)
    assert np.allclose(reps[2].mean, reps[3].mean)
    assert abs(reps[0].mean[0] - (-50.0)) < 1.0
    assert abs(reps[2].mean[0] - 50.0) < 1.0


def test_server_step_keeps_given_clusters_for_frameless_uploads():
    framed = _hand_uploads()
    frameless = {cid: dataclasses.replace(u, spectral_energy=None)
                 for cid, u in framed.items()}
    structure = {0: 1, 1: 0, 2: 1, 3: 0}  # not the regimes the frames hold
    server = server_step(frameless, k_node=2, k_struct=2, seed=0, structure=structure)
    assert server.structural_map.assignments == structure
    assert server.distance_matrix is None and server.distance_ids == ()
    for cid in range(4):
        members = [c for c in sorted(structure) if structure[c] == structure[cid]]
        want = np.mean([framed[c].coefficients for c in members], axis=0)
        assert np.allclose(server.broadcasts[cid].cluster_coefficients, want)
    with pytest.raises(ProtocolError, match="missing upload from client 3"):
        server_step({cid: frameless[cid] for cid in range(3)}, 2, 2, 0,
                    structure=structure)
    assert server_step(frameless, 2, 2, 0).structural_map is None


def test_server_step_returns_broadcast_dict():
    uploads = _hand_uploads()
    broadcasts = server_step(uploads, k_node=2, k_struct=2, seed=0).broadcasts
    assert sorted(broadcasts) == [0, 1, 2, 3]


def test_server_protocol_errors():
    uploads = _hand_uploads()
    with pytest.raises(ProtocolError, match="missing upload from client 4"):
        server_step(uploads, 2, 2, 0, expected_clients=range(5))
    with pytest.raises(ProtocolError, match="no uploads"):
        server_step({}, 2, 2, 0)
    short = ClientUpload(9, np.ones(3), (), None)
    with pytest.raises(ShapeError, match="lengths differ"):
        server_step({**uploads, 9: short}, 2, 2, 0)


def _swap_frames(uploads):
    return {**uploads,
            0: dataclasses.replace(uploads[0], spectral_energy=uploads[3].spectral_energy),
            3: dataclasses.replace(uploads[3], spectral_energy=uploads[0].spectral_energy)}


@pytest.mark.parametrize("edit, key", [
    (_swap_frames, 0),
    (lambda ups: {**ups, 3: dataclasses.replace(ups[3], client_id=42)}, 3),
    (lambda ups: {**ups, 3: dataclasses.replace(ups[3], spectral_energy=SpectralEnergy(
        7, ups[3].spectral_energy.q))}, 3),
], ids=["swapped-frames", "upload-id", "frame-id-not-a-key"])
def test_server_step_rejects_ids_that_differ_from_the_key(edit, key):
    with pytest.raises(ProtocolError, match=f"upload keyed {key} carries client ids"):
        server_step(edit(_hand_uploads()), 2, 2, 0)


# --- config validation -----------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ConfigError, match="unknown method"):
        _tiny_cfg(method="gossip").validate()
    with pytest.raises(ConfigError):
        _tiny_cfg(rounds=-1).validate()
    with pytest.raises(ConfigError):
        _tiny_cfg(k_node=0).validate()
    with pytest.raises(ConfigError):
        _tiny_cfg(lr=0.0).validate()
    with pytest.raises(ConfigError):
        _tiny_cfg(lambda1=-0.1).validate()
    _tiny_cfg().validate()


def test_binary_auc_task_runs():
    ds = _tiny_dataset(task="binary-auc")
    history = run_federation_detailed(ds, _tiny_cfg(rounds=1), seed=0).history
    val = history[0].mean_val_metric
    assert np.isnan(val) or 0.0 <= val <= 1.0
    assert 0.0 <= history[0].mean_train_metric <= 1.0
