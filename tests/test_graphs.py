"""Graph substrate checks: Laplacian hand values and spectral range,
edge-list powers and row-blocked synthesis against dense references, the
column-at-a-time powers bit for bit against one flattened bincount,
edge canonicalisation, split/partition properties and the array
partitioner against a loop oracle, SBM synthesis determinism, strict JSON
I/O."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fedssa.errors import ConfigError, ContractError, InfeasibleError
from fedssa.graphs import (JUMP_WORDS, PAIR_BLOCK, FederationDataset, LocalGraph,
                           SynthSpec, _greedy_assignment, graph_from_dict,
                           graph_to_dict, laplacian_powers, load_dataset, load_graph,
                           partition_nonoverlap, partition_overlap,
                           save_dataset, save_graph, stratified_split,
                           synth_dataset)
from fedssa.rng import spawn_key, stream
from helpers import (dense_synth_dataset, greedy_assignment_loop, homophily_ratio,
                     induced_edges_loop, normalized_laplacian, pair_draw_offset,
                     partition_loop, reference_laplacian_powers, rowblock_synth_dataset)


def _graph(features, labels, edges, train=None, val=None, test=None):
    n = np.asarray(features).shape[0]
    train = [0] if train is None else train
    val = [] if val is None else val
    test = [] if test is None else test
    return LocalGraph(np.asarray(features, dtype=float), labels, edges,
                      train, val, test)


def _two_nodes_one_edge():
    return _graph(np.eye(2), [0, 1], [[0, 1]])


# --- Laplacian ------------------------------------------------------------------


def _laplacian(g):
    """L itself: one propagation step of identity features."""
    assert np.array_equal(g.features, np.eye(g.n))
    return laplacian_powers(g, 1)[1]


def test_laplacian_single_edge_hand_value():
    lap = _laplacian(_two_nodes_one_edge())
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_path_graph_hand_value():
    g = _graph(np.eye(3), [0, 0, 0], [[0, 1], [1, 2]])
    lap = _laplacian(g)
    s = 1.0 / np.sqrt(2.0)
    want = np.array([[1.0, -s, 0.0], [-s, 1.0, -s], [0.0, -s, 1.0]])
    assert np.allclose(lap, want)
    assert np.array_equal(lap, lap.T)


def test_laplacian_isolated_node_unit_diagonal():
    g = _graph(np.eye(3), [0, 0, 1], [[0, 1]])
    lap = _laplacian(g)
    assert lap[2, 2] == 1.0
    assert np.all(lap[2, :2] == 0.0) and np.all(lap[:2, 2] == 0.0)


def test_laplacian_exactly_symmetric_and_spectrum_in_range():
    for seed in range(10):
        sbm = synth_dataset(SynthSpec(40, 3, 4, 0.2, 0.05), seed)
        lap = _laplacian(_graph(np.eye(sbm.n), sbm.labels, sbm.edges))
        assert np.array_equal(lap, lap.T)
        assert np.all(np.diag(lap) == 1.0)
        vals = np.linalg.eigvalsh(lap)
        assert vals.min() >= -1e-10
        assert vals.max() <= 2.0 + 1e-10


def test_laplacian_powers_path_hand_value():
    g = _graph(np.array([[1.0], [0.0]]), [0, 1], [[0, 1]])
    powers = laplacian_powers(g, 2)
    assert np.allclose(powers[0], [[1.0], [0.0]])
    assert np.allclose(powers[1], [[1.0], [-1.0]])
    assert np.allclose(powers[2], [[2.0], [-2.0]])
    assert len(powers) == 3


def _random_graph(rng, n, num_edges, isolated=0):
    """Graph on n nodes whose last `isolated` nodes touch no edge."""
    reach = n - isolated
    edges = rng.integers(0, reach, (num_edges, 2)) if reach >= 2 else np.zeros((0, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return _graph(rng.standard_normal((n, 5)), rng.integers(0, 3, n), edges)


@pytest.mark.parametrize("case", range(12))
def test_laplacian_powers_match_dense_reference(case):
    rng = np.random.default_rng(300 + case)
    n = int(rng.integers(2, 60))
    if case == 0:
        g = _random_graph(rng, n, 0)
    elif case == 1:
        g = _graph(rng.standard_normal((n, 5)), [0] * n, [[0, n - 1]])
    elif case == 2:
        g = _graph(rng.standard_normal((1, 5)), [0], np.zeros((0, 2)))
    else:
        g = _random_graph(rng, n, int(rng.integers(1, 3 * n)),
                          isolated=int(rng.integers(0, n // 2 + 1)) if case % 2 else 0)
    lap = normalized_laplacian(g)
    want = [g.features]
    for _ in range(4):
        want.append(lap @ want[-1])
    got = laplacian_powers(g, 4)
    assert len(got) == 5
    assert np.array_equal(got[0], g.features)
    for k in range(1, 5):
        assert np.max(np.abs(got[k] - want[k])) <= 1e-12


def _complete_graph(rng, d):
    n = 9
    return _graph(rng.standard_normal((n, d)), [0] * n,
                  [[i, j] for i in range(n) for j in range(i + 1, n)])


def _signed_zero_graph(rng, d):
    """Features of 0.0, -0.0 and a few nonzeros: a zero's sign shows in tobytes()."""
    edges = rng.integers(0, 30, (60, 2))
    return _graph(rng.choice([0.0, -0.0, -0.0, 1.5, -2.0], size=(40, d)), [0] * 40,
                  edges[edges[:, 0] != edges[:, 1]])


def _sbm(n):
    """A seeded SBM of about 8 intra-class neighbours per node."""
    return lambda rng, d: synth_dataset(
        SynthSpec(n, 3, d, min(1.0, 8.0 / n), min(1.0, 1.5 / n)), int(rng.integers(100)))


_POWER_GRAPHS = {
    "edgeless": lambda rng, d: _graph(rng.standard_normal((7, d)), [0] * 7,
                                      np.zeros((0, 2))),
    "single-edge": lambda rng, d: _graph(rng.standard_normal((2, d)), [0, 1], [[0, 1]]),
    "isolated-nodes": lambda rng, d: _graph(rng.standard_normal((12, d)), [0] * 12,
                                            [[1, 3], [3, 5], [5, 1], [0, 7]]),
    "complete": _complete_graph,
    "signed-zeros": _signed_zero_graph,
    **{f"sbm-{n}": _sbm(n) for n in (2, 75, 150, 1200)},
}


@pytest.mark.parametrize("d", [1, 2, 24, 33])
@pytest.mark.parametrize("name", sorted(_POWER_GRAPHS))
def test_laplacian_powers_bit_identical_to_flattened_bincount(name, d):
    g = _POWER_GRAPHS[name](np.random.default_rng(d), d)
    for order in (0, 1, 6):
        got, want = laplacian_powers(g, order), reference_laplacian_powers(g, order)
        assert len(got) == len(want) == order + 1
        for a, b in zip(got, want):
            assert a.shape == b.shape == g.features.shape and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()


def test_laplacian_powers_rejects_negative_order():
    with pytest.raises(ContractError):
        laplacian_powers(_two_nodes_one_edge(), -1)


def test_homophily_ratio():
    g = _graph(np.eye(4), [0, 0, 1, 1], [[0, 1], [1, 2], [2, 3]])
    assert homophily_ratio(g) == pytest.approx(2.0 / 3.0)
    lonely = _graph(np.eye(2), [0, 1], np.zeros((0, 2), dtype=int))
    assert np.isnan(homophily_ratio(lonely))


# --- LocalGraph contracts -------------------------------------------------------


def test_graph_canonicalizes_edges():
    g = _graph(np.eye(3), [0, 1, 0], [[2, 0], [0, 2], [1, 0]])
    assert np.array_equal(g.edges, [[0, 1], [0, 2]])


@pytest.mark.parametrize("n, edges", [
    (5, [[0, 1], [0, 1], [1, 0], [3, 4], [4, 3], [3, 4]]),      # duplicates
    (6, [[5, 0], [4, 1], [3, 2], [2, 1]]),                    # reversed pairs
    (7, [[4, 6], [0, 5], [2, 3], [0, 1], [6, 1], [2, 4]]),    # unsorted input
    (2, [[1, 0]]),                                            # a single edge
    (1, np.zeros((0, 2), dtype=np.int64)),                    # n = 1
    (40, "random"),
    (6, [[0, 1], [0, 4], [2, 3], [3, 5]]),                    # already canonical
    (6, [[1, 0], [0, 4], [3, 2], [5, 3]]),                    # keys ascend, some reversed
    (6, [[0, 1], [2, 3], [2, 3], [4, 5]]),                    # ascending with a repeat
])
def test_graph_edge_keys_match_row_unique(n, edges):
    if isinstance(edges, str):
        rng = np.random.default_rng(n)
        edges = rng.integers(0, n, (300, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    g = _graph(np.eye(n), [0] * n, edges)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    want = np.unique(np.column_stack([lo, hi]), axis=0).reshape(-1, 2)
    assert g.edges.dtype == np.int64 and g.edges.shape == want.shape
    assert np.array_equal(g.edges, want)


@pytest.mark.parametrize("n, edges", [
    (1, [[0, 0]]), (4, [[0, 1], [2, 2], [1, 3]]),             # self loops
    (1, [[0, 1]]), (4, [[0, 1], [3, 4]]), (4, [[-1, 2]]),      # out of range
])
def test_graph_edge_keys_keep_rejections(n, edges):
    with pytest.raises(ContractError):
        _graph(np.eye(n), [0] * n, edges)


def test_graph_rejects_self_loop():
    with pytest.raises(ContractError):
        _graph(np.eye(2), [0, 1], [[1, 1]])


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ContractError):
        _graph(np.eye(2), [0, 1], [[0, 2]])


def test_graph_rejects_overlapping_splits():
    for splits, pair in (
            ({"train": [0, 1], "val": [1]}, "train and val"),
            ({"train": [0, 3], "val": [1], "test": [2, 3]}, "train and test"),
            ({"train": [0], "val": [4, 1], "test": [2, 4]}, "val and test"),
            ({"train": [0], "val": [3, 1], "test": [1, 2]}, "val and test"),
            # test meets both earlier splits: the train pair is named first
            ({"train": [4, 0], "val": [1, 3], "test": [3, 2, 4]}, "train and test"),
            # a clash between train and val is named before one with test
            ({"train": [0, 1], "val": [1, 2], "test": [2]}, "train and val")):
        with pytest.raises(ContractError, match=f"^{pair} splits overlap$"):
            _graph(np.eye(5), [0, 1, 0, 1, 0], [[0, 1]], **splits)


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_graph_rejects_repeated_split_index(split):
    # the repeat adjacent, and apart in unsorted input
    for repeat in (lambda idx: idx * 2, lambda idx: [idx[0], 4, idx[0]]):
        splits = {"train": [0], "val": [1], "test": [2]}
        splits[split] = repeat(splits[split])
        with pytest.raises(ContractError, match=f"{split} indices contain duplicates"):
            _graph(np.eye(5), [0, 1, 0, 1, 0], [[0, 1]], **splits)


def test_graph_splits_are_sorted_private_copies():
    splits = {"train": np.array([3, 0]), "val": np.array([1, 4]), "test": np.array([2])}
    g = _graph(np.eye(5), [0, 1, 0, 1, 0], [[0, 1]], **splits)
    for name, arr in splits.items():
        got = g.split(name)
        assert got.dtype == np.int64 and np.array_equal(got, np.sort(arr))
        assert not got.flags.writeable and not np.shares_memory(got, arr)
        # the caller's array stays writable and unchanged
        assert arr.flags.writeable
    assert np.array_equal(splits["train"], [3, 0])


def test_graph_features_and_labels_are_private_copies():
    features, labels = np.eye(3), np.array([0, 1, 0])
    g = LocalGraph(features, labels, np.zeros((0, 2), dtype=np.int64), [0], [1], [2])
    assert not np.shares_memory(g.features, features)
    assert not np.shares_memory(g.labels, labels)
    assert not g.features.flags.writeable and not g.labels.flags.writeable
    # the caller's arrays stay writable, and writing them leaves the graph as built
    assert features.flags.writeable and labels.flags.writeable
    features[0, 0] = 5.0
    labels[0] = 7
    assert np.array_equal(g.features, np.eye(3))
    assert np.array_equal(g.labels, [0, 1, 0])


def test_graph_arrays_are_read_only():
    g = _two_nodes_one_edge()
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        g.labels[0] = 3


def test_dataset_validates_clients():
    g = _two_nodes_one_edge()
    with pytest.raises(ContractError, match="client 0: label 1 exceeds"):
        FederationDataset((g,), num_classes=1, feature_dim=2, task="multiclass")
    # with two bad clients the error names the lower id
    wide = _graph(np.eye(2), [0, 2], [[0, 1]])
    with pytest.raises(ContractError, match="client 1: label 2 exceeds federation class"
                                            " count 2"):
        FederationDataset((g, wide, g, wide), num_classes=2, feature_dim=2,
                          task="multiclass")
    with pytest.raises(ConfigError):
        FederationDataset((g,), num_classes=2, feature_dim=2, task="nonsense")
    with pytest.raises(ConfigError):
        FederationDataset((g,), num_classes=3, feature_dim=2, task="binary-auc")


# --- splits ---------------------------------------------------------------------


def test_stratified_split_properties():
    rng = stream(0, "test-split")
    labels = np.array([0] * 10 + [1] * 7 + [2] * 3)
    train, val, test = stratified_split(labels, rng)
    all_idx = np.concatenate([train, val, test])
    assert np.array_equal(np.sort(all_idx), np.arange(20))
    for c in range(3):
        assert np.sum(labels[train] == c) >= 1
    assert np.sum(labels[train] == 0) == 2
    assert np.sum(labels[val] == 0) == 4


def test_stratified_split_singleton_class_goes_to_train():
    rng = stream(1, "test-split")
    labels = np.array([0, 0, 0, 0, 1])
    train, _, _ = stratified_split(labels, rng)
    assert 4 in train


# --- synthesis ------------------------------------------------------------------


def test_synth_deterministic_and_balanced():
    spec = SynthSpec(30, 3, 5, 0.3, 0.02)
    g1 = synth_dataset(spec, 11)
    g2 = synth_dataset(spec, 11)
    assert g1.features.tobytes() == g2.features.tobytes()
    assert g1.edges.tobytes() == g2.edges.tobytes()
    counts = np.bincount(g1.labels, minlength=3)
    assert counts.max() - counts.min() <= 1
    g3 = synth_dataset(spec, 12)
    assert g3.features.tobytes() != g1.features.tobytes()


def test_synth_homophilous_vs_heterophilous():
    homo = synth_dataset(SynthSpec(120, 3, 4, 0.2, 0.01), 0)
    hetero = synth_dataset(SynthSpec(120, 3, 4, 0.01, 0.2), 0)
    assert homophily_ratio(homo) > 0.7
    assert homophily_ratio(hetero) < 0.3


def test_synth_extreme_probs():
    full = synth_dataset(SynthSpec(10, 2, 3, 1.0, 1.0), 0)
    assert full.edges.shape[0] == 45
    empty = synth_dataset(SynthSpec(10, 2, 3, 0.0, 0.0), 0)
    assert empty.edges.shape[0] == 0


def test_synth_fixed_class_means_are_used():
    means = np.array([[10.0, 10.0], [-10.0, -10.0]])
    spec = SynthSpec(20, 2, 2, 0.2, 0.02, noise=0.1, class_means=means)
    g = synth_dataset(spec, 5)
    for c in range(2):
        rows = g.features[g.labels == c]
        assert np.linalg.norm(rows.mean(axis=0) - means[c]) < 1.0


def test_synth_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(10, 1, 3, 0.1, 0.1)
    with pytest.raises(ConfigError):
        SynthSpec(10, 2, 3, 1.5, 0.1)
    with pytest.raises(ConfigError):
        SynthSpec(0, 2, 3, 0.1, 0.1)


# synth_dataset draws PAIR_BLOCK // n rows of uniforms at a time; at n = SIDE
# one block holds exactly all n rows.
SIDE = math.isqrt(PAIR_BLOCK)

# (n, p_intra, p_inter, means): "two-regime" fixes the class means and the
# seed as config.two_regime_federation does for its clients; None draws the
# means from the graph's own stream.
SYNTH_CASES = [
    (1, 0.3, 0.1, None), (2, 1.0, 1.0, None), (2, 0.0, 0.0, None),
    (SIDE - 1, 0.05, 0.01, None), (SIDE, 1.0, 0.0, None), (SIDE + 1, 0.0, 1.0, None),
    (SIDE + 1, 1.0, 1.0, None), (SIDE + 1, 0.0, 0.0, None),
    (512, 0.05, 0.005, None), (4 * SIDE, 0.01, 0.002, None),
    (4 * SIDE, 0.002, 0.01, None), (SIDE + 1, 0.03, 0.03, None),
    (150, 0.01, 0.1, "two-regime"),
]


@pytest.mark.parametrize("n,p_intra,p_inter,means", SYNTH_CASES,
                         ids=["-".join(str(v) for v in case if v is not None)
                              for case in SYNTH_CASES])
def test_synth_matches_dense_reference(n, p_intra, p_inter, means):
    assert PAIR_BLOCK // SIDE == SIDE
    spec, seed = SynthSpec(n, 3, 4, p_intra, p_inter), n
    if means == "two-regime":
        fixed = stream(n, "two-regime-means").standard_normal((3, 4))
        spec = SynthSpec(n, 3, 4, p_intra, p_inter, class_means=fixed)
        seed = spawn_key(n, "regime-client", 1)
    got, want = synth_dataset(spec, seed), dense_synth_dataset(spec, seed)
    for name in ("edges", "features", "labels", "train_idx", "val_idx", "test_idx"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


# Rows past the first JUMP_WORDS - 1 start at column i + 1, reached by moving
# the Philox counter. Per size, four seeds whose first node-pair uniform is
# read from Philox buffer positions 0, 1, 2 and 3 in turn.
JUMP_SEEDS = {JUMP_WORDS - 1: (0, 1, 7, 9), JUMP_WORDS: (0, 1, 7, 9),
              JUMP_WORDS + 1: (0, 1, 7, 8), 2 * JUMP_WORDS + 3: (9, 3, 2, 1)}
JUMP_CASES = (
    [(n, 0.05, 0.01, seed) for n, seeds in JUMP_SEEDS.items() for seed in seeds]
    + [(n, p_intra, p_inter, JUMP_SEEDS[n][0]) for n in JUMP_SEEDS
       for p_intra, p_inter in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0))])
# perfbench's large-graph spec; dense_synth_dataset cannot afford its size.
LARGE_GRAPH = SynthSpec(4800, 4, 24, 0.006, 0.0012, mean_scale=1.0)


def test_stream_is_philox():
    # synth_dataset jumps by moving the counter of Philox4x64
    assert type(stream(0, "synth").bit_generator) is np.random.Philox


def test_jump_seeds_cover_every_buffer_position():
    for n, seeds in JUMP_SEEDS.items():
        offsets = [pair_draw_offset(SynthSpec(n, 3, 4, 0.05, 0.01), seed) for seed in seeds]
        assert offsets == [0, 1, 2, 3], n


@pytest.mark.parametrize("spec, seed", [
    *((SynthSpec(n, 3, 4, p_intra, p_inter), seed) for n, p_intra, p_inter, seed in JUMP_CASES),
    (LARGE_GRAPH, 0), (LARGE_GRAPH, 1),
], ids=[f"{n}-{p_intra}-{p_inter}-seed{seed}" for n, p_intra, p_inter, seed in JUMP_CASES]
    + ["large-graph-seed0", "large-graph-seed1"])
def test_synth_matches_rowblock_reference(spec, seed):
    got, want = synth_dataset(spec, seed), rowblock_synth_dataset(spec, seed)
    for name in ("edges", "features", "labels", "train_idx", "val_idx", "test_idx"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


# --- partitioning ---------------------------------------------------------------


def test_partition_nonoverlap_covers_and_balances():
    g = synth_dataset(SynthSpec(101, 4, 6, 0.15, 0.02), 3)
    ds = partition_nonoverlap(g, 4, seed=9)
    assert ds.num_clients == 4
    sizes = [c.n for c in ds.clients]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 101
    covered = np.sort(np.concatenate(ds.node_maps))
    assert np.array_equal(covered, np.arange(101))
    for sub, nodes in zip(ds.clients, ds.node_maps):
        assert np.array_equal(sub.labels, g.labels[nodes])
        assert sub.features.tobytes() == np.ascontiguousarray(g.features[nodes]).tobytes()


def test_partition_nonoverlap_edge_accounting():
    g = synth_dataset(SynthSpec(60, 3, 4, 0.2, 0.05), 1)
    ds = partition_nonoverlap(g, 3, seed=2)
    kept = sum(c.edges.shape[0] for c in ds.clients)
    assert kept + ds.dropped_edges == g.edges.shape[0]


def test_partition_two_cliques_zero_cut():
    # Two 8-cliques joined by nothing: a sane affinity partitioner cuts 0 edges.
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges += [(i + 8, j + 8) for i in range(8) for j in range(i + 1, 8)]
    g = _graph(np.eye(16), [0] * 8 + [1] * 8, edges)
    for seed in range(5):
        ds = partition_nonoverlap(g, 2, seed=seed)
        assert ds.dropped_edges == 0
        sets = [frozenset(map(int, nm)) for nm in ds.node_maps]
        assert frozenset(range(8)) in sets
        assert frozenset(range(8, 16)) in sets


def test_partition_deterministic():
    g = synth_dataset(SynthSpec(50, 2, 3, 0.2, 0.05), 4)
    a = partition_nonoverlap(g, 5, seed=7)
    b = partition_nonoverlap(g, 5, seed=7)
    for ca, cb in zip(a.clients, b.clients):
        assert ca.features.tobytes() == cb.features.tobytes()
        assert ca.train_idx.tobytes() == cb.train_idx.tobytes()


def test_partition_errors():
    g = synth_dataset(SynthSpec(10, 2, 3, 0.2, 0.05), 4)
    with pytest.raises(ContractError):
        partition_nonoverlap(g, 1, seed=0)
    with pytest.raises(InfeasibleError):
        partition_nonoverlap(g, 11, seed=0)


def test_partition_overlap_counts_and_subsets():
    g = synth_dataset(SynthSpec(80, 2, 3, 0.2, 0.05), 6)
    ds = partition_overlap(g, 12, seed=1)
    # 12 requested -> floor(12/5) = 2 base parts -> 10 clients
    assert ds.num_clients == 10
    part_sets = []
    for i in range(0, 10, 5):
        union = set()
        for nm in ds.node_maps[i:i + 5]:
            union |= set(map(int, nm))
        part_sets.append(union)
    assert not (part_sets[0] & part_sets[1])
    # 80 nodes over 2 base parts -> 40 per part -> half-size clients of 20
    for i, nm in enumerate(ds.node_maps):
        assert len(nm) == 20
        assert set(map(int, nm)) <= part_sets[i // 5]


def test_partition_overlap_clients_differ():
    g = synth_dataset(SynthSpec(60, 2, 3, 0.2, 0.05), 2)
    ds = partition_overlap(g, 5, seed=3)
    assert ds.num_clients == 5
    maps = [tuple(map(int, nm)) for nm in ds.node_maps]
    assert len(set(maps)) > 1


def test_partition_edges_match_loop_oracle():
    g = synth_dataset(SynthSpec(120, 3, 4, 0.15, 0.05), 5)
    for seed in range(3):
        for scheme, num_clients, cut_sides in ((partition_nonoverlap, 4, 2),
                                              (partition_overlap, 10, 1)):
            ds = scheme(g, num_clients, seed=seed)
            dropped = 0
            for sub, nodes in zip(ds.clients, ds.node_maps):
                kept, cut = induced_edges_loop(g.edges, nodes)
                assert np.array_equal(sub.edges, kept)
                dropped += cut
            assert ds.dropped_edges == dropped // cut_sides


PARTITION_SHAPES = ("isolated", "components", "edgeless", "remainder", "one-per-part")


def _partition_case(case):
    """(graph, parts) for one of PARTITION_SHAPES, or an SBM for an int case."""
    if isinstance(case, int):
        g = synth_dataset(SynthSpec(90, 4, 4, 0.15, 0.02), 600 + case)
        return g, 2 + case % 6
    rng = np.random.default_rng(500 + PARTITION_SHAPES.index(case))
    if case == "isolated":          # the last 9 nodes touch no edge
        return _random_graph(rng, 40, 60, isolated=9), 3
    if case == "components":        # four cliques: BFS restarts three times
        blocks = [(0, 6), (6, 13), (13, 17), (17, 30)]
        edges = [(i, j) for a, b in blocks for i in range(a, b) for j in range(i + 1, b)]
        return _graph(rng.standard_normal((30, 5)), rng.integers(0, 3, 30), edges), 4
    if case == "edgeless":
        return _random_graph(rng, 23, 0), 5
    if case == "remainder":         # 47 % 6 != 0: quotas differ by one
        return synth_dataset(SynthSpec(47, 3, 4, 0.2, 0.03), 503), 6
    assert case == "one-per-part"
    return _random_graph(rng, 12, 20), 12


@pytest.mark.parametrize("case", PARTITION_SHAPES + (0, 1, 2, 3))
def test_greedy_assignment_matches_loop_oracle(case):
    g, parts = _partition_case(case)
    for seed in range(4):
        got = _greedy_assignment(g.n, g.edges, parts, stream(seed, "partition"))
        want = greedy_assignment_loop(g.n, g.edges, parts, stream(seed, "partition"))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.sort(np.bincount(got, minlength=parts)),
                              np.sort([g.n // parts + (i < g.n % parts) for i in range(parts)]))


@pytest.mark.parametrize("case", ["isolated", "components", "remainder", 0, 1])
@pytest.mark.parametrize("overlap", [False, True])
def test_partition_datasets_match_loop_oracle(case, overlap):
    g, parts = _partition_case(case)
    num_clients = 5 * parts if overlap else parts
    scheme = partition_overlap if overlap else partition_nonoverlap
    for seed in range(3):
        ds = scheme(g, num_clients, seed=seed)
        clients, maps, dropped = partition_loop(g, num_clients, seed, overlap)
        assert ds.dropped_edges == dropped
        assert len(ds.clients) == len(clients) == len(ds.node_maps) == len(maps)
        for sub, node_map, want, want_map in zip(ds.clients, ds.node_maps, clients, maps):
            assert node_map.dtype == want_map.dtype
            assert node_map.tobytes() == want_map.tobytes()
            for got_arr, want_arr in zip((sub.edges, sub.train_idx, sub.val_idx,
                                          sub.test_idx), want):
                assert got_arr.shape == want_arr.shape
                assert got_arr.tobytes() == want_arr.astype(np.int64).tobytes()
            assert sub.features.tobytes() == g.features[node_map].tobytes()
            assert sub.labels.tobytes() == g.labels[node_map].tobytes()


def test_partition_overlap_errors():
    g = synth_dataset(SynthSpec(20, 2, 3, 0.2, 0.05), 2)
    with pytest.raises(ContractError):
        partition_overlap(g, 4, seed=0)
    tiny = _graph(np.eye(3), [0, 1, 0], [[0, 1]])
    with pytest.raises(InfeasibleError):
        partition_overlap(tiny, 15, seed=0)


# --- JSON formats ---------------------------------------------------------------


def test_graph_roundtrip_byte_identical(tmp_path):
    g = synth_dataset(SynthSpec(25, 3, 4, 0.2, 0.05), 8)
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    save_graph(g, p1)
    loaded = load_graph(p1)
    save_graph(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.features.tobytes() == g.features.tobytes()
    assert loaded.labels.tobytes() == g.labels.tobytes()
    assert loaded.edges.tobytes() == g.edges.tobytes()
    assert loaded.train_idx.tobytes() == g.train_idx.tobytes()


def test_graph_dict_rejects_unknown_key():
    obj = graph_to_dict(_two_nodes_one_edge())
    obj["surprise"] = 1
    with pytest.raises(ConfigError) as err:
        graph_from_dict(obj)
    assert "surprise" in str(err.value)


def test_graph_dict_rejects_missing_key():
    obj = graph_to_dict(_two_nodes_one_edge())
    del obj["labels"]
    with pytest.raises(ConfigError) as err:
        graph_from_dict(obj)
    assert "labels" in str(err.value)


def test_graph_dict_rejects_directed():
    obj = graph_to_dict(_two_nodes_one_edge())
    obj["directed"] = True
    with pytest.raises(ConfigError):
        graph_from_dict(obj)


@pytest.mark.parametrize("path, value", [
    (("labels",), [0.5, 1.5]),          # fractional labels once ran as 0 and 1
    (("labels",), None),
    (("labels",), [0, True]),
    (("edges",), [[0, 1.5]]),           # fractional endpoints were truncated
    (("edges",), [[0, 1, 1]]),
    (("edges",), "0-1"),
    (("masks", "train"), [0.5]),        # fractional train indices were truncated
    (("masks", "test"), None),
    (("features", "rows"), "abc"),
    (("features", "cols"), 2.0),
    (("features", "data"), "abc"),
    (("n",), -2),
], ids=["fractional-labels", "null-labels", "bool-label", "fractional-endpoint", "triple-edge",
        "string-edges", "fractional-train", "null-test", "string-rows", "float-cols",
        "string-data", "negative-n"])
def test_graph_dict_rejects_non_integer_fields(path, value):
    obj = graph_to_dict(_two_nodes_one_edge())
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        graph_from_dict(obj, where="g.json")
    assert str(err.value).startswith(f"g.json: {'.'.join(path)}")


def test_dataset_roundtrip(tmp_path):
    g = synth_dataset(SynthSpec(40, 2, 3, 0.2, 0.05), 5)
    ds = partition_nonoverlap(g, 4, seed=6, task="binary-auc")
    out = tmp_path / "ds"
    save_dataset(ds, out)
    loaded = load_dataset(out)
    assert loaded.num_clients == 4
    assert loaded.task == "binary-auc"
    assert loaded.num_classes == ds.num_classes
    assert loaded.dropped_edges == ds.dropped_edges
    for a, b in zip(loaded.clients, ds.clients):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.edges.tobytes() == b.edges.tobytes()
    for a, b in zip(loaded.node_maps, ds.node_maps):
        assert np.array_equal(a, b)


def test_dataset_manifest_rejects_unknown_key(tmp_path):
    g = synth_dataset(SynthSpec(30, 2, 3, 0.2, 0.05), 5)
    ds = partition_nonoverlap(g, 3, seed=6)
    out = tmp_path / "ds"
    save_dataset(ds, out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["extra"] = True
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError) as err:
        load_dataset(out)
    assert "extra" in str(err.value)


@pytest.mark.parametrize("edit, message", [
    (lambda maps: maps[:1], "one map per client file"),
    (lambda maps: [maps[0], maps[1][:-1], maps[2]], "node_maps[1] has"),
    (lambda maps: [maps[0], maps[1], maps[2][:-1] + [0.5]], "node_maps[2] must be a list"),
    (lambda maps: [maps[0], "abc", maps[2]], "node_maps[1] must be a list"),
    (lambda maps: None, "one map per client file"),
], ids=["one-map", "short-map", "fractional-entry", "string-map", "null-maps"])
def test_dataset_manifest_rejects_bad_node_maps(tmp_path, edit, message):
    g = synth_dataset(SynthSpec(30, 2, 3, 0.2, 0.05), 5)
    out = tmp_path / "ds"
    save_dataset(partition_nonoverlap(g, 3, seed=6), out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["node_maps"] = edit(manifest["node_maps"])
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=message.replace("[", r"\[")):
        load_dataset(out)


@pytest.mark.parametrize("field, value, message", [
    ("files", [5, "client_001.json", "client_002.json"],
     "files must be a list of file names, got 5"),
    ("files", None, "files must be a list of file names, got None"),
    ("files", "client_000.json",
     "files must be a list of file names, got 'client_000.json'"),
    ("task", "regression", "unknown task 'regression'"),
    ("num_classes", 3, "binary-auc task requires exactly 2 classes"),
    ("clients", 2, "clients does not match the 3 files"),
], ids=["integer-file", "null-files", "string-files", "unknown-task", "auc-classes",
        "client-count"])
def test_dataset_manifest_errors_name_the_manifest(tmp_path, field, value, message):
    g = synth_dataset(SynthSpec(30, 2, 3, 0.2, 0.05), 5)
    out = tmp_path / "ds"
    save_dataset(partition_nonoverlap(g, 3, seed=6, task="binary-auc"), out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest[field] = value
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError) as err:
        load_dataset(out)
    assert str(err.value).startswith(f"{out / 'manifest.json'}: ")
    assert message in str(err.value)


def _set_cols(obj, cols):
    """Narrow a graph dict's features to their first cols columns."""
    rows, width = obj["features"]["rows"], obj["features"]["cols"]
    data = np.asarray(obj["features"]["data"]).reshape(rows, width)[:, :cols]
    obj["features"].update(cols=cols, data=data.ravel().tolist())


@pytest.mark.parametrize("edit, named, message", [
    (lambda g: g["labels"].__setitem__(0, -1), "client_001.json",
     "labels must be nonnegative"),
    (lambda g: g["edges"].append([0, g["n"]]), "client_001.json",
     "edge endpoints out of range"),
    (lambda g: g["masks"]["val"].append(g["masks"]["train"][0]), "client_001.json",
     "train and val splits overlap"),
    (lambda g: g["labels"].__setitem__(0, 2), "manifest.json",
     "client 1: label 2 exceeds federation class count 2"),
    (lambda g: _set_cols(g, 2), "manifest.json",
     "client 1: feature dimension 2 differs from federation 3"),
    (lambda g: g["masks"].__setitem__("train", []), "client_001.json",
     "masks.train is empty"),
], ids=["negative-label", "endpoint-out-of-range", "overlapping-masks",
        "label-above-classes", "feature-width", "empty-train-mask"])
def test_dataset_client_file_errors_name_the_file(tmp_path, edit, named, message):
    g = synth_dataset(SynthSpec(30, 2, 3, 0.2, 0.05), 5)
    out = tmp_path / "ds"
    save_dataset(partition_nonoverlap(g, 3, seed=6), out)
    client = json.loads((out / "client_001.json").read_text())
    edit(client)
    (out / "client_001.json").write_text(json.dumps(client))
    with pytest.raises(ConfigError) as err:
        load_dataset(out)
    assert str(err.value).startswith(f"{out / named}: ")
    assert message in str(err.value)


def test_load_graph_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_graph(tmp_path / "absent.json")
