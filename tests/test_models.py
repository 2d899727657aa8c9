"""Model checks on the tape builders: spectral filter forward pass against a
direct numpy recompute, cross entropy hand values, encoder moment matching
(exact for singleton classes), negative-ELBO value/gradient against numpy
and finite differences, and spectral-energy frames."""

import numpy as np
import pytest

from fedssa import tape as tp
from fedssa.errors import ConfigError, ContractError, ShapeError
from fedssa.graphs import LocalGraph, SynthSpec, laplacian_powers, synth_dataset
from fedssa.linalg import qr_thin
from fedssa.models import (COV_FLOOR, LOGVAR_MAX, LOGVAR_MIN, ClassGaussian,
                           ce_path, class_gaussians, elbo_path, encoder_input,
                           encoder_path, group_plan, init_params, logits_path,
                           sample_nonedges, spectral_energy, stack_powers)
from fedssa.rng import stream
from fedssa.semantic import alignment_inputs
import helpers
from helpers import central_diff, pool_draw, rel_err


def _small_graph(seed=0, n=20, c=3, d=5):
    return synth_dataset(SynthSpec(n, c, d, 0.3, 0.05), seed)


ENCODER = ("enc_w1", "enc_b1", "mu_w", "mu_b", "logvar_w", "logvar_b")


def _params(g, order=2, hidden=6, dz=4, seed=0):
    return init_params(g.feature_dim, g.num_classes(), order, hidden, dz,
                       stream(seed, "test-init"))


def _leaves(t, params):
    """One-member stacked leaves: each array gains a leading axis of 1."""
    return {name: t.leaf(a[None], name) for name, a in params.items()}


def _forward(g, params, powers):
    """Propagated features and logits from the tape builders."""
    t = tp.Tape()
    p, logits = logits_path(_leaves(t, params), stack_powers(powers)[None], g.n,
                            g.feature_dim)
    return p.value[0], logits.value[0]


def _group(g):
    """The one-member group plan the builders read."""
    return group_plan([g])


def _ce_plan(labels, mask):
    """Group plan of one featureless graph whose train rows are mask."""
    n = len(labels)
    g = LocalGraph(np.zeros((n, 1)), labels, [], train_idx=mask, val_idx=[], test_idx=[])
    return group_plan([g])


def _ce(logits, labels, mask):
    logits = np.asarray(logits, dtype=np.float64)
    t = tp.Tape()
    var = t.leaf(logits[None], "logits")
    return float(ce_path(var, _ce_plan(labels, mask)).value[0, 0, 0])


def _encode(params, g, num_classes):
    """Posterior mean, log-variance and class Gaussians from the tape builders."""
    t = tp.Tape()
    mu, logvar = encoder_path(_leaves(t, params), helpers.encoder_input(g, num_classes)[None])
    plan = _group(g)
    moments = tp.segment_moments(mu, logvar, plan.classes)
    gaussians = class_gaussians(plan.class_labels, plan.classes.counts, moments.value)
    return mu.value[0], logvar.value[0], gaussians


# --- spectral GNN forward -------------------------------------------------------


def test_gnn_forward_matches_numpy_recompute():
    g = _small_graph()
    params = _params(g)
    w = params["w"][0]
    powers = laplacian_powers(g, w.size - 1)
    p, logits = _forward(g, params, powers)
    p_ref = sum(w[k] * powers[k] for k in range(w.size))
    assert rel_err(p, p_ref) < 1e-12
    hidden = np.tanh(p_ref @ params["head_w1"] + params["head_b1"])
    logits_ref = hidden @ params["head_w2"] + params["head_b2"]
    assert rel_err(logits, logits_ref) < 1e-12


def test_gnn_forward_identity_filter_passes_features():
    g = _small_graph()
    params = _params(g, order=3)
    # fresh filter is e_0, so P == X exactly
    p, _ = _forward(g, params, laplacian_powers(g, 3))
    assert np.array_equal(p, g.features)


def test_gnn_forward_rejects_wrong_power_count():
    g = _small_graph()
    params = _params(g, order=2)
    with pytest.raises(ShapeError):
        _forward(g, params, laplacian_powers(g, 1))


def test_init_params_deterministic():
    g = _small_graph()
    a = _params(g, seed=4)
    b = _params(g, seed=4)
    assert a["head_w1"].tobytes() == b["head_w1"].tobytes()
    assert a["mu_w"].tobytes() == b["mu_w"].tobytes()
    c = _params(g, seed=5)
    assert a["head_w1"].tobytes() != c["head_w1"].tobytes()


# --- cross entropy --------------------------------------------------------------


def test_ce_hand_values():
    assert _ce(np.array([[0.0, 0.0]]), np.array([0]), np.array([0])) == \
        pytest.approx(np.log(2.0))
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    want = float(np.log(1.0 + np.exp(-1.0)))
    assert _ce(logits, np.array([0, 1]), np.arange(2)) == pytest.approx(want)
    assert _ce(logits, np.array([1, 0]), np.arange(2)) == \
        pytest.approx(float(np.log(1.0 + np.exp(1.0))))


def test_ce_is_shift_stable():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    val = _ce(logits, np.array([0, 1]), np.arange(2))
    assert np.isfinite(val)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_ce_contract_errors():
    with pytest.raises(ContractError):
        _ce(np.zeros((2, 2)), np.array([0, 1]), np.zeros(0, dtype=int))
    # a label without a logit column is out of range for the tape op
    with pytest.raises(ShapeError, match="label index out of range for 2 classes"):
        _ce(np.zeros((2, 2)), np.array([0, 2]), np.arange(2))


def test_ce_gradient_matches_softmax_formula():
    rng = np.random.default_rng(3)
    logits_v = rng.standard_normal((5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    mask = np.array([0, 2, 4])
    t = tp.Tape()
    var = t.leaf(logits_v[None], "logits")
    loss = ce_path(var, _ce_plan(labels, mask))
    g = tp.grad(t, loss)[var][0]
    # softmax minus onehot on masked rows, zero elsewhere
    want = np.zeros_like(logits_v)
    for r in mask:
        e = np.exp(logits_v[r] - logits_v[r].max())
        sm = e / e.sum()
        sm[labels[r]] -= 1.0
        want[r] = sm / mask.size
    assert rel_err(g, want) < 1e-10


def test_full_classifier_gradient_matches_finite_differences():
    g = _small_graph(n=12, c=2, d=4)
    params = _params(g, order=2, hidden=5)
    powers = laplacian_powers(g, 2)
    h_stack = stack_powers(powers)[None]
    plan = _group(g)
    arrays = {k: params[k][None].copy()
              for k in ("w", "head_w1", "head_b1", "head_w2", "head_b2")}

    def value(vals):
        t = tp.Tape()
        leaves = {k: t.leaf(v, k) for k, v in vals.items()}
        _, logits = logits_path(leaves, h_stack, g.n, g.feature_dim)
        return float(ce_path(logits, plan).value[0, 0, 0])

    t = tp.Tape()
    leaves = {k: t.leaf(v, k) for k, v in arrays.items()}
    _, logits = logits_path(leaves, h_stack, g.n, g.feature_dim)
    loss = ce_path(logits, plan)
    got = tp.grad(t, loss)
    want = central_diff(value, arrays)
    worst = max(rel_err(got[leaves[k]], want[k]) for k in arrays)
    assert worst < 1e-6


# --- encoder and class statistics ------------------------------------------------


def test_encoder_input_layout():
    g = _small_graph(n=10, c=3, d=4)
    x = encoder_input(stack_powers(laplacian_powers(g, 2))[None], _group(g), 3)
    assert x.shape == (1, 10, 7)
    x = x[0]
    assert np.array_equal(x[:, :4], g.features)
    onehot = x[:, 4:]
    train_set = set(g.train_idx.tolist())
    for i in range(10):
        if i in train_set:
            assert onehot[i].sum() == 1.0
            assert onehot[i, g.labels[i]] == 1.0
        else:
            assert np.all(onehot[i] == 0.0)


def test_encode_singleton_class_is_exact():
    # one train node per class: the class Gaussian must equal that node's
    # posterior exactly (mean row, diag exp(logvar) floored)
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.8]])
    g = LocalGraph(feats, [0, 1, 0, 1], [[0, 1], [2, 3]],
                   train_idx=[0, 1], val_idx=[2], test_idx=[3])
    params = init_params(2, 2, 1, 4, 3, stream(9, "init"))
    mu, logvar, gaussians = _encode(params, g, 2)
    assert len(gaussians) == 2
    for gau, row in zip(gaussians, (0, 1)):
        assert gau.label == row
        assert gau.count == 1
        assert np.allclose(gau.mean, mu[row])
        want_var = np.maximum(np.exp(logvar[row]), COV_FLOOR)
        assert np.allclose(np.diag(gau.cov), want_var)
        assert np.allclose(gau.cov, np.diag(np.diag(gau.cov)))


def test_encode_moment_matching_two_members():
    g = _small_graph(n=24, c=2, d=4, seed=3)
    params = init_params(4, 2, 1, 6, 3, stream(10, "init"))
    mu, logvar, gaussians = _encode(params, g, 2)
    for gau in gaussians:
        rows = g.train_idx[g.labels[g.train_idx] == gau.label]
        mu_rows = mu[rows]
        var_rows = np.exp(logvar[rows])
        want_mean = mu_rows.mean(axis=0)
        want_var = var_rows.mean(axis=0) + mu_rows.var(axis=0)
        assert np.allclose(gau.mean, want_mean)
        assert np.allclose(np.diag(gau.cov), np.maximum(want_var, COV_FLOOR))
        assert gau.count == rows.size


def test_class_stat_paths_match_numpy_recompute():
    g = _small_graph(n=40, c=3, d=4, seed=4)
    params = init_params(4, 3, 1, 6, 3, stream(14, "init"))
    t = tp.Tape()
    mu, logvar = encoder_path(_leaves(t, params), helpers.encoder_input(g, 3)[None])
    plan = _group(g)
    moments = tp.segment_moments(mu, logvar, plan.classes)
    assert np.array_equal(plan.class_labels, np.unique(g.labels[g.train_idx]))
    assert moments.shape == (plan.class_labels.size, 6)
    for label, count, row in zip(plan.class_labels, plan.classes.counts, moments.value):
        rows = g.train_idx[g.labels[g.train_idx] == label]
        mu_rows = mu.value[0][rows]
        want = np.concatenate([mu_rows.mean(axis=0),
                               np.exp(logvar.value[0][rows]).mean(axis=0)
                               + mu_rows.var(axis=0)])
        assert rel_err(row, want) < 1e-12
        assert count == rows.size


def test_class_stat_paths_singleton_spread_is_exactly_zero():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.8], [0.9, 0.3]])
    g = LocalGraph(feats, [0, 1, 0, 1, 1], [[0, 1], [2, 3], [1, 4]],
                   train_idx=[0, 1, 4], val_idx=[2], test_idx=[3])
    params = init_params(2, 2, 1, 4, 3, stream(15, "init"))
    t = tp.Tape()
    mu, logvar = encoder_path(_leaves(t, params), helpers.encoder_input(g, 2)[None])
    moments = tp.segment_moments(mu, logvar, _group(g).classes).value
    assert np.array_equal(moments[0], np.concatenate([mu.value[0, 0],
                                                      np.exp(logvar.value[0, 0])]))


def test_class_stat_paths_without_train_rows():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    g = LocalGraph(feats, [0, 1, 0], [[0, 1], [1, 2]],
                   train_idx=[], val_idx=[0], test_idx=[1, 2])
    params = init_params(2, 2, 1, 4, 3, stream(16, "init"))
    t = tp.Tape()
    mu, logvar = encoder_path(_leaves(t, params), helpers.encoder_input(g, 2)[None])
    plan = _group(g)
    moments = tp.segment_moments(mu, logvar, plan.classes)
    assert plan.class_labels.size == 0 and moments.shape == (0, 6)
    assert class_gaussians(plan.class_labels, plan.classes.counts, moments.value) == ()
    reps = {0: ClassGaussian(0, np.zeros(3), np.eye(3), 1)}
    assert alignment_inputs(plan, [reps]) is None


def test_logvar_is_clamped():
    g = _small_graph(n=8, c=2, d=3, seed=1)
    params = init_params(3, 2, 1, 4, 2, stream(11, "init"))
    params["logvar_w"][...] = 100.0
    _mu, logvar, _gaussians = _encode(params, g, 2)
    assert logvar.max() <= LOGVAR_MAX
    assert logvar.min() >= LOGVAR_MIN


# --- negative ELBO ---------------------------------------------------------------


def _elbo_numpy(params, g, eps, nonedges, num_classes):
    """Independent numpy recompute of the negative ELBO."""
    x = np.concatenate([g.features, np.zeros((g.n, num_classes))], axis=1)
    onehot = np.zeros((g.n, num_classes))
    onehot[g.train_idx, g.labels[g.train_idx]] = 1.0
    x[:, g.feature_dim:] = onehot
    hidden = np.tanh(x @ params["enc_w1"] + params["enc_b1"])
    mu = hidden @ params["mu_w"] + params["mu_b"]
    logvar = np.clip(hidden @ params["logvar_w"] + params["logvar_b"],
                     LOGVAR_MIN, LOGVAR_MAX)
    z = mu + np.sqrt(np.exp(logvar)) * eps
    pairs = np.concatenate([g.edges, nonedges]) if nonedges.size else g.edges
    y = np.concatenate([np.ones(g.edges.shape[0]),
                        np.zeros(nonedges.shape[0] if nonedges.size else 0)])
    scores = np.sum(z[pairs[:, 0]] * z[pairs[:, 1]], axis=1)
    bce = np.mean(np.logaddexp(0.0, scores) - y * scores)
    kl = 0.5 * np.mean(np.sum(mu ** 2 + np.exp(logvar) - logvar - 1.0, axis=1))
    train_labels = g.labels[g.train_idx]
    freqs = np.bincount(train_labels)[train_labels] / train_labels.size
    return bce + kl - float(np.mean(np.log(freqs)))


def test_elbo_matches_numpy_recompute():
    g = _small_graph(n=15, c=2, d=4, seed=6)
    params = init_params(4, 2, 1, 5, 3, stream(12, "init"))
    eps = stream(0, "eps").standard_normal((g.n, 3))
    plan = _group(g)
    nonedges = sample_nonedges(plan, 0, plan.nonedge_counts[0], stream(0, "ne"))
    t = tp.Tape()
    mu, logvar = encoder_path(_leaves(t, params), helpers.encoder_input(g, 2)[None])
    got = float(elbo_path(mu, logvar, plan, eps, [nonedges]).value[0, 0, 0])
    want = _elbo_numpy(params, g, eps, nonedges, 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_elbo_gradient_matches_finite_differences():
    g = _small_graph(n=10, c=2, d=3, seed=7)
    params = init_params(3, 2, 1, 4, 2, stream(13, "init"))
    eps = stream(1, "eps").standard_normal((g.n, 2))
    group = _group(g)
    nonedges = [sample_nonedges(group, 0, group.nonedge_counts[0], stream(1, "ne"))]
    arrays = {name: params[name][None].copy() for name in ENCODER}
    x_in = helpers.encoder_input(g, 2)[None]

    def value(vals):
        t = tp.Tape()
        leaves = {k: t.leaf(v, k) for k, v in vals.items()}
        mu, logvar = encoder_path(leaves, x_in)
        return float(elbo_path(mu, logvar, group, eps, nonedges).value[0, 0, 0])

    t = tp.Tape()
    leaves = {k: t.leaf(v, k) for k, v in arrays.items()}
    mu, logvar = encoder_path(leaves, x_in)
    loss = elbo_path(mu, logvar, group, eps, nonedges)
    got = tp.grad(t, loss)
    want = central_diff(value, arrays)
    worst = max(rel_err(got[leaves[k]], want[k]) for k in arrays)
    assert worst < 1e-5


def test_sample_nonedges_are_absent_pairs():
    g = _small_graph(n=12, c=2, d=3, seed=8)
    ne = sample_nonedges(_group(g), 0, 10, stream(2, "ne"))
    present = set(map(tuple, g.edges.tolist()))
    for u, v in ne.tolist():
        assert u < v
        assert (u, v) not in present
    assert len(set(map(tuple, ne.tolist()))) == ne.shape[0]


def test_sample_nonedges_complete_graph_empty():
    g = LocalGraph(np.eye(3), [0, 1, 0], [[0, 1], [0, 2], [1, 2]],
                   train_idx=[0], val_idx=[], test_idx=[])
    assert sample_nonedges(_group(g), 0, 5, stream(0, "ne")).shape == (0, 2)


def _graph_from_edges(n, edges):
    return LocalGraph(np.zeros((n, 1)), np.zeros(n, dtype=np.int64),
                      np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                      train_idx=[], val_idx=[], test_idx=[])


def _assert_matches_pool(g, count, seed, plan=None, member=0):
    """member's draw from plan (by default g's one-member group) against
    pool_draw on g."""
    plan = _group(g) if plan is None else plan
    got = sample_nonedges(plan, member, count, stream(seed, "ne"))
    want = pool_draw(g, count, stream(seed, "ne"))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(40))
def test_sample_nonedges_matches_pool_draw(seed):
    # member 0 alone, then members 1 and 2 of a three-member group, whose
    # offset tables are indexed by member
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 40))
    iu, ju = np.triu_indices(n, k=1)
    graphs, counts = [], []
    for _ in range(3):
        density = float(rng.uniform(0.0, 1.0))
        hit = rng.random(iu.size) < density
        g = _graph_from_edges(n, np.column_stack([iu[hit], ju[hit]]))
        absent = n * (n - 1) // 2 - g.edges.shape[0]
        graphs.append(g)
        counts.append((g.edges.shape[0], int(rng.integers(1, absent + 2)), absent,
                       absent + 7))
    plan = group_plan(graphs)
    for member, (g, member_counts) in enumerate(zip(graphs, counts)):
        for count in member_counts:
            _assert_matches_pool(g, count, seed, plan if member else None, member)


def test_sample_nonedges_matches_pool_draw_edge_cases():
    n = 9
    iu, ju = np.triu_indices(n, k=1)
    complete = _graph_from_edges(n, np.column_stack([iu, ju]))
    edgeless = _graph_from_edges(n, [])
    path = _graph_from_edges(n, [[i, i + 1] for i in range(n - 1)])
    cases = [(_graph_from_edges(0, []), 3), (_graph_from_edges(1, []), 3),
             (edgeless, 5), (edgeless, 36), (edgeless, 100), (complete, 4),
             (path, 0), (path, -2), (path, 28), (path, 29), (path, 500)]
    for seed in range(10):
        for g, count in cases:
            _assert_matches_pool(g, count, seed)
    assert sample_nonedges(_group(edgeless), 0, 100, stream(0, "ne")).shape == (36, 2)
    assert sample_nonedges(_group(complete), 0, 4, stream(0, "ne")).shape == (0, 2)
    assert sample_nonedges(_group(path), 0, 0, stream(0, "ne")).shape == (0, 2)


# --- class Gaussians ----------------------------------------------------------------


def test_class_gaussian_contracts():
    with pytest.raises(ContractError):
        ClassGaussian(0, np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]), 1)
    with pytest.raises(ContractError):
        ClassGaussian(0, np.zeros(2), np.diag([1.0, 1e-9]), 1)
    with pytest.raises(ContractError):
        ClassGaussian(-1, np.zeros(2), np.eye(2), 1)
    with pytest.raises(ContractError):
        ClassGaussian(0, np.zeros(2), np.eye(2), 0)


# --- spectral energy ---------------------------------------------------------------


def test_spectral_energy_values_and_frame():
    g = _small_graph(n=18, c=2, d=6, seed=9)
    powers = laplacian_powers(g, 3)
    se = spectral_energy(powers, client_id=2)
    assert se.client_id == 2
    assert se.q.shape == (6, 4)
    assert np.linalg.norm(se.q.T @ se.q - np.eye(4)) < 1e-8
    # column k of S is mean(L^k X); Q is its thin-QR frame with diag(R) >= 0,
    # so S = Q R with R = Q^T S upper triangular
    s = np.column_stack([powers[k].mean(axis=0) for k in range(4)])
    r = se.q.T @ s
    assert np.allclose(se.q @ r, s, rtol=0, atol=1e-12)
    assert np.allclose(np.tril(r, -1), 0.0, atol=1e-12)
    assert np.all(np.diag(r) > 0)


def test_spectral_energy_deterministic():
    g = _small_graph(n=18, c=2, d=6, seed=9)
    powers = laplacian_powers(g, 2)
    a = spectral_energy(powers, 0)
    b = spectral_energy(powers, 0)
    assert a.q.tobytes() == b.q.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_spectral_frame_ignores_nonzero_coefficients(seed):
    rng = np.random.default_rng(700 + seed)
    order = int(rng.integers(1, 5))
    g = _small_graph(n=int(rng.integers(12, 30)), c=2, d=int(rng.integers(order + 1, 9)),
                     seed=seed)
    powers = laplacian_powers(g, order)
    setup = spectral_energy(powers, 0).q
    for _ in range(5):
        w = rng.choice([-1.0, 1.0], order + 1) * rng.uniform(0.05, 5.0, order + 1)
        q, _ = qr_thin(np.column_stack([w[k] * powers[k].mean(axis=0)
                                        for k in range(order + 1)]))
        # chordal distance as ||P_a - P_b||_F / sqrt(2) on the projections,
        # which keeps full precision where sqrt(sum sin^2) loses half of it
        chordal = np.linalg.norm(q @ q.T - setup @ setup.T) / np.sqrt(2.0)
        assert chordal <= 1e-8


def test_spectral_energy_requires_wide_features():
    g = _small_graph(n=10, c=2, d=3, seed=2)
    with pytest.raises(ConfigError):
        spectral_energy(laplacian_powers(g, 3), 0)


def _cycle(n, d, seed):
    rng = np.random.default_rng(seed)
    edges = [[i, i + 1] for i in range(n - 1)] + [[0, n - 1]]
    return LocalGraph(rng.standard_normal((n, d)), np.arange(n) % 2, edges,
                      train_idx=np.arange(n), val_idx=[], test_idx=[])


def test_spectral_energy_rejects_rank_deficient_clients():
    rng = np.random.default_rng(4)
    edgeless = LocalGraph(rng.standard_normal((9, 5)), np.arange(9) % 2,
                          np.zeros((0, 2), dtype=np.int64),
                          train_idx=np.arange(9), val_idx=[], test_idx=[])
    for g in (edgeless, _cycle(9, 5, 5)):
        with pytest.raises(ConfigError, match="client 7 .*structural: false"):
            spectral_energy(laplacian_powers(g, 2), 7)
