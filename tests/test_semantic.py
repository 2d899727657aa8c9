"""Semantic sharing checks: closed-form Gaussian KL against hand values and
Monte Carlo, count-weighted moment matching against the member loop,
planted cluster recovery, the cluster members the map keeps, the
alignment inputs against the per-client targets they replace (with shared
and with per-client copies of the representatives), and the alignment KL
node on those inputs against the closed form."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from fedssa import tape as tp
from fedssa.errors import ContractError, NumericError, ShapeError
from fedssa.graphs import LocalGraph
from fedssa.models import COV_FLOOR, ClassGaussian, group_plan
from fedssa.semantic import alignment_inputs, build_semantic_map, gaussian_kl, match_cells
from helpers import (central_diff, distinct_kl_targets, loop_cluster_moments,
                     matched_alignment_inputs, mc_gaussian_kl, random_spd, rel_err)


def _gauss(label, mean, cov, count=1):
    return ClassGaussian(label, np.asarray(mean, dtype=float),
                         np.asarray(cov, dtype=float), count)


# --- closed-form KL ---------------------------------------------------------------


def test_kl_identical_is_zero():
    g = _gauss(0, [1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
    assert gaussian_kl(g, g) == pytest.approx(0.0, abs=1e-12)


def test_kl_one_dimensional_scale_hand_value():
    p = _gauss(0, [0.0], [[1.0]])
    q = _gauss(0, [0.0], [[2.0]])
    want = 0.5 * (0.5 - 1.0 + np.log(2.0))
    assert gaussian_kl(p, q) == pytest.approx(want)


def test_kl_mean_shift_hand_value():
    sigma_sq = 0.5
    delta = 1.2
    p = _gauss(0, [delta], [[sigma_sq]])
    q = _gauss(0, [0.0], [[sigma_sq]])
    assert gaussian_kl(p, q) == pytest.approx(delta ** 2 / (2.0 * sigma_sq))


def test_kl_nonnegative_and_asymmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = _gauss(0, rng.standard_normal(3), random_spd(rng, 3))
        q = _gauss(0, rng.standard_normal(3), random_spd(rng, 3))
        kl_pq = gaussian_kl(p, q)
        kl_qp = gaussian_kl(q, p)
        assert kl_pq >= -1e-12
        assert kl_qp >= -1e-12


def test_kl_matches_monte_carlo_oracle():
    rng = np.random.default_rng(1)
    for trial in range(3):
        mu_p = rng.standard_normal(3)
        mu_q = rng.standard_normal(3)
        cov_p = random_spd(rng, 3)
        cov_q = random_spd(rng, 3)
        p = _gauss(0, mu_p, cov_p)
        q = _gauss(0, mu_q, cov_q)
        exact = gaussian_kl(p, q)
        estimate = mc_gaussian_kl(mu_p, cov_p, mu_q, cov_q, 400000,
                                  np.random.default_rng(100 + trial))
        assert estimate == pytest.approx(exact, abs=max(0.05, 0.03 * exact))


def test_kl_dimension_mismatch():
    with pytest.raises(ShapeError):
        gaussian_kl(_gauss(0, [0.0], [[1.0]]), _gauss(0, [0.0, 0.0], np.eye(2)))


# --- moment matching ------------------------------------------------------------------


def test_cluster_moments_unequal_count_hand_value():
    # counts 10 and 30 weight N(0,1) and N(2,1) by 1/4 and 3/4:
    # mean 1.5, var = E[var] + Var(mean) = 1 + (0.25 * 1.5^2 + 0.75 * 0.5^2) = 1.75
    a = _gauss(1, [0.0], [[1.0]], count=10)
    b = _gauss(1, [2.0], [[1.0]], count=30)
    rep = match_cells([[a, b]])[0]
    assert rep.mean[0] == pytest.approx(1.5)
    assert rep.cov[0, 0] == pytest.approx(1.75)
    assert rep.count == 40


def test_cluster_moments_rejects_mixed_labels():
    with pytest.raises(ContractError):
        match_cells([[_gauss(0, [0.0], [[1.0]]), _gauss(1, [0.0], [[1.0]])]])


def test_cluster_moments_rejects_empty():
    with pytest.raises(ContractError):
        match_cells([[]])


def test_cluster_moments_rejects_mixed_dimensions():
    with pytest.raises(ShapeError):
        match_cells([[_gauss(0, [0.0], [[1.0]]), _gauss(0, [0.0, 0.0], np.eye(2))]])


@pytest.mark.parametrize("d", [1, 2, 3, 8, 13])
def test_cluster_moments_bit_identical_to_member_loop(d):
    # The reductions over the member axis must add members in order, as the
    # loop does. numpy's pairwise sum (.sum(axis=0)) regroups the additions
    # at d = 1, where the member axis is contiguous, once a cluster has 8 or
    # more members, and then changes the bits.
    rng = np.random.default_rng(700 + d)
    for size in range(1, 61):
        for full in (False, True):
            members = [_gauss(4, rng.standard_normal(d),
                              random_spd(rng, d, 0.3) if full
                              else np.diag(rng.uniform(COV_FLOOR, 2.0, d)),
                              count=int(rng.integers(1, 200)))
                       for _ in range(size)]
            rep = match_cells([members])[0]
            mean, cov = loop_cluster_moments(members)
            assert np.array_equal(rep.mean, mean), (size, full)
            assert np.array_equal(rep.cov, cov), (size, full)
            assert rep.count == sum(m.count for m in members)


def test_cluster_moments_singleton_is_identity():
    g = _gauss(2, [1.0, -3.0], [[2.0, 0.4], [0.4, 1.5]], count=7)
    rep = match_cells([[g]])[0]
    assert rep.label == 2
    assert rep.count == 7
    assert np.allclose(rep.mean, g.mean)
    assert np.allclose(rep.cov, g.cov, atol=1e-9)


def test_cluster_moments_two_member_hand_value():
    # 1-D equal-count mixture of N(0,1) and N(2,1):
    # mean 1, var = E[var] + Var(mean) = 1 + 1 = 2
    a = _gauss(0, [0.0], [[1.0]], count=5)
    b = _gauss(0, [2.0], [[1.0]], count=5)
    rep = match_cells([[a, b]])[0]
    assert rep.mean[0] == pytest.approx(1.0)
    assert rep.cov[0, 0] == pytest.approx(2.0)
    assert rep.count == 10


def test_cluster_moments_matches_direct_formula():
    rng = np.random.default_rng(2)
    members = [_gauss(3, rng.standard_normal(3), random_spd(rng, 3),
                      count=int(rng.integers(1, 20))) for _ in range(4)]
    rep = match_cells([members])[0]
    weights = np.array([m.count for m in members]) / sum(m.count for m in members)
    mean = sum(w * m.mean for w, m in zip(weights, members))
    cov = sum(w * (m.cov + np.outer(m.mean, m.mean))
              for w, m in zip(weights, members)) - np.outer(mean, mean)
    assert np.allclose(rep.mean, mean)
    assert np.allclose(rep.cov, (cov + cov.T) / 2.0, atol=1e-8)


def test_cluster_moments_floors_degenerate_covariance():
    a = _gauss(0, [1.0, 1.0], np.diag([COV_FLOOR, COV_FLOOR]), count=1)
    b = _gauss(0, [1.0, 1.0], np.diag([COV_FLOOR, COV_FLOOR]), count=1)
    rep = match_cells([[a, b]])[0]
    vals = np.linalg.eigvalsh(rep.cov)
    assert vals.min() >= COV_FLOOR - 1e-12


# --- clustering ----------------------------------------------------------------------


def _planted_gaussians(num_clients=6, sep=50.0):
    """Clients 0..2 near -sep, clients 3..5 near +sep, one class label 0."""
    out = {}
    for cid in range(num_clients):
        center = -sep if cid < num_clients // 2 else sep
        mean = np.array([center, center]) + 0.01 * cid
        out[cid] = [_gauss(0, mean, 0.01 * np.eye(2), count=10)]
    return out


def test_semantic_cluster_recovers_planted_groups():
    for seed in range(10):
        assignments = build_semantic_map(_planted_gaussians(), 2, seed).assignments
        groups = assignments[0]
        left = {groups[c] for c in (0, 1, 2)}
        right = {groups[c] for c in (3, 4, 5)}
        assert len(left) == 1 and len(right) == 1
        assert left != right


def test_semantic_cluster_mean_feature_variant():
    assignments = build_semantic_map(_planted_gaussians(), 2, 0).assignments
    groups = assignments[0]
    assert {groups[0], groups[1], groups[2]} != {groups[3], groups[4], groups[5]}
    # Clustering reads the class means only: swapping in far wider covariances
    # leaves the assignment unchanged.
    widened = {
        cid: [_gauss(0, g.mean, 1e4 * np.eye(2), count=10) for g in gs]
        for cid, gs in _planted_gaussians().items()
    }
    assert build_semantic_map(widened, 2, 0).assignments == assignments


def test_semantic_cluster_caps_k_at_holders():
    gaussians = {0: [_gauss(0, [0.0], [[1.0]])], 1: [_gauss(0, [5.0], [[1.0]])]}
    assignments = build_semantic_map(gaussians, 10, 0).assignments
    assert set(assignments[0].values()) <= {0, 1}


def test_semantic_cluster_deterministic_and_order_invariant():
    base = _planted_gaussians()
    reordered = {cid: base[cid] for cid in reversed(sorted(base))}
    a = build_semantic_map(base, 2, 3).assignments
    b = build_semantic_map(reordered, 2, 3).assignments
    assert a == b


def test_build_semantic_map_representatives():
    gaussians = _planted_gaussians()
    smap = build_semantic_map(gaussians, 2, 1)
    for cid, cluster in smap.assignments[0].items():
        rep = smap.representatives[(0, cluster)]
        # representative lives near its own group's center
        own_mean = gaussians[cid][0].mean
        assert np.linalg.norm(rep.mean - own_mean) < 5.0


def test_representative_counts_accumulate():
    gaussians = _planted_gaussians()
    smap = build_semantic_map(gaussians, 1, 0)
    rep = smap.representatives[(0, 0)]
    assert rep.count == 60


# --- alignment losses ------------------------------------------------------------------


def _stats(tape, labels, means, variances):
    """(moments, plan) of one member: a one-member [mean | var] leaf with one
    row per label, and the class labels and bounds that alignment_inputs
    reads from the group plan."""
    moments = tape.leaf(np.concatenate([np.atleast_2d(means), np.atleast_2d(variances)],
                                       axis=1)[None], "moments")
    plan = SimpleNamespace(class_labels=np.asarray(labels, dtype=np.int64),
                           class_bounds=np.array([0, len(labels)]))
    return moments, plan


def _align(moments, plan, representatives):
    """The diag_gaussian_kl node of the member's classes against its {label:
    ClassGaussian} broadcast, or None when none matches; the leaf is read as
    the 2-D statistics table."""
    inputs = alignment_inputs(plan, [representatives])
    return None if inputs is None else tp.diag_gaussian_kl(
        tp.reshape(moments, moments.shape[1:]), *inputs)


def test_semantic_alignment_loss_sums_matching_classes():
    local = [_gauss(0, [0.0], [[1.0]]), _gauss(1, [1.0], [[1.0]])]
    reps = {0: _gauss(0, [0.5], [[1.0]])}
    want = gaussian_kl(local[0], reps[0])
    t = tp.Tape()
    stats = _stats(t, [0, 1], [[0.0], [1.0]], [[1.0], [1.0]])
    loss = _align(*stats, reps)
    assert float(loss.value[0, 0, 0]) == pytest.approx(want)
    assert _align(*stats, {}) is None


def test_alignment_path_matches_closed_form():
    rng = np.random.default_rng(5)
    d = 3
    reps = {0: _gauss(0, rng.standard_normal(d), random_spd(rng, d)),
            1: _gauss(1, rng.standard_normal(d), random_spd(rng, d))}
    means = rng.standard_normal((2, d))
    variances = 0.5 + rng.random((2, d))
    t = tp.Tape()
    loss = _align(*_stats(t, [0, 1], means, variances), reps)
    want = sum(gaussian_kl(_gauss(c, means[c], np.diag(variances[c])), reps[c])
               for c in (0, 1))
    assert float(loss.value[0, 0, 0]) == pytest.approx(want, rel=1e-10)


def test_alignment_path_skips_unmatched_and_returns_none():
    t = tp.Tape()
    one = _stats(t, [0], np.zeros((1, 2)), np.ones((1, 2)))
    assert _align(*one, {}) is None
    reps = {0: _gauss(0, np.zeros(2), np.eye(2))}
    assert _align(*_stats(t, [3], np.zeros((1, 2)), np.ones((1, 2))),
                  reps) is None
    # label 5 has no representative: no value and no gradient
    moments, plan = _stats(t, [0, 5], np.zeros((2, 2)), [[1.0, 1.0], [2.0, 3.0]])
    out = _align(moments, plan, reps)
    assert out is not None
    assert float(out.value[0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    g = tp.grad(t, out)[moments]
    assert np.array_equal(g[0, 1], np.zeros(4))


def _train_graph(train_labels, n=12):
    """A featureless n-node graph whose first rows are train rows with these labels."""
    labels = np.zeros(n, dtype=np.int64)
    labels[:len(train_labels)] = train_labels
    return LocalGraph(np.zeros((n, 1)), labels, [], train_idx=np.arange(len(train_labels)),
                      val_idx=[], test_idx=[])


@pytest.mark.parametrize("dz", [1, 2, 8])
def test_alignment_inputs_match_distinct_targets_reference(dz):
    # two groups of three clients; client 2 has no broadcast, clients 0 and
    # 1 lack some of their classes, client 4 has no train rows, and the
    # shared representative objects reach members of both groups. The same
    # broadcasts with every representative deep-copied per client, as
    # decoded messages would hold them, give the same bits.
    rng = np.random.default_rng(40 + dz)
    train = {0: [0, 1, 2, 3], 1: [1, 1, 3], 2: [0, 2], 3: [2, 3, 3], 4: [], 5: [3, 0, 1, 2]}
    shared = {label: _gauss(label, rng.standard_normal(dz), random_spd(rng, dz), 3)
              for label in range(4)}
    received = {0: {0: shared[0], 2: shared[2]},
                1: {1: shared[1], 3: shared[3]},
                3: {2: _gauss(2, rng.standard_normal(dz), random_spd(rng, dz), 2),
                    3: shared[3]},
                4: {0: shared[0]},
                5: dict(shared)}
    copied = {cid: copy.deepcopy(reps) for cid, reps in received.items()}
    targets = distinct_kl_targets(received)
    for ids in ([0, 1, 2], [3, 4, 5], [2, 4]):
        plan = group_plan([_train_graph(train[i]) for i in ids])
        want = matched_alignment_inputs(plan, [targets.get(i) for i in ids])
        for source in (received, copied):
            got = alignment_inputs(plan, [source.get(i, {}) for i in ids])
            if ids == [2, 4]:  # no class of either member has a representative
                assert got is None and want is None
                continue
            assert len(got) == len(want) == 5
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_alignment_path_rejects_nonpositive_variance():
    reps = {0: _gauss(0, np.zeros(2), np.eye(2))}
    for bad in (0.0, -1e-3):
        t = tp.Tape()
        stats = _stats(t, [0], np.zeros((1, 2)), [[1.0, bad]])
        with pytest.raises(NumericError):
            _align(*stats, reps)


def test_kl_targets_rejects_indefinite_representative():
    t = tp.Tape()
    _moments, plan = _stats(t, [0], np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(NumericError, match="not positive definite") as err:
        alignment_inputs(plan, [{0: _gauss(0, np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])}])
    assert err.value.members == (0,)


def test_alignment_path_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    d = 2
    reps = {0: _gauss(0, rng.standard_normal(d), random_spd(rng, d))}
    arrays = {"moments": np.concatenate([rng.standard_normal((1, d)),
                                         0.5 + rng.random((1, d))], axis=1)}

    def build(t, values):
        moments, plan = _stats(t, [0], values[:, :d], values[:, d:])
        return moments, _align(moments, plan, reps)

    t = tp.Tape()
    moments, loss = build(t, arrays["moments"])
    got = tp.grad(t, loss)[moments][0]
    want = central_diff(
        lambda vals: float(build(tp.Tape(), vals["moments"])[1].value[0, 0, 0]),
        arrays)["moments"]
    assert rel_err(got[:, :d], want[:, :d]) < 1e-6
    assert rel_err(got[:, d:], want[:, d:]) < 1e-6


def test_build_semantic_map_members_partition_holders():
    rng = np.random.default_rng(8)
    gaussians = {cid: [_gauss(lab, rng.standard_normal(2), np.eye(2), count=cid + 1)
                       for lab in range(3) if (cid + lab) % 3]
                 for cid in (7, 2, 5, 0, 9, 4, 6)}
    smap = build_semantic_map(gaussians, 2, 0)
    assert sorted(smap.members) == sorted(smap.representatives)
    for label, by_client in smap.assignments.items():
        holders = sorted(cid for cid, gs in gaussians.items()
                         if any(g.label == label for g in gs))
        assert sorted(by_client) == holders
        covered = []
        for cluster in sorted(set(by_client.values())):
            ids = [cid for cid in holders if by_client[cid] == cluster]
            want = [g for cid in ids for g in gaussians[cid] if g.label == label]
            cell = smap.members[(label, cluster)]
            assert [id(g) for g in cell] == [id(g) for g in want]
            rep = smap.representatives[(label, cluster)]
            assert np.array_equal(rep.cov, match_cells([cell])[0].cov)
            covered += ids
        assert sorted(covered) == holders
