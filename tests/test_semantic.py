"""Semantic sharing checks: closed-form Gaussian KL against hand values and
Monte Carlo, mixture weighting, moment matching, planted cluster recovery,
and the differentiable alignment path against the closed form."""

from types import SimpleNamespace

import numpy as np
import pytest

from fedssa import tape as tp
from fedssa.errors import ContractError, NumericError, ShapeError
from fedssa.models import COV_FLOOR, ClassGaussian
from fedssa.rng import stream
from fedssa.semantic import (alignment_inputs, alignment_path, build_semantic_map,
                             client_kl_targets, cluster_moments, gaussian_kl,
                             gmm_of_cluster, semantic_cluster)
from helpers import central_diff, mc_gaussian_kl, random_spd, rel_err


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


# --- mixtures and moment matching ---------------------------------------------------


def test_gmm_weights_proportional_to_counts():
    a = _gauss(1, [0.0], [[1.0]], count=10)
    b = _gauss(1, [2.0], [[1.0]], count=30)
    mix = gmm_of_cluster([a, b])
    assert np.allclose(mix.weights, [0.25, 0.75])


def test_gmm_rejects_mixed_labels():
    with pytest.raises(ContractError):
        gmm_of_cluster([_gauss(0, [0.0], [[1.0]]), _gauss(1, [0.0], [[1.0]])])


def test_gmm_rejects_empty():
    with pytest.raises(ContractError):
        gmm_of_cluster([])


def test_cluster_moments_singleton_is_identity():
    g = _gauss(2, [1.0, -3.0], [[2.0, 0.4], [0.4, 1.5]], count=7)
    rep = cluster_moments(gmm_of_cluster([g]))
    assert rep.label == 2
    assert rep.count == 7
    assert np.allclose(rep.mean, g.mean)
    assert np.allclose(rep.cov, g.cov, atol=1e-9)


def test_cluster_moments_two_member_hand_value():
    # 1-D equal-count mixture of N(0,1) and N(2,1):
    # mean 1, var = E[var] + Var(mean) = 1 + 1 = 2
    a = _gauss(0, [0.0], [[1.0]], count=5)
    b = _gauss(0, [2.0], [[1.0]], count=5)
    rep = cluster_moments(gmm_of_cluster([a, b]))
    assert rep.mean[0] == pytest.approx(1.0)
    assert rep.cov[0, 0] == pytest.approx(2.0)
    assert rep.count == 10


def test_cluster_moments_matches_direct_formula():
    rng = np.random.default_rng(2)
    members = [_gauss(3, rng.standard_normal(3), random_spd(rng, 3),
                      count=int(rng.integers(1, 20))) for _ in range(4)]
    mix = gmm_of_cluster(members)
    rep = cluster_moments(mix)
    mean = sum(w * m.mean for w, m in zip(mix.weights, members))
    cov = sum(w * (m.cov + np.outer(m.mean, m.mean))
              for w, m in zip(mix.weights, members)) - np.outer(mean, mean)
    assert np.allclose(rep.mean, mean)
    assert np.allclose(rep.cov, (cov + cov.T) / 2.0, atol=1e-8)


def test_cluster_moments_floors_degenerate_covariance():
    a = _gauss(0, [1.0, 1.0], np.diag([COV_FLOOR, COV_FLOOR]), count=1)
    b = _gauss(0, [1.0, 1.0], np.diag([COV_FLOOR, COV_FLOOR]), count=1)
    rep = cluster_moments(gmm_of_cluster([a, b]))
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
        assignments = semantic_cluster(_planted_gaussians(), 2, seed)
        groups = assignments[0]
        left = {groups[c] for c in (0, 1, 2)}
        right = {groups[c] for c in (3, 4, 5)}
        assert len(left) == 1 and len(right) == 1
        assert left != right


def test_semantic_cluster_mean_feature_variant():
    assignments = semantic_cluster(_planted_gaussians(), 2, 0)
    groups = assignments[0]
    assert {groups[0], groups[1], groups[2]} != {groups[3], groups[4], groups[5]}
    # Clustering reads the class means only: swapping in far wider covariances
    # leaves the assignment unchanged.
    widened = {
        cid: [_gauss(0, g.mean, 1e4 * np.eye(2), count=10) for g in gs]
        for cid, gs in _planted_gaussians().items()
    }
    assert semantic_cluster(widened, 2, 0) == assignments


def test_semantic_cluster_caps_k_at_holders():
    gaussians = {0: [_gauss(0, [0.0], [[1.0]])], 1: [_gauss(0, [5.0], [[1.0]])]}
    assignments = semantic_cluster(gaussians, 10, 0)
    assert set(assignments[0].values()) <= {0, 1}


def test_semantic_cluster_deterministic_and_order_invariant():
    base = _planted_gaussians()
    reordered = {cid: base[cid] for cid in reversed(sorted(base))}
    a = semantic_cluster(base, 2, 3)
    b = semantic_cluster(reordered, 2, 3)
    assert a == b


def test_build_semantic_map_representatives():
    gaussians = _planted_gaussians()
    smap = build_semantic_map(gaussians, 2, 1)
    for cid, cluster in smap.assignments[0].items():
        rep = smap.representative_for(0, cid)
        assert rep is smap.representatives[(0, cluster)]
        # representative lives near its own group's center
        own_mean = gaussians[cid][0].mean
        assert np.linalg.norm(rep.mean - own_mean) < 5.0
    assert smap.representative_for(9, 0) is None
    assert smap.representative_for(0, 99) is None


def test_representative_counts_accumulate():
    gaussians = _planted_gaussians()
    smap = build_semantic_map(gaussians, 1, 0)
    rep = smap.representatives[(0, 0)]
    assert rep.count == 60


# --- alignment losses ------------------------------------------------------------------


def _stats(tape, labels, means, variances):
    """(moments, plan) of one member: a [mean | var] leaf with one row per
    label, and the class labels and bounds that alignment_inputs reads from
    the group plan."""
    moments = tape.leaf(np.concatenate([np.atleast_2d(means), np.atleast_2d(variances)],
                                       axis=1), "moments")
    plan = SimpleNamespace(class_labels=np.asarray(labels, dtype=np.int64),
                           class_bounds=np.array([0, len(labels)]))
    return moments, plan


def _targets(representatives):
    """The one member's alignment targets from {label: ClassGaussian}."""
    return [client_kl_targets({0: representatives})[0]]


def _align(moments, plan, targets):
    """The alignment node of the member's classes, or None when none matches."""
    inputs = alignment_inputs(plan, targets)
    return None if inputs is None else alignment_path(moments, inputs)


def test_semantic_alignment_loss_sums_matching_classes():
    local = [_gauss(0, [0.0], [[1.0]]), _gauss(1, [1.0], [[1.0]])]
    reps = {0: _gauss(0, [0.5], [[1.0]])}
    want = gaussian_kl(local[0], reps[0])
    t = tp.Tape()
    stats = _stats(t, [0, 1], [[0.0], [1.0]], [[1.0], [1.0]])
    loss = _align(*stats, _targets(reps))
    assert float(loss.value[0, 0, 0]) == pytest.approx(want)
    assert _align(*stats, _targets({})) is None


def test_alignment_path_matches_closed_form():
    rng = np.random.default_rng(5)
    d = 3
    reps = {0: _gauss(0, rng.standard_normal(d), random_spd(rng, d)),
            1: _gauss(1, rng.standard_normal(d), random_spd(rng, d))}
    means = rng.standard_normal((2, d))
    variances = 0.5 + rng.random((2, d))
    t = tp.Tape()
    loss = _align(*_stats(t, [0, 1], means, variances), _targets(reps))
    want = sum(gaussian_kl(_gauss(c, means[c], np.diag(variances[c])), reps[c])
               for c in (0, 1))
    assert float(loss.value[0, 0, 0]) == pytest.approx(want, rel=1e-10)


def test_alignment_path_skips_unmatched_and_returns_none():
    t = tp.Tape()
    one = _stats(t, [0], np.zeros((1, 2)), np.ones((1, 2)))
    assert _align(*one, _targets({})) is None
    reps = {0: _gauss(0, np.zeros(2), np.eye(2))}
    assert _align(*_stats(t, [3], np.zeros((1, 2)), np.ones((1, 2))),
                  _targets(reps)) is None
    # label 5 has no representative: no value and no gradient
    moments, plan = _stats(t, [0, 5], np.zeros((2, 2)), [[1.0, 1.0], [2.0, 3.0]])
    out = _align(moments, plan, _targets(reps))
    assert out is not None
    assert float(out.value[0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    g = tp.grad(t, out)[moments]
    assert np.array_equal(g[1], np.zeros(4))


def test_alignment_path_rejects_nonpositive_variance():
    reps = _targets({0: _gauss(0, np.zeros(2), np.eye(2))})
    for bad in (0.0, -1e-3):
        t = tp.Tape()
        stats = _stats(t, [0], np.zeros((1, 2)), [[1.0, bad]])
        with pytest.raises(NumericError):
            _align(*stats, reps)


def test_kl_targets_rejects_indefinite_representative():
    with pytest.raises(NumericError):
        _targets({0: _gauss(0, np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])})


def test_alignment_path_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    d = 2
    targets = _targets({0: _gauss(0, rng.standard_normal(d), random_spd(rng, d))})
    arrays = {"moments": np.concatenate([rng.standard_normal((1, d)),
                                         0.5 + rng.random((1, d))], axis=1)}

    def build(t, values):
        moments, plan = _stats(t, [0], values[:, :d], values[:, d:])
        return moments, _align(moments, plan, targets)

    t = tp.Tape()
    moments, loss = build(t, arrays["moments"])
    got = tp.grad(t, loss)[moments]
    want = central_diff(
        lambda vals: float(build(tp.Tape(), vals["moments"])[1].value[0, 0, 0]),
        arrays)["moments"]
    assert rel_err(got[:, :d], want[:, :d]) < 1e-6
    assert rel_err(got[:, d:], want[:, d:]) < 1e-6
