"""Structural sharing checks: the server's chordal distance against an SVD
principal-angle oracle, projection-embedding isometry, basis invariance,
planted subspace recovery, coefficient pooling, and the two filter stability
bounds."""

import numpy as np
import pytest

from fedssa import tape as tp
from fedssa.errors import ConfigError, ContractError, ShapeError
from fedssa.graphs import SynthSpec, laplacian_powers, synth_dataset
from fedssa.linalg import qr_thin
from fedssa.structural import (SpectralEnergy, build_structural_map, coeff_perturb_bound,
                               filter_lipschitz_bound, pairwise_chordal,
                               projection_embedding, structural_cluster)
from helpers import (chordal_distance, filter_derivative_sup, grid_filter_sup,
                     residual_chordal)


def _energy(client_id, mat):
    q, _ = qr_thin(np.asarray(mat, dtype=float))
    return SpectralEnergy(client_id, q)


def _random_energy(client_id, rng, d=8, k1=3):
    return _energy(client_id, rng.standard_normal((d, k1)))


def _chordal(a, b):
    """The server's chordal distance between two frames (pairwise_chordal)."""
    return pairwise_chordal([a, b])[1][0, 1]


# --- chordal distance ------------------------------------------------------------


def test_chordal_matches_svd_principal_angle_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = _random_energy(0, rng)
        b = _random_energy(1, rng)
        got = _chordal(a, b)
        want = residual_chordal(a.q, b.q)
        assert got == pytest.approx(want, abs=1e-9)


def test_chordal_identical_subspace_is_zero():
    rng = np.random.default_rng(1)
    a = _random_energy(0, rng)
    assert _chordal(a, a) == 0.0


@pytest.mark.parametrize("angle", [1e-8, 1e-10])
def test_chordal_resolves_nearby_subspaces(angle):
    # sqrt(K+1 - ||Qa^T Qb||^2) cancels to ~sqrt(eps) here; the projection
    # form keeps the distance to a few ulps of the residual ||(I - Pa) Qb||_F
    rng = np.random.default_rng(7)
    basis, _ = qr_thin(rng.standard_normal((8, 8)))
    qa = basis[:, :3]
    qb = qa.copy()
    qb[:, 0] = np.cos(angle) * basis[:, 0] + np.sin(angle) * basis[:, 5]
    want = residual_chordal(qa, qb)
    a, b = SpectralEnergy(0, qa), SpectralEnergy(1, qb)
    assert abs(_chordal(a, b) - want) <= 1e-12


def test_chordal_invariant_to_orthogonal_rebasing():
    rng = np.random.default_rng(2)
    a = _random_energy(0, rng, d=8, k1=3)
    b = _random_energy(1, rng, d=8, k1=3)
    # re-express b's frame in a rotated basis of the same subspace
    rot, _ = qr_thin(rng.standard_normal((3, 3)))
    b_rot = SpectralEnergy(1, b.q @ rot)
    assert _chordal(a, b_rot) == pytest.approx(_chordal(a, b), abs=1e-9)


def test_chordal_orthogonal_subspaces_hit_max():
    q1 = np.eye(6)[:, :2]
    q2 = np.eye(6)[:, 2:4]
    a = SpectralEnergy(0, q1)
    b = SpectralEnergy(1, q2)
    assert _chordal(a, b) == pytest.approx(np.sqrt(2.0))


def test_chordal_range():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = _random_energy(0, rng, d=6, k1=2)
        b = _random_energy(1, rng, d=6, k1=2)
        d = _chordal(a, b)
        assert -1e-12 <= d <= np.sqrt(2.0) + 1e-12


def test_chordal_shape_mismatch():
    rng = np.random.default_rng(4)
    with pytest.raises(ShapeError):
        _chordal(_random_energy(0, rng, d=6, k1=2),
                 _random_energy(1, rng, d=6, k1=3))


def test_pairwise_chordal_sorted_symmetric():
    rng = np.random.default_rng(5)
    energies = [_random_energy(cid, rng) for cid in (3, 0, 2)]
    ids, dist = pairwise_chordal(energies)
    assert ids == [0, 2, 3]
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    by_id = {e.client_id: e for e in energies}
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            assert abs(dist[i, j] - chordal_distance(by_id[a], by_id[b])) <= 1e-12


def test_pairwise_chordal_contract():
    ids, dist = pairwise_chordal([])
    assert ids == [] and dist.shape == (0, 0)
    rng = np.random.default_rng(8)
    ids, dist = pairwise_chordal([_random_energy(4, rng)])
    assert ids == [4] and dist.tolist() == [[0.0]]
    with pytest.raises(ShapeError):
        pairwise_chordal([_random_energy(0, rng, d=6, k1=2),
                          _random_energy(1, rng, d=6, k1=3)])


def test_projection_embedding_isometry_factor():
    # ||QaQa^T - QbQb^T||_F = sqrt(2) * chordal distance
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = _random_energy(0, rng)
        b = _random_energy(1, rng)
        emb = np.linalg.norm(projection_embedding(a) - projection_embedding(b))
        assert emb == pytest.approx(np.sqrt(2.0) * _chordal(a, b), abs=1e-9)


def test_spectral_energy_contract():
    with pytest.raises(ContractError):
        SpectralEnergy(0, np.ones((4, 2)))
    with pytest.raises(ShapeError):
        SpectralEnergy(0, np.ones(4))


# --- clustering -------------------------------------------------------------------


def _planted_energies(rng, per_group=4, d=10, k1=3, wobble=1e-3):
    base_a = rng.standard_normal((d, k1))
    base_b = rng.standard_normal((d, k1))
    energies = []
    for cid in range(2 * per_group):
        base = base_a if cid < per_group else base_b
        energies.append(_energy(cid, base + wobble * rng.standard_normal((d, k1))))
    return energies


def test_structural_cluster_recovers_planted_groups():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        energies = _planted_energies(rng)
        assignment = structural_cluster(energies, 2, seed)
        left = {assignment[c] for c in range(4)}
        right = {assignment[c] for c in range(4, 8)}
        assert len(left) == 1 and len(right) == 1 and left != right


def test_structural_cluster_order_invariant():
    rng = np.random.default_rng(7)
    energies = _planted_energies(rng)
    a = structural_cluster(energies, 2, 5)
    b = structural_cluster(list(reversed(energies)), 2, 5)
    assert a == b


def test_structural_cluster_errors():
    rng = np.random.default_rng(8)
    with pytest.raises(ContractError):
        structural_cluster([], 2, 0)
    with pytest.raises(ConfigError):
        structural_cluster([_random_energy(0, rng)], 0, 0)
    e = _random_energy(0, rng)
    with pytest.raises(ContractError):
        structural_cluster([e, _random_energy(0, rng)], 2, 0)


def test_build_structural_map_mean_coefficients():
    rng = np.random.default_rng(9)
    energies = _planted_energies(rng, per_group=3)
    coeffs = {cid: np.full(4, float(cid)) for cid in range(6)}
    smap = build_structural_map(structural_cluster(energies, 2, 1), coeffs)
    for cluster, members in ((smap.assignments[0], [0, 1, 2]),
                             (smap.assignments[3], [3, 4, 5])):
        want = np.mean([coeffs[c] for c in members], axis=0)
        assert np.allclose(smap.mean_coefficients[cluster], want)
        for cid in members:
            assert np.allclose(smap.mean_coefficients[smap.assignments[cid]], want)


# --- coefficient losses --------------------------------------------------------------


def _coefficient_loss(build, w):
    t = tp.Tape()
    return float(build(t.leaf(np.asarray(w, dtype=float).reshape(1, 1, -1), "w")).value[0, 0, 0])


def test_coefficient_alignment_loss_hand_value():
    assert _coefficient_loss(
        lambda wv: tp.coefficient_penalty(wv, np.array([0.5, -1.0]), 0.0, 0.0),
        [1.0, -2.0]) == pytest.approx(1.5)
    assert _coefficient_loss(lambda wv: tp.coefficient_penalty(wv, np.array([1.0]), 0.0, 0.0),
                             [1.0]) == 0.0


def test_coefficient_regularizer_hand_value():
    w = np.array([1.0, -2.0])
    assert _coefficient_loss(lambda wv: tp.coefficient_penalty(wv, None, 0.1, 0.2), w) == \
        pytest.approx(0.1 * 3.0 + 0.1 * 5.0)


def test_tape_losses_match_numeric_forms():
    w = np.array([[0.5, -1.5, 2.0]])
    w_bar = np.array([0.0, -1.0, 2.5])
    t = tp.Tape()
    wv = t.leaf(w[None], "w")
    align = float(np.sum(np.abs(w.ravel() - w_bar)))
    reg = 0.3 * float(np.sum(np.abs(w))) + 0.35 * float(np.sum(w * w))
    assert float(tp.coefficient_penalty(wv, w_bar, 0.0, 0.0).value[0, 0, 0]) == \
        pytest.approx(align, rel=1e-12)
    assert float(tp.coefficient_penalty(wv, None, 0.3, 0.7).value[0, 0, 0]) == \
        pytest.approx(reg, rel=1e-12)
    assert float(tp.coefficient_penalty(wv, w_bar, 0.3, 0.7).value[0, 0, 0]) == \
        pytest.approx(align + reg, rel=1e-12)


def test_alignment_var_gradient_is_sign():
    t = tp.Tape()
    wv = t.leaf(np.array([[[1.0, -1.0, 0.5]]]), "w")
    loss = tp.coefficient_penalty(wv, np.array([0.0, 0.0, 0.5]), 0.0, 0.0)
    g = tp.grad(t, loss)[wv]
    assert np.array_equal(g, np.array([[[1.0, -1.0, 0.0]]]))


# --- filter bounds ----------------------------------------------------------------------


def test_lipschitz_bound_dominates_grid_sup():
    rng = np.random.default_rng(10)
    for _ in range(200):
        size = int(rng.integers(1, 7))
        w = rng.uniform(-3.0, 3.0, size=size)
        bound = filter_lipschitz_bound(w)
        sup = grid_filter_sup(w)
        assert sup <= bound + 1e-9


def test_lipschitz_bound_hand_value():
    # w = [w0, w1, w2]: bound = |w1| + 2*|w2|*2 = |w1| + 4|w2|
    assert filter_lipschitz_bound([5.0, 1.5, -0.5]) == pytest.approx(1.5 + 2.0)
    assert filter_lipschitz_bound([3.0]) == 0.0


def test_lipschitz_bound_tight_for_positive_coefficients():
    # with all w_k >= 0 the derivative is maximized at lambda = 2 exactly
    w = np.array([0.3, 0.7, 0.2, 0.1])
    sup = filter_derivative_sup(w, grid_points=200001)
    assert filter_lipschitz_bound(w) == pytest.approx(sup, rel=1e-6)


def test_derivative_sup_matches_helper_grid():
    w = np.array([0.1, -0.4, 0.9, -0.2])
    assert filter_derivative_sup(w, grid_points=20001) == \
        pytest.approx(grid_filter_sup(w), rel=1e-12)


def test_perturb_bound_dominates_actual():
    g = synth_dataset(SynthSpec(20, 2, 5, 0.3, 0.05), 0)
    powers = laplacian_powers(g, 3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        wa = rng.uniform(-2.0, 2.0, size=4)
        wb = rng.uniform(-2.0, 2.0, size=4)
        actual, bound = coeff_perturb_bound(wa, wb, powers)
        assert actual <= bound + 1e-9


def test_perturb_bound_exact_for_single_term():
    g = synth_dataset(SynthSpec(15, 2, 4, 0.3, 0.05), 1)
    powers = laplacian_powers(g, 2)
    wa = np.array([1.0, 0.0, 0.0])
    wb = np.array([1.0, 0.0, 0.7])
    actual, bound = coeff_perturb_bound(wa, wb, powers)
    assert actual == pytest.approx(0.7 * np.linalg.norm(powers[2]))
    assert bound == pytest.approx(actual)


def test_perturb_bound_zero_for_identical():
    g = synth_dataset(SynthSpec(15, 2, 4, 0.3, 0.05), 1)
    powers = laplacian_powers(g, 2)
    actual, bound = coeff_perturb_bound([1.0, 0.2, 0.1], [1.0, 0.2, 0.1], powers)
    assert actual == 0.0 and bound == 0.0


def test_perturb_bound_shape_mismatch():
    g = synth_dataset(SynthSpec(10, 2, 4, 0.3, 0.05), 1)
    with pytest.raises(ShapeError):
        coeff_perturb_bound([1.0, 0.0], [1.0], laplacian_powers(g, 1))
