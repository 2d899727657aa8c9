"""Theory diagnostics checks: error-floor arithmetic, the contraction
recursion against closed-form bounds and against real gradient descent on a
quadratic, the round schedule, KL bound audits with planted clusters, and
heterogeneity measurement, each spread also against a brute-force pair loop."""

import numpy as np
import pytest

from fedssa.errors import ConfigError, ContractError
from fedssa.linalg import qr_thin
from fedssa.models import ClassGaussian
from fedssa.semantic import SemanticClusterMap, build_semantic_map, match_cells
from fedssa.structural import (SpectralEnergy, StructuralClusterMap, build_structural_map,
                               pairwise_chordal, structural_cluster)
from fedssa.theory import (ErrorFloorReport, contraction_simulate, error_floor,
                           kl_bound_audit, measure_heterogeneity,
                           rounds_to_reach)
from helpers import chordal_distance, random_spd


# --- error floor -----------------------------------------------------------------


def test_error_floor_structural_hand_value():
    # order K=3, eps_u=0.5 -> (K+1) * eps_u = 2.0
    rep = ErrorFloorReport(delta_mu=0.0, delta_sigma=0.0, eps_u=0.5, order=3,
                           lambda1=0.0, lambda2=0.0)
    assert rep.structural_term == 2.0
    assert rep.total == 2.0


def test_error_floor_full_decomposition():
    rep = ErrorFloorReport(delta_mu=0.5, delta_sigma=0.25, eps_u=0.5, order=3,
                           lambda1=0.1, lambda2=0.2)
    assert rep.semantic_term == pytest.approx(0.5 + 0.25 + 0.25)
    assert rep.structural_term == pytest.approx(2.0)
    assert rep.reg_term == pytest.approx(0.3)
    assert rep.total == pytest.approx(rep.semantic_term + rep.structural_term
                                      + rep.reg_term)


def test_error_floor_monotone_in_divergence():
    lo = ErrorFloorReport(0.1, 0.1, 0.1, 2, 0.0, 0.0)
    hi = ErrorFloorReport(0.2, 0.2, 0.2, 2, 0.0, 0.0)
    assert hi.total > lo.total


def test_error_floor_constant_contracts():
    with pytest.raises(ConfigError):
        ErrorFloorReport(0.1, 0.1, 0.1, 2, -0.1, 0.0)
    with pytest.raises(ConfigError):
        ErrorFloorReport(0.1, 0.1, 0.1, 2, 0.0, -0.1)


# --- contraction -----------------------------------------------------------------


def test_contraction_rho_half_hand_values():
    result = contraction_simulate(l_f=1.0, lam_f=1.0, dist0=1.0, floor=0.0,
                                  rounds=3)
    assert result.rho == pytest.approx(0.5)
    assert result.fixed_point == 0.0
    assert np.allclose(result.distances, (1.0, 0.5, 0.25, 0.125))
    assert np.allclose(result.bounds, (1.0, 0.5, 0.25, 0.125))


def test_contraction_with_floor_reaches_fixed_point():
    result = contraction_simulate(l_f=2.0, lam_f=1.0, dist0=5.0, floor=0.4,
                                  rounds=200)
    want_fp = (2.0 + 1.0) / (1.0 * 2.0) * 0.4
    assert result.fixed_point == pytest.approx(want_fp)
    assert result.distances[-1] == pytest.approx(want_fp, rel=1e-10)
    diffs = np.diff(result.distances)
    assert np.all(diffs <= 1e-12)  # monotone decrease from above
    for d, b in zip(result.distances, result.bounds):
        assert d <= b + 1e-12


def test_contraction_fixed_point_is_stationary():
    fp = (3.0 + 1.5) / (1.5 * 3.0) * 0.6
    result = contraction_simulate(l_f=3.0, lam_f=1.5, dist0=fp, floor=0.6,
                                  rounds=5)
    assert np.allclose(result.distances, fp)


_NONFINITE = (float("nan"), float("inf"), -float("inf"))


def test_contraction_contracts_errors():
    with pytest.raises(ContractError):
        contraction_simulate(1.0, 2.0, 1.0, 0.0, 5)  # lam > L
    with pytest.raises(ContractError):
        contraction_simulate(1.0, 0.0, 1.0, 0.0, 5)
    with pytest.raises(ContractError):
        contraction_simulate(1.0, 1.0, -1.0, 0.0, 5)
    with pytest.raises(ContractError):
        contraction_simulate(1.0, 1.0, 1.0, 0.0, -1)
    args = dict(l_f=4.0, lam_f=1.0, dist0=1.0, floor=0.1, rounds=5)
    for name in ("l_f", "lam_f", "dist0", "floor"):
        for bad in _NONFINITE:
            with pytest.raises(ContractError, match=f"{name} must be finite"):
                contraction_simulate(**dict(args, **{name: bad}))


def test_contraction_bound_holds_for_gradient_descent_on_quadratic():
    # GD with step 1/(L + lam) on a quadratic with spectrum in [lam, L]
    # contracts at least as fast as rho = 1 - lam/(L + lam); per-step noise
    # of norm g adds at most g/(L + lam) <= floor/L with g = floor*(L+lam)/L.
    rng = np.random.default_rng(0)
    lam, big_l = 1.0, 4.0
    d = 6
    q, _ = qr_thin(rng.standard_normal((d, d)))
    eigs = np.concatenate([[lam, big_l], rng.uniform(lam, big_l, size=d - 2)])
    h = q @ np.diag(eigs) @ q.T
    floor = 0.3
    g = floor * (big_l + lam) / big_l
    eta = 1.0 / (big_l + lam)
    x = rng.standard_normal(d)
    x = x / np.linalg.norm(x) * 5.0
    rounds = 60
    sim = contraction_simulate(big_l, lam, np.linalg.norm(x), floor, rounds)
    for t in range(1, rounds + 1):
        noise = rng.standard_normal(d)
        noise = noise / np.linalg.norm(noise) * g
        x = x - eta * (h @ x + noise)
        assert np.linalg.norm(x) <= sim.distances[t] + 1e-9
        assert np.linalg.norm(x) <= sim.bounds[t] + 1e-9


def test_rounds_to_reach_schedule():
    t = rounds_to_reach(4.0, 1.0, 1.0, 1e-3)
    # formula: ceil(5 * ln(1000)) = ceil(34.54) = 35
    assert t == 35
    rho = 1.0 - 1.0 / 5.0
    assert rho ** t * 1.0 <= 1e-3
    assert rounds_to_reach(4.0, 1.0, 0.5, 1.0) == 0
    assert rounds_to_reach(4.0, 1.0, 1.0, 1e-6) > t


def test_rounds_to_reach_errors():
    with pytest.raises(ContractError):
        rounds_to_reach(1.0, 2.0, 1.0, 0.1)
    with pytest.raises(ContractError):
        rounds_to_reach(1.0, 1.0, 1.0, 0.0)
    args = dict(l_f=4.0, lam_f=1.0, dist0=1.0, xi=1e-3)
    for name in ("l_f", "lam_f", "dist0", "xi"):
        for bad in _NONFINITE:
            with pytest.raises(ContractError, match=f"{name} must be finite"):
                rounds_to_reach(**dict(args, **{name: bad}))


# --- KL bound audit ---------------------------------------------------------------


def _planted_cluster(rng, d=3, n_members=4, mu_spread=0.05, cov_spread=0.01):
    base_mean = rng.standard_normal(d)
    base_cov = random_spd(rng, d) + 0.5 * np.eye(d)
    members = {}
    for cid in range(n_members):
        mean = base_mean + mu_spread * rng.standard_normal(d)
        pert = cov_spread * rng.standard_normal((d, d))
        cov = base_cov + 0.5 * (pert + pert.T)
        members[cid] = ClassGaussian(0, mean, 0.5 * (cov + cov.T),
                                     int(rng.integers(1, 20)))
    rep = match_cells([[members[c] for c in sorted(members)]])[0]
    return members, rep


def test_kl_audit_zero_violations_on_tight_clusters():
    for seed in range(50):
        rng = np.random.default_rng(300 + seed)
        members, rep = _planted_cluster(rng)
        audit = kl_bound_audit(members, rep)
        assert audit.precondition_ok, f"seed {seed} failed the precondition"
        assert audit.violations == 0
        for entry in audit.entries:
            assert entry.actual <= entry.bound + 1e-9
            assert entry.within


def test_kl_audit_reports_spreads():
    rng = np.random.default_rng(1)
    members, rep = _planted_cluster(rng)
    audit = kl_bound_audit(members, rep)
    gaussians = [members[c] for c in sorted(members)]
    want_mu = max(np.linalg.norm(a.mean - b.mean)
                  for i, a in enumerate(gaussians) for b in gaussians[i + 1:])
    assert audit.delta_mu == pytest.approx(want_mu)
    assert audit.label == 0
    assert len(audit.entries) == len(members)
    assert [e.client_id for e in audit.entries] == sorted(members)


def test_kl_audit_wide_cluster_fails_precondition_without_violations():
    rng = np.random.default_rng(2)
    members = {0: ClassGaussian(0, np.zeros(2), 0.01 * np.eye(2), 5),
               1: ClassGaussian(0, 10.0 * np.ones(2), 0.01 * np.eye(2), 5)}
    rep = match_cells([[members[0], members[1]]])[0]
    audit = kl_bound_audit(members, rep)
    assert not audit.precondition_ok
    assert audit.violations == 0
    del rng


def test_kl_audit_contracts():
    with pytest.raises(ContractError):
        kl_bound_audit({}, ClassGaussian(0, np.zeros(1), np.eye(1), 1))
    members = {0: ClassGaussian(1, np.zeros(1), np.eye(1), 1)}
    with pytest.raises(ContractError):
        kl_bound_audit(members, ClassGaussian(0, np.zeros(1), np.eye(1), 1))


def test_kl_audit_singleton_member_of_its_own_cluster():
    g = ClassGaussian(0, np.array([1.0, 2.0]), np.diag([0.5, 0.8]), 4)
    rep = match_cells([[g]])[0]
    audit = kl_bound_audit({0: g}, rep)
    assert audit.precondition_ok
    assert audit.violations == 0
    assert audit.entries[0].actual == pytest.approx(0.0, abs=1e-9)


# --- heterogeneity measurement ------------------------------------------------------


def _frame(client_id, mat):
    q, _ = qr_thin(np.asarray(mat, dtype=float))
    return SpectralEnergy(client_id, q)


def test_measure_heterogeneity_end_to_end():
    rng = np.random.default_rng(3)
    # two groups of clients with distinct class-0 posteriors and subspaces
    class_gaussians = {}
    for cid in range(4):
        center = -5.0 if cid < 2 else 5.0
        mean = np.array([center, center]) + 0.01 * cid
        class_gaussians[cid] = [ClassGaussian(0, mean, 0.1 * np.eye(2), 5)]
    base_a = rng.standard_normal((6, 2))
    base_b = rng.standard_normal((6, 2))
    energies = [_frame(cid, (base_a if cid < 2 else base_b)
                       + 1e-3 * rng.standard_normal((6, 2))) for cid in range(4)]
    smap = build_semantic_map(class_gaussians, 2, seed=0)
    stmap = build_structural_map(structural_cluster(energies, 2, seed=0),
                                 {cid: np.ones(2) for cid in range(4)})
    report = measure_heterogeneity(pairwise_chordal(energies), smap, stmap)
    # clustered spreads are tiny, global spreads are huge
    assert report.worst_delta_mu < 0.1
    assert report.global_delta_mu > 10.0
    assert report.worst_eps_u < 0.1
    assert report.global_eps_u > report.worst_eps_u
    assert report.worst_delta_mu == max(s.delta_mu for s in report.semantic)
    assert all(s.size == 2 for s in report.semantic)
    assert all(s.size == 2 for s in report.structural)


def test_error_floor_from_report():
    class_gaussians = {0: [ClassGaussian(0, np.zeros(2), np.eye(2), 1)],
                       1: [ClassGaussian(0, np.ones(2), np.eye(2), 1)]}
    smap = build_semantic_map(class_gaussians, 1, seed=0)
    report = measure_heterogeneity(None, smap, None)
    floor = error_floor(report, order=2, lambda1=0.01, lambda2=0.02)
    assert floor.delta_mu == pytest.approx(report.worst_delta_mu)
    assert floor.total == pytest.approx(floor.semantic_term + floor.reg_term)
    assert floor.structural_term == 0.0


def _pair_max(items, dist):
    return max((dist(a, b) for i, a in enumerate(items) for b in items[i + 1:]), default=0.0)


def _mean_gap(a, b):
    return float(np.linalg.norm(a.mean - b.mean))


def _cov_gap(a, b):
    return float(np.linalg.norm(a.cov - b.cov))


@pytest.mark.parametrize("m", [1, 2, 9, 40])
def test_heterogeneity_and_kl_audit_match_pair_loops(m):
    rng = np.random.default_rng(500 + m)
    d = 3
    class_gaussians = {
        cid: [ClassGaussian(lab, rng.standard_normal(d), random_spd(rng, d, 0.2), 3)
              for lab in (0, 1, 2) if lab == 0 or rng.random() < 0.6]
        for cid in range(m)}
    # class 3 has a single holder
    class_gaussians[m - 1].append(ClassGaussian(3, np.ones(d), np.eye(d), 2))
    energies = [_frame(int(cid), rng.standard_normal((8, 3))) for cid in rng.permutation(m)]

    def clusters(ids):
        # the first id sits alone in cluster 0; the rest spread over 1..3
        return {cid: 0 if cid == ids[0] else int(rng.integers(1, 4)) for cid in ids}

    holders = {lab: {cid: g for cid, gs in class_gaussians.items() for g in gs
                     if g.label == lab} for lab in range(4)}
    sem_assign = {lab: clusters(sorted(holders[lab])) for lab in range(4)}
    cells = {(lab, c): tuple(holders[lab][cid] for cid in sorted(by_client)
                             if by_client[cid] == c)
             for lab, by_client in sem_assign.items() for c in set(by_client.values())}
    reps = {key: match_cells([members])[0] for key, members in cells.items()}
    struct_assign = clusters(list(range(m)))
    report = measure_heterogeneity(pairwise_chordal(energies),
                                   SemanticClusterMap(sem_assign, reps, cells),
                                   StructuralClusterMap(struct_assign, {}))

    assert sorted((s.label, s.cluster) for s in report.semantic) == sorted(cells)
    for stats in report.semantic:
        members = cells[(stats.label, stats.cluster)]
        assert stats.size == len(members)
        assert abs(stats.delta_mu - _pair_max(members, _mean_gap)) <= 1e-12
        assert abs(stats.delta_sigma - _pair_max(members, _cov_gap)) <= 1e-12
        audit = kl_bound_audit(dict(enumerate(members)), reps[(stats.label, stats.cluster)])
        assert abs(audit.delta_mu - _pair_max(members, _mean_gap)) <= 1e-12
        assert abs(audit.delta_sigma - _pair_max(members, _cov_gap)) <= 1e-12
    by_id = {e.client_id: e for e in energies}
    assert [s.cluster for s in report.structural] == sorted(set(struct_assign.values()))
    for stats in report.structural:
        members = [by_id[cid] for cid in sorted(struct_assign)
                   if struct_assign[cid] == stats.cluster]
        assert stats.size == len(members)
        assert abs(stats.eps_u - _pair_max(members, chordal_distance)) <= 1e-12
    assert report.structural[0].size == 1 and report.structural[0].eps_u == 0.0
    assert abs(report.global_eps_u - _pair_max(energies, chordal_distance)) <= 1e-12
    global_mu = max(_pair_max(list(h.values()), _mean_gap) for h in holders.values())
    global_sigma = max(_pair_max(list(h.values()), _cov_gap) for h in holders.values())
    assert abs(report.global_delta_mu - global_mu) <= 1e-12
    assert abs(report.global_delta_sigma - global_sigma) <= 1e-12
