"""Acceptance battery: one test per shipped guarantee, at stated tolerance.

Each test line in verbose output is the pass/fail record for one guarantee.
Verification routes are independent of the library code under test: central
finite differences for gradients, SVD principal angles for subspace
distances, Monte Carlo for moments and KL, dense grids for filter bounds,
and explicit iteration for the contraction recursion.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import fedssa
import fedssa.tape as tp
from fedssa.cli import main
from fedssa.config import two_regime_federation
from fedssa.federation import RunConfig, run_federation_detailed
from fedssa.graphs import (SynthSpec, laplacian_powers, partition_nonoverlap,
                           partition_overlap, synth_dataset)
from fedssa.linalg import qr_thin
from fedssa.models import (ClassGaussian, ce_path, elbo_path, encoder_input,
                           encoder_path, group_plan, logits_path, sample_nonedges,
                           stack_powers)
from fedssa.semantic import alignment_inputs, gaussian_kl, match_cells
from fedssa.structural import (SpectralEnergy, coeff_perturb_bound,
                               filter_lipschitz_bound, pairwise_chordal,
                               projection_embedding)
from fedssa.theory import contraction_simulate, kl_bound_audit, rounds_to_reach
from helpers import (central_diff, grid_filter_sup, random_spd, rel_err,
                     residual_chordal)

GRAD_TOL = 1e-4
EXACT_TOL = 1e-9


def _rand_graph(seed, n=16, c=3, d=4):
    return synth_dataset(SynthSpec(num_nodes=n, num_classes=c, feature_dim=d,
                                   p_intra=0.35, p_inter=0.10), seed)


def _grad_vs_fd(build, arrays):
    """Worst relative error between tape gradients and central differences."""
    tape = tp.Tape()
    leaves = {k: tape.leaf(v, k) for k, v in arrays.items()}
    loss = build(leaves)
    got = tp.grad(tape, loss)

    def value(vals):
        t = tp.Tape()
        lv = {k: t.leaf(v, k) for k, v in vals.items()}
        return build(lv).value.item()

    want = central_diff(value, arrays)
    return max(rel_err(got[leaves[k]], want[k]) for k in arrays)


def test_a01_loss_gradients_match_central_differences():
    t0 = time.monotonic()
    worst = 0.0
    # 20 graphs of 16 nodes hold one train row per class, where the class
    # spread of the alignment KL is 0 with zero derivative; 10 graphs of 24
    # nodes hold at least two, so its gradient is checked too.
    for i in range(30):
        rng = np.random.default_rng(1000 + i)
        g = _rand_graph(1000 + i, n=16 if i < 20 else 24)
        n, d, c, h, dz = g.n, g.feature_dim, 3, 5, 3
        if i >= 20:
            assert np.bincount(g.labels[g.train_idx], minlength=c).min() >= 2
        # the builders read a one-member group: leaves and inputs gain a
        # leading member axis of 1
        plan = group_plan([g])
        h_stack = stack_powers(laplacian_powers(g, 3))[None]

        # cross-entropy through the filter and head
        arrays = {"w": rng.standard_normal((1, 4)),
                  "head_w1": rng.standard_normal((d, h)) * 0.5,
                  "head_b1": rng.standard_normal((1, h)) * 0.1,
                  "head_w2": rng.standard_normal((h, c)) * 0.5,
                  "head_b2": rng.standard_normal((1, c)) * 0.1}
        worst = max(worst, _grad_vs_fd(
            lambda lv: ce_path(logits_path(lv, h_stack, n, d)[1], plan),
            {k: v[None] for k, v in arrays.items()}))

        # negative ELBO through the conditional encoder
        x_in = encoder_input(h_stack, plan, c)
        eps = rng.standard_normal((n, dz))
        nonedges = [sample_nonedges(plan, 0, plan.nonedge_counts[0], rng)]
        enc = {"enc_w1": rng.standard_normal((d + c, h)) * 0.4,
               "enc_b1": rng.standard_normal((1, h)) * 0.1,
               "mu_w": rng.standard_normal((h, dz)) * 0.4,
               "mu_b": rng.standard_normal((1, dz)) * 0.1,
               "logvar_w": rng.standard_normal((h, dz)) * 0.2,
               "logvar_b": rng.standard_normal((1, dz)) * 0.1}

        def vgae_loss(lv):
            mu, logvar = encoder_path(lv, x_in)
            return elbo_path(mu, logvar, plan, eps, nonedges)

        worst = max(worst, _grad_vs_fd(vgae_loss, {k: v[None].copy() for k, v in enc.items()}))

        # class-statistic alignment KL through the posterior mean/variance
        aligned = alignment_inputs(plan, [{
            label: ClassGaussian(label, rng.standard_normal(dz), random_spd(rng, dz), 5)
            for label in range(c)}])
        assert aligned is not None

        def node_loss(lv):
            mu, logvar = encoder_path(lv, x_in)
            return tp.diag_gaussian_kl(tp.segment_moments(mu, logvar, plan.classes),
                                       *aligned)

        worst = max(worst, _grad_vs_fd(node_loss, {k: v[None].copy() for k, v in enc.items()}))

        # L1 pull toward broadcast coefficients plus the elastic-net
        # regularizer, coefficients kept away from both kinks (w_bar and 0)
        w = np.sign(rng.standard_normal((1, 4))) * (0.2 + np.abs(rng.standard_normal((1, 4))))
        w_bar = (w + np.sign(rng.standard_normal((1, 4)))
                 * (0.2 + np.abs(rng.standard_normal((1, 4))))).ravel()
        lam1, lam2 = rng.uniform(0.1, 2.0, size=2)
        for target in (w_bar, None):
            worst = max(worst, _grad_vs_fd(
                lambda lv: tp.coefficient_penalty(lv["w"], target, lam1, lam2),
                {"w": w[None].copy()}))
    elapsed = time.monotonic() - t0
    assert worst <= GRAD_TOL, f"worst gradient relative error {worst:.3e}"
    assert elapsed < 30.0, f"gradient battery took {elapsed:.1f}s"


def test_a02_chordal_distance_matches_principal_angles():
    t0 = time.monotonic()
    worst_dist = 0.0
    worst_iso = 0.0
    for i in range(1000):
        rng = np.random.default_rng(2000 + i)
        d = int(rng.integers(6, 17))
        k = int(rng.integers(1, min(6, d)))
        qa, _ = qr_thin(rng.standard_normal((d, k)))
        qb, _ = qr_thin(rng.standard_normal((d, k)))
        ea = SpectralEnergy(0, qa)
        eb = SpectralEnergy(1, qb)
        dist = pairwise_chordal([ea, eb])[1][0, 1]
        worst_dist = max(worst_dist, abs(dist - residual_chordal(qa, qb)))
        gap = np.linalg.norm(projection_embedding(ea) - projection_embedding(eb))
        worst_iso = max(worst_iso, abs(gap - np.sqrt(2.0) * dist))
    elapsed = time.monotonic() - t0
    assert worst_dist <= EXACT_TOL, f"worst oracle gap {worst_dist:.3e}"
    assert worst_iso <= EXACT_TOL, f"worst isometry gap {worst_iso:.3e}"
    assert elapsed < 10.0, f"chordal battery took {elapsed:.1f}s"


def _sample_mixture(members, count, rng):
    """count draws from the mixture of members, weighted by their counts."""
    weights = np.array([m.count for m in members], dtype=np.float64)
    comp = rng.choice(len(members), size=count, p=weights / weights.sum())
    d = members[0].dim
    out = np.empty((count, d))
    for idx, member in enumerate(members):
        mask = comp == idx
        z = rng.standard_normal((int(mask.sum()), d))
        out[mask] = member.mean + z @ np.linalg.cholesky(member.cov).T
    return out


def test_a03_moment_matching_agrees_with_mixture_sampling():
    t0 = time.monotonic()
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        d = int(rng.integers(2, 5))
        members = [ClassGaussian(1, 2.0 * rng.standard_normal(d),
                                 random_spd(rng, d), int(rng.integers(1, 50)))
                   for _ in range(int(rng.integers(2, 6)))]
        rep = match_cells([members])[0]
        draws = _sample_mixture(members, 100_000, rng)
        mean_err = (np.linalg.norm(draws.mean(axis=0) - rep.mean)
                    / max(1.0, np.linalg.norm(rep.mean)))
        emp_cov = np.cov(draws, rowvar=False, ddof=0)
        cov_err = np.linalg.norm(emp_cov - rep.cov) / np.linalg.norm(rep.cov)
        assert mean_err <= 0.05, f"mixture {i}: mean off by {mean_err:.3%}"
        assert cov_err <= 0.05, f"mixture {i}: cov off by {cov_err:.3%}"
    for i in range(10):
        rng = np.random.default_rng(3500 + i)
        d = int(rng.integers(2, 5))
        g = ClassGaussian(0, rng.standard_normal(d), random_spd(rng, d),
                          int(rng.integers(1, 30)))
        rep = match_cells([[g]])[0]
        assert np.allclose(rep.mean, g.mean, rtol=0.0, atol=1e-12)
        assert np.allclose(rep.cov, g.cov, rtol=0.0, atol=1e-9)
        assert rep.count == g.count
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"moment battery took {elapsed:.1f}s"


def _mc_kl_with_se(p, q, count, rng):
    """Monte Carlo KL(p || q) and its standard error from count draws of p."""
    d = p.dim
    lp = np.linalg.cholesky(p.cov)
    x = p.mean[None, :] + rng.standard_normal((count, d)) @ lp.T

    def logpdf(pts, g):
        diff = pts - g.mean[None, :]
        sol = np.linalg.solve(g.cov, diff.T).T
        quad = np.sum(diff * sol, axis=1)
        _, logdet = np.linalg.slogdet(g.cov)
        return -0.5 * (quad + logdet + d * np.log(2.0 * np.pi))

    ratio = logpdf(x, p) - logpdf(x, q)
    return float(ratio.mean()), float(ratio.std(ddof=1) / np.sqrt(count))


def test_a04_gaussian_kl_matches_monte_carlo_and_is_nonnegative():
    t0 = time.monotonic()
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        d = int(rng.integers(2, 9))
        p = ClassGaussian(0, rng.standard_normal(d), random_spd(rng, d), 1)
        q = ClassGaussian(0, rng.standard_normal(d), random_spd(rng, d), 1)
        closed = gaussian_kl(p, q)
        est, se = _mc_kl_with_se(p, q, 1_000_000, rng)
        assert abs(closed - est) <= 3.0 * se, \
            f"pair {i}: closed {closed:.6f} vs MC {est:.6f} (se {se:.2e})"
    for i in range(10_000):
        rng = np.random.default_rng(45_000 + i)
        d = int(rng.integers(2, 5))
        p = ClassGaussian(0, rng.standard_normal(d), random_spd(rng, d), 1)
        q = ClassGaussian(0, rng.standard_normal(d), random_spd(rng, d), 1)
        assert gaussian_kl(p, q) >= -1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"KL battery took {elapsed:.1f}s"


def _planted_cluster(rng, d, n_members, mu_spread=0.05, cov_spread=0.01):
    """Members tight enough to satisfy the audit's stated precondition."""
    base_mean = rng.standard_normal(d)
    base_cov = random_spd(rng, d) + 0.5 * np.eye(d)
    members = {}
    for cid in range(n_members):
        mean = base_mean + mu_spread * rng.standard_normal(d)
        pert = cov_spread * rng.standard_normal((d, d))
        members[cid] = ClassGaussian(0, mean, base_cov + 0.5 * (pert + pert.T),
                                     int(rng.integers(1, 20)))
    rep = match_cells([[members[c] for c in sorted(members)]])[0]
    return members, rep


def test_a05_kl_bound_audit_has_zero_violations_on_tight_clusters():
    violations = 0
    for i in range(500):
        rng = np.random.default_rng(5000 + i)
        members, rep = _planted_cluster(rng, d=2 + i % 3, n_members=3 + i % 4)
        audit = kl_bound_audit(members, rep)
        assert audit.precondition_ok, f"cluster {i} missed the precondition"
        violations += audit.violations
        for entry in audit.entries:
            assert entry.within, \
                f"cluster {i} member {entry.client_id}: " \
                f"KL {entry.actual:.6f} above bound {entry.bound:.6f}"
    assert violations == 0


def test_a06_filter_bounds_dominate_grid_and_perturbation():
    for i in range(100):
        rng = np.random.default_rng(6000 + i)
        w = rng.normal(0.0, 2.0, size=2 + i % 6)
        assert grid_filter_sup(w) <= filter_lipschitz_bound(w) + 1e-12
    for i in range(100):
        rng = np.random.default_rng(6500 + i)
        g = _rand_graph(6500 + i, n=int(rng.integers(20, 41)))
        order = int(rng.integers(2, 5))
        powers = laplacian_powers(g, order)
        w_a = rng.standard_normal(order + 1)
        w_b = rng.standard_normal(order + 1)
        actual, bound = coeff_perturb_bound(w_a, w_b, powers)
        assert actual <= bound + 1e-12, \
            f"instance {i}: shift {actual:.6f} above bound {bound:.6f}"


def test_a07_contraction_bounds_schedule_and_gradient_descent():
    # recursion never exceeds its closed form, including at the fixed point
    for l_f, lam_f, floor in ((4.0, 1.0, 0.05), (2.0, 2.0, 0.0), (10.0, 0.5, 1.0)):
        res = contraction_simulate(l_f, lam_f, 10.0, floor, 300)
        for d, b in zip(res.distances, res.bounds):
            assert d <= b + 1e-12
    # the round budget delivers every requested accuracy
    for xi in (1e-1, 1e-3, 1e-6):
        t = rounds_to_reach(4.0, 1.0, 10.0, xi)
        rho = 1.0 - 1.0 / 5.0
        assert rho ** t * 10.0 <= xi
    # gradient descent on a quadratic with matching curvature, no noise
    rng = np.random.default_rng(7000)
    basis, _ = qr_thin(rng.standard_normal((6, 6)))
    eigs = np.array([1.0, 1.6, 2.2, 2.8, 3.4, 4.0])
    hess = basis @ np.diag(eigs) @ basis.T
    x = rng.standard_normal(6)
    x *= 10.0 / np.linalg.norm(x)
    sim = contraction_simulate(4.0, 1.0, 10.0, 0.0, 150)
    step = 1.0 / (4.0 + 1.0)
    for t in range(1, 151):
        x = x - step * (hess @ x)
        assert np.linalg.norm(x) <= sim.bounds[t] + 1e-12, f"round {t}"


def test_a08_partition_contracts_hold_on_random_graphs():
    for i in range(100):
        rng = np.random.default_rng(8000 + i)
        g = synth_dataset(SynthSpec(num_nodes=30 + (i % 7) * 10,
                                    num_classes=2 + i % 3,
                                    feature_dim=3 + i % 4,
                                    p_intra=float(rng.uniform(0.1, 0.3)),
                                    p_inter=float(rng.uniform(0.01, 0.1))),
                          8000 + i)
        # disjoint cover: sorted concatenation of shard maps is exactly 0..n-1
        ds = partition_nonoverlap(g, 2 + i % 7, seed=i)
        covered = np.sort(np.concatenate(ds.node_maps))
        assert np.array_equal(covered, np.arange(g.n))
        # overlap: 5 per base part, equal half-part sizes, parts stay disjoint
        m_req = 5 + i % 10
        ds_ov = partition_overlap(g, m_req, seed=i)
        num_parts = m_req // 5
        assert ds_ov.num_clients == 5 * num_parts
        half_sizes = []
        unions = []
        for p in range(num_parts):
            group = ds_ov.node_maps[5 * p:5 * (p + 1)]
            sizes = {nm.size for nm in group}
            assert len(sizes) == 1, f"graph {i}: unequal sizes in part {p}"
            half_sizes.append(sizes.pop())
            unions.append(set(map(int, np.concatenate(group))))
        for a in range(num_parts):
            for b in range(a + 1, num_parts):
                assert not unions[a] & unions[b]
        # each part contributes 2*half or 2*half+1 nodes of the full graph
        remainder = g.n - 2 * sum(half_sizes)
        assert 0 <= remainder <= num_parts


ORDERING_DATASET = {
    "kind": "two-regime", "clients_per_regime": 5, "nodes_per_client": 150,
    "classes": 4, "features": 24, "p_intra_a": 0.10, "p_inter_a": 0.01,
    "p_intra_b": 0.01, "p_inter_b": 0.10, "mean_scale": 1.0, "noise": 1.0,
    "task": "multiclass",
}


def _ordering_cell(seed, method, semantic=True, structural=True):
    dataset = two_regime_federation(ORDERING_DATASET, seed)
    cfg = RunConfig(method=method, rounds=50, epochs=2, order=3, k_node=2,
                    k_struct=2, lambda1=1e-3, lambda2=1e-3, lr=0.15,
                    latent_dim=8, hidden=16, semantic=semantic,
                    structural=structural)
    return run_federation_detailed(dataset, cfg, seed).history


@pytest.mark.slow
def test_a09_two_regime_federation_orderings_and_clustered_heterogeneity():
    ordering_ok = []
    strict_ok = []
    table = []
    for seed in range(10):
        history = _ordering_cell(seed, "fedssa")
        full = history[-1].mean_test_metric
        no_sem = _ordering_cell(seed, "fedssa", semantic=False)[-1].mean_test_metric
        no_struct = _ordering_cell(seed, "fedssa", structural=False)[-1].mean_test_metric
        neither = _ordering_cell(seed, "fedssa", semantic=False,
                                 structural=False)[-1].mean_test_metric
        local = _ordering_cell(seed, "local")[-1].mean_test_metric
        fedavg = _ordering_cell(seed, "fedavg")[-1].mean_test_metric
        ordering_ok.append(full >= max(fedavg, local)
                           and full >= no_sem >= neither
                           and full >= no_struct >= neither)
        # heterogeneity is compared at round one, before sharing homogenizes
        # the latents and coefficients across the federation
        het = history[0].heterogeneity
        strict_ok.append(het.worst_eps_u < het.global_eps_u
                         and het.worst_delta_mu < het.global_delta_mu)
        table.append(f"seed {seed}: full={full:.4f} no_sem={no_sem:.4f} "
                     f"no_struct={no_struct:.4f} neither={neither:.4f} "
                     f"local={local:.4f} fedavg={fedavg:.4f} "
                     f"order={ordering_ok[-1]} strict={strict_ok[-1]}")
    summary = "\n".join(table)
    assert sum(ordering_ok) >= 8, f"orderings held in {sum(ordering_ok)}/10:\n{summary}"
    assert all(strict_ok), f"clustered heterogeneity not strictly smaller:\n{summary}"


DETERMINISM_CONFIG = {
    "dataset": {"kind": "two-regime", "clients_per_regime": 2,
                "nodes_per_client": 20, "classes": 2, "features": 6,
                "p_intra_a": 0.4, "p_inter_a": 0.1,
                "p_intra_b": 0.1, "p_inter_b": 0.4},
    "method": "fedssa",
    "hyperparams": {"T": 3, "E": 1, "K": 3, "k_node": 2, "k_struct": 2,
                    "d_z": 4, "h": 8, "lr": 0.05},
    "seed": 21,
}


A10_ARTIFACTS = ("metrics.csv", "diagnostics_semantic.csv", "diagnostics_structural.csv",
                 "diagnostics_floor.csv", "checkpoint.json", "summary.json")


def test_a10_repeated_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(DETERMINISM_CONFIG))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    for name in A10_ARTIFACTS:
        left = (out_a / name).read_bytes()
        right = (out_b / name).read_bytes()
        assert left == right, f"{name} differs between identical runs"
        assert left, f"{name} is empty"


# A large-graph-shaped run: one SBM split into four 1,200-node clients, two
# rounds, so the matrix products are far larger than in a10's config.
LARGE_GRAPH_CONFIG = {
    "dataset": {"kind": "synthetic", "nodes": 4800, "classes": 4, "features": 24,
                "p_intra": 0.006, "p_inter": 0.0012, "mean_scale": 1.0, "noise": 1.0},
    "partition": {"scheme": "nonoverlap", "clients": 4},
    "method": "fedssa",
    "hyperparams": {"T": 2, "E": 2, "K": 3, "k_node": 2, "k_struct": 2,
                    "lambda1": 1.0e-3, "lambda2": 1.0e-3, "lr": 0.15, "d_z": 8, "h": 16},
    "seed": 0,
}


@pytest.mark.parametrize("config", [DETERMINISM_CONFIG, LARGE_GRAPH_CONFIG],
                         ids=["a10-config", "large-graph"])
def test_a10_artifacts_do_not_depend_on_blas_thread_count(tmp_path, config):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(config))
    # the children import the package this suite imported, installed or not
    src = str(Path(fedssa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "fedssa.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / threads)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
    for name in A10_ARTIFACTS:
        one = (tmp_path / "1" / name).read_bytes()
        assert one == (tmp_path / "2" / name).read_bytes(), \
            f"{name} differs between 1 and 2 BLAS threads"
