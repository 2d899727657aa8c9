"""Semantic knowledge sharing: clustering class Gaussians across clients.

In one pass per class label the server gathers each holder's latent
Gaussian, k-means the holders' class means into at most k_node groups, and
collapses every group into one Gaussian: a count-weighted moment match
reduced over the stacked member means and covariances. The cluster map
keeps each group's members, so the heterogeneity diagnostics read the same
grouping. Clients then pull their local class posteriors toward their own
group's representative with a closed-form Gaussian KL, recorded as one
tape node.

Holders are gathered by ascending client id, so results are invariant to
message arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .cluster import kmeans
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .models import COV_FLOOR, ClassGaussian, GroupPlan
from .rng import stream


@dataclass(frozen=True)
class SemanticClusterMap:
    """Per-class cluster assignments, moment-matched representatives and
    members: members[(label, cluster)] is the tuple of that cluster's
    ClassGaussians in ascending client id order."""

    assignments: dict
    representatives: dict
    members: dict

    def representative_for(self, label: int, client_id: int):
        by_client = self.assignments.get(label)
        if by_client is None or client_id not in by_client:
            return None
        return self.representatives[(label, by_client[client_id])]


def cluster_moments(members) -> ClassGaussian:
    """Single Gaussian matching the first two moments of the count-weighted
    mixture of one cluster's class Gaussians.

    The weighted sums are running sums over the stacked members, added in
    member order, so the bits equal a member-by-member loop at every latent
    width; numpy's pairwise sum regroups a contiguous axis. The covariance
    is symmetrized and eigenvalue-floored at COV_FLOOR so every
    representative stays safely positive definite.
    """
    members = tuple(members)
    if not members:
        raise ContractError("cluster_moments needs at least one member")
    labels = {m.label for m in members}
    if len(labels) != 1:
        raise ContractError(f"cluster mixes class labels {sorted(labels)}")
    if len({m.dim for m in members}) != 1:
        raise ShapeError("cluster members have inconsistent dimensions")
    counts = np.array([m.count for m in members], dtype=np.float64)
    total = float(counts.sum())
    weights = counts / total
    means = np.stack([m.mean for m in members])
    covs = np.stack([m.cov for m in members])
    mean = np.cumsum(weights[:, None] * means, axis=0)[-1]
    second = weights[:, None, None] * (covs + means[:, :, None] * means[:, None, :])
    cov = np.cumsum(second, axis=0)[-1] - np.outer(mean, mean)
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    floored = eigvecs @ np.diag(np.maximum(eigvals, COV_FLOOR)) @ eigvecs.T
    floored = 0.5 * (floored + floored.T)
    return ClassGaussian(members[0].label, mean, floored, int(total))


def gaussian_kl(p: ClassGaussian, q: ClassGaussian) -> float:
    """KL(N_p || N_q) in closed form.

    0.5 * (tr(Sq^-1 Sp) + (mq-mp)^T Sq^-1 (mq-mp) - d + ln det Sq - ln det Sp)
    """
    if p.dim != q.dim:
        raise ShapeError(f"dimension mismatch: {p.dim} vs {q.dim}")
    d = p.dim
    sign_q, logdet_q = np.linalg.slogdet(q.cov)
    sign_p, logdet_p = np.linalg.slogdet(p.cov)
    if sign_q <= 0 or sign_p <= 0:
        raise NumericError("KL requires positive definite covariances")
    try:
        solved = np.linalg.solve(q.cov, p.cov)
        delta = q.mean - p.mean
        quad = float(delta @ np.linalg.solve(q.cov, delta))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance solve failed: {exc}") from exc
    value = 0.5 * (float(np.trace(solved)) + quad - d + logdet_q - logdet_p)
    if not np.isfinite(value):
        raise NumericError("KL evaluated to a non-finite value")
    return float(value)


def build_semantic_map(class_gaussians: dict, k_node: int, seed: int) -> SemanticClusterMap:
    """Cluster every class and moment-match each cluster's representative.

    class_gaussians maps client id to that client's ClassGaussian list. Each
    class's holders are gathered once, in ascending client id order, and
    k-means groups their class means into min(k_node, holders) clusters.
    """
    if k_node < 1:
        raise ConfigError(f"k_node must be >= 1, got {k_node}")
    by_class: dict = {}
    for client_id in sorted(class_gaussians):
        for g in class_gaussians[client_id]:
            by_class.setdefault(int(g.label), []).append((client_id, g))
    assignments, representatives, members = {}, {}, {}
    for label in sorted(by_class):
        ids, gaussians = zip(*by_class[label])
        clusters = kmeans(np.stack([g.mean for g in gaussians]), min(k_node, len(ids)),
                          stream(seed, "kmeans-sem", label)).tolist()
        assignments[label] = dict(zip(ids, clusters))
        for cluster in sorted(set(clusters)):
            cell = tuple(g for g, c in zip(gaussians, clusters) if c == cluster)
            members[(label, cluster)] = cell
            representatives[(label, cluster)] = cluster_moments(cell)
    return SemanticClusterMap(assignments, representatives, members)


def alignment_inputs(plan: GroupPlan, received) -> tuple | None:
    """The frozen arguments of a group's alignment KL, built once per round.

    received holds, per member of the group, the {label: ClassGaussian}
    representatives of its broadcast (empty before the first). Each
    member's classes in plan.class_labels, which plan.class_bounds splits by
    member, are matched with those labels, and each picked representative's
    symmetrised precision and covariance log-determinant are computed.
    Returns (rows, means, precisions, logdets, bounds) as diag_gaussian_kl
    takes them after the class moments, or None when no class of any member
    has a representative. A picked representative that is not positive
    definite raises NumericError whose members are the receiving members.
    """
    bounds = plan.class_bounds
    rows, picks, owners, sizes = [], [], [], []
    for m, reps in enumerate(received):
        labels = plan.class_labels[bounds[m]:bounds[m + 1]]
        local = np.flatnonzero(np.isin(labels, list(reps)))
        rows.append(local + bounds[m])
        picks += [reps[int(label)] for label in labels[local]]
        owners += [m] * local.size
        sizes.append(local.size)
    if not picks:
        return None
    covs = np.stack([rep.cov for rep in picks])
    signs, logdets = np.linalg.slogdet(covs)
    if np.any(signs <= 0):
        raise NumericError("representative covariance is not positive definite",
                           members=sorted({owners[i] for i in np.flatnonzero(signs <= 0)}))
    precisions = np.linalg.inv(covs)
    return (np.concatenate(rows), np.stack([rep.mean for rep in picks]),
            0.5 * (precisions + np.swapaxes(precisions, 1, 2)), logdets,
            np.concatenate([[0], np.cumsum(sizes)]))


def alignment_path(moments: tp.Var, inputs: tuple) -> tp.Var:
    """Tape node summing KL(local diagonal posterior || frozen representative).

    moments comes from class_stat_paths, with one row per class of the
    group plan, and inputs from alignment_inputs. Classes without a
    representative contribute nothing.
    """
    return tp.diag_gaussian_kl(moments, *inputs)
