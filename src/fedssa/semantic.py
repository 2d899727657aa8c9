"""Semantic knowledge sharing: clustering class Gaussians across clients.

For every class label the server gathers each holder's latent Gaussian,
k-means the holders' class means into at most k_node groups, and collapses
every group into a single moment-matched Gaussian weighted by sample counts.
Clients then pull their local class posteriors toward their own group's
representative with a closed-form Gaussian KL, recorded as one tape node.

All clustering is canonicalized by ascending client id, so results are
invariant to message arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .cluster import kmeans
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .models import COV_FLOOR, ClassGaussian, ClassStats
from .rng import stream


@dataclass(frozen=True)
class GaussianMixture:
    """Count-weighted mixture of class Gaussians from one cluster."""

    weights: np.ndarray
    members: tuple

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if weights.size != len(self.members):
            raise ShapeError("one weight per member is required")
        if weights.size == 0:
            raise ContractError("mixture needs at least one member")
        if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ContractError("weights must be nonnegative and sum to 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "members", tuple(self.members))


@dataclass(frozen=True)
class SemanticClusterMap:
    """Per-class cluster assignments and moment-matched representatives."""

    assignments: dict
    representatives: dict

    def representative_for(self, label: int, client_id: int):
        by_client = self.assignments.get(label)
        if by_client is None or client_id not in by_client:
            return None
        return self.representatives[(label, by_client[client_id])]


def gmm_of_cluster(members: list) -> GaussianMixture:
    """Mixture over one cluster, weighted by labeled-sample counts."""
    members = tuple(members)
    if not members:
        raise ContractError("gmm_of_cluster needs at least one member")
    labels = {m.label for m in members}
    if len(labels) != 1:
        raise ContractError(f"mixture mixes class labels {sorted(labels)}")
    counts = np.array([m.count for m in members], dtype=np.float64)
    total = float(counts.sum())
    if total <= 0:
        raise ContractError("mixture has zero total sample count")
    return GaussianMixture(counts / total, members)


def cluster_moments(mixture: GaussianMixture) -> ClassGaussian:
    """Single Gaussian matching the mixture's first two moments.

    The covariance is symmetrized and eigenvalue-floored at 1e-6 so every
    representative stays safely positive definite.
    """
    members = mixture.members
    dim = members[0].dim
    for m in members:
        if m.dim != dim:
            raise ShapeError("mixture members have inconsistent dimensions")
    mean = np.zeros(dim)
    for wgt, m in zip(mixture.weights, members):
        mean = mean + wgt * m.mean
    cov = np.zeros((dim, dim))
    for wgt, m in zip(mixture.weights, members):
        cov = cov + wgt * (m.cov + np.outer(m.mean, m.mean))
    cov = cov - np.outer(mean, mean)
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    floored = eigvecs @ np.diag(np.maximum(eigvals, COV_FLOOR)) @ eigvecs.T
    floored = 0.5 * (floored + floored.T)
    count = int(sum(m.count for m in members))
    return ClassGaussian(members[0].label, mean, floored, count)


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


def _holders(class_gaussians: dict) -> dict:
    """Regroup {client: gaussians} into {label: [(client, gaussian), ...]}."""
    by_class: dict = {}
    for client_id in sorted(class_gaussians):
        for g in class_gaussians[client_id]:
            by_class.setdefault(g.label, []).append((client_id, g))
    return by_class


def semantic_cluster(class_gaussians: dict, k_node: int, seed: int) -> dict:
    """Per-class k-means over the holders' class means.

    class_gaussians maps client id to that client's ClassGaussian list.
    Returns {label: {client_id: cluster_index}}. The effective number of
    clusters for a class is min(k_node, number of holders).
    """
    if k_node < 1:
        raise ConfigError(f"k_node must be >= 1, got {k_node}")
    assignments: dict = {}
    for label, holders in sorted(_holders(class_gaussians).items()):
        points = np.stack([gaussian.mean for _, gaussian in holders])
        labels = kmeans(points, min(k_node, len(holders)),
                        stream(seed, "kmeans-sem", int(label)))
        assignments[int(label)] = {client_id: int(c)
                                   for (client_id, _), c in zip(holders, labels)}
    return assignments


def build_semantic_map(class_gaussians: dict, k_node: int, seed: int) -> SemanticClusterMap:
    """Cluster every class and moment-match each cluster's representative."""
    assignments = semantic_cluster(class_gaussians, k_node, seed)
    by_class = _holders(class_gaussians)
    representatives = {}
    for label, by_client in assignments.items():
        gaussians = dict(by_class[label])
        for cluster in sorted(set(by_client.values())):
            members = [gaussians[cid] for cid in sorted(by_client)
                       if by_client[cid] == cluster]
            representatives[(label, cluster)] = cluster_moments(gmm_of_cluster(members))
    return SemanticClusterMap(assignments, representatives)


@dataclass(frozen=True)
class KLTargets:
    """Frozen representatives prepared for the alignment KL, by ascending label.

    Each representative's symmetrised precision and covariance
    log-determinant are computed once, when its broadcast is received.
    """

    labels: np.ndarray
    means: np.ndarray
    precisions: np.ndarray
    logdets: np.ndarray


def kl_targets(representatives: dict) -> KLTargets:
    """Precision and log-determinant of each {label: ClassGaussian} representative."""
    labels = sorted(representatives)
    if not labels:
        return KLTargets(np.zeros(0, dtype=np.int64), np.zeros((0, 0)),
                         np.zeros((0, 0, 0)), np.zeros(0))
    covs = np.stack([representatives[c].cov for c in labels])
    signs, logdets = np.linalg.slogdet(covs)
    if np.any(signs <= 0):
        raise NumericError("representative covariance is not positive definite")
    precisions = np.linalg.inv(covs)
    precisions = 0.5 * (precisions + np.swapaxes(precisions, 1, 2))
    means = np.stack([representatives[c].mean for c in labels])
    return KLTargets(np.array(labels, dtype=np.int64), means, precisions, logdets)


def alignment_path(stats: ClassStats, targets: KLTargets) -> tp.Var | None:
    """Tape node summing KL(local diagonal posterior || frozen representative).

    stats comes from class_stat_paths and targets from kl_targets. Classes
    without a representative contribute nothing. Returns None when no class
    matches.
    """
    _common, rows, picked = np.intersect1d(stats.labels, targets.labels,
                                           assume_unique=True, return_indices=True)
    if rows.size == 0:
        return None
    return tp.diag_gaussian_kl(stats.moments, rows, targets.means[picked],
                               targets.precisions[picked], targets.logdets[picked])
