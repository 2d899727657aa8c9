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
from .models import COV_FLOOR, ClassGaussian, GroupPlan
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


def client_kl_targets(received: dict) -> dict:
    """KLTargets per client from {client_id: {label: ClassGaussian}}.

    Clients of one semantic cluster receive the same representative
    objects, so each distinct object is inverted and its log-determinant
    taken once. A representative that is not positive definite raises
    NumericError whose members are the ids of the clients receiving it.
    """
    distinct = {id(rep): rep for reps in received.values() for rep in reps.values()}
    slot = {key: i for i, key in enumerate(distinct)}
    if distinct:
        covs = np.stack([rep.cov for rep in distinct.values()])
        signs, logdets = np.linalg.slogdet(covs)
        if np.any(signs <= 0):
            bad = {key for key, i in slot.items() if signs[i] <= 0}
            raise NumericError("representative covariance is not positive definite",
                               members=sorted(cid for cid, reps in received.items()
                                              if any(id(r) in bad for r in reps.values())))
        precisions = np.linalg.inv(covs)
        precisions = 0.5 * (precisions + np.swapaxes(precisions, 1, 2))
    out = {}
    for cid, reps in received.items():
        labels = sorted(reps)
        if not labels:
            out[cid] = KLTargets(np.zeros(0, dtype=np.int64), np.zeros((0, 0)),
                                 np.zeros((0, 0, 0)), np.zeros(0))
            continue
        picked = [slot[id(reps[c])] for c in labels]
        out[cid] = KLTargets(np.array(labels, dtype=np.int64),
                             np.stack([reps[c].mean for c in labels]),
                             precisions[picked], logdets[picked])
    return out


def alignment_inputs(plan: GroupPlan, targets) -> tuple | None:
    """The frozen arguments of a group's alignment KL, built once per round.

    targets holds one KLTargets from client_kl_targets, or None, per member
    of the group. Each member's classes in plan.class_labels, which
    plan.class_bounds splits by member, are matched with its target labels.
    Returns (rows, means, precisions, logdets, bounds) as diag_gaussian_kl
    takes them after the class moments, or None when no class of any
    member has a representative.
    """
    bounds = plan.class_bounds
    rows, picks, sizes = [], [], []
    for m, member in enumerate(targets):
        a = bounds[m]
        local = np.zeros(0, dtype=np.int64)
        if member is not None:
            _common, local, picked = np.intersect1d(
                plan.class_labels[a:bounds[m + 1]], member.labels, assume_unique=True,
                return_indices=True)
            if local.size:
                picks.append((member, picked))
        rows.append(local + a)
        sizes.append(local.size)
    if sum(sizes) == 0:
        return None
    return (np.concatenate(rows),
            np.concatenate([t.means[p] for t, p in picks]),
            np.concatenate([t.precisions[p] for t, p in picks]),
            np.concatenate([t.logdets[p] for t, p in picks]),
            np.concatenate([[0], np.cumsum(sizes)]))


def alignment_path(moments: tp.Var, inputs: tuple) -> tp.Var:
    """Tape node summing KL(local diagonal posterior || frozen representative).

    moments comes from class_stat_paths, with one row per class of the
    group plan, and inputs from alignment_inputs. Classes without a
    representative contribute nothing.
    """
    return tp.diag_gaussian_kl(moments, *inputs)
