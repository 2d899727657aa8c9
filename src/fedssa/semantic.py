"""Semantic knowledge sharing: clustering class Gaussians across clients.

In one pass per class label the server gathers each holder's latent
Gaussian, k-means the holders' class means into at most k_node groups, and
collapses every group into one Gaussian: a count-weighted moment match
reduced over the stacked member means and covariances. The cluster map
keeps each group's members, so the heterogeneity diagnostics read the same
grouping. Clients then pull their local class posteriors toward their own
group's representative with a closed-form Gaussian KL: `alignment_inputs`
freezes the received representatives once per round into the arguments of
`tape.diag_gaussian_kl`, the one tape node of that loss.

Holders are gathered by ascending client id, so results are invariant to
message arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def match_cells(cells) -> list:
    """For every cell (one cluster's class Gaussians), the single Gaussian
    matching the first two moments of its count-weighted mixture, all cells
    at once.

    The cells are stacked with zero padding on the member axis. The weighted
    sums are running sums read at each cell's last member, added in member
    order, so the bits equal a member-by-member loop at every latent width;
    numpy's pairwise sum regroups a contiguous axis. One stacked eigh
    floors each symmetrized covariance's eigenvalues at COV_FLOOR, so every
    representative stays safely positive definite.
    """
    cells = [tuple(members) for members in cells]
    for members in cells:
        labels = {m.label for m in members}
        if len(labels) != 1:
            raise ContractError(f"cluster mixes class labels {sorted(labels)}" if labels
                                else "a cluster needs at least one member")
    if not cells:
        return []
    if len({m.dim for members in cells for m in members}) != 1:
        raise ShapeError("cluster members have inconsistent dimensions")
    d = cells[0][0].dim
    sizes = np.array([len(members) for members in cells])
    counts = np.zeros((len(cells), sizes.max()))
    means, covs = np.zeros(counts.shape + (d,)), np.zeros(counts.shape + (d, d))
    for i, members in enumerate(cells):
        counts[i, :sizes[i]] = [m.count for m in members]
        means[i, :sizes[i]] = [m.mean for m in members]
        covs[i, :sizes[i]] = [m.cov for m in members]
    totals = counts.sum(axis=1)
    weights = counts / totals[:, None]
    last = (np.arange(len(cells)), sizes - 1)
    mean = np.cumsum(weights[..., None] * means, axis=1)[last]
    second = weights[..., None, None] * (covs + means[..., :, None] * means[..., None, :])
    cov = np.cumsum(second, axis=1)[last] - mean[:, :, None] * mean[:, None, :]
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    eigvals, eigvecs = np.linalg.eigh(cov)
    floor = np.zeros_like(cov)
    floor[:, np.arange(d), np.arange(d)] = np.maximum(eigvals, COV_FLOOR)
    floored = eigvecs @ floor @ np.swapaxes(eigvecs, 1, 2)
    floored = 0.5 * (floored + np.swapaxes(floored, 1, 2))
    return [ClassGaussian(members[0].label, mu, sigma, int(total))
            for members, mu, sigma, total in zip(cells, mean, floored, totals)]


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
    assignments, members = {}, {}
    for label in sorted(by_class):
        ids, gaussians = zip(*by_class[label])
        clusters = kmeans(np.stack([g.mean for g in gaussians]), min(k_node, len(ids)),
                          stream(seed, "kmeans-sem", label)).tolist()
        assignments[label] = dict(zip(ids, clusters))
        for c in sorted(set(clusters)):
            members[(label, c)] = tuple(g for g, gc in zip(gaussians, clusters) if gc == c)
    representatives = dict(zip(members, match_cells(members.values())))
    return SemanticClusterMap(assignments, representatives, members)


def alignment_inputs(plan: GroupPlan, received) -> tuple | None:
    """The frozen arguments of a group's alignment KL, built once per round.

    received holds, per member of the group, the {label: ClassGaussian}
    representatives of its broadcast (empty before the first). Each
    member's classes in plan.class_labels, which plan.class_bounds splits by
    member, are matched with those labels, and the symmetrised precision and
    covariance log-determinant of every matched representative are computed
    from its values, one stacked factorisation per matrix.
    Returns (rows, means, precisions, logdets, bounds) as diag_gaussian_kl
    takes them after the class moments, or None when no class of any member
    has a representative. A picked representative that is not positive
    definite raises NumericError whose members are the receiving members.
    """
    owners = np.repeat(np.arange(len(received)), np.diff(plan.class_bounds))
    found = [received[m].get(label)
             for m, label in zip(owners.tolist(), plan.class_labels.tolist())]
    rows = np.array([i for i, rep in enumerate(found) if rep is not None], dtype=np.int64)
    if not rows.size:
        return None
    picks, owners = [found[i] for i in rows], owners[rows]
    covs = np.stack([rep.cov for rep in picks])
    signs, logdets = np.linalg.slogdet(covs)
    if np.any(signs <= 0):
        raise NumericError("representative covariance is not positive definite",
                           members=sorted(set(owners[signs <= 0].tolist())))
    precisions = np.linalg.inv(covs)
    return (rows, np.stack([rep.mean for rep in picks]),
            0.5 * (precisions + np.swapaxes(precisions, 1, 2)), logdets,
            np.concatenate([[0], np.cumsum(np.bincount(owners, minlength=len(received)))]))
