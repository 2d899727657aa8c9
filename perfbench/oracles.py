"""Reference computations the benchmark checks the program against.

Nothing here imports fedssa: each oracle recomputes a quantity from the
program's plain outputs (edge lists, checkpoint weights, uploaded
Gaussians and frames) by a different route than the program takes.
"""

from __future__ import annotations

import numpy as np

COV_FLOOR = 1e-6


def propagate(features: np.ndarray, edges: np.ndarray, order: int) -> list:
    """[X, L X, ..., L^order X] for L = I - D^-1/2 A D^-1/2, from the edge list.

    Scatter-adds over the edge list with `np.add.at`; no matrix is formed.
    An isolated node keeps its own row, as L has a unit diagonal there.
    """
    n = features.shape[0]
    u, v = edges[:, 0], edges[:, 1]
    deg = np.bincount(np.concatenate([u, v]), minlength=n).astype(np.float64)
    inv = np.zeros(n)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    weight = (inv[u] * inv[v])[:, None]
    powers = [features]
    for _ in range(order):
        h = powers[-1]
        ah = np.zeros_like(h)
        np.add.at(ah, u, weight * h[v])
        np.add.at(ah, v, weight * h[u])
        powers.append(h - ah)
    return powers


def predict(params: dict, features: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Class predictions of a checkpointed spectral GNN: tanh head, argmax."""
    w = np.asarray(params["w"], dtype=np.float64)
    head = {k: np.asarray(params["head"][k], dtype=np.float64)
            for k in ("w1", "b1", "w2", "b2")}
    powers = propagate(features, edges, w.size - 1)
    p = sum(wk * hk for wk, hk in zip(w, powers))
    hidden = np.tanh(p @ head["w1"] + head["b1"])
    return np.argmax(hidden @ head["w2"] + head["b2"], axis=1)


def accuracy(params: dict, features, edges, labels, idx) -> float:
    """Fraction of the rows in idx whose prediction matches the label."""
    pred = predict(params, features, edges)
    return float(np.mean(pred[idx] == labels[idx]))


def moment_match(means: list, covs: list, counts: list) -> tuple:
    """Count-weighted single Gaussian with the mixture's first two moments.

    The covariance is eigenvalue-floored at COV_FLOOR with np.linalg.eigh.
    """
    w = np.asarray(counts, dtype=np.float64)
    w = w / w.sum()
    m = np.stack([np.asarray(x, dtype=np.float64) for x in means])
    s = np.stack([np.asarray(x, dtype=np.float64) for x in covs])
    mean = w @ m
    centred = m - mean
    cov = np.einsum("i,ijk->jk", w, s) + np.einsum("i,ij,ik->jk", w, centred, centred)
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    cov = (vecs * np.maximum(vals, COV_FLOOR)) @ vecs.T
    return mean, 0.5 * (cov + cov.T)


def principal_angle_distance(qa: np.ndarray, qb: np.ndarray) -> float:
    """Chordal distance sqrt(sum sin^2 theta_i) from the SVD principal angles."""
    cosines = np.clip(np.linalg.svd(qa.T @ qb, compute_uv=False), 0.0, 1.0)
    return float(np.sqrt(np.sum(1.0 - cosines ** 2)))


def induced_edges(global_edges: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Edges of the subgraph induced on sorted global ids, in local ids, sorted."""
    inside = np.isin(global_edges, nodes).all(axis=1)
    local = np.searchsorted(nodes, global_edges[inside])
    local = np.sort(local, axis=1)
    order = np.lexsort((local[:, 1], local[:, 0]))
    return local[order].reshape(-1, 2)


def partition_problems(scheme: str, num_nodes: int, node_maps: list) -> list:
    """Violations of the partition contract, as messages; empty when it holds.

    nonoverlap: the clients' node sets are disjoint and cover every node.
    overlap: clients come in groups of five, one group per base part; the
    groups' node sets are disjoint, no group holds more nodes than its base
    part, and every client holds half (rounded down) of its base part. Base
    part p has floor(n/P) nodes, plus one for the first n mod P parts.
    """
    problems = []
    sets = [np.asarray(m, dtype=np.int64) for m in node_maps]
    if scheme == "nonoverlap":
        every = np.concatenate(sets)
        if every.size != num_nodes or np.unique(every).size != num_nodes:
            problems.append(f"{len(sets)} clients hold {every.size} node slots,"
                            f" {np.unique(every).size} distinct, of {num_nodes}")
        return problems
    if len(sets) % 5:
        return [f"{len(sets)} clients is not a multiple of five"]
    parts = len(sets) // 5
    base, rem = divmod(num_nodes, parts)
    groups = []
    for p in range(parts):
        part_size = base + (1 if p < rem else 0)
        group = np.unique(np.concatenate(sets[5 * p:5 * p + 5]))
        if group.size > part_size:
            problems.append(f"group {p} spans {group.size} nodes > base part {part_size}")
        for i in range(5 * p, 5 * p + 5):
            if sets[i].size != part_size // 2:
                problems.append(f"client {i} has {sets[i].size} nodes,"
                                f" expected {part_size // 2}")
        groups.append(group)
    every = np.concatenate(groups)
    if np.unique(every).size != every.size:
        problems.append("base parts share nodes")
    return problems
