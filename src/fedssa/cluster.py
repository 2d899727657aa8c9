"""Plain Lloyd k-means with k-means++ seeding.

Both server-side clustering steps (semantic class means and structural
subspace embeddings) reduce to Euclidean k-means on a handful of points, so
one deterministic implementation serves both. Ties in seeding, assignment and
empty-cluster repair all break toward the lowest index, which together with
generator-driven seeding makes the outcome a pure function of (points, k,
rng stream).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

MAX_ITER = 50  # Lloyd iterations per restart
RESTARTS = 10  # independent k-means++ seedings per call


def _pairwise_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ikj,ikj->ik", diff, diff)


def _seed_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance weight."""
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(m))
    centers[0] = points[first]
    closest = np.square(points - centers[0]).sum(axis=1)
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0:
            # All remaining points coincide with a chosen center.
            centers[i:] = centers[0]
            break
        probs = np.cumsum(closest / total)
        draw = float(rng.random())
        pick = int(np.searchsorted(probs, draw, side="right"))
        pick = min(pick, m - 1)
        centers[i] = points[pick]
        closest = np.minimum(closest, np.square(points - centers[i]).sum(axis=1))
    return centers


def _lloyd(pts: np.ndarray, k: int, centers: np.ndarray) -> tuple[np.ndarray, float]:
    """Lloyd iterations from given centers; returns (labels, inertia)."""
    m = pts.shape[0]
    labels = np.full(m, -1, dtype=np.int64)
    dists = _pairwise_sq_dist(pts, centers)
    for _ in range(MAX_ITER):
        new_labels = np.argmin(dists, axis=1)
        for c in range(k):
            members = new_labels == c
            if not np.any(members):
                per_point = dists[np.arange(m), new_labels]
                far = int(np.argmax(per_point))
                centers[c] = pts[far]
                new_labels[far] = c
                members = new_labels == c
            centers[c] = pts[members].mean(axis=0)
        dists = _pairwise_sq_dist(pts, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(dists[np.arange(m), labels].sum())
    return labels, inertia


def kmeans(points, k: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster rows of `points` into k groups; returns integer labels.

    k is clamped to the number of points. Runs RESTARTS independent
    k-means++ seedings and keeps the lowest-inertia solution (earliest
    restart wins ties), consuming the generator sequentially so the result
    is still a pure function of (points, k, rng stream). Assignment ties
    and the empty-cluster repair (reseed from the point farthest from its
    center) are deterministic.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ShapeError(f"kmeans expects a 2-D point array, got ndim {pts.ndim}")
    m = pts.shape[0]
    if m == 0:
        raise ContractError("kmeans needs at least one point")
    if k < 1:
        raise ContractError(f"kmeans needs k >= 1, got {k}")
    k = min(k, m)
    best_labels = None
    best_inertia = np.inf
    for _ in range(RESTARTS):
        centers = _seed_centers(pts, k, rng)
        labels, inertia = _lloyd(pts, k, centers)
        if inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels, inertia
    return best_labels
