"""Plain Lloyd k-means with k-means++ seeding, all restarts in one pass.

Both server-side clustering steps (semantic class means and structural
subspace embeddings) reduce to Euclidean k-means on a handful of points, so
one deterministic implementation serves both. Ties in seeding, assignment and
empty-cluster repair all break toward the lowest index, which together with
generator-driven seeding makes the outcome a pure function of (points, k,
rng stream).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractError, ShapeError

MAX_ITER = 50  # Lloyd iterations per restart
RESTARTS = 10  # independent k-means++ seedings per call
BLOCK_FLOATS = 1 << 17  # float64s a Lloyd temporary holds beyond one restart's (m, k, p)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(restarts, m, k) squared distances from every point to every center."""
    diff = points[None, :, None, :] - centers[:, None, :, :]
    return np.einsum("rikj,rikj->rik", diff, diff)


def _seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ point indices, (RESTARTS, k), seeded restart by restart; a
    picked point's squared-distance row is computed once per call."""
    m = points.shape[0]
    row = functools.cache(lambda j: np.square(points - points[j]).sum(axis=1))
    picks = np.empty((RESTARTS, k), dtype=np.int64)
    for r in range(RESTARTS):
        picks[r] = first = int(rng.integers(m))
        closest = row(first)
        for i in range(1, k):
            total = float(closest.sum())
            if total <= 0:
                break  # All remaining points coincide with a chosen center.
            probs = (closest / total).cumsum()
            pick = int(probs.searchsorted(float(rng.random()), side="right"))
            picks[r, i] = pick = min(pick, m - 1)
            closest = np.minimum(closest, row(pick))
    return picks


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations for a stack of restarts from their (r, k, p) centers;
    returns ((r, m) labels, r inertias).

    The centers are masked sums over the member axis, which add the rows in
    order as a per-cluster mean does. A restart with an empty cluster, or
    1-D points (numpy sums one contiguous column pairwise), goes again
    cluster by cluster; an empty cluster first takes the point farthest from
    its center. A restart whose labels stop changing leaves the stack.
    """
    (m, p), (r, k) = points.shape, centers.shape[:2]
    labels, inertias, live = np.full((r, m), -1, dtype=np.int64), np.empty(r), np.arange(r)
    dists = _sq_dists(points, centers)
    for it in range(MAX_ITER):
        new = dists.argmin(axis=2)
        member = new[:, None, :] == np.arange(k)[:, None]
        counts = member.sum(axis=2)
        centers[...] = (np.where(member[..., None], points, 0.0).sum(axis=2)
                        / np.maximum(counts, 1)[..., None])
        for i in np.flatnonzero(~counts.all(axis=1) | (p == 1)):
            for c in range(k):
                if not (new[i] == c).any():
                    new[i, int(dists[i, np.arange(m), new[i]].argmax())] = c
                centers[i, c] = points[new[i] == c].mean(axis=0)
        dists = _sq_dists(points, centers)
        stop = (new == labels[live]).all(axis=1) | (it == MAX_ITER - 1)
        labels[live] = new
        if stop.any():
            done = np.flatnonzero(stop)
            inertias[live[done]] = dists[done[:, None], np.arange(m), new[done]].sum(axis=1)
            live, centers, dists = live[~stop], centers[~stop], dists[~stop]
            if not live.size:
                break
    return labels, inertias


def kmeans(points, k: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster rows of `points` into k groups; returns integer labels.

    k is clamped to the number of points. Seeds RESTARTS k-means++ restarts
    first, consuming the generator restart by restart, then runs Lloyd on
    all of them along a leading restart axis, chunked so a temporary holds
    at most BLOCK_FLOATS floats or one restart, and keeps the lowest-inertia
    solution (earliest restart wins ties). Assignment ties and the
    empty-cluster repair are deterministic.
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
    picks = _seed(pts, k, rng)
    step = max(1, BLOCK_FLOATS // max(1, m * k * pts.shape[1]))
    best_labels, best_inertia = None, np.inf
    for start in range(0, RESTARTS, step):
        labels, inertias = _lloyd(pts, pts[picks[start:start + step]])
        for lab, inertia in zip(labels, inertias.tolist()):
            if inertia < best_inertia - 1e-12:
                best_labels, best_inertia = lab, inertia
    return best_labels
