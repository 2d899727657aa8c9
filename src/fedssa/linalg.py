"""Dense linear algebra kernels used by the server-side protocol.

Matrices are plain 2-D float64 ndarrays in row-major order. The thin QR
delegates to numpy and then pins down the convention the structural channel
relies on: diag(R) >= 0, which makes the orthonormal frame unique for
full-rank input, and a RankError for numerically dependent columns.
Every pairwise spread the server and its diagnostics report (chordal
distances between frames, distances between class means and covariances)
comes from the one distance-matrix kernel here.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, RankError, ShapeError

PAIR_BLOCK_FLOATS = 1 << 16  # float64s one block of pair differences holds


def qr_thin(s) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with a nonnegative diagonal in R.

    Returns (q, r) with q of shape (m, n), r upper triangular (n, n),
    diag(r) >= 0. Raises RankError naming the first numerically dependent
    column when |r_jj| <= m * eps * max(1, ||s||).
    """
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim {a.ndim}")
    if not np.isfinite(a).all():
        raise NumericError("matrix has non-finite entries")
    a = np.ascontiguousarray(a)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"qr_thin needs rows >= cols, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = r.diagonal()
    tol = m * np.finfo(np.float64).eps * max(1.0, float(np.linalg.norm(a)))
    dependent = np.flatnonzero(np.abs(diag) <= tol)
    if dependent.size:
        raise RankError(f"column {dependent[0]} is numerically dependent on earlier columns")
    signs = np.where(diag < 0, -1.0, 1.0)
    return np.ascontiguousarray(q * signs), np.ascontiguousarray(r * signs[:, None])


def pairwise_distances(points) -> np.ndarray:
    """Euclidean distance matrix between the flattened rows of points.

    Upper-triangle pairs go in blocks of at most PAIR_BLOCK_FLOATS floats (or
    one pair), each pair's squares summed on their own as norm(axis=1) does,
    so the bits do not depend on the block; the mirror is exactly symmetric.
    """
    m = len(points)
    flat = np.asarray(points, dtype=np.float64).reshape(m, -1) if m else np.zeros((0, 0))
    left, right = np.triu_indices(m, 1)
    step = max(1, PAIR_BLOCK_FLOATS // max(1, flat.shape[1]))
    dist = np.zeros((m, m))
    for a in range(0, left.size, step):
        i, j = left[a:a + step], right[a:a + step]
        diff = flat[j]
        diff -= flat[i]
        dist[i, j] = np.sqrt(np.square(diff, out=diff).sum(axis=1))
    return dist + dist.T
