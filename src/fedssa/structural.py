"""Structural knowledge sharing: spectral-energy subspaces and filter bounds.

Each client summarizes its propagation behavior as a spectral-energy matrix
S whose k-th column is the feature-wise mean of L^k X: the k-hop term of its
filter without the coefficient w_k, since a nonzero scale does not change
the span. The orthonormal frame Q of S, computed once per run, spans a
subspace on the Stiefel manifold. Clients are compared (chordal distance)
and grouped (k-means) on the Grassmann projection embedding Q Q^T, whose
Euclidean distance is sqrt(2) times the chordal distance between the
subspaces and which is invariant to the basis chosen for each frame.
Because the frames are fixed, the server groups them once per run; every
later round only averages coefficients within those groups.

Locally, one tape node (`tape.coefficient_penalty`) holds the coefficient
loss: the L1 pull toward the cluster's mean coefficients, when a broadcast
carries them, plus the elastic-net regulariser.

The filter bounds quantify how coefficient perturbations move the filter:
a Lipschitz bound on the polynomial derivative over the Laplacian spectral
range [0, 2], and a Frobenius bound on the propagated-feature change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import kmeans
from .errors import ConfigError, ContractError, ShapeError
from .linalg import pairwise_distances
from .rng import stream


@dataclass(frozen=True)
class SpectralEnergy:
    """Per-client spectral summary: the orthonormal frame Q of S."""

    client_id: int
    q: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.q, dtype=np.float64))
        if q.ndim != 2:
            raise ShapeError(f"Q must be a matrix, got shape {q.shape}")
        gram = q.T @ q
        err = float(np.max(np.abs(gram - np.eye(q.shape[1]))))
        if err > 1e-8:
            raise ContractError(f"Q columns are not orthonormal (deviation {err:.3e})")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class StructuralClusterMap:
    """Cluster assignment over clients plus per-cluster mean coefficients."""

    assignments: dict
    mean_coefficients: dict


def projection_embedding(e: SpectralEnergy) -> np.ndarray:
    """Flattened projection matrix Q Q^T; basis-invariant subspace embedding."""
    p = e.q @ e.q.T
    return p.ravel()


def _sorted_embeddings(energies: list) -> tuple[list, np.ndarray]:
    """Client ids in ascending order and their stacked projection embeddings."""
    ordered = sorted(energies, key=lambda e: e.client_id)
    for e in ordered:
        if e.q.shape != ordered[0].q.shape:
            raise ShapeError(f"client {e.client_id} frame shape {e.q.shape}"
                             f" != {ordered[0].q.shape}")
    points = np.array([projection_embedding(e) for e in ordered])
    return [e.client_id for e in ordered], points


def pairwise_chordal(energies: list) -> tuple[list, np.ndarray]:
    """Full symmetric chordal distance matrix over clients sorted by id.

    Each entry is ||Qa Qa^T - Qb Qb^T||_F / sqrt(2). It equals
    sqrt(K+1 - ||Qa^T Qb||_F^2) without that form's cancellation, which
    costs about sqrt(eps) for nearby subspaces.
    """
    ids, points = _sorted_embeddings(energies)
    return ids, pairwise_distances(points) / np.sqrt(2.0)


def structural_cluster(energies: list, k_struct: int, seed: int) -> dict:
    """Group clients by subspace proximity; returns {client_id: cluster}.

    Clients are canonicalized by ascending id before clustering, so the
    result is invariant to the order energies are supplied in.
    """
    if not energies:
        raise ContractError("structural_cluster needs at least one client")
    if k_struct < 1:
        raise ConfigError(f"k_struct must be >= 1, got {k_struct}")
    ids, points = _sorted_embeddings(energies)
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate client ids in structural_cluster")
    labels = kmeans(points, k_struct, stream(seed, "kmeans-struct"))
    return {cid: int(lab) for cid, lab in zip(ids, labels)}


def build_structural_map(assignments: dict, coefficients: dict) -> StructuralClusterMap:
    """Average the coefficients of each cluster of a fixed assignment.

    Each cluster's mean is taken over its members' stacked coefficient
    vectors, in ascending client id order.
    """
    mean_coeffs = {}
    for cluster in sorted(set(assignments.values())):
        members = [cid for cid in sorted(assignments) if assignments[cid] == cluster]
        mean_coeffs[cluster] = np.mean(np.stack([coefficients[cid] for cid in members]),
                                       axis=0)
    return StructuralClusterMap(assignments, mean_coeffs)


def filter_lipschitz_bound(w) -> float:
    """Upper bound sum_k k*|w_k|*2^(k-1) on |h'(lambda)| over [0, 2]."""
    wv = np.asarray(w, dtype=np.float64).reshape(-1)
    k = np.arange(wv.size, dtype=np.float64)
    powers = np.concatenate([[0.0], 2.0 ** (k[1:] - 1.0)]) if wv.size > 1 else np.zeros(1)
    return float(np.sum(k * np.abs(wv) * powers))


def coeff_perturb_bound(w_a, w_b, powers: list) -> tuple[float, float]:
    """(actual, bound) for the propagated-feature shift under w_a -> w_b.

    actual is ||sum_k (w_a-w_b)_k H^k||_F; bound is sum_k |dw_k| * ||H^k||_F.
    """
    wa = np.asarray(w_a, dtype=np.float64).reshape(-1)
    wb = np.asarray(w_b, dtype=np.float64).reshape(-1)
    if wa.size != wb.size or wa.size != len(powers):
        raise ShapeError(f"need matching coefficients and {len(powers)} powers,"
                         f" got {wa.size} and {wb.size}")
    delta = wa - wb
    shift = np.zeros_like(powers[0])
    bound = 0.0
    for k, h in enumerate(powers):
        shift = shift + delta[k] * h
        bound += abs(float(delta[k])) * float(np.linalg.norm(h))
    actual = float(np.linalg.norm(shift))
    return actual, bound
