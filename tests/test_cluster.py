"""K-means checks: planted-structure recovery, determinism, empty-cluster
repair, contract errors, and the batched restarts against the per-restart
reference."""

import tracemalloc

import numpy as np
import pytest
from helpers import reference_kmeans

from fedssa.cluster import kmeans
from fedssa.errors import ContractError
from fedssa.rng import stream


def _centers_of(pts, labels):
    return {c: pts[labels == c].mean(axis=0) for c in np.unique(labels)}


def test_planted_two_groups_recovered_over_seeds():
    for seed in range(20):
        rng = stream(seed, "test-kmeans")
        a = rng.normal(loc=-5.0, scale=0.3, size=(12, 2))
        b = rng.normal(loc=5.0, scale=0.3, size=(8, 2))
        pts = np.vstack([a, b])
        labels = kmeans(pts, 2, stream(seed, "test-kmeans-run"))
        assert len(set(labels[:12].tolist())) == 1
        assert len(set(labels[12:].tolist())) == 1
        assert labels[0] != labels[12]
        got = sorted(float(c[0]) for c in _centers_of(pts, labels).values())
        assert got[0] == pytest.approx(-5.0, abs=0.5)
        assert got[1] == pytest.approx(5.0, abs=0.5)


def test_kmeans_deterministic_given_stream():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((30, 3))
    l1 = kmeans(pts, 4, stream(7, "km"))
    l2 = kmeans(pts, 4, stream(7, "km"))
    assert np.array_equal(l1, l2)


def test_kmeans_k_clamped_to_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    labels = kmeans(pts, 5, stream(0, "km"))
    assert sorted(labels.tolist()) == [0, 1]


def test_kmeans_k_one():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((10, 2))
    labels = kmeans(pts, 1, stream(0, "km"))
    assert np.all(labels == 0)


def test_kmeans_coincident_points():
    pts = np.ones((6, 2))
    labels = kmeans(pts, 3, stream(0, "km"))
    assert labels.shape == (6,)
    assert np.all(labels >= 0)


def test_kmeans_every_cluster_nonempty():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((9, 2))
    for k in (2, 3, 4):
        labels = kmeans(pts, k, stream(k, "km"))
        assert set(labels.tolist()) == set(range(k))


def test_kmeans_contract_errors():
    with pytest.raises(ContractError):
        kmeans(np.zeros((0, 2)), 2, stream(0, "km"))
    with pytest.raises(ContractError):
        kmeans(np.zeros((3, 2)), 0, stream(0, "km"))


def test_kmeans_improves_or_matches_random_assignment():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 2))
    labels = kmeans(pts, 3, stream(1, "km"))
    centers = np.vstack([pts[labels == j].mean(axis=0) for j in range(3)])
    inertia = np.sum((pts - centers[labels]) ** 2)
    rand_labels = rng.integers(0, 3, size=40)
    while len(set(rand_labels.tolist())) < 3:
        rand_labels = rng.integers(0, 3, size=40)
    rand_centers = np.vstack([pts[rand_labels == j].mean(axis=0) for j in range(3)])
    rand_inertia = np.sum((pts - rand_centers[rand_labels]) ** 2)
    assert inertia <= rand_inertia + 1e-9


def _battery_case(i: int) -> tuple:
    """Case i of the seeded battery: (points, k)."""
    rng = np.random.default_rng(i)
    kind = 2 if i % 12 == 7 else i % 6  # half the duplicate slots: coincident ones cycle
    m = int(rng.integers(1, 16))
    p = int(rng.choice([1, 2, 3, 5, 8]))
    k = int(rng.integers(1, 6))
    if i % 500 == 0:
        return rng.standard_normal((100, 576)), 2
    if kind == 0:  # integer grid: assignment and seeding ties
        return rng.integers(0, 3, (m, p)).astype(float), k
    if kind == 1:  # duplicated points: coincident seeds and empty clusters
        base = rng.standard_normal((int(rng.integers(1, 4)), p))
        return base[rng.integers(0, len(base), min(m, 6))], min(k, 3)
    if kind == 2:  # near-coincident groups
        base = 5.0 * rng.standard_normal((int(rng.integers(1, 5)), p))
        return base[rng.integers(0, len(base), m)] + 1e-9 * rng.standard_normal((m, p)), k
    if kind == 3:
        return rng.standard_normal((m, p)), 1
    if kind == 4:  # k > m: clamped to m
        m = min(m, 6)
        return rng.standard_normal((m, p)), m + int(rng.integers(1, 4))
    return rng.standard_normal((m, p)) * 10.0 ** int(rng.integers(-3, 4)), k


def test_kmeans_matches_per_restart_reference():
    """The batched restarts give the reference's labels, bit for bit, on a
    battery that takes the empty-cluster repair, ties and wide points."""
    repairs = []
    for i in range(3000):
        points, k = _battery_case(i)
        want = reference_kmeans(points, k, stream(i, "battery"), repairs=repairs)
        got = kmeans(points, k, stream(i, "battery"))
        assert np.array_equal(got, want), f"case {i}: {points.shape}, k={k}"
    assert len(repairs) > 100


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_peak_memory_within_reference():
    """100 x 576 points, k = 2: one restart's (m, k, p) block already fills
    the budget, so the batched call peaks where the reference does. The
    4 KiB margin covers the Python objects tracemalloc also counts; an
    unchunked stack of ten restarts would add about 8 MB."""
    points = np.random.default_rng(3).standard_normal((100, 576))
    _peak_bytes(kmeans, points, 2, stream(0, "peak"))
    _peak_bytes(reference_kmeans, points, 2, stream(0, "peak"))
    ours = min(_peak_bytes(kmeans, points, 2, stream(0, "peak")) for _ in range(2))
    ref = min(_peak_bytes(reference_kmeans, points, 2, stream(0, "peak")) for _ in range(2))
    assert ours <= ref + 4096
