"""Thin QR contract checks: reconstruction, orthonormality, sign convention
and rank detection; the pairwise distance kernel against a pair loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedssa.errors import NumericError, RankError, ShapeError
from fedssa.linalg import pairwise_distances, qr_thin


def _qr_checks(a, tol=1e-10):
    q, r = qr_thin(a)
    m, n = a.shape
    assert q.shape == (m, n) and r.shape == (n, n)
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(a - q @ r) <= tol * scale
    assert np.linalg.norm(q.T @ q - np.eye(n)) <= tol
    assert np.all(np.triu(r, 1) == np.triu(r, 1))
    assert np.allclose(np.tril(r, -1), 0.0, atol=tol)
    assert np.all(np.diag(r) >= 0.0)
    return q, r


def test_qr_battery_of_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(300):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
        _qr_checks(a)


def test_qr_handles_graded_columns():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 4)) * np.array([1e6, 1.0, 1e-4, 1e2])
    _qr_checks(a)


def test_qr_sign_convention_unique():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 3))
    q1, r1 = qr_thin(a)
    q2, r2 = qr_thin(a.copy())
    assert q1.tobytes() == q2.tobytes()
    assert r1.tobytes() == r2.tobytes()
    assert np.all(np.diag(r1) >= 0.0)


def test_qr_identity_is_fixed_point():
    q, r = qr_thin(np.eye(4))
    assert np.allclose(q, np.eye(4))
    assert np.allclose(r, np.eye(4))


def test_qr_rejects_wide_matrix():
    with pytest.raises(ShapeError):
        qr_thin(np.ones((2, 3)))


def test_qr_rejects_non_matrix_and_nonfinite_input():
    with pytest.raises(ShapeError, match="ndim 1"):
        qr_thin(np.ones(3))
    with pytest.raises(ShapeError, match="ndim 3"):
        qr_thin(np.ones((2, 2, 1)))
    for bad in (np.nan, np.inf):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            qr_thin(a)


def test_qr_rank_deficient_names_column():
    a = np.ones((5, 3))
    a[:, 1] = 2.0 * a[:, 0]
    with pytest.raises(RankError) as err:
        qr_thin(a)
    assert "column 1" in str(err.value)


def test_qr_zero_column_raises():
    a = np.zeros((4, 2))
    a[:, 0] = [1.0, 2.0, 0.0, 1.0]
    with pytest.raises(RankError):
        qr_thin(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10), st.integers(1, 10))
def test_qr_property_random(seed, m, n_raw):
    n = min(n_raw, m)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    _qr_checks(a)


def _row_loop_distances(points) -> np.ndarray:
    """The distance matrix built one row at a time: each row's differences
    to the later rows, reduced by np.linalg.norm(axis=1)."""
    flat = np.asarray(points, dtype=np.float64)
    m = len(flat)
    dist = np.zeros((m, m))
    for i in range(m - 1):
        diff = (flat[i + 1:] - flat[i]).reshape(m - i - 1, -1)
        dist[i, i + 1:] = np.linalg.norm(diff, axis=1)
    return dist + dist.T


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (6, 4), (9, 3, 3), (2, 5), (100, 1),
                                   (100, 2), (100, 8), (100, 64), (100, 576), (2, 576)])
def test_pairwise_distances_matches_pair_loop(shape):
    points = np.random.default_rng(11).standard_normal(shape)
    dist = pairwise_distances(points)
    m = shape[0]
    assert dist.shape == (m, m)
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    assert np.array_equal(dist, _row_loop_distances(points))
    for i in range(m):
        for j in range(m):
            want = np.linalg.norm((points[i] - points[j]).ravel())
            assert abs(dist[i, j] - want) <= 1e-12
