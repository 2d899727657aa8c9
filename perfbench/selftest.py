"""Self-tests of the benchmark's oracles against hand-computed answers.

    python3 perfbench/selftest.py

Each test_* function raises AssertionError on a mismatch. The oracles are
what the benchmark trusts to judge the program, so they are checked here
against closed forms rather than against the program.
"""

from __future__ import annotations

import sys
import traceback

import numpy as np

import oracles


def test_propagate_matches_dense_laplacian_on_a_path_with_an_isolated_node():
    # Path 0-1-2 plus isolated node 3; degrees 1, 2, 1, 0.
    edges = np.array([[0, 1], [1, 2]])
    x = np.arange(8, dtype=np.float64).reshape(4, 2)
    s = 1.0 / np.sqrt(2.0)
    lap = np.array([[1.0, -s, 0.0, 0.0],
                    [-s, 1.0, -s, 0.0],
                    [0.0, -s, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0]])
    powers = oracles.propagate(x, edges, 2)
    assert np.allclose(powers[1], lap @ x, rtol=0, atol=1e-14)
    assert np.allclose(powers[2], lap @ lap @ x, rtol=0, atol=1e-13)
    assert np.array_equal(powers[2][3], x[3])


def test_accuracy_on_a_hand_built_graph():
    # With w = (0, 1) the filter is L X. On the single edge 0-1,
    # L X = [x0 - x1, x1 - x0]; the isolated node 2 keeps x2.
    x = np.array([[3.0], [1.0], [-5.0]])
    edges = np.array([[0, 1]])
    # One hidden unit copies its input (tanh(z) keeps the sign); the class-1
    # logit is that unit, the class-0 logit is 0.
    params = {"w": [0.0, 1.0],
              "head": {"w1": [[1.0]], "b1": [[0.0]],
                       "w2": [[0.0, 1.0]], "b2": [[0.0, 0.0]]}}
    # Rows: L X = [2, -2, -5] -> predictions [1, 0, 0].
    assert list(oracles.predict(params, x, edges)) == [1, 0, 0]
    labels = np.array([1, 1, 0])
    assert oracles.accuracy(params, x, edges, labels, np.array([0, 1, 2])) == 2 / 3
    assert oracles.accuracy(params, x, edges, labels, np.array([0, 2])) == 1.0


def test_principal_angle_distance_on_known_subspaces():
    theta = 0.3
    e = np.eye(4)
    qa = e[:, :2]
    qb = np.column_stack([e[:, 0], np.cos(theta) * e[:, 1] + np.sin(theta) * e[:, 2]])
    assert abs(oracles.principal_angle_distance(qa, qb) - np.sin(theta)) < 1e-15
    assert oracles.principal_angle_distance(qa, qa) < 1e-7
    # Orthogonal planes: both angles are pi/2, distance sqrt(2).
    assert abs(oracles.principal_angle_distance(qa, e[:, 2:]) - np.sqrt(2.0)) < 1e-15
    # The distance depends on the subspace, not on the basis.
    rot = np.array([[np.cos(1.1), -np.sin(1.1)], [np.sin(1.1), np.cos(1.1)]])
    assert abs(oracles.principal_angle_distance(qa @ rot, qb)
               - oracles.principal_angle_distance(qa, qb)) < 1e-14


def test_moment_match_of_a_two_member_mixture():
    # Weights 1/4 and 3/4: mean = sum w m; cov = sum w S + w1 w2 (m1 - m2)(m1 - m2)^T.
    m1, m2 = np.array([1.0, 0.0]), np.array([-1.0, 2.0])
    s1, s2 = np.diag([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
    mean, cov = oracles.moment_match([m1, m2], [s1, s2], [10, 30])
    d = m1 - m2
    assert np.allclose(mean, [-0.5, 1.5], rtol=0, atol=1e-15)
    expected = 0.25 * s1 + 0.75 * s2 + 0.1875 * np.outer(d, d)
    assert np.allclose(cov, expected, rtol=0, atol=1e-14)
    # A single member is returned unchanged; eigenvalues below the floor are raised.
    mean, cov = oracles.moment_match([m1], [np.diag([4.0, 1e-9])], [7])
    assert np.array_equal(mean, m1)
    assert np.allclose(cov, np.diag([4.0, oracles.COV_FLOOR]), rtol=0, atol=1e-15)


def test_induced_edges_and_partition_contracts():
    edges = np.array([[0, 1], [1, 5], [2, 5], [3, 4], [0, 5]])
    assert oracles.induced_edges(edges, np.array([0, 1, 5])).tolist() == [[0, 1], [0, 2], [1, 2]]
    assert oracles.induced_edges(edges, np.array([2, 3])).shape == (0, 2)
    assert oracles.partition_problems("nonoverlap", 4, [[0, 2], [1, 3]]) == []
    assert oracles.partition_problems("nonoverlap", 4, [[0, 2], [2, 3]])
    # 20 nodes, 10 clients -> two base parts of 10, clients of 5 nodes each.
    good = [list(range(i, i + 5)) for i in range(5)] + \
           [list(range(10 + i, 15 + i)) for i in range(5)]
    assert oracles.partition_problems("overlap", 20, good) == []
    crossing = [list(good[0]) for _ in range(5)] + [[4, 11, 12, 13, 14]] * 5
    assert oracles.partition_problems("overlap", 20, crossing)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"ok   {name}")
    print(f"selftest: {len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
