"""Evaluation metric checks: accuracy tie-breaking and AUC against hand
values and a pair-counting oracle, plus undefined-metric errors."""

import numpy as np
import pytest

from fedssa.errors import ContractError, UndefinedMetricError
from fedssa.metrics import _average_ranks, accuracy, auc

from helpers import loop_average_ranks


def test_accuracy_hand_value():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1, 1, 1])
    assert accuracy(logits, labels, np.arange(4)) == pytest.approx(0.75)


def test_accuracy_respects_mask():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
    labels = np.array([0, 0, 0])
    assert accuracy(logits, labels, np.array([0])) == 1.0
    assert accuracy(logits, labels, np.array([1])) == 0.0


def test_accuracy_tie_prefers_lowest_class():
    logits = np.array([[1.0, 1.0, 0.0]])
    assert accuracy(logits, np.array([0]), np.array([0])) == 1.0
    assert accuracy(logits, np.array([1]), np.array([0])) == 0.0


def test_accuracy_empty_raises():
    with pytest.raises(UndefinedMetricError):
        accuracy(np.zeros((1, 2)), np.zeros(1, dtype=int), np.zeros(0, dtype=int))


def _auc(scores, labels):
    return auc(scores, labels, np.arange(len(scores)))


def test_auc_hand_value():
    # positives {0.8, 0.4}, negatives {0.6, 0.1}: 3 of 4 pairs won -> 0.75
    assert _auc(np.array([0.8, 0.4, 0.6, 0.1]), np.array([1, 1, 0, 0])) == \
        pytest.approx(0.75)


def test_auc_perfect_and_inverted():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert _auc(scores, labels) == 1.0
    assert _auc(scores, 1 - labels) == 0.0


def test_auc_ties_average():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    labels = np.array([1, 0, 1, 0])
    assert _auc(scores, labels) == pytest.approx(0.5)


def test_auc_partial_ties_hand_value():
    # wins: (0.7>0.3) + (0.7>0.1) + (0.3=0.3 -> 0.5) + (0.3>0.1) = 3.5 / 4
    assert _auc(np.array([0.7, 0.3, 0.3, 0.1]), np.array([1, 1, 0, 0])) == \
        pytest.approx(0.875)


def test_auc_respects_mask():
    scores = np.array([0.9, 0.1, 0.5, 0.6])
    labels = np.array([1, 0, 1, 0])
    assert auc(scores, labels, np.array([0, 1])) == 1.0


def test_auc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        _auc(np.array([0.3, 0.4]), np.array([1, 1]))
    with pytest.raises(UndefinedMetricError):
        _auc(np.array([0.3, 0.4]), np.array([0, 0]))


def test_auc_empty_mask_raises():
    with pytest.raises(UndefinedMetricError):
        auc(np.array([0.3]), np.array([1]), np.zeros(0, dtype=int))


def test_auc_rejects_nonbinary_labels():
    with pytest.raises(ContractError):
        _auc(np.array([0.3, 0.4, 0.5]), np.array([0, 1, 2]))


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((1.0 if p > q else 0.5 if p == q else 0.0)
                   for p in pos for q in neg)
        assert _auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)))


def test_auc_rejects_nan_scores():
    with pytest.raises(ContractError, match="NaN"):
        _auc(np.array([0.1, np.nan, 0.3, 0.2]), np.array([0, 1, 1, 0]))
    # a NaN outside the mask is never ranked; infinities rank at the ends
    assert auc(np.array([np.inf, -np.inf, np.nan]), np.array([1, 0, 1]),
               np.array([0, 1])) == 1.0


def test_average_ranks_match_the_loop_on_ties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        scores = np.round(rng.standard_normal(n), 1)
        scores[rng.random(n) < 0.2] = -0.0
        scores[rng.random(n) < 0.1] = 0.0
        scores[rng.random(n) < 0.05] = np.inf
        want = loop_average_ranks(scores)
        assert _average_ranks(scores).tobytes() == want.tobytes()
