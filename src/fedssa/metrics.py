"""Evaluation metrics: masked accuracy and rank-based AUC."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, UndefinedMetricError


def accuracy(logits, labels, mask, split: str = "test") -> float:
    """Fraction of masked rows whose argmax matches; ties pick the lowest class."""
    mask = np.asarray(mask, dtype=np.int64).reshape(-1)
    if mask.size == 0:
        raise UndefinedMetricError(f"accuracy undefined on empty {split} split")
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    pred = np.argmax(logits[mask], axis=1)
    return float(np.mean(pred == labels[mask]))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts + 1))[inverse]


def auc(scores, labels, mask, split: str = "test") -> float:
    """Mann-Whitney AUC of class-1 scores; tied pairs count one half."""
    mask = np.asarray(mask, dtype=np.int64).reshape(-1)
    if mask.size == 0:
        raise UndefinedMetricError(f"AUC undefined on empty {split} split")
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)[mask]
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)[mask]
    if set(np.unique(labels)) - {0, 1}:
        raise ContractError("AUC requires binary labels in {0, 1}")
    if np.isnan(scores).any():
        raise ContractError("AUC requires scores that are not NaN")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(f"AUC undefined: {split} split has a single class")
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    value = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(value)
