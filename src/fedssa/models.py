"""Local learnable components: spectral filter GNN and conditional VGAE.

The node classifier is a polynomial spectral filter P = sum_k w_k L^k X
followed by a one-hidden-layer tanh head. The variational branch encodes
[X | onehot(y)] (zero condition vector for nodes outside the train split)
into per-node diagonal Gaussians and reconstructs edges with an
inner-product decoder; its class-wise latent statistics are the semantic
payload each client shares.

A client's trainable state is one dict of arrays from `init_params`. Its
keys (`w`, `head_w1` ... `logvar_b`) name the tape leaves, the Adam
moments and the arrays FedAvg averages alike.

Both components are expressed as tape builders over fused ops: each head,
trunk and encoder layer is one `dense` node, the cross entropy one
`softmax_ce` node and the reparameterised draw one `gaussian_sample` node.
A `ClientPlan`, built once per client by `client_plan`, holds what every
forward reads from the client's data: the cross-entropy rows and one-hot
targets, the train rows grouped by class, the ELBO's constant label term
and the non-edge sampler's offset tables. A client's evaluation pass
records the builders once per round; its logits give the split metrics and
its class statistics give the upload's class Gaussians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tape as tp
from .errors import ConfigError, ContractError, RankError, ShapeError
from .graphs import LocalGraph
from .linalg import qr_thin
from .structural import SpectralEnergy

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
COV_FLOOR = 1e-6


@dataclass(frozen=True)
class ClassGaussian:
    """Latent Gaussian summary of one class on one client or cluster."""

    label: int
    mean: np.ndarray
    cov: np.ndarray
    count: int

    def __post_init__(self):
        if self.label < 0:
            raise ContractError(f"class label must be >= 0, got {self.label}")
        if self.count < 1:
            raise ContractError(f"sample count must be >= 1, got {self.count}")
        mean = np.ascontiguousarray(np.asarray(self.mean, dtype=np.float64).reshape(-1))
        cov = np.ascontiguousarray(np.asarray(self.cov, dtype=np.float64))
        if cov.shape != (mean.size, mean.size):
            raise ShapeError(f"cov shape {cov.shape} does not match mean dim {mean.size}")
        skew = float(np.max(np.abs(cov - cov.T))) if mean.size else 0.0
        if skew > 1e-10:
            raise ContractError(f"cov deviates from symmetry by {skew:.3e}")
        if np.any(np.diag(cov) < COV_FLOOR - 1e-12):
            raise ContractError(f"cov diagonal entries must be >= {COV_FLOOR}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) * np.sqrt(2.0 / (rows + cols))


def init_params(feature_dim: int, num_classes: int, order: int, hidden: int,
                latent_dim: int, rng: np.random.Generator) -> dict:
    """Fresh trainable arrays keyed by their tape-leaf names.

    w is the 1 x (order+1) filter row, starting as the identity e_0; the
    head_* arrays are the classifier head and the rest the VGAE encoder.
    """
    if order < 0 or hidden < 1 or latent_dim < 1:
        raise ConfigError("order must be >= 0 and widths >= 1")
    w = np.zeros((1, order + 1))
    w[0, 0] = 1.0
    return {
        "w": w,
        "head_w1": _glorot(rng, feature_dim, hidden),
        "head_b1": np.zeros((1, hidden)),
        "head_w2": _glorot(rng, hidden, num_classes),
        "head_b2": np.zeros((1, num_classes)),
        "enc_w1": _glorot(rng, feature_dim + num_classes, hidden),
        "enc_b1": np.zeros((1, hidden)),
        "mu_w": _glorot(rng, hidden, latent_dim),
        "mu_b": np.zeros((1, latent_dim)),
        "logvar_w": _glorot(rng, hidden, latent_dim),
        "logvar_b": np.zeros((1, latent_dim)),
    }


def stack_powers(powers: list) -> np.ndarray:
    """Row-major stack of the propagated features, one row per hop."""
    return np.stack([h.ravel() for h in powers])


@dataclass(frozen=True)
class ClientPlan:
    """Index arrays and constants of one client's data, built once at setup.

    ce_rows are the train rows and ce_onehot their one-hot labels. classes
    groups the train rows by ascending class label (class_labels) for
    segment_moments. label_term is the ELBO's constant -mean log empirical
    class frequency, or None without train rows. row_start[i] is the
    row-major upper-triangle position of pair (i, i + 1), and
    absent_before_edge[k] counts the absent pairs before edge k.
    """

    graph: LocalGraph
    ce_rows: np.ndarray
    ce_onehot: np.ndarray
    class_labels: np.ndarray
    classes: tp.Segments
    label_term: Optional[float]
    row_start: np.ndarray
    absent_before_edge: np.ndarray


def client_plan(client_id: int, g: LocalGraph, num_classes: int) -> ClientPlan:
    """Validate and lay out one client's data for its forwards.

    Raises ContractError naming the client when a train label falls outside
    range(num_classes) or the class groups overlap.
    """
    rows = g.train_idx
    train_labels = g.labels[rows]
    if np.any(train_labels >= num_classes):
        raise ContractError(f"client {client_id}: train label {int(train_labels.max())}"
                            f" outside the class range 0..{num_classes - 1}")
    onehot = np.zeros((rows.size, num_classes))
    onehot[np.arange(rows.size), train_labels] = 1.0
    order = np.argsort(train_labels, kind="stable")
    labels, starts = np.unique(train_labels[order], return_index=True)
    try:
        classes = tp.segments(np.split(rows[order], starts[1:]) if labels.size else [],
                              g.n)
    except ContractError as exc:
        raise ContractError(f"client {client_id}: {exc}") from exc
    label_term = None
    if rows.size:
        freqs = np.bincount(train_labels)[train_labels] / train_labels.size
        label_term = -float(np.mean(np.log(freqs)))
    n = g.n
    heads = np.arange(n - 1)
    row_start = heads * n - heads * (heads + 1) // 2
    u, v = g.edges[:, 0], g.edges[:, 1]
    absent_before_edge = row_start[u] + (v - u - 1) - np.arange(u.size)
    return ClientPlan(g, rows, onehot, labels, classes, label_term, row_start,
                      absent_before_edge)


def logits_path(leaves: dict, h_stack: np.ndarray, n: int, d: int) -> tuple[tp.Var, tp.Var]:
    """Tape nodes for the propagated features P and the class logits."""
    p_flat = tp.matmul(leaves["w"], h_stack)
    p = tp.reshape(p_flat, (n, d))
    hidden = tp.dense(p, leaves["head_w1"], leaves["head_b1"], tanh=True)
    logits = tp.dense(hidden, leaves["head_w2"], leaves["head_b2"])
    return p, logits


def ce_path(logits: tp.Var, plan: ClientPlan) -> tp.Var:
    """Mean cross entropy over the client's train rows, as one tape node."""
    if plan.ce_rows.size == 0:
        raise ContractError("cross entropy needs a nonempty mask")
    return tp.softmax_ce(logits, plan.ce_rows, plan.ce_onehot)


def encoder_input(g: LocalGraph, num_classes: int) -> np.ndarray:
    """[X | onehot(y)] with a zero condition vector outside the train split."""
    onehot = np.zeros((g.n, num_classes))
    if g.train_idx.size:
        onehot[g.train_idx, g.labels[g.train_idx]] = 1.0
    return np.concatenate([g.features, onehot], axis=1)


def encoder_path(leaves: dict, x_in: np.ndarray) -> tuple[tp.Var, tp.Var]:
    """Tape nodes for per-node posterior mean and clamped log-variance."""
    hidden = tp.dense(x_in, leaves["enc_w1"], leaves["enc_b1"], tanh=True)
    mu = tp.dense(hidden, leaves["mu_w"], leaves["mu_b"])
    logvar = tp.clip(tp.dense(hidden, leaves["logvar_w"], leaves["logvar_b"]),
                     LOGVAR_MIN, LOGVAR_MAX)
    return mu, logvar


@dataclass(frozen=True)
class ClassStats:
    """Class-wise latent moments over the train rows, as one tape node.

    labels ascend; row c of moments is [mean | var] of class labels[c], and
    counts[c] is that class's number of train rows.
    """

    labels: np.ndarray
    counts: np.ndarray
    moments: tp.Var


def class_stat_paths(mu: tp.Var, logvar: tp.Var, plan: ClientPlan) -> ClassStats:
    """Moment-matched class Gaussians over train rows, as one tape node.

    For class c the mixture of per-node diagonal posteriors has mean equal
    to the average posterior mean, and variance equal to the average
    posterior variance plus the population variance of the means.
    """
    return ClassStats(plan.class_labels, plan.classes.counts,
                      tp.segment_moments(mu, logvar, plan.classes))


def sample_nonedges(plan: ClientPlan, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of absent node pairs (i < j), without replacement.

    Draws positions among the absent pairs in row-major upper-triangle order
    and maps each back to (i, j) in closed form: the edges are sorted, so
    flat(edge k) - k absent pairs precede edge k.
    """
    n = plan.graph.n
    absent = n * (n - 1) // 2 - plan.graph.edges.shape[0]
    if count <= 0 or absent <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    pick = np.sort(rng.choice(absent, size=min(count, absent), replace=False))
    flat = pick + np.searchsorted(plan.absent_before_edge, pick, side="right")
    rows = np.searchsorted(plan.row_start, flat, side="right") - 1
    return np.column_stack([rows, flat - plan.row_start[rows] + rows + 1])


def elbo_path(mu: tp.Var, logvar: tp.Var, plan: ClientPlan, eps: np.ndarray,
              nonedges: np.ndarray) -> tp.Var:
    """Negative ELBO: mean edge BCE + mean prior KL - mean label log-prob.

    The label term uses empirical train-split class frequencies; it is
    constant in the parameters and only shifts the reported value.
    """
    n, dz = mu.value.shape
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (n, dz):
        raise ShapeError(f"eps must have shape {(n, dz)}, got {eps.shape}")
    edges = plan.graph.edges
    total = tp.prior_kl(mu, logvar)
    if edges.size or nonedges.size:
        z = tp.gaussian_sample(mu, logvar, eps)
        pairs = np.concatenate([edges, nonedges.reshape(-1, 2)])
        y = np.repeat([1.0, 0.0], [edges.shape[0], pairs.shape[0] - edges.shape[0]])
        total = tp.add(tp.pair_bce(z, pairs, y), total)
    if plan.label_term is not None:
        total = tp.add(total, np.full((1, 1), plan.label_term))
    return total


def class_gaussians(stats: ClassStats) -> tuple:
    """ClassGaussians, sorted by label, from the values of class_stat_paths."""
    d = stats.moments.shape[1] // 2
    return tuple(ClassGaussian(int(label), row[:d].copy(),
                               np.diag(np.maximum(row[d:], COV_FLOOR)), int(count))
                 for label, count, row in zip(stats.labels, stats.counts,
                                              stats.moments.value))


def spectral_energy(powers: list, client_id: int) -> SpectralEnergy:
    """Orthonormal frame Q of the spectral-energy columns mean(L^k X), k = 0..K.

    For filter coefficients w with no zero entry, the columns w_k mean(L^k X)
    span the same subspace, so the frame is a constant of the client's data.
    Dependent columns have no frame and are rejected: an edgeless graph
    (L = I) repeats mean(X), and a regular graph (1^T L = 0) has
    mean(L^k X) = 0 for every k >= 1.
    """
    order = len(powers) - 1
    d = powers[0].shape[1]
    if d < order + 1:
        raise ConfigError(f"feature dim {d} must be >= order+1 = {order + 1}"
                          " for spectral-energy frames")
    try:
        q, _ = qr_thin(np.column_stack([h.mean(axis=0) for h in powers]))
    except RankError as exc:
        raise ConfigError(f"client {client_id} has rank-deficient spectral-energy"
                          f" columns mean(L^k X) ({exc}); set structural: false"
                          " (YAML ablations.structural) or a lower order"
                          " (YAML hyperparams.K)") from exc
    return SpectralEnergy(client_id, q)
