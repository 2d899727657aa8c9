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
and the non-edge sampler's offset tables. Clients with the same node count
train on one stacked tape: `group_plan` lays their plans out once over the
stacked rows, with member bounds for the ragged losses and each member's
edge pairs and edge/non-edge split. Every builder takes a `GroupPlan`: the
values carry a leading member axis and each loss holds one value per
member. A client trained alone is a group of one. A group's evaluation
pass records the builders once per round; its logits give the split
metrics and its class statistics give the uploads' class Gaussians.
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
    nonedge_count is how many non-edges each forward samples: one per
    edge, capped at the number of absent pairs.
    """

    graph: LocalGraph
    ce_rows: np.ndarray
    ce_onehot: np.ndarray
    class_labels: np.ndarray
    classes: tp.Segments
    label_term: Optional[float]
    row_start: np.ndarray
    absent_before_edge: np.ndarray
    nonedge_count: int


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
    nonedge_count = min(u.size, n * (n - 1) // 2 - u.size)
    return ClientPlan(g, rows, onehot, labels, classes, label_term, row_start,
                      absent_before_edge, nonedge_count)


@dataclass(frozen=True)
class GroupPlan:
    """Stacked layout of clients with the same node count n, built once per run.

    Row r of member m is row m * n + r of the stacked rows, which ce_rows,
    classes and the pairs index. ce_bounds, class_bounds and pair_bounds
    split the ce rows, the class groups and the pairs by member, as the
    ragged tape ops expect. class_labels lists every member's labels in
    member order. label_term holds each member's ELBO constant as a
    (G, 1, 1) array, or is None when no member has train rows. edges holds
    each member's edge list in stacked rows, and pair_y and pair_bounds the
    0/1 targets and member bounds of the pairs that pair_batch lays out,
    with each member's nonedge_count sampled non-edges.
    """

    members: tuple
    n: int
    ce_rows: np.ndarray
    ce_onehot: np.ndarray
    ce_bounds: np.ndarray
    class_labels: np.ndarray
    classes: tp.Segments
    class_bounds: np.ndarray
    label_term: Optional[np.ndarray]
    edges: tuple
    pair_y: np.ndarray
    pair_bounds: np.ndarray

    def pair_batch(self, nonedges) -> tuple:
        """(pairs, 0/1 targets, bounds) from one sampled non-edge array per member.

        Each member's edges, then its non-edges, in stacked rows; only the
        sampled non-edges are checked.
        """
        parts = []
        for m, (edges, sampled) in enumerate(zip(self.edges, nonedges)):
            sampled = np.asarray(sampled, dtype=np.int64).reshape(-1, 2)
            if sampled.size and (sampled.min() < 0 or sampled.max() >= self.n):
                raise ShapeError(f"non-edge index out of range for {self.n} nodes")
            parts += [edges, sampled + m * self.n]
        return np.concatenate(parts), self.pair_y, self.pair_bounds


def _offsets(sizes) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def group_plan(plans) -> GroupPlan:
    """Lay the plans of clients with one node count out over their stacked rows."""
    n = plans[0].graph.n
    if any(p.graph.n != n for p in plans):
        raise ShapeError("a group's clients must have the same node count")
    offsets = [m * n for m in range(len(plans))]
    groups = [p.classes.rows[start:start + count] + off
              for p, off in zip(plans, offsets)
              for start, count in zip(p.classes.starts, p.classes.counts)]
    label_term = None
    if any(p.label_term is not None for p in plans):
        label_term = np.array([p.label_term or 0.0 for p in plans]).reshape(-1, 1, 1)
    edge_counts = [p.graph.edges.shape[0] for p in plans]
    nonedge_counts = [p.nonedge_count for p in plans]
    return GroupPlan(
        members=tuple(plans), n=n,
        ce_rows=np.concatenate([p.ce_rows + off for p, off in zip(plans, offsets)]),
        ce_onehot=np.concatenate([p.ce_onehot for p in plans]),
        ce_bounds=_offsets([p.ce_rows.size for p in plans]),
        class_labels=np.concatenate([p.class_labels for p in plans]),
        classes=tp.segments(groups, n * len(plans)),
        class_bounds=_offsets([p.class_labels.size for p in plans]),
        label_term=label_term,
        edges=tuple(p.graph.edges + off for p, off in zip(plans, offsets)),
        pair_y=np.concatenate([np.repeat([1.0, 0.0], [e, c])
                               for e, c in zip(edge_counts, nonedge_counts)]),
        pair_bounds=_offsets([e + c for e, c in zip(edge_counts, nonedge_counts)]),
    )


def logits_path(leaves: dict, h_stack: np.ndarray, n: int, d: int) -> tuple[tp.Var, tp.Var]:
    """Tape nodes for the propagated features P and the class logits.

    h_stack stacks one (order+1, n*d) block per member, as the leaves do.
    """
    p_flat = tp.matmul(leaves["w"], h_stack)
    p = tp.reshape(p_flat, h_stack.shape[:-2] + (n, d))
    hidden = tp.dense(p, leaves["head_w1"], leaves["head_b1"], tanh=True)
    logits = tp.dense(hidden, leaves["head_w2"], leaves["head_b2"])
    return p, logits


def ce_path(logits: tp.Var, plan: GroupPlan) -> tp.Var:
    """Mean cross entropy over each client's train rows, as one tape node."""
    if np.diff(plan.ce_bounds).min() == 0:
        raise ContractError("cross entropy needs a nonempty mask")
    return tp.softmax_ce(logits, plan.ce_rows, plan.ce_onehot, plan.ce_bounds)


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

    Row c of moments is [mean | var] of class labels[c], and counts[c] is
    that class's number of train rows. Rows bounds[m]:bounds[m + 1] belong
    to member m of the group; each member's labels ascend.
    """

    labels: np.ndarray
    counts: np.ndarray
    moments: tp.Var
    bounds: np.ndarray


def class_stat_paths(mu: tp.Var, logvar: tp.Var, plan: GroupPlan) -> ClassStats:
    """Moment-matched class Gaussians over train rows, as one tape node.

    For class c the mixture of per-node diagonal posteriors has mean equal
    to the average posterior mean, and variance equal to the average
    posterior variance plus the population variance of the means.
    """
    return ClassStats(plan.class_labels, plan.classes.counts,
                      tp.segment_moments(mu, logvar, plan.classes), plan.class_bounds)


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


def elbo_path(mu: tp.Var, logvar: tp.Var, plan: GroupPlan, eps: np.ndarray,
              nonedges) -> tp.Var:
    """Negative ELBO: mean edge BCE + mean prior KL - mean label log-prob.

    eps is one (n, d_z) draw, shared by every member of the group; nonedges
    holds each member's sampled array of nonedge_count pairs. The label
    term uses empirical train-split class frequencies; it is constant in the
    parameters and only shifts the reported value.
    """
    n, dz = mu.value.shape[-2:]
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (n, dz):
        raise ShapeError(f"eps must have shape {(n, dz)}, got {eps.shape}")
    total = tp.prior_kl(mu, logvar)
    pairs, y, bounds = plan.pair_batch(nonedges)
    if pairs.size:
        z = tp.gaussian_sample(mu, logvar, eps)
        total = tp.add(tp.pair_bce(z, pairs, y, bounds), total)
    if plan.label_term is not None:
        total = tp.add(total, np.full(total.shape, plan.label_term))
    return total


def class_gaussians(labels: np.ndarray, counts: np.ndarray, moments: np.ndarray) -> tuple:
    """ClassGaussians, in label order, from one client's class labels, train-row
    counts and [mean | var] rows (the values of class_stat_paths)."""
    d = moments.shape[1] // 2
    return tuple(ClassGaussian(int(label), row[:d].copy(),
                               np.diag(np.maximum(row[d:], COV_FLOOR)), int(count))
                 for label, count, row in zip(labels, counts, moments))


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
