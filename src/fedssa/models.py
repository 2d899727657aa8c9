"""Local learnable components: spectral filter GNN and conditional VGAE.

The node classifier is a polynomial spectral filter P = sum_k w_k L^k X
followed by a one-hidden-layer tanh head. The variational branch encodes
[X | onehot(y)] (zero condition vector for nodes outside the train split)
into per-node diagonal Gaussians and reconstructs edges with an
inner-product decoder; its class-wise latent statistics are the semantic
payload each client shares.

Both components are expressed as tape builders so training, evaluation and
upload construction all run the exact same numpy operations; the public
functions wrap the builders in a fresh tape and return plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tape as tp
from .errors import ConfigError, ContractError, ShapeError
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


@dataclass
class SpectralGNNParams:
    """Filter coefficients plus classifier head weights."""

    coefficients: np.ndarray
    head_w1: np.ndarray
    head_b1: np.ndarray
    head_w2: np.ndarray
    head_b2: np.ndarray
    w_max: float = 5.0

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64).reshape(-1)
        if self.w_max <= 0:
            raise ConfigError(f"w_max must be positive, got {self.w_max}")
        if np.any(np.abs(self.coefficients) > self.w_max + 1e-12):
            raise ContractError(f"coefficients exceed the box bound {self.w_max}")

    @property
    def order(self) -> int:
        return self.coefficients.size - 1

    def copy(self) -> "SpectralGNNParams":
        return SpectralGNNParams(self.coefficients.copy(), self.head_w1.copy(),
                                 self.head_b1.copy(), self.head_w2.copy(),
                                 self.head_b2.copy(), self.w_max)


@dataclass
class VGAEParams:
    """Conditional encoder weights: shared trunk plus mean/logvar heads."""

    enc_w1: np.ndarray
    enc_b1: np.ndarray
    mu_w: np.ndarray
    mu_b: np.ndarray
    logvar_w: np.ndarray
    logvar_b: np.ndarray

    @property
    def latent_dim(self) -> int:
        return self.mu_w.shape[1]

    def copy(self) -> "VGAEParams":
        return VGAEParams(self.enc_w1.copy(), self.enc_b1.copy(), self.mu_w.copy(),
                          self.mu_b.copy(), self.logvar_w.copy(), self.logvar_b.copy())


@dataclass(frozen=True)
class EncodeResult:
    """Per-node posterior parameters and class-wise latent summaries."""

    mu: np.ndarray
    logvar: np.ndarray
    gaussians: tuple


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) * np.sqrt(2.0 / (rows + cols))


def init_params(feature_dim: int, num_classes: int, order: int, hidden: int,
                latent_dim: int, w_max: float,
                rng: np.random.Generator) -> tuple[SpectralGNNParams, VGAEParams]:
    """Fresh parameters; the filter starts as the identity (w = e_0)."""
    if order < 0 or hidden < 1 or latent_dim < 1:
        raise ConfigError("order must be >= 0 and widths >= 1")
    coeffs = np.zeros(order + 1)
    coeffs[0] = 1.0
    gnn = SpectralGNNParams(
        coefficients=coeffs,
        head_w1=_glorot(rng, feature_dim, hidden),
        head_b1=np.zeros((1, hidden)),
        head_w2=_glorot(rng, hidden, num_classes),
        head_b2=np.zeros((1, num_classes)),
        w_max=w_max,
    )
    vgae = VGAEParams(
        enc_w1=_glorot(rng, feature_dim + num_classes, hidden),
        enc_b1=np.zeros((1, hidden)),
        mu_w=_glorot(rng, hidden, latent_dim),
        mu_b=np.zeros((1, latent_dim)),
        logvar_w=_glorot(rng, hidden, latent_dim),
        logvar_b=np.zeros((1, latent_dim)),
    )
    return gnn, vgae


GNN_LEAVES = ("w", "head_w1", "head_b1", "head_w2", "head_b2")
VGAE_LEAVES = ("enc_w1", "enc_b1", "mu_w", "mu_b", "logvar_w", "logvar_b")


def params_to_leaves(tape: tp.Tape, gnn: SpectralGNNParams, vgae: VGAEParams) -> dict:
    """Register every trainable array as a named tape leaf."""
    leaves = {
        "w": tape.leaf(gnn.coefficients.reshape(1, -1), "w"),
        "head_w1": tape.leaf(gnn.head_w1, "head_w1"),
        "head_b1": tape.leaf(gnn.head_b1, "head_b1"),
        "head_w2": tape.leaf(gnn.head_w2, "head_w2"),
        "head_b2": tape.leaf(gnn.head_b2, "head_b2"),
        "enc_w1": tape.leaf(vgae.enc_w1, "enc_w1"),
        "enc_b1": tape.leaf(vgae.enc_b1, "enc_b1"),
        "mu_w": tape.leaf(vgae.mu_w, "mu_w"),
        "mu_b": tape.leaf(vgae.mu_b, "mu_b"),
        "logvar_w": tape.leaf(vgae.logvar_w, "logvar_w"),
        "logvar_b": tape.leaf(vgae.logvar_b, "logvar_b"),
    }
    return leaves


def stack_powers(powers: list) -> np.ndarray:
    """Row-major stack of the propagated features, one row per hop."""
    return np.stack([h.ravel() for h in powers])


def logits_path(leaves: dict, h_stack: np.ndarray, n: int, d: int) -> tuple[tp.Var, tp.Var]:
    """Tape nodes for the propagated features P and the class logits."""
    p_flat = tp.matmul(leaves["w"], h_stack)
    p = tp.reshape(p_flat, (n, d))
    hidden = tp.tanh(tp.add_row(tp.matmul(p, leaves["head_w1"]), leaves["head_b1"]))
    logits = tp.add_row(tp.matmul(hidden, leaves["head_w2"]), leaves["head_b2"])
    return p, logits


def ce_path(logits: tp.Var, labels: np.ndarray, mask: np.ndarray,
            num_classes: int) -> tp.Var:
    """Mean cross entropy over the masked rows, stabilized by a frozen shift."""
    mask = np.asarray(mask, dtype=np.int64).reshape(-1)
    if mask.size == 0:
        raise ContractError("cross entropy needs a nonempty mask")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if np.any(labels[mask] >= num_classes):
        raise ContractError("label outside the class range")
    picked = tp.take_rows(logits, mask)
    # The row-max shift is a frozen constant; gradients are unaffected.
    shift = picked.value.max(axis=1, keepdims=True)
    shifted = tp.add(picked, -(shift @ np.ones((1, num_classes))))
    z = tp.matmul(tp.exp(shifted), np.ones((num_classes, 1)))
    lse = tp.add(tp.log(z), shift)
    onehot = np.zeros((mask.size, num_classes))
    onehot[np.arange(mask.size), labels[mask]] = 1.0
    correct = tp.matmul(tp.mul(picked, onehot), np.ones((num_classes, 1)))
    return tp.scale(tp.sum_all(tp.add(lse, tp.scale(correct, -1.0))), 1.0 / mask.size)


def encoder_input(g: LocalGraph, num_classes: int) -> np.ndarray:
    """[X | onehot(y)] with a zero condition vector outside the train split."""
    onehot = np.zeros((g.n, num_classes))
    if g.train_idx.size:
        onehot[g.train_idx, g.labels[g.train_idx]] = 1.0
    return np.concatenate([g.features, onehot], axis=1)


def encoder_path(leaves: dict, x_in: np.ndarray) -> tuple[tp.Var, tp.Var]:
    """Tape nodes for per-node posterior mean and clamped log-variance."""
    hidden = tp.tanh(tp.add_row(tp.matmul(x_in, leaves["enc_w1"]), leaves["enc_b1"]))
    mu = tp.add_row(tp.matmul(hidden, leaves["mu_w"]), leaves["mu_b"])
    logvar = tp.clip(tp.add_row(tp.matmul(hidden, leaves["logvar_w"]), leaves["logvar_b"]),
                     LOGVAR_MIN, LOGVAR_MAX)
    return mu, logvar


def class_stat_paths(mu: tp.Var, logvar: tp.Var, g: LocalGraph) -> dict:
    """Moment-matched class Gaussians over train rows, as tape nodes.

    For class c the mixture of per-node diagonal posteriors has mean equal
    to the average posterior mean, and variance equal to the average
    posterior variance plus the population variance of the means.
    """
    stats = {}
    for c in np.unique(g.labels[g.train_idx]) if g.train_idx.size else []:
        rows = g.train_idx[g.labels[g.train_idx] == c]
        mu_c = tp.take_rows(mu, rows)
        mean_c = tp.mean_rows(mu_c)
        spread = tp.add(tp.mean_rows(tp.square(mu_c)), tp.scale(tp.square(mean_c), -1.0))
        avg_var = tp.mean_rows(tp.exp(tp.take_rows(logvar, rows)))
        var_c = tp.add(avg_var, spread)
        stats[int(c)] = (mean_c, var_c, rows.size)
    return stats


def sample_nonedges(g: LocalGraph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of absent node pairs (i < j), without replacement.

    Draws positions among the absent pairs in row-major upper-triangle order
    and maps each back to (i, j) in closed form: the edges are sorted, so
    flat(edge k) - k absent pairs precede edge k.
    """
    n = g.n
    absent = n * (n - 1) // 2 - g.edges.shape[0]
    if count <= 0 or absent <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    pick = np.sort(rng.choice(absent, size=min(count, absent), replace=False))
    heads = np.arange(n - 1)
    row_start = heads * n - heads * (heads + 1) // 2
    u, v = g.edges[:, 0], g.edges[:, 1]
    absent_before_edge = row_start[u] + (v - u - 1) - np.arange(u.size)
    flat = pick + np.searchsorted(absent_before_edge, pick, side="right")
    rows = np.searchsorted(row_start, flat, side="right") - 1
    return np.column_stack([rows, flat - row_start[rows] + rows + 1])


def elbo_path(mu: tp.Var, logvar: tp.Var, g: LocalGraph, eps: np.ndarray,
              nonedges: np.ndarray) -> tp.Var:
    """Negative ELBO: mean edge BCE + mean prior KL - mean label log-prob.

    The label term uses empirical train-split class frequencies; it is
    constant in the parameters and only shifts the reported value.
    """
    n, dz = mu.value.shape
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (n, dz):
        raise ShapeError(f"eps must have shape {(n, dz)}, got {eps.shape}")
    z = tp.add(mu, tp.mul(tp.sqrt(tp.exp(logvar)), eps))
    pairs = np.concatenate([g.edges, nonedges]) if nonedges.size else g.edges
    if pairs.size:
        y = np.concatenate([np.ones((g.edges.shape[0], 1)),
                            np.zeros((nonedges.shape[0] if nonedges.size else 0, 1))])
        scores = tp.matmul(tp.mul(tp.take_rows(z, pairs[:, 0]), tp.take_rows(z, pairs[:, 1])),
                           np.ones((dz, 1)))
        bce = tp.add(tp.softplus(scores), tp.scale(tp.mul(scores, y), -1.0))
        recon = tp.scale(tp.sum_all(bce), 1.0 / pairs.shape[0])
    else:
        recon = None
    inner = tp.add(tp.add(tp.square(mu), tp.exp(logvar)),
                   tp.add(tp.scale(logvar, -1.0), -np.ones((n, dz))))
    kl = tp.scale(tp.sum_all(inner), 0.5 / n)
    total = kl if recon is None else tp.add(recon, kl)
    if g.train_idx.size:
        train_labels = g.labels[g.train_idx]
        counts = np.bincount(train_labels)
        freqs = counts[train_labels] / train_labels.size
        label_term = -float(np.mean(np.log(freqs)))
        total = tp.add(total, np.full((1, 1), label_term))
    return total


# --- public single-shot wrappers -------------------------------------------


def gnn_forward(params: SpectralGNNParams, powers: list) -> tuple[np.ndarray, np.ndarray]:
    """Propagated features and logits for the given Laplacian powers."""
    if len(powers) != params.order + 1:
        raise ShapeError(f"need {params.order + 1} propagated matrices, got {len(powers)}")
    n, d = powers[0].shape
    tape = tp.Tape()
    leaves = {
        "w": tape.leaf(params.coefficients.reshape(1, -1), "w"),
        "head_w1": tape.leaf(params.head_w1, "head_w1"),
        "head_b1": tape.leaf(params.head_b1, "head_b1"),
        "head_w2": tape.leaf(params.head_w2, "head_w2"),
        "head_b2": tape.leaf(params.head_b2, "head_b2"),
    }
    p, logits = logits_path(leaves, stack_powers(powers), n, d)
    return p.value.copy(), logits.value.copy()


def ce_loss(logits, labels, mask) -> float:
    """Mean cross entropy of the masked rows."""
    logits = np.asarray(logits, dtype=np.float64)
    tape = tp.Tape()
    var = tape.leaf(logits, "logits")
    return float(ce_path(var, labels, mask, logits.shape[1]).value[0, 0])


def vgae_encode(params: VGAEParams, g: LocalGraph, num_classes: Optional[int] = None) -> EncodeResult:
    """Posterior parameters for every node plus moment-matched class summaries."""
    num_classes = num_classes if num_classes is not None else \
        params.enc_w1.shape[0] - g.feature_dim
    if num_classes < 1 or params.enc_w1.shape[0] != g.feature_dim + num_classes:
        raise ShapeError("encoder input width does not match features plus classes")
    tape = tp.Tape()
    leaves = {name: tape.leaf(getattr(params, name), name) for name in VGAE_LEAVES}
    mu, logvar = encoder_path(leaves, encoder_input(g, num_classes))
    stats = class_stat_paths(mu, logvar, g)
    gaussians = []
    for c in sorted(stats):
        mean_c, var_c, count = stats[c]
        variances = np.maximum(var_c.value.reshape(-1), COV_FLOOR)
        gaussians.append(ClassGaussian(c, mean_c.value.reshape(-1).copy(),
                                       np.diag(variances), count))
    return EncodeResult(mu.value.copy(), logvar.value.copy(), tuple(gaussians))


def elbo_loss(params: VGAEParams, g: LocalGraph, sample_eps,
              nonedges: Optional[np.ndarray] = None,
              num_classes: Optional[int] = None) -> float:
    """Negative ELBO at the given reparameterization draw and non-edge sample."""
    num_classes = num_classes if num_classes is not None else \
        params.enc_w1.shape[0] - g.feature_dim
    tape = tp.Tape()
    leaves = {name: tape.leaf(getattr(params, name), name) for name in VGAE_LEAVES}
    mu, logvar = encoder_path(leaves, encoder_input(g, num_classes))
    nonedges = np.zeros((0, 2), dtype=np.int64) if nonedges is None else nonedges
    return float(elbo_path(mu, logvar, g, sample_eps, nonedges).value[0, 0])


def spectral_energy(params: SpectralGNNParams, powers: list, client_id: int,
                    rng: np.random.Generator) -> SpectralEnergy:
    """Spectral-energy matrix S and its orthonormal frame Q.

    Column k of S is the feature-wise mean of w_k H^k. A tiny jitter
    (1e-12 relative scale) breaks exact column ties before the QR so the
    frame is always well defined for generic inputs.
    """
    if len(powers) != params.order + 1:
        raise ShapeError(f"need {params.order + 1} propagated matrices, got {len(powers)}")
    d = powers[0].shape[1]
    if d < params.order + 1:
        raise ConfigError(f"feature dim {d} must be >= order+1 = {params.order + 1}"
                          " for an orthonormal energy frame")
    cols = [params.coefficients[k] * powers[k].mean(axis=0)
            for k in range(params.order + 1)]
    s = np.column_stack(cols)
    jitter = 1e-12 * max(1.0, float(np.linalg.norm(s))) * rng.standard_normal(s.shape)
    q, _ = qr_thin(s + jitter)
    return SpectralEnergy(client_id, s, q)
