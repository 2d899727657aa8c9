"""Reverse-mode automatic differentiation over dense float64 matrices.

The design is a flat tape: every operation eagerly computes its value with
numpy and appends a node recording the op name, its inputs and any static
attributes. `grad` walks the tape once in reverse accumulating adjoints.

All values are 2-D float64 arrays (scalars are 1x1). Inputs to an op may be
other Vars or plain ndarrays; plain arrays are closed-over constants that
receive no gradient, which is how frozen server broadcasts enter local
losses without being differentiated. Row gathers (`take_rows`) and bias
rows (`add_row`) need no O(rows x n) constant. A Var refers to its tape
weakly, so reference counting frees a tape once the caller drops it.

Four fused ops record the VGAE's per-class and per-pair terms as one node
each, with closed-form backward rules: `segment_moments` (class-wise
[mean | var] of the posterior mixture), `diag_gaussian_kl` (summed KL from
diagonal class posteriors to frozen full-covariance targets), `pair_bce`
(mean inner-product decoder BCE over node pairs) and `prior_kl` (mean KL
from the per-node posteriors to N(0, I)).
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Union

import numpy as np

from .errors import ContractError, NumericError, ShapeError

ArrayLike = Union["Var", np.ndarray]


def _as_matrix(value) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    if out.ndim == 0:
        out = out.reshape(1, 1)
    elif out.ndim == 1:
        out = out.reshape(1, -1)
    if out.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of ndim {out.ndim}")
    return np.ascontiguousarray(out)


class Var:
    """One tape node: a value plus the recipe that produced it."""

    __slots__ = ("_tape_ref", "index", "value", "op", "inputs", "aux", "name")

    def __init__(self, tape: "Tape", index: int, value: np.ndarray, op: str,
                 inputs: tuple, aux: dict, name: Optional[str]):
        self._tape_ref = weakref.ref(tape)
        self.index = index
        self.value = value
        self.op = op
        self.inputs = inputs
        self.aux = aux
        self.name = name

    @property
    def tape(self) -> "Tape":
        tape = self._tape_ref()
        if tape is None:
            raise ContractError(f"{self!r} belongs to a tape that was freed")
        return tape

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self) -> str:
        label = self.name or self.op
        return f"Var({label}, shape={self.value.shape})"

    def __matmul__(self, other: ArrayLike) -> "Var":
        return matmul(self, other)

    def __rmatmul__(self, other: np.ndarray) -> "Var":
        return matmul(other, self)

    def __add__(self, other: ArrayLike) -> "Var":
        return add(self, other)

    def __radd__(self, other: np.ndarray) -> "Var":
        return add(self, other)

    def __sub__(self, other: ArrayLike) -> "Var":
        if isinstance(other, Var):
            return add(self, scale(other, -1.0))
        return add(self, -_as_matrix(other))

    def __rsub__(self, other: np.ndarray) -> "Var":
        return add(scale(self, -1.0), _as_matrix(other))

    def __mul__(self, other) -> "Var":
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other) -> "Var":
        return self.__mul__(other)

    def __neg__(self) -> "Var":
        return scale(self, -1.0)


class Tape:
    """Ordered record of one forward computation."""

    def __init__(self):
        self.nodes: list[Var] = []
        self.leaves: list[Var] = []

    def leaf(self, value, name: Optional[str] = None) -> Var:
        """Register a differentiable input. Must already be a 2-D array."""
        if np.asarray(value).ndim != 2:
            raise ShapeError(f"leaf {name!r} must be 2-D,"
                             f" got ndim {np.asarray(value).ndim}")
        mat = _as_matrix(value).copy()
        if not np.isfinite(mat).all():
            raise NumericError(f"leaf {name or len(self.leaves)} has non-finite entries")
        var = Var(self, len(self.nodes), mat, "leaf", (), {}, name)
        self.nodes.append(var)
        self.leaves.append(var)
        return var

    def _record(self, op: str, inputs: tuple, aux: dict, value: np.ndarray) -> Var:
        var = Var(self, len(self.nodes), value, op, inputs, aux, None)
        self.nodes.append(var)
        return var


def _tape_of(*operands) -> Tape:
    tape = None
    for item in operands:
        if isinstance(item, Var):
            if tape is None:
                tape = item.tape
            elif item.tape is not tape:
                raise ContractError("operands recorded on different tapes")
    if tape is None:
        raise ContractError("operation requires at least one tape variable")
    return tape


def _value(item) -> np.ndarray:
    return item.value if isinstance(item, Var) else item


def _matrix(item) -> np.ndarray:
    return item.value if isinstance(item, Var) else _as_matrix(item)


def _index_vector(rows, size: int, what: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and (rows.min() < 0 or rows.max() >= size):
        raise ShapeError(f"{what} index out of range for {size} rows")
    return rows


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so neither branch overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# Backward rules: given input values, aux, output value, output adjoint and
# which inputs are tape variables, return one adjoint per input (None for
# constant inputs, whose adjoints are never computed).

def _bw_matmul(vals, aux, out, g, need):
    a, b = vals
    return (g @ b.T if need[0] else None, a.T @ g if need[1] else None)


def _bw_add(vals, aux, out, g, need):
    return (g, g)


def _bw_scale(vals, aux, out, g, need):
    return (g * aux["alpha"],)


def _bw_mul(vals, aux, out, g, need):
    a, b = vals
    return (g * b if need[0] else None, g * a if need[1] else None)


def _bw_transpose(vals, aux, out, g, need):
    return (np.ascontiguousarray(g.T),)


def _bw_reshape(vals, aux, out, g, need):
    return (g.reshape(vals[0].shape),)


def _bw_log(vals, aux, out, g, need):
    return (g / vals[0],)


def _bw_exp(vals, aux, out, g, need):
    return (g * out,)


def _bw_sqrt(vals, aux, out, g, need):
    return (g * 0.5 / out,)


def _bw_square(vals, aux, out, g, need):
    return (g * 2.0 * vals[0],)


def _bw_absval(vals, aux, out, g, need):
    return (g * np.sign(vals[0]),)


def _bw_tanh(vals, aux, out, g, need):
    return (g * (1.0 - out * out),)


def _bw_sigmoid(vals, aux, out, g, need):
    return (g * out * (1.0 - out),)


def _bw_softplus(vals, aux, out, g, need):
    return (g * _sigmoid(vals[0]),)


def _bw_clip(vals, aux, out, g, need):
    inside = (vals[0] > aux["lo"]) & (vals[0] < aux["hi"])
    return (g * inside,)


def _bw_mean_rows(vals, aux, out, g, need):
    n = vals[0].shape[0]
    return (np.broadcast_to(g / n, vals[0].shape),)


def _bw_sum_all(vals, aux, out, g, need):
    return (np.full(vals[0].shape, g[0, 0]),)


def _bw_take_rows(vals, aux, out, g, need):
    acc = np.zeros_like(vals[0])
    np.add.at(acc, aux["rows"], g)
    return (acc,)


def _bw_add_row(vals, aux, out, g, need):
    return (g, g.sum(axis=0, keepdims=True) if need[1] else None)


def _bw_segment_moments(vals, aux, out, g, need):
    mu, logvar = vals
    rows, seg = aux["rows"], aux["seg"]
    d = mu.shape[1]
    inv = 1.0 / aux["counts"][:, None]
    g_mean = (g[:, :d] * inv)[seg]
    g_var = (g[:, d:] * inv)[seg]
    d_mu = d_logvar = None
    # Groups are disjoint, so each row receives exactly one contribution.
    if need[0]:
        d_mu = np.zeros_like(mu)
        d_mu[rows] = g_mean + 2.0 * g_var * aux["centered"]
    if need[1]:
        d_logvar = np.zeros_like(logvar)
        d_logvar[rows] = g_var * aux["var_rows"]
    return (d_mu, d_logvar)


def _bw_diag_gaussian_kl(vals, aux, out, g, need):
    stats = vals[0]
    rows, d = aux["rows"], stats.shape[1] // 2
    acc = np.zeros_like(stats)
    acc[rows, :d] = g[0, 0] * aux["p_delta"]
    acc[rows, d:] = g[0, 0] * 0.5 * (aux["p_diag"] - 1.0 / stats[rows, d:])
    return (acc,)


def _bw_pair_bce(vals, aux, out, g, need):
    z = vals[0]
    n, d = z.shape
    heads, tails = aux["pairs"][:, 0], aux["pairs"][:, 1]
    coef = (g[0, 0] / heads.size) * (_sigmoid(aux["scores"]) - aux["y"])[:, None]
    slots = (np.concatenate([heads, tails])[:, None] * d + np.arange(d)).ravel()
    weights = np.concatenate([coef * z[tails], coef * z[heads]]).ravel()
    return (np.bincount(slots, weights=weights, minlength=n * d).reshape(n, d),)


def _bw_prior_kl(vals, aux, out, g, need):
    mu, logvar = vals
    per_node = g[0, 0] / mu.shape[0]
    return (per_node * mu if need[0] else None,
            per_node * 0.5 * (np.exp(logvar) - 1.0) if need[1] else None)


_BACKWARD: dict[str, Callable] = {
    "matmul": _bw_matmul,
    "add": _bw_add,
    "scale": _bw_scale,
    "mul": _bw_mul,
    "transpose": _bw_transpose,
    "reshape": _bw_reshape,
    "log": _bw_log,
    "exp": _bw_exp,
    "sqrt": _bw_sqrt,
    "square": _bw_square,
    "absval": _bw_absval,
    "tanh": _bw_tanh,
    "sigmoid": _bw_sigmoid,
    "softplus": _bw_softplus,
    "clip": _bw_clip,
    "mean_rows": _bw_mean_rows,
    "sum_all": _bw_sum_all,
    "take_rows": _bw_take_rows,
    "add_row": _bw_add_row,
    "segment_moments": _bw_segment_moments,
    "diag_gaussian_kl": _bw_diag_gaussian_kl,
    "pair_bce": _bw_pair_bce,
    "prior_kl": _bw_prior_kl,
}


def _unary(op: str, a: Var, forward: Callable, aux: Optional[dict] = None) -> Var:
    if not isinstance(a, Var):
        raise ContractError(f"{op} expects a tape variable")
    return a.tape._record(op, (a,), aux or {}, forward(a.value))


def _binary(op: str, a: ArrayLike, b: ArrayLike, fits: Callable,
            forward: Callable) -> Var:
    tape = _tape_of(a, b)
    av, bv = _matrix(a), _matrix(b)
    if not fits(av.shape, bv.shape):
        raise ShapeError(f"{op} mismatch: {av.shape} and {bv.shape}")
    inputs = (a if isinstance(a, Var) else av, b if isinstance(b, Var) else bv)
    return tape._record(op, inputs, {}, forward(av, bv))


def matmul(a: ArrayLike, b: ArrayLike) -> Var:
    return _binary("matmul", a, b, lambda sa, sb: sa[1] == sb[0], np.matmul)


def add(a: ArrayLike, b: ArrayLike) -> Var:
    return _binary("add", a, b, lambda sa, sb: sa == sb, np.add)


def mul(a: ArrayLike, b: ArrayLike) -> Var:
    return _binary("mul", a, b, lambda sa, sb: sa == sb, np.multiply)


def add_row(a: ArrayLike, b: ArrayLike) -> Var:
    """a plus the 1 x k row b added to every row (a bias broadcast)."""
    return _binary("add_row", a, b, lambda sa, sb: sb == (1, sa[1]), np.add)


def take_rows(a: Var, rows) -> Var:
    """Rows of a in the given order; repeated rows accumulate their adjoints."""
    rows = _index_vector(rows, np.shape(_value(a))[0], "row")
    return _unary("take_rows", a, lambda x: x[rows], {"rows": rows})


def scale(a: Var, alpha: float) -> Var:
    alpha = float(alpha)
    return _unary("scale", a, lambda x: x * alpha, {"alpha": alpha})


def transpose(a: Var) -> Var:
    return _unary("transpose", a, lambda x: np.ascontiguousarray(x.T))


def reshape(a: Var, shape: tuple) -> Var:
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        raise ShapeError(f"reshape target must be 2-D, got {shape}")
    if shape[0] * shape[1] != a.value.size:
        raise ShapeError(f"cannot reshape {a.value.shape} to {shape}")
    return _unary("reshape", a, lambda x: np.ascontiguousarray(x.reshape(shape)),
                  {"shape": shape})


def log(a: Var) -> Var:
    if np.any(a.value <= 0):
        raise NumericError("log requires strictly positive entries")
    return _unary("log", a, np.log)


def exp(a: Var) -> Var:
    return _unary("exp", a, np.exp)


def sqrt(a: Var) -> Var:
    if np.any(a.value < 0):
        raise NumericError("sqrt requires nonnegative entries")
    return _unary("sqrt", a, np.sqrt)


def square(a: Var) -> Var:
    return _unary("square", a, np.square)


def absval(a: Var) -> Var:
    return _unary("absval", a, np.abs)


def tanh(a: Var) -> Var:
    return _unary("tanh", a, np.tanh)


def sigmoid(a: Var) -> Var:
    return _unary("sigmoid", a, _sigmoid)


def softplus(a: Var) -> Var:
    return _unary("softplus", a, lambda x: np.logaddexp(0.0, x))


def clip(a: Var, lo: float, hi: float) -> Var:
    lo, hi = float(lo), float(hi)
    return _unary("clip", a, lambda x: np.clip(x, lo, hi), {"lo": lo, "hi": hi})


def mean_rows(a: Var) -> Var:
    return _unary("mean_rows", a, lambda x: x.mean(axis=0, keepdims=True))


def sum_all(a: Var) -> Var:
    return _unary("sum_all", a, lambda x: np.array([[x.sum()]]))


def _fused(op: str, operands: tuple, value: np.ndarray, aux: dict) -> Var:
    """Record one node of a fused op over Var or constant-array operands."""
    tape = _tape_of(*operands)
    inputs = tuple(x if isinstance(x, Var) else _as_matrix(x) for x in operands)
    return tape._record(op, inputs, aux, value)


def segment_moments(mu: ArrayLike, logvar: ArrayLike, groups) -> Var:
    """Mixture moments [mean | var] of diagonal Gaussians, one row per group.

    groups is a sequence of disjoint, nonempty row-index arrays. Row c holds
    the mean of mu over group c and the mixture variance: the mean of
    exp(logvar) plus the population variance of mu, computed about the group
    mean (so a one-row group has exactly its own variance).
    """
    mu_v, lv_v = _matrix(mu), _matrix(logvar)
    n, d = mu_v.shape
    if lv_v.shape != (n, d):
        raise ShapeError(f"logvar shape {lv_v.shape} does not match mu {mu_v.shape}")
    counts = np.array([len(rows) for rows in groups], dtype=np.int64)
    if np.any(counts < 1):
        raise ContractError("segment_moments needs nonempty groups")
    rows = _index_vector(np.concatenate(groups) if groups else [], n, "group")
    if np.unique(rows).size != rows.size:
        raise ContractError("segment_moments groups must be disjoint")
    seg = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    picked = mu_v[rows]
    var_rows = np.exp(lv_v[rows])
    value = np.zeros((counts.size, 2 * d))
    centered = picked
    if counts.size:
        inv = 1.0 / counts[:, None]
        mean = np.add.reduceat(picked, starts, axis=0) * inv
        centered = picked - mean[seg]
        spread = np.add.reduceat(var_rows + centered * centered, starts, axis=0) * inv
        value = np.concatenate([mean, spread], axis=1)
    return _fused("segment_moments", (mu, logvar), value,
                  {"rows": rows, "seg": seg, "counts": counts.astype(np.float64),
                   "centered": centered, "var_rows": var_rows})


def diag_gaussian_kl(stats: Var, rows, means: np.ndarray, precisions: np.ndarray,
                     logdets: np.ndarray) -> Var:
    """Sum over k of KL(N(mean_k, diag var_k) || N(means[k], precisions[k]^-1)).

    stats is a (C, 2d) [mean | var] node and rows picks, for each frozen
    target k, the distinct stats row it is compared with. precisions must
    be symmetric and logdets are the targets' covariance log-determinants.
    A nonpositive variance raises NumericError.
    """
    sv = _matrix(stats)
    d = sv.shape[1] // 2
    rows = _index_vector(rows, sv.shape[0], "stats")
    if np.unique(rows).size != rows.size:
        raise ContractError("diag_gaussian_kl rows must be distinct")
    means = np.asarray(means, dtype=np.float64)
    precisions = np.asarray(precisions, dtype=np.float64)
    logdets = np.asarray(logdets, dtype=np.float64).reshape(-1)
    k = rows.size
    if (means.shape != (k, d) or precisions.shape != (k, d, d)
            or logdets.shape != (k,) or sv.shape[1] != 2 * d):
        raise ShapeError(f"targets {means.shape}, {precisions.shape}, {logdets.shape}"
                         f" do not match {k} rows of stats {sv.shape}")
    var = sv[rows, d:]
    if np.any(var <= 0):
        raise NumericError("diagonal class variances must be positive")
    delta = sv[rows, :d] - means
    p_delta = np.matmul(precisions, delta[:, :, None])[:, :, 0]
    p_diag = np.diagonal(precisions, axis1=1, axis2=2)
    total = (np.sum(var * p_diag) + np.sum(delta * p_delta) - k * d
             + np.sum(logdets) - np.sum(np.log(var)))
    return _fused("diag_gaussian_kl", (stats,), np.array([[0.5 * total]]),
                  {"rows": rows, "p_delta": p_delta, "p_diag": p_diag})


def pair_bce(z: Var, pairs, y) -> Var:
    """Mean binary cross entropy of inner-product scores z_i . z_j over pairs.

    pairs is an (P, 2) index array with P >= 1 and y the (P,) 0/1 targets.
    """
    zv = _matrix(z)
    pairs = _index_vector(pairs, zv.shape[0], "pair").reshape(-1, 2)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if pairs.shape[0] == 0 or y.size != pairs.shape[0]:
        raise ShapeError(f"need one target per pair and at least one pair,"
                         f" got {y.size} targets for {pairs.shape[0]} pairs")
    scores = np.sum(zv[pairs[:, 0]] * zv[pairs[:, 1]], axis=1)
    value = np.mean(np.logaddexp(0.0, scores) - y * scores)
    return _fused("pair_bce", (z,), np.array([[value]]),
                  {"pairs": pairs, "y": y, "scores": scores})


def prior_kl(mu: ArrayLike, logvar: ArrayLike) -> Var:
    """Mean over rows of KL(N(mu_i, diag exp(logvar_i)) || N(0, I))."""
    mu_v, lv_v = _matrix(mu), _matrix(logvar)
    if mu_v.shape != lv_v.shape:
        raise ShapeError(f"prior_kl mismatch: {mu_v.shape} and {lv_v.shape}")
    inner = mu_v * mu_v + np.exp(lv_v) - lv_v - 1.0
    value = np.array([[0.5 * inner.sum() / mu_v.shape[0]]])
    return _fused("prior_kl", (mu, logvar), value, {})


def grad(tape: Tape, loss: Var) -> dict:
    """Return the gradient of a scalar loss with respect to every leaf.

    Leaves that do not influence the loss map to zero arrays of their shape.
    """
    if not isinstance(loss, Var) or loss.tape is not tape:
        raise ContractError("loss must be a variable recorded on this tape")
    if loss.value.shape != (1, 1):
        raise ShapeError(f"loss must be scalar (1x1), got {loss.value.shape}")
    adjoint: dict[int, np.ndarray] = {loss.index: np.ones((1, 1))}
    for node in reversed(tape.nodes[: loss.index + 1]):
        if node.op == "leaf":
            continue
        g = adjoint.pop(node.index, None)
        if g is None:
            continue
        vals = tuple(_value(x) for x in node.inputs)
        need = tuple(isinstance(x, Var) for x in node.inputs)
        contribs = _BACKWARD[node.op](vals, node.aux, node.value, g, need)
        for inp, contrib in zip(node.inputs, contribs):
            if not isinstance(inp, Var) or contrib is None:
                continue
            seen = adjoint.get(inp.index)
            adjoint[inp.index] = contrib if seen is None else seen + contrib
    out = {}
    for leaf in tape.leaves:
        g = adjoint.get(leaf.index)
        g = np.zeros_like(leaf.value) if g is None else np.asarray(g, dtype=np.float64)
        if not np.isfinite(g).all():
            raise NumericError(f"gradient of leaf {leaf.name!r} is non-finite")
        out[leaf] = g
    return out
