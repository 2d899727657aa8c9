"""Reverse-mode automatic differentiation over dense float64 matrices.

The design is a flat tape: every operation eagerly computes its value with
numpy and appends a node recording the op name, its inputs and any static
attributes. `grad` walks the tape once in reverse accumulating adjoints.

Every value is a stack of float64 matrices with a leading member axis, one
member per client of equal shape; a lone client is a stack of one.
Products, bias sums and per-member reductions act on the last two axes, so
member m of a stack holds exactly the bits a one-member stack of m alone
would hold, and every loss holds one 1x1 value per member. Ragged ops take
flat row indices into the stacked rows (row r of member m is row m * n + r)
plus a `bounds` table: entries bounds[m]:bounds[m + 1] of the index list
belong to member m. Two values are 2-D: the class-statistics table that
`segment_moments` builds over every member's groups and `diag_gaussian_kl`
reads, and the noise matrix that every member of a `gaussian_sample` shares.
Inputs to an op may be other Vars or plain ndarrays; plain arrays are
closed-over constants that receive no gradient, which is how frozen server
broadcasts enter local losses without being differentiated. A Var refers to
its tape weakly, so reference counting frees a tape once the caller drops
it.

Besides `matmul`, `add`, `reshape` and `clip`, every op is a fused layer
or loss: one tape node with a closed-form backward rule, written in the
arithmetic order of the elementwise chain it stands for, so its gradients
match that chain bit for bit.

- `dense`: x @ W plus a bias row, optionally followed by tanh.
- `softmax_ce`: mean softmax cross entropy over a set of logit rows.
- `gaussian_sample`: the reparameterised draw mu + exp(logvar)^(1/2) * eps.
- `coefficient_penalty`: the filter coefficients' L1 pull toward a
  broadcast plus their elastic-net regulariser.
- `segment_moments`: class-wise [mean | var] of the posterior mixture, over
  row groups validated once as `Segments`.
- `diag_gaussian_kl`: summed KL from diagonal class posteriors to frozen
  full-covariance targets.
- `pair_bce`: mean inner-product decoder BCE over node pairs, one latent
  column at a time, so no (P, d) block is built for its P pairs. The
  forward adds the columns' head-times-tail products in numpy's pairwise
  order for a row sum (`_pairwise_sum`), so the scores are
  np.sum(z[heads] * z[tails], axis=1) bit for bit. The backward scatters
  each column with one stack-wide `np.bincount` over the heads, then
  `np.add.at` over the tails, so each entry sums its head terms in pair
  order, then its tail terms.
- `prior_kl`: mean KL from the per-node posteriors to N(0, I).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ContractError, NumericError, ShapeError

ArrayLike = Union["Var", np.ndarray]


def _as_matrix(value) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    if out.ndim not in (2, 3):
        raise ShapeError(f"expected a matrix or a stack of matrices, got array of"
                         f" ndim {out.ndim}")
    return np.ascontiguousarray(out)


def _nonfinite_members(x: np.ndarray) -> tuple:
    """Leading-axis members of a stack holding a non-finite entry."""
    if np.isfinite(x).all():
        return ()
    return tuple(int(m) for m in np.flatnonzero(~np.isfinite(x).all(axis=(1, 2))))


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


class Tape:
    """Ordered record of one forward computation."""

    def __init__(self):
        self.nodes: list[Var] = []
        self.leaves: list[Var] = []

    def leaf(self, value, name: Optional[str] = None) -> Var:
        """Register a differentiable input: a stack of matrices, one per member."""
        mat = np.array(value, dtype=np.float64, order="C")
        if mat.ndim != 3:
            raise ShapeError(f"leaf {name!r} must be a 3-D stack, got ndim {mat.ndim}")
        bad = _nonfinite_members(mat)
        if bad:
            raise NumericError(f"leaf {name or len(self.leaves)} has non-finite entries",
                               members=bad)
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


def _index_vector(rows, size: int, what: str, of: str = "rows") -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and (rows.min() < 0 or rows.max() >= size):
        raise ShapeError(f"{what} index out of range for {size} {of}")
    return rows


def _bounds(bounds, size: int, what: str) -> np.ndarray:
    """Validated member offsets into an index list of `size` entries."""
    bounds = np.asarray(bounds, dtype=np.int64).reshape(-1)
    if (bounds.size < 2 or bounds[0] != 0 or bounds[-1] != size
            or np.any(np.diff(bounds) < 0)):
        raise ShapeError(f"{what} bounds must rise from 0 to {size}")
    return bounds


def _per_member(bounds: np.ndarray) -> np.ndarray:
    """Member index of every entry of the index list that bounds splits."""
    return np.repeat(np.arange(bounds.size - 1), np.diff(bounds))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so neither branch overflows.

    e = exp(-|x|) is taken as exp(min(x, -x)), which keeps a NaN's sign,
    so every entry, NaN included, has the bits of 1 / (1 + exp(-x)) for
    x >= 0 and exp(x) / (1 + exp(x)) otherwise.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class Segments:
    """Disjoint, nonempty row groups of an n-row matrix, laid out for segment_moments.

    rows lists the members group by group, seg gives each member's group,
    and counts and starts give each group's size and offset in rows.
    """

    n: int
    rows: np.ndarray
    seg: np.ndarray
    counts: np.ndarray
    starts: np.ndarray


def segments(groups, n: int) -> Segments:
    """Validate a sequence of row-index groups once; raises ContractError on
    an empty or overlapping group and ShapeError on a row outside range(n)."""
    counts = np.array([len(rows) for rows in groups], dtype=np.int64)
    if np.any(counts < 1):
        raise ContractError("segment groups must be nonempty")
    rows = _index_vector(np.concatenate(groups) if len(groups) else [], n, "group")
    if np.unique(rows).size != rows.size:
        raise ContractError("segment groups must be disjoint")
    return Segments(int(n), rows, np.repeat(np.arange(counts.size), counts), counts,
                    np.cumsum(counts) - counts)


# Backward rules: given input values, aux, output value, output adjoint and
# which inputs are tape variables, return one adjoint per input (None for
# constant inputs, whose adjoints are never computed).

def _t(x: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (x.T for a matrix)."""
    return np.swapaxes(x, -1, -2)


def _bw_matmul(vals, aux, out, g, need):
    a, b = vals
    return (g @ _t(b) if need[0] else None, _t(a) @ g if need[1] else None)


def _bw_add(vals, aux, out, g, need):
    return (g, g)


def _bw_reshape(vals, aux, out, g, need):
    return (g.reshape(vals[0].shape),)


def _bw_clip(vals, aux, out, g, need):
    inside = (vals[0] > aux["lo"]) & (vals[0] < aux["hi"])
    return (g * inside,)


def _bw_dense(vals, aux, out, g, need):
    x, w, _b = vals
    if aux["tanh"]:
        g = g * (1.0 - out * out)
    return (g @ _t(w) if need[0] else None, _t(x) @ g if need[1] else None,
            g.sum(axis=-2, keepdims=True) if need[2] else None)


def _bw_softmax_ce(vals, aux, out, g, need):
    # d/dlogits of mean(lse - correct): softmax, less 1 at the label, per picked row
    per_row = (g.reshape(-1) * aux["scale"])[aux["member"]][:, None]
    picked = (per_row / aux["z"]) * aux["e"]
    picked[np.arange(picked.shape[0]), aux["labels"]] += per_row[:, 0] * -1.0
    acc = np.zeros_like(vals[0])
    np.add.at(acc.reshape(-1, acc.shape[-1]), aux["rows"], picked)
    return (acc,)


def _bw_gaussian_sample(vals, aux, out, g, need):
    d_logvar = None
    if need[1]:
        d_logvar = (g * aux["eps"]) * 0.5 / aux["std"] * aux["var"]
    return (g if need[0] else None, d_logvar)


def _bw_coefficient_penalty(vals, aux, out, g, need):
    w = vals[0]
    d_w = (g * aux["half_lam2"]) * 2.0 * w
    if aux["diff"] is not None:
        d_w = g * np.sign(aux["diff"]) + d_w
    return (d_w + (g * aux["lam1"]) * np.sign(w),)


def _bw_segment_moments(vals, aux, out, g, need):
    mu, logvar = vals
    groups = aux["segments"]
    d = mu.shape[-1]
    inv = 1.0 / groups.counts[:, None]
    g_mean = (g[:, :d] * inv)[groups.seg]
    g_var = (g[:, d:] * inv)[groups.seg]
    d_mu = d_logvar = None
    # Groups are disjoint, so each row receives exactly one contribution.
    if need[0]:
        d_mu = np.zeros_like(mu)
        d_mu.reshape(-1, d)[groups.rows] = g_mean + 2.0 * g_var * aux["centered"]
    if need[1]:
        d_logvar = np.zeros_like(logvar)
        d_logvar.reshape(-1, d)[groups.rows] = g_var * aux["var_rows"]
    return (d_mu, d_logvar)


def _bw_diag_gaussian_kl(vals, aux, out, g, need):
    stats = vals[0]
    rows, d = aux["rows"], stats.shape[1] // 2
    per_row = g.reshape(-1)[aux["member"]][:, None]
    acc = np.zeros_like(stats)
    acc[rows, :d] = per_row * aux["p_delta"]
    acc[rows, d:] = per_row * 0.5 * (aux["p_diag"] - 1.0 / stats[rows, d:])
    return (acc,)


def _bw_pair_bce(vals, aux, out, g, need):
    z = vals[0]
    d = z.shape[-1]
    bounds, heads, tails = aux["bounds"], aux["heads"], aux["tails"]
    per_pair = (g.reshape(-1) / np.maximum(np.diff(bounds), 1))[_per_member(bounds)]
    coef = per_pair * (_sigmoid(aux["scores"]) - aux["y"])
    # Row heads[i] receives coef[i] times its tail's row and row tails[i]
    # coef[i] times its head's row. Members' rows are disjoint; bincount adds
    # from 0.0 in input order and add.at then adds in input order, so each
    # entry sums its head terms in pair order, then its tail terms.
    cols = z.reshape(-1, d).T.copy()
    acc = np.empty((cols.shape[1], d))
    for c in range(d):
        column = np.bincount(heads, weights=coef * cols[c].take(tails),
                             minlength=cols.shape[1])
        np.add.at(column, tails, coef * cols[c].take(heads))
        acc[:, c] = column
    return (acc.reshape(z.shape),)


def _bw_prior_kl(vals, aux, out, g, need):
    mu, logvar = vals
    per_node = g / mu.shape[-2]
    return (per_node * mu if need[0] else None,
            per_node * 0.5 * (np.exp(logvar) - 1.0) if need[1] else None)


_BACKWARD: dict[str, Callable] = {
    "matmul": _bw_matmul,
    "add": _bw_add,
    "reshape": _bw_reshape,
    "clip": _bw_clip,
    "dense": _bw_dense,
    "softmax_ce": _bw_softmax_ce,
    "gaussian_sample": _bw_gaussian_sample,
    "coefficient_penalty": _bw_coefficient_penalty,
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
    """Matrix product, member by member for stacks of equal length."""
    return _binary("matmul", a, b, lambda sa, sb: len(sa) == len(sb)
                   and sa[:-2] == sb[:-2] and sa[-1] == sb[-2], np.matmul)


def add(a: ArrayLike, b: ArrayLike) -> Var:
    return _binary("add", a, b, lambda sa, sb: sa == sb, np.add)


def reshape(a: Var, shape: tuple) -> Var:
    shape = tuple(int(s) for s in shape)
    if len(shape) not in (2, 3):
        raise ShapeError(f"reshape target must be 2-D or 3-D, got {shape}")
    if int(np.prod(shape)) != a.value.size:
        raise ShapeError(f"cannot reshape {a.value.shape} to {shape}")
    return _unary("reshape", a, lambda x: np.ascontiguousarray(x.reshape(shape)),
                  {"shape": shape})


def clip(a: Var, lo: float, hi: float) -> Var:
    lo, hi = float(lo), float(hi)
    return _unary("clip", a, lambda x: np.clip(x, lo, hi), {"lo": lo, "hi": hi})


def _fused(op: str, operands: tuple, value: np.ndarray, aux: dict) -> Var:
    """Record one node of a fused op over Var or constant-array operands."""
    tape = _tape_of(*operands)
    inputs = tuple(x if isinstance(x, Var) else _as_matrix(x) for x in operands)
    return tape._record(op, inputs, aux, value)


def _member_count(value: np.ndarray, bounds: np.ndarray, what: str) -> None:
    if value.ndim != 3 or bounds.size - 1 != value.shape[0]:
        raise ShapeError(f"{what} bounds split {bounds.size - 1} members,"
                         f" the value has shape {value.shape}")


def _sums(x: np.ndarray) -> np.ndarray:
    """Sum of each member's last two axes, kept as a 1x1 per member."""
    return x.sum(axis=(-2, -1), keepdims=True)


def dense(x: ArrayLike, w: ArrayLike, b: ArrayLike, tanh: bool = False) -> Var:
    """x @ w plus the 1 x k row b added to every row, then tanh when asked."""
    xv, wv, bv = _matrix(x), _matrix(w), _matrix(b)
    if (xv.shape[:-2] != wv.shape[:-2] or bv.shape[:-2] != wv.shape[:-2]
            or xv.shape[-1] != wv.shape[-2] or bv.shape[-2:] != (1, wv.shape[-1])):
        raise ShapeError(f"dense mismatch: x {xv.shape}, w {wv.shape}, b {bv.shape}")
    value = np.add(np.matmul(xv, wv), bv)
    if tanh:
        value = np.tanh(value)
    return _fused("dense", (x, w, b), value, {"tanh": bool(tanh)})


def softmax_ce(logits: Var, rows, labels, bounds) -> Var:
    """Mean softmax cross entropy of logits[rows] against class labels,
    one mean per member.

    rows may repeat; labels holds one class index per entry of rows, and
    every member needs at least one. Each row is shifted by its own
    maximum, a frozen constant, before exp.
    """
    lv = _matrix(logits)
    classes = lv.shape[-1]
    flat = lv.reshape(-1, classes)
    rows = _index_vector(rows, flat.shape[0], "row")
    bounds = _bounds(bounds, rows.size, "row")
    _member_count(lv, bounds, "row")
    labels = _index_vector(labels, classes, "label", of="classes")
    counts = np.diff(bounds)
    if counts.min() == 0 or labels.size != rows.size:
        raise ShapeError(f"need {rows.size} labels for at least one row per member,"
                         f" got {labels.size}")
    picked = flat[rows]
    shift = picked.max(axis=1, keepdims=True)
    sum_cols = np.ones((classes, 1))
    e = np.exp(picked - shift)
    z = e @ sum_cols
    lse = np.log(z) + shift
    correct = picked[np.arange(rows.size), labels][:, None]
    terms = np.add(lse, correct * -1.0)
    scale = 1.0 / counts
    value = np.array([terms[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]) * scale
    return _fused("softmax_ce", (logits,), value.reshape(-1, 1, 1),
                  {"rows": rows, "labels": labels, "e": e, "z": z, "scale": scale,
                   "member": _per_member(bounds)})


def gaussian_sample(mu: ArrayLike, logvar: ArrayLike, eps) -> Var:
    """Reparameterised draw mu + sqrt(exp(logvar)) * eps with fixed noise: one
    matrix eps that every member of the stack shares."""
    mu_v, lv_v = _matrix(mu), _matrix(logvar)
    eps = _as_matrix(eps)
    if lv_v.shape != mu_v.shape or eps.shape != mu_v.shape[-2:]:
        raise ShapeError(f"gaussian_sample mismatch: mu {mu_v.shape},"
                         f" logvar {lv_v.shape}, eps {eps.shape}")
    var = np.exp(lv_v)
    std = np.sqrt(var)
    return _fused("gaussian_sample", (mu, logvar), np.add(mu_v, std * eps),
                  {"eps": eps, "std": std, "var": var})


def coefficient_penalty(w: ArrayLike, w_bar, lam1: float, lam2: float) -> Var:
    """sum|w - w_bar| + lam1 * sum|w| + (lam2 / 2) * sum w^2 per member, as one node.

    The first term is left out when w_bar is None. Its subgradient is 0
    where w equals w_bar, and the L1 term's is 0 where w is 0.
    """
    wv = _matrix(w)
    lam1, half_lam2 = float(lam1), float(0.5 * lam2)
    value = _sums(np.abs(wv)) * lam1 + _sums(np.square(wv)) * half_lam2
    diff = None
    if w_bar is not None:
        target = np.asarray(w_bar, dtype=np.float64)
        if target.size != wv.size:
            raise ShapeError(f"w_bar has {target.size} entries, w has {wv.size}")
        diff = wv - target.reshape(wv.shape)
        value = _sums(np.abs(diff)) + value
    return _fused("coefficient_penalty", (w,), value,
                  {"diff": diff, "lam1": lam1, "half_lam2": half_lam2})


def segment_moments(mu: ArrayLike, logvar: ArrayLike, groups: Segments) -> Var:
    """Mixture moments [mean | var] of diagonal Gaussians, one row per group.

    Row c holds the mean of mu over group c and the mixture variance: the
    mean of exp(logvar) plus the population variance of mu, computed about
    the group mean (so a one-row group has exactly its own variance). The
    groups index the flat stacked rows, and the value is one 2-D table over
    every member's groups.
    """
    mu_v, lv_v = _matrix(mu), _matrix(logvar)
    d = mu_v.shape[-1]
    if lv_v.shape != mu_v.shape or groups.n * d != mu_v.size:
        raise ShapeError(f"mu {mu_v.shape} and logvar {lv_v.shape} do not match"
                         f" segments over {groups.n} rows")
    counts = groups.counts
    picked = mu_v.reshape(-1, d)[groups.rows]
    var_rows = np.exp(lv_v.reshape(-1, d)[groups.rows])
    value = np.zeros((counts.size, 2 * d))
    centered = picked
    if counts.size:
        inv = 1.0 / counts[:, None]
        mean = np.add.reduceat(picked, groups.starts, axis=0) * inv
        centered = picked - mean[groups.seg]
        spread = np.add.reduceat(var_rows + centered * centered, groups.starts,
                                 axis=0) * inv
        value = np.concatenate([mean, spread], axis=1)
    return _fused("segment_moments", (mu, logvar), value,
                  {"segments": groups, "centered": centered, "var_rows": var_rows})


def diag_gaussian_kl(stats: Var, rows, means: np.ndarray, precisions: np.ndarray,
                     logdets: np.ndarray, bounds) -> Var:
    """Sum over k of KL(N(mean_k, diag var_k) || N(means[k], precisions[k]^-1)).

    stats is the (C, 2d) [mean | var] table and rows picks, for each frozen
    target k, the distinct stats row it is compared with. precisions must
    be symmetric and logdets are the targets' covariance log-determinants.
    Targets bounds[m]:bounds[m + 1] belong to member m, and the value holds
    one sum per member (0 for a member without targets). A nonpositive
    variance raises NumericError naming its members.
    """
    sv = _matrix(stats)
    d = sv.shape[-1] // 2
    rows = _index_vector(rows, sv.shape[0], "stats")
    if np.unique(rows).size != rows.size:
        raise ContractError("diag_gaussian_kl rows must be distinct")
    means = np.asarray(means, dtype=np.float64)
    precisions = np.asarray(precisions, dtype=np.float64)
    logdets = np.asarray(logdets, dtype=np.float64).reshape(-1)
    k = rows.size
    if (means.shape != (k, d) or precisions.shape != (k, d, d)
            or logdets.shape != (k,) or sv.shape != (sv.shape[0], 2 * d)):
        raise ShapeError(f"targets {means.shape}, {precisions.shape}, {logdets.shape}"
                         f" do not match {k} rows of stats {sv.shape}")
    bounds = _bounds(bounds, k, "target")
    member = _per_member(bounds)
    var = sv[rows, d:]
    nonpositive = np.any(var <= 0, axis=1)
    if nonpositive.any():
        raise NumericError("diagonal class variances must be positive",
                           members=np.unique(member[nonpositive]))
    delta = sv[rows, :d] - means
    p_delta = np.matmul(precisions, delta[:, :, None])[:, :, 0]
    p_diag = np.diagonal(precisions, axis1=1, axis2=2)
    trace, quad, log_var = var * p_diag, delta * p_delta, np.log(var)
    value = np.array([0.5 * (np.sum(trace[a:b]) + np.sum(quad[a:b]) - (b - a) * d
                             + np.sum(logdets[a:b]) - np.sum(log_var[a:b]))
                      for a, b in zip(bounds[:-1], bounds[1:])])
    return _fused("diag_gaussian_kl", (stats,), value.reshape(-1, 1, 1),
                  {"rows": rows, "p_delta": p_delta, "p_diag": p_diag, "member": member})


def _pairwise_sum(term: Callable, lo: int, n: int) -> np.ndarray:
    """term(lo) + ... + term(lo + n - 1) in numpy's pairwise order for a row sum.

    Below 8 terms they are added one after another; from 8 to 128, eight
    accumulators take every eighth term and are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the remainder
    is added; above 128 the terms split at n / 2 rounded down to a multiple
    of 8 and each half is summed the same way. 0.0 plus the result is then
    np.sum over those n columns of a row, bit for bit. Each accumulator is
    built whole and every pair is added as soon as both exist, so only a
    few term-sized arrays are alive at once.
    """
    if n < 8:
        total = term(lo)
        for c in range(lo + 1, lo + n):
            total += term(c)
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(term, lo, half) + _pairwise_sum(term, lo + half, n - half)
    whole = lo + n - n % 8

    def accumulator(j: int) -> np.ndarray:
        r = term(lo + j)
        for c in range(lo + j + 8, whole, 8):
            r += term(c)
        return r

    total = (((accumulator(0) + accumulator(1)) + (accumulator(2) + accumulator(3)))
             + ((accumulator(4) + accumulator(5)) + (accumulator(6) + accumulator(7))))
    for c in range(whole, lo + n):
        total += term(c)
    return total


def pair_bce(z: Var, pairs, y, bounds) -> Var:
    """Mean binary cross entropy of inner-product scores z_i . z_j over pairs,
    one mean per member (0 for a member without pairs).

    pairs is a (P, 2) array of flat row indices with P >= 1, and y the (P,)
    0/1 targets. The indices are not checked here: the caller validates
    them (each client's edges once, its sampled non-edges per draw).
    """
    zv = _matrix(z)
    d = zv.shape[-1]
    if d == 0:
        raise ShapeError(f"pair_bce needs a latent column, got z of shape {zv.shape}")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if pairs.shape[0] == 0 or y.size != pairs.shape[0]:
        raise ShapeError(f"need one target per pair and at least one pair,"
                         f" got {y.size} targets for {pairs.shape[0]} pairs")
    bounds = _bounds(bounds, pairs.shape[0], "pair")
    _member_count(zv, bounds, "pair")
    heads, tails = pairs.T.copy()
    cols = zv.reshape(-1, d).T.copy()
    scores = 0.0 + _pairwise_sum(lambda c: cols[c].take(heads) * cols[c].take(tails),
                                 0, d)
    terms = np.logaddexp(0.0, scores) - y * scores
    value = np.zeros(bounds.size - 1)
    for m, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if a < b:
            value[m] = np.mean(terms[a:b])
    return _fused("pair_bce", (z,), value.reshape(-1, 1, 1),
                  {"heads": heads, "tails": tails, "y": y, "scores": scores,
                   "bounds": bounds})


def prior_kl(mu: ArrayLike, logvar: ArrayLike) -> Var:
    """Mean over rows of KL(N(mu_i, diag exp(logvar_i)) || N(0, I)), per member."""
    mu_v, lv_v = _matrix(mu), _matrix(logvar)
    if mu_v.shape != lv_v.shape:
        raise ShapeError(f"prior_kl mismatch: {mu_v.shape} and {lv_v.shape}")
    inner = mu_v * mu_v + np.exp(lv_v) - lv_v - 1.0
    return _fused("prior_kl", (mu, logvar), 0.5 * _sums(inner) / mu_v.shape[-2], {})


def grad(tape: Tape, loss: Var) -> dict:
    """Return the gradient of a loss with respect to every leaf.

    The loss holds one 1x1 value per member of the stack, and every
    member's loss is differentiated with weight 1. Leaves that do not
    influence the loss map to zero arrays of their shape. A non-finite
    gradient raises NumericError naming every member that holds one.
    """
    if not isinstance(loss, Var) or loss.tape is not tape:
        raise ContractError("loss must be a variable recorded on this tape")
    if loss.value.ndim != 3 or loss.value.shape[1:] != (1, 1):
        raise ShapeError(f"loss must be one 1x1 value per member, got {loss.value.shape}")
    adjoint: dict[int, np.ndarray] = {loss.index: np.ones_like(loss.value)}
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
    bad: dict = {}
    for leaf in tape.leaves:
        g = adjoint.get(leaf.index)
        g = np.zeros_like(leaf.value) if g is None else np.asarray(g, dtype=np.float64)
        members = _nonfinite_members(g)
        if members:
            bad[leaf.name] = members
        out[leaf] = g
    if bad:
        raise NumericError(f"gradient of leaf {next(iter(bad))!r} is non-finite",
                           members=sorted({m for ms in bad.values() for m in ms}))
    return out
