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
}


def _unary(op: str, a: Var, forward: Callable, aux: Optional[dict] = None) -> Var:
    if not isinstance(a, Var):
        raise ContractError(f"{op} expects a tape variable")
    return a.tape._record(op, (a,), aux or {}, forward(a.value))


def _binary(op: str, a: ArrayLike, b: ArrayLike, fits: Callable,
            forward: Callable) -> Var:
    tape = _tape_of(a, b)
    av = a.value if isinstance(a, Var) else _as_matrix(a)
    bv = b.value if isinstance(b, Var) else _as_matrix(b)
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
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if isinstance(a, Var) and rows.size and (rows.min() < 0 or rows.max() >= a.shape[0]):
        raise ShapeError(f"row index out of range for {a.shape[0]} rows")
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
