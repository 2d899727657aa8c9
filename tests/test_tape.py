"""Autodiff engine checks: forward values against loop oracles, gradients
against central finite differences (every backward rule included),
deterministic gradients, tape lifetime, and error paths."""

import gc
import inspect
import weakref

import numpy as np
import pytest

from fedssa import tape as tp
from fedssa.errors import ContractError, NumericError, ShapeError
from helpers import central_diff, naive_matmul, random_spd, rel_err

# --- forward values -----------------------------------------------------------


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        t = tp.Tape()
        va = t.leaf(a, "a")
        vb = t.leaf(b, "b")
        out = tp.matmul(va, vb)
        assert rel_err(out.value, naive_matmul(a, b)) < 1e-12


def test_elementwise_forward_values():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    t = tp.Tape()
    v = t.leaf(x, "x")
    assert np.allclose(tp.exp(v).value, np.exp(x))
    assert np.allclose(tp.tanh(v).value, np.tanh(x))
    assert np.allclose(tp.square(v).value, x * x)
    assert np.allclose(tp.absval(v).value, np.abs(x))
    assert np.allclose(tp.sigmoid(v).value, 1.0 / (1.0 + np.exp(-x)))
    assert np.allclose(tp.softplus(v).value, np.logaddexp(0.0, x))
    assert np.allclose(tp.mean_rows(v).value, x.mean(axis=0, keepdims=True))
    assert np.allclose(tp.sum_all(v).value, np.array([[x.sum()]]))


def test_take_rows_and_add_row_forward_values():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    b = rng.standard_normal((1, 3))
    t = tp.Tape()
    v = t.leaf(x, "x")
    rows = [2, 0, 2, 3]
    assert np.array_equal(tp.take_rows(v, rows).value, x[rows])
    assert np.array_equal(tp.add_row(v, t.leaf(b, "b")).value, x + np.ones((4, 1)) @ b)
    assert np.array_equal(tp.add_row(v, b).value, x + b)


def _fused_inputs(seed=16):
    """Posterior rows, class groups, [mean | var] stats, KL targets and pairs."""
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((7, 3))
    logvar = 0.5 * rng.standard_normal((7, 3))
    groups = [np.array([4, 0]), np.array([2]), np.array([5, 1, 3])]
    stats = np.concatenate([rng.standard_normal((3, 3)), 0.5 + rng.random((3, 3))], axis=1)
    covs = np.stack([random_spd(rng, 3) for _ in range(2)])
    targets = (np.array([2, 0]), rng.standard_normal((2, 3)), np.linalg.inv(covs),
               np.linalg.slogdet(covs)[1])
    pairs = np.array([[0, 1], [1, 2], [0, 1], [4, 3], [2, 2], [6, 0]])
    y = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    return mu, logvar, groups, stats, covs, targets, pairs, y


def test_fused_ops_forward_match_loop_oracles():
    mu, logvar, groups, stats, covs, targets, pairs, y = _fused_inputs()
    t = tp.Tape()
    m, lv, st = t.leaf(mu, "mu"), t.leaf(logvar, "logvar"), t.leaf(stats, "stats")
    moments = tp.segment_moments(m, lv, groups).value
    for c, rows in enumerate(groups):
        mean = sum(mu[r] for r in rows) / len(rows)
        var = sum(np.exp(logvar[r]) + (mu[r] - mean) ** 2 for r in rows) / len(rows)
        assert rel_err(moments[c], np.concatenate([mean, var])) < 1e-12
    rows, means, precisions, logdets = targets
    want = 0.0
    for k, r in enumerate(rows):
        mean, var = stats[r, :3], stats[r, 3:]
        delta = means[k] - mean
        want += 0.5 * (np.trace(np.linalg.solve(covs[k], np.diag(var)))
                       + delta @ np.linalg.solve(covs[k], delta) - 3
                       + np.linalg.slogdet(covs[k])[1] - np.sum(np.log(var)))
    got = tp.diag_gaussian_kl(st, rows, means, precisions, logdets).value[0, 0]
    assert got == pytest.approx(want, rel=1e-12)
    bce = [np.logaddexp(0.0, mu[i] @ mu[j]) - yk * (mu[i] @ mu[j])
           for (i, j), yk in zip(pairs, y)]
    assert tp.pair_bce(m, pairs, y).value[0, 0] == pytest.approx(np.mean(bce), rel=1e-12)
    prior = [0.5 * np.sum(mu[i] ** 2 + np.exp(logvar[i]) - logvar[i] - 1.0)
             for i in range(mu.shape[0])]
    assert tp.prior_kl(m, lv).value[0, 0] == pytest.approx(np.mean(prior), rel=1e-12)


def test_sigmoid_is_stable_for_large_inputs():
    t = tp.Tape()
    v = t.leaf(np.array([[800.0, -800.0]]), "x")
    out = tp.sigmoid(v).value
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(0.0)


def test_softplus_is_stable_for_large_inputs():
    t = tp.Tape()
    v = t.leaf(np.array([[800.0, -800.0]]), "x")
    out = tp.softplus(v).value
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(800.0)
    assert out[0, 1] == pytest.approx(0.0)


# --- gradient battery against finite differences ------------------------------


def _grad_check(build, arrays, tol=1e-6):
    """build(tape, {name: Var}) -> scalar Var; compares grad to central FD."""

    def run_value(vals):
        t = tp.Tape()
        leaves = {k: t.leaf(v, k) for k, v in vals.items()}
        return float(build(t, leaves).value[0, 0])

    t = tp.Tape()
    leaves = {k: t.leaf(v, k) for k, v in arrays.items()}
    loss = build(t, leaves)
    got = tp.grad(t, loss)
    want = central_diff(lambda vals: run_value(vals), arrays)
    worst = max(rel_err(got[leaves[k]], want[k]) for k in arrays)
    assert worst < tol, f"gradient mismatch {worst}"


def test_grad_matmul_chain():
    rng = np.random.default_rng(2)
    arrays = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 2))}
    _grad_check(lambda t, lv: tp.sum_all(tp.matmul(lv["a"], lv["b"])), arrays)


def test_grad_add_mul_scale():
    rng = np.random.default_rng(3)
    arrays = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 3))}
    _grad_check(
        lambda t, lv: tp.sum_all(tp.scale(tp.mul(tp.add(lv["a"], lv["b"]), lv["a"]), 0.7)),
        arrays)


def test_grad_transpose_reshape():
    rng = np.random.default_rng(4)
    arrays = {"a": rng.standard_normal((2, 6))}
    _grad_check(
        lambda t, lv: tp.sum_all(tp.square(tp.reshape(tp.transpose(lv["a"]), (3, 4)))),
        arrays)


def test_grad_log_exp_sqrt():
    rng = np.random.default_rng(5)
    arrays = {"a": rng.standard_normal((3, 3))}

    def build(t, lv):
        pos = tp.add(tp.softplus(lv["a"]), 0.1 * np.ones((3, 3)))
        return tp.sum_all(tp.add(tp.add(tp.log(pos), tp.sqrt(pos)),
                                 tp.exp(tp.scale(lv["a"], 0.5))))

    _grad_check(build, arrays)


def test_grad_tanh_sigmoid_softplus_mean():
    rng = np.random.default_rng(6)
    arrays = {"a": rng.standard_normal((4, 3))}
    _grad_check(
        lambda t, lv: tp.sum_all(tp.mean_rows(
            tp.mul(tp.tanh(lv["a"]), tp.sigmoid(tp.softplus(lv["a"]))))),
        arrays)


def test_grad_absval_away_from_kink():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    a[np.abs(a) < 0.2] = 0.5
    _grad_check(lambda t, lv: tp.sum_all(tp.absval(lv["a"])), {"a": a})


def test_grad_clip_strict_interior_and_exterior():
    a = np.array([[-2.0, -0.5, 0.3, 0.9, 2.5]])
    t = tp.Tape()
    v = t.leaf(a, "a")
    loss = tp.sum_all(tp.clip(v, -1.0, 1.0))
    g = tp.grad(t, loss)[v]
    assert np.array_equal(g, np.array([[0.0, 1.0, 1.0, 1.0, 0.0]]))


def test_grad_unused_leaf_is_zero():
    t = tp.Tape()
    a = t.leaf(np.ones((2, 2)), "a")
    b = t.leaf(np.ones((3, 1)), "b")
    loss = tp.sum_all(tp.square(a))
    g = tp.grad(t, loss)
    assert np.array_equal(g[b], np.zeros((3, 1)))
    assert np.array_equal(g[a], 2.0 * np.ones((2, 2)))


def test_grad_leaf_used_twice_accumulates():
    arrays = {"a": np.array([[1.5, -0.4], [0.2, 2.0]])}
    _grad_check(lambda t, lv: tp.sum_all(tp.mul(lv["a"], lv["a"])), arrays)


def test_grad_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3))
    const = rng.standard_normal((3, 2))
    t = tp.Tape()
    v = t.leaf(a, "a")
    loss = tp.sum_all(tp.matmul(v, const))
    g = tp.grad(t, loss)
    assert set(g.keys()) == {v}
    want = central_diff(lambda vals: float(vals["a"] @ const @ np.ones((2, 1))
                                           @ np.ones((1, 1))
                                           if False else (vals["a"] @ const).sum()),
                        {"a": a})
    assert rel_err(g[v], want["a"]) < 1e-6


def test_grad_take_rows_repeated_and_out_of_order():
    rng = np.random.default_rng(12)
    arrays = {"a": rng.standard_normal((5, 3)), "m": rng.standard_normal((3, 2))}
    _grad_check(lambda t, lv: tp.sum_all(tp.tanh(tp.matmul(
        tp.take_rows(lv["a"], [4, 1, 4, 0, 1, 4]), lv["m"]))), arrays)


def test_grad_take_rows_single_row():
    rng = np.random.default_rng(13)
    arrays = {"a": rng.standard_normal((4, 3))}
    _grad_check(lambda t, lv: tp.sum_all(tp.square(tp.take_rows(lv["a"], [2]))), arrays)


def test_grad_add_row_bias():
    rng = np.random.default_rng(14)
    arrays = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal((1, 3))}
    _grad_check(lambda t, lv: tp.sum_all(tp.mul(tp.tanh(tp.add_row(lv["a"], lv["b"])),
                                                tp.add_row(lv["a"], lv["b"]))), arrays)


def test_grad_add_row_constant_sides():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((1, 3))
    _grad_check(lambda t, lv: tp.sum_all(tp.square(tp.add_row(lv["a"], b))), {"a": a})
    _grad_check(lambda t, lv: tp.sum_all(tp.square(tp.add_row(a, lv["b"]))), {"b": b})


def test_grad_segment_moments():
    mu, logvar, groups, *_ = _fused_inputs(17)
    weights = np.random.default_rng(18).standard_normal((3, 6))
    _grad_check(lambda t, lv: tp.sum_all(tp.mul(tp.tanh(
        tp.segment_moments(lv["mu"], lv["logvar"], groups)), weights)),
        {"mu": mu, "logvar": logvar}, tol=1e-4)
    # constant log-variances: only the means side is differentiated
    _grad_check(lambda t, lv: tp.sum_all(tp.mul(
        tp.segment_moments(lv["mu"], logvar, groups), weights)), {"mu": mu}, tol=1e-4)


def test_grad_diag_gaussian_kl():
    *_, stats, _covs, (rows, means, precisions, logdets), _pairs, _y = _fused_inputs(19)
    _grad_check(lambda t, lv: tp.diag_gaussian_kl(lv["stats"], rows, means, precisions,
                                                  logdets), {"stats": stats}, tol=1e-4)


def test_grad_diag_gaussian_kl_through_segment_moments():
    mu, logvar, groups, _stats, _covs, (rows, means, precisions, logdets), *_ = \
        _fused_inputs(20)
    _grad_check(lambda t, lv: tp.diag_gaussian_kl(
        tp.segment_moments(lv["mu"], lv["logvar"], groups), rows, means, precisions,
        logdets), {"mu": mu, "logvar": logvar}, tol=1e-4)


def test_grad_pair_bce_with_repeated_and_self_pairs():
    mu, *_, pairs, y = _fused_inputs(21)
    _grad_check(lambda t, lv: tp.pair_bce(lv["z"], pairs, y), {"z": mu}, tol=1e-4)


def test_grad_prior_kl():
    mu, logvar, *_ = _fused_inputs(22)
    _grad_check(lambda t, lv: tp.prior_kl(lv["mu"], lv["logvar"]),
                {"mu": mu, "logvar": logvar}, tol=1e-4)
    _grad_check(lambda t, lv: tp.prior_kl(mu, lv["logvar"]), {"logvar": logvar}, tol=1e-4)


def test_every_backward_rule_is_gradient_checked(monkeypatch):
    # Runs this module's unparametrised test_grad_* checks and collects the
    # ops of every tape they differentiate; an op without a check fails here.
    seen = set()
    real_grad = tp.grad

    def recording_grad(tape, loss):
        out = real_grad(tape, loss)
        seen.update(node.op for node in tape.nodes)
        return out

    monkeypatch.setattr(tp, "grad", recording_grad)
    checks = [fn for name, fn in sorted(globals().items())
              if name.startswith("test_grad_") and not inspect.signature(fn).parameters]
    for check in checks:
        check()
    assert set(tp._BACKWARD) - seen == set()


def test_constant_operand_adjoint_is_not_computed():
    a = np.ones((2, 3))
    b = np.ones((3, 4))
    g = np.ones((2, 4))
    ga, gb = tp._BACKWARD["matmul"]((a, b), {}, a @ b, g, (True, False))
    assert gb is None and np.array_equal(ga, g @ b.T)
    ga, gb = tp._BACKWARD["mul"]((a, a), {}, a * a, np.ones((2, 3)), (False, True))
    assert ga is None and np.array_equal(gb, a)


RANDOM_OPS = ("add", "mul", "tanh", "sigmoid", "softplus", "square",
              "scale", "transpose", "exp_damped", "log_safe", "sqrt_safe",
              "absval", "matmul_const", "take_rows", "add_row")


def _random_composition(rng):
    """Random chain of 6 ops over two leaves, reduced to a scalar."""
    shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    a0 = rng.standard_normal(shape)
    b0 = rng.standard_normal(shape)
    ops = [RANDOM_OPS[int(rng.integers(len(RANDOM_OPS)))] for _ in range(6)]
    consts = {i: rng.standard_normal() for i in range(6)}
    # Row draws, reduced modulo the row count at build time; repeats and
    # out-of-order rows are the common case.
    row_draws = {i: rng.integers(0, 1 << 30, size=int(rng.integers(1, 6))) for i in range(6)}
    mats = {}

    def build(t, lv):
        x = lv["a"]
        other = lv["b"]
        for i, op in enumerate(ops):
            if op == "add":
                x = tp.add(x, other) if x.shape == other.shape else tp.tanh(x)
            elif op == "mul":
                x = tp.mul(x, other) if x.shape == other.shape else tp.sigmoid(x)
            elif op == "scale":
                x = tp.scale(x, consts[i])
            elif op == "transpose":
                x = tp.transpose(x)
            elif op == "exp_damped":
                x = tp.exp(tp.scale(tp.tanh(x), 0.5))
            elif op == "log_safe":
                x = tp.log(tp.add(tp.softplus(x), 0.1 * np.ones(x.shape)))
            elif op == "sqrt_safe":
                x = tp.sqrt(tp.add(tp.square(x), 0.1 * np.ones(x.shape)))
            elif op == "matmul_const":
                key = (i, x.shape[1])
                if key not in mats:
                    mats[key] = np.random.default_rng(100 + i).standard_normal(
                        (x.shape[1], x.shape[1]))
                x = tp.matmul(x, mats[key])
            elif op == "take_rows":
                x = tp.take_rows(x, row_draws[i] % x.shape[0])
            elif op == "add_row":
                if x.shape[1] == other.shape[1]:
                    row = tp.take_rows(other, row_draws[i][:1] % other.shape[0])
                else:
                    row = np.full((1, x.shape[1]), consts[i])
                x = tp.add_row(x, row)
            else:
                x = getattr(tp, op)(x)
        return tp.sum_all(tp.mean_rows(x))

    return build, {"a": a0, "b": b0}


@pytest.mark.parametrize("seed", range(25))
def test_grad_random_composition_battery(seed):
    rng = np.random.default_rng(1000 + seed)
    build, arrays = _random_composition(rng)
    _grad_check(build, arrays, tol=1e-4)


# --- determinism ------------------------------------------------------------------


def test_grad_is_deterministic():
    rng = np.random.default_rng(10)
    build, arrays = _random_composition(rng)
    t = tp.Tape()
    leaves = {k: t.leaf(v, k) for k, v in arrays.items()}
    loss = build(t, leaves)
    g1 = tp.grad(t, loss)
    g2 = tp.grad(t, loss)
    for leaf in leaves.values():
        assert g1[leaf].tobytes() == g2[leaf].tobytes()


# --- tape lifetime ----------------------------------------------------------------


def test_finished_tape_is_freed_by_reference_counting():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = tp.Tape()
        a = t.leaf(np.ones((3, 2)), "a")
        loss = tp.sum_all(tp.square(tp.add_row(a, np.ones((1, 2)))))
        grads = tp.grad(t, loss)
        alive = weakref.ref(t)
        del t, a, loss, grads
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def test_var_of_freed_tape_raises():
    t = tp.Tape()
    a = t.leaf(np.ones((2, 2)), "a")
    del t
    with pytest.raises(ContractError):
        tp.square(a)


# --- error paths ----------------------------------------------------------------


def test_leaf_rejects_bad_inputs():
    t = tp.Tape()
    with pytest.raises(ShapeError):
        t.leaf(np.ones(3), "vec")
    with pytest.raises(NumericError):
        t.leaf(np.array([[np.nan]]), "nan")


def test_matmul_shape_mismatch():
    t = tp.Tape()
    a = t.leaf(np.ones((2, 3)), "a")
    b = t.leaf(np.ones((2, 3)), "b")
    with pytest.raises(ShapeError):
        tp.matmul(a, b)


def test_log_rejects_nonpositive():
    t = tp.Tape()
    a = t.leaf(np.array([[0.0, 1.0]]), "a")
    with pytest.raises(NumericError):
        tp.log(a)


def test_sqrt_rejects_negative():
    t = tp.Tape()
    a = t.leaf(np.array([[-1e-12]]), "a")
    with pytest.raises(NumericError):
        tp.sqrt(a)


def test_grad_requires_scalar_loss():
    t = tp.Tape()
    a = t.leaf(np.ones((2, 2)), "a")
    out = tp.square(a)
    with pytest.raises(ShapeError):
        tp.grad(t, out)


def test_grad_rejects_foreign_tape():
    t1 = tp.Tape()
    t2 = tp.Tape()
    a = t1.leaf(np.ones((1, 1)), "a")
    loss = tp.sum_all(a)
    with pytest.raises(ContractError):
        tp.grad(t2, loss)


def test_take_rows_rejects_out_of_range():
    t = tp.Tape()
    a = t.leaf(np.ones((3, 2)), "a")
    with pytest.raises(ShapeError):
        tp.take_rows(a, [0, 3])
    with pytest.raises(ShapeError):
        tp.take_rows(a, [-1])


def test_add_row_rejects_non_row_bias():
    t = tp.Tape()
    a = t.leaf(np.ones((3, 2)), "a")
    with pytest.raises(ShapeError):
        tp.add_row(a, np.ones((3, 2)))
    with pytest.raises(ShapeError):
        tp.add_row(a, t.leaf(np.ones((1, 3)), "b"))


def test_mixing_tapes_raises():
    t1 = tp.Tape()
    t2 = tp.Tape()
    a = t1.leaf(np.ones((2, 2)), "a")
    b = t2.leaf(np.ones((2, 2)), "b")
    with pytest.raises(ContractError):
        tp.add(a, b)


def test_fused_ops_reject_bad_inputs():
    mu, logvar, _groups, stats, _covs, (rows, means, precisions, logdets), pairs, y = \
        _fused_inputs()
    t = tp.Tape()
    m, lv = t.leaf(mu, "mu"), t.leaf(logvar, "logvar")
    with pytest.raises(ContractError):
        tp.segment_moments(m, lv, [np.array([0, 1]), np.array([1])])
    with pytest.raises(ContractError):
        tp.segment_moments(m, lv, [np.array([0]), np.array([], dtype=np.int64)])
    with pytest.raises(ShapeError):
        tp.segment_moments(m, lv, [np.array([7])])
    with pytest.raises(ShapeError):
        tp.segment_moments(m, t.leaf(logvar[:, :2], "short"), [np.array([0])])
    assert tp.segment_moments(m, lv, []).shape == (0, 6)
    with pytest.raises(ShapeError):
        tp.pair_bce(m, pairs[:0], y[:0])
    with pytest.raises(ShapeError):
        tp.pair_bce(m, pairs, y[:-1])
    st = t.leaf(stats, "stats")
    with pytest.raises(ShapeError):
        tp.diag_gaussian_kl(st, rows, means[:, :2], precisions, logdets)
    with pytest.raises(ContractError):
        tp.diag_gaussian_kl(st, [0, 0], means, precisions, logdets)
    bad = stats.copy()
    bad[rows[0], 4] = 0.0
    with pytest.raises(NumericError):
        tp.diag_gaussian_kl(t.leaf(bad, "bad"), rows, means, precisions, logdets)
