"""Autodiff engine checks: forward values against loop oracles, gradients
against central finite differences (every backward rule included),
deterministic gradients, tape lifetime, and error paths."""

import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from fedssa import tape as tp
from fedssa.errors import ContractError, NumericError, ShapeError
from helpers import (central_diff, masked_sigmoid, naive_matmul, onehot_softmax_ce, random_spd,
                     rel_err, slot_pair_bce)

# --- forward values -----------------------------------------------------------


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        t = tp.Tape()
        va = t.leaf(a[None], "a")
        vb = t.leaf(b[None], "b")
        out = tp.matmul(va, vb)
        assert rel_err(out.value[0], naive_matmul(a, b)) < 1e-12


def _total(x):
    """Sum of every entry of each member of a stack, as two matmuls with constants."""
    members, rows, cols = x.shape
    return tp.matmul(tp.matmul(np.ones((members, 1, rows)), x), np.ones((members, cols, 1)))


def _stack(x):
    """A 2-D class-statistics table as a one-member stack."""
    return tp.reshape(x, (1,) + x.shape)


def test_elementwise_forward_values():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))
    eps = rng.standard_normal((3, 4))
    t = tp.Tape()
    v, w = t.leaf(x[None], "x"), t.leaf(y[None], "y")
    assert np.array_equal(tp.add(v, w).value[0], x + y)
    assert np.array_equal(tp.clip(v, -0.5, 0.5).value[0], np.clip(x, -0.5, 0.5))
    assert np.array_equal(tp.gaussian_sample(v, w, eps).value[0],
                          x + np.sqrt(np.exp(y)) * eps)


def _ce_loop(logits, rows, labels):
    """Mean over rows of logsumexp(logits[r]) - logits[r, label], one row at a time."""
    total = 0.0
    for r, label in zip(rows, labels):
        shift = max(logits[r])
        total += shift + np.log(sum(np.exp(v - shift) for v in logits[r])) - logits[r][label]
    return total / len(rows)


def test_fused_layer_ops_forward_match_unfused_chains():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal((1, 4))
    t = tp.Tape()
    xv, wv, bv = t.leaf(x[None], "x"), t.leaf(w[None], "w"), t.leaf(b[None], "b")
    # the unfused chains: matmul, then add_row, then tanh
    assert np.array_equal(tp.dense(xv, wv, bv).value[0], np.add(x @ w, b))
    assert np.array_equal(tp.dense(x[None], wv, bv, tanh=True).value[0],
                          np.tanh(np.add(x @ w, b)))
    rows = np.array([4, 1, 4, 0])
    labels = np.array([2, 0, 2, 3])
    logits = 3.0 * rng.standard_normal((5, 4))
    got = tp.softmax_ce(t.leaf(logits[None], "logits"), rows, labels, [0, 4]).value[0, 0, 0]
    assert got == pytest.approx(_ce_loop(logits, rows, labels), rel=1e-12)
    coeffs = np.array([[0.5, -1.5, 0.0, 2.0]])
    w_bar = np.array([0.5, 1.0, -0.25, 1.5])
    wc = t.leaf(coeffs[None], "coeffs")
    reg = 0.3 * np.sum(np.abs(coeffs)) + 0.35 * np.sum(coeffs ** 2)
    assert tp.coefficient_penalty(wc, None, 0.3, 0.7).value[0, 0, 0] == \
        pytest.approx(reg, rel=1e-12)
    assert tp.coefficient_penalty(wc, w_bar, 0.3, 0.7).value[0, 0, 0] == \
        pytest.approx(np.sum(np.abs(coeffs - w_bar)) + reg, rel=1e-12)


def _fused_inputs(seed=16):
    """Posterior rows, class groups, [mean | var] stats, KL targets and pairs."""
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((7, 3))
    logvar = 0.5 * rng.standard_normal((7, 3))
    groups = tp.segments([np.array([4, 0]), np.array([2]), np.array([5, 1, 3])], 7)
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
    m, lv = t.leaf(mu[None], "mu"), t.leaf(logvar[None], "logvar")
    st = tp.reshape(t.leaf(stats[None], "stats"), stats.shape)
    moments = tp.segment_moments(m, lv, groups).value
    for c, rows in enumerate(np.split(groups.rows, groups.starts[1:])):
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
    got = tp.diag_gaussian_kl(st, rows, means, precisions, logdets, [0, 2]).value[0, 0, 0]
    assert got == pytest.approx(want, rel=1e-12)
    bce = [np.logaddexp(0.0, mu[i] @ mu[j]) - yk * (mu[i] @ mu[j])
           for (i, j), yk in zip(pairs, y)]
    assert tp.pair_bce(m, pairs, y, [0, 6]).value[0, 0, 0] == \
        pytest.approx(np.mean(bce), rel=1e-12)
    prior = [0.5 * np.sum(mu[i] ** 2 + np.exp(logvar[i]) - logvar[i] - 1.0)
             for i in range(mu.shape[0])]
    assert tp.prior_kl(m, lv).value[0, 0, 0] == pytest.approx(np.mean(prior), rel=1e-12)


def test_sigmoid_is_stable_for_large_inputs():
    out = tp._sigmoid(np.array([[800.0, -800.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(0.0)
    # the same bits as the sign-masked form, NaN's sign included
    edge = np.array([0.0, 5e-324, 1e-300, 36.7, 709.0, 745.0, 800.0, np.inf])
    x = np.concatenate([edge, -edge, [np.nan, -np.nan]])
    with np.errstate(all="raise", under="ignore"):
        got = tp._sigmoid(x)
    assert np.array_equal(got.view(np.uint64), masked_sigmoid(x).view(np.uint64))
    wide = np.random.default_rng(40).standard_normal((50, 40)) * np.logspace(-3, 3, 40)
    assert np.array_equal(tp._sigmoid(wide).view(np.uint64),
                          masked_sigmoid(wide).view(np.uint64))


def test_softplus_is_stable_for_large_inputs():
    # pair_bce's softplus(score) - y * score at scores of +800 and -800
    root = np.sqrt(800.0)
    t = tp.Tape()
    z = t.leaf(np.array([[[root], [root], [-root]]]), "z")
    loss = tp.pair_bce(z, np.array([[0, 1], [0, 2]]), np.array([0.0, 1.0]), [0, 2])
    assert loss.value[0, 0, 0] == pytest.approx(800.0)
    assert np.all(np.isfinite(tp.grad(t, loss)[z]))


# --- gradient battery against finite differences ------------------------------


def _grad_check(build, arrays, tol=1e-6):
    """build(tape, {name: Var}) -> one-member loss Var; compares grad to central FD."""

    def run_value(vals):
        t = tp.Tape()
        leaves = {k: t.leaf(v, k) for k, v in vals.items()}
        return float(build(t, leaves).value[0, 0, 0])

    t = tp.Tape()
    leaves = {k: t.leaf(v, k) for k, v in arrays.items()}
    loss = build(t, leaves)
    got = tp.grad(t, loss)
    want = central_diff(lambda vals: run_value(vals), arrays)
    worst = max(rel_err(got[leaves[k]], want[k]) for k in arrays)
    assert worst < tol, f"gradient mismatch {worst}"


def test_grad_matmul_chain():
    rng = np.random.default_rng(2)
    arrays = {"a": rng.standard_normal((1, 3, 4)), "b": rng.standard_normal((1, 4, 2))}
    _grad_check(lambda t, lv: _total(tp.matmul(lv["a"], lv["b"])), arrays)


def test_grad_log_exp_sqrt():
    # softmax_ce's log-sum-exp over gaussian_sample's sqrt(exp(logvar))
    rng = np.random.default_rng(5)
    eps = rng.standard_normal((4, 3))
    labels = np.array([2, 0, 1, 1])
    _grad_check(lambda t, lv: tp.softmax_ce(tp.gaussian_sample(lv["mu"], lv["logvar"], eps),
                                            [3, 1, 0, 3], labels, [0, 4]),
                {"mu": rng.standard_normal((1, 4, 3)),
                 "logvar": 0.5 * rng.standard_normal((1, 4, 3))},
                tol=1e-4)


def test_grad_tanh_sigmoid_softplus_mean():
    # a tanh dense layer into pair_bce, whose value is a mean of softplus
    # terms and whose backward uses the sigmoid
    rng = np.random.default_rng(6)
    pairs = np.array([[0, 1], [2, 3], [1, 3], [0, 0]])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    _grad_check(lambda t, lv: tp.pair_bce(tp.dense(lv["a"], lv["m"], lv["b"], tanh=True),
                                          pairs, y, [0, 4]),
                {"a": rng.standard_normal((1, 4, 3)), "m": rng.standard_normal((1, 3, 2)),
                 "b": rng.standard_normal((1, 1, 2))}, tol=1e-4)


def test_grad_absval_away_from_kink():
    # the absolute values inside coefficient_penalty, entries away from 0
    # and from w_bar
    rng = np.random.default_rng(7)
    a = rng.standard_normal((1, 3, 3))
    a[np.abs(a) < 0.2] = 0.5
    w_bar = a.ravel() + np.where(rng.random(9) < 0.5, -0.3, 0.3)
    _grad_check(lambda t, lv: tp.coefficient_penalty(lv["a"], w_bar, 0.4, 0.0), {"a": a})


def test_grad_clip_strict_interior_and_exterior():
    a = np.array([[[-2.0, -0.5, 0.3, 0.9, 2.5]]])
    t = tp.Tape()
    v = t.leaf(a, "a")
    loss = _total(tp.clip(v, -1.0, 1.0))
    g = tp.grad(t, loss)[v]
    assert np.array_equal(g, np.array([[[0.0, 1.0, 1.0, 1.0, 0.0]]]))


def test_grad_unused_leaf_is_zero():
    t = tp.Tape()
    a = t.leaf(np.ones((1, 2, 2)), "a")
    b = t.leaf(np.ones((1, 3, 1)), "b")
    loss = _total(tp.add(a, a))
    g = tp.grad(t, loss)
    assert np.array_equal(g[b], np.zeros((1, 3, 1)))
    assert np.array_equal(g[a], 2.0 * np.ones((1, 2, 2)))


def test_grad_leaf_used_twice_accumulates():
    arrays = {"a": np.array([[[1.5, -0.4], [0.2, 2.0]]])}
    _grad_check(lambda t, lv: _total(tp.matmul(lv["a"], lv["a"])), arrays)


def test_grad_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((1, 2, 3))
    const = rng.standard_normal((1, 3, 2))
    t = tp.Tape()
    v = t.leaf(a, "a")
    loss = _total(tp.matmul(v, const))
    g = tp.grad(t, loss)
    assert set(g.keys()) == {v}
    want = central_diff(lambda vals: float((vals["a"] @ const).sum()), {"a": a})
    assert rel_err(g[v], want["a"]) < 1e-6


def _logit_layer(t, lv, rows, labels):
    """softmax_ce over the given rows of tanh-dense logits."""
    return tp.softmax_ce(tp.dense(lv["a"], lv["m"], np.zeros((1, 1, 3)), tanh=True), rows,
                         labels, [0, len(rows)])


def test_grad_take_rows_repeated_and_out_of_order():
    # softmax_ce's row gather: repeated rows accumulate their adjoints
    rng = np.random.default_rng(12)
    arrays = {"a": rng.standard_normal((1, 5, 3)), "m": rng.standard_normal((1, 3, 3))}
    _grad_check(lambda t, lv: _logit_layer(t, lv, [4, 1, 4, 0, 1, 4], [0, 2, 1, 1, 0, 2]),
                arrays)


def test_grad_take_rows_single_row():
    rng = np.random.default_rng(13)
    arrays = {"a": rng.standard_normal((1, 4, 3)), "m": rng.standard_normal((1, 3, 3))}
    _grad_check(lambda t, lv: _logit_layer(t, lv, [2], [1]), arrays)


def test_grad_add_row_bias():
    # dense's bias row, with and without the tanh
    rng = np.random.default_rng(14)
    arrays = {"a": rng.standard_normal((1, 4, 3)), "w": rng.standard_normal((1, 3, 2)),
              "b": rng.standard_normal((1, 1, 2))}
    out = rng.standard_normal((1, 2, 3))
    for tanh in (True, False):
        _grad_check(lambda t, lv: _total(tp.dense(
            tp.dense(lv["a"], lv["w"], lv["b"], tanh=tanh), out, np.zeros((1, 1, 3)),
            tanh=True)), arrays, tol=1e-4)


def test_grad_add_row_constant_sides():
    # dense over a constant input, as the encoder reads [X | onehot(y)], and
    # with a constant bias or weight
    rng = np.random.default_rng(15)
    x = np.concatenate([rng.standard_normal((4, 3)), np.eye(4)[:, :2]], axis=1)
    x[2:, 3:] = 0.0
    x = x[None]
    w = rng.standard_normal((1, 5, 2))
    b = rng.standard_normal((1, 1, 2))
    for tanh in (True, False):
        _grad_check(lambda t, lv: _total(tp.dense(x, lv["w"], lv["b"], tanh=tanh)),
                    {"w": w, "b": b}, tol=1e-4)
        _grad_check(lambda t, lv: _total(tp.dense(x, lv["w"], b, tanh=tanh)), {"w": w},
                    tol=1e-4)
        _grad_check(lambda t, lv: _total(tp.dense(x, w, lv["b"], tanh=tanh)), {"b": b},
                    tol=1e-4)


def test_grad_softmax_ce():
    rng = np.random.default_rng(24)
    labels = np.array([3, 0, 0, 2, 1])
    _grad_check(lambda t, lv: tp.softmax_ce(lv["logits"], [0, 2, 3, 5, 1], labels, [0, 5]),
                {"logits": 2.0 * rng.standard_normal((1, 6, 4))}, tol=1e-4)


def test_softmax_ce_labels_match_onehot_reference_bit_for_bit():
    # three stacked members: repeated rows, an all-negative member of one row
    rng = np.random.default_rng(31)
    n, c = 6, 4
    logits = 3.0 * rng.standard_normal((3, n, c)) - 2.0
    logits[1] = -np.abs(logits[1]) - 5.0
    member_rows = [[0, 3, 3, 5, 0], [2], [1, 4, 4, 4]]
    rows = np.concatenate([np.array(r) + m * n for m, r in enumerate(member_rows)])
    labels = rng.integers(0, c, rows.size)
    bounds = np.array([0, 5, 6, 10])
    cases = [(logits, rows, labels, bounds),
             (logits[:1], rows[:5], labels[:5], bounds[:2])]  # a one-member stack
    for values, case_rows, case_labels, case_bounds in cases:
        t = tp.Tape()
        leaf = t.leaf(values, "logits")
        loss = tp.softmax_ce(leaf, case_rows, case_labels, case_bounds)
        got_grad = tp.grad(t, loss)[leaf]
        want_value, want_grad = onehot_softmax_ce(values, case_rows, np.eye(c)[case_labels],
                                                  case_bounds)
        assert np.array_equal(loss.value.reshape(-1), want_value)
        assert np.array_equal(got_grad, want_grad)


def test_grad_gaussian_sample():
    rng = np.random.default_rng(25)
    mu, logvar = rng.standard_normal((1, 5, 3)), 0.5 * rng.standard_normal((1, 5, 3))
    eps = rng.standard_normal((5, 3))
    m = rng.standard_normal((1, 3, 2))
    _grad_check(lambda t, lv: _total(tp.dense(tp.gaussian_sample(lv["mu"], lv["logvar"], eps),
                                              m, np.zeros((1, 1, 2)), tanh=True)),
                {"mu": mu, "logvar": logvar}, tol=1e-4)
    # constant mean: only the log-variance side is differentiated
    _grad_check(lambda t, lv: _total(tp.dense(tp.gaussian_sample(mu, lv["logvar"], eps),
                                              m, np.zeros((1, 1, 2)), tanh=True)),
                {"logvar": logvar}, tol=1e-4)


def test_grad_coefficient_penalty():
    rng = np.random.default_rng(26)
    w = np.sign(rng.standard_normal((1, 5))) * (0.2 + np.abs(rng.standard_normal((1, 5))))
    w_bar = (w + np.sign(rng.standard_normal((1, 5))) * 0.3).ravel()
    for target in (None, w_bar):
        _grad_check(lambda t, lv: tp.coefficient_penalty(lv["w"], target, 0.7, 1.3),
                    {"w": w[None]}, tol=1e-4)


def test_coefficient_penalty_subgradient_is_zero_at_kinks():
    # entries 0 and 2 sit exactly at w_bar, entries 1 and 2 exactly at 0
    w = np.array([[0.5, 0.0, 0.0, -1.5]])
    w_bar = np.array([0.5, 1.0, 0.0, 2.0])
    lam1, lam2 = 0.3, 0.7
    smooth = lam2 * w + lam1 * np.sign(w)
    for target, pull in ((None, 0.0), (w_bar, np.sign(w - w_bar))):
        t = tp.Tape()
        v = t.leaf(w[None], "w")
        g = tp.grad(t, tp.coefficient_penalty(v, target, lam1, lam2))[v][0]
        assert np.allclose(g, pull + smooth, rtol=0.0, atol=1e-15)
    assert np.array_equal(np.sign(w - w_bar)[0, [0, 2]], [0.0, 0.0])
    assert np.array_equal(smooth[0, [1, 2]], [0.0, 0.0])


def test_grad_segment_moments():
    mu, logvar, groups, *_ = _fused_inputs(17)
    weights = np.random.default_rng(18).standard_normal((1, 6, 2))
    _grad_check(lambda t, lv: _total(tp.dense(
        _stack(tp.segment_moments(lv["mu"], lv["logvar"], groups)), weights,
        np.zeros((1, 1, 2)), tanh=True)), {"mu": mu[None], "logvar": logvar[None]}, tol=1e-4)
    # constant log-variances: only the means side is differentiated
    _grad_check(lambda t, lv: _total(tp.matmul(
        _stack(tp.segment_moments(lv["mu"], logvar[None], groups)), weights)),
        {"mu": mu[None]}, tol=1e-4)


def test_grad_diag_gaussian_kl():
    *_, stats, _covs, (rows, means, precisions, logdets), _pairs, _y = _fused_inputs(19)
    _grad_check(lambda t, lv: tp.diag_gaussian_kl(tp.reshape(lv["stats"], stats.shape), rows,
                                                  means, precisions, logdets, [0, 2]),
                {"stats": stats[None]}, tol=1e-4)


def test_grad_diag_gaussian_kl_through_segment_moments():
    mu, logvar, groups, _stats, _covs, (rows, means, precisions, logdets), *_ = \
        _fused_inputs(20)
    _grad_check(lambda t, lv: tp.diag_gaussian_kl(
        tp.segment_moments(lv["mu"], lv["logvar"], groups), rows, means, precisions,
        logdets, [0, 2]), {"mu": mu[None], "logvar": logvar[None]}, tol=1e-4)


def test_grad_pair_bce_with_repeated_and_self_pairs():
    mu, *_, pairs, y = _fused_inputs(21)
    _grad_check(lambda t, lv: tp.pair_bce(lv["z"], pairs, y, [0, 6]), {"z": mu[None]},
                tol=1e-4)


def _ragged_pairs(rng, n, counts):
    """Flat (P, 2) pairs and bounds over stacked members with counts[m] pairs
    each, every member holding a repeated pair and a self pair when it can."""
    parts = []
    for m, count in enumerate(counts):
        local = rng.integers(0, n, size=(count, 2))
        if count >= 3:
            local[1] = local[0]
            local[2, 1] = local[2, 0]
        parts.append(local + m * n)
    return np.concatenate(parts), np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bits: a -0.0 against a 0.0 counts as a difference."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _pair_bce_against_oracle(z, pairs, y, bounds, upstream):
    t = tp.Tape()
    leaf = t.leaf(z, "z")
    loss = tp.pair_bce(leaf, pairs, y, bounds)
    got_grad = tp.grad(t, tp.matmul(loss, upstream))[leaf]
    values, scores, grad = slot_pair_bce(z, pairs, y, bounds, upstream)
    assert _same_bits(loss.value.reshape(-1), values)
    assert _same_bits(loss.aux["scores"], scores)
    assert _same_bits(got_grad, grad)
    return loss.aux["scores"]


def test_pair_bce_matches_slot_bincount_oracle_bit_for_bit():
    # the column-wise score sum follows numpy's pairwise row sum: sequential
    # below 8 columns, 8 accumulators up to 128, split in halves above
    rng = np.random.default_rng(41)
    n = 7
    for d in (1, 3, 7, 8, 9, 13, 15, 16, 17, 24, 128, 129, 136, 257):
        for counts in ([5, 0, 12, 3], [9], [0, 4], [1, 30, 2]):
            pairs, bounds = _ragged_pairs(rng, n, counts)
            y = (rng.random(pairs.shape[0]) < 0.5).astype(float)
            z = 1.5 * rng.standard_normal((len(counts), n, d))
            upstream = rng.uniform(0.25, 4.0, size=(len(counts), 1, 1))
            _pair_bce_against_oracle(z, pairs, y, bounds, upstream)


def test_pair_bce_scores_that_cancel_to_signed_zeros():
    # small integers and signed zeros: every product and partial sum is
    # exact, so many scores cancel to 0 through -0.0 and +0.0 partial sums
    rng = np.random.default_rng(43)
    n = 6
    for d in (1, 2, 3, 8, 9, 16, 17, 129):
        z = rng.integers(-2, 3, size=(2, n, d)).astype(float)
        z[z == 0] *= rng.choice([-1.0, 1.0], size=int(np.sum(z == 0)))
        z[0, 0] = -0.0
        pairs, bounds = _ragged_pairs(rng, n, [40, 40])
        y = (rng.random(pairs.shape[0]) < 0.5).astype(float)
        scores = _pair_bce_against_oracle(z, pairs, y, bounds, np.ones((2, 1, 1)))
        assert np.any(scores == 0.0)


def test_pair_bce_builds_no_pair_by_column_block():
    # one forward and backward over P = 100,000 pairs and d = 8 columns; the
    # former (P, d) gathers and their product peaked at 13.7 MiB, the column
    # path at 6.2 MiB (two P-length index vectors, the scores, the loss
    # terms and a few P-length column products)
    rng = np.random.default_rng(44)
    p, d, n = 100_000, 8, 1_000
    z = rng.standard_normal((1, n, d))
    pairs = rng.integers(0, n, size=(p, 2))
    y = (rng.random(p) < 0.5).astype(float)
    t = tp.Tape()
    leaf = t.leaf(z, "z")
    tracemalloc.start()
    try:
        tp.grad(t, tp.pair_bce(leaf, pairs, y, [0, p]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = p * d * 8
    assert peak < 1.5 * block, f"pair_bce peak {peak / 2 ** 20:.1f} MiB"


def test_grad_prior_kl():
    mu, logvar, *_ = _fused_inputs(22)
    _grad_check(lambda t, lv: tp.prior_kl(lv["mu"], lv["logvar"]),
                {"mu": mu[None], "logvar": logvar[None]}, tol=1e-4)
    _grad_check(lambda t, lv: tp.prior_kl(mu[None], lv["logvar"]), {"logvar": logvar[None]},
                tol=1e-4)


def _run_grad_checks(monkeypatch, wrap) -> set:
    """Run this module's unparametrised test_grad_* checks with every tp.grad
    call going through wrap(real_grad, tape, loss); returns the ops of every
    tape they differentiate."""
    seen = set()
    real_grad = tp.grad

    def wrapped_grad(tape, loss):
        seen.update(node.op for node in tape.nodes)
        return wrap(real_grad, tape, loss)

    monkeypatch.setattr(tp, "grad", wrapped_grad)
    checks = [fn for name, fn in sorted(globals().items())
              if name.startswith("test_grad_") and not inspect.signature(fn).parameters]
    for check in checks:
        check()
    return seen


def test_every_backward_rule_is_gradient_checked(monkeypatch):
    # an op without a check fails here
    seen = _run_grad_checks(monkeypatch, lambda grad, tape, loss: grad(tape, loss))
    assert set(tp._BACKWARD) - seen == set()


def test_no_backward_rule_writes_into_what_the_tape_holds(monkeypatch):
    # Leaves reference the caller's arrays (a training group's parameter
    # stacks), so a backward rule that wrote into a leaf, an input, a node's
    # value or its aux would change them silently. Every tape the gradient
    # battery differentiates keeps the bytes of all of them through grad.
    def held(tape):
        arrays = {}
        for node in tape.nodes:
            arrays[node.index, "value"] = node.value
            for i, x in enumerate(node.inputs):
                arrays[node.index, f"input {i}"] = tp._value(x)
            for key, x in node.aux.items():
                if isinstance(x, np.ndarray):
                    arrays[node.index, f"aux {key}"] = x
        return arrays

    def checked_grad(grad, tape, loss):
        arrays = held(tape)
        before = {key: x.tobytes() for key, x in arrays.items()}
        out = grad(tape, loss)
        changed = [(tape.nodes[i].op, what) for (i, what), x in arrays.items()
                   if x.tobytes() != before[i, what]]
        assert not changed, f"backward wrote into {changed}"
        return out

    seen = _run_grad_checks(monkeypatch, checked_grad)
    assert set(tp._BACKWARD) - seen == set()


def test_constant_operand_adjoint_is_not_computed():
    a = np.ones((1, 2, 3))
    b = np.ones((1, 3, 4))
    g = np.ones((1, 2, 4))
    ga, gb = tp._BACKWARD["matmul"]((a, b), {}, a @ b, g, (True, False))
    assert gb is None and np.array_equal(ga, g @ b.transpose(0, 2, 1))
    bias = np.zeros((1, 1, 4))
    gx, gw, gbias = tp._BACKWARD["dense"]((a, b, bias), {"tanh": False}, a @ b, g,
                                          (False, True, False))
    assert gx is None and gbias is None and np.array_equal(gw, a.transpose(0, 2, 1) @ g)


RANDOM_OPS = ("add", "matmul_const", "matmul_var", "dense", "dense_tanh", "reshape",
              "clip", "gaussian_sample", "segment_moments")
REDUCTIONS = ("total", "softmax_ce", "prior_kl", "pair_bce", "coefficient_penalty")


def _random_composition(rng):
    """Random chain of 6 ops over three one-member leaves, reduced to a loss by a
    random op."""
    shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    a0 = rng.standard_normal(shape)
    b0 = rng.standard_normal(shape)
    c0 = rng.standard_normal((1, shape[1]))
    ops = [RANDOM_OPS[int(rng.integers(len(RANDOM_OPS)))] for _ in range(6)]
    reduction = REDUCTIONS[int(rng.integers(len(REDUCTIONS)))]
    # Row draws, reduced modulo the row count at build time; repeats and
    # out-of-order rows are the common case.
    row_draws = {i: rng.integers(0, 1 << 30, size=int(rng.integers(1, 6))) for i in range(7)}
    noise = rng.standard_normal((16, 16))
    w_bar = rng.standard_normal(16 * 16)
    mats = {}

    def const(key, rows, cols):
        if (key, rows, cols) not in mats:
            mats[key, rows, cols] = np.random.default_rng(100 + key).standard_normal(
                (1, rows, cols)) / np.sqrt(rows)
        return mats[key, rows, cols]

    def build(t, lv):
        x = lv["a"]
        other = lv["b"]
        for i, op in enumerate(ops):
            r, c = x.shape[-2:]
            same = x.shape == other.shape
            if op == "add":
                x = tp.add(x, other if same else x)
            elif op == "matmul_const":
                x = tp.matmul(x, const(i, c, c))
            elif op == "matmul_var":
                x = tp.matmul(x, other) if c == other.shape[-2] else tp.matmul(const(i, r, r), x)
            elif op in ("dense", "dense_tanh"):
                bias = lv["c"] if c == lv["c"].shape[-1] else np.zeros((1, 1, c))
                x = tp.dense(x, const(i, c, c), bias, tanh=op == "dense_tanh")
            elif op == "reshape":
                x = tp.reshape(x, (1, c, r))
            elif op == "clip":
                # bounds far outside the values: the interior branch
                x = tp.clip(x, -50.0, 50.0)
            elif op == "gaussian_sample":
                logvar = other if same else np.zeros((1, r, c))
                x = tp.gaussian_sample(x, logvar, noise[:r, :c])
            else:
                rows = np.unique(row_draws[i] % r)
                groups = tp.segments([rows[:1], rows[1:]] if rows.size > 1 else [rows], r)
                x = _stack(tp.segment_moments(x, other if same else np.zeros((1, r, c)),
                                              groups))
        r, c = x.shape[-2:]
        rows = row_draws[6] % r
        if reduction == "softmax_ce":
            return tp.softmax_ce(x, rows, rows % c, [0, rows.size])
        if reduction == "prior_kl":
            return tp.prior_kl(x, other if x.shape == other.shape else np.zeros((1, r, c)))
        if reduction == "pair_bce":
            pairs = np.column_stack([rows, rows[::-1]])
            return tp.pair_bce(x, pairs, (np.arange(rows.size) % 2).astype(float),
                               [0, rows.size])
        if reduction == "coefficient_penalty":
            return tp.coefficient_penalty(x, w_bar[:r * c] if rows.size % 2 else None, 0.5, 0.8)
        return _total(x)

    return build, {"a": a0[None], "b": b0[None], "c": c0[None]}


@pytest.mark.parametrize("seed", range(25))
def test_grad_random_composition_battery(seed):
    rng = np.random.default_rng(1000 + seed)
    build, arrays = _random_composition(rng)
    _grad_check(build, arrays, tol=1e-4)


# --- stacked members ---------------------------------------------------------------


def _member_data(rng, n=6, k=4, h=5, c=3, d=2):
    """One member's leaves and ragged inputs; the counts differ by member."""
    leaves = {"x": rng.standard_normal((n, k)), "w": rng.standard_normal((k, h)),
              "b": rng.standard_normal((1, h)), "w2": rng.standard_normal((h, c)),
              "b2": rng.standard_normal((1, c)), "wl": rng.standard_normal((h, d)),
              "coef": rng.standard_normal((1, 4))}
    rows = rng.integers(0, n, size=int(rng.integers(1, 6)))
    pairs = rng.integers(0, n, size=(int(rng.integers(0, 5)), 2))
    split = int(rng.integers(1, n - 1))
    groups = [np.arange(split), np.arange(split, n - 1)]
    covs = np.stack([random_spd(rng, d)])
    return {"leaves": leaves, "rows": rows, "labels": rng.integers(0, c, rows.size),
            "pairs": pairs, "y": (np.arange(pairs.shape[0]) % 2).astype(float),
            "groups": groups, "eps": rng.standard_normal((n, d)),
            "target": (rng.standard_normal((1, d)), np.linalg.inv(covs),
                       np.linalg.slogdet(covs)[1]), "w_bar": rng.standard_normal(4)}


def _member_loss(t, lv, data, n):
    """Every op on a stack of len(data) members."""
    members = len(data)
    bounds = lambda sizes: np.concatenate([[0], np.cumsum(sizes)])
    hidden = tp.dense(lv["x"], lv["w"], lv["b"], tanh=True)
    logits = tp.dense(hidden, lv["w2"], lv["b2"])
    ce = tp.softmax_ce(logits, np.concatenate([m["rows"] + i * n for i, m in enumerate(data)]),
                       np.concatenate([m["labels"] for m in data]),
                       bounds([m["rows"].size for m in data]))
    mu = tp.dense(hidden, lv["wl"], np.zeros(lv["wl"].shape[:-2] + (1, 2)))
    mix = np.broadcast_to(np.eye(2 * n) * 0.3, mu.shape[:-2] + (2 * n, 2 * n))
    logvar = tp.clip(tp.reshape(tp.matmul(tp.reshape(mu, mu.shape[:-2] + (1, 2 * n)), mix),
                                mu.shape), -2.0, 2.0)
    z = tp.gaussian_sample(mu, logvar, data[0]["eps"])
    total = tp.add(tp.add(ce, tp.prior_kl(mu, logvar)),
                   tp.coefficient_penalty(lv["coef"], np.stack([m["w_bar"] for m in data]),
                                          0.3, 0.2))
    pairs = np.concatenate([m["pairs"] + i * n for i, m in enumerate(data)])
    if pairs.size:
        total = tp.add(total, tp.pair_bce(z, pairs, np.concatenate([m["y"] for m in data]),
                                          bounds([m["pairs"].shape[0] for m in data])))
    stats = tp.segment_moments(mu, logvar, tp.segments(
        [g + i * n for i, m in enumerate(data) for g in m["groups"]], members * n))
    kl = tp.diag_gaussian_kl(stats, 2 * np.arange(members), *(
        np.concatenate([m["target"][j] for m in data]) for j in range(3)),
        bounds([1] * members))
    return tp.add(total, kl)


def test_stacked_ops_match_each_member_alone():
    # every op, ragged row, pair and target counts (one member has no pairs):
    # each member of the 3-member stack holds the bits of its own one-member
    # stack
    rng = np.random.default_rng(8)
    data = [_member_data(rng) for _ in range(3)]
    data[1]["pairs"], data[1]["y"] = np.zeros((0, 2), dtype=np.int64), np.zeros(0)
    data[2]["eps"] = data[0]["eps"]  # a stack shares one noise draw
    data[1]["eps"] = data[0]["eps"]
    n = data[0]["leaves"]["x"].shape[0]
    t = tp.Tape()
    lv = {k: t.leaf(np.stack([m["leaves"][k] for m in data]), k) for k in data[0]["leaves"]}
    loss = _member_loss(t, lv, data, n)
    assert loss.shape == (3, 1, 1)
    grads = tp.grad(t, loss)
    for i, member in enumerate(data):
        t1 = tp.Tape()
        lv1 = {k: t1.leaf(v[None], k) for k, v in member["leaves"].items()}
        alone = _member_loss(t1, lv1, [member], n)
        assert alone.value[0, 0, 0] == loss.value[i, 0, 0]
        got = tp.grad(t1, alone)
        for k in lv:
            assert np.array_equal(grads[lv[k]][i], got[lv1[k]][0]), k


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_grad_names_nonfinite_members():
    t = tp.Tape()
    logvar = np.zeros((3, 2, 2))
    logvar[1, 0, 0] = 1000.0  # exp overflows in member 1 only
    loss = tp.prior_kl(np.zeros((3, 2, 2)), t.leaf(logvar, "a"))
    with pytest.raises(NumericError, match="'a'") as err:
        tp.grad(t, loss)
    assert err.value.members == (1,)
    with pytest.raises(NumericError) as err:
        t.leaf(np.array([[[1.0]], [[np.inf]], [[np.nan]]]), "bad")
    assert err.value.members == (1, 2)


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


def test_leaf_keeps_a_float64_c_contiguous_array_by_reference():
    t = tp.Tape()
    stack = np.ones((2, 2, 3))
    assert t.leaf(stack, "stack").value is stack
    # any other dtype or layout is copied; the caller's array is left alone
    ints = np.ones((1, 2, 3), dtype=np.int64)
    strided = np.ones((1, 3, 2)).transpose(0, 2, 1)
    for value in (ints, strided):
        leaf = t.leaf(value, "copied").value
        assert leaf.dtype == np.float64 and leaf.flags.c_contiguous
        assert not np.shares_memory(leaf, value) and np.array_equal(leaf, value)


def test_finished_tape_is_freed_by_reference_counting():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = tp.Tape()
        a = t.leaf(np.ones((1, 3, 2)), "a")
        loss = _total(tp.dense(a, np.ones((1, 2, 2)), np.ones((1, 1, 2)), tanh=True))
        grads = tp.grad(t, loss)
        alive = weakref.ref(t)
        del t, a, loss, grads
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def test_var_of_freed_tape_raises():
    t = tp.Tape()
    a = t.leaf(np.ones((1, 2, 2)), "a")
    del t
    with pytest.raises(ContractError):
        tp.add(a, a)


# --- error paths ----------------------------------------------------------------


def test_leaf_rejects_bad_inputs():
    t = tp.Tape()
    with pytest.raises(ShapeError):
        t.leaf(np.ones(3), "vec")
    with pytest.raises(ShapeError, match="3-D stack"):
        t.leaf(np.ones((2, 3)), "matrix")
    with pytest.raises(NumericError):
        t.leaf(np.array([[[np.nan]]]), "nan")


def test_matmul_shape_mismatch():
    t = tp.Tape()
    a = t.leaf(np.ones((1, 2, 3)), "a")
    b = t.leaf(np.ones((1, 2, 3)), "b")
    with pytest.raises(ShapeError):
        tp.matmul(a, b)


def test_grad_requires_scalar_loss():
    t = tp.Tape()
    a = t.leaf(np.ones((1, 2, 2)), "a")
    out = tp.add(a, a)
    with pytest.raises(ShapeError):
        tp.grad(t, out)
    # a 2-D 1x1 value is not a loss: losses hold one 1x1 value per member
    with pytest.raises(ShapeError, match="per member"):
        tp.grad(t, tp.reshape(_total(a), (1, 1)))


def test_grad_rejects_foreign_tape():
    t1 = tp.Tape()
    t2 = tp.Tape()
    a = t1.leaf(np.ones((1, 1, 1)), "a")
    loss = tp.add(a, a)
    with pytest.raises(ContractError):
        tp.grad(t2, loss)


def test_take_rows_rejects_out_of_range():
    # softmax_ce's row gather
    t = tp.Tape()
    a = t.leaf(np.ones((1, 3, 2)), "a")
    with pytest.raises(ShapeError):
        tp.softmax_ce(a, [0, 3], [0, 1], [0, 2])
    with pytest.raises(ShapeError):
        tp.softmax_ce(a, [-1], [0], [0, 1])


def test_add_row_rejects_non_row_bias():
    # dense's bias row
    t = tp.Tape()
    a = t.leaf(np.ones((1, 3, 2)), "a")
    w = np.ones((1, 2, 2))
    with pytest.raises(ShapeError):
        tp.dense(a, w, np.ones((1, 3, 2)))
    with pytest.raises(ShapeError):
        tp.dense(a, w, t.leaf(np.ones((1, 1, 3)), "b"))


def test_mixing_tapes_raises():
    t1 = tp.Tape()
    t2 = tp.Tape()
    a = t1.leaf(np.ones((1, 2, 2)), "a")
    b = t2.leaf(np.ones((1, 2, 2)), "b")
    with pytest.raises(ContractError):
        tp.add(a, b)


def test_fused_ops_reject_bad_inputs():
    mu, logvar, _groups, stats, _covs, (rows, means, precisions, logdets), pairs, y = \
        _fused_inputs()
    t = tp.Tape()
    m, lv = t.leaf(mu[None], "mu"), t.leaf(logvar[None], "logvar")
    with pytest.raises(ContractError, match="disjoint"):
        tp.segments([np.array([0, 1]), np.array([1])], 7)
    with pytest.raises(ContractError, match="nonempty"):
        tp.segments([np.array([0]), np.array([], dtype=np.int64)], 7)
    with pytest.raises(ShapeError):
        tp.segments([np.array([7])], 7)
    with pytest.raises(ShapeError):
        tp.segment_moments(m, t.leaf(logvar[None, :, :2], "short"), tp.segments([[0]], 7))
    with pytest.raises(ShapeError):
        tp.segment_moments(m, lv, tp.segments([[0]], 8))
    assert tp.segment_moments(m, lv, tp.segments([], 7)).shape == (0, 6)
    with pytest.raises(ShapeError):
        tp.softmax_ce(m, [], [], [0, 0])
    with pytest.raises(ShapeError):
        tp.softmax_ce(m, [0, 1], [0], [0, 2])
    with pytest.raises(ShapeError, match="label index out of range"):
        tp.softmax_ce(m, [0, 1], [0, 6], [0, 2])
    with pytest.raises(ShapeError, match="bounds split 2 members"):
        tp.softmax_ce(m, [0, 1], [0, 1], [0, 1, 2])
    with pytest.raises(ShapeError):
        tp.gaussian_sample(m, lv, np.zeros((7, 2)))
    with pytest.raises(ShapeError):  # the noise is one matrix every member shares
        tp.gaussian_sample(m, lv, np.zeros((1, 7, 3)))
    with pytest.raises(ShapeError):
        tp.coefficient_penalty(m, np.zeros(20), 0.1, 0.1)
    with pytest.raises(ShapeError):
        tp.pair_bce(m, pairs[:0], y[:0], [0, 0])
    with pytest.raises(ShapeError):
        tp.pair_bce(m, pairs, y[:-1], [0, 5])
    with pytest.raises(ShapeError, match="latent column"):
        tp.pair_bce(t.leaf(np.zeros((1, 7, 0)), "z0"), pairs, y, [0, 6])
    st = tp.reshape(t.leaf(stats[None], "stats"), stats.shape)
    with pytest.raises(ShapeError):
        tp.diag_gaussian_kl(st, rows, means[:, :2], precisions, logdets, [0, 2])
    with pytest.raises(ShapeError):  # the statistics are one 2-D table
        tp.diag_gaussian_kl(t.leaf(stats[None], "stack"), rows, means, precisions, logdets,
                            [0, 2])
    with pytest.raises(ContractError):
        tp.diag_gaussian_kl(st, [0, 0], means, precisions, logdets, [0, 2])
    bad = stats.copy()
    bad[rows[0], 4] = 0.0
    with pytest.raises(NumericError):
        tp.diag_gaussian_kl(tp.reshape(t.leaf(bad[None], "bad"), bad.shape), rows, means,
                            precisions, logdets, [0, 2])


def test_ragged_losses_take_bounds_without_default():
    for op in (tp.softmax_ce, tp.pair_bce, tp.diag_gaussian_kl):
        assert inspect.signature(op).parameters["bounds"].default is inspect.Parameter.empty
