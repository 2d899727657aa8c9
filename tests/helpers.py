"""Shared independent oracles for the test suite.

Everything here is deliberately written against a different algorithmic
route than the library code (loops instead of BLAS, finite differences
instead of the tape, projection residuals instead of projector
differences, dense matrices instead of edge lists, Monte Carlo instead of
closed forms) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from fedssa.errors import ShapeError
from fedssa.federation import params_payload
from fedssa.graphs import PAIR_BLOCK, LocalGraph, canonical_json, stratified_split
from fedssa.models import COV_FLOOR
from fedssa.rng import stream
from fedssa.structural import projection_embedding


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product; O(n^3) reference free of numpy dot."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def central_diff(f, arrays: dict, eps: float = 1e-6) -> dict:
    """Central finite-difference gradient of scalar f over named arrays."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = f(arrays)
            flat[i] = keep - eps
            lo = f(arrays)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def rel_err(approx: np.ndarray, ref: np.ndarray) -> float:
    """Scaled sup-norm error: ||a - r||_inf / max(1, ||r||_inf)."""
    diff = float(np.max(np.abs(np.asarray(approx) - np.asarray(ref))))
    scale = max(1.0, float(np.max(np.abs(ref))) if np.asarray(ref).size else 0.0)
    return diff / scale


def residual_chordal(q1: np.ndarray, q2: np.ndarray) -> float:
    """Chordal distance sqrt(sum sin^2 theta_i) as ||(I - Q1 Q1^T) Q2||_F.

    The residual of Q2 after projecting onto span(Q1) carries the sines of
    the principal angles directly, so nearby subspaces lose no digits to
    the cancellation in 1 - cos^2 theta.
    """
    return float(np.linalg.norm(q2 - q1 @ (q1.T @ q2)))


def chordal_distance(a, b) -> float:
    """Chordal distance ||Qa Qa^T - Qb Qb^T||_F / sqrt(2) between the frames of
    two SpectralEnergy objects, one pair at a time."""
    if a.q.shape != b.q.shape:
        raise ShapeError(f"frame shapes differ: {a.q.shape} vs {b.q.shape}")
    diff = projection_embedding(a) - projection_embedding(b)
    return float(np.linalg.norm(diff) / np.sqrt(2.0))


def mc_gaussian_kl(mu_p, cov_p, mu_q, cov_q, n: int, rng) -> float:
    """Monte Carlo estimate of KL(p || q) from n draws of p."""
    d = mu_p.shape[0]
    lp = np.linalg.cholesky(cov_p)
    x = mu_p[None, :] + rng.standard_normal((n, d)) @ lp.T

    def logpdf(pts, mu, cov):
        diff = pts - mu[None, :]
        sol = np.linalg.solve(cov, diff.T).T
        quad = np.sum(diff * sol, axis=1)
        _, logdet = np.linalg.slogdet(cov)
        return -0.5 * (quad + logdet + d * np.log(2.0 * np.pi))

    return float(np.mean(logpdf(x, mu_p, cov_p) - logpdf(x, mu_q, cov_q)))


def grid_filter_sup(w: np.ndarray, num: int = 20001) -> float:
    """Sup of |d/dlam sum_k w_k lam^k| on [0, 2] by dense grid search."""
    lam = np.linspace(0.0, 2.0, num)
    deriv = np.zeros_like(lam)
    for k in range(1, w.shape[0]):
        deriv += k * w[k] * lam ** (k - 1)
    return float(np.max(np.abs(deriv)))


def filter_derivative_sup(w, grid_points: int = 2001) -> float:
    """Max |h'(lambda)| on a uniform grid over [0, 2], from one vectorised
    power table (grid_filter_sup accumulates the same sum term by term)."""
    wv = np.asarray(w, dtype=np.float64).reshape(-1)
    if wv.size <= 1:
        return 0.0
    lam = np.linspace(0.0, 2.0, grid_points)
    k = np.arange(1, wv.size, dtype=np.float64)
    deriv = (k * wv[1:]) @ np.power(lam[None, :], (k - 1)[:, None])
    return float(np.max(np.abs(deriv)))


def random_spd(rng, d: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues >= 0.1."""
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + 0.1 * np.eye(d))


def induced_edges_loop(edges: np.ndarray, nodes: np.ndarray) -> tuple:
    """Edge-by-edge induced subgraph on sorted node ids.

    Returns (kept, dropped): kept holds the local (row-position) endpoints
    of edges with both ends in nodes, in the input edge order; dropped
    counts edges with exactly one end in nodes.
    """
    pos = {int(v): i for i, v in enumerate(np.sort(nodes))}
    kept = []
    dropped = 0
    for u, v in edges:
        u, v = int(u), int(v)
        if u in pos and v in pos:
            kept.append((pos[u], pos[v]))
        elif u in pos or v in pos:
            dropped += 1
    return np.asarray(kept, dtype=np.int64).reshape(-1, 2), dropped


def greedy_assignment_loop(n: int, edges: np.ndarray, num_parts: int, rng) -> np.ndarray:
    """Streaming greedy partition, one node and one part at a time.

    Python neighbour lists, a BFS from rng's root that restarts at the
    lowest unseen node, and per part the score (assigned neighbours in the
    part) - size / quota over parts below quota; the first best part wins.
    """
    base, rem = divmod(n, num_parts)
    quotas = np.array([base + (1 if i < rem else 0) for i in range(num_parts)])
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[int(u)].append(int(v))
        neighbors[int(v)].append(int(u))
    neighbors = [sorted(lst) for lst in neighbors]
    order = []
    seen = np.zeros(n, dtype=bool)
    root = int(rng.integers(n))
    queue = [root]
    seen[root] = True
    while len(order) < n:
        if not queue:
            nxt = int(np.flatnonzero(~seen)[0])
            seen[nxt] = True
            queue.append(nxt)
        node = queue.pop(0)
        order.append(node)
        for nb in neighbors[node]:
            if not seen[nb]:
                seen[nb] = True
                queue.append(nb)
    assign = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.int64)
    for node in order:
        best_part, best_score = -1, -np.inf
        assigned_nbrs = [assign[nb] for nb in neighbors[node] if assign[nb] >= 0]
        for part in range(num_parts):
            if sizes[part] >= quotas[part]:
                continue
            affinity = sum(1 for p in assigned_nbrs if p == part)
            score = affinity - sizes[part] / quotas[part]
            if score > best_score:
                best_part, best_score = part, score
        assign[node] = best_part
        sizes[best_part] += 1
    return assign


def partition_loop(g, num_clients: int, seed: int, overlap: bool) -> tuple:
    """partition_overlap (overlap=True) or partition_nonoverlap from
    greedy_assignment_loop and induced_edges_loop, on the same streams.

    Returns (clients, node_maps, dropped_edges); each client is a tuple
    (edges, train, val, test) of arrays in local node ids.
    """
    num_parts = num_clients // 5 if overlap else num_clients
    if num_parts >= 2:
        assign = greedy_assignment_loop(g.n, g.edges, num_parts, stream(seed, "partition"))
    else:
        assign = np.zeros(g.n, dtype=np.int64)
    shards = []
    for part in range(num_parts):
        members = np.flatnonzero(assign == part)
        if not overlap:
            shards.append(members)
            continue
        for _ in range(5):
            pick = stream(seed, "overlap-sample", len(shards)).choice(
                members.size, size=members.size // 2, replace=False)
            shards.append(members[np.sort(pick)])
    clients, dropped = [], 0
    for i, nodes in enumerate(shards):
        kept, cut = induced_edges_loop(g.edges, nodes)
        splits = stratified_split(g.labels[nodes], stream(seed, "partition-split", i))
        clients.append((kept,) + tuple(splits))
        dropped += cut
    return clients, shards, dropped if overlap else dropped // 2


def nonedge_pool(g) -> np.ndarray:
    """Every absent pair (i < j) of a graph, in row-major upper-triangle order."""
    if g.n < 2:
        return np.zeros((0, 2), dtype=np.int64)
    iu, ju = np.triu_indices(g.n, k=1)
    absent = np.ones(iu.size, dtype=bool)
    if g.edges.size:
        flat_edges = g.edges[:, 0] * g.n + g.edges[:, 1]
        absent = ~np.isin(iu * g.n + ju, flat_edges)
    return np.column_stack([iu[absent], ju[absent]])


def pool_draw(g, count: int, rng) -> np.ndarray:
    """Sorted draw of count rows of nonedge_pool(g), without replacement."""
    pool = nonedge_pool(g)
    if count <= 0 or pool.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.int64)
    take = min(count, pool.shape[0])
    return pool[np.sort(rng.choice(pool.shape[0], size=take, replace=False))]


def homophily_ratio(g) -> float:
    """Fraction of edges joining same-label endpoints; nan without edges."""
    if not g.edges.size:
        return float("nan")
    same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    return float(np.mean(same))


def adjacency(g) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix."""
    a = np.zeros((g.n, g.n))
    if g.edges.size:
        a[g.edges[:, 0], g.edges[:, 1]] = 1.0
        a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    return a


def normalized_laplacian(g) -> np.ndarray:
    """Dense symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Isolated nodes get a unit diagonal entry, which falls out of the
    construction because their scaling factor is zero and the graph has no
    self loops. The result is exactly symmetric: the off-diagonal part is
    built as an elementwise product of two exactly symmetric matrices.
    """
    a = adjacency(g)
    deg = a.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    weight = np.outer(inv_sqrt, inv_sqrt)
    lap = -(weight * a)
    np.fill_diagonal(lap, 1.0)
    return lap


def reference_laplacian_powers(g, order: int) -> list:
    """graphs.laplacian_powers as one bincount over all n·d entries per power.

    Flattened (row·d + column) slots each sum x, then the row-u and the
    row-v edge terms in edge order; the column-at-a-time library version
    must give the same bits.
    """
    n, d = g.features.shape
    u, v = g.edges[:, 0], g.edges[:, 1]
    deg = np.bincount(g.edges.ravel(), minlength=n)
    inv_sqrt = np.zeros(n)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    weight = (inv_sqrt[u] * inv_sqrt[v])[:, None]
    cols = np.arange(d)
    slots = np.concatenate([np.arange(n * d), (u[:, None] * d + cols).ravel(),
                            (v[:, None] * d + cols).ravel()])
    powers = [g.features.copy()]
    for _ in range(order):
        x = powers[-1]
        terms = np.concatenate([x.ravel(), (-weight * x[v]).ravel(),
                                (-weight * x[u]).ravel()])
        powers.append(np.bincount(slots, weights=terms, minlength=n * d).reshape(n, d))
    return powers


def synth_prefix(spec, seed: int) -> tuple:
    """synth_dataset's "synth" stream, labels and features, up to the first
    node-pair uniform."""
    rng = stream(seed, "synth")
    c, d, n = spec.num_classes, spec.feature_dim, spec.num_nodes
    if spec.class_means is not None:
        means = spec.class_means
    else:
        means = spec.mean_scale * rng.standard_normal((c, d))
    labels = np.tile(np.arange(c), (n + c - 1) // c)[:n]
    rng.shuffle(labels)
    features = means[labels] + spec.noise * rng.standard_normal((n, d))
    return rng, labels, features


def pair_draw_offset(spec, seed: int) -> int:
    """The Philox buffer position (0-3) that synth_dataset's first node-pair
    uniform is read from: the stream index of the next word, mod 4."""
    rng, _, _ = synth_prefix(spec, seed)
    return rng.bit_generator.state["buffer_pos"] % 4


def dense_synth_dataset(spec, seed: int):
    """synth_dataset from one (n, n) uniform draw and full n x n masks."""
    rng, labels, features = synth_prefix(spec, seed)
    n = spec.num_nodes
    draws = rng.random((n, n))
    same = labels[:, None] == labels[None, :]
    prob = np.where(same, spec.p_intra, spec.p_inter)
    iu, ju = np.triu_indices(n, k=1)
    hit = draws[iu, ju] < prob[iu, ju]
    edges = np.column_stack([iu[hit], ju[hit]])
    train, val, test = stratified_split(labels, stream(seed, "synth-split"))
    return LocalGraph(features, labels, edges, train, val, test)


def rowblock_synth_dataset(spec, seed: int):
    """synth_dataset drawing every row whole, lower triangle included:
    PAIR_BLOCK // n rows of uniforms at a time, each block's candidates
    below max(p_intra, p_inter) kept and tested in the upper triangle. It
    holds no n x n array, so it checks sizes dense_synth_dataset cannot."""
    rng, labels, features = synth_prefix(spec, seed)
    n = spec.num_nodes
    step = max(1, PAIR_BLOCK // n)
    cut = max(spec.p_intra, spec.p_inter)
    parts = []
    for start in range(0, n, step):
        draws = rng.random(min(step, n - start) * n)
        flat = np.flatnonzero(draws < cut)
        i, j = np.divmod(flat, n)
        i += start
        upper = j > i
        flat, i, j = flat[upper], i[upper], j[upper]
        hit = draws[flat] < np.where(labels[i] == labels[j], spec.p_intra, spec.p_inter)
        parts.append(np.column_stack([i[hit], j[hit]]))
    train, val, test = stratified_split(labels, stream(seed, "synth-split"))
    return LocalGraph(features, labels, np.concatenate(parts), train, val, test)


def encoder_input(g, num_classes: int) -> np.ndarray:
    """One graph's [X | onehot(y)] with a zero condition vector outside the
    train split, read from its features and labels rather than the
    propagated powers and group plan that models.encoder_input reads."""
    onehot = np.zeros((g.n, num_classes))
    if g.train_idx.size:
        onehot[g.train_idx, g.labels[g.train_idx]] = 1.0
    return np.concatenate([g.features, onehot], axis=1)


def onehot_softmax_ce(logits: np.ndarray, rows, onehot: np.ndarray, bounds) -> tuple:
    """(per-member values, gradient) of mean softmax cross entropy against
    dense one-hot targets, each member's loss weighted 1.

    This is the dense-target arithmetic the tape's label-indexed op
    replaces: the correct logit is the row sum of picked * onehot, and the
    backward adds -onehot to the softmax before scattering into the rows.
    """
    classes = logits.shape[-1]
    flat = logits.reshape(-1, classes)
    picked = flat[rows]
    shift = picked.max(axis=1, keepdims=True)
    sum_cols = np.ones((classes, 1))
    e = np.exp(picked - shift)
    z = e @ sum_cols
    lse = np.log(z) + shift
    correct = (picked * onehot) @ sum_cols
    terms = np.add(lse, correct * -1.0)
    scale = 1.0 / np.diff(bounds)
    values = np.array([terms[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]) * scale
    per_row = np.repeat(scale, np.diff(bounds))[:, None]
    picked_grad = (per_row * -1.0) * onehot + (per_row / z) * e
    grad = np.zeros_like(logits)
    np.add.at(grad.reshape(-1, classes), rows, picked_grad)
    return values, grad


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function filled in through boolean masks, one sign at a time."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def slot_pair_bce(z: np.ndarray, pairs: np.ndarray, y: np.ndarray, bounds, g) -> tuple:
    """(per-member values, scores, gradient) of pair_bce, member by member,
    with member m's loss weighted g[m].

    This is the per-member arithmetic the tape's column scatter replaces:
    the scores gather rows through the strided index columns, and the
    backward scatters every (row, column) term with one flattened bincount
    over row * d + column slots.
    """
    n, d = z.shape[-2:]
    flat = z.reshape(-1, d)
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    scores = np.empty(pairs.shape[0])
    values = np.zeros(bounds.size - 1)
    grad = np.zeros_like(z)
    by_member = grad.reshape(-1, n * d)
    for m, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if a == b:
            continue
        heads, tails = pairs[a:b, 0], pairs[a:b, 1]
        scores[a:b] = np.sum(flat[heads] * flat[tails], axis=1)
        values[m] = np.mean(np.logaddexp(0.0, scores[a:b]) - y[a:b] * scores[a:b])
        coef = (g[m] / (b - a)) * (masked_sigmoid(scores[a:b]) - y[a:b])[:, None]
        local = np.concatenate([heads, tails]) - m * n
        slots = (local[:, None] * d + np.arange(d)).ravel()
        weights = np.concatenate([coef * flat[tails], coef * flat[heads]]).ravel()
        by_member[m] = np.bincount(slots, weights=weights, minlength=n * d)
    return values, scores, grad


def loop_cluster_moments(members) -> tuple:
    """(mean, cov) of match_cells for one cell, member by member.

    This is the arithmetic the array moment match replaces: count weights,
    then running sums of the weighted means and second moments in member
    order, then the same symmetrise, eigenvalue floor and symmetrise.
    """
    counts = np.array([m.count for m in members], dtype=np.float64)
    weights = counts / float(counts.sum())
    dim = members[0].dim
    mean = np.zeros(dim)
    for wgt, m in zip(weights, members):
        mean = mean + wgt * m.mean
    cov = np.zeros((dim, dim))
    for wgt, m in zip(weights, members):
        cov = cov + wgt * (m.cov + np.outer(m.mean, m.mean))
    cov = cov - np.outer(mean, mean)
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    floored = eigvecs @ np.diag(np.maximum(eigvals, COV_FLOOR)) @ eigvecs.T
    return mean, 0.5 * (floored + floored.T)


def reference_kmeans(points, k: int, rng, restarts: int = 10, max_iter: int = 50,
                     repairs: list | None = None) -> np.ndarray:
    """cluster.kmeans one restart at a time: seed a restart, run its Lloyd
    iterations to convergence, then seed the next.

    This is the per-restart route the batched Lloyd replaces, with the same
    seeding draws, assignment ties, empty-cluster repair and earliest-restart
    rule, so its labels must be identical. Each repair of an empty cluster
    appends its cluster index to repairs, when given.
    """
    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
    k = min(k, m)

    def sq_dist(centers):
        diff = pts[:, None, :] - centers[None, :, :]
        return np.einsum("ikj,ikj->ik", diff, diff)

    def seed_centers():
        centers = np.empty((k, pts.shape[1]))
        centers[0] = pts[int(rng.integers(m))]
        closest = np.square(pts - centers[0]).sum(axis=1)
        for i in range(1, k):
            total = float(closest.sum())
            if total <= 0:
                centers[i:] = centers[0]
                break
            probs = np.cumsum(closest / total)
            pick = min(int(np.searchsorted(probs, float(rng.random()), side="right")), m - 1)
            centers[i] = pts[pick]
            closest = np.minimum(closest, np.square(pts - centers[i]).sum(axis=1))
        return centers

    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        centers = seed_centers()
        labels = np.full(m, -1, dtype=np.int64)
        dists = sq_dist(centers)
        for _ in range(max_iter):
            new_labels = np.argmin(dists, axis=1)
            for c in range(k):
                members = new_labels == c
                if not np.any(members):
                    if repairs is not None:
                        repairs.append(c)
                    far = int(np.argmax(dists[np.arange(m), new_labels]))
                    centers[c] = pts[far]
                    new_labels[far] = c
                    members = new_labels == c
                centers[c] = pts[members].mean(axis=0)
            dists = sq_dist(centers)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        inertia = float(dists[np.arange(m), labels].sum())
        if inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels, inertia
    return best_labels


def distinct_kl_targets(received: dict) -> dict:
    """{client_id: (labels, means, precisions, logdets)} from
    {client_id: {label: ClassGaussian}}, in ascending label order.

    This is the per-client layout the group's alignment_inputs replaces:
    each distinct representative object is inverted and its
    log-determinant taken once, however many clients receive it. Returns
    None when some representative is not positive definite.
    """
    distinct = {id(rep): rep for reps in received.values() for rep in reps.values()}
    slot = {key: i for i, key in enumerate(distinct)}
    if distinct:
        covs = np.stack([rep.cov for rep in distinct.values()])
        signs, logdets = np.linalg.slogdet(covs)
        if np.any(signs <= 0):
            return None
        precisions = np.linalg.inv(covs)
        precisions = 0.5 * (precisions + np.swapaxes(precisions, 1, 2))
    out = {}
    for cid, reps in received.items():
        labels = sorted(reps)
        if not labels:
            out[cid] = (np.zeros(0, dtype=np.int64), np.zeros((0, 0)),
                        np.zeros((0, 0, 0)), np.zeros(0))
            continue
        picked = [slot[id(reps[c])] for c in labels]
        out[cid] = (np.array(labels, dtype=np.int64),
                    np.stack([reps[c].mean for c in labels]),
                    precisions[picked], logdets[picked])
    return out


def matched_alignment_inputs(plan, targets) -> tuple | None:
    """alignment_inputs from one distinct_kl_targets entry, or None, per
    member: each member's classes are matched with its target labels by
    np.intersect1d."""
    bounds = plan.class_bounds
    rows, picks, sizes = [], [], []
    for m, member in enumerate(targets):
        a = bounds[m]
        local = np.zeros(0, dtype=np.int64)
        if member is not None:
            _common, local, picked = np.intersect1d(
                plan.class_labels[a:bounds[m + 1]], member[0], assume_unique=True,
                return_indices=True)
            if local.size:
                picks.append((member, picked))
        rows.append(local + a)
        sizes.append(local.size)
    if sum(sizes) == 0:
        return None
    return (np.concatenate(rows),
            np.concatenate([t[1][p] for t, p in picks]),
            np.concatenate([t[2][p] for t, p in picks]),
            np.concatenate([t[3][p] for t, p in picks]),
            np.concatenate([[0], np.cumsum(sizes)]))


def loop_average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank, by walking each
    run of equal scores in sorted order."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and scores[order[j]] == scores[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)
        i = j
    return ranks


def round_signature(rm) -> tuple:
    """Canonical content tuple of a RoundMetrics for equality checks."""
    per_client = tuple((cid, dataclasses.astuple(rm.per_client[cid]))
                       for cid in sorted(rm.per_client))
    het = None
    if rm.heterogeneity is not None:
        h = rm.heterogeneity
        het = (h.worst_delta_mu, h.worst_delta_sigma, h.worst_eps_u,
               h.global_delta_mu, h.global_delta_sigma, h.global_eps_u)
    floor = rm.floor.total if rm.floor is not None else None
    return (rm.round_index, per_client, rm.mean_train_metric,
            rm.mean_val_metric, rm.mean_test_metric, het, floor)


# --- wire-format decoders ------------------------------------------------------
# Each parses a message with the struct module, not numpy, and fills
# matrices entry by entry, so a lossless wire form decodes to the in-memory
# arrays. Every decoder checks that it read the whole message.


class _WireReader:
    def __init__(self, message: bytes):
        self.message = message
        self.offset = 0

    def _take(self, fmt: str, count: int) -> tuple:
        fmt = f"<{count}{fmt}"
        values = struct.unpack_from(fmt, self.message, self.offset)
        self.offset += struct.calcsize(fmt)
        return values

    def ints(self, count: int) -> list:
        return list(self._take("i", count))

    def floats(self, count: int) -> np.ndarray:
        return np.array(self._take("d", count), dtype=np.float64)

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        out = np.zeros((rows, cols))
        for i in range(rows):
            for j in range(cols):
                out[i, j] = self._take("d", 1)[0]
        return out

    def done(self) -> None:
        assert self.offset == len(self.message), "message longer than its header says"


def decode_upload(message: bytes) -> dict:
    """client_id, coefficients, classes [(label, count, mean, cov)] with cov
    the diagonal matrix of the sent variances, and the frame's q (or None)."""
    r = _WireReader(message)
    client_id, n_coef, n_classes, d, q_rows, q_cols = r.ints(6)
    ids = r.ints(2 * n_classes)
    coefficients = r.floats(n_coef)
    classes = []
    for label, count in zip(ids[0::2], ids[1::2]):
        mean = r.floats(d)
        cov = np.zeros((d, d))
        for i, var in enumerate(r.floats(d)):
            cov[i, i] = var
        classes.append((label, count, mean, cov))
    q = r.matrix(q_rows, q_cols) if q_rows else None
    r.done()
    return {"client_id": client_id, "coefficients": coefficients,
            "classes": classes, "q": q}


def decode_broadcast(message: bytes) -> tuple:
    """({label: (mean, cov)}, cluster coefficients or None); each cov is
    mirrored from its row-major upper triangle."""
    r = _WireReader(message)
    n_coef, n_reps, d = r.ints(3)
    labels = r.ints(n_reps)
    coeffs = r.floats(n_coef)
    reps = {}
    for label in labels:
        mean = r.floats(d)
        cov = np.zeros((d, d))
        for i in range(d):
            for j in range(i, d):
                cov[i, j] = cov[j, i] = r.floats(1)[0]
        reps[label] = (mean, cov)
    r.done()
    return reps, coeffs if n_coef else None


def decode_params(message: bytes, template: dict) -> dict:
    """{name: array} of a FedAvg message, with the names and shapes of
    `template` (an init_params dict, whose key order the message follows)."""
    r = _WireReader(message)
    sizes = r.ints(len(template))
    assert sizes == [a.size for a in template.values()], sizes
    out = {name: r.floats(a.size).reshape(a.shape) for name, a in template.items()}
    r.done()
    return out


def dict_checkpoint(states, seed: int, rounds_completed: int, w_max: float) -> bytes:
    """checkpoint.json built as one dict and encoded by one canonical_json
    call, as dump_json writes it: the reference for the streamed writer."""
    checkpoint = {
        "seed": seed,
        "rounds_completed": rounds_completed,
        "clients": [dict(params_payload(st.params, w_max), client_id=st.client_id)
                    for st in states],
    }
    return (canonical_json(checkpoint) + "\n").encode("utf-8")
