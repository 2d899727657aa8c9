"""Graph containers, synthetic data, partitioning and on-disk formats.

A LocalGraph is one client's private shard: an undirected simple graph with
node features, integer labels and disjoint train/val/test index arrays.
Arrays are canonicalized and frozen at construction so downstream code can
cache derived quantities (Laplacian powers) safely.

Partitioning follows a streaming greedy scheme: nodes arrive in BFS order
and each is placed into the part with the most already-assigned neighbors,
penalized by how full the part is, under hard per-part quotas that differ
by at most one node. Cross-part edges are dropped and counted. The
overlapping variant first builds floor(M/5) base parts and then samples
five half-size client subsets from each part, so client node sets within a
base part overlap while never crossing part boundaries.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError, InfeasibleError, ShapeError
from .rng import stream

SPLIT_FRACTIONS = (0.2, 0.4, 0.4)
TASKS = ("multiclass", "binary-auc")
# synth_dataset draws its node-pair uniforms this many at a time: pair
# (i, j > i) reads word i·n + j of the stream, so the edges are those of a
# single (n, n) draw and do not depend on the block size. Each block keeps
# only its candidates, the entries below the larger edge probability, and
# tests each of them against its own probability.
PAIR_BLOCK = 1 << 17
# Row i's lower-triangle prefix, its i + 1 words up to the diagonal, is not
# drawn when it is at least this long: Philox is counter-based, and
# Philox4x64 makes 4 words per counter value (numpy's Philox docstring), so
# the generator jumps past the prefix by moving its counter. One jump costs
# about as much as drawing several hundred words, so shorter prefixes are
# drawn and discarded, in blocks of whole rows.
JUMP_WORDS = 1024


def _index_array(values, n: int, what: str) -> np.ndarray:
    """A sorted, frozen private copy of one split's indices."""
    arr = np.array(values, dtype=np.int64).reshape(-1)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ContractError(f"{what} indices out of range for n={n}")
    if not (arr[1:] > arr[:-1]).all():
        arr.sort()
        if (arr[1:] == arr[:-1]).any():
            raise ContractError(f"{what} indices contain duplicates")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LocalGraph:
    """One client's graph shard. Immutable after construction."""

    features: np.ndarray
    labels: np.ndarray
    edges: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        # Private copies: the caller's arrays stay writable and unshared.
        feats = np.array(self.features, dtype=np.float64, order="C")
        if feats.ndim != 2:
            raise ShapeError(f"features must be 2-D, got ndim {feats.ndim}")
        if not np.isfinite(feats).all():
            raise ContractError("features contain non-finite entries")
        n = feats.shape[0]
        labels = np.array(self.labels, dtype=np.int64).reshape(-1)
        if labels.shape[0] != n:
            raise ShapeError(f"labels length {labels.shape[0]} != n={n}")
        if labels.size and labels.min() < 0:
            raise ContractError("labels must be nonnegative integers")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ContractError(f"edge endpoints out of range for n={n}")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ContractError("self loops are not allowed")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            keys = lo * n + hi
            if (keys[1:] > keys[:-1]).all():
                edges = np.column_stack([lo, hi])
            else:
                keys = np.unique(keys)
                edges = np.column_stack([keys // n, keys % n])
        else:
            edges = edges.reshape(0, 2)
        # owner[v] is 1 + the index in names of the first split holding v, so
        # a clash names the earliest pair: train/val, train/test, val/test.
        names = ("train", "val", "test")
        splits = [_index_array(getattr(self, f"{name}_idx"), n, name) for name in names]
        owner = np.zeros(n, dtype=np.int8)
        for code, (name, idx) in enumerate(zip(names, splits), 1):
            held = owner[idx]
            if held.any():
                raise ContractError(f"{names[held[held > 0].min() - 1]} and {name}"
                                    " splits overlap")
            owner[idx] = code
        train, val, test = splits
        feats.setflags(write=False)
        labels.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "train_idx", train)
        object.__setattr__(self, "val_idx", val)
        object.__setattr__(self, "test_idx", test)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def split(self, name: str) -> np.ndarray:
        return {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[name]


@dataclass(frozen=True)
class FederationDataset:
    """A fixed roster of client shards plus federation-wide metadata.

    dropped_edges counts the source graph's edges that partitioning cut.
    Under the nonoverlap scheme it is the number of edges whose ends lie in
    different clients. Under the overlap scheme it is the sum, over
    clients, of the client's edges with one end outside it, so an edge
    counts once for each client it leaves and the sum can exceed the
    graph's edge count.
    """

    clients: tuple
    num_classes: int
    feature_dim: int
    task: str
    node_maps: tuple = ()
    dropped_edges: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.task == "binary-auc" and self.num_classes != 2:
            raise ConfigError("binary-auc task requires exactly 2 classes")
        for client_id, g in enumerate(self.clients):
            if g.feature_dim != self.feature_dim:
                raise ShapeError(f"client {client_id}: feature dimension {g.feature_dim}"
                                 f" differs from federation {self.feature_dim}")
            if g.labels.size and int(g.labels.max()) >= self.num_classes:
                raise ContractError(f"client {client_id}: label {int(g.labels.max())}"
                                    " exceeds federation class count"
                                    f" {self.num_classes}")

    @property
    def num_clients(self) -> int:
        return len(self.clients)


def laplacian_powers(g: LocalGraph, order: int) -> list[np.ndarray]:
    """Propagated features [X, L X, L^2 X, ..., L^order X].

    L = I - D^{-1/2} A D^{-1/2} is applied from the edge list: each edge
    (u, v) of weight w = 1/sqrt(deg_u deg_v) moves w·x[v] out of row u and
    w·x[u] out of row v. Isolated nodes keep the unit diagonal. Per power,
    one `np.bincount` per column x of rows [0..n-1 | u | v], weighted by
    [1 | -w | -w]·x[0..n-1 | v | u], needs O(n + |E|) scratch. Each entry
    sums 0, 1·x = x, its row-u then row-v terms in edge order: the order,
    and so the bits, of one bincount over flattened (row·d + column) slots.
    """
    if order < 0:
        raise ContractError(f"order must be >= 0, got {order}")
    n, d = g.features.shape
    u, v = g.edges[:, 0], g.edges[:, 1]
    deg = np.bincount(g.edges.ravel(), minlength=n)
    inv_sqrt = np.zeros(n)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    neg_weight = -(inv_sqrt[u] * inv_sqrt[v])
    rows, src = np.concatenate([np.arange(n), u, v]), np.concatenate([np.arange(n), v, u])
    scale = np.concatenate([np.ones(n), neg_weight, neg_weight])
    powers = [g.features.copy()]
    x = powers[0].T
    for _ in range(order):
        x = np.array([np.bincount(rows, scale * col[src], n) for col in x]).reshape(d, n)
        powers.append(np.ascontiguousarray(x.T))
    return powers


def stratified_split(labels: np.ndarray, rng: np.random.Generator) -> tuple:
    """Per-class shuffled split into (train, val, test) index arrays.

    Every class with at least one node contributes at least one training
    node; remaining nodes go to val then test by SPLIT_FRACTIONS.
    """
    f_train, f_val, _ = SPLIT_FRACTIONS
    train, val, test = [], [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        k = idx.size
        n_train = max(1, int(round(f_train * k)))
        n_val = min(int(round(f_val * k)), k - n_train)
        train.append(idx[:n_train])
        val.append(idx[n_train:n_train + n_val])
        test.append(idx[n_train + n_val:])
    cat = lambda parts: np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
    return cat(train), cat(val), cat(test)


@dataclass(frozen=True)
class SynthSpec:
    """Stochastic block model recipe for one synthetic graph."""

    num_nodes: int
    num_classes: int
    feature_dim: int
    p_intra: float
    p_inter: float
    mean_scale: float = 2.0
    noise: float = 1.0
    class_means: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        for name, p in (("p_intra", self.p_intra), ("p_inter", self.p_inter)):
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        if self.noise < 0:
            raise ConfigError("noise must be >= 0")
        if self.class_means is not None:
            means = np.ascontiguousarray(np.asarray(self.class_means, dtype=np.float64))
            if means.shape != (self.num_classes, self.feature_dim):
                raise ShapeError(f"class_means must be {(self.num_classes, self.feature_dim)},"
                                 f" got {means.shape}")
            means.setflags(write=False)
            object.__setattr__(self, "class_means", means)


def synth_dataset(spec: SynthSpec, seed: int) -> LocalGraph:
    """Sample one stochastic block model graph with Gaussian features.

    Labels are balanced up to remainder and shuffled; features are the
    class mean plus isotropic noise; each node pair i < j draws an edge with
    probability p_intra (same label) or p_inter (otherwise), from word
    i·n + j of the stream past the features: the uniform of entry (i, j) of
    one row-major (n, n) draw. Rows whose prefix up to the diagonal is
    shorter than JUMP_WORDS are drawn whole, a block of rows at a time.
    Every later row is drawn from column i + 1 only: the Philox counter
    (4 words per value) is advanced over the whole blocks of the prefix and
    `random_raw` reads the rest, so about half of the n² words are drawn.
    Each block's candidates below max(p_intra, p_inter) are kept and each
    is tested against its own probability. A uniform below its own
    probability is below the larger one too, so the edges, and their
    row-major order, are those of the (n, n) draw compared entrywise.
    Splits are stratified 20/40/40. Deterministic given (spec, seed).
    """
    rng = stream(seed, "synth")
    c, d, n = spec.num_classes, spec.feature_dim, spec.num_nodes
    if spec.class_means is not None:
        means = spec.class_means
    else:
        means = spec.mean_scale * rng.standard_normal((c, d))
    labels = np.tile(np.arange(c), (n + c - 1) // c)[:n]
    rng.shuffle(labels)
    features = means[labels] + spec.noise * rng.standard_normal((n, d))
    step = max(1, PAIR_BLOCK // n)
    cut = max(spec.p_intra, spec.p_inter)
    buf = np.empty(min(step, n) * n)
    parts = []

    def keep(draws, flat, i, j):
        hit = draws[flat] < np.where(labels[i] == labels[j], spec.p_intra, spec.p_inter)
        parts.append(np.column_stack([i[hit], j[hit]]))

    whole = min(n, JUMP_WORDS - 1)
    for start in range(0, whole, step):
        draws = buf[:min(step, whole - start) * n]
        rng.random(out=draws)
        flat = np.flatnonzero(draws < cut)
        i, j = np.divmod(flat, n)
        i += start
        upper = j > i
        keep(draws, flat[upper], i[upper], j[upper])
    if whole < n - 1:
        # pos is the stream index of the next word, 4·counter + buffer_pos;
        # after any read buffer_pos >= 1, so the counter is (pos - 1) // 4.
        bits = rng.bit_generator
        state = bits.state
        pos = (4 * sum(int(w) << (64 * k) for k, w in enumerate(state["state"]["counter"]))
               + state["buffer_pos"])
        origin = pos - whole * n
        row = whole
        while row < n - 1:
            first, starts, fill = row, [], 0
            while row < n - 1 and fill + n - 1 - row <= buf.size:
                length, target = n - 1 - row, origin + row * n + row + 1
                bits.advance(target // 4 - 1 - (pos - 1) // 4)
                if target % 4:
                    bits.random_raw(target % 4)
                starts.append(fill)
                rng.random(out=buf[fill:fill + length])
                pos, fill, row = target + length, fill + length, row + 1
            draws = buf[:fill]
            flat = np.flatnonzero(draws < cut)
            starts = np.asarray(starts)
            at = np.searchsorted(starts, flat, side="right") - 1
            keep(draws, flat, first + at, first + at + 1 + flat - starts[at])
    edges = np.concatenate(parts)
    train, val, test = stratified_split(labels, stream(seed, "synth-split"))
    return LocalGraph(features, labels, edges, train, val, test)


def _neighbor_lists(n: int, edges: np.ndarray) -> tuple:
    """CSR adjacency (indptr, indices); each node's neighbours ascend."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def _bfs_order(n: int, indptr: np.ndarray, indices: np.ndarray, root: int) -> list[int]:
    """Breadth-first order from root; an exhausted queue restarts at the
    lowest unseen node."""
    order: list[int] = []
    seen = np.zeros(n, dtype=bool)
    queue = deque([root])
    seen[root] = True
    restart = 0
    while len(order) < n:
        if not queue:
            while seen[restart]:
                restart += 1
            seen[restart] = True
            queue.append(restart)
        node = queue.popleft()
        order.append(node)
        nbrs = indices[indptr[node]:indptr[node + 1]]
        fresh = nbrs[~seen[nbrs]]
        seen[fresh] = True
        queue.extend(fresh.tolist())
    return order


def _greedy_assignment(n: int, edges: np.ndarray, num_parts: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Streaming greedy partition with per-part quotas differing by <= 1.

    A node's score for a part is its count of neighbours already there
    minus the part's fill size/quota; full parts score -inf and ties go to
    the lowest part index.
    """
    base, rem = divmod(n, num_parts)
    quotas = np.array([base + (1 if i < rem else 0) for i in range(num_parts)])
    indptr, indices = _neighbor_lists(n, edges)
    order = _bfs_order(n, indptr, indices, int(rng.integers(n)))
    assign = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.int64)
    fill = np.where(quotas > 0, 0.0, np.inf)
    for node in order:
        parts = assign[indices[indptr[node]:indptr[node + 1]]]
        score = np.bincount(parts[parts >= 0], minlength=num_parts) - fill
        part = int(np.argmax(score))
        assign[node] = part
        sizes[part] += 1
        fill[part] = sizes[part] / quotas[part]
        if sizes[part] == quotas[part]:
            fill[part] = np.inf
    return assign


def _part_edges(edges: np.ndarray, assign: np.ndarray, num_parts: int) -> list:
    """Each part's internal edges, in the original edge order."""
    part = assign[edges[:, 0]]
    internal = np.flatnonzero(part == assign[edges[:, 1]])
    internal = internal[np.argsort(part[internal], kind="stable")]
    bounds = np.cumsum(np.bincount(part[internal], minlength=num_parts))[:-1]
    return [edges[rows] for rows in np.split(internal, bounds)]


def _induce(g: LocalGraph, nodes: np.ndarray, edges: np.ndarray, degree: np.ndarray,
            split_rng: np.random.Generator) -> tuple:
    """Subgraph induced on sorted global node ids, with fresh splits, and
    its cut-edge count. edges must hold every edge of g inside nodes (it may
    hold more); degree is g's degree vector."""
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size)
    local = pos[edges]
    local = local[(local >= 0).all(axis=1)]
    dropped = int(degree[nodes].sum()) - 2 * local.shape[0]
    labels = g.labels[nodes]
    train, val, test = stratified_split(labels, split_rng)
    return LocalGraph(g.features[nodes], labels, local, train, val, test), dropped


def partition_nonoverlap(g: LocalGraph, num_clients: int, seed: int,
                         task: str = "multiclass") -> FederationDataset:
    """Split a global graph into disjoint client shards covering all nodes.

    Part sizes differ by at most one node. Edges crossing shard boundaries
    are dropped and counted in the returned dataset.
    """
    if num_clients < 2:
        raise ContractError(f"need at least 2 clients, got {num_clients}")
    if num_clients > g.n:
        raise InfeasibleError(f"cannot split {g.n} nodes into {num_clients} nonempty parts")
    assign = _greedy_assignment(g.n, g.edges, num_clients, stream(seed, "partition"))
    degree = np.bincount(g.edges.ravel(), minlength=g.n)
    part_edges = _part_edges(g.edges, assign, num_clients)
    clients, maps = [], []
    dropped_total = 0
    for part in range(num_clients):
        nodes = np.flatnonzero(assign == part)
        sub, dropped = _induce(g, nodes, part_edges[part], degree,
                               stream(seed, "partition-split", part))
        clients.append(sub)
        maps.append(nodes)
        dropped_total += dropped
    return FederationDataset(tuple(clients), g.num_classes(), g.feature_dim, task,
                             tuple(maps), dropped_total // 2)


def partition_overlap(g: LocalGraph, num_clients: int, seed: int,
                      task: str = "multiclass") -> FederationDataset:
    """Sample overlapping client shards from floor(M/5) disjoint base parts.

    Produces 5 * floor(M/5) clients; each is an induced subgraph on a
    half-size node sample drawn without replacement from one base part, so
    clients within a part overlap but never straddle part boundaries.
    """
    if num_clients < 5:
        raise ContractError(f"overlap scheme needs at least 5 clients, got {num_clients}")
    num_parts = num_clients // 5
    if num_parts >= 2:
        assign = _greedy_assignment(g.n, g.edges, num_parts, stream(seed, "partition"))
    else:
        assign = np.zeros(g.n, dtype=np.int64)
    degree = np.bincount(g.edges.ravel(), minlength=g.n)
    part_edges = _part_edges(g.edges, assign, num_parts)
    clients, maps = [], []
    dropped_total = 0
    client_idx = 0
    for part in range(num_parts):
        base_nodes = np.flatnonzero(assign == part)
        half = base_nodes.size // 2
        if half < 1:
            raise InfeasibleError(f"base part {part} has {base_nodes.size} nodes;"
                                  " cannot sample half-size clients")
        for _ in range(5):
            pick_rng = stream(seed, "overlap-sample", client_idx)
            pick = pick_rng.choice(base_nodes.size, size=half, replace=False)
            nodes = base_nodes[np.sort(pick)]
            sub, dropped = _induce(g, nodes, part_edges[part], degree,
                                   stream(seed, "partition-split", client_idx))
            clients.append(sub)
            maps.append(nodes)
            dropped_total += dropped
            client_idx += 1
    return FederationDataset(tuple(clients), g.num_classes(), g.feature_dim, task,
                             tuple(maps), dropped_total)


# --- on-disk formats ------------------------------------------------------

_GRAPH_KEYS = {"n", "directed", "edges", "features", "labels", "masks"}
_FEATURE_KEYS = {"rows", "cols", "data"}
_MASK_KEYS = {"train", "val", "test"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = allowed - set(obj)
    if missing:
        raise ConfigError(f"missing key {sorted(missing)[0]!r} in {where}")


def _json_int(value, where: str, field: str) -> int:
    """A nonnegative JSON integer; ConfigError naming the file and field otherwise."""
    if type(value) is not int or value < 0:
        raise ConfigError(f"{where}: {field} must be a nonnegative integer, got {value!r}")
    return value


def _json_ints(value, where: str, field: str, pairs: bool = False) -> list:
    """A JSON list of integers, or of [u, v] integer pairs; ConfigError naming
    the file and field otherwise, so 1.5, true or null never become an index."""
    entries = value if isinstance(value, list) else [value]
    if pairs:
        entries = [x for e in entries
                   for x in (e if isinstance(e, list) and len(e) == 2 else [e])]
    bad = [x for x in entries if type(x) is not int]
    if bad or not isinstance(value, list):
        kind = "[u, v] integer pairs" if pairs else "integers"
        raise ConfigError(f"{where}: {field} must be a list of {kind},"
                          f" got {(bad or [value])[0]!r}")
    return value


def graph_to_dict(g: LocalGraph) -> dict:
    return {
        "n": g.n,
        "directed": False,
        "edges": g.edges.tolist(),
        "features": {"rows": g.n, "cols": g.feature_dim, "data": g.features.ravel().tolist()},
        "labels": g.labels.tolist(),
        "masks": {name: g.split(name).tolist() for name in ("train", "val", "test")},
    }


def graph_from_dict(obj: dict, where: str = "graph file") -> LocalGraph:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must contain a JSON object")
    _check_keys(obj, _GRAPH_KEYS, where)
    if obj["directed"] is not False:
        raise ConfigError(f"{where}: only undirected graphs are supported")
    feats = obj["features"]
    if not isinstance(feats, dict):
        raise ConfigError(f"{where}: features must be an object")
    _check_keys(feats, _FEATURE_KEYS, f"{where} features")
    n, d = (_json_int(feats[key], where, f"features.{key}") for key in ("rows", "cols"))
    if n != _json_int(obj["n"], where, "n"):
        raise ConfigError(f"{where}: feature rows {n} != n {obj['n']}")
    if not isinstance(feats["data"], list) or any(type(x) not in (int, float)
                                                  for x in feats["data"]):
        raise ConfigError(f"{where}: features.data must be a list of numbers")
    data = np.asarray(feats["data"], dtype=np.float64)
    if data.size != n * d:
        raise ConfigError(f"{where}: feature data length {data.size} != rows*cols {n * d}")
    masks = obj["masks"]
    if not isinstance(masks, dict):
        raise ConfigError(f"{where}: masks must be an object")
    _check_keys(masks, _MASK_KEYS, f"{where} masks")
    try:
        return LocalGraph(data.reshape(n, d), _json_ints(obj["labels"], where, "labels"),
                          _json_ints(obj["edges"], where, "edges", pairs=True),
                          *(_json_ints(masks[key], where, f"masks.{key}")
                            for key in ("train", "val", "test")))
    except (ContractError, ShapeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_json(obj, path: Path) -> None:
    """Write canonical_json(obj) with a trailing newline, creating parent dirs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj) + "\n")


def save_graph(g: LocalGraph, path) -> None:
    dump_json(graph_to_dict(g), Path(path))


def load_graph(path) -> LocalGraph:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"graph file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return graph_from_dict(payload, where=str(path))


_MANIFEST_KEYS = {"clients", "num_classes", "feature_dim", "task", "dropped_edges",
                  "files", "node_maps"}


def save_dataset(ds: FederationDataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for i, g in enumerate(ds.clients):
        name = f"client_{i:03d}.json"
        save_graph(g, out / name)
        files.append(name)
    node_maps = [[int(v) for v in m] for m in ds.node_maps] if ds.node_maps else \
                [[int(v) for v in range(g.n)] for g in ds.clients]
    manifest = {"clients": ds.num_clients, "num_classes": ds.num_classes,
                "feature_dim": ds.feature_dim, "task": ds.task,
                "dropped_edges": ds.dropped_edges, "files": files,
                "node_maps": node_maps}
    dump_json(manifest, out / "manifest.json")


def load_dataset(path) -> FederationDataset:
    root = Path(path)
    try:
        with open(root / "manifest.json") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"dataset manifest not found: {root / 'manifest.json'}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{root / 'manifest.json'} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError("manifest.json must contain a JSON object")
    where = str(root / "manifest.json")
    _check_keys(manifest, _MANIFEST_KEYS, where)
    files = manifest["files"]
    bad = [x for x in files if type(x) is not str] if isinstance(files, list) else [files]
    if bad:
        raise ConfigError(f"{where}: files must be a list of file names, got {bad[0]!r}")
    clients = tuple(load_graph(root / name) for name in files)
    for name, g in zip(files, clients):
        if not g.train_idx.size:
            raise ConfigError(f"{root / name}: masks.train is empty; every client"
                              " needs train rows")
    if len(clients) != _json_int(manifest["clients"], where, "clients"):
        raise ConfigError(f"{where}: clients does not match the {len(clients)} files")
    maps = manifest["node_maps"]
    if not isinstance(maps, list) or len(maps) != len(clients):
        raise ConfigError(f"{where}: node_maps must hold one map per client file"
                          f" ({len(clients)})")
    for i, (node_map, g) in enumerate(zip(maps, clients)):
        if len(_json_ints(node_map, where, f"node_maps[{i}]")) != g.n:
            raise ConfigError(f"{where}: node_maps[{i}] has {len(node_map)} entries,"
                              f" client {i} has {g.n} nodes")
    num_classes, feature_dim, dropped = (_json_int(manifest[key], where, key) for key in
                                         ("num_classes", "feature_dim", "dropped_edges"))
    try:
        return FederationDataset(clients, num_classes, feature_dim, manifest["task"],
                                 tuple(np.asarray(m, dtype=np.int64) for m in maps), dropped)
    except (ConfigError, ContractError, ShapeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
