"""Synchronous federation loop: local training, uploads, server clustering.

One round proceeds in lockstep: every client trains E local epochs against
the representatives it received last round, evaluates, and produces an
upload; the server then clusters the class Gaussians afresh and broadcasts
per-client representatives for the next round. Clients with the same
(n, d) train together: `group_clients` stacks them, in client order, into
groups of at most STACK_ROWS node rows, and each group records one tape
per epoch (`train_group`). `client_round` then finishes each client's
round from its slice of the group's evaluation forward. Spectral-energy
frames are fixed at setup, so they travel in round 1 only: the server
groups them once and later rounds reuse those groups. Client work is keyed by client
id, never by execution order, so permuting the schedule cannot change any
result.

Methods:
  fedssa  - the full protocol (semantic and structural branches can be
            ablated independently; uploads shrink accordingly).
  fedavg  - uniform averaging, every round, of each array in the clients'
            parameter dicts (models.init_params names them).
  local   - isolated training; no messages exist at all.

Uploads carry only statistics: filter coefficients, class-wise latent
means, diagonal variances and sample counts, and (in round 1) the
spectral-energy frame. Raw features, labels and edges never leave the client.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tape as tp
from .errors import (ConfigError, ContractError, NumericError, ProtocolError,
                     ShapeError, TrainingDivergenceError, UndefinedMetricError)
from .graphs import FederationDataset, LocalGraph, canonical_json, laplacian_powers
from .metrics import accuracy, auc
from .models import (ClassGaussian, ClientPlan, GroupPlan, ce_path, class_gaussians,
                     class_stat_paths, client_plan, elbo_path, encoder_input,
                     encoder_path, group_plan, init_params, logits_path,
                     sample_nonedges, spectral_energy, stack_powers)
from .rng import spawn_key, stream
from .semantic import (SemanticClusterMap, alignment_inputs, alignment_path,
                       build_semantic_map, client_kl_targets)
from .structural import (SpectralEnergy, StructuralClusterMap, build_structural_map,
                         pairwise_chordal, structural_cluster)
from .theory import (ErrorFloorReport, HeterogeneityReport, error_floor,
                     measure_heterogeneity)

METHODS = ("fedssa", "fedavg", "local")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Most node rows one stacked training tape holds; a larger client trains alone.
STACK_ROWS = 1024


@dataclass
class RunConfig:
    """Hyperparameters of one federation run."""

    method: str = "fedssa"
    rounds: int = 50
    epochs: int = 3
    order: int = 6
    k_node: int = 3
    k_struct: int = 2
    lambda1: float = 1e-3
    lambda2: float = 1e-3
    lr: float = 0.01
    latent_dim: int = 8
    hidden: int = 32
    w_max: float = 5.0
    semantic: bool = True
    structural: bool = True

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        checks = (("rounds", self.rounds, 0), ("epochs", self.epochs, 0),
                  ("order", self.order, 0), ("k_node", self.k_node, 1),
                  ("k_struct", self.k_struct, 1), ("latent_dim", self.latent_dim, 1),
                  ("hidden", self.hidden, 1))
        for name, value, low in checks:
            if int(value) != value or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda1 and lambda2 must be >= 0")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.w_max < 1:
            raise ConfigError(f"w_max must be >= 1, the filter's starting"
                              f" coefficient, got {self.w_max}")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def fresh(cls, arrays: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in arrays.items()},
                   v={k: np.zeros_like(a) for k, a in arrays.items()}, t=0)

    def copy(self) -> "AdamState":
        return AdamState(m={k: a.copy() for k, a in self.m.items()},
                         v={k: a.copy() for k, a in self.v.items()}, t=self.t)


@dataclass
class ClientState:
    """One client's graph, parameters and caches.

    params holds the trainable arrays from init_params, keyed by tape-leaf
    name. Once group_clients stacks the client, params, h_stack and x_in
    are views of its row of the group's stacks, and the group holds the
    Adam moments.
    """

    client_id: int
    graph: LocalGraph
    task: str
    params: dict
    h_stack: np.ndarray
    x_in: np.ndarray
    plan: ClientPlan
    energy: Optional[SpectralEnergy]
    last_losses: dict = field(default_factory=dict)
    last_metrics: dict = field(default_factory=dict)


@dataclass
class ClientGroup:
    """Clients with one (n, d), trained on one stacked tape per epoch.

    params, adam, h_stack and x_in hold one leading row per member, in the
    order of states; each member's ClientState arrays are views of its row.
    """

    states: list
    plan: GroupPlan
    params: dict
    adam: AdamState
    h_stack: np.ndarray
    x_in: np.ndarray


@dataclass(frozen=True)
class GroupEvaluation:
    """What a group's evaluation forward leaves for its members' client_round.

    losses maps ce, vgae, node and struct to one value per member (0 for a
    term the run does not use), logits stacks the members' logits, and
    class_moments (None without the semantic branch) holds the class
    [mean | var] rows that the group plan's class_bounds split by member.
    """

    losses: dict
    logits: np.ndarray
    class_moments: Optional[np.ndarray]


@dataclass(frozen=True)
class ClientUpload:
    """Statistics a client shares; never raw features, labels or edges."""

    client_id: int
    coefficients: np.ndarray
    class_gaussians: tuple
    spectral_energy: Optional[SpectralEnergy]


@dataclass(frozen=True)
class ServerBroadcast:
    """Per-client representatives for the next round's alignment losses."""

    class_representatives: dict
    cluster_coefficients: Optional[np.ndarray]


@dataclass(frozen=True)
class ServerRound:
    """Broadcasts plus the cluster maps they were derived from."""

    broadcasts: dict
    semantic_map: Optional[SemanticClusterMap]
    structural_map: Optional[StructuralClusterMap]
    distance_ids: tuple
    distance_matrix: Optional[np.ndarray]


@dataclass(frozen=True)
class ClientRoundStats:
    ce: float
    vgae: float
    node: float
    struct: float
    train_metric: float
    val_metric: float
    test_metric: float
    bytes_up: int
    bytes_down: int


@dataclass
class RoundMetrics:
    round_index: int
    per_client: dict
    mean_train_metric: float
    mean_val_metric: float
    mean_test_metric: float
    heterogeneity: Optional[HeterogeneityReport]
    floor: Optional[ErrorFloorReport]
    wall_ms: float = 0.0


# --- payload serialization (byte accounting and checkpoints) ----------------


def _class_payload(g: ClassGaussian) -> dict:
    """A client's class Gaussian; its covariance is diagonal, so only the variances go."""
    if np.any(g.cov[~np.eye(g.dim, dtype=bool)]):
        raise ContractError(f"class {g.label} covariance has a nonzero off-diagonal entry")
    return {"label": g.label, "mean": g.mean.tolist(),
            "var": np.diagonal(g.cov).tolist(), "count": g.count}


def _representative_payload(g: ClassGaussian) -> dict:
    """A representative as its mean and the row-major upper triangle of its cov."""
    if not np.array_equal(g.cov, g.cov.T):
        raise ContractError(f"class {g.label} representative covariance is not symmetric")
    return {"mean": g.mean.tolist(), "cov": g.cov[np.triu_indices(g.dim)].tolist()}


def _energy_payload(e: SpectralEnergy) -> dict:
    return {"client_id": e.client_id, "q": e.q.tolist()}


def upload_payload(u: ClientUpload) -> dict:
    return {
        "client_id": u.client_id,
        "coefficients": u.coefficients.tolist(),
        "class_gaussians": [_class_payload(g) for g in u.class_gaussians],
        "spectral_energy": _energy_payload(u.spectral_energy)
        if u.spectral_energy is not None else None,
    }


def broadcast_payload(b: ServerBroadcast, representative=_representative_payload) -> dict:
    """Wire form of a broadcast; `representative` encodes each representative,
    keyed by its label."""
    return {
        "class_representatives": {str(label): representative(g)
                                  for label, g in sorted(b.class_representatives.items())},
        "cluster_coefficients": b.cluster_coefficients.tolist()
        if b.cluster_coefficients is not None else None,
    }


def params_payload(params: dict, w_max: float) -> dict:
    """Checkpoint (and FedAvg message) form of one client's parameter dict:
    the flat filter row, the head_* arrays and the encoder arrays."""
    head = {name[len("head_"):]: a.tolist() for name, a in params.items()
            if name.startswith("head_")}
    encoder = {name.removeprefix("enc_"): a.tolist() for name, a in params.items()
               if name != "w" and not name.startswith("head_")}
    return {"K": params["w"].size - 1, "w": params["w"].ravel().tolist(),
            "head": dict(head, w_max=w_max), "encoder": encoder}


def payload_nbytes(obj) -> int:
    return len(canonical_json(obj).encode("utf-8"))


def broadcast_nbytes(broadcasts: dict) -> dict:
    """{client_id: payload_nbytes(broadcast_payload(bc))}, encoding each
    distinct representative once (clients of one semantic cluster share the
    objects): the skeleton, with representatives as null, plus each
    representative's size less those 4 bytes."""
    distinct = {id(rep): rep for bc in broadcasts.values()
                for rep in bc.class_representatives.values()}
    rep_bytes = {key: payload_nbytes(_representative_payload(rep)) - len("null")
                 for key, rep in distinct.items()}
    return {cid: payload_nbytes(broadcast_payload(bc, representative=lambda g: None))
            + sum(rep_bytes[id(rep)] for rep in bc.class_representatives.values())
            for cid, bc in broadcasts.items()}


# --- client side ------------------------------------------------------------


def init_client_state(client_id: int, graph: LocalGraph, num_classes: int, task: str,
                      cfg: RunConfig, params: dict) -> ClientState:
    """Fresh client state with its own copy of params and its forward plan;
    fedssa with the structural branch also fixes the frame. A label outside
    the class range or overlapping class groups raise ContractError naming
    the client."""
    plan = client_plan(client_id, graph, num_classes)
    powers = laplacian_powers(graph, cfg.order)
    energy = None
    if cfg.method == "fedssa" and cfg.structural:
        energy = spectral_energy(powers, client_id)
    return ClientState(
        client_id=client_id, graph=graph, task=task,
        params={name: a.copy() for name, a in params.items()},
        h_stack=stack_powers(powers), x_in=encoder_input(graph, num_classes),
        plan=plan, energy=energy,
    )


def group_clients(states: list, order) -> list[ClientGroup]:
    """Stack the states, taken in `order`, into training groups.

    A group holds clients of one (n, d) and at most STACK_ROWS node rows; a
    client with more rows trains as a group of one. Stacking re-points each
    state's params, h_stack and x_in at its row of the group's arrays and
    starts the group's Adam moments at zero.
    """
    by_shape: dict = {}
    members: list = []
    for index in order:
        state = states[index]
        shape = state.graph.features.shape
        group = by_shape.get(shape)
        if group is None or (len(group) + 1) * shape[0] > STACK_ROWS:
            group = by_shape[shape] = []
            members.append(group)
        group.append(state)
    return [_stack(group) for group in members]


def _stack(states: list) -> ClientGroup:
    params = {name: np.stack([s.params[name] for s in states]) for name in states[0].params}
    h_stack = np.stack([s.h_stack for s in states])
    x_in = np.stack([s.x_in for s in states])
    for i, s in enumerate(states):
        s.params = {name: a[i] for name, a in params.items()}
        s.h_stack, s.x_in = h_stack[i], x_in[i]
    return ClientGroup(states=states, plan=group_plan([s.plan for s in states]),
                       params=params, adam=AdamState.fresh(params),
                       h_stack=h_stack, x_in=x_in)


def _adam_step(arrays: dict, grads: dict, st: AdamState, lr: float) -> None:
    st.t += 1
    correct1 = 1.0 - ADAM_BETA1 ** st.t
    correct2 = 1.0 - ADAM_BETA2 ** st.t
    for name, arr in arrays.items():
        g = grads[name]
        st.m[name] = ADAM_BETA1 * st.m[name] + (1.0 - ADAM_BETA1) * g
        st.v[name] = ADAM_BETA2 * st.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        step = lr * (st.m[name] / correct1) / (np.sqrt(st.v[name] / correct2) + ADAM_EPS)
        arr -= step


def _loss_parts(group: ClientGroup, w_bar: Optional[np.ndarray], cfg: RunConfig,
                eps: np.ndarray, nonedges: list, aligned: Optional[tuple]) -> tuple:
    """Assemble one stacked forward pass; returns (tape, leaves, parts dict).

    w_bar stacks the members' broadcast coefficients (or is None), and
    aligned holds the group's alignment_inputs (None without a matching
    representative). Besides the per-member loss terms, parts holds the
    logits and, for fedssa with the semantic branch, the class [mean | var]
    moments (None otherwise).
    """
    plan = group.plan
    tape = tp.Tape()
    leaves = {name: tape.leaf(a, name) for name, a in group.params.items()}
    _p, logits = logits_path(leaves, group.h_stack, plan.n,
                             group.h_stack.shape[-1] // plan.n)
    ce = ce_path(logits, plan)
    mu, logvar = encoder_path(leaves, group.x_in)
    vgae_term = elbo_path(mu, logvar, plan, eps, nonedges)
    total = tp.add(ce, vgae_term)
    moments = None
    node_term = None
    struct_term = None
    if cfg.method == "fedssa" and cfg.semantic:
        moments = class_stat_paths(mu, logvar, plan)
        if aligned is not None:
            node_term = alignment_path(moments, aligned)
            total = tp.add(total, node_term)
    if cfg.method == "fedssa" and cfg.structural:
        struct_term = tp.coefficient_penalty(leaves["w"], w_bar, cfg.lambda1, cfg.lambda2)
        total = tp.add(total, struct_term)
    parts = {"ce": ce, "vgae": vgae_term, "node": node_term,
             "struct": struct_term, "total": total, "logits": logits,
             "moments": moments}
    return tape, leaves, parts


def _cluster_coefficients(group: ClientGroup, broadcasts: dict) -> Optional[np.ndarray]:
    """The members' broadcast filter coefficients, stacked, or None before any."""
    rows = [getattr(broadcasts.get(s.client_id), "cluster_coefficients", None)
            for s in group.states]
    return None if rows[0] is None else np.stack(rows)


def _samples(plan: GroupPlan, seed: int, *path) -> list:
    """Each member's nonedge_count non-edges, drawn from the stream at path.

    Every member draws from the start of that stream: one generator is
    built and rewound to its start state before each member's draw.
    """
    rng = stream(seed, *path)
    start = rng.bit_generator.state
    draws = []
    for p in plan.members:
        rng.bit_generator.state = start
        draws.append(sample_nonedges(p, p.nonedge_count, rng))
    return draws


def train_group(group: ClientGroup, broadcasts: dict, targets: dict, cfg: RunConfig,
                seed: int, round_index: int) -> GroupEvaluation:
    """Train E local epochs on one stacked tape per epoch, then evaluate.

    broadcasts and targets map client ids to last round's ServerBroadcast
    and its representatives prepared by client_kl_targets, which are
    matched with the members' classes once for every forward of the round.
    Every member reads the same train-eps and eval-eps draw, and samples
    its own non-edges. A non-finite loss or gradient, or a nonpositive class
    variance, in any member rolls every member's parameters and the
    group's Adam state back to their values at round entry and raises
    TrainingDivergenceError naming the lowest-id diverging client. With
    epochs == 0 the parameters are untouched.
    """
    plan = group.plan
    shape = (plan.n, cfg.latent_dim)
    snapshot = ({name: a.copy() for name, a in group.params.items()}, group.adam.copy())
    aligned = alignment_inputs(plan, [targets.get(s.client_id) for s in group.states])
    try:
        w_bar = _cluster_coefficients(group, broadcasts)
        for epoch in range(cfg.epochs):
            eps = stream(seed, "train-eps", round_index, epoch).standard_normal(shape)
            _train_step(group, w_bar, cfg, eps,
                        _samples(plan, seed, "train-nonedges", round_index, epoch),
                        aligned)
    except NumericError as exc:
        for name, arr in snapshot[0].items():
            group.params[name][...] = arr
        group.adam = snapshot[1]
        ids = [group.states[m].client_id for m in exc.members or range(len(group.states))]
        raise _diverged(ids, round_index, exc) from exc
    # One evaluation pass on its own streams, for round metrics and the uploads.
    eval_eps = stream(seed, "eval-eps", round_index).standard_normal(shape)
    _tape, _leaves, parts = _loss_parts(group, w_bar, cfg, eval_eps,
                                        _samples(plan, seed, "eval-nonedges", round_index),
                                        aligned)
    members = len(group.states)
    losses = {name: np.zeros(members) if parts[name] is None
              else parts[name].value.reshape(-1) for name in ("ce", "vgae", "node", "struct")}
    return GroupEvaluation(
        losses=losses, logits=parts["logits"].value,
        class_moments=parts["moments"].value if parts["moments"] is not None else None)


def _train_step(group: ClientGroup, w_bar: Optional[np.ndarray], cfg: RunConfig,
                eps: np.ndarray, nonedges: list, aligned: Optional[tuple]) -> None:
    """One stacked forward, backward and Adam step; the tape dies on return,
    before the next forward is recorded."""
    tape, leaves, parts = _loss_parts(group, w_bar, cfg, eps, nonedges, aligned)
    loss = parts["total"].value
    if not np.isfinite(loss).all():
        raise NumericError("non-finite loss",
                           members=np.flatnonzero(~np.isfinite(loss.reshape(-1))))
    grads = tp.grad(tape, parts["total"])
    _adam_step(group.params, {name: grads[var] for name, var in leaves.items()},
               group.adam, cfg.lr)
    np.clip(group.params["w"], -cfg.w_max, cfg.w_max, out=group.params["w"])


def local_round(groups: list, broadcasts: dict, cfg: RunConfig, seed: int,
                round_index: int) -> dict:
    """The client side of one round: train every group, then finish each
    client's round with client_round; returns {client_id: upload}.

    Each distinct representative in the broadcasts is prepared for the
    alignment KL once; one that is not positive definite raises
    TrainingDivergenceError naming the lowest-id client receiving it,
    before any client trains.
    """
    received = {cid: bc.class_representatives for cid, bc in broadcasts.items()
                if bc.class_representatives}
    try:
        targets = client_kl_targets(received)
    except NumericError as exc:
        raise _diverged(exc.members, round_index, exc) from exc
    uploads: dict = {}
    for group in groups:
        evaluation = train_group(group, broadcasts, targets, cfg, seed, round_index)
        for member, state in enumerate(group.states):
            upload = client_round(group, member, evaluation, cfg, round_index)
            if upload is not None:
                uploads[state.client_id] = upload
    return uploads


def _diverged(client_ids, round_index: int, exc: Exception) -> TrainingDivergenceError:
    return TrainingDivergenceError(
        f"client {min(client_ids)} diverged in round {round_index}: {exc}")


def client_round(group: ClientGroup, member: int, evaluation: GroupEvaluation,
                 cfg: RunConfig, round_index: int) -> Optional[ClientUpload]:
    """Finish one client's round from its row of the group's evaluation.

    Sets the client's logged losses and split metrics and, for method
    "fedssa", builds its upload: filter coefficients, the class Gaussians
    of its class statistics, and the frame fixed at setup in round 1 only.
    """
    state = group.states[member]
    state.last_losses = {name: float(values[member])
                         for name, values in evaluation.losses.items()}
    state.last_metrics = evaluate_client(state, evaluation.logits[member])
    if cfg.method != "fedssa":
        return None
    gaussians = ()
    if evaluation.class_moments is not None:
        a, b = group.plan.class_bounds[member:member + 2]
        gaussians = class_gaussians(group.plan.class_labels[a:b],
                                    group.plan.classes.counts[a:b],
                                    evaluation.class_moments[a:b])
    return ClientUpload(
        client_id=state.client_id,
        coefficients=state.params["w"].flatten(),
        class_gaussians=gaussians,
        spectral_energy=state.energy if round_index == 1 else None,
    )


def evaluate_client(state: ClientState, logits: np.ndarray) -> dict:
    """Accuracy (or AUC for binary tasks) of the logits per split; nan when undefined."""
    out = {}
    for split in ("train", "val", "test"):
        mask = state.graph.split(split)
        try:
            if state.task == "binary-auc":
                scores = logits[:, 1] - logits[:, 0]
                out[split] = auc(scores, state.graph.labels, mask, split).value
            else:
                out[split] = accuracy(logits, state.graph.labels, mask, split).value
        except UndefinedMetricError:
            out[split] = float("nan")
    return out


# --- server side -------------------------------------------------------------


def server_step(uploads: dict, k_node: int, k_struct: int, seed: int,
                expected_clients=None, structure: Optional[dict] = None) -> ServerRound:
    """Cluster this round's {client_id: upload} and assemble per-client broadcasts.

    Uploads that carry frames are grouped by k-means, and only then is their
    chordal distance matrix returned. Frameless uploads keep `structure`, an
    earlier round's {client_id: cluster}; every clustered client must upload.
    """
    by_id = {cid: uploads[cid] for cid in sorted(uploads)}
    missing = sorted(set(expected_clients or ()).union(structure or ()) - set(by_id))
    if missing:
        raise ProtocolError(f"missing upload from client {missing[0]}")
    if not by_id:
        raise ProtocolError("server_step received no uploads")
    lengths = {u.coefficients.size for u in by_id.values()}
    if len(lengths) > 1:
        raise ShapeError(f"coefficient lengths differ across clients: {sorted(lengths)}")
    semantic_map = None
    sem_inputs = {cid: u.class_gaussians for cid, u in by_id.items() if u.class_gaussians}
    if sem_inputs:
        semantic_map = build_semantic_map(sem_inputs, k_node, seed)
    structural_map = None
    energies = [u.spectral_energy for u in by_id.values() if u.spectral_energy is not None]
    distance_ids: tuple = ()
    distance_matrix = None
    if energies:
        structure = structural_cluster(energies, k_struct, seed)
        ids, distance_matrix = pairwise_chordal(energies)
        distance_ids = tuple(ids)
    if structure is not None:
        structural_map = build_structural_map(
            structure, {cid: by_id[cid].coefficients for cid in structure})
    broadcasts = {}
    for cid in sorted(by_id):
        reps = {}
        if semantic_map is not None:
            for gaussian in by_id[cid].class_gaussians:
                rep = semantic_map.representative_for(gaussian.label, cid)
                if rep is not None:
                    reps[gaussian.label] = rep
        coeffs = None
        if structural_map is not None and cid in structural_map.assignments:
            coeffs = structural_map.coefficients_for(cid).copy()
        broadcasts[cid] = ServerBroadcast(class_representatives=reps,
                                          cluster_coefficients=coeffs)
    return ServerRound(broadcasts=broadcasts, semantic_map=semantic_map,
                       structural_map=structural_map, distance_ids=distance_ids,
                       distance_matrix=distance_matrix)


# --- top-level loop ----------------------------------------------------------


@dataclass(frozen=True)
class FederationResult:
    """Round history plus the final client states (for checkpointing).

    chordal is round 1's (client ids, chordal distance matrix) over the
    uploaded frames, or None when no client uploads a frame.
    """

    history: list
    states: list
    chordal: Optional[tuple]


def run_federation_detailed(dataset: FederationDataset, cfg: RunConfig, seed: int,
                            client_order=None) -> FederationResult:
    """Run T synchronous rounds; return per-round metrics and final states.

    client_order optionally fixes the schedule clients train in; it must be
    a permutation of range(M) and cannot affect any result (asserted by the
    test suite, guaranteed by id-keyed streams and id-sorted aggregation).
    """
    cfg.validate()
    if dataset.num_clients < 1:
        raise ContractError("federation needs at least one client")
    m = dataset.num_clients
    order = list(range(m)) if client_order is None else [int(i) for i in client_order]
    if sorted(order) != list(range(m)):
        raise ContractError("client_order must be a permutation of range(num_clients)")
    params0 = init_params(dataset.feature_dim, dataset.num_classes, cfg.order,
                          cfg.hidden, cfg.latent_dim, stream(seed, "init"))
    states = [init_client_state(i, g, dataset.num_classes, dataset.task, cfg, params0)
              for i, g in enumerate(dataset.clients)]
    groups = group_clients(states, order)
    broadcasts: dict = {}
    structure = None  # round 1's structural clusters, kept for the run
    chordal = None  # round 1's (ids, chordal distance matrix)
    history: list[RoundMetrics] = []
    for round_index in range(1, cfg.rounds + 1):
        t_start = time.perf_counter()
        uploads = local_round(groups, broadcasts, cfg, seed, round_index)
        bytes_up = {cid: 0 for cid in range(m)}
        bytes_down = {cid: 0 for cid in range(m)}
        heterogeneity = None
        floor = None
        if cfg.method == "fedssa":
            server = server_step(uploads, cfg.k_node, cfg.k_struct,
                                 spawn_key(seed, "server", round_index),
                                 expected_clients=range(m), structure=structure)
            broadcasts = server.broadcasts
            if server.distance_matrix is not None:
                chordal = (server.distance_ids, server.distance_matrix)
                structure = server.structural_map.assignments
            for cid, up in uploads.items():
                bytes_up[cid] = payload_nbytes(upload_payload(up))
            bytes_down.update(broadcast_nbytes(broadcasts))
            heterogeneity = measure_heterogeneity(
                {cid: up.class_gaussians for cid, up in uploads.items()},
                chordal, server.semantic_map, server.structural_map)
            floor = error_floor(heterogeneity, cfg.order, cfg.lambda1, cfg.lambda2)
        elif cfg.method == "fedavg":
            for cid in range(m):
                bytes_up[cid] = payload_nbytes(params_payload(states[cid].params,
                                                              cfg.w_max))
            for name in states[0].params:
                mean = np.mean([s.params[name] for s in states], axis=0)
                for s in states:
                    s.params[name][...] = mean
            size = payload_nbytes(params_payload(states[0].params, cfg.w_max))
            for cid in range(m):
                bytes_down[cid] = size
        per_client = {}
        for cid in range(m):
            losses = states[cid].last_losses
            metric = states[cid].last_metrics
            per_client[cid] = ClientRoundStats(
                ce=losses["ce"], vgae=losses["vgae"], node=losses["node"],
                struct=losses["struct"], train_metric=metric["train"],
                val_metric=metric["val"], test_metric=metric["test"],
                bytes_up=bytes_up[cid], bytes_down=bytes_down[cid])
        means = {}
        for split in ("train", "val", "test"):
            vals = [states[cid].last_metrics[split] for cid in range(m)
                    if np.isfinite(states[cid].last_metrics[split])]
            means[split] = float(np.mean(vals)) if vals else float("nan")
        history.append(RoundMetrics(
            round_index=round_index, per_client=per_client,
            mean_train_metric=means["train"], mean_val_metric=means["val"],
            mean_test_metric=means["test"], heterogeneity=heterogeneity,
            floor=floor, wall_ms=(time.perf_counter() - t_start) * 1e3))
    return FederationResult(history=history, states=states, chordal=chordal)
