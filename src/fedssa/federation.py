"""Synchronous federation loop: local training, uploads, server clustering.

`run_round` advances a `RunState` one round: every client trains E local
epochs against the representatives it received last round, evaluates, and
produces an upload; the server then clusters the class Gaussians afresh and
broadcasts per-client representatives for the next round.
`run_federation_detailed` builds the state, runs T rounds and returns it.
Clients with the same (n, d) train together: `group_clients` stacks them, in
id order, into groups of at most STACK_ROWS node rows, and each group
records one tape per epoch (`train_group`). `client_round` returns each
client's stats and upload from its slice of the group's evaluation.
Spectral-energy frames are fixed at setup, so they travel in round 1 only:
the server groups them once and later rounds reuse those groups. The client
streams are keyed by round, not by client id.

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

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tape as tp
from .errors import (ConfigError, ContractError, NumericError, ProtocolError,
                     ShapeError, TrainingDivergenceError, UndefinedMetricError)
from .graphs import FederationDataset, LocalGraph, laplacian_powers
from .metrics import accuracy, auc
from .models import (GroupPlan, ce_path, class_gaussians, elbo_path, encoder_input,
                     encoder_path, group_plan, init_params, logits_path,
                     sample_nonedges, spectral_energy, stack_powers)
from .rng import spawn_key, stream
from .semantic import SemanticClusterMap, alignment_inputs, build_semantic_map
from .structural import (SpectralEnergy, StructuralClusterMap, build_structural_map,
                         pairwise_chordal, structural_cluster)
from .theory import (ErrorFloorReport, HeterogeneityReport, error_floor,
                     measure_heterogeneity)

METHODS = ("fedssa", "fedavg", "local")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Most node rows one stacked training tape holds; a larger client trains alone.
STACK_ROWS = 2048


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
        for name in ("lambda1", "lambda2", "lr", "w_max"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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


@dataclass
class ClientState:
    """One client's graph, parameters and frame.

    params holds views of the client's row of its group's parameter stacks,
    keyed by tape-leaf name; energy is the frame fixed at setup (None
    without the structural branch).
    """

    client_id: int
    graph: LocalGraph
    task: str
    params: dict
    energy: Optional[SpectralEnergy]


@dataclass
class ClientGroup:
    """Clients with one (n, d), trained on one stacked tape per epoch.

    params, adam and h_stack hold one leading row per member, in states order;
    each member's params view its row. train_group builds the encoder input.
    """

    states: list
    plan: GroupPlan
    params: dict
    adam: AdamState
    h_stack: np.ndarray


@dataclass(frozen=True)
class GroupEvaluation:
    """What a group's evaluation forward leaves for its members' client_round.

    losses maps ClientRoundStats' loss fields, ce, vgae, node and struct, to
    one value per member (0 for a term the run does not use), logits stacks
    the members' logits, and class_moments (None without the semantic
    branch) holds the class [mean | var] rows that the group plan's
    class_bounds split by member.
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


# --- wire form (byte accounting) and checkpoints ------------------------------
# Every message is a little-endian int32 header of ids and counts followed by
# float64 arrays, row-major, in a fixed order. Its length is the bytes it puts
# on the wire, and it holds every value exactly.


def _message(header: list, arrays: list) -> bytes:
    return (np.asarray(header, dtype="<i4").tobytes()
            + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays))


def encode_upload(u: ClientUpload) -> bytes:
    """Header: client id, coefficient count, class count, latent dim d, frame
    rows and columns (0 without a frame), then each class's label and count.
    Floats: the coefficients, each class's mean and d variances (a client's
    class covariance is diagonal), then the frame Q."""
    q = u.spectral_energy.q if u.spectral_energy is not None else np.zeros((0, 0))
    d = u.class_gaussians[0].dim if u.class_gaussians else 0
    header = [u.client_id, u.coefficients.size, len(u.class_gaussians), d, *q.shape]
    arrays = [u.coefficients]
    off = ~np.eye(d, dtype=bool)
    for g in u.class_gaussians:
        if np.any(g.cov[off]):
            raise ContractError(f"class {g.label} covariance has a nonzero off-diagonal entry")
        header += [g.label, g.count]
        arrays += [g.mean, np.diagonal(g.cov)]
    return _message(header, arrays + [q])


def encode_broadcast(b: ServerBroadcast) -> bytes:
    """Header: coefficient count (0 without cluster coefficients),
    representative count, latent dim d, then each representative's label in
    ascending order. Floats: the cluster coefficients, then each
    representative's mean and the row-major upper triangle of its
    covariance (a moment-matched covariance is exactly symmetric)."""
    reps = sorted(b.class_representatives.items())
    coeffs = b.cluster_coefficients if b.cluster_coefficients is not None else np.zeros(0)
    d = reps[0][1].dim if reps else 0
    header = [coeffs.size, len(reps), d]
    arrays = [coeffs]
    upper = np.triu_indices(d)
    for label, g in reps:
        if not (g.cov == g.cov.T).all():
            raise ContractError(f"class {label} representative covariance is not symmetric")
        header.append(label)
        arrays += [g.mean, g.cov[upper]]
    return _message(header, arrays)


def encode_params(params: dict) -> bytes:
    """A FedAvg message, up or down: each array's entry count, then every
    array, in init_params key order."""
    return _message([a.size for a in params.values()], list(params.values()))


def params_payload(params: dict, w_max: float) -> dict:
    """Checkpoint form of one client's parameter dict: the flat filter row,
    the head_* arrays and the encoder arrays."""
    head = {name[len("head_"):]: a.tolist() for name, a in params.items()
            if name.startswith("head_")}
    encoder = {name.removeprefix("enc_"): a.tolist() for name, a in params.items()
               if name != "w" and not name.startswith("head_")}
    return {"K": params["w"].size - 1, "w": params["w"].ravel().tolist(),
            "head": dict(head, w_max=w_max), "encoder": encoder}


# --- client side ------------------------------------------------------------


def group_clients(dataset: FederationDataset, cfg: RunConfig,
                  params0: dict) -> list[ClientGroup]:
    """Build the training groups straight from the dataset's clients.

    A group holds clients of one (n, d) and at most STACK_ROWS node rows; a
    client with more rows trains as a group of one. Clients are walked in id
    order, and each one's Laplacian powers and frame (fedssa with the
    structural branch) are computed once, so a rank-deficient client is
    named before any later one. Each group stacks its members' powers and a
    copy of params0 per member, starts its Adam moments at zero and builds
    its plan. Only the semantic channel reads the VGAE, so any other run
    keeps params0's w and head_* alone.
    """
    framed = cfg.method == "fedssa" and cfg.structural
    vgae = cfg.method == "fedssa" and cfg.semantic
    params0 = {name: a for name, a in params0.items()
               if vgae or name == "w" or name.startswith("head_")}
    by_shape: dict = {}
    members: list = []
    for client_id, graph in enumerate(dataset.clients):
        powers = laplacian_powers(graph, cfg.order)
        energy = spectral_energy(powers, client_id) if framed else None
        shape = graph.features.shape
        group = by_shape.get(shape)
        if group is None or (len(group) + 1) * shape[0] > STACK_ROWS:
            group = by_shape[shape] = []
            members.append(group)
        group.append((client_id, graph, energy, stack_powers(powers)))
        del powers  # free them before the next client's are built (peak memory)
    groups = []
    for group in members:
        groups.append(_stack(group, dataset.task, params0))
        group.clear()  # free the members' own rows; the group's stacks copy them
    return groups


def _stack(members: list, task: str, params0: dict) -> ClientGroup:
    """One group from its members' (client id, graph, frame, powers)."""
    ids, graphs, energies, h_rows = zip(*members)
    params = {name: np.repeat(a[None], len(ids), axis=0) for name, a in params0.items()}
    states = [ClientState(client_id=cid, graph=graph, task=task,
                          params={name: a[i] for name, a in params.items()}, energy=energy)
              for i, (cid, graph, energy) in enumerate(zip(ids, graphs, energies))]
    return ClientGroup(states=states, plan=group_plan(list(graphs)), params=params,
                       adam=AdamState.fresh(params), h_stack=np.stack(h_rows))


def _encoder_input(group: ClientGroup) -> Optional[np.ndarray]:
    """The group's stacked [X | onehot(y)]; None when it trains no VGAE."""
    if "enc_w1" in group.params:
        d = group.h_stack.shape[-1] // group.plan.n
        return encoder_input(group.h_stack, group.plan, group.params["enc_w1"].shape[-2] - d)


def _adam_updates(grads: dict, st: AdamState, lr: float) -> dict:
    """One Adam step: the update to subtract from each named array. It
    rebinds st.m[name] and st.v[name] to new arrays and never writes into
    the old ones, which rollback reads."""
    st.t += 1
    correct1 = 1.0 - ADAM_BETA1 ** st.t
    correct2 = 1.0 - ADAM_BETA2 ** st.t
    steps = {}
    for name, g in grads.items():
        st.m[name] = ADAM_BETA1 * st.m[name] + (1.0 - ADAM_BETA1) * g
        st.v[name] = ADAM_BETA2 * st.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        steps[name] = lr * (st.m[name] / correct1) / (np.sqrt(st.v[name] / correct2) + ADAM_EPS)
    return steps


def _loss_parts(group: ClientGroup, x_in: Optional[np.ndarray], w_bar: Optional[np.ndarray],
                aligned: Optional[tuple], cfg: RunConfig, seed: int, phase: str, *key) -> tuple:
    """Assemble one stacked forward pass; returns (tape, leaves, parts dict).

    w_bar stacks the members' broadcast coefficients (or is None), and
    aligned holds the group's alignment_inputs (None without a matching
    representative). An encoder input x_in adds the VGAE, on eps and
    non-edges from the {phase}-eps and {phase}-nonedges streams at key.
    Besides the per-member loss terms (None when unused), parts holds the
    logits and the class [mean | var] moments (None without the VGAE).
    """
    plan = group.plan
    tape = tp.Tape()
    leaves = {name: tape.leaf(a, name) for name, a in group.params.items()}
    _p, logits = logits_path(leaves, group.h_stack, plan.n,
                             group.h_stack.shape[-1] // plan.n)
    total = ce = ce_path(logits, plan)
    vgae_term = moments = node_term = struct_term = None
    if x_in is not None:
        eps = stream(seed, f"{phase}-eps", *key).standard_normal((plan.n, cfg.latent_dim))
        mu, logvar = encoder_path(leaves, x_in)
        vgae_term = elbo_path(mu, logvar, plan, eps,
                              _samples(plan, seed, f"{phase}-nonedges", *key))
        total = tp.add(total, vgae_term)
        moments = tp.segment_moments(mu, logvar, plan.classes)
        if aligned is not None:
            node_term = tp.diag_gaussian_kl(moments, *aligned)
            total = tp.add(total, node_term)
    if cfg.method == "fedssa" and cfg.structural:
        struct_term = tp.coefficient_penalty(leaves["w"], w_bar, cfg.lambda1, cfg.lambda2)
        total = tp.add(total, struct_term)
    loss = total.value
    if not np.isfinite(loss).all():
        raise NumericError("non-finite loss",
                           members=np.flatnonzero(~np.isfinite(loss.reshape(-1))))
    parts = {"ce": ce, "vgae": vgae_term, "node": node_term,
             "struct": struct_term, "total": total, "logits": logits,
             "moments": moments}
    return tape, leaves, parts


def _samples(plan: GroupPlan, seed: int, *path) -> list:
    """Each member's nonedge_counts[m] non-edges, drawn from the stream at path.

    Every member draws from the start of that stream: one generator is
    built and rewound to its start state before each member's draw.
    """
    rng = stream(seed, *path)
    start = rng.bit_generator.state
    draws = []
    for member, count in enumerate(plan.nonedge_counts):
        rng.bit_generator.state = start
        draws.append(sample_nonedges(plan, member, count, rng))
    return draws


def train_group(group: ClientGroup, w_bar: Optional[np.ndarray], aligned: Optional[tuple],
                cfg: RunConfig, seed: int, round_index: int) -> GroupEvaluation:
    """Train E local epochs on one stacked tape per epoch, then evaluate.

    w_bar stacks the members' broadcast cluster coefficients (None before
    any), and aligned holds the group's alignment_inputs, which every
    forward of the round reads (None without a matching representative).
    With the VGAE, the forwards read one encoder input, built here and
    dropped on return; every member reads the same eps draw and samples its
    own non-edges. A non-finite loss or gradient, or a nonpositive class
    variance, in any member and any forward, the evaluation's too, rolls
    every member's parameters and the group's Adam state back to their
    values at round entry and raises TrainingDivergenceError naming the
    lowest-id diverging client; a local or fedavg group has no VGAE value
    to roll it back. With epochs == 0 the parameters are untouched.
    """
    # Adam writes params in place but rebinds its moments (_adam_updates).
    params = {name: a.copy() for name, a in group.params.items()}
    adam = AdamState(dict(group.adam.m), dict(group.adam.v), group.adam.t)
    x_in = _encoder_input(group)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for epoch in range(cfg.epochs):
                _train_step(group, x_in, w_bar, aligned, cfg, seed, round_index, epoch)
            # One evaluation pass on its own streams, for round metrics and the uploads.
            _tape, _leaves, parts = _loss_parts(group, x_in, w_bar, aligned, cfg, seed,
                                                "eval", round_index)
    except NumericError as exc:
        for name, arr in params.items():
            group.params[name][...] = arr
        group.adam = adam
        ids = [group.states[m].client_id for m in exc.members or range(len(group.states))]
        raise _diverged(ids, round_index, exc) from exc
    members = len(group.states)
    losses = {name: np.zeros(members) if parts[name] is None
              else parts[name].value.reshape(-1) for name in ("ce", "vgae", "node", "struct")}
    return GroupEvaluation(
        losses=losses, logits=parts["logits"].value,
        class_moments=parts["moments"].value if parts["moments"] is not None else None)


def _train_step(group: ClientGroup, x_in: Optional[np.ndarray], w_bar: Optional[np.ndarray],
                aligned: Optional[tuple], cfg: RunConfig, seed: int, round_index: int,
                epoch: int) -> None:
    """One stacked forward, backward and Adam step.

    The tape's leaves reference group.params, so the tape is dropped before
    the updates are written into them. The updates are built while it is
    alive: freed first, the tape's blocks would be trimmed from the top of
    the heap and faulted back in by the next forward.
    """
    tape, leaves, parts = _loss_parts(group, x_in, w_bar, aligned, cfg, seed, "train",
                                      round_index, epoch)
    grads = tp.grad(tape, parts["total"])
    steps = _adam_updates({name: grads[var] for name, var in leaves.items()}, group.adam,
                          cfg.lr)
    del tape, leaves, parts, grads
    for name, arr in group.params.items():
        arr -= steps[name]
    np.clip(group.params["w"], -cfg.w_max, cfg.w_max, out=group.params["w"])


def local_round(groups: list, broadcasts: dict, cfg: RunConfig, seed: int,
                round_index: int) -> tuple[dict, dict]:
    """The client side of one round: train every group, then finish each
    client's round with client_round; returns ({client_id: ClientRoundStats},
    {client_id: upload}), the stats with zero bytes.

    Each group reads its members' broadcasts once, before any group trains:
    their cluster coefficients, stacked (None before any), and their
    representatives, as alignment_inputs. A received representative that
    is not positive definite raises TrainingDivergenceError naming the
    lowest-id client, across all groups, that receives one.
    """
    inputs, diverged = [], []
    for group in groups:
        received = [broadcasts.get(s.client_id) for s in group.states]
        coeffs = [getattr(b, "cluster_coefficients", None) for b in received]
        try:
            inputs.append((None if coeffs[0] is None else np.stack(coeffs),
                           alignment_inputs(group.plan, [getattr(b, "class_representatives", {})
                                                         for b in received])))
        except NumericError as exc:
            diverged += [group.states[m].client_id for m in exc.members]
            error = exc
    if diverged:
        raise _diverged(diverged, round_index, error) from error
    stats: dict = {}
    uploads: dict = {}
    for group, (w_bar, aligned) in zip(groups, inputs):
        evaluation = train_group(group, w_bar, aligned, cfg, seed, round_index)
        for member, state in enumerate(group.states):
            stats[state.client_id], upload = client_round(group, member, evaluation, cfg,
                                                          round_index)
            if upload is not None:
                uploads[state.client_id] = upload
    return stats, uploads


def _diverged(client_ids, round_index: int, exc: Exception) -> TrainingDivergenceError:
    return TrainingDivergenceError(
        f"client {min(client_ids)} diverged in round {round_index}: {exc}")


def client_round(group: ClientGroup, member: int, evaluation: GroupEvaluation,
                 cfg: RunConfig, round_index: int
                 ) -> tuple[ClientRoundStats, Optional[ClientUpload]]:
    """Finish one client's round from its row of the group's evaluation.

    Returns the client's losses and split metrics as ClientRoundStats with
    zero bytes, and, for method "fedssa", its upload (None otherwise):
    filter coefficients, the class Gaussians of its class statistics, and
    the frame fixed at setup in round 1 only.
    """
    state = group.states[member]
    metric = evaluate_client(state, evaluation.logits[member])
    stats = ClientRoundStats(
        **{name: float(values[member]) for name, values in evaluation.losses.items()},
        train_metric=metric["train"], val_metric=metric["val"],
        test_metric=metric["test"], bytes_up=0, bytes_down=0)
    if cfg.method != "fedssa":
        return stats, None
    gaussians = ()
    if evaluation.class_moments is not None:
        a, b = group.plan.class_bounds[member:member + 2]
        gaussians = class_gaussians(group.plan.class_labels[a:b],
                                    group.plan.classes.counts[a:b],
                                    evaluation.class_moments[a:b])
    return stats, ClientUpload(
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
                out[split] = auc(scores, state.graph.labels, mask, split)
            else:
                out[split] = accuracy(logits, state.graph.labels, mask, split)
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
    An upload whose own client id, or whose frame's, differs from its key
    raises ProtocolError.
    """
    by_id = {cid: uploads[cid] for cid in sorted(uploads)}
    for cid, u in by_id.items():
        claimed = {u.client_id, getattr(u.spectral_energy, "client_id", cid)}
        if claimed != {cid}:
            raise ProtocolError(f"upload keyed {cid} carries client ids {sorted(claimed)}")
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
            reps = {g.label: semantic_map.representatives[
                (g.label, semantic_map.assignments[g.label][cid])]
                for g in by_id[cid].class_gaussians}
        coeffs = None
        if structural_map is not None and cid in structural_map.assignments:
            coeffs = structural_map.mean_coefficients[structural_map.assignments[cid]]
        broadcasts[cid] = ServerBroadcast(class_representatives=reps,
                                          cluster_coefficients=coeffs)
    return ServerRound(broadcasts=broadcasts, semantic_map=semantic_map,
                       structural_map=structural_map, distance_ids=distance_ids,
                       distance_matrix=distance_matrix)


# --- top-level loop ----------------------------------------------------------


@dataclass
class RunState:
    """What a run carries from round to round: the training groups (stacked
    parameters and Adam moments), the server's last broadcasts by client id,
    round 1's {client_id: structural cluster} and (client ids, chordal
    distance matrix) over the uploaded frames (None without frames), and the
    completed rounds' RoundMetrics. states lists every ClientState in id order."""

    groups: list
    num_clients: int
    broadcasts: dict = dataclasses.field(default_factory=dict)
    structure: Optional[dict] = None
    chordal: Optional[tuple] = None
    history: list = dataclasses.field(default_factory=list)

    @property
    def states(self) -> list:
        return sorted((s for g in self.groups for s in g.states), key=lambda s: s.client_id)


def run_round(state: RunState, cfg: RunConfig, seed: int) -> RoundMetrics:
    """Advance the run one round: local_round, then the fedssa server step or
    the fedavg average; append the round's RoundMetrics, bytes included, to
    history. A TrainingDivergenceError leaves history (and exc.history) at
    the completed rounds and broadcasts at the last completed round's."""
    round_index, m = len(state.history) + 1, state.num_clients
    try:
        stats, uploads = local_round(state.groups, state.broadcasts, cfg, seed, round_index)
    except TrainingDivergenceError as exc:
        exc.history = tuple(state.history)
        raise
    bytes_up, bytes_down = {}, {}  # a client without a message counts 0 bytes
    heterogeneity = floor = None
    if cfg.method == "fedssa":
        server = server_step(uploads, cfg.k_node, cfg.k_struct,
                             spawn_key(seed, "server", round_index),
                             expected_clients=range(m), structure=state.structure)
        state.broadcasts = server.broadcasts
        if server.distance_matrix is not None:
            state.chordal = (server.distance_ids, server.distance_matrix)
            state.structure = server.structural_map.assignments
        bytes_up = {cid: len(encode_upload(up)) for cid, up in uploads.items()}
        bytes_down = {cid: len(encode_broadcast(bc)) for cid, bc in state.broadcasts.items()}
        heterogeneity = measure_heterogeneity(state.chordal, server.semantic_map,
                                              server.structural_map)
        floor = error_floor(heterogeneity, cfg.order, cfg.lambda1, cfg.lambda2)
    elif cfg.method == "fedavg":
        states = state.states
        bytes_up = {s.client_id: len(encode_params(s.params)) for s in states}
        for name in states[0].params:
            mean = np.mean([s.params[name] for s in states], axis=0)
            for s in states:
                s.params[name][...] = mean
        bytes_down = dict.fromkeys(range(m), len(encode_params(states[0].params)))
    per_client = {cid: dataclasses.replace(stats[cid], bytes_up=bytes_up.get(cid, 0),
                                           bytes_down=bytes_down.get(cid, 0))
                  for cid in range(m)}
    means = {}
    for split in ("train", "val", "test"):
        vals = [v for v in (getattr(s, f"{split}_metric") for s in per_client.values())
                if np.isfinite(v)]
        means[f"mean_{split}_metric"] = float(np.mean(vals)) if vals else float("nan")
    state.history.append(RoundMetrics(round_index=round_index, per_client=per_client,
                                      heterogeneity=heterogeneity, floor=floor, **means))
    return state.history[-1]


def run_federation_detailed(dataset: FederationDataset, cfg: RunConfig,
                            seed: int) -> RunState:
    """Run T synchronous rounds (run_round) and return the final RunState.

    The client streams (train-eps, eval-eps, train-nonedges, eval-nonedges)
    are keyed by round (and epoch) but not by client, so every client reads
    the same noise, and each member's non-edge draw starts from its
    stream's start state. Stacked training is row by row, so a client's
    result does not depend on its group, and aggregation is id-sorted.
    """
    cfg.validate()
    if dataset.num_clients < 1:
        raise ContractError("federation needs at least one client")
    params0 = init_params(dataset.feature_dim, dataset.num_classes, cfg.order,
                          cfg.hidden, cfg.latent_dim, stream(seed, "init"))
    state = RunState(groups=group_clients(dataset, cfg, params0),
                     num_clients=dataset.num_clients)
    for _ in range(cfg.rounds):
        run_round(state, cfg, seed)
    return state
