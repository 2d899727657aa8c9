"""Theory diagnostics: heterogeneity measurement and convergence accounting.

These routines turn a round's cluster maps into the quantities the
convergence story is written in: per-cluster semantic divergences
(delta_mu, delta_sigma), per-cluster structural divergence (eps_U), the
resulting error floor, and the contraction recursion it feeds. The KL
audit checks the closed-form alignment bound member by member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .linalg import pairwise_distances
from .models import ClassGaussian
from .semantic import SemanticClusterMap, gaussian_kl
from .structural import StructuralClusterMap


@dataclass(frozen=True)
class SemanticClusterStats:
    """Worst-case divergences inside one (class, cluster) cell."""

    label: int
    cluster: int
    size: int
    delta_mu: float
    delta_sigma: float


@dataclass(frozen=True)
class StructuralClusterStats:
    """Worst-case chordal spread inside one structural cluster."""

    cluster: int
    size: int
    eps_u: float


@dataclass(frozen=True)
class HeterogeneityReport:
    """Clustered and unclustered divergence measurements for one round."""

    semantic: tuple
    structural: tuple
    worst_delta_mu: float
    worst_delta_sigma: float
    worst_eps_u: float
    global_delta_mu: float
    global_delta_sigma: float
    global_eps_u: float


def measure_heterogeneity(chordal: tuple | None, semantic_map: SemanticClusterMap | None,
                          structural_map: StructuralClusterMap | None) -> HeterogeneityReport:
    """Summarize divergences per cluster and over the whole federation.

    The semantic cells are read from semantic_map.members, and a class's
    holders are the union of its cells: one distance matrix per class, over
    its holders' means and over their covariances, gives the spreads of the
    class and of each cell (its block). chordal is the (ids, matrix) pair of
    `pairwise_chordal` over the clients' frames, or None without a
    structural branch. The global_* fields ignore cluster structure (max
    over all holder pairs), which is the baseline the clustered values are
    compared against.
    """
    cells = sorted(semantic_map.members.items()) if semantic_map is not None else []
    semantic_stats, global_spreads = [], []
    for label in sorted({label for (label, _), _ in cells}):
        own = [(cluster, members) for (lab, cluster), members in cells if lab == label]
        holders = [g for _, members in own for g in members]
        mu = pairwise_distances([g.mean for g in holders])
        sigma = pairwise_distances([g.cov for g in holders])
        global_spreads.append((float(mu.max(initial=0.0)), float(sigma.max(initial=0.0))))
        ends = np.cumsum([len(members) for _, members in own])
        for (cluster, members), end in zip(own, ends):
            block = slice(end - len(members), end)
            semantic_stats.append(SemanticClusterStats(
                label=int(label), cluster=int(cluster), size=len(members),
                delta_mu=float(mu[block, block].max(initial=0.0)),
                delta_sigma=float(sigma[block, block].max(initial=0.0))))
    ids, matrix = chordal if chordal is not None else ((), np.zeros((0, 0)))
    structural_stats = []
    if structural_map is not None and chordal is not None:
        row = {cid: i for i, cid in enumerate(ids)}
        for cluster in sorted(set(structural_map.assignments.values())):
            rows = [row[cid] for cid in sorted(structural_map.assignments)
                    if structural_map.assignments[cid] == cluster]
            structural_stats.append(StructuralClusterStats(
                cluster=int(cluster), size=len(rows),
                eps_u=float(matrix[np.ix_(rows, rows)].max())))
    return HeterogeneityReport(
        semantic=tuple(semantic_stats),
        structural=tuple(structural_stats),
        worst_delta_mu=max((s.delta_mu for s in semantic_stats), default=0.0),
        worst_delta_sigma=max((s.delta_sigma for s in semantic_stats), default=0.0),
        worst_eps_u=max((s.eps_u for s in structural_stats), default=0.0),
        global_delta_mu=max((mu for mu, _ in global_spreads), default=0.0),
        global_delta_sigma=max((sigma for _, sigma in global_spreads), default=0.0),
        global_eps_u=float(matrix.max(initial=0.0)),
    )


@dataclass(frozen=True)
class ErrorFloorReport:
    """Additive error floor split into its three sources: semantic
    delta_mu + delta_mu^2 + delta_sigma, structural (K + 1) eps_U and the
    regulariser's lambda1 + lambda2."""

    delta_mu: float
    delta_sigma: float
    eps_u: float
    order: int
    lambda1: float
    lambda2: float
    semantic_term: float = field(init=False)
    structural_term: float = field(init=False)
    reg_term: float = field(init=False)
    total: float = field(init=False)

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("regularizer weights must be >= 0")
        semantic = self.delta_mu + self.delta_mu ** 2 + self.delta_sigma
        structural = (self.order + 1) * self.eps_u
        reg = self.lambda1 + self.lambda2
        object.__setattr__(self, "semantic_term", semantic)
        object.__setattr__(self, "structural_term", structural)
        object.__setattr__(self, "reg_term", reg)
        object.__setattr__(self, "total", semantic + structural + reg)


def error_floor(report: HeterogeneityReport, order: int, lambda1: float,
                lambda2: float) -> ErrorFloorReport:
    """Error floor from a round's worst-case clustered divergences."""
    return ErrorFloorReport(delta_mu=report.worst_delta_mu,
                            delta_sigma=report.worst_delta_sigma,
                            eps_u=report.worst_eps_u, order=int(order),
                            lambda1=lambda1, lambda2=lambda2)


@dataclass(frozen=True)
class ContractionResult:
    """Distance recursion, its closed-form bound, and the fixed point."""

    rho: float
    distances: tuple
    bounds: tuple
    fixed_point: float


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ContractError(f"{name} must be finite, got {value}")


def contraction_simulate(l_f: float, lam_f: float, dist0: float, floor: float,
                         rounds: int) -> ContractionResult:
    """Iterate d_{t+1} = rho d_t + floor / L_F and check the closed form.

    rho = 1 - lam_F / (L_F + lam_F). The closed-form bound at round t is
    rho^t d_0 + ((L_F + lam_F) / (lam_F L_F)) * floor; the sequence must
    stay below it at every step (asserted to 1e-12).
    """
    _require_finite(l_f=l_f, lam_f=lam_f, dist0=dist0, floor=floor)
    if not (0 < lam_f <= l_f):
        raise ContractError(f"need 0 < lam_f <= l_f, got lam_f={lam_f}, l_f={l_f}")
    if dist0 < 0 or floor < 0:
        raise ContractError("initial distance and floor must be >= 0")
    if rounds < 0:
        raise ContractError(f"rounds must be >= 0, got {rounds}")
    rho = 1.0 - lam_f / (l_f + lam_f)
    limit = (l_f + lam_f) / (lam_f * l_f) * floor
    distances = [float(dist0)]
    bounds = [float(dist0) + limit]
    d = float(dist0)
    for t in range(1, rounds + 1):
        d = rho * d + floor / l_f
        bound = rho ** t * dist0 + limit
        assert d <= bound + 1e-12, f"recursion exceeded closed form at round {t}"
        distances.append(d)
        bounds.append(bound)
    return ContractionResult(rho=rho, distances=tuple(distances),
                             bounds=tuple(bounds), fixed_point=limit)


def rounds_to_reach(l_f: float, lam_f: float, dist0: float, xi: float) -> int:
    """Smallest round budget T with rho^T dist0 <= xi, from the log schedule.

    T = ceil(((L_F + lam_F) / lam_F) * ln(dist0 / xi)), clamped at 0.
    """
    _require_finite(l_f=l_f, lam_f=lam_f, dist0=dist0, xi=xi)
    if not (0 < lam_f <= l_f):
        raise ContractError(f"need 0 < lam_f <= l_f, got lam_f={lam_f}, l_f={l_f}")
    if xi <= 0 or dist0 < 0:
        raise ContractError("need xi > 0 and dist0 >= 0")
    if dist0 <= xi:
        return 0
    return int(math.ceil((l_f + lam_f) / lam_f * math.log(dist0 / xi)))


@dataclass(frozen=True)
class KLAuditEntry:
    """One member's alignment KL against the cluster-level bound."""

    client_id: int
    actual: float
    bound: float
    within: bool


@dataclass(frozen=True)
class KLAudit:
    """Cluster-level KL bound audit for one (class, cluster) cell."""

    label: int
    delta_mu: float
    delta_sigma: float
    precondition_ok: bool
    entries: tuple

    @property
    def violations(self) -> int:
        return sum(1 for e in self.entries if self.precondition_ok and not e.within)


def kl_bound_audit(members: dict, representative: ClassGaussian) -> KLAudit:
    """Check KL(member || representative) against the closed-form bound.

    members maps client id to ClassGaussian. The bound uses the cluster's
    pairwise worst-case divergences:
        delta_mu^2 / (2 sigma^2) + 3 d (delta_sigma + delta_mu^2) / (2 sigma^2)
    with sigma^2 the representative's smallest covariance eigenvalue. It is
    only claimed when delta_sigma + delta_mu^2 <= sigma^2 / 2; outside that
    precondition entries are reported but not counted as violations.
    """
    if not members:
        raise ContractError("kl_bound_audit needs at least one member")
    ordered = [(cid, members[cid]) for cid in sorted(members)]
    gaussians = [g for _, g in ordered]
    for g in gaussians:
        if g.label != representative.label:
            raise ContractError("member class label differs from representative")
    delta_mu = float(pairwise_distances([g.mean for g in gaussians]).max(initial=0.0))
    delta_sigma = float(pairwise_distances([g.cov for g in gaussians]).max(initial=0.0))
    sigma_sq = float(np.linalg.eigvalsh(representative.cov)[0])
    precondition_ok = (delta_sigma + delta_mu ** 2) <= sigma_sq / 2.0
    d = representative.dim
    bound = (delta_mu ** 2 / (2.0 * sigma_sq)
             + 3.0 * d * (delta_sigma + delta_mu ** 2) / (2.0 * sigma_sq))
    entries = []
    for cid, g in ordered:
        actual = gaussian_kl(g, representative)
        entries.append(KLAuditEntry(client_id=int(cid), actual=actual, bound=bound,
                                    within=actual <= bound + 1e-9))
    return KLAudit(label=int(representative.label), delta_mu=delta_mu,
                   delta_sigma=delta_sigma, precondition_ok=precondition_ok,
                   entries=tuple(entries))
