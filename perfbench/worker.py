"""One measured repeat of one workload, in its own process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out DIR
       [--trace] [--smoke]

Writes DIR/config.yaml, the run's artifacts under DIR/artifacts and
DIR/result.json with the repeat's timings, peak memory, checks and (with
--trace) per-layer metrics. Exits 1 if the run raised.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from fedssa import cli, config, federation  # noqa: E402

import oracles  # noqa: E402
from tracer import Tracer, rebind  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

TOLERANCE = 1e-9


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Capture:
    """Counts finished client rounds and keeps each server step's inputs and output."""

    def __init__(self):
        self.client_rounds = 0
        self.server_rounds = []

    def install(self) -> None:
        client_round = federation.client_round
        server_step = federation.server_step

        def counted_client_round(*args, **kwargs):
            out = client_round(*args, **kwargs)
            self.client_rounds += 1
            return out

        def captured_server_step(uploads, *args, **kwargs):
            out = server_step(uploads, *args, **kwargs)
            self.server_rounds.append((dict(uploads), out))
            return out

        rebind(client_round, counted_client_round)
        rebind(server_step, captured_server_step)


# --- output checks ------------------------------------------------------------
# Each returns a list of problems; an empty list means the check passed.


def check_accuracy(artifacts: Path, dataset) -> list:
    """(a) Last-round test_metric per client equals a recomputation from checkpoint.json."""
    with open(artifacts / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = max(int(r["round"]) for r in rows)
    reported = {int(r["client"]): float(r["test_metric"])
                for r in rows if int(r["round"]) == last}
    checkpoint = json.loads((artifacts / "checkpoint.json").read_text())
    problems = []
    for params in checkpoint["clients"]:
        cid = params["client_id"]
        g = dataset.clients[cid]
        if g.test_idx.size == 0:
            continue
        ours = oracles.accuracy(params, g.features, g.edges, g.labels, g.test_idx)
        if ours != reported[cid]:
            problems.append(f"client {cid}: metrics.csv {reported[cid]!r}, recomputed {ours!r}")
    if len(checkpoint["clients"]) != dataset.num_clients:
        problems.append(f"checkpoint holds {len(checkpoint['clients'])} clients")
    return problems


def check_regimes(server_rounds: list, clients_per_regime: int) -> list:
    """(b) Structural clusters split the two planted regimes in every round."""
    problems = []
    for round_index, (_uploads, server) in enumerate(server_rounds, start=1):
        assign = server.structural_map.assignments
        a = {assign[c] for c in range(clients_per_regime)}
        b = {assign[c] for c in range(clients_per_regime, 2 * clients_per_regime)}
        if len(a) != 1 or len(b) != 1 or a == b:
            problems.append(f"round {round_index}: regime A in {sorted(a)}, B in {sorted(b)}")
    return problems


def check_semantic(server_rounds: list) -> list:
    """(c) Every semantic representative is the count-weighted moment match of its cluster."""
    problems = []
    for round_index, (uploads, server) in enumerate(server_rounds, start=1):
        sem = server.semantic_map
        for (label, cluster), rep in sorted(sem.representatives.items()):
            members = [g for cid in sorted(sem.assignments[label])
                       if sem.assignments[label][cid] == cluster
                       for g in uploads[cid].class_gaussians if g.label == label]
            mean, cov = oracles.moment_match([g.mean for g in members],
                                             [g.cov for g in members],
                                             [g.count for g in members])
            err = max(float(np.max(np.abs(mean - rep.mean))),
                      float(np.max(np.abs(cov - rep.cov))))
            if err > TOLERANCE or rep.count != sum(g.count for g in members):
                problems.append(f"round {round_index} class {label} cluster {cluster}:"
                                f" error {err:.3e}")
    return problems


def check_chordal(server_rounds: list) -> list:
    """(d) Every server chordal distance matches SVD principal angles.

    A round whose server step computed no distance matrix has nothing to check.
    """
    problems = []
    for round_index, (uploads, server) in enumerate(server_rounds, start=1):
        if getattr(server, "distance_matrix", None) is None:
            continue
        ids = list(server.distance_ids)
        if sorted(ids) != sorted(uploads):
            problems.append(f"round {round_index}: distance ids {ids[:5]}...")
            continue
        frames = [uploads[cid].spectral_energy.q for cid in ids]
        worst = 0.0
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                ours = oracles.principal_angle_distance(frames[i], frames[j])
                worst = max(worst, abs(ours - server.distance_matrix[i, j]),
                            abs(ours - server.distance_matrix[j, i]))
        if worst > TOLERANCE:
            problems.append(f"round {round_index}: worst error {worst:.3e}")
    return problems


def check_partition(cfg, seed: int, dataset) -> list:
    """(e) Partition contract, and every client is the induced subgraph it claims."""
    graph = config.build_global_graph(cfg, seed)
    problems = oracles.partition_problems(cfg.partition.scheme, graph.n,
                                          list(dataset.node_maps))
    for cid, (g, nodes) in enumerate(zip(dataset.clients, dataset.node_maps)):
        if not (np.array_equal(g.features, graph.features[nodes])
                and np.array_equal(g.labels, graph.labels[nodes])
                and np.array_equal(g.edges, oracles.induced_edges(graph.edges, nodes))):
            problems.append(f"client {cid} is not the subgraph induced on its nodes")
    return problems


def run_checks(cfg, seed: int, dataset, artifacts: Path, server_rounds: list) -> dict:
    checks = {
        "accuracy": check_accuracy(artifacts, dataset),
        "server_rounds": [] if len(server_rounds) == cfg.run.rounds else
                         [f"{len(server_rounds)} server steps for {cfg.run.rounds} rounds"],
        "semantic_moments": check_semantic(server_rounds),
        "chordal": check_chordal(server_rounds),
    }
    if cfg.dataset["kind"] == "two-regime":
        checks["regimes"] = check_regimes(server_rounds, cfg.dataset["clients_per_regime"])
    if cfg.partition is not None:
        checks["partition"] = check_partition(cfg, seed, dataset)
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(workload_config(args.workload, args.seed, args.smoke)))
    reps = 1 if args.trace or args.smoke else WORKLOADS[args.workload]["setup_reps"]

    capture = Capture()
    capture.install()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "client_rounds": 0}
    try:
        setup_samples = []
        for _ in range(reps):
            start = time.perf_counter()
            cfg = config.load_config(cfg_path)
            dataset = config.build_dataset(cfg, cfg.seed)
            setup_samples.append(time.perf_counter() - start)
        result["setup_samples"] = setup_samples
        result["rss_after_setup_mb"] = rss_mb()
        gc.collect()

        artifacts = out / "artifacts"
        start = time.perf_counter()
        run = federation.run_federation_detailed(dataset, cfg.run, cfg.seed)
        summary = cli.write_run_artifacts(artifacts, run.history, run.states,
                                          cfg.seed, cfg.run)
        result["run_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = rss_mb()
        result["client_rounds"] = capture.client_rounds
        result["comm_bytes"] = summary["total_bytes_up"] + summary["total_bytes_down"]
        result["test_acc"] = summary["final_mean_test_metric"]
        result["metrics_sha256"] = hashlib.sha256(
            (artifacts / "metrics.csv").read_bytes()).hexdigest()
        if tracer is not None:
            result["layers"] = tracer.metrics()
        result["checks"] = run_checks(cfg, cfg.seed, dataset, artifacts,
                                      capture.server_rounds)
    except Exception:  # a failed repeat is reported, not fatal to the benchmark
        result["client_rounds"] = capture.client_rounds
        result["error"] = traceback.format_exc()
        (out / "result.json").write_text(json.dumps(result))
        print(result["error"], file=sys.stderr)
        return 1
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
