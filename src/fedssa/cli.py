"""Command line front end.

Subcommands:
  synth      sample a synthetic graph and save it as JSON
  partition  split a global graph into a client dataset directory
  run        execute one federation run and write its artifacts
  ablate     run the 2x2 semantic/structural ablation grid
  diagnose   contraction analysis from a finished run's error floor
  report     print a human summary of a run or ablation directory

Exit codes: 0 success, 2 invalid configuration, infeasible request or
missing file, 3 training divergence, 4 any other FedssaError (printed as
"error: <Class>: message").
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, build_dataset, load_config, synth_spec_from
from .errors import ConfigError, FedssaError, InfeasibleError, TrainingDivergenceError
from .federation import ClientRoundStats, RunConfig, params_payload, run_federation_detailed
from .graphs import canonical_json, dump_json, save_dataset, save_graph, synth_dataset
from .theory import contraction_simulate, rounds_to_reach

METRICS_HEADER = ("round", "client", "ce", "vgae", "node", "struct",
                  "train_metric", "val_metric", "test_metric",
                  "bytes_up", "bytes_down")
# A ClientRoundStats' fields in declaration order, as a shallow tuple.
_stats_row = attrgetter(*(f.name for f in fields(ClientRoundStats)))

ABLATION_CELLS = (("full", True, True), ("no_semantic", False, True),
                  ("no_structural", True, False), ("neither", False, False))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _json_safe(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def write_history_csvs(out_dir: Path, history) -> None:
    """Write metrics.csv and the three diagnostics CSVs for the rounds in
    history; a CSV with no rows gets its header line only."""
    rows = []
    sem_rows = []
    struct_rows = []
    floor_rows = []
    for rm in history:
        for cid in sorted(rm.per_client):
            rows.append((rm.round_index, cid) + _stats_row(rm.per_client[cid]))
        if rm.heterogeneity is not None:
            for cell in rm.heterogeneity.semantic:
                sem_rows.append((rm.round_index, cell.label, cell.cluster,
                                 cell.delta_mu, cell.delta_sigma))
            for cell in rm.heterogeneity.structural:
                struct_rows.append((rm.round_index, cell.cluster, cell.eps_u))
        if rm.floor is not None:
            floor_rows.append((rm.round_index, rm.floor.total))
    _write_csv(out_dir / "metrics.csv", METRICS_HEADER, rows)
    _write_csv(out_dir / "diagnostics_semantic.csv",
               ("round", "class", "cluster", "delta_mu", "delta_sigma"), sem_rows)
    _write_csv(out_dir / "diagnostics_structural.csv",
               ("round", "cluster", "eps_u"), struct_rows)
    _write_csv(out_dir / "diagnostics_floor.csv",
               ("round", "error_floor"), floor_rows)


def _write_checkpoint(path: Path, states, seed: int, rounds_completed: int,
                      w_max: float) -> None:
    """Write dump_json({"clients": [...], "rounds_completed", "seed"}) one
    client at a time, so only one client's payload is in memory at once.

    "clients" sorts before the other two keys and every client goes through
    canonical_json, so the bytes equal those of the dict form.
    """
    tail = canonical_json({"rounds_completed": rounds_completed, "seed": seed})
    with open(path, "w") as fh:
        fh.write('{"clients":[')
        for i, st in enumerate(states):
            if i:
                fh.write(",")
            fh.write(canonical_json(dict(params_payload(st.params, w_max),
                                         client_id=st.client_id)))
        fh.write("]," + tail[1:] + "\n")


def write_run_artifacts(out_dir: Path, history, states, seed: int,
                        run_cfg: RunConfig) -> dict:
    """Write metrics, diagnostics, checkpoint and summary; returns summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_history_csvs(out_dir, history)
    _write_checkpoint(out_dir / "checkpoint.json", states, seed, len(history),
                      run_cfg.w_max)

    best_round = None
    if history:
        vals = [rm.mean_val_metric for rm in history]
        finite = [(i, v) for i, v in enumerate(vals) if np.isfinite(v)]
        if finite:
            best_round = max(finite, key=lambda iv: iv[1])[0] + 1
    summary = {
        "method": run_cfg.method,
        "seed": seed,
        "rounds": len(history),
        "clients": len(states),
        "semantic": run_cfg.semantic,
        "structural": run_cfg.structural,
        "final_mean_train_metric": _json_safe(history[-1].mean_train_metric) if history else None,
        "final_mean_val_metric": _json_safe(history[-1].mean_val_metric) if history else None,
        "final_mean_test_metric": _json_safe(history[-1].mean_test_metric) if history else None,
        "best_round": best_round,
        "error_floor_trajectory": [rm.floor.total if rm.floor is not None else None
                                   for rm in history],
        "total_bytes_up": sum(s.bytes_up for rm in history for s in rm.per_client.values()),
        "total_bytes_down": sum(s.bytes_down for rm in history
                                for s in rm.per_client.values()),
    }
    dump_json(summary, out_dir / "summary.json")
    return summary


def _run_once(cfg: ExperimentConfig, run_cfg: RunConfig, seed: int, out_dir: Path,
              dump_distances: bool) -> dict:
    """Run and write the artifacts, plus round 1's chordal distance matrix
    when dump_distances is set and the run has frames.

    On a divergence only the CSVs of the rounds that completed are written
    before the error propagates: the diverging group's parameters are rolled
    back to round entry while groups trained before it finished the round,
    so the final parameters belong to no single round.
    """
    dataset = build_dataset(cfg, seed)
    try:
        result = run_federation_detailed(dataset, run_cfg, seed)
    except TrainingDivergenceError as exc:
        write_history_csvs(out_dir, exc.history)
        raise
    summary = write_run_artifacts(out_dir, result.history, result.states, seed, run_cfg)
    if dump_distances and result.chordal is not None:
        ids, matrix = result.chordal
        _write_csv(out_dir / "distances" / "distances_r0001.csv",
                   ["client"] + [str(i) for i in ids],
                   [[cid] + [float(x) for x in row] for cid, row in zip(ids, matrix)])
    return summary


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    graph = synth_dataset(synth_spec_from(cfg.dataset), seed)
    out = Path(args.out)
    save_graph(graph, out)
    print(f"wrote graph with {graph.n} nodes, {graph.edges.shape[0]} edges to {out}")
    return 0


def cmd_partition(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    if cfg.partition is None:
        raise ConfigError("config has no partition section")
    dataset = build_dataset(cfg, seed)
    out = Path(args.out)
    save_dataset(dataset, out)
    sizes = [g.n for g in dataset.clients]
    cut = (f"{dataset.dropped_edges} cross edges dropped"
           if cfg.partition.scheme == "nonoverlap" else
           f"{dataset.dropped_edges} edges cut, counted once per client they leave")
    print(f"wrote {dataset.num_clients} clients (sizes {min(sizes)}..{max(sizes)},"
          f" {cut}) to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    summary = _run_once(cfg, cfg.run, seed, out_dir, args.dump_distances)
    print(f"method={summary['method']} rounds={summary['rounds']}"
          f" final_test={summary['final_mean_test_metric']}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    if cfg.run.method != "fedssa":
        raise ConfigError("ablate requires method fedssa")
    seed = cfg.seed if args.seed is None else args.seed
    out_root = Path(args.out) if args.out else Path(cfg.out_dir)
    rows = []
    for name, semantic, structural in ABLATION_CELLS:
        run_cfg = replace(cfg.run, semantic=semantic, structural=structural)
        summary = _run_once(cfg, run_cfg, seed, out_root / name, False)
        rows.append((name, semantic, structural,
                     summary["final_mean_test_metric"]))
        print(f"cell={name} semantic={semantic} structural={structural}"
              f" final_test={summary['final_mean_test_metric']}")
    _write_csv(out_root / "ablation.csv",
               ("cell", "semantic", "structural", "final_mean_test_metric"), rows)
    print(f"grid written to {out_root}")
    return 0


def cmd_diagnose(args) -> int:
    run_dir = Path(args.run)
    floor_file = run_dir / "diagnostics_floor.csv"
    if not floor_file.exists():
        raise ConfigError(f"{floor_file} not found; diagnose needs a finished run")
    lines = floor_file.read_text().strip().splitlines()[1:]
    if not lines:
        raise ConfigError("no error floor recorded; diagnose needs a fedssa run")
    floor = float(lines[-1].split(",")[1])
    result = contraction_simulate(args.l_f, args.lam_f, args.dist0, floor, args.rounds)
    schedule = {xi: rounds_to_reach(args.l_f, args.lam_f, args.dist0, xi)
                for xi in (1e-1, 1e-3, 1e-6)}
    payload = {
        "l_f": args.l_f, "lam_f": args.lam_f, "dist0": args.dist0,
        "error_floor": floor, "rho": result.rho, "fixed_point": result.fixed_point,
        "distances": list(result.distances), "bounds": list(result.bounds),
        "schedule_rounds": {repr(k): v for k, v in schedule.items()},
    }
    out = run_dir / "diagnose.json"
    dump_json(payload, out)
    print(f"rho={result.rho} fixed_point={result.fixed_point} floor={floor}")
    for xi, t in schedule.items():
        print(f"rounds to reach {xi}: {t}")
    print(f"wrote {out}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    summary_file = run_dir / "summary.json"
    ablation_file = run_dir / "ablation.csv"
    if summary_file.exists():
        try:  # read every field before printing any
            summary = json.loads(summary_file.read_text())
            floors = [x for x in summary["error_floor_trajectory"] if x is not None]
            lines = [f"method: {summary['method']} (semantic={summary['semantic']},"
                     f" structural={summary['structural']})",
                     f"clients: {summary['clients']}, rounds: {summary['rounds']},"
                     f" seed: {summary['seed']}",
                     f"final mean metrics: train={summary['final_mean_train_metric']}"
                     f" val={summary['final_mean_val_metric']}"
                     f" test={summary['final_mean_test_metric']}",
                     f"best round by val metric: {summary['best_round']}",
                     *([f"error floor: first={floors[0]} last={floors[-1]}"] if floors else []),
                     f"bytes up: {summary['total_bytes_up']},"
                     f" bytes down: {summary['total_bytes_down']}"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{summary_file} is not a complete run summary: {exc!r}") from None
        print("\n".join(lines))
        return 0
    if ablation_file.exists():
        print(ablation_file.read_text().rstrip())
        return 0
    raise ConfigError(f"no summary.json or ablation.csv under {run_dir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedssa",
        description="Deterministic simulator for semantic/structural-aligned"
                    " graph federated learning")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=False):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output path")
        else:
            p.add_argument("--out", default=None,
                           help="output directory (default: config out_dir)")

    p = sub.add_parser("synth", help="sample a synthetic graph to JSON")
    add_common(p, needs_out=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("partition", help="partition a global graph into clients")
    add_common(p, needs_out=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("run", help="run one federation experiment")
    add_common(p)
    p.add_argument("--dump-distances", action="store_true",
                   help="write round 1's chordal distance matrix")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="run the 2x2 semantic/structural grid")
    add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("diagnose", help="contraction analysis from a run directory")
    p.add_argument("--run", required=True, help="finished run directory")
    p.add_argument("--l-f", type=float, default=4.0, dest="l_f",
                   help="smoothness constant L_F")
    p.add_argument("--lam-f", type=float, default=1.0, dest="lam_f",
                   help="strong convexity constant lambda_F")
    p.add_argument("--dist0", type=float, default=1.0,
                   help="initial distance to the aligned optimum")
    p.add_argument("--rounds", type=int, default=50,
                   help="rounds to simulate")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("report", help="summarize a run or ablation directory")
    p.add_argument("--run", required=True, help="run or ablation directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InfeasibleError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FedssaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
