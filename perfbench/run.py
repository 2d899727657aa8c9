"""fedssa benchmark: end-to-end and per-layer metrics for fixed workloads.

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, end-to-end metrics
    python3 perfbench/run.py --smoke         # oracle self-tests, then every workload briefly

Run from the repository root. Each measured repeat runs in its own process
(perfbench/worker.py). An untraced run makes as many repeats as fill about
--seconds (a fixed count per workload) and reports medians; a traced run
makes one untraced and one traced repeat and reports per-layer metrics plus
the tracing overhead. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, repeat_count, workload_config  # noqa: E402

# The whole invocation must end within this many seconds.
DEADLINE_S = 175.0

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("comm_bytes", "bytes"), ("test_acc", "fraction"))


def expected_clients(cfg: dict) -> int:
    """Client count the workload's config asks for (the overlap scheme makes 5*floor(M/5))."""
    if cfg["dataset"]["kind"] == "two-regime":
        return 2 * cfg["dataset"]["clients_per_regime"]
    clients = cfg["partition"]["clients"]
    return 5 * (clients // 5) if cfg["partition"]["scheme"] == "overlap" else clients


class Runner:
    """Starts worker processes for one invocation and keeps their results."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        self.scratch = HERE / "out" / f"run-{os.getpid()}"
        self.spawned = 0

    def repeat(self, workload: str, trace: bool) -> dict:
        """Run one repeat in a fresh process; returns its result record."""
        self.spawned += 1
        out = self.scratch / f"{workload}-{self.spawned}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--out", str(out)]
        cmd += ["--trace"] if trace else []
        cmd += ["--smoke"] if self.smoke else []
        budget = DEADLINE_S - (time.monotonic() - self.started)
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                           timeout=max(budget, 1.0), check=False)
        except subprocess.TimeoutExpired:
            return {"error": f"repeat exceeded the {DEADLINE_S:.0f} s deadline",
                    "client_rounds": 0}
        result_file = out / "result.json"
        if not result_file.exists():
            return {"error": "worker wrote no result", "client_rounds": 0}
        return json.loads(result_file.read_text())

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def tally(workload: str, seed: int, smoke: bool, repeats: list) -> dict:
    """Operations attempted and failed, plus every problem found, over the repeats.

    An operation is one client round or one output check. Client rounds a
    repeat did not finish count as failed, as does every check with a problem.
    The last check asks that metrics.csv is byte-identical across repeats.
    """
    cfg = workload_config(workload, seed, smoke)
    per_repeat = expected_clients(cfg) * cfg["hyperparams"]["T"]
    attempted = failed = 0
    problems = []
    for rep in repeats:
        attempted += per_repeat
        failed += per_repeat - rep.get("client_rounds", 0)
        if "error" in rep:
            problems.append(f"repeat failed: {rep['error'].strip().splitlines()[-1]}")
        for name, found in rep.get("checks", {}).items():
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"{name}: {p}" for p in found)
    hashes = {rep.get("metrics_sha256") for rep in repeats}
    attempted += 1
    if len(hashes) != 1 or None in hashes:
        failed += 1
        problems.append(f"metrics.csv differs across {len(repeats)} repeats")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def measure(runner: Runner, workload: str, seconds: float, trace: bool) -> dict:
    """Run one workload; returns tally plus metrics {name: (value, unit)}."""
    if trace:
        repeats = [runner.repeat(workload, False), runner.repeat(workload, True)]
    else:
        repeats = [runner.repeat(workload, False)
                   for _ in range(repeat_count(workload, seconds))]
    outcome = tally(workload, runner.seed, runner.smoke, repeats)
    done = [rep for rep in repeats if "error" not in rep]
    metrics = {}
    if trace and len(done) == 2:
        plain, traced = repeats
        metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
        metrics["rss.after_setup_mb"] = (traced["rss_after_setup_mb"], "MB")
        metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
    elif not trace and done:
        samples = {"setup_s": [s for rep in done for s in rep["setup_samples"]]}
        samples.update((name, [rep[name] for rep in done]) for name, _ in END_TO_END[1:])
        metrics = {name: (statistics.median(samples[name]), unit) for name, unit in END_TO_END}
        outcome["samples"] = samples
    outcome["metrics"] = metrics
    outcome["repeats"] = len(repeats)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all"] + sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; sets each workload's repeat count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test the oracles, then run every workload for"
                             " a round or two, traced and untraced, checks on")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedssa" / "__init__.py").is_file():
        print(f"error: no fedssa sources under {ROOT / 'src'}; run from a checkout"
              " of the repository", file=sys.stderr)
        return 2

    if args.smoke:
        import selftest
        if selftest.main() != 0:
            return 1
    names = sorted(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    runner = Runner(args.seed, args.smoke)
    try:
        outcomes = {name: measure(runner, name, args.seconds, bool(args.trace) or args.smoke)
                    for name in names}
    finally:
        runner.cleanup()

    correct = True
    metrics = {}
    for name, outcome in outcomes.items():
        print(f"== {name}: {outcome['repeats']} repeat(s), seed {args.seed},"
              f" {outcome['attempted']} operations, {outcome['failed']} failed")
        for problem in outcome["problems"]:
            print(f"   CHECK FAILED {problem}")
        for metric, (value, unit) in outcome["metrics"].items():
            spread = outcome.get("samples", {}).get(metric)
            detail = f"  median of {', '.join(f'{x:.6g}' for x in spread)}" if spread else ""
            print(f"   {metric:40s} {value:>16.6g} {unit}{detail}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = \
                {"value": value, "unit": unit}
        correct = correct and not outcome["problems"]
        if not outcome["metrics"]:
            print(f"error: no repeat of {name} finished", file=sys.stderr)
            return 1
    if args.smoke:
        print("smoke: all checks passed" if correct else "smoke: checks FAILED")
        return 0 if correct else 1
    print(json.dumps({"correct": correct,
                      "attempted": sum(o["attempted"] for o in outcomes.values()),
                      "failed": sum(o["failed"] for o in outcomes.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
