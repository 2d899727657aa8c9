"""Per-layer timing by wrapping the module attributes fedssa calls through.

A traced function is replaced in every loaded `fedssa.*` module namespace
that binds it, so a name imported with `from .x import y` is wrapped where
its caller looks it up, and a call through a module (`tp.grad`) is wrapped
in that module. No file of the program changes. Each wrapper records
inclusive time, self time (inclusive time minus the time of traced
functions it called) and a call count.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

# Reported layer name -> (module, attribute) pairs it aggregates.
LAYERS = {
    "config.build_dataset": [("config", "build_dataset")],
    "graphs.synth_dataset": [("graphs", "synth_dataset")],
    "graphs.partition": [("graphs", "partition_nonoverlap"),
                         ("graphs", "partition_overlap")],
    "federation.run_federation_detailed": [("federation", "run_federation_detailed")],
    "federation.init_client_state": [("federation", "init_client_state")],
    "federation.client_round": [("federation", "client_round")],
    "federation.evaluate_client": [("federation", "evaluate_client")],
    "federation.server_step": [("federation", "server_step")],
    "federation.payload_nbytes": [("federation", "payload_nbytes")],
    "models.logits_path": [("models", "logits_path")],
    "models.ce_path": [("models", "ce_path")],
    "models.encoder_path": [("models", "encoder_path")],
    "models.elbo_path": [("models", "elbo_path")],
    "models.class_stat_paths": [("models", "class_stat_paths")],
    "models.vgae_encode": [("models", "vgae_encode")],
    "models.spectral_energy": [("models", "spectral_energy")],
    "semantic.alignment_path": [("semantic", "alignment_path")],
    "semantic.build_semantic_map": [("semantic", "build_semantic_map")],
    "structural.build_structural_map": [("structural", "build_structural_map")],
    "structural.pairwise_chordal": [("structural", "pairwise_chordal")],
    "structural.chordal_distance": [("structural", "chordal_distance")],
    "theory.measure_heterogeneity": [("theory", "measure_heterogeneity")],
    "tape.grad": [("tape", "grad")],
    "cluster.kmeans": [("cluster", "kmeans")],
    "linalg.sym_eig_small": [("linalg", "sym_eig_small")],
    "linalg.qr_thin": [("linalg", "qr_thin")],
    "cli.write_run_artifacts": [("cli", "write_run_artifacts")],
}


def rebind(original, replacement) -> None:
    """Point every fedssa module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fedssa" or name.startswith("fedssa.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Accumulates [inclusive s, self s, calls] per layer name."""

    def __init__(self):
        self.stats = {name: [0.0, 0.0, 0] for name in LAYERS}
        self.counts = {"tape.nodes": 0, "tape.mb": 0.0}
        self._children = []

    def wrap(self, layer: str, fn):
        stats = self.stats[layer]
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stats[0] += elapsed
                stats[1] += elapsed - inner
                stats[2] += 1
                if children:
                    children[-1] += elapsed
        return traced

    def count_tape(self, grad_fn):
        """Wrap tape.grad so each call first records the tape's size.

        The bytes held are the node values plus the distinct constant arrays
        the nodes take as inputs, such as the one-hot gather matrices.
        """
        counts = self.counts

        def counted(tape, loss):
            counts["tape.nodes"] += len(tape.nodes)
            constants = {id(x): x.nbytes for node in tape.nodes for x in node.inputs
                         if isinstance(x, np.ndarray)}
            held = sum(node.value.nbytes for node in tape.nodes) + sum(constants.values())
            counts["tape.mb"] = max(counts["tape.mb"], held / 2 ** 20)
            return grad_fn(tape, loss)
        return counted

    def install(self) -> None:
        """Wrap every layer in every fedssa module that binds it.

        A function the program no longer has stays unwrapped, so its layer
        reports zero calls rather than stopping the benchmark.
        """
        for layer, targets in LAYERS.items():
            for short, attr in targets:
                original = getattr(importlib.import_module(f"fedssa.{short}"), attr, None)
                if original is None:
                    continue
                replacement = self.wrap(layer, original)
                if layer == "tape.grad":
                    replacement = self.count_tape(replacement)
                rebind(original, replacement)

    def metrics(self) -> dict:
        out = {}
        for layer, (inclusive, own, calls) in self.stats.items():
            out[f"{layer}.s"] = (inclusive, "s")
            out[f"{layer}.self_s"] = (own, "s")
            out[f"{layer}.calls"] = (calls, "count")
        out["tape.nodes"] = (self.counts["tape.nodes"], "count")
        out["tape.mb"] = (self.counts["tape.mb"], "MB")
        return out
