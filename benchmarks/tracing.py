"""Spans and counts recorded around calls into mgam's modules.

The tracer replaces module attributes that callers look up at call time
(for example `mgam.training.forward_batch`, which `train_epoch` calls)
with wrappers that record a span: name, start, end, parent span and the
id of the benchmark operation it belongs to.  Nothing inside `src/` is
changed.  Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  A layer's self time is the sum over its spans, so time is
attributed to the innermost wrapped call that was running.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("data", "clustering", "graph", "model", "autodiff", "training",
          "evaluation", "cli")

# The end-to-end metrics each layer's time should move, and on which workloads.
SHOULD_MOVE = {
    "data": "pipeline_s, recommend_p50_ms on ingest, rank; setup_s on all",
    "clustering": "pipeline_s, peak_rss_mb on ingest (near 0 on fit)",
    "graph": "pipeline_s on ingest; train_pos_per_s on fit",
    "model": "train_pos_per_s on fit (forward_train); eval_cands_per_s, "
             "recommend_*_ms on rank (forward_score); nothing on ingest",
    "autodiff": "train_pos_per_s on fit",
    "training": "train_pos_per_s on fit; recommend_p50_ms on rank (checkpoint read)",
    "evaluation": "eval_cands_per_s, recommend_*_ms on rank, fit",
    "cli": "pipeline_s on all",
}

CLI_COMMANDS = ("train", "eval", "ablate", "recommend", "dump_subsets", "dump_graph")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _instances(tracer, args, kwargs, result, key):
    tracer.counts[key] += len(_arg(args, kwargs, 5, "batch"))


def _tape(tracer, args, kwargs, result):
    # counted after the backward span closes, under a span of its own so
    # the walk is not charged to any layer
    from mgam import autodiff
    with tracer.span("bench.tape_count"):
        tracer.counts["autodiff.tape_nodes"] += len(
            autodiff.trace(_arg(args, kwargs, 0, "output")))


def _triplets(tracer, args, kwargs, result):
    tracer.counts["training.anchors"] += len(_arg(args, kwargs, 0, "instances"))
    tracer.counts["training.triplets"] += len(result)


def _nnz(tracer, args, kwargs, result):
    tracer.maxima["graph.nnz"] = max(tracer.maxima.get("graph.nnz", 0),
                                     int(result.adjacency.nnz))


def _features(tracer, args, kwargs, result):
    tracer.maxima["clustering.features_bytes"] = max(
        tracer.maxima.get("clustering.features_bytes", 0), int(result.nbytes))


def _candidates(tracer, args, kwargs, result):
    tracer.counts["evaluation.candidates"] += len(_arg(args, kwargs, 2, "candidates"))


# (module, attribute callers look up, span name, count hook)
WRAPPED = [
    ("mgam.cli", "load_dataset", "data.load_dataset", None),
    ("mgam.cli", "split_leave_one_out", "data.split_leave_one_out", None),
    ("mgam.training", "sample_negatives", "data.sample_negatives", None),
    ("mgam.evaluation", "sample_negatives", "data.sample_negatives", None),
    ("mgam.cli", "cluster_subsets", "clustering.cluster_subsets", None),
    ("mgam.clustering", "build_user_features", "clustering.build_user_features", _features),
    ("mgam.clustering", "kmeans", "clustering.kmeans", None),
    ("mgam.cli", "dump_subsets", "clustering.dump_subsets", None),
    ("mgam.cli", "build_co_membership", "graph.build_co_membership", _nnz),
    ("mgam.cli", "dump_graph", "graph.dump_graph", None),
    ("mgam.model", "induce_batch_subgraph", "graph.induce_batch_subgraph", None),
    ("mgam.model", "expand_to_instances", "graph.expand_to_instances", None),
    ("mgam.training", "forward_batch", "model.forward_train",
     functools.partial(_instances, key="model.forward_train.instances")),
    ("mgam.evaluation", "forward_batch", "model.forward_score",
     functools.partial(_instances, key="model.forward_score.instances")),
    ("mgam.model", "member_attention", "model.member_attention", None),
    ("mgam.model", "subset_attention", "model.subset_attention", None),
    ("mgam.model", "superset_embeddings", "model.superset_embeddings", None),
    ("mgam.model", "fuse", "model.fuse", None),
    ("mgam.model", "predict_logit", "model.predict_logit", None),
    ("mgam.evaluation", "compute_global_rows", "model.compute_global_rows", None),
    ("mgam.autodiff", "backward", "autodiff.backward", _tape),
    ("mgam.cli", "train", "training.train", None),
    ("mgam.training", "train_epoch", "training.train_epoch", None),
    ("mgam.training", "point_loss_from_logits", "training.loss", None),
    ("mgam.training", "triplet_loss", "training.loss", None),
    ("mgam.training", "total_loss", "training.loss", None),
    ("mgam.training", "adam_step", "training.adam_step", None),
    ("mgam.cli", "save_checkpoint", "training.save_checkpoint", None),
    ("mgam.cli", "load_checkpoint", "training.load_checkpoint", None),
    ("mgam.cli", "evaluate", "evaluation.evaluate", None),
    ("mgam.evaluation", "rank_candidates", "evaluation.rank_candidates", _candidates),
    ("mgam.cli", "rank_candidates", "evaluation.rank_candidates", _candidates),
    ("mgam.cli", "make_mgam_scorer", "evaluation.make_mgam_scorer", None),
]
# a private helper, wrapped for its count only (no span)
COUNTED = [("mgam.training", "_build_triplets", _triplets)]

SPAN_NAMES = list(dict.fromkeys(
    [name for _, _, name, _ in WRAPPED] + [f"cli.{c}" for c in CLI_COMMANDS]))

# (metric, unit, better) for the counts, per traced cycle
COUNT_METRICS = [
    ("data.sample_negatives.calls", "count", "lower"),
    ("data.gen_peak_rss_mb", "MB", "lower"),
    ("clustering.features_bytes", "bytes", "lower"),
    ("graph.nnz", "count", "lower"),
    ("model.forward_train.instances", "count", "lower"),
    ("model.forward_score.instances", "count", "lower"),
    ("autodiff.tape_nodes_per_instance", "nodes/instance", "lower"),
    ("training.triplet_coverage", "ratio", "higher"),
    ("evaluation.candidates", "count", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
]


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self.s", "s", "lower"))
        for name in SPAN_NAMES:
            if name.split(".", 1)[0] == layer:
                out.append((f"{name}.s", "s", "lower"))
                out.append((f"{name}.self.s", "s", "lower"))
    return out + COUNT_METRICS


class Tracer:
    """In-memory span recorder with wrappers for mgam's module attributes."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.runs: list = []
        self.counts = defaultdict(int)
        self.maxima: dict = {}
        self.run_id = 0
        self._stack: list = []
        self._saved: list = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, module, attr, name, count):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if name is None:
                result = orig(*args, **kwargs)
            else:
                i = self.open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self.close(i)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, orig))

    def install(self) -> None:
        for mod, attr, name, count in WRAPPED:
            self._wrap(importlib.import_module(mod), attr, name, count)
        for mod, attr, count in COUNTED:
            self._wrap(importlib.import_module(mod), attr, None, count)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("run,span,parent,name,start,end\n")
            for i, name in enumerate(self.names):
                f.write(f"{self.runs[i]},{i},{self.parents[i]},{name},"
                        f"{self.starts[i]!r},{self.ends[i]!r}\n")


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children: dict = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        covered, reach = 0.0, starts[i]
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


def summarize(tracer: Tracer, n_cycles: int) -> dict:
    """Per-layer metric values, as totals per traced cycle."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    total = defaultdict(float)
    self_total = defaultdict(float)
    for i, name in enumerate(tracer.names):
        total[name] += tracer.ends[i] - tracer.starts[i]
        self_total[name] += own[i]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self.s"] = sum(
            v for n, v in self_total.items() if n.split(".", 1)[0] == layer) / n_cycles
    for name in SPAN_NAMES:
        values[f"{name}.s"] = total[name] / n_cycles
        values[f"{name}.self.s"] = self_total[name] / n_cycles
    counts = tracer.counts
    values["data.sample_negatives.calls"] = (
        tracer.names.count("data.sample_negatives") / n_cycles)
    values["clustering.features_bytes"] = tracer.maxima.get("clustering.features_bytes", 0)
    values["graph.nnz"] = tracer.maxima.get("graph.nnz", 0)
    values["model.forward_train.instances"] = counts["model.forward_train.instances"] / n_cycles
    values["model.forward_score.instances"] = counts["model.forward_score.instances"] / n_cycles
    trained = counts["model.forward_train.instances"]
    values["autodiff.tape_nodes_per_instance"] = (
        counts["autodiff.tape_nodes"] / trained if trained else 0.0)
    anchors = counts["training.anchors"]
    values["training.triplet_coverage"] = counts["training.triplets"] / anchors if anchors else 0.0
    values["evaluation.candidates"] = counts["evaluation.candidates"] / n_cycles
    return values
