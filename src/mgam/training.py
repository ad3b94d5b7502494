"""Losses, Adam optimization, the epoch loop and checkpoint persistence.

The objective couples a triplet hinge on prediction scores with a
pointwise cross-entropy, `triplet + lambda1 * point`.  Triplet partners
come from the same group inside the batch: the same-label partner is the
first other instance with the anchor's label, the different-label partner
the first with the opposite label; anchors without a same-label partner
contribute no triplet.  Both terms are averaged (not summed) over the
batch so the learning rate is batch-size independent.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import STREAM_INIT, STREAM_TRAIN, Config, substream
from .data import Dataset, Split, sample_negatives
from .errors import CheckpointError, NonFiniteError, UsageError
from .model import AblationMask, forward_batch, init_params

CHECKPOINT_VERSION = 2
MANIFEST_FILE = "manifest.json"
PARAMS_FILE = "params.bin"
TRAIN_LOG_FILE = "train_log.csv"


# ---------------------------------------------------------------------------
# losses

def triplet_loss(anchor, same, diff, margin: float):
    """Hinge of the squared-distance difference, elementwise over tensors.

    Zero once the different-label score is farther from the anchor than
    the same-label score by at least `margin`.
    """
    anchor, same, diff = ad.as_tensor(anchor), ad.as_tensor(same), ad.as_tensor(diff)
    d_same = ad.sub(anchor, same)
    d_diff = ad.sub(anchor, diff)
    gap = ad.sub(ad.mul(d_same, d_same), ad.mul(d_diff, d_diff))
    return ad.relu(ad.add(gap, ad.as_tensor(float(margin))))


def point_loss_from_logits(logits, labels):
    """Binary cross-entropy from pre-sigmoid scores (stable log-sigmoid form)."""
    logits = ad.as_tensor(logits)
    y = ad.as_tensor(np.asarray(labels, dtype=np.float64))
    pos = ad.mul(y, ad.logsigmoid(logits))
    neg = ad.mul(ad.sub(ad.as_tensor(1.0), y), ad.logsigmoid(ad.scale(logits, -1.0)))
    return ad.scale(ad.add(pos, neg), -1.0)


def total_loss(triplet_terms, point_terms, lambda1: float):
    """Mean triplet term (over available triplets) + lambda1 * mean point term.

    `triplet_terms` may be None/empty when no anchor had a same-label
    partner; the triplet contribution is then zero.
    """
    point_part = ad.scale(ad.tensor_mean(ad.as_tensor(point_terms)), float(lambda1))
    if triplet_terms is None or (isinstance(triplet_terms, Tensor) and triplet_terms.data.size == 0):
        return point_part
    return ad.add(ad.tensor_mean(ad.as_tensor(triplet_terms)), point_part)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: dict) -> AdamState:
    return AdamState(m={n: np.zeros_like(p.data) for n, p in params.items()},
                     v={n: np.zeros_like(p.data) for n, p in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise UsageError(f"gradient shape {g.shape} does not match "
                             f"parameter {name!r} shape {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# ---------------------------------------------------------------------------
# epoch loop

@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    triplet_mean: float
    point_mean: float
    n_batches: int
    wall_seconds: float


def _build_triplets(instances) -> list:
    """(anchor, same-label, different-label) index triples within a batch.

    Partners must come from the anchor's group; anchors lacking a
    same-label partner are skipped.
    """
    by_key: dict = {}
    for idx, (g, _, y) in enumerate(instances):
        by_key.setdefault((g, y), []).append(idx)
    triplets = []
    for idx, (g, _, y) in enumerate(instances):
        same_pool = by_key.get((g, y), [])
        diff_pool = by_key.get((g, 1 - y), [])
        same = next((j for j in same_pool if j != idx), None)
        if same is None or not diff_pool:
            continue
        triplets.append((idx, same, diff_pool[0]))
    return triplets


def train_epoch(params: dict, adam: AdamState, dataset: Dataset, split: Split,
                assignments, graph, cfg: Config, epoch: int,
                mask: AblationMask | None = None) -> EpochStats:
    """One pass over the shuffled train positives with fresh negatives."""
    if not split.train:
        raise UsageError("cannot train on an empty split")
    t0 = time.perf_counter()
    rng = np.random.default_rng(substream(cfg.seed, STREAM_TRAIN, epoch))
    order = rng.permutation(len(split.train))

    loss_sum = trip_sum = point_sum = 0.0
    n_inst = n_trip = n_batches = 0
    for start in range(0, len(order), cfg.batch_size):
        chunk = order[start:start + cfg.batch_size]
        instances = []
        for oi in chunk:
            inst = split.train[int(oi)]
            instances.append((inst.group, inst.item, 1))
            for v in sample_negatives(dataset, inst.group,
                                      cfg.train_negatives, rng=rng):
                instances.append((inst.group, v, 0))
        triplets = _build_triplets(instances)

        result = forward_batch(params, cfg, dataset, assignments, graph,
                               [(g, v) for g, v, _ in instances], mask=mask)
        labels = np.array([y for _, _, y in instances], dtype=np.float64)
        point_terms = point_loss_from_logits(result.logits, labels)
        trip_terms = None
        if triplets:
            anchors = ad.take(result.scores, [a for a, _, _ in triplets])
            sames = ad.take(result.scores, [s for _, s, _ in triplets])
            diffs = ad.take(result.scores, [d for _, _, d in triplets])
            trip_terms = triplet_loss(anchors, sames, diffs, cfg.margin)
        loss = total_loss(trip_terms, point_terms, cfg.lambda1)
        if not np.isfinite(loss.data):
            raise NonFiniteError(f"non-finite loss {float(loss.data)!r} at epoch "
                                 f"{epoch}, batch {n_batches}")

        for p in params.values():
            p.grad = None
        grads = ad.grad_map(loss, params)
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteError(f"non-finite gradient for parameter {name!r} "
                                     f"at epoch {epoch}, batch {n_batches}")
        adam_step(params, grads, adam, cfg.learning_rate)

        k = len(instances)
        loss_sum += float(loss.data) * k
        point_sum += float(point_terms.data.mean()) * k
        if trip_terms is not None:
            trip_sum += float(trip_terms.data.sum())
            n_trip += trip_terms.data.size
        n_inst += k
        n_batches += 1

    return EpochStats(
        epoch=epoch,
        mean_loss=loss_sum / n_inst,
        triplet_mean=(trip_sum / n_trip) if n_trip else 0.0,
        point_mean=point_sum / n_inst,
        n_batches=n_batches,
        wall_seconds=time.perf_counter() - t0,
    )


def train(dataset: Dataset, split: Split, assignments, graph, cfg: Config,
          mask: AblationMask | None = None, log_path=None,
          progress=None) -> tuple:
    """Initialize parameters and run the full epoch loop.

    Returns (params, [EpochStats]).  The Adam state lives only for the
    run.  When `log_path` is given, per-epoch rows are appended to it as
    CSV.
    """
    cfg.validate()
    rng = np.random.default_rng(substream(cfg.seed, STREAM_INIT))
    params = init_params(cfg, dataset.n_users, dataset.n_items,
                         dataset.n_groups, rng)
    adam = init_adam(params)
    history = []
    writer = None
    log_file = None
    if log_path is not None:
        log_file = open(log_path, "w", encoding="utf-8", newline="")
        writer = csv.writer(log_file)
        writer.writerow(["epoch", "mean_loss", "triplet_mean", "point_mean", "wall_seconds"])
    try:
        for epoch in range(cfg.epochs):
            stats = train_epoch(params, adam, dataset, split, assignments, graph,
                                cfg, epoch, mask=mask)
            history.append(stats)
            if writer is not None:
                writer.writerow([stats.epoch, repr(stats.mean_loss),
                                 repr(stats.triplet_mean), repr(stats.point_mean),
                                 f"{stats.wall_seconds:.3f}"])
                log_file.flush()
            if progress is not None:
                progress(stats)
    finally:
        if log_file is not None:
            log_file.close()
    return params, history


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(directory, params: dict, config_echo: dict, seed: int) -> None:
    """Write manifest.json + params.bin, float32 little-endian."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = []
    offset = 0
    blobs = []
    for name, p in params.items():
        size = int(p.data.size)
        tensors.append({"name": name, "shape": list(p.data.shape),
                        "offset": offset, "size": size})
        blobs.append(p.data.astype("<f4").ravel())
        offset += size
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "seed": int(seed),
        "config": config_echo,
        "tensors": tensors,
    }
    (directory / MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    np.concatenate(blobs).tofile(directory / PARAMS_FILE)


def read_manifest(directory) -> dict:
    """Parse a checkpoint's manifest.json and check its format version."""
    manifest_path = Path(directory) / MANIFEST_FILE
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as e:
        raise CheckpointError(f"cannot read {manifest_path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{manifest_path} is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path} must hold a JSON object, "
                              f"got {type(manifest).__name__}")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version "
                              f"{manifest.get('format_version')!r} "
                              f"(expected {CHECKPOINT_VERSION})")
    return manifest


def load_checkpoint(directory, expected_shapes: dict | None = None) -> tuple:
    """Load (params, manifest), validating the archive.

    `expected_shapes` (name -> shape tuple) guards against loading a
    checkpoint trained under a different model configuration; the error
    names the first offending tensor.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    tensors = manifest.get("tensors")
    if not isinstance(tensors, list) or not tensors:
        raise CheckpointError(f"{directory / MANIFEST_FILE}: missing tensor table")

    params_path = directory / PARAMS_FILE
    try:
        raw = np.fromfile(params_path, dtype="<f4")
    except OSError as e:
        raise CheckpointError(f"cannot read {params_path}: {e}") from e
    params: dict = {}
    offset = 0
    for entry in tensors:
        try:
            name, shape = entry["name"], tuple(entry["shape"])
            entry_offset, entry_size = entry["offset"], entry["size"]
        except (KeyError, TypeError) as e:
            raise CheckpointError(f"{directory / MANIFEST_FILE}: malformed tensor "
                                  f"entry {entry!r}") from e
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if entry_offset != offset or entry_size != size:
            raise CheckpointError(f"corrupt checkpoint: tensor {name!r} has "
                                  f"inconsistent offset/size")
        if offset + size > raw.size:
            raise CheckpointError(f"corrupt checkpoint: params.bin too short "
                                  f"for tensor {name!r}")
        if expected_shapes is not None:
            if name not in expected_shapes:
                raise CheckpointError(f"checkpoint tensor {name!r} not expected "
                                      f"under the current configuration")
            if tuple(expected_shapes[name]) != shape:
                raise CheckpointError(
                    f"checkpoint tensor {name!r} has shape {list(shape)} but the "
                    f"current configuration requires {list(expected_shapes[name])}")
        params[name] = Tensor(raw[offset:offset + size].astype(np.float64).reshape(shape),
                              requires_grad=True)
        offset += size
    if offset != raw.size:
        raise CheckpointError("corrupt checkpoint: params.bin has trailing data")
    if expected_shapes is not None:
        missing = set(expected_shapes) - set(params)
        if missing:
            raise CheckpointError(f"checkpoint is missing tensor {sorted(missing)[0]!r}")
    return params, manifest


def expected_param_shapes(cfg: Config, n_users: int, n_items: int,
                          n_groups: int) -> dict:
    """Tensor shapes a checkpoint must carry for this configuration."""
    probe = init_params(cfg, n_users, n_items, n_groups,
                        np.random.default_rng(0))
    return {name: p.data.shape for name, p in probe.items()}
