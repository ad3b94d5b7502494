"""Losses, Adam optimization, the epoch loop and checkpoint persistence.

The objective couples a triplet hinge on prediction scores with a
pointwise cross-entropy, `triplet + lambda1 * point`.  Triplet partners
come from the same group inside the batch: the same-label partner is the
first other instance with the anchor's label, the different-label partner
the first with the opposite label; anchors without a same-label partner
contribute no triplet.  Both terms are averaged (not summed) over the
batch so the learning rate is batch-size independent.

`fit_epoch` is the one training step of MGAM (`train_epoch`) and the MF
baseline (`evaluation.train_mf_scorer`); a caller gives it only a
negative draw and a loss.  Adam keeps the parameters and both moments
in flat buffers (`AdamState`) and gathers a step's gradients into one,
so a step is a dozen ufunc calls whatever the parameter count.

A checkpoint is a directory of `params.bin` (float32 parameters),
`inputs.bin` (the parsed dataset and the subset assignments training
used, as raw little-endian arrays) and `manifest.json`, written last,
which records the sha256 of both files and of the three dataset TSVs,
params.bin's tensor table (`tensor_layout`) and inputs.bin's array
table (`INPUT_ARRAYS` in order, each with its byte offset and length).
Loading verifies every digest, so a checkpoint is only ever used with
the data it was trained on, and a half-written one is refused; it
refuses a tensor table that is not the layout of `param_table` for the
configuration and inputs, naming the first differing entry, and an
array table that does not tile inputs.bin in `INPUT_ARRAYS` order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clustering import SubsetTable
from .config import STREAM_INIT, STREAM_TRAIN, Config, substream
from .data import (Dataset, Split, dataset_arrays, dataset_from_arrays,
                   dataset_sha256, label_blocks, sample_negatives)
from .errors import CheckpointError, NonFiniteError, UsageError
from .model import AblationMask, forward_batch, init_params

CHECKPOINT_VERSION = 4
MANIFEST_FILE = "manifest.json"
PARAMS_FILE = "params.bin"
INPUTS_FILE = "inputs.bin"
TRAIN_LOG_FILE = "train_log.csv"

# inputs.bin's arrays in file order, with their dtypes: the int64 arrays
# first, so each starts 8-byte aligned, then the id lists' UTF-8 bytes
INPUT_ARRAYS = dict.fromkeys((
    "user_items_offsets", "user_items_indices", "groups_offsets", "groups_indices",
    "group_pos_offsets", "group_pos_indices",
    "subset_offsets", "member_offsets", "subset_members"), "<i8") | dict.fromkeys(
    ("user_ids", "item_ids", "group_ids"), "|u1")


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
    """Binary cross-entropy of pre-sigmoid scores and 0/1 labels as one
    stable `-logsigmoid((2y - 1) x)`, bit for bit the two-term form (a
    gradient that underflows to 0 may differ in the sign of that 0)."""
    signs = ad.as_tensor(2.0 * np.asarray(labels, dtype=np.float64) - 1.0)
    return ad.scale(ad.logsigmoid(ad.mul(signs, ad.as_tensor(logits))), -1.0)


def total_loss(triplet_terms, point_terms, lambda1: float):
    """Mean triplet term (over available triplets) + lambda1 * mean point term.

    `triplet_terms` is None when no anchor had a same-label partner; the
    triplet contribution is then zero.
    """
    point_part = ad.scale(ad.tensor_mean(ad.as_tensor(point_terms)), float(lambda1))
    if triplet_terms is None:
        return point_part
    return ad.add(ad.tensor_mean(ad.as_tensor(triplet_terms)), point_part)


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's state for the parameters `init_adam` was given.

    The parameters and each moment live in one flat float64 buffer, in
    the order of `names`: `init_adam` rebinds every parameter's `data` to
    a view of `flat`, and row 0 of `moments` holds the first moment, row 1
    the second, each laid out like `flat`.
    """
    names: tuple
    flat: np.ndarray
    moments: np.ndarray     # (2, size): m, then v
    step: int = 0


def init_adam(params: dict) -> AdamState:
    """Zero moments for `params`, whose data move into one flat buffer."""
    size = sum(p.data.size for p in params.values())
    flat = np.empty(size)
    offset = 0
    for p in params.values():
        view = flat[offset:offset + p.data.size].reshape(p.data.shape)
        view[...] = p.data
        p.data = view
        offset += view.size
    return AdamState(names=tuple(params), flat=flat, moments=np.zeros((2, size)))


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update, in place.

    `params` are those `init_adam` set up, and `grads` holds a gradient
    for each of them.  The gradients are gathered into one buffer and
    checked for finiteness before anything changes.  Then each of Adam's
    operations is one ufunc over every parameter, in the order and with
    the rounding of the per-array update `m = b1 m + (1 - b1) g`,
    `v = b2 v + (1 - b2) g g`, `p -= lr (m / c1) / (sqrt(v / c2) + eps)`.
    """
    if tuple(params) != state.names:
        raise UsageError("adam_step needs the parameters its state was made for")
    parts = []
    for name, p in params.items():
        if p.data.base is not state.flat:
            raise UsageError(f"parameter {name!r} no longer holds the data "
                             f"init_adam gave it")
        g = grads.get(name)
        if g is None:
            raise UsageError(f"no gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise UsageError(f"gradient shape {g.shape} does not match "
                             f"parameter {name!r} shape {p.data.shape}")
        parts.append(g.reshape(-1))
    g = np.concatenate(parts) if parts else np.empty(0)
    if not np.isfinite(g).all():
        name = next(n for n, part in zip(params, parts) if not np.isfinite(part).all())
        raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.moments
    scratch = np.multiply(1.0 - ADAM_BETA1, g)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(1.0 - ADAM_BETA2, g, out=scratch)
    scratch *= g
    v *= ADAM_BETA2
    v += scratch
    step = np.divide(m, c1, out=g)   # the gradient is spent
    step *= lr
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step /= scratch
    state.flat -= step


# ---------------------------------------------------------------------------
# epoch loop

@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    triplet_mean: float
    point_mean: float
    wall_seconds: float


def _build_triplets(instances) -> list:
    """(anchor, same-label, different-label) index triples within a batch.

    `instances` holds one (group, item, label) row per instance, labels 0
    or 1.  An anchor's partners are the first other instance of its group
    with its label and the first with the other label; anchors lacking
    either are skipped.
    """
    rows = np.asarray(instances, dtype=np.intp).reshape(-1, 3)
    key = 2 * rows[:, 0] + rows[:, 2]            # (group, label); key ^ 1 flips the label
    order = np.argsort(key, kind="stable")
    keys, start, count = np.unique(key[order], return_index=True, return_counts=True)
    first = order[start]                         # each key's first and second instance
    second = np.where(count > 1, order[np.minimum(start + 1, len(order) - 1)], -1)
    own = np.searchsorted(keys, key)
    same = np.where(first[own] == np.arange(len(key)), second[own], first[own])
    other = np.minimum(np.searchsorted(keys, key ^ 1), len(keys) - 1)
    keep = (same >= 0) & (keys[other] == key ^ 1)
    return list(zip(np.flatnonzero(keep).tolist(), same[keep].tolist(),
                    first[other][keep].tolist()))


def fit_epoch(params: dict, adam: AdamState, positives: np.ndarray, batch_size: int,
              lr: float, rng: np.random.Generator, epoch: int, draw, loss_of) -> None:
    """One Adam step per batch of the (owner, item) `positives`, in the
    order of one permutation on the epoch generator `rng`.  A batch's loss
    is `loss_of(rows)`, its rows the (n, 3) `label_blocks` of its positives
    and `draw(owners, rng)`'s negatives.  A non-finite loss or gradient
    raises NonFiniteError naming the epoch and batch before any step."""
    order = rng.permutation(len(positives))
    for batch, start in enumerate(range(0, len(order), batch_size)):
        owned = positives[order[start:start + batch_size]]
        rows = label_blocks(owned, draw(owned[:, 0], rng)).reshape(-1, 3)
        loss = loss_of(rows)
        if not np.isfinite(loss.data):
            raise NonFiniteError(f"non-finite loss {float(loss.data)!r} at epoch "
                                 f"{epoch}, batch {batch}")
        for p in params.values():
            p.grad = None
        grads = ad.grad_map(loss, params)
        # free the tape first: the step's flat buffers then take its memory
        # instead of adding to the batch's peak
        del loss
        try:
            adam_step(params, grads, adam, lr)
        except NonFiniteError as e:
            raise NonFiniteError(f"{e} at epoch {epoch}, batch {batch}") from None


def train_epoch(params: dict, adam: AdamState, dataset: Dataset, split: Split,
                assignments, graph, cfg: Config, epoch: int) -> EpochStats:
    """One `fit_epoch` over the train positives: a batch's negatives are
    one `sample_negatives` call, and its loss one training forward of the
    variant `cfg.ablate` names."""
    if not len(split.train):
        raise UsageError("cannot train on an empty split")
    mask = AblationMask.from_disabled(cfg.ablated())
    t0 = time.perf_counter()
    loss_sum = trip_sum = point_sum = 0.0
    n_trip = 0

    def loss_of(rows):
        nonlocal loss_sum, trip_sum, point_sum, n_trip
        triplets = _build_triplets(rows)
        [result] = forward_batch(params, cfg, dataset, assignments, graph,
                                 rows[:, :2], masks=[mask])
        point_terms = point_loss_from_logits(result.logits, rows[:, 2])
        trip_terms = None
        if triplets:   # anchor, same-label and different-label scores
            trip_terms = triplet_loss(*(ad.take(result.scores, idx) for idx in zip(*triplets)),
                                      cfg.margin)
            trip_sum += float(trip_terms.data.sum())
            n_trip += trip_terms.data.size
        loss = total_loss(trip_terms, point_terms, cfg.lambda1)
        loss_sum += float(loss.data) * len(rows)
        point_sum += float(point_terms.data.mean()) * len(rows)
        return loss

    fit_epoch(params, adam, split.train, cfg.batch_size, cfg.learning_rate,
              np.random.default_rng(substream(cfg.seed, STREAM_TRAIN, epoch)), epoch,
              lambda groups, rng: sample_negatives(dataset, groups, cfg.train_negatives, rng),
              loss_of)
    n_inst = len(split.train) * (1 + cfg.train_negatives)
    return EpochStats(
        epoch=epoch,
        mean_loss=loss_sum / n_inst,
        triplet_mean=(trip_sum / n_trip) if n_trip else 0.0,
        point_mean=point_sum / n_inst,
        wall_seconds=time.perf_counter() - t0,
    )


def train(dataset: Dataset, split: Split, assignments, graph, cfg: Config,
          log_path=None, progress=None) -> tuple:
    """Initialize parameters and train the variant `cfg.ablate` names;
    parameters it does not read keep their initial values.

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
                                cfg, epoch)
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

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_replacing(path: Path, data: bytes) -> None:
    """Write `data` under a temporary name next to `path`, fsync it, then
    rename it into place, so `path` never holds a partial write."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def tensor_layout(shapes) -> list:
    """The manifest's tensor table for `(name, shape)` pairs in params.bin
    order: each tensor's name and shape, and the offset and size of its
    float32 values in params.bin."""
    layout, offset = [], 0
    for name, shape in shapes:
        size = math.prod(shape)
        layout.append({"name": name, "offset": offset, "shape": list(shape), "size": size})
        offset += size
    return layout


def save_checkpoint(directory, params: dict, config_echo: dict, dataset: Dataset,
                    assignments: SubsetTable, data_sha256: dict) -> None:
    """Write params.bin (float32 little-endian), inputs.bin (the arrays of
    `dataset` and `assignments`) and, last, manifest.json with their
    sha256, their tables and the dataset files' `data_sha256`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = dict(dataset_arrays(dataset), subset_offsets=assignments.slots.offsets,
                  member_offsets=assignments.subsets.offsets,
                  subset_members=assignments.subsets.indices)
    inputs = [np.asarray(arrays[name], dtype=dtype).tobytes()
              for name, dtype in INPUT_ARRAYS.items()]
    blob = np.concatenate([p.data.astype("<f4").ravel() for p in params.values()])
    files = {PARAMS_FILE: blob.tobytes(), INPUTS_FILE: b"".join(inputs)}
    for name, data in files.items():
        _write_replacing(directory / name, data)
    offsets = np.cumsum([0] + [len(b) for b in inputs]).tolist()
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": config_echo,
        "tensors": tensor_layout((name, p.data.shape) for name, p in params.items()),
        "inputs": [{"name": name, "dtype": dtype, "offset": offset, "nbytes": len(b)}
                   for (name, dtype), offset, b in zip(INPUT_ARRAYS.items(), offsets, inputs)],
        "sha256": {name: _sha256(data) for name, data in files.items()},
        "data_sha256": dict(data_sha256),
    }
    _write_replacing(directory / MANIFEST_FILE, (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    fd = os.open(directory, os.O_RDONLY)   # the renames reach the disk too
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
        raise CheckpointError(f"{manifest_path}: unsupported checkpoint format version "
                              f"{manifest.get('format_version')!r} "
                              f"(expected {CHECKPOINT_VERSION})")
    if not isinstance(manifest.get("config", {}), dict):
        raise CheckpointError(f"{manifest_path}: config must be a JSON object, "
                              f"got {type(manifest['config']).__name__}")
    return manifest


def _recorded(manifest: dict, directory: Path, table: str, name: str) -> str:
    """The sha256 `manifest[table][name]` of the checkpoint in `directory`,
    or a CheckpointError naming its manifest."""
    digest = manifest.get(table)
    digest = digest.get(name) if isinstance(digest, dict) else None
    if not isinstance(digest, str):
        raise CheckpointError(f"{directory / MANIFEST_FILE} records no sha256 for {name}")
    return digest


def _verify(manifest: dict, path: Path, data: bytes) -> None:
    """Refuse a checkpoint file whose bytes are not the ones it was saved with."""
    if _sha256(data) != _recorded(manifest, path.parent, "sha256", path.name):
        raise CheckpointError(f"corrupt checkpoint: {path} does not match "
                              f"its sha256 in {MANIFEST_FILE}")


def load_checkpoint(directory, manifest: dict, table: list) -> dict:
    """Load params, validating the archive against `manifest`: the one
    `read_manifest` read, which the caller checks its config and inputs by.

    `table` is the `param_table` of the configuration and the sizes of
    the inputs the params are used with.  The manifest's tensor table
    must equal its `tensor_layout`, or the error names the first entry
    that differs; params.bin must then hold exactly that layout's values,
    which are sliced by the layout, never by the manifest's numbers.
    """
    directory = Path(directory)
    layout = tensor_layout((name, shape) for name, shape, _ in table)
    tensors = manifest.get("tensors")
    if not isinstance(tensors, list):
        raise CheckpointError(f"{directory / MANIFEST_FILE}: missing tensor table")
    if tensors != layout:
        i, found, expected = next((i, a, b) for i, (a, b) in
                                  enumerate(zip_longest(tensors, layout)) if a != b)
        raise CheckpointError(
            f"{directory / MANIFEST_FILE}: tensor entry {i} is {found!r}, but the "
            f"current configuration and inputs give {expected!r}")

    params_path = directory / PARAMS_FILE
    try:
        blob = params_path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read {params_path}: {e}") from e
    nbytes = 4 * sum(entry["size"] for entry in layout)
    if len(blob) != nbytes:
        raise CheckpointError(f"corrupt checkpoint: {params_path} holds {len(blob)} "
                              f"bytes but its tensor table needs {nbytes}")
    _verify(manifest, params_path, blob)
    raw = np.frombuffer(blob, dtype="<f4")
    return {e["name"]: Tensor(raw[e["offset"]:e["offset"] + e["size"]].astype(np.float64)
                              .reshape(e["shape"]), requires_grad=True) for e in layout}


def load_inputs(directory, data_dir, manifest: dict) -> tuple:
    """(dataset, assignments) a checkpoint was trained on.

    The three TSVs in `data_dir` must hash to the digests `manifest`
    records; hashing them is the only read of `data_dir`.  The dataset
    and assignments come from the checkpoint's inputs file.
    """
    for name, digest in dataset_sha256(data_dir).items():
        if digest != _recorded(manifest, Path(directory), "data_sha256", name):
            raise CheckpointError(
                f"{Path(data_dir) / name} is not the file this checkpoint was "
                f"trained on (sha256 differs); pass the training data or retrain")
    path = Path(directory) / INPUTS_FILE
    try:
        blob = bytearray(path.read_bytes())   # so the arrays sliced from it are writable
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from e
    _verify(manifest, path, blob)
    arrays = {}
    for name, (offset, nbytes) in _input_table(manifest, path, len(blob)).items():
        dtype = np.dtype(INPUT_ARRAYS[name])
        arrays[name] = np.frombuffer(blob, dtype, nbytes // dtype.itemsize, offset)
    try:
        return dataset_from_arrays(arrays), SubsetTable(
            arrays["subset_offsets"], arrays["member_offsets"], arrays["subset_members"])
    except (ValueError, UsageError) as e:
        raise CheckpointError(f"{path}: malformed inputs ({e})") from e


def _input_table(manifest: dict, path: Path, size: int) -> dict:
    """{name: (byte offset, byte length)} of the manifest's array table
    for the `size`-byte inputs file at `path`.  The table must list
    `INPUT_ARRAYS` in order, each with its dtype and a whole number of
    values, starting where the one before ends, and the last must end
    where the file does; otherwise the error names the first entry that
    does not."""
    where = path.parent / MANIFEST_FILE
    table = manifest.get("inputs")
    if not isinstance(table, list) or len(table) != len(INPUT_ARRAYS):
        raise CheckpointError(f"{where}: the inputs table must list the "
                              f"{len(INPUT_ARRAYS)} arrays {list(INPUT_ARRAYS)}")
    slices, offset = {}, 0
    for i, (entry, (name, dtype)) in enumerate(zip(table, INPUT_ARRAYS.items())):
        nbytes = entry.get("nbytes") if isinstance(entry, dict) else None
        if (entry != {"name": name, "dtype": dtype, "offset": offset, "nbytes": nbytes}
                or type(nbytes) is not int or nbytes < 0
                or nbytes % np.dtype(dtype).itemsize or offset + nbytes > size):
            raise CheckpointError(
                f"{where}: inputs entry {i} is {entry!r}, but {path.name} needs "
                f"{name!r} of dtype {dtype!r} at byte {offset}, ending within its "
                f"{size} bytes")
        slices[name] = offset, nbytes
        offset += nbytes
    if offset != size:
        raise CheckpointError(f"{where}: the inputs table covers {offset} of "
                              f"{path.name}'s {size} bytes")
    return slices
