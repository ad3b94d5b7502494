import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mgam.training
from mgam import autodiff as ad
from mgam.autodiff import Tensor
from mgam.clustering import cluster_subsets
from mgam.config import STREAM_TRAIN, Config, substream
from mgam.data import (DATA_FILES, Dataset, Rows, SyntheticParams, dataset_sha256,
                       generate_synthetic, label_blocks, sample_negatives,
                       split_leave_one_out, write_dataset)
from mgam.errors import CheckpointError, ConfigError, NonFiniteError, UsageError
from mgam.graph import build_co_membership
from mgam.model import forward_batch, init_params, param_table
from mgam.training import (adam_step, fit_epoch, init_adam, load_checkpoint, load_inputs,
                           point_loss_from_logits, read_manifest, save_checkpoint,
                           tensor_layout, total_loss, train, train_epoch,
                           triplet_loss, _build_triplets)

from conftest import fresh_toy_params, same_dataset, same_subsets, subset_table


# ---------------------------------------------------------------------------
# losses

def test_triplet_loss_values():
    assert float(triplet_loss(0.9, 0.8, 0.1, 1.0).data) == pytest.approx(0.37, abs=1e-12)
    assert float(triplet_loss(0.5, 0.5, 0.5, 1.0).data) == pytest.approx(1.0, abs=1e-12)
    assert float(triplet_loss(0.1, 0.1, 0.9, 0.1).data) == 0.0


def test_triplet_loss_vectorized():
    out = triplet_loss(Tensor([0.9, 0.5]), Tensor([0.8, 0.5]),
                       Tensor([0.1, 0.5]), 1.0)
    assert np.allclose(out.data, [0.37, 1.0], atol=1e-12)


def test_point_loss_values():
    def loss(logit, y):
        return float(point_loss_from_logits(logit, y).data)
    assert loss(0.0, 1) == pytest.approx(np.log(2), abs=1e-12)
    assert loss(0.0, 0) == pytest.approx(np.log(2), abs=1e-12)
    assert loss(10.0, 1) == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-12)
    # saturated logits stay finite (the stable log-sigmoid form)
    assert loss(1000.0, 0) == pytest.approx(1000.0, rel=1e-12)
    assert loss(-1000.0, 1) == pytest.approx(1000.0, rel=1e-12)


def test_point_loss_from_logits_matches_definition():
    z = np.array([-3.0, 0.0, 2.0])
    y = np.array([1.0, 0.0, 1.0])
    out = point_loss_from_logits(Tensor(z), y).data
    p = 1 / (1 + np.exp(-z))
    expect = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert np.abs(out - expect).max() < 1e-12


def _two_term_point_loss(logits, labels):
    """-(y logsigmoid(x) + (1 - y) logsigmoid(-x)), term by term."""
    y = ad.as_tensor(np.asarray(labels, dtype=np.float64))
    pos = ad.mul(y, ad.logsigmoid(logits))
    neg = ad.mul(ad.sub(ad.as_tensor(1.0), y), ad.logsigmoid(ad.scale(logits, -1.0)))
    return ad.scale(ad.add(pos, neg), -1.0)


@pytest.mark.parametrize("extra", [[], [-700.0, -40.0, -0.0, 40.0, 700.0],
                                   [-1000.0, -746.0, 746.0, 1000.0]])
def test_signed_point_loss_is_the_two_term_definition_bitwise(extra):
    """The one-log-sigmoid form gives the two-term cross-entropy's values
    and gradients bit for bit, on random and on saturated logits.  Where
    the sigmoid underflows (|x| > 745) the gradient is 0 either way, but
    the two-term form adds its zero-weighted term's +0 to a -0, so there
    only the values of the gradients are compared."""
    rng = np.random.default_rng(71)
    x = np.tile(np.r_[rng.normal(0.0, 6.0, 40), extra], 2)
    y = np.repeat([1.0, 0.0], len(x) // 2)
    out = []
    for loss_fn in (point_loss_from_logits, _two_term_point_loss):
        t = Tensor(x, requires_grad=True)
        terms = loss_fn(t, y)
        out.append((terms.data, ad.grad_map(ad.tensor_mean(terms), {"x": t})["x"]))
    (value, grad), (want_value, want_grad) = out
    assert value.tobytes() == want_value.tobytes()
    if max(map(abs, extra), default=0.0) > 745:
        assert np.array_equal(grad, want_grad)
    else:
        assert grad.tobytes() == want_grad.tobytes()


def test_total_loss_examples():
    # lambda1=0, all triplets clamp to zero
    t = triplet_loss(Tensor([0.1]), Tensor([0.1]), Tensor([0.9]), 0.1)
    out = total_loss(t, Tensor([0.7]), 0.0)
    assert float(out.data) == 0.0
    # single instance, no triplet
    out = total_loss(None, Tensor([np.log(2)]), 0.5)
    assert float(out.data) == pytest.approx(0.5 * np.log(2), abs=1e-12)
    # two-instance hand batch: one 0.37 triplet + two ln2 point terms
    t = triplet_loss(Tensor([0.9]), Tensor([0.8]), Tensor([0.1]), 1.0)
    out = total_loss(t, Tensor([np.log(2), np.log(2)]), 0.5)
    assert float(out.data) == pytest.approx(0.37 + 0.5 * np.log(2), abs=1e-12)


def test_total_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        t = triplet_loss(Tensor(rng.random(k)), Tensor(rng.random(k)),
                         Tensor(rng.random(k)), rng.random())
        p = point_loss_from_logits(Tensor(rng.normal(size=k)),
                                   rng.integers(0, 2, size=k).astype(float))
        assert float(total_loss(t, p, rng.random()).data) >= 0.0


def test_loss_decomposition():
    t = triplet_loss(Tensor([0.9, 0.2]), Tensor([0.7, 0.2]), Tensor([0.3, 0.8]), 1.0)
    p = point_loss_from_logits(Tensor([1.0, -1.0]), np.array([1.0, 0.0]))
    assert float(total_loss(t, p, 0.0).data) == pytest.approx(
        float(t.data.mean()), abs=1e-12)
    assert float(total_loss(None, p, 0.7).data) == pytest.approx(
        0.7 * float(p.data.mean()), abs=1e-12)


# ---------------------------------------------------------------------------
# Adam

def test_adam_first_step_magnitude():
    p = {"x": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = init_adam(p)
    adam_step(p, {"x": np.array([0.3, -4.0])}, state, lr=0.01)
    delta = np.abs(p["x"].data - np.array([1.0, -2.0]))
    assert np.abs(delta - 0.01).max() < 1e-6  # ~lr per coordinate
    assert np.sign(1.0 - p["x"].data[0]) == np.sign(0.3)


def test_adam_zero_gradient_is_noop():
    p = {"x": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
    state = init_adam(p)
    adam_step(p, {"x": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(p["x"].data, [1.0, 2.0])
    assert np.array_equal(state.moments, np.zeros((2, 2)))


def test_adam_quadratic_convergence_matches_recurrence():
    """100 steps on f(x)=x^2 from x0=1 at lr=0.1, against an independent
    scalar recurrence."""
    p = {"x": Tensor(np.array(1.0), requires_grad=True)}
    state = init_adam(p)
    # independent recurrence
    x, m, v = 1.0, 0.0, 0.0
    for t in range(1, 101):
        g = 2.0 * x
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        adam_step(p, {"x": 2.0 * p["x"].data}, state, lr=0.1)
    assert abs(x) < 0.05
    assert float(p["x"].data) == pytest.approx(x, abs=1e-12)


def test_adam_shape_mismatch_rejected():
    p = {"x": Tensor(np.zeros(3), requires_grad=True)}
    with pytest.raises(UsageError):
        adam_step(p, {"x": np.zeros(2)}, init_adam(p), lr=0.1)


def test_adam_missing_gradient_names_the_parameter():
    p = {"x": Tensor(np.zeros(3), requires_grad=True),
         "y": Tensor(np.ones(2), requires_grad=True)}
    state = init_adam(p)
    with pytest.raises(UsageError, match="no gradient for parameter 'y'"):
        adam_step(p, {"x": np.ones(3)}, state, lr=0.1)
    assert state.step == 0
    assert np.array_equal(p["x"].data, np.zeros(3))


# ---------------------------------------------------------------------------
# triplet assembly

def test_build_triplets_same_and_diff_from_same_group():
    instances = [(0, 5, 1), (0, 9, 0), (0, 6, 1), (1, 2, 1)]
    triplets = _build_triplets(instances)
    by_anchor = {a: (s, d) for a, s, d in triplets}
    assert by_anchor[0] == (2, 1)
    assert by_anchor[2] == (0, 1)
    assert 1 not in by_anchor  # lone negative has no same-label partner
    assert 3 not in by_anchor  # no partner at all in group 1


def _dict_triplets(instances) -> list:
    """Reference triplet assembly: (group, label) pools in a dict."""
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


def test_build_triplets_matches_dict_reference():
    rng = np.random.default_rng(0)
    for trial in range(3000):
        k = (0, 1, 3)[trial % 3]                 # negatives per positive
        groups = rng.integers(0, 4, size=rng.integers(1, 9))
        rows = []
        for g in groups:
            rows.append((int(g), int(rng.integers(50)), 1))
            rows += [(int(g), int(rng.integers(50)), 0) for _ in range(k)]
        if trial % 4 == 0:                       # a group with only negatives
            rows += [(9, int(rng.integers(50)), 0) for _ in range(rng.integers(1, 3))]
        if trial % 5 == 0:                       # labels in any order
            rows = [(g, v, int(y)) for (g, v, _), y in
                    zip(rows, rng.integers(0, 2, size=len(rows)))]
        if trial % 7 == 0:
            rows = rows[:1]
        assert _build_triplets(np.array(rows)) == _dict_triplets(rows), rows
    assert _build_triplets([(0, 1, 1)]) == []


# ---------------------------------------------------------------------------
# epoch loop

def _small_setup(seed=0, n_groups=6):
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=24, n_items=40, n_groups=n_groups, group_size_range=(3, 5),
        n_cohorts=2, positives_per_group=5), seed=seed)
    split = split_leave_one_out(ds, [seed, 1])
    assignments = cluster_subsets(ds, 2, max_iters=100, restarts=3, seed=[seed, 2])
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=2)
    return ds, split, assignments, graph, cfg


def test_train_deterministic_bitwise():
    ds, split, assignments, graph, cfg = _small_setup()
    tc = replace(cfg, epochs=2, batch_size=8, seed=5)
    p1, h1 = train(ds, split, assignments, graph, tc)
    p2, h2 = train(ds, split, assignments, graph, tc)
    for k in p1:
        assert np.array_equal(p1[k].data, p2[k].data)
    assert [s.mean_loss for s in h1] == [s.mean_loss for s in h2]


def test_train_epoch_lr_zero_keeps_parameters():
    ds, split, assignments, graph, cfg = _small_setup()
    tc = replace(cfg, epochs=1, batch_size=8, seed=5, learning_rate=1e-300)
    p, _ = train(ds, split, assignments, graph, tc)
    q, _ = train(ds, split, assignments, graph,
                 replace(tc, learning_rate=1e-299))
    # effectively-zero learning rates keep parameters at their init values
    from mgam.config import STREAM_INIT, substream
    from mgam.model import init_params
    init = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                       np.random.default_rng(substream(5, STREAM_INIT)))
    for k in p:
        assert np.abs(p[k].data - init[k].data).max() < 1e-12
        assert np.abs(q[k].data - init[k].data).max() < 1e-12


def test_train_epoch_batches_are_positive_then_negative_rows(monkeypatch):
    """Each batch holds every positive followed by its negatives, drawn in
    one `sample_negatives` call per batch on the epoch's STREAM_TRAIN
    stream."""
    ds, split, assignments, graph, cfg = _small_setup()
    tc = replace(cfg, batch_size=8, train_negatives=3, seed=5)
    expected = []
    for epoch in range(2):
        rng = np.random.default_rng(substream(tc.seed, STREAM_TRAIN, epoch))
        order = rng.permutation(len(split.train))
        for start in range(0, len(order), tc.batch_size):
            positives = split.train[order[start:start + tc.batch_size]]
            negatives = sample_negatives(ds, positives[:, 0], tc.train_negatives, rng=rng)
            instances = []
            for (g, v), row in zip(positives.tolist(), negatives.tolist()):
                instances += [(g, v, 1)] + [(g, u, 0) for u in row]
            expected.append(instances)

    seen_pairs, seen_rows = [], []
    real_forward, real_triplets = mgam.training.forward_batch, mgam.training._build_triplets

    def forward_spy(*args, **kwargs):
        seen_pairs.append(np.asarray(args[5]).tolist())
        return real_forward(*args, **kwargs)

    def triplets_spy(instances):
        seen_rows.append(np.asarray(instances).tolist())
        return real_triplets(instances)

    monkeypatch.setattr(mgam.training, "forward_batch", forward_spy)
    monkeypatch.setattr(mgam.training, "_build_triplets", triplets_spy)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    adam = init_adam(params)
    for epoch in range(2):
        train_epoch(params, adam, ds, split, assignments, graph, tc, epoch)
    assert seen_rows == [[list(r) for r in batch] for batch in expected]
    assert seen_pairs == [[[g, v] for g, v, _ in batch] for batch in expected]


def test_train_empty_split_rejected():
    ds, split, assignments, graph, cfg = _small_setup()
    split.train = np.empty((0, 2), dtype=np.intp)
    with pytest.raises(UsageError):
        train_epoch({}, init_adam({}), ds, split, assignments, graph, cfg, 0)


def test_train_epoch_rejects_non_finite_loss():
    ds, split, assignments, graph, cfg = _small_setup()
    tc = replace(cfg, batch_size=8, seed=5)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    params["predict_w"].data[0] = np.nan
    before = {k: p.data.copy() for k, p in params.items()}
    adam = init_adam(params)
    with pytest.raises(NonFiniteError, match=r"non-finite loss nan at epoch 3, batch 0"):
        train_epoch(params, adam, ds, split, assignments, graph, tc, 3)
    for k, p in params.items():
        assert np.array_equal(p.data, before[k], equal_nan=True)
    assert adam.step == 0


def test_train_epoch_rejects_non_finite_gradient(monkeypatch):
    ds, split, assignments, graph, cfg = _small_setup()
    tc = replace(cfg, batch_size=8, seed=5)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    adam = init_adam(params)
    grad_map = ad.grad_map
    seen = []

    def poisoned(loss, wrt):
        grads = grad_map(loss, wrt)
        seen.append({k: p.data.copy() for k, p in wrt.items()})
        if len(seen) == 2:
            grads["item_emb"][1, 0] = np.inf
        return grads

    monkeypatch.setattr(ad, "grad_map", poisoned)
    with pytest.raises(NonFiniteError,
                       match=r"parameter 'item_emb' at epoch 0, batch 1"):
        train_epoch(params, adam, ds, split, assignments, graph, tc, 0)
    assert adam.step == 1
    for k, p in params.items():
        assert np.array_equal(p.data, seen[1][k])


def _fit_epoch_setup():
    """Parameters, their Adam state and 7 (owner, item) positives: 3
    batches of at most 3."""
    params = {"w": Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)}
    positives = np.c_[np.arange(7) % 3, np.arange(7) + 10]
    return params, init_adam(params), positives


def _fit_loss(params, rows):
    return ad.tensor_mean(ad.take(params["w"], rows[:, 1] % 4 + rows[:, 2]))


def test_fit_epoch_draws_once_per_batch_after_the_permutation():
    """The order is one permutation on the epoch generator, then each
    batch's negatives are one `draw` of its owners on that generator,
    and its loss reads their `label_blocks` rows; each batch is one
    Adam step."""
    params, adam, positives = _fit_epoch_setup()
    ref = np.random.default_rng(5)
    order = ref.permutation(len(positives))
    expected_owners, expected_rows = [], []
    for start in range(0, len(order), 3):
        owned = positives[order[start:start + 3]]
        expected_owners.append(owned[:, 0].tolist())
        expected_rows.append(label_blocks(owned, ref.integers(50, size=(len(owned), 2)))
                             .reshape(-1, 3).tolist())
    rng = np.random.default_rng(5)
    owners, rows_seen = [], []

    def draw(batch_owners, draw_rng):
        assert draw_rng is rng
        owners.append(batch_owners.tolist())
        return draw_rng.integers(50, size=(len(batch_owners), 2))

    def loss_of(rows):
        rows_seen.append(rows.tolist())
        return _fit_loss(params, rows)

    fit_epoch(params, adam, positives, 3, 0.01, rng, 0, draw, loss_of)
    assert owners == expected_owners
    assert rows_seen == expected_rows
    assert adam.step == 3


@pytest.mark.parametrize("batch", [0, 2])
@pytest.mark.parametrize("failure", ["loss", "gradient"])
def test_fit_epoch_refuses_non_finite_before_the_step(monkeypatch, failure, batch):
    """A NaN loss, or a NaN gradient, at batch b raises NonFiniteError
    naming the epoch and batch, with every parameter and `adam.step` as
    batch b - 1's step left them."""
    params, adam, positives = _fit_epoch_setup()
    before = []

    def loss_of(rows):
        before.append((params["w"].data.copy(), adam.step))
        loss = _fit_loss(params, rows)
        return ad.scale(loss, np.nan) if failure == "loss" and len(before) == batch + 1 else loss

    grad_map = ad.grad_map

    def poisoned(loss, wrt):
        grads = grad_map(loss, wrt)
        if len(before) == batch + 1:
            grads["w"][3] = np.nan
        return grads

    if failure == "gradient":
        monkeypatch.setattr(ad, "grad_map", poisoned)
    message = {"loss": "non-finite loss nan", "gradient": "non-finite gradient for parameter 'w'"}
    with pytest.raises(NonFiniteError, match=rf"^{message[failure]} at epoch 4, batch {batch}$"):
        fit_epoch(params, adam, positives, 3, 0.1, np.random.default_rng(5), 4,
                  lambda owners, rng: rng.integers(50, size=(len(owners), 2)), loss_of)
    w, step = before[batch]
    assert np.array_equal(params["w"].data, w)
    assert adam.step == step == batch
    if batch:
        assert not np.array_equal(w, before[0][0])


def test_loss_decreases_for_some_small_lr(toy):
    """Plain line search along the negative gradient on a fixed batch."""
    params = fresh_toy_params(toy)
    labels = toy["labels"]

    def loss_value():
        [res] = forward_batch(params, toy["cfg"], toy["dataset"],
                              toy["assignments"], toy["graph"], toy["batch"])
        return total_loss(None, point_loss_from_logits(res.logits, labels), 0.5)

    base = loss_value()
    for p in params.values():
        p.grad = None
    grads = ad.grad_map(base, params)
    decreased = False
    for lr in (1e-3, 1e-4, 1e-5):
        for name, p in params.items():
            p.data -= lr * grads[name]
        decreased = decreased or float(loss_value().data) < float(base.data)
        for name, p in params.items():
            p.data += lr * grads[name]
    assert decreased


def test_overfit_small_dataset():
    """Capacity check: 20 train positives, 5 groups, d=16 drive mean
    point-loss under 0.05, from each of three training seeds."""
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=15, n_items=30, n_groups=5, group_size_range=(3, 4),
        n_cohorts=2, positives_per_group=5), seed=3)
    split = split_leave_one_out(ds, 0)
    assert len(split.train) == 20
    assignments = cluster_subsets(ds, 2, max_iters=100, restarts=3, seed=1)
    graph = build_co_membership(ds.groups)
    for seed in (7, 8, 9):
        cfg = Config(embedding_dim=16, num_subsets=2, gcn_layers=2,
                     epochs=600, batch_size=64, seed=seed, learning_rate=0.01)
        _, history = train(ds, split, assignments, graph, cfg)
        assert history[-1].point_mean < 0.05, seed


def test_train_ablated_runs(toy):
    ds, split, assignments, graph, cfg = _small_setup()
    tc = replace(cfg, epochs=1, batch_size=8, seed=2, ablate="suppe")
    params, hist = train(ds, split, assignments, graph, tc)
    assert len(hist) == 1
    # superset weights never received a training signal
    from mgam.config import STREAM_INIT, substream
    from mgam.model import init_params
    init = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                       np.random.default_rng(substream(2, STREAM_INIT)))
    assert np.array_equal(params["gcn_global_w_1"].data,
                          init["gcn_global_w_1"].data)
    assert not np.array_equal(params["user_emb"].data, init["user_emb"].data)


# ---------------------------------------------------------------------------
# checkpoints

# the 3-user, 5-item, 2-group problem the checkpoint helpers train on
_CKPT_DATASET = Dataset(
    n_users=3, n_items=5, n_groups=2, user_items=Rows.from_lists([[0, 1], [2], []]),
    groups=Rows.from_lists([[0, 1], [1, 2]]), group_pos=Rows.from_lists([[3], [4]]),
    user_ids=["u0", "u1", "u2"], item_ids=[str(i) for i in range(5)],
    group_ids=["g0", "g1"])
_CKPT_ASSIGNMENTS = subset_table([[[0], [1]],
                                            [[1, 2]]])


_CKPT_CFG = Config(embedding_dim=4, num_subsets=2, gcn_layers=1)
_CKPT_TABLE = param_table(_CKPT_CFG, 3, 5, 2)


def _checkpoint_roundtrip_setup(tmp_path, data_sha256=None):
    cfg = _CKPT_CFG
    params = init_params(cfg, 3, 5, 2, np.random.default_rng(0))
    if data_sha256 is None:
        data_sha256 = {name: "0" * 64 for name in DATA_FILES}
    save_checkpoint(tmp_path, params, {"embedding_dim": 4}, _CKPT_DATASET,
                    _CKPT_ASSIGNMENTS, data_sha256)
    return cfg, params


def test_checkpoint_roundtrip_float32(tmp_path):
    cfg, params = _checkpoint_roundtrip_setup(tmp_path)
    manifest = read_manifest(tmp_path)
    loaded = load_checkpoint(tmp_path, manifest, _CKPT_TABLE)
    assert sorted(manifest) == ["config", "data_sha256", "format_version", "inputs",
                                "sha256", "tensors"]
    assert manifest["config"] == {"embedding_dim": 4}
    assert manifest["format_version"] == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "inputs.bin", "manifest.json", "params.bin"]
    for k, p in params.items():
        assert np.array_equal(loaded[k].data, p.data.astype(np.float32).astype(np.float64))
        assert loaded[k].requires_grad


def test_checkpoint_files_reach_disk_before_their_rename(tmp_path, monkeypatch):
    """Each file is fsynced under its temporary name before the rename that
    publishes it, in the order params, inputs, manifest; the directory is
    fsynced after the manifest's rename."""
    events = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, Path(dst).name))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    _checkpoint_roundtrip_setup(tmp_path)
    want = []
    for name in ("params.bin", "inputs.bin", "manifest.json"):
        inode = (tmp_path / name).stat().st_ino
        want += [("fsync", inode), ("replace", inode, name)]
    assert events == want + [("fsync", tmp_path.stat().st_ino)]


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    cfg, params = _checkpoint_roundtrip_setup(a_dir)
    manifest = read_manifest(a_dir)
    loaded = load_checkpoint(a_dir, manifest, _CKPT_TABLE)
    save_checkpoint(b_dir, loaded, manifest["config"], _CKPT_DATASET, _CKPT_ASSIGNMENTS,
                    manifest["data_sha256"])
    for name in ("manifest.json", "params.bin", "inputs.bin"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


def _edit_tensor_table(tmp_path, edit):
    """Save the helper checkpoint, then rewrite its manifest's tensor
    table with `edit(tensors)`."""
    import json
    _checkpoint_roundtrip_setup(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    edit(manifest["tensors"])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))


def test_checkpoint_tampered_manifest_rejected(tmp_path):
    _edit_tensor_table(tmp_path, lambda t: t[0].update(shape=[999, 4]))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path, read_manifest(tmp_path), _CKPT_TABLE)


@pytest.mark.parametrize("field,value", [
    ("shape", "ab"), ("shape", [2.5]), ("shape", [-1]), ("shape", [True]),
    ("offset", "0"), ("size", 1.5), ("name", ["user_emb"]), ("name", 7)],
    ids=["shape-str", "shape-float", "shape-negative", "shape-bool", "offset-str",
         "size-float", "name-list", "name-int"])
def test_checkpoint_malformed_tensor_entry_is_named(tmp_path, field, value):
    _edit_tensor_table(tmp_path, lambda t: t[0].update({field: value}))
    with pytest.raises(CheckpointError, match="tensor entry 0 is"):
        load_checkpoint(tmp_path, read_manifest(tmp_path), _CKPT_TABLE)


@pytest.mark.parametrize("edit,entry,name", [
    (lambda t: t.insert(0, t.pop(1)), 0, "item_emb"),
    (lambda t: t[0].update(dtype="<f4"), 0, "dtype"),
    (lambda t: t.pop(), 19, "predict_b"),
    (lambda t: t.append(dict(t[-1], name="extra_b", offset=t[-1]["offset"] + 1)),
     20, "extra_b")],
    ids=["permuted", "fifth-key", "missing", "extra"])
def test_checkpoint_tensor_table_must_equal_the_layout(tmp_path, edit, entry, name):
    """The table is compared whole with the configuration's layout: any
    order, key set or tensor count other than that layout's is refused,
    naming the first entry that differs."""
    _edit_tensor_table(tmp_path, edit)
    with pytest.raises(CheckpointError, match=rf"tensor entry {entry} is .*{name}"):
        load_checkpoint(tmp_path, read_manifest(tmp_path), _CKPT_TABLE)


def test_checkpoint_tensor_table_compares_json_values_by_equality(tmp_path):
    """Entries whose values only equal the layout's (a float dimension, a
    float offset, `true` for a size of 1) load the same params, since
    params.bin is sliced by the layout, not by the manifest's numbers."""
    _checkpoint_roundtrip_setup(tmp_path / "clean")
    clean = load_checkpoint(tmp_path / "clean", read_manifest(tmp_path / "clean"),
                            _CKPT_TABLE)

    def equal_values(tensors):   # user_emb, item_emb and user_att_w
        tensors[0]["shape"] = [3.0, 4]
        tensors[1]["offset"] = 12.0
        tensors[3]["size"] = True
    _edit_tensor_table(tmp_path / "edited", equal_values)
    manifest = read_manifest(tmp_path / "edited")
    assert [type(v) for v in (manifest["tensors"][0]["shape"][0],
                              manifest["tensors"][1]["offset"],
                              manifest["tensors"][3]["size"])] == [float, float, bool]
    loaded = load_checkpoint(tmp_path / "edited", manifest, _CKPT_TABLE)
    assert list(loaded) == list(clean)
    for name, p in clean.items():
        assert np.array_equal(loaded[name].data, p.data), name


def test_checkpoint_wrong_dimension_names_tensor(tmp_path):
    cfg, _ = _checkpoint_roundtrip_setup(tmp_path)
    other = Config(embedding_dim=8, num_subsets=2, gcn_layers=1)
    with pytest.raises(CheckpointError, match="tensor entry 0 is .*user_emb"):
        load_checkpoint(tmp_path, read_manifest(tmp_path), param_table(other, 3, 5, 2))


@pytest.mark.parametrize("m,layers", [(1, 1), (2, 2), (3, 3)])
def test_param_table_layout_is_the_saved_tensor_table(tmp_path, m, layers):
    """The layout the loader derives from `param_table`, without drawing
    a parameter, is the tensor table `save_checkpoint` writes for
    `init_params`, in its order."""
    cfg = Config(embedding_dim=8, num_subsets=m, gcn_layers=layers)
    params = init_params(cfg, 3, 5, 2, np.random.default_rng(0))
    save_checkpoint(tmp_path, params, {}, _CKPT_DATASET, _CKPT_ASSIGNMENTS,
                    {name: "0" * 64 for name in DATA_FILES})
    layout = tensor_layout((name, shape) for name, shape, _ in param_table(cfg, 3, 5, 2))
    assert read_manifest(tmp_path)["tensors"] == layout
    if m == 2:   # the checkpoint-stable order, which fixes every draw
        assert list(params) == [
            "user_emb", "item_emb", "group_emb", "user_att_w", "user_att_b",
            "subpe_self_w_1", "subpe_other_w_1", "subpe_bias_1",
            "subpe_self_w_2", "subpe_other_w_2", "subpe_bias_2", "subpe_score_w",
            "group_att_w", "group_att_b", "gcn_global_w_1", "gcn_global_w_2",
            "gcn_batch_w_1", "gcn_batch_w_2", "suppe_proj_w", "suppe_proj_b",
            "predict_w", "predict_b"]
    with pytest.raises(ConfigError, match="embedding_dim"):
        param_table(Config(embedding_dim=3), 7, 9, 4)


def test_checkpoint_version_guard(tmp_path):
    import json
    _checkpoint_roundtrip_setup(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError,
                       match=r"unsupported checkpoint format version 1 \(expected 4\)"):
        load_checkpoint(tmp_path, read_manifest(tmp_path), _CKPT_TABLE)
    with pytest.raises(CheckpointError, match="version 1"):
        read_manifest(tmp_path)


def test_checkpoint_truncated_params_rejected(tmp_path):
    _checkpoint_roundtrip_setup(tmp_path)
    raw = (tmp_path / "params.bin").read_bytes()
    (tmp_path / "params.bin").write_bytes(raw[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path, read_manifest(tmp_path), _CKPT_TABLE)


@pytest.mark.parametrize("edit", [
    lambda raw: raw[:-8], lambda raw: raw + b"\0\0\0\0", lambda raw: raw + b"\0\0"],
    ids=["short", "trailing", "trailing-partial"])
def test_checkpoint_size_checks_come_before_the_digest(tmp_path, edit):
    _checkpoint_roundtrip_setup(tmp_path)
    path = tmp_path / "params.bin"
    raw = path.read_bytes()
    path.write_bytes(edit(raw))
    with pytest.raises(CheckpointError, match=rf"params\.bin holds {len(edit(raw))} "
                                              rf"bytes but its tensor table needs {len(raw)}"):
        load_checkpoint(tmp_path, read_manifest(tmp_path), _CKPT_TABLE)


def _saved_with_data(tmp_path):
    """A checkpoint of the helper problem, saved with the digests of its
    dataset written out as TSVs; returns (checkpoint, data) directories."""
    ckpt, data = tmp_path / "ckpt", tmp_path / "data"
    write_dataset(_CKPT_DATASET, data)
    _checkpoint_roundtrip_setup(ckpt, dataset_sha256(data))
    return ckpt, data


def test_checkpoint_inputs_roundtrip(tmp_path):
    ckpt, data = _saved_with_data(tmp_path)
    dataset, assignments = load_inputs(ckpt, data, read_manifest(ckpt))
    assert same_dataset(dataset, _CKPT_DATASET)
    assert same_subsets(assignments, _CKPT_ASSIGNMENTS)


def _rewrite_inputs(ckpt, edit) -> dict:
    """Let `edit(manifest, raw)` change the manifest and return new
    inputs.bin bytes; write both with a matching digest, as a hand-edited
    checkpoint would, and return the manifest."""
    import hashlib
    import json
    manifest = read_manifest(ckpt)
    raw = edit(manifest, (ckpt / "inputs.bin").read_bytes())
    (ckpt / "inputs.bin").write_bytes(raw)
    manifest["sha256"]["inputs.bin"] = hashlib.sha256(raw).hexdigest()
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def _drop_subset_members(manifest, raw):
    table = manifest["inputs"]
    [k] = [k for k, e in enumerate(table) if e["name"] == "subset_members"]
    dropped = table.pop(k)
    for e in table[k:]:
        e["offset"] -= dropped["nbytes"]
    return raw[:dropped["offset"]] + raw[dropped["offset"] + dropped["nbytes"]:]


def test_checkpoint_inputs_missing_array_is_named(tmp_path, monkeypatch):
    """An inputs file whose digest matches but which lacks an array (a
    hand-edited checkpoint) is a named error, not a KeyError, raised
    before any array is sliced out of the file."""
    ckpt, data = _saved_with_data(tmp_path)
    manifest = _rewrite_inputs(ckpt, _drop_subset_members)
    monkeypatch.setattr(mgam.training.np, "frombuffer", None)
    with pytest.raises(CheckpointError, match=r"manifest\.json: the inputs table must "
                                              r"list the 12 arrays"):
        load_inputs(ckpt, data, manifest)


def _edit_entry(k, **changes):
    def edit(manifest, raw):
        manifest["inputs"][k].update(changes)
        return raw
    return edit


def _shift_entry(k, delta):
    def edit(manifest, raw):
        manifest["inputs"][k]["offset"] += delta
        return raw
    return edit


def _swap_first_two(manifest, raw):
    table = manifest["inputs"]
    table[0], table[1] = table[1], table[0]
    return raw


def _grow_last(manifest, raw):
    manifest["inputs"][-1]["nbytes"] += 8
    return raw


@pytest.mark.parametrize("edit,message", [
    (_swap_first_two, "inputs entry 0 is .*user_items_indices"),
    (_edit_entry(2, name="groups"), "inputs entry 2 is .*'groups'"),
    (_edit_entry(3, dtype="<f8"), "inputs entry 3 is .*<f8"),
    (_edit_entry(3, dtype="bogus"), "inputs entry 3 is .*bogus"),
    (_edit_entry(0, shape=[4]), "inputs entry 0 is .*shape"),
    (_edit_entry(0, nbytes=4), "inputs entry 0 is .*'nbytes': 4"),
    (lambda manifest, raw: manifest["inputs"][0].update(
        nbytes=float(manifest["inputs"][0]["nbytes"])) or raw,
     r"inputs entry 0 is .*'nbytes': \d+\.0"),
    (_shift_entry(1, -8), r"inputs entry 1 is .*needs 'user_items_indices' of dtype '<i8' "
                          r"at byte \d+"),
    (_shift_entry(4, 8), "inputs entry 4 is .*at byte "),
    (_grow_last, r"inputs entry 11 is .*ending within its \d+ bytes"),
    (lambda manifest, raw: raw + bytes(8), r"the inputs table covers \d+ of inputs\.bin's"),
    (lambda manifest, raw: manifest.pop("inputs") and raw, "the inputs table must list"),
    (lambda manifest, raw: manifest.update(inputs={}) or raw, "the inputs table must list")],
    ids=["permuted", "renamed", "other-dtype", "unknown-dtype", "extra-key",
         "partial-value", "float-length", "overlapping", "gap", "past-the-end",
         "trailing-bytes", "no-table", "not-a-list"])
def test_checkpoint_malformed_inputs_table_is_named(tmp_path, monkeypatch, edit, message):
    """inputs.bin's array table must list the arrays in order, each with
    its dtype and a whole number of values, starting where the one before
    ends, the last ending where the file does; any other table is refused,
    naming manifest.json and the first entry that differs, before any
    array is sliced out of the file."""
    ckpt, data = _saved_with_data(tmp_path)
    manifest = _rewrite_inputs(ckpt, edit)
    monkeypatch.setattr(mgam.training.np, "frombuffer", None)
    with pytest.raises(CheckpointError, match=rf"{ckpt / 'manifest.json'}: .*{message}"):
        load_inputs(ckpt, data, manifest)


def test_checkpoint_inputs_file_is_its_arrays_raw(tmp_path):
    """inputs.bin is the arrays' little-endian bytes, back to back in the
    table's order: the int64 arrays first, each at a multiple of 8 bytes,
    then the UTF-8 id lists."""
    ckpt, _ = _saved_with_data(tmp_path)
    table = read_manifest(ckpt)["inputs"]
    assert [e["name"] for e in table] == list(mgam.training.INPUT_ARRAYS)
    assert [e["dtype"] for e in table] == 9 * ["<i8"] + 3 * ["|u1"]
    assert all(e["offset"] % 8 == 0 for e in table[:9])
    raw = (ckpt / "inputs.bin").read_bytes()
    users = next(e for e in table if e["name"] == "user_ids")
    assert raw[users["offset"]:users["offset"] + users["nbytes"]] == "\n".join(
        _CKPT_DATASET.user_ids).encode("utf-8")
    members = next(e for e in table if e["name"] == "subset_members")
    assert raw[members["offset"]:members["offset"] + members["nbytes"]] == (
        _CKPT_ASSIGNMENTS.subsets.indices.astype("<i8").tobytes())


def test_checkpoint_manifest_is_written_last(tmp_path, monkeypatch):
    """Each file is renamed into place, manifest.json last, so a save cut
    short leaves files that the old manifest's digests refuse."""
    cfg, _ = _checkpoint_roundtrip_setup(tmp_path)
    replaced = []
    real = mgam.training.os.replace

    def cut_before_manifest(src, dst):
        if dst.name == "manifest.json":
            raise OSError("disk full")
        replaced.append(dst.name)
        real(src, dst)

    monkeypatch.setattr(mgam.training.os, "replace", cut_before_manifest)
    other = init_params(cfg, 3, 5, 2, np.random.default_rng(1))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path, other, {"embedding_dim": 4}, _CKPT_DATASET,
                        _CKPT_ASSIGNMENTS, {name: "0" * 64 for name in DATA_FILES})
    assert replaced == ["params.bin", "inputs.bin"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "inputs.bin", "manifest.json", "params.bin"]   # no temporary file left
    with pytest.raises(CheckpointError, match=r"params\.bin does not match its sha256"):
        load_checkpoint(tmp_path, read_manifest(tmp_path), _CKPT_TABLE)


def test_train_writes_log(tmp_path):
    ds, split, assignments, graph, cfg = _small_setup()
    log = tmp_path / "train_log.csv"
    train(ds, split, assignments, graph,
          replace(cfg, epochs=2, batch_size=8, seed=1), log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss,triplet_mean,point_mean,wall_seconds"
    assert len(lines) == 3
