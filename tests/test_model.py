import numpy as np
import pytest
from scipy.optimize import linprog

import mgam.model
from mgam import autodiff as ad
from mgam.autodiff import Tensor
from mgam.config import Config
from mgam.data import Dataset, Rows
from mgam.errors import ConfigError, UsageError
from mgam.evaluation import make_mgam_scorer
from mgam.graph import build_co_membership, expand_to_instances
from mgam.model import (AblationMask, compute_global_rows, forward_batch,
                        fuse, init_params, member_attention, predict_logit,
                        subset_attention, superset_embeddings,
                        superset_propagate)
from mgam.training import (point_loss_from_logits, total_loss,
                           triplet_loss, _build_triplets)

from conftest import fresh_toy_params, subset_table
from finite_difference import finite_difference_grad
from reference_forward import reference_forward

E = np.e


# ---------------------------------------------------------------------------
# member attention (used for both subset-level and group-level aggregation)

def _one(rows):
    """A single member table: (w, d) members -> (1, w, d)."""
    return Tensor(np.asarray(rows, dtype=float)[None])


def _item(vec):
    """One item attending over one table: (d,) -> (1, 1, d)."""
    return Tensor(np.asarray(vec, dtype=float).reshape(1, 1, -1))


def _real(members):
    """The all-True `valid` mask of member tables (..., w, d): every member real."""
    return np.ones(members.data.shape[:-1], dtype=bool)


def test_member_attention_singleton_returns_embedding():
    u = _one([[0.3, -0.7, 1.1]])
    h, w = member_attention(u, _item([1.0, 0.0, 0.0]), Tensor(2.0), Tensor(0.5),
                            _real(u))
    assert np.array_equal(h.data, u.data)
    assert np.array_equal(w.data, [[[1.0]]])


def test_member_attention_equal_scores_average():
    u = _one([[1.0, 0.0], [0.0, 1.0]])
    item = _item([1.0, 1.0])  # equal dot products
    h, w = member_attention(u, item, Tensor(1.0), Tensor(0.0), _real(u))
    assert np.allclose(w.data, [[[0.5, 0.5]]], atol=1e-15)
    assert np.allclose(h.data, [[[0.5, 0.5]]], atol=1e-15)


def test_member_attention_hand_derived():
    # e(u1)=(1,0), e(u2)=(0,1), e(v)=(1,0), w=1, b=0:
    # scores=(relu(1), relu(0))=(1,0) -> weights=(e, 1)/(e+1)
    u = _one([[1.0, 0.0], [0.0, 1.0]])
    h, w = member_attention(u, _item([1.0, 0.0]), Tensor(1.0), Tensor(0.0), _real(u))
    w1 = E / (E + 1.0)
    assert np.abs(w.data - [[[w1, 1 - w1]]]).max() < 1e-12
    assert np.abs(h.data - [[[w1, 1 - w1]]]).max() < 1e-12


def test_member_attention_empty_rejected():
    with pytest.raises(UsageError):
        member_attention(Tensor(np.zeros((1, 0, 3))), Tensor(np.zeros((1, 1, 3))),
                         Tensor(1.0), Tensor(0.0), np.ones((1, 0), dtype=bool))
    with pytest.raises(UsageError):
        member_attention(Tensor(np.zeros((0, 2, 3))), Tensor(np.zeros((0, 1, 3))),
                         Tensor(1.0), Tensor(0.0), np.ones((0, 2), dtype=bool))
    # a table whose members are all padding
    with pytest.raises(UsageError):
        member_attention(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 1, 3))),
                         Tensor(1.0), Tensor(0.0),
                         valid=np.array([[True, False], [False, False]]))
    # item grids must match the tables' width and leading axes
    with pytest.raises(UsageError):
        member_attention(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 3))),
                         Tensor(1.0), Tensor(0.0), np.ones((2, 2), dtype=bool))
    with pytest.raises(UsageError):
        member_attention(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 1, 3))),
                         Tensor(1.0), Tensor(0.0), np.ones((2, 2), dtype=bool))


def test_member_attention_convexity():
    """Output lies in the convex hull of the member embeddings (LP check)."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        m, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        u = rng.normal(size=(m, d))
        h, w = member_attention(_one(u), _item(rng.normal(size=d)),
                                Tensor(rng.normal()), Tensor(rng.normal()), _real(_one(u)))
        assert w.data.min() >= 0 and abs(w.data.sum() - 1) < 1e-9
        a_eq = np.vstack([u.T, np.ones(m)])
        b_eq = np.concatenate([h.data[0, 0], [1.0]])
        res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, 1)] * m, method="highs")
        assert res.status == 0


def test_member_attention_padding_matches_unpadded_rows():
    """Tables of different widths in one padded call, each attended by a
    grid of items, equal separate one-item calls; padding gets exactly zero
    weight and zero gradient."""
    rng = np.random.default_rng(4)
    d, c = 3, 2
    rows = [rng.normal(size=(k, d)) for k in (1, 4, 2)]
    items = rng.normal(size=(3, c, d))
    w, b = Tensor(0.8), Tensor(0.1)
    packed = np.zeros((3, 4, d))
    valid = np.zeros((3, 4), dtype=bool)
    for r, x in enumerate(rows):
        packed[r, :len(x)] = x
        valid[r, :len(x)] = True
    members = Tensor(packed, requires_grad=True)
    h, attn = member_attention(members, Tensor(items), w, b, valid)
    assert h.data.shape == (3, c, d) and attn.data.shape == (3, c, 4)
    assert np.array_equal(attn.data[~valid[:, None, :].repeat(c, axis=1)],
                          np.zeros(c * (~valid).sum()))
    for r, x in enumerate(rows):
        for j in range(c):
            h1, w1 = member_attention(_one(x), _item(items[r, j]), w, b, _real(_one(x)))
            assert np.abs(h.data[r, j] - h1.data[0, 0]).max() < 1e-15
            assert np.abs(attn.data[r, j, :len(x)] - w1.data[0, 0]).max() < 1e-15
    ad.backward(ad.tensor_sum(h))
    assert np.isfinite(members.grad).all()
    assert np.array_equal(members.grad[~valid], np.zeros(((~valid).sum(), d)))


def test_member_attention_items_broadcast_over_tables():
    """(G, 1, c, d) items against (G, R, w, d) tables equal one call per table."""
    rng = np.random.default_rng(8)
    tables = rng.normal(size=(2, 3, 4, 5))
    items = rng.normal(size=(2, 1, 6, 5))
    w, b = Tensor(0.7), Tensor(0.2)
    h, attn = member_attention(Tensor(tables), Tensor(items), w, b,
                               np.ones(tables.shape[:-1], dtype=bool))
    assert h.data.shape == (2, 3, 6, 5) and attn.data.shape == (2, 3, 6, 4)
    for g in range(2):
        for r in range(3):
            h1, w1 = member_attention(Tensor(tables[g, r][None]), Tensor(items[g]), w, b,
                                      np.ones((1, 4), dtype=bool))
            assert np.abs(h.data[g, r] - h1.data[0]).max() < 1e-14
            assert np.abs(attn.data[g, r] - w1.data[0]).max() < 1e-14


# ---------------------------------------------------------------------------
# subset attention

def _slot_params(d, m, self_w=None, other_w=None, score_w=None):
    params = {}
    for i in range(1, m + 1):
        params[f"subpe_self_w_{i}"] = Tensor(self_w if self_w is not None else np.eye(d))
        if m > 1:
            params[f"subpe_other_w_{i}"] = Tensor(
                other_w if other_w is not None else np.zeros(((m - 1) * d, d)))
        params[f"subpe_bias_{i}"] = Tensor(np.zeros(d))
    params["subpe_score_w"] = Tensor(score_w if score_w is not None else np.zeros(d))
    return params


def _slots(*vecs):
    """One instance's slot vectors as (1, d) slot tensors."""
    return [Tensor(np.asarray(v, dtype=float)[None]) for v in vecs]


def _present(k):
    """The `present` mask of one instance that has all of its k slots."""
    return np.ones((1, k), dtype=bool)


def test_subset_attention_single_slot_is_identity():
    rng = np.random.default_rng(1)
    params = _slot_params(3, 4, self_w=rng.normal(size=(3, 3)),
                          other_w=rng.normal(size=(9, 3)),
                          score_w=rng.normal(size=3))
    h0 = rng.normal(size=3)
    h, w = subset_attention(_slots(h0), params, 4, _present(1))
    assert np.array_equal(h.data, [h0])
    assert np.array_equal(w.data, [[1.0]])


def test_subset_attention_zero_score_weight_means_uniform():
    rng = np.random.default_rng(2)
    vecs = [rng.normal(size=3) for _ in range(3)]
    params = _slot_params(3, 3, self_w=rng.normal(size=(3, 3)),
                          other_w=rng.normal(size=(6, 3)))
    h, w = subset_attention(_slots(*vecs), params, 3, _present(3))
    assert np.allclose(w.data, 1 / 3, atol=1e-15)
    assert np.abs(h.data[0] - np.mean(vecs, axis=0)).max() < 1e-12


def test_subset_attention_hand_derived():
    # identity self weights, zero cross weights, score_w=(1,0):
    # a=(2,0) -> weights=(e^2, 1)/(e^2+1) -> h=(1.7616, 0.2384)
    params = _slot_params(2, 2, score_w=np.array([1.0, 0.0]))
    h, w = subset_attention(_slots([2.0, 0.0], [0.0, 2.0]), params, 2, _present(2))
    w1 = E ** 2 / (E ** 2 + 1.0)
    assert np.abs(w.data - [[w1, 1 - w1]]).max() < 1e-12
    assert np.abs(h.data - [[2 * w1, 2 * (1 - w1)]]).max() < 1e-12
    assert h.data[0] == pytest.approx([1.7616, 0.2384], abs=1e-4)


def test_subset_attention_missing_slot_matches_fewer_slots():
    """An instance lacking slot 2 (zero row, masked) scores as if it had
    been given one slot, while its batch neighbour uses both."""
    rng = np.random.default_rng(6)
    params = _slot_params(3, 3, self_w=rng.normal(size=(3, 3)),
                          other_w=rng.normal(size=(6, 3)),
                          score_w=rng.normal(size=3))
    a1, a2, b1 = (rng.normal(size=3) for _ in range(3))
    slots = [Tensor(np.stack([a1, b1])), Tensor(np.stack([a2, np.zeros(3)]))]
    present = np.array([[True, True], [True, False]])
    h, w = subset_attention(slots, params, 3, present=present)
    ha, wa = subset_attention(_slots(a1, a2), params, 3, _present(2))
    hb, wb = subset_attention(_slots(b1), params, 3, _present(1))
    assert np.abs(h.data - np.vstack([ha.data, hb.data])).max() < 1e-15
    assert np.abs(w.data[0] - wa.data[0]).max() < 1e-15
    assert np.array_equal(w.data[1], [1.0, 0.0])


def test_subset_attention_errors():
    params = _slot_params(2, 2)
    with pytest.raises(UsageError):
        subset_attention([], params, 2, _present(0))
    with pytest.raises(UsageError):
        subset_attention(_slots([1.0, 0.0]) * 3, params, 2, _present(3))
    with pytest.raises(UsageError):
        subset_attention(_slots([1.0, 0.0]), params, 2, present=np.array([[False]]))


# ---------------------------------------------------------------------------
# superset branch

def test_propagate_identity_on_single_node():
    h0 = Tensor(np.array([[0.5, 1.5, 0.0]]))
    out = superset_propagate(h0, np.ones((1, 1)), [Tensor(np.eye(3))] * 2)
    assert np.array_equal(out.data, h0.data)


def test_propagate_identity_weights_equal_matrix_power():
    rng = np.random.default_rng(3)
    g = build_co_membership(Rows.from_lists([[0, 1], [1, 2], [2], [0, 3]]))
    h0 = np.abs(rng.normal(size=(4, 3)))
    out = superset_propagate(Tensor(h0), g.normalized, [Tensor(np.eye(3))] * 3)
    n = g.normalized.toarray()
    oracle = np.linalg.matrix_power(n, 3) @ h0
    assert np.abs(out.data - oracle).max() < 1e-12


def test_propagate_zero_weights_zero_output():
    g = build_co_membership(Rows.from_lists([[0], [1]]))
    out = superset_propagate(Tensor(np.ones((2, 3))), g.normalized,
                             [Tensor(np.zeros((3, 3)))])
    assert np.array_equal(out.data, np.zeros((2, 3)))


def _superset_params(d, layers, n_groups, rng=None, identity=False):
    params = {}
    if identity:
        params["group_emb"] = Tensor(np.abs(np.arange(n_groups * d, dtype=float)
                                            .reshape(n_groups, d)) / (n_groups * d))
        for k in range(1, layers + 1):
            params[f"gcn_global_w_{k}"] = Tensor(np.eye(d))
            params[f"gcn_batch_w_{k}"] = Tensor(np.eye(d))
        params["suppe_proj_w"] = Tensor(np.vstack([np.eye(d), np.zeros((d, d))]))
        params["suppe_proj_b"] = Tensor(np.zeros(d))
    else:
        params["group_emb"] = Tensor(rng.uniform(-0.5, 0.5, (n_groups, d)))
        for k in range(1, layers + 1):
            params[f"gcn_global_w_{k}"] = Tensor(rng.uniform(-0.5, 0.5, (d, d)))
            params[f"gcn_batch_w_{k}"] = Tensor(rng.uniform(-0.5, 0.5, (d, d)))
        params["suppe_proj_w"] = Tensor(rng.uniform(-0.5, 0.5, (2 * d, d)))
        params["suppe_proj_b"] = Tensor(rng.uniform(-0.5, 0.5, d))
    return params


def _h_sup(params, cfg, graph, groups, h0, coupled=True):
    """The (n, 2d) [global | batch] superset features of instances of
    `groups`, read through the [I | 0] and [0 | I] projections."""
    d = h0.data.shape[1]
    rows = ad.take(compute_global_rows(params, cfg, graph), groups)
    norm_inst = expand_to_instances(graph, groups) if coupled else None
    halves = []
    for proj in (np.eye(2 * d, d), np.eye(2 * d, d, k=-d)):
        p = dict(params, suppe_proj_w=Tensor(proj), suppe_proj_b=Tensor(np.zeros(d)))
        halves.append(superset_embeddings(p, cfg, rows, h0, norm_inst).data)
    return np.concatenate(halves, axis=1)


def _projected(params, cfg, graph, groups, h0):
    """The superset branch's (n, d) output for coupled instances of `groups`."""
    rows = ad.take(compute_global_rows(params, cfg, graph), groups)
    return superset_embeddings(params, cfg, rows, h0, expand_to_instances(graph, groups))


def test_superset_isolated_group_concatenates_initial_states():
    d, layers = 3, 2
    graph = build_co_membership(Rows.from_lists([[0], [1]]))  # isolated nodes
    params = _superset_params(d, layers, 2, identity=True)
    cfg = Config(embedding_dim=4, num_subsets=1, gcn_layers=layers)
    h0 = Tensor(np.array([[0.2, 0.0, 0.7]]))
    h_sup = _h_sup(params, cfg, graph, [0], h0)
    projected = _projected(params, cfg, graph, [0], h0)
    assert np.abs(h_sup[0] - np.concatenate([params["group_emb"].data[0],
                                                  h0.data[0]])).max() < 1e-15
    # projection [I | 0] selects the global half
    assert np.abs(projected.data[0] - params["group_emb"].data[0]).max() < 1e-15


def test_superset_path_graph_matches_dense_oracle():
    d, layers = 4, 2
    groups = [[0], [0, 1], [1]]  # path
    graph = build_co_membership(Rows.from_lists(groups))
    rng = np.random.default_rng(5)
    params = _superset_params(d, layers, 3, rng=rng)
    cfg = Config(embedding_dim=4, num_subsets=1, gcn_layers=layers)
    h0_rows = [rng.uniform(-0.5, 0.5, d) for _ in range(3)]
    h_sup = _h_sup(params, cfg, graph, [0, 1, 2], Tensor(np.stack(h0_rows)))
    projected = _projected(params, cfg, graph, [0, 1, 2], Tensor(np.stack(h0_rows)))

    # dense straight-line re-computation
    adj = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    deg = adj.sum(axis=1)
    norm = np.diag(1 / np.sqrt(deg)) @ adj @ np.diag(1 / np.sqrt(deg))
    hg = params["group_emb"].data
    hb = np.stack(h0_rows)
    for k in range(1, layers + 1):
        hg = np.maximum(norm @ hg @ params[f"gcn_global_w_{k}"].data, 0)
        hb = np.maximum(norm @ hb @ params[f"gcn_batch_w_{k}"].data, 0)
    for i in range(3):
        expect = np.concatenate([hg[i], hb[i]])
        assert np.abs(h_sup[i] - expect).max() < 1e-10
        proj = expect @ params["suppe_proj_w"].data + params["suppe_proj_b"].data
        assert np.abs(projected.data[i] - proj).max() < 1e-10


def test_superset_isolated_instances_ignore_each_other():
    """Without an instance graph each instance's batch stream is its own
    seed propagated through a unit self-loop, even for adjacent groups."""
    d, layers = 4, 2
    graph = build_co_membership(Rows.from_lists([[0], [0, 1], [1]]))
    rng = np.random.default_rng(8)
    params = _superset_params(d, layers, 3, rng=rng)
    cfg = Config(embedding_dim=4, num_subsets=1, gcn_layers=layers)
    h0 = rng.uniform(-0.5, 0.5, (3, d))
    h_sup = _h_sup(params, cfg, graph, [0, 1, 1], Tensor(h0), coupled=False)
    for i in range(3):
        alone = _h_sup(params, cfg, graph, [[0, 1, 1][i]], Tensor(h0[i:i + 1]))
        assert np.abs(h_sup[i] - alone[0]).max() < 1e-15


# ---------------------------------------------------------------------------
# fusion and prediction

def _rows(*vecs):
    """One instance's branch vectors as (1, d) fusion rows."""
    return [Tensor(np.asarray(v, dtype=float)[None]) for v in vecs]


def test_fuse_identical_rows_pass_through():
    x = np.array([0.3, -1.0, 0.5, 2.0])
    h, attn = fuse(_rows(x, x, x), 4)
    assert attn.data.shape == (1, 3, 3)
    assert np.allclose(attn.data, 1 / 3, atol=1e-15)
    assert np.abs(h.data[0] - x).max() < 1e-12


def test_fuse_zero_rows_uniform_attention():
    h, attn = fuse(_rows(*[np.zeros(4)] * 3), 4)
    assert np.allclose(attn.data, 1 / 3, atol=1e-15)
    assert np.array_equal(h.data, np.zeros((1, 4)))


def test_fuse_single_row_identity():
    x = np.array([1.0, -2.0])
    h, attn = fuse(_rows(x), 2)
    assert np.array_equal(attn.data[0], [[1.0]])
    assert np.array_equal(h.data, [x])


def test_fuse_hand_derived_scaled_unit_rows():
    # rows 2*e1, 2*e2, 2*e3 in d=4: H H^T / sqrt(4) = 2I
    h, attn = fuse(_rows(*(2.0 * np.eye(4)[:3])), 4)
    diag = E ** 2 / (E ** 2 + 2.0)
    off = 1.0 / (E ** 2 + 2.0)
    expect_attn = np.full((3, 3), off)
    np.fill_diagonal(expect_attn, diag)
    assert np.abs(attn.data[0] - expect_attn).max() < 1e-10
    expect_h = np.array([2 / 3, 2 / 3, 2 / 3, 0.0])
    assert np.abs(h.data[0] - expect_h).max() < 1e-10


def test_fuse_instances_are_independent():
    """Each instance's (r, r) attention uses only its own rows."""
    rng = np.random.default_rng(9)
    rows = [rng.normal(size=(3, 4)) for _ in range(2)]
    h, attn = fuse([Tensor(r) for r in rows], 4)
    for i in range(3):
        hi, ai = fuse(_rows(rows[0][i], rows[1][i]), 4)
        assert np.abs(h.data[i] - hi.data[0]).max() < 1e-15
        assert np.abs(attn.data[i] - ai.data[0]).max() < 1e-15


def test_fuse_dimension_mismatch():
    with pytest.raises(UsageError):
        fuse(_rows(np.zeros(3)), 4)
    with pytest.raises(UsageError):
        fuse([], 4)
    with pytest.raises(UsageError):
        fuse([Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4)))], 4)


def test_predict_zero_weights():
    out = ad.sigmoid(predict_logit(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]),
                                   Tensor(np.zeros(6)), Tensor(0.7)))
    assert out.data.shape == (1,)
    assert float(out.data[0]) == pytest.approx(1 / (1 + np.exp(-0.7)), abs=1e-15)


def test_predict_orthogonal_inputs_give_half():
    w = Tensor(np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    out = ad.sigmoid(predict_logit(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]),
                                   w, Tensor(0.0)))
    assert float(out.data[0]) == pytest.approx(0.5, abs=1e-15)


def test_predict_log3_forced():
    w = Tensor(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    out = ad.sigmoid(predict_logit(Tensor([[np.log(3.0), 0.0]]),
                                   Tensor([[0.4, -0.2]]), w, Tensor(0.0)))
    assert float(out.data[0]) == pytest.approx(0.75, abs=1e-12)


def test_predict_dimension_mismatch():
    with pytest.raises(UsageError):
        predict_logit(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0, 3.0]]),
                      Tensor(np.zeros(6)), Tensor(0.0))
    with pytest.raises(UsageError):
        predict_logit(Tensor([1.0, 2.0]), Tensor([1.0, 2.0]),
                      Tensor(np.zeros(6)), Tensor(0.0))


def test_ablation_mask_needs_a_branch():
    """A mask with every branch off is refused when it is built, however
    it is built; a mask is immutable, so no later change empties one."""
    with pytest.raises(UsageError, match="all three granularities are ablated; "
                                         "nothing to fuse"):
        AblationMask(False, False, False)
    with pytest.raises(UsageError, match="nothing to fuse"):
        AblationMask.from_disabled(["subpe", "gpe", "suppe"])
    mask = AblationMask(use_gpe=False)
    with pytest.raises(AttributeError):
        mask.use_subpe = False
    assert mask == AblationMask.from_disabled(["gpe"]) and mask.label() == "mgam-wo-gpe"


# ---------------------------------------------------------------------------
# forward_batch

def test_forward_all_ablated_rejected(toy):
    with pytest.raises(UsageError):
        forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                      toy["assignments"], toy["graph"], [(0, 1)],
                      masks=[AblationMask(False, False, False)])


def test_forward_empty_batch_rejected(toy):
    """A batch is a non-empty (n, 2) array of (group, item) rows."""
    for batch in ([], np.array([0, 1]), np.array([[0, 1, 1], [1, 2, 0]])):
        with pytest.raises(UsageError, match=r"\(n, 2\) array"):
            forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                          toy["assignments"], toy["graph"], batch)


def test_forward_gpe_only_equals_direct_group_attention(toy):
    ds, params = toy["dataset"], toy["params"]
    g, v = 1, 4
    [res] = forward_batch(params, toy["cfg"], ds, toy["assignments"],
                          toy["graph"], [(g, v)],
                          masks=[AblationMask(use_subpe=False, use_suppe=False)])
    e_v = params["item_emb"].data[v]
    u = params["user_emb"].data[ds.groups[g]]
    scores = np.maximum(float(params["group_att_w"].data) * (u @ e_v)
                        + float(params["group_att_b"].data), 0)
    w = np.exp(scores - scores.max())
    w /= w.sum()
    h = w @ u
    feats = np.concatenate([h, h * e_v, e_v])
    z = params["predict_w"].data @ feats + float(params["predict_b"].data)
    assert float(res.scores.data[0]) == pytest.approx(1 / (1 + np.exp(-z)), abs=1e-12)


def test_forward_matches_reference_oracle(toy):
    raw = {k: v.data for k, v in toy["params"].items()}
    for flags in ((True, True, True), (False, True, True), (True, False, True),
                  (True, True, False), (False, False, True)):
        [res] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                              toy["assignments"], toy["graph"], toy["batch"],
                              masks=[AblationMask(*flags)])
        ref = reference_forward(raw, toy["dataset"],
                                [a.subsets for a in toy["assignments"]],
                                toy["batch"], 8, 2, 2, *flags)
        assert np.abs(res.scores.data - ref).max() < 1e-10, flags


def test_forward_isolated_candidates_score_alone(toy):
    """One scoring call over a group's candidates equals scoring each
    candidate in its own call and the oracle's one-instance forward."""
    raw = {k: v.data for k, v in toy["params"].items()}
    subsets = [a.subsets for a in toy["assignments"]]
    for g in (0, 1):
        batch = [(g, v) for v in range(toy["dataset"].n_items)]
        [together] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                                   toy["assignments"], toy["graph"], batch,
                                   global_rows=compute_global_rows(
                                       toy["params"], toy["cfg"], toy["graph"]))
        together = together.scores.data
        for i, pair in enumerate(batch):
            [alone] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                                    toy["assignments"], toy["graph"], [pair])
            ref = reference_forward(raw, toy["dataset"], subsets, [pair], 8, 2, 2)
            assert abs(together[i] - alone.scores.data[0]) < 1e-12
            assert abs(together[i] - ref[0]) < 1e-12


def test_forward_tape_size_does_not_grow_with_batch(toy):
    def tape_length(instances):
        [res] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                              toy["assignments"], toy["graph"],
                              [(g, v) for g, v, _ in instances])
        labels = [y for _, _, y in instances]
        triplets = _build_triplets(instances)
        trip = triplet_loss(*(ad.take(res.scores, [t[k] for t in triplets])
                              for k in range(3)), 1.0)
        return len(ad.trace(total_loss(trip, point_loss_from_logits(res.logits, labels), 0.5)))

    small = toy["instances"][:3]
    assert _build_triplets(small)
    assert tape_length(small) == tape_length(toy["instances"] * 8)


def _check_attention_arrays(res, ds, assignments, batch):
    subsets = [assignments[g].subsets for g, _ in batch]
    assert res.branches == ["subpe", "gpe", "suppe"]
    assert res.fusion_weights.shape == (len(batch), 3, 3)
    assert np.abs(res.fusion_weights.sum(axis=-1) - 1).max() < 1e-9
    # one member-weight row per (instance, subset), in instance order
    rows = [subset for per_instance in subsets for subset in per_instance]
    assert res.member_weights.shape[0] == len(rows)
    for w, subset in zip(res.member_weights, rows):
        assert w.min() >= 0 and abs(w.sum() - 1) < 1e-9
        assert np.all(w[len(subset):] == 0)
    assert res.subset_weights.shape[0] == len(batch)
    for w, per_instance in zip(res.subset_weights, subsets):
        assert w.min() >= 0 and abs(w.sum() - 1) < 1e-9
        assert np.all(w[len(per_instance):] == 0)
    assert res.group_weights.shape[0] == len(batch)
    for w, (g, _) in zip(res.group_weights, batch):
        assert w.min() >= 0 and abs(w.sum() - 1) < 1e-9
        assert np.all(w[len(ds.groups[g]):] == 0)


def test_forward_attention_weights_are_probability_vectors(toy):
    [res] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                          toy["assignments"], toy["graph"], toy["batch"])
    _check_attention_arrays(res, toy["dataset"], toy["assignments"], toy["batch"])
    # uneven groups and subset counts, so every weight array has padding
    ds = toy["dataset"]
    uneven = Dataset(
        n_users=ds.n_users, n_items=ds.n_items, n_groups=ds.n_groups,
        user_items=ds.user_items, groups=Rows.from_lists([[0, 1, 2], [3, 4, 5, 6]]),
        group_pos=ds.group_pos, user_ids=ds.user_ids, item_ids=ds.item_ids,
        group_ids=ds.group_ids)
    assignments = subset_table([[[0, 1, 2]],
                                          [[3, 4, 5], [6]]])
    [res] = forward_batch(toy["params"], toy["cfg"], uneven, assignments,
                          build_co_membership(uneven.groups), toy["batch"])
    # 4 instances of group 0 (1 subset each), 3 of group 1 (2 subsets each)
    assert res.member_weights.shape == (4 * 1 + 3 * 2, 3)
    assert res.subset_weights.shape == (len(toy["batch"]), 2)
    assert res.group_weights.shape == (len(toy["batch"]), 4)
    _check_attention_arrays(res, uneven, assignments, toy["batch"])


def test_forward_attention_arrays_follow_the_mask(toy):
    [res] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                          toy["assignments"], toy["graph"], toy["batch"],
                          masks=[AblationMask(use_subpe=False, use_gpe=False)])
    # the group branch still runs: it reseeds the batch stream
    assert res.branches == ["suppe"]
    assert res.member_weights is None and res.subset_weights is None
    assert res.group_weights is not None
    assert res.fusion_weights.shape == (len(toy["batch"]), 1, 1)
    [res] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                          toy["assignments"], toy["graph"], toy["batch"],
                          masks=[AblationMask(use_gpe=False)])
    assert res.branches == ["subpe", "suppe"]
    assert res.group_weights is None


def test_forward_member_permutation_invariance(toy):
    ds = toy["dataset"]
    permuted = Dataset(
        n_users=ds.n_users, n_items=ds.n_items, n_groups=ds.n_groups,
        user_items=ds.user_items,
        groups=Rows.from_lists([[3, 0, 2, 1], [6, 4, 3, 5]]),  # same members, shuffled
        group_pos=ds.group_pos, user_ids=ds.user_ids, item_ids=ds.item_ids,
        group_ids=ds.group_ids)
    shuffled_assignments = subset_table([
        [[1, 0], [3, 2]],
        [[5, 3, 4], [6]],
    ])
    [a] = forward_batch(toy["params"], toy["cfg"], ds, toy["assignments"],
                        toy["graph"], toy["batch"])
    [b] = forward_batch(toy["params"], toy["cfg"], permuted,
                        shuffled_assignments, toy["graph"], toy["batch"])
    assert np.abs(a.scores.data - b.scores.data).max() < 1e-12


def test_forward_slot_order_sensitivity(toy):
    """Per-slot parameters make subset order significant, which is why the
    clustering module pins a deterministic ordering."""
    swapped = subset_table([
        [[2, 3], [0, 1]],
        [[6], [3, 4, 5]],
    ])
    [a] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                        toy["assignments"], toy["graph"], toy["batch"])
    [b] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                        swapped, toy["graph"], toy["batch"])
    assert np.abs(a.scores.data - b.scores.data).max() > 1e-6


def test_forward_deterministic_bitwise(toy):
    [a] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                        toy["assignments"], toy["graph"], toy["batch"])
    [b] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                        toy["assignments"], toy["graph"], toy["batch"])
    assert np.array_equal(a.scores.data, b.scores.data)


def test_ablation_gradient_consistency(toy):
    """GPE-only forward leaves every subset/superset parameter untouched."""
    params = fresh_toy_params(toy)
    [res] = forward_batch(params, toy["cfg"], toy["dataset"], toy["assignments"],
                          toy["graph"], toy["batch"],
                          masks=[AblationMask(use_subpe=False, use_suppe=False)])
    labels = toy["labels"]
    loss = total_loss(None, point_loss_from_logits(res.logits, labels), 0.5)
    grads = ad.grad_map(loss, params)
    for name, g in grads.items():
        if name.startswith(("subpe_", "gcn_", "suppe_", "user_att")) or name == "group_emb":
            assert np.array_equal(g, np.zeros_like(g)), name
    assert np.abs(grads["group_att_w"]).max() >= 0  # present
    assert np.abs(grads["predict_w"]).max() > 0


def test_model_gradients_match_finite_differences_sampled(toy):
    """Spot-check analytic gradients of the full loss for a few tensors."""
    params = fresh_toy_params(toy)
    instances = toy["instances"]
    triplets = _build_triplets(instances)

    def loss_tensor():
        [res] = forward_batch(params, toy["cfg"], toy["dataset"],
                              toy["assignments"], toy["graph"], toy["batch"])
        pt = point_loss_from_logits(res.logits, toy["labels"])
        ya = ad.take(res.scores, [a for a, _, _ in triplets])
        yp = ad.take(res.scores, [s for _, s, _ in triplets])
        yn = ad.take(res.scores, [d for _, _, d in triplets])
        return total_loss(triplet_loss(ya, yp, yn, 1.0), pt, 0.5)

    for p in params.values():
        p.grad = None
    grads = ad.grad_map(loss_tensor(), params)
    for name in ("user_att_w", "subpe_self_w_1", "gcn_batch_w_2",
                 "suppe_proj_w", "predict_w", "group_emb"):
        def f(arr):
            return float(loss_tensor().data)
        fd = finite_difference_grad(f, params[name].data, 1e-5)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
        assert (np.abs(fd - grads[name]) / denom).max() < 1e-4, name


def test_init_params_shapes_and_determinism():
    cfg = Config(embedding_dim=4, num_subsets=3, gcn_layers=2)
    a = init_params(cfg, 5, 6, 3, np.random.default_rng(0))
    b = init_params(cfg, 5, 6, 3, np.random.default_rng(0))
    assert list(a) == list(b)
    for k in a:
        assert np.array_equal(a[k].data, b[k].data)
    assert a["user_emb"].data.shape == (5, 4)
    assert a["subpe_other_w_2"].data.shape == (8, 4)
    assert a["suppe_proj_w"].data.shape == (8, 4)
    assert a["predict_w"].data.shape == (12,)
    assert a["subpe_bias_1"].data.shape == (4,)
    assert np.array_equal(a["subpe_bias_1"].data, np.zeros(4))


def test_model_config_validation():
    with pytest.raises(UsageError):
        Config(embedding_dim=3).validate()
    with pytest.raises(UsageError):
        Config(num_subsets=0).validate()
    with pytest.raises(UsageError):
        Config(gcn_layers=0).validate()
    with pytest.raises(UsageError, match="epochs"):
        Config(epochs=0).validate()
    # init_params validates too, before drawing any weight
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="embedding_dim"):
        init_params(Config(embedding_dim=3), 2, 2, 1, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_single_subset_config_has_no_cross_weights():
    cfg = Config(embedding_dim=4, num_subsets=1, gcn_layers=1)
    params = init_params(cfg, 3, 3, 2, np.random.default_rng(0))
    assert "subpe_other_w_1" not in params
    assert "subpe_self_w_1" in params


# ---------------------------------------------------------------------------
# group-major member attention on ragged batches

_MASKS = [(True, True, True), (False, True, True), (True, False, True),
          (True, True, False), (False, False, True)]


@pytest.fixture(scope="module")
def ragged():
    """Five overlapping groups of 2-6 members, M=3 subset slots but groups
    with 1, 2 or 3 subsets, and batches that repeat groups unevenly."""
    groups = [[0, 1, 2, 3, 4, 5], [5, 6], [6, 7, 8, 9], [1, 9, 10], [11, 12, 13]]
    ds = Dataset(
        n_users=14, n_items=12, n_groups=5,
        user_items=Rows.from_lists([[] for _ in range(14)]), groups=Rows.from_lists(groups),
        group_pos=Rows.from_lists([[] for _ in groups]), user_ids=[str(i) for i in range(14)],
        item_ids=[str(i) for i in range(12)], group_ids=[str(g) for g in range(5)])
    assignments = subset_table([
        [[0, 2, 4], [1, 5], [3]],
        [[5, 6]],
        [[6, 7, 9], [8]],
        [[1, 9], [10]],
        [[11], [12], [13]],
    ])
    cfg = Config(embedding_dim=8, num_subsets=3, gcn_layers=2)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(77))
    batches = {
        "unsorted": [(3, 1), (0, 2), (3, 5), (1, 4), (3, 0), (0, 7), (4, 3),
                     (2, 2), (3, 9), (1, 11), (4, 8)],
        "one-group": [(2, v) for v in (5, 1, 9, 3)],
        "one-instance": [(1, 6)],
    }
    return ds, assignments, build_co_membership(ds.groups), cfg, params, batches


@pytest.mark.parametrize("which", ["unsorted", "one-group", "one-instance"])
@pytest.mark.parametrize("flags", _MASKS, ids=lambda f: AblationMask(*f).label())
def test_forward_ragged_batches_match_reference_oracle(ragged, which, flags):
    ds, assignments, graph, cfg, params, batches = ragged
    batch = batches[which]
    raw = {k: v.data for k, v in params.items()}
    subsets = [a.subsets for a in assignments]
    [coupled] = forward_batch(params, cfg, ds, assignments, graph, batch,
                              masks=[AblationMask(*flags)])
    ref = reference_forward(raw, ds, subsets, batch, 8, 3, 2, *flags)
    assert np.abs(coupled.scores.data - ref).max() < 1e-10
    [isolated] = forward_batch(params, cfg, ds, assignments, graph, batch,
                               masks=[AblationMask(*flags)],
                               global_rows=compute_global_rows(params, cfg, graph))
    alone = [reference_forward(raw, ds, subsets, [pair], 8, 3, 2, *flags)[0]
             for pair in batch]
    assert np.abs(isolated.scores.data - alone).max() < 1e-10
    # every weight array keeps its padding at exactly 0
    if coupled.member_weights is not None:
        rows = [s for g, _ in batch for s in assignments[g].subsets]
        assert coupled.member_weights.shape == (len(rows), max(map(len, rows)))
        for w, subset in zip(coupled.member_weights, rows):
            assert np.all(w[len(subset):] == 0) and abs(w.sum() - 1) < 1e-12
        for w, (g, _) in zip(coupled.subset_weights, batch):
            assert np.all(w[len(assignments[g].subsets):] == 0)
    if coupled.group_weights is not None:
        for w, (g, _) in zip(coupled.group_weights, batch):
            assert np.all(w[len(ds.groups[g]):] == 0) and abs(w.sum() - 1) < 1e-12


# the four `ablate` masks, then the three one-branch masks
_ALL_MASKS = [AblationMask(), AblationMask(use_subpe=False), AblationMask(use_gpe=False),
              AblationMask(use_suppe=False), AblationMask(True, False, False),
              AblationMask(False, True, False), AblationMask(False, False, True)]


@pytest.mark.parametrize("scoring", [True, False], ids=["isolated", "coupled"])
def test_multi_mask_forward_equals_one_mask_forwards_bitwise(ragged, monkeypatch, scoring):
    """One forward under many masks gives, field for field, each mask's own
    forward, and runs each branch once: member attention over the subsets
    and over the group, and the superset branch once per seed."""
    ds, assignments, graph, cfg, params, batches = ragged
    # a chunk's ragged tail: the end of one candidate list, a whole list,
    # the start of another
    tail = [(g, v) for g, n in ((3, 2), (0, 12), (4, 5), (1, 1)) for v in range(12 - n, 12)]
    global_rows = compute_global_rows(params, cfg, graph) if scoring else None
    calls = []

    def counted(name):
        real = getattr(mgam.model, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return spy

    for name in ("member_attention", "superset_embeddings"):
        monkeypatch.setattr(mgam.model, name, counted(name))
    for batch in (tail, batches["unsorted"], batches["one-instance"]):
        for masks in (_ALL_MASKS, _ALL_MASKS[:4], _ALL_MASKS[4:], _ALL_MASKS[3:5]):
            calls.clear()
            together = forward_batch(params, cfg, ds, assignments, graph, batch,
                                     masks=masks, global_rows=global_rows)
            seeds = {m.use_subpe for m in masks if m.use_suppe}
            assert calls.count("member_attention") == (
                any(m.use_subpe for m in masks) + any(m.reads_gpe for m in masks))
            assert calls.count("superset_embeddings") == len(seeds)
            assert len(together) == len(masks)
            for mask, res in zip(masks, together):
                [alone] = forward_batch(params, cfg, ds, assignments, graph, batch,
                                        masks=[mask], global_rows=global_rows)
                assert res.branches == alone.branches
                for field in ("logits", "scores"):
                    assert np.array_equal(getattr(res, field).data,
                                          getattr(alone, field).data), (mask, field)
                for field in ("fusion_weights", "group_weights", "subset_weights",
                              "member_weights"):
                    a, b = getattr(res, field), getattr(alone, field)
                    assert (a is None) == (b is None), (mask, field)
                    assert a is None or np.array_equal(a, b), (mask, field)


def test_coupled_two_seed_forward_propagates_the_global_stream_once(ragged, monkeypatch):
    """A training forward under a subset- and a group-seeded mask builds
    the global stream once and the batch stream once per seed."""
    ds, assignments, graph, cfg, params, batches = ragged
    seeds = []

    def spy(h0, norm_adj, layer_weights):
        seeds.append("global" if h0 is params["group_emb"] else "batch")
        return superset_propagate(h0, norm_adj, layer_weights)

    monkeypatch.setattr(mgam.model, "superset_propagate", spy)
    forward_batch(params, cfg, ds, assignments, graph, batches["unsorted"],
                  masks=[AblationMask(), AblationMask(use_subpe=False)])
    assert sorted(seeds) == ["batch", "batch", "global"]


def test_forward_needs_a_mask(ragged):
    ds, assignments, graph, cfg, params, batches = ragged
    with pytest.raises(UsageError, match="at least one ablation mask"):
        forward_batch(params, cfg, ds, assignments, graph, batches["unsorted"], masks=[])
    with pytest.raises(UsageError, match="nothing to fuse"):
        forward_batch(params, cfg, ds, assignments, graph, batches["unsorted"],
                      masks=[AblationMask(), AblationMask(False, False, False)])


def test_forward_padded_grid_cells_get_zero_gradient(ragged, monkeypatch):
    """Padding cells of the item grid and padded member entries (including
    the stand-in of a missing subset slot) get exactly zero gradient."""
    ds, assignments, graph, cfg, params, batches = ragged
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(77))
    batch = batches["unsorted"]
    calls = []
    real = member_attention

    def spy(member_vecs, item_vecs, weight, bias, valid):
        calls.append((member_vecs, item_vecs, valid))
        return real(member_vecs, item_vecs, weight, bias, valid)

    monkeypatch.setattr("mgam.model.member_attention", spy)
    [res] = forward_batch(params, cfg, ds, assignments, graph, batch)
    ad.backward(ad.tensor_sum(res.logits))
    (sub_members, sub_items, sub_valid), (grp_members, grp_items, grp_valid) = calls
    # 11 instances of 5 groups fill rows of c = ceil(11 / 5) = 3 cells;
    # group 3's four instances span two rows: 7 padding cells in all
    row_groups, real_cells = [0, 1, 2, 3, 3, 4], [2, 2, 1, 3, 1, 2]
    assert sub_items.data.shape == (6, 1, 3, 8)
    assert grp_items.data.shape == (6, 3, 8)
    assert np.abs(grp_items.grad).max() > 0 and np.abs(sub_items.grad).max() > 0
    for j, (g, n) in enumerate(zip(row_groups, real_cells)):
        members = ds.groups[g]
        assert np.array_equal(grp_members.data[j, :len(members)],
                              params["user_emb"].data[members])
        assert np.array_equal(sub_items.grad[j, 0, n:], np.zeros((3 - n, 8)))
        assert np.array_equal(grp_items.grad[j, n:], np.zeros((3 - n, 8)))
        n_sub = len(assignments[g].subsets)
        assert np.array_equal(sub_members.grad[j, n_sub:],
                              np.zeros_like(sub_members.grad[j, n_sub:]))
    assert np.array_equal(sub_members.grad[~sub_valid], np.zeros(((~sub_valid).sum(), 8)))
    assert np.array_equal(grp_members.grad[~grp_valid], np.zeros(((~grp_valid).sum(), 8)))


def _concat_slot_rows(table, index, present):
    """Missing slots read an appended zero row: the copy `_slot_rows` avoids."""
    flat = ad.concat([table, Tensor(np.zeros((1, table.data.shape[1])))])
    row_of = np.where(present, index, len(table.data))
    return [ad.take(flat, row_of[:, s]) for s in range(index.shape[1])]


def test_slot_rows_match_the_concat_form_bitwise(ragged, monkeypatch):
    """Masking missing slots to zero gives the appended-zero-row gather's
    values and gradients exactly, alone and through a whole forward and
    backward (groups with 1, 2 and 3 of 3 subsets)."""
    from mgam.model import _slot_rows

    rng = np.random.default_rng(5)
    index = rng.integers(0, 7, size=(9, 3))
    present = rng.random((9, 3)) < 0.6
    values, weights = rng.normal(size=(7, 4)), Tensor(rng.normal(size=(9, 3, 4)))
    outs = []
    for gather in (_slot_rows, _concat_slot_rows):
        table = Tensor(values.copy(), requires_grad=True)
        slots = gather(table, index, present)
        ad.backward(ad.tensor_sum(ad.mul(ad.stack(slots, axis=1), weights)))
        outs.append(([x.data for x in slots], table.grad))
    (new_slots, new_grad), (old_slots, old_grad) = outs
    assert all(np.array_equal(a, b) for a, b in zip(new_slots, old_slots))
    assert np.array_equal(new_grad, old_grad)

    ds, assignments, graph, cfg, _, batches = ragged
    runs = []
    for gather in (_slot_rows, _concat_slot_rows):
        monkeypatch.setattr("mgam.model._slot_rows", gather)
        params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                             np.random.default_rng(77))
        [res] = forward_batch(params, cfg, ds, assignments, graph, batches["unsorted"])
        ad.backward(ad.tensor_sum(res.logits))
        runs.append((res.scores.data, res.subset_weights,
                     {k: v.grad for k, v in params.items()}))
    (scores, slot_w, grads), (old_scores, old_slot_w, old_grads) = runs
    assert np.array_equal(scores, old_scores) and np.array_equal(slot_w, old_slot_w)
    assert grads.keys() == old_grads.keys()
    for name in grads:
        assert (grads[name] is None) == (old_grads[name] is None), name
        if grads[name] is not None:
            assert np.array_equal(grads[name], old_grads[name]), name


def test_one_group_scoring_memory_grows_with_candidates_times_d():
    """Scoring C candidates of one group holds O(C * d) floats, not a
    per-candidate copy of the member tables, O(C * (subsets * w + w) * d)."""
    import tracemalloc

    n_cand, d, n_members, m = 500, 32, 64, 4
    ds = Dataset(
        n_users=n_members, n_items=n_cand, n_groups=1,
        user_items=Rows.from_lists([[] for _ in range(n_members)]),
        groups=Rows.from_lists([list(range(n_members))]),
        group_pos=Rows.from_lists([[]]), user_ids=[str(u) for u in range(n_members)],
        item_ids=[str(v) for v in range(n_cand)], group_ids=["0"])
    assignments = subset_table([[
        list(range(k, n_members, m)) for k in range(m)]])
    cfg = Config(embedding_dim=d, num_subsets=m, gcn_layers=2)
    params = init_params(cfg, ds.n_users, ds.n_items, 1, np.random.default_rng(0))
    graph = build_co_membership(ds.groups)
    batch = [(0, v) for v in range(n_cand)]
    # the scorer's forward: constant parameters, so no tape holds the
    # forward's intermediates
    forward = make_mgam_scorer(params, cfg, ds, assignments, graph).forward
    forward(batch)
    tracemalloc.start()
    try:
        forward(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a per-candidate gather of the 64 + 4 * 16 member slots alone is 128 C d
    assert peak < 30 * n_cand * d * 8, peak / (n_cand * d * 8)
