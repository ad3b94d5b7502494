import numpy as np
import pytest
from scipy.optimize import linprog

from mgam import autodiff as ad
from mgam.autodiff import Tensor
from mgam.clustering import SubsetAssignment
from mgam.config import Config
from mgam.data import Dataset
from mgam.errors import ConfigError, UsageError
from mgam.graph import build_co_membership
from mgam.model import (AblationMask, forward_batch, fuse,
                        init_params, member_attention, predict_logit,
                        subset_attention, superset_embeddings,
                        superset_propagate)
from mgam.training import (point_loss_from_logits, total_loss,
                           triplet_loss, _build_triplets)

from conftest import fresh_toy_params
from reference_forward import reference_forward

E = np.e


# ---------------------------------------------------------------------------
# member attention (used for both subset-level and group-level aggregation)

def _one(rows):
    """A single attention row: (w, d) members -> (1, w, d)."""
    return Tensor(np.asarray(rows, dtype=float)[None])


def test_member_attention_singleton_returns_embedding():
    u = _one([[0.3, -0.7, 1.1]])
    h, w = member_attention(u, Tensor([[1.0, 0.0, 0.0]]), Tensor(2.0), Tensor(0.5))
    assert np.array_equal(h.data, u.data[0])
    assert np.array_equal(w.data, [[1.0]])


def test_member_attention_equal_scores_average():
    u = _one([[1.0, 0.0], [0.0, 1.0]])
    item = Tensor([[1.0, 1.0]])  # equal dot products
    h, w = member_attention(u, item, Tensor(1.0), Tensor(0.0))
    assert np.allclose(w.data, [[0.5, 0.5]], atol=1e-15)
    assert np.allclose(h.data, [[0.5, 0.5]], atol=1e-15)


def test_member_attention_hand_derived():
    # e(u1)=(1,0), e(u2)=(0,1), e(v)=(1,0), w=1, b=0:
    # scores=(relu(1), relu(0))=(1,0) -> weights=(e, 1)/(e+1)
    u = _one([[1.0, 0.0], [0.0, 1.0]])
    h, w = member_attention(u, Tensor([[1.0, 0.0]]), Tensor(1.0), Tensor(0.0))
    w1 = E / (E + 1.0)
    assert np.abs(w.data - [[w1, 1 - w1]]).max() < 1e-12
    assert np.abs(h.data - [[w1, 1 - w1]]).max() < 1e-12


def test_member_attention_empty_rejected():
    with pytest.raises(UsageError):
        member_attention(Tensor(np.zeros((1, 0, 3))), Tensor(np.zeros((1, 3))),
                         Tensor(1.0), Tensor(0.0))
    with pytest.raises(UsageError):
        member_attention(Tensor(np.zeros((0, 2, 3))), Tensor(np.zeros((0, 3))),
                         Tensor(1.0), Tensor(0.0))
    # a row whose members are all padding
    with pytest.raises(UsageError):
        member_attention(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 3))),
                         Tensor(1.0), Tensor(0.0),
                         valid=np.array([[True, False], [False, False]]))


def test_member_attention_convexity():
    """Output lies in the convex hull of the member embeddings (LP check)."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        m, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        u = rng.normal(size=(m, d))
        h, w = member_attention(_one(u), Tensor(rng.normal(size=(1, d))),
                                Tensor(rng.normal()), Tensor(rng.normal()))
        assert w.data.min() >= 0 and abs(w.data.sum() - 1) < 1e-9
        a_eq = np.vstack([u.T, np.ones(m)])
        b_eq = np.concatenate([h.data[0], [1.0]])
        res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, 1)] * m, method="highs")
        assert res.status == 0


def test_member_attention_padding_matches_unpadded_rows():
    """Rows of different widths in one padded call equal separate calls;
    padding gets exactly zero weight and zero gradient."""
    rng = np.random.default_rng(4)
    d = 3
    rows = [rng.normal(size=(k, d)) for k in (1, 4, 2)]
    items = rng.normal(size=(3, d))
    w, b = Tensor(0.8), Tensor(0.1)
    packed = np.zeros((3, 4, d))
    valid = np.zeros((3, 4), dtype=bool)
    for r, x in enumerate(rows):
        packed[r, :len(x)] = x
        valid[r, :len(x)] = True
    members = Tensor(packed, requires_grad=True)
    h, attn = member_attention(members, Tensor(items), w, b, valid)
    assert np.array_equal(attn.data[~valid], np.zeros((~valid).sum()))
    for r, x in enumerate(rows):
        h1, w1 = member_attention(_one(x), Tensor(items[r:r + 1]), w, b)
        assert np.abs(h.data[r] - h1.data[0]).max() < 1e-15
        assert np.abs(attn.data[r, :len(x)] - w1.data[0]).max() < 1e-15
    ad.backward(ad.tensor_sum(h))
    assert np.isfinite(members.grad).all()
    assert np.array_equal(members.grad[~valid], np.zeros(((~valid).sum(), d)))


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
    params["subpe_score_b"] = Tensor(0.0)
    return params


def _slots(*vecs):
    """One instance's slot vectors as (1, d) slot tensors."""
    return [Tensor(np.asarray(v, dtype=float)[None]) for v in vecs]


def test_subset_attention_single_slot_is_identity():
    rng = np.random.default_rng(1)
    params = _slot_params(3, 4, self_w=rng.normal(size=(3, 3)),
                          other_w=rng.normal(size=(9, 3)),
                          score_w=rng.normal(size=3))
    h0 = rng.normal(size=3)
    h, w = subset_attention(_slots(h0), params, 4)
    assert np.array_equal(h.data, [h0])
    assert np.array_equal(w.data, [[1.0]])


def test_subset_attention_zero_score_weight_means_uniform():
    rng = np.random.default_rng(2)
    vecs = [rng.normal(size=3) for _ in range(3)]
    params = _slot_params(3, 3, self_w=rng.normal(size=(3, 3)),
                          other_w=rng.normal(size=(6, 3)))
    h, w = subset_attention(_slots(*vecs), params, 3)
    assert np.allclose(w.data, 1 / 3, atol=1e-15)
    assert np.abs(h.data[0] - np.mean(vecs, axis=0)).max() < 1e-12


def test_subset_attention_hand_derived():
    # identity self weights, zero cross weights, score_w=(1,0):
    # a=(2,0) -> weights=(e^2, 1)/(e^2+1) -> h=(1.7616, 0.2384)
    params = _slot_params(2, 2, score_w=np.array([1.0, 0.0]))
    h, w = subset_attention(_slots([2.0, 0.0], [0.0, 2.0]), params, 2)
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
    ha, wa = subset_attention(_slots(a1, a2), params, 3)
    hb, wb = subset_attention(_slots(b1), params, 3)
    assert np.abs(h.data - np.vstack([ha.data, hb.data])).max() < 1e-15
    assert np.abs(w.data[0] - wa.data[0]).max() < 1e-15
    assert np.array_equal(w.data[1], [1.0, 0.0])


def test_subset_attention_errors():
    params = _slot_params(2, 2)
    with pytest.raises(UsageError):
        subset_attention([], params, 2)
    with pytest.raises(UsageError):
        subset_attention(_slots([1.0, 0.0]) * 3, params, 2)
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
    g = build_co_membership([[0, 1], [1, 2], [2], [0, 3]])
    h0 = np.abs(rng.normal(size=(4, 3)))
    out = superset_propagate(Tensor(h0), g.normalized, [Tensor(np.eye(3))] * 3)
    n = g.normalized.toarray()
    oracle = np.linalg.matrix_power(n, 3) @ h0
    assert np.abs(out.data - oracle).max() < 1e-12


def test_propagate_zero_weights_zero_output():
    g = build_co_membership([[0], [1]])
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


def test_superset_isolated_group_concatenates_initial_states():
    d, layers = 3, 2
    graph = build_co_membership([[0], [1]])  # isolated nodes
    params = _superset_params(d, layers, 2, identity=True)
    cfg = Config(embedding_dim=4, num_subsets=1, gcn_layers=layers)
    h0 = Tensor(np.array([[0.2, 0.0, 0.7]]))
    h_sup, projected = superset_embeddings(params, cfg, [0], h0, graph)
    assert np.abs(h_sup.data[0] - np.concatenate([params["group_emb"].data[0],
                                                  h0.data[0]])).max() < 1e-15
    # projection [I | 0] selects the global half
    assert np.abs(projected.data[0] - params["group_emb"].data[0]).max() < 1e-15


def test_superset_path_graph_matches_dense_oracle():
    d, layers = 4, 2
    groups = [[0], [0, 1], [1]]  # path
    graph = build_co_membership(groups)
    rng = np.random.default_rng(5)
    params = _superset_params(d, layers, 3, rng=rng)
    cfg = Config(embedding_dim=4, num_subsets=1, gcn_layers=layers)
    h0_rows = [rng.uniform(-0.5, 0.5, d) for _ in range(3)]
    h_sup, projected = superset_embeddings(params, cfg, [0, 1, 2],
                                           Tensor(np.stack(h0_rows)), graph)

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
        assert np.abs(h_sup.data[i] - expect).max() < 1e-10
        proj = expect @ params["suppe_proj_w"].data + params["suppe_proj_b"].data
        assert np.abs(projected.data[i] - proj).max() < 1e-10


def test_superset_isolated_instances_ignore_each_other():
    """With isolated=True each instance's batch stream is its own seed
    propagated through a unit self-loop, even for adjacent groups."""
    d, layers = 4, 2
    graph = build_co_membership([[0], [0, 1], [1]])
    rng = np.random.default_rng(8)
    params = _superset_params(d, layers, 3, rng=rng)
    cfg = Config(embedding_dim=4, num_subsets=1, gcn_layers=layers)
    h0 = rng.uniform(-0.5, 0.5, (3, d))
    h_sup, _ = superset_embeddings(params, cfg, [0, 1, 1], Tensor(h0), graph,
                                   isolated=True)
    for i in range(3):
        alone, _ = superset_embeddings(params, cfg, [[0, 1, 1][i]],
                                       Tensor(h0[i:i + 1]), graph)
        assert np.abs(h_sup.data[i] - alone.data[0]).max() < 1e-15


# ---------------------------------------------------------------------------
# fusion and prediction

def _rows(*vecs):
    """One instance's branch vectors as (1, d) fusion rows."""
    return [Tensor(np.asarray(v, dtype=float)[None]) for v in vecs]


def test_fuse_identical_rows_pass_through():
    x = np.array([0.3, -1.0, 0.5, 2.0])
    h, attn = fuse(_rows(x, x, x), 4)
    assert attn.data.shape == (3, 3, 1)
    assert np.allclose(attn.data, 1 / 3, atol=1e-15)
    assert np.abs(h.data[0] - x).max() < 1e-12


def test_fuse_zero_rows_uniform_attention():
    h, attn = fuse(_rows(*[np.zeros(4)] * 3), 4)
    assert np.allclose(attn.data, 1 / 3, atol=1e-15)
    assert np.array_equal(h.data, np.zeros((1, 4)))


def test_fuse_single_row_identity():
    x = np.array([1.0, -2.0])
    h, attn = fuse(_rows(x), 2)
    assert np.array_equal(attn.data[:, :, 0], [[1.0]])
    assert np.array_equal(h.data, [x])


def test_fuse_hand_derived_scaled_unit_rows():
    # rows 2*e1, 2*e2, 2*e3 in d=4: H H^T / sqrt(4) = 2I
    h, attn = fuse(_rows(*(2.0 * np.eye(4)[:3])), 4)
    diag = E ** 2 / (E ** 2 + 2.0)
    off = 1.0 / (E ** 2 + 2.0)
    expect_attn = np.full((3, 3), off)
    np.fill_diagonal(expect_attn, diag)
    assert np.abs(attn.data[:, :, 0] - expect_attn).max() < 1e-10
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
        assert np.abs(attn.data[:, :, i] - ai.data[:, :, 0]).max() < 1e-15


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


# ---------------------------------------------------------------------------
# forward_batch

def test_forward_all_ablated_rejected(toy):
    with pytest.raises(UsageError):
        forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                      toy["assignments"], toy["graph"], [(0, 1)],
                      mask=AblationMask(False, False, False))


def test_forward_empty_batch_rejected(toy):
    with pytest.raises(UsageError):
        forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                      toy["assignments"], toy["graph"], [])


def test_forward_gpe_only_equals_direct_group_attention(toy):
    ds, params = toy["dataset"], toy["params"]
    g, v = 1, 4
    res = forward_batch(params, toy["cfg"], ds, toy["assignments"],
                        toy["graph"], [(g, v)],
                        mask=AblationMask(use_subpe=False, use_suppe=False))
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
        res = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                            toy["assignments"], toy["graph"], toy["batch"],
                            mask=AblationMask(*flags))
        ref = reference_forward(raw, toy["dataset"],
                                [a.subsets for a in toy["assignments"]],
                                toy["batch"], 8, 2, 2, *flags)
        assert np.abs(res.scores.data - ref).max() < 1e-10, flags


def test_forward_isolated_candidates_score_alone(toy):
    """One isolated call over a group's candidates equals scoring each
    candidate in its own call and the oracle's one-instance forward."""
    raw = {k: v.data for k, v in toy["params"].items()}
    subsets = [a.subsets for a in toy["assignments"]]
    for g in (0, 1):
        batch = [(g, v) for v in range(toy["dataset"].n_items)]
        together = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                                 toy["assignments"], toy["graph"], batch,
                                 isolated=True).scores.data
        for i, pair in enumerate(batch):
            alone = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                                  toy["assignments"], toy["graph"], [pair])
            ref = reference_forward(raw, toy["dataset"], subsets, [pair], 8, 2, 2)
            assert abs(together[i] - alone.scores.data[0]) < 1e-12
            assert abs(together[i] - ref[0]) < 1e-12


def test_forward_tape_size_does_not_grow_with_batch(toy):
    def tape_length(instances):
        res = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
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


def test_forward_attention_weights_are_probability_vectors(toy):
    res = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                        toy["assignments"], toy["graph"], toy["batch"],
                        collect_state=True)
    for st in res.states:
        for w in st.subset_member_weights:
            assert w.min() >= 0 and abs(w.sum() - 1) < 1e-9
        assert abs(st.subset_weights.sum() - 1) < 1e-9
        assert st.gpe_member_weights.min() >= 0
        assert abs(st.gpe_member_weights.sum() - 1) < 1e-9
        assert np.abs(st.fusion_attention.sum(axis=1) - 1).max() < 1e-9


def test_forward_member_permutation_invariance(toy):
    ds = toy["dataset"]
    permuted = Dataset(
        n_users=ds.n_users, n_items=ds.n_items, n_groups=ds.n_groups,
        user_items=ds.user_items,
        groups=[[3, 0, 2, 1], [6, 4, 3, 5]],  # same members, shuffled
        group_pos=ds.group_pos, user_ids=ds.user_ids, item_ids=ds.item_ids,
        group_ids=ds.group_ids)
    shuffled_assignments = [
        SubsetAssignment(group=0, subsets=[[1, 0], [3, 2]]),
        SubsetAssignment(group=1, subsets=[[5, 3, 4], [6]]),
    ]
    a = forward_batch(toy["params"], toy["cfg"], ds, toy["assignments"],
                      toy["graph"], toy["batch"])
    b = forward_batch(toy["params"], toy["cfg"], permuted,
                      shuffled_assignments, toy["graph"], toy["batch"])
    assert np.abs(a.scores.data - b.scores.data).max() < 1e-12


def test_forward_slot_order_sensitivity(toy):
    """Per-slot parameters make subset order significant, which is why the
    clustering module pins a deterministic ordering."""
    swapped = [
        SubsetAssignment(group=0, subsets=[[2, 3], [0, 1]]),
        SubsetAssignment(group=1, subsets=[[6], [3, 4, 5]]),
    ]
    a = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                      toy["assignments"], toy["graph"], toy["batch"])
    b = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                      swapped, toy["graph"], toy["batch"])
    assert np.abs(a.scores.data - b.scores.data).max() > 1e-6


def test_forward_deterministic_bitwise(toy):
    a = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                      toy["assignments"], toy["graph"], toy["batch"])
    b = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                      toy["assignments"], toy["graph"], toy["batch"])
    assert np.array_equal(a.scores.data, b.scores.data)


def test_ablation_gradient_consistency(toy):
    """GPE-only forward leaves every subset/superset parameter untouched."""
    params = fresh_toy_params(toy)
    res = forward_batch(params, toy["cfg"], toy["dataset"], toy["assignments"],
                        toy["graph"], toy["batch"],
                        mask=AblationMask(use_subpe=False, use_suppe=False))
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
        res = forward_batch(params, toy["cfg"], toy["dataset"],
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
            with ad.no_grad():
                return float(loss_tensor().data)
        fd = ad.finite_difference_grad(f, params[name].data, 1e-5)
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
