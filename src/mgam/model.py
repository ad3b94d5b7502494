"""Multi-granularity attention forward pass for group-item scoring.

Three granularity branches produce d-vectors for a (group, item) pair:

* subset branch: item-conditioned attention over the members of each
  preference subset, then a slotted attention across subsets (each slot
  has its own weights; missing slots are zero-padded),
* group branch: the same member attention over the whole group,
* superset branch: two graph-convolution streams over the group
  co-membership graph (a global stream seeded with the trainable group-id
  embedding and a batch stream seeded with the batch's subset-branch
  vectors), concatenated and projected back to d dimensions.

A row-wise self-attention over the stacked branch vectors fuses them;
the prediction layer scores the fused vector against the item embedding.
Any branch can be ablated; ablating the subset branch reseeds the batch
stream with the group-branch vector.

`forward_batch` runs every stage once over the whole batch, so the tape
size does not grow with the number of instances: members are gathered
into padded (k, w, d) arrays whose padding is masked out of the softmax
with -inf, subset slots into (n, d) tensors with a zero row (masked out
of the slot softmax) where an instance lacks the slot, and fusion is an
(r, r, n) attention.  The same forward serves training, evaluation,
`recommend` and `--explain`; `isolated=True` decouples the instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .autodiff import Tensor
from .config import _GRANULARITIES, Config
from .data import Dataset
from .errors import UsageError
from .graph import GroupGraph, expand_to_instances, induce_batch_subgraph


@dataclass
class AblationMask:
    use_subpe: bool = True
    use_gpe: bool = True
    use_suppe: bool = True

    @classmethod
    def from_disabled(cls, disabled) -> "AblationMask":
        disabled = set(disabled)
        unknown = disabled - set(_GRANULARITIES)
        if unknown:
            raise UsageError(f"unknown granularity name(s): {sorted(unknown)}")
        if disabled == set(_GRANULARITIES):
            raise UsageError("all three granularities are ablated; nothing to fuse")
        return cls(use_subpe="subpe" not in disabled,
                   use_gpe="gpe" not in disabled,
                   use_suppe="suppe" not in disabled)

    def label(self) -> str:
        off = [n for n, on in (("subpe", self.use_subpe), ("gpe", self.use_gpe),
                               ("suppe", self.use_suppe)) if not on]
        return "mgam" if not off else "mgam-wo-" + "-".join(off)


def init_params(cfg: Config, n_users: int, n_items: int, n_groups: int,
                rng: np.random.Generator) -> dict:
    """Create all trainable tensors in a fixed, checkpoint-stable order.

    Weights are uniform(-s, s) with s = 1/sqrt(embedding_dim); biases
    start at zero.
    """
    cfg.validate()
    d, m, layers = cfg.embedding_dim, cfg.num_subsets, cfg.gcn_layers
    s = 1.0 / np.sqrt(d)

    def weight(shape):
        return Tensor(rng.uniform(-s, s, size=shape), requires_grad=True)

    def bias(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    params: dict = {}
    params["user_emb"] = weight((n_users, d))
    params["item_emb"] = weight((n_items, d))
    params["group_emb"] = weight((n_groups, d))
    params["user_att_w"] = weight(())
    params["user_att_b"] = bias(())
    for i in range(1, m + 1):
        params[f"subpe_self_w_{i}"] = weight((d, d))
        if m > 1:
            params[f"subpe_other_w_{i}"] = weight(((m - 1) * d, d))
        params[f"subpe_bias_{i}"] = bias((d,))
    params["subpe_score_w"] = weight((d,))
    params["subpe_score_b"] = bias(())
    params["group_att_w"] = weight(())
    params["group_att_b"] = bias(())
    for k in range(1, layers + 1):
        params[f"gcn_global_w_{k}"] = weight((d, d))
    for k in range(1, layers + 1):
        params[f"gcn_batch_w_{k}"] = weight((d, d))
    params["suppe_proj_w"] = weight((2 * d, d))
    params["suppe_proj_b"] = bias((d,))
    params["predict_w"] = weight((3 * d,))
    params["predict_b"] = bias(())
    return params


# ---------------------------------------------------------------------------
# branch operations (each runs once over the whole batch)

def _pad_mask(valid: np.ndarray) -> Tensor:
    """Additive softmax mask: 0 on real entries, -inf on padding."""
    return Tensor(np.where(valid, 0.0, -np.inf))


def _padded(lists) -> tuple:
    """Index lists as rows padded to the longest one, plus a real-entry mask."""
    width = max(map(len, lists), default=0)
    idx = np.zeros((len(lists), width), dtype=np.intp)
    valid = np.zeros((len(lists), width), dtype=bool)
    for r, entries in enumerate(lists):
        idx[r, :len(entries)] = entries
        valid[r, :len(entries)] = True
    return idx, valid


def member_attention(member_vecs: Tensor, item_vecs: Tensor,
                     weight: Tensor, bias: Tensor, valid=None) -> tuple:
    """Item-conditioned softmax attention over padded rows of members.

    `member_vecs` is (k, w, d): row r holds the member embeddings of
    attention r, padded to width w, and `valid` (k, w) marks the real
    members (all of them when omitted).  Scores are
    relu(weight * <e(u), e(v_r)> + bias) with padding masked out of the
    softmax; the output is each row's attention-weighted member sum,
    (k, d), with the (k, w) weights.  Used for both the within-subset and
    the whole-group aggregation (different parameters).
    """
    shape = member_vecs.data.shape
    if (len(shape) != 3 or 0 in shape[:2]
            or (valid is not None and not valid.any(axis=1).all())):
        raise UsageError("member attention needs a non-empty (k, w, d) member "
                         "array with at least one member per row")
    k, w, d = shape
    if item_vecs.data.shape != (k, d):
        raise UsageError(f"member attention expects ({k}, {d}) item vectors, "
                         f"got {item_vecs.data.shape}")
    dots = ad.reshape(ad.matmul(member_vecs, ad.reshape(item_vecs, (k, d, 1))), (k, w))
    scores = ad.relu(ad.add(ad.mul(weight, dots), bias))
    if valid is not None:
        scores = ad.add(scores, _pad_mask(valid))
    attn = ad.softmax(scores)
    h = ad.matmul(ad.reshape(attn, (k, 1, w)), member_vecs)
    return ad.reshape(h, (k, d)), attn


def subset_attention(slot_embs, params: dict, m: int, present=None) -> tuple:
    """Slotted attention across subset embeddings, batched over instances.

    `slot_embs[s]` is the (n, d) embedding of every instance's slot s, in
    canonical slot order, and `present` (n, len(slot_embs)) marks the
    slots an instance really has (all of them when omitted).  A missing
    slot's row must be zero: it is masked out of the softmax but still
    feeds the other slots' cross weights, which keep their (m-1)d input
    width through zero slots up to m.  Returns the (n, d) output and the
    (n, slots) weights.
    """
    m_eff = len(slot_embs)
    if m_eff == 0 or (present is not None and not present.any(axis=1).all()):
        raise UsageError("subset attention needs at least one subset")
    if m_eff > m:
        raise UsageError(f"{m_eff} subsets exceed the configured maximum {m}")
    n, d = slot_embs[0].data.shape
    padded = list(slot_embs) + [Tensor(np.zeros((n, d)))] * (m - m_eff)
    scores = []
    for i in range(m_eff):
        pre = ad.matmul(padded[i], params[f"subpe_self_w_{i + 1}"])
        if m > 1:
            others = ad.concat([padded[j] for j in range(m) if j != i], axis=1)
            pre = ad.add(pre, ad.matmul(others, params[f"subpe_other_w_{i + 1}"]))
        pre = ad.add(pre, params[f"subpe_bias_{i + 1}"])
        scores.append(ad.matmul(ad.relu(pre), params["subpe_score_w"]))
    scores = ad.add(ad.stack(scores, axis=1), params["subpe_score_b"])   # (n, m_eff)
    if present is not None:
        scores = ad.add(scores, _pad_mask(present))
    attn = ad.softmax(scores)
    h = ad.matmul(ad.reshape(attn, (n, 1, m_eff)), ad.stack(slot_embs, axis=1))
    return ad.reshape(h, (n, d)), attn


def superset_propagate(h0: Tensor, norm_adj, layer_weights) -> Tensor:
    """Stacked graph-convolution layers: h -> relu(norm_adj @ h @ W)."""
    h = h0
    for w in layer_weights:
        h = ad.relu(ad.matmul(ad.spmm(norm_adj, h), w))
    return h


def superset_embeddings(params: dict, cfg: Config, batch_groups,
                        h0: Tensor, graph: GroupGraph,
                        global_rows: Tensor | None = None,
                        isolated: bool = False) -> tuple:
    """Two-stream superset branch for a batch of instances.

    `batch_groups[i]` is instance i's group (duplicates allowed) and row i
    of `h0` (n, d) seeds the batch stream for that instance.  The batch
    stream runs over the instance graph, where two instances are adjacent
    iff their groups are; with `isolated` every instance is a one-node
    graph instead.  Returns (h_suppe (n, 2d), projected (n, d)).
    `global_rows` optionally supplies a precomputed global-stream table
    (evaluation caching); omitted, it is recomputed so gradients flow end
    to end.
    """
    layers = cfg.gcn_layers
    if global_rows is None:
        global_w = [params[f"gcn_global_w_{k}"] for k in range(1, layers + 1)]
        global_rows = superset_propagate(params["group_emb"], graph.normalized, global_w)
    if isolated:
        norm_inst = sparse.eye_array(len(batch_groups), format="csr")
    else:
        uniq, pos = np.unique(np.asarray(batch_groups, dtype=np.intp),
                              return_inverse=True)
        norm_inst = expand_to_instances(induce_batch_subgraph(graph, uniq), pos)
    batch_w = [params[f"gcn_batch_w_{k}"] for k in range(1, layers + 1)]
    batch_rows = superset_propagate(h0, norm_inst, batch_w)
    h_sup = ad.concat([ad.take(global_rows, batch_groups), batch_rows], axis=1)
    projected = ad.add(ad.matmul(h_sup, params["suppe_proj_w"]),
                       params["suppe_proj_b"])
    return h_sup, projected


def fuse(rows, d: int) -> tuple:
    """Row-wise self-attention over stacked branch vectors, mean-pooled.

    `rows` holds r (n, d) branch outputs; the attention is (r, r, n), one
    r x r matrix per instance.  With a single row the softmax is a no-op
    and the input passes through.
    """
    rows = list(rows)
    if not rows:
        raise UsageError("fusion needs at least one active granularity")
    shape = rows[0].data.shape
    if len(shape) != 2 or shape[1] != d or any(r.data.shape != shape for r in rows):
        raise UsageError(f"fusion rows must be (n, {d}) tensors of one shape, "
                         f"got {[r.data.shape for r in rows]}")
    r, n = len(rows), shape[0]
    h = ad.stack(rows)                                        # (r, n, d)
    gram = ad.tensor_sum(ad.mul(ad.reshape(h, (r, 1, n, d)),
                                ad.reshape(h, (1, r, n, d))), axis=-1)
    attn = ad.softmax(ad.scale(gram, 1.0 / np.sqrt(d)), axis=1)   # (r, r, n)
    fused = ad.tensor_sum(ad.mul(ad.reshape(attn, (r, r, n, 1)),
                                 ad.reshape(h, (1, r, n, d))), axis=1)
    return ad.tensor_mean(fused, axis=0), attn


def predict_logit(h_fusion: Tensor, item_vecs: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Pre-sigmoid scores (n,) from (n, 3d) features [h, h*e(v), e(v)]."""
    if h_fusion.data.ndim != 2 or h_fusion.data.shape != item_vecs.data.shape:
        raise UsageError(f"fusion/item dimension mismatch: "
                         f"{h_fusion.data.shape} vs {item_vecs.data.shape}")
    feats = ad.concat([h_fusion, ad.mul(h_fusion, item_vecs), item_vecs], axis=1)
    return ad.add(ad.matmul(feats, w), b)


def compute_global_rows(params: dict, cfg: Config, graph: GroupGraph) -> Tensor:
    """Forward-only global-stream table, for reuse across evaluation calls."""
    with ad.no_grad():
        global_w = [params[f"gcn_global_w_{k}"] for k in range(1, cfg.gcn_layers + 1)]
        return superset_propagate(params["group_emb"], graph.normalized, global_w)


# ---------------------------------------------------------------------------
# batched forward

@dataclass
class ForwardResult:
    """Scores plus the attention weights the forward computed.

    Weight arrays keep the forward's padding, where the weight is exactly
    0; a weight array is None when its branch did not run.
    """
    logits: Tensor                     # (n,)
    scores: Tensor                     # (n,), sigmoid(logits)
    branches: list                     # active branch names, fusion stack order
    fusion_weights: np.ndarray         # (r, r, n)
    group_weights: np.ndarray | None   # (n, w) whole-group member weights
    subset_weights: np.ndarray | None  # (n, slots)
    member_weights: np.ndarray | None  # (rows, w), one row per (instance, subset)


def forward_batch(params: dict, cfg: Config, dataset: Dataset,
                  assignments, graph: GroupGraph, batch, *,
                  mask: AblationMask | None = None,
                  global_rows: Tensor | None = None,
                  isolated: bool = False) -> ForwardResult:
    """Score a batch of (group, item) pairs, each stage once for the batch.

    By default the batch-stream graph couples the instances scored
    together, as in training.  `isolated=True` gives every instance its
    own one-node batch graph, so that a score depends only on its own
    (group, item) pair however many candidates one call scores.
    """
    mask = mask or AblationMask()
    if not (mask.use_subpe or mask.use_gpe or mask.use_suppe):
        raise UsageError("all three granularities are ablated; nothing to fuse")
    batch = [(int(g), int(v)) for g, v in batch]
    if not batch:
        raise UsageError("empty forward batch")
    n, groups = len(batch), [g for g, _ in batch]
    need_gpe = mask.use_gpe or (mask.use_suppe and not mask.use_subpe)
    item_vecs = ad.take(params["item_emb"], [v for _, v in batch])     # (n, d)

    h_subpe = h_gpe = h_suppe = member_w = slot_w = gpe_w = None
    if mask.use_subpe:
        # one member-attention row per (instance, subset), in instance order
        owner, slot, members = [], [], []
        for i, g in enumerate(groups):
            for s, subset in enumerate(assignments[g].subsets):
                owner.append(i)
                slot.append(s)
                members.append(subset)
        idx, valid = _padded(members)
        h_rows, member_w = member_attention(
            ad.take(params["user_emb"], idx), ad.take(item_vecs, owner),
            params["user_att_w"], params["user_att_b"], valid)
        # slot s of instance i reads its row, or the zero row past the end
        row_of = np.full((max(slot) + 1, n), len(owner), dtype=np.intp)
        row_of[slot, owner] = np.arange(len(owner))
        table = ad.concat([h_rows, Tensor(np.zeros((1, cfg.embedding_dim)))])
        h_subpe, slot_w = subset_attention([ad.take(table, r) for r in row_of],
                                           params, cfg.num_subsets,
                                           present=(row_of < len(owner)).T)
    if need_gpe:
        idx, valid = _padded([dataset.groups[g] for g in groups])
        h_gpe, gpe_w = member_attention(
            ad.take(params["user_emb"], idx), item_vecs,
            params["group_att_w"], params["group_att_b"], valid)
    if mask.use_suppe:
        _, h_suppe = superset_embeddings(
            params, cfg, groups, h_subpe if mask.use_subpe else h_gpe, graph,
            global_rows=global_rows, isolated=isolated)

    branches = [(label, h) for label, on, h in (("subpe", mask.use_subpe, h_subpe),
                                                ("gpe", mask.use_gpe, h_gpe),
                                                ("suppe", mask.use_suppe, h_suppe)) if on]
    h_fus, fusion_w = fuse([h for _, h in branches], cfg.embedding_dim)
    logits = predict_logit(h_fus, item_vecs, params["predict_w"], params["predict_b"])
    return ForwardResult(
        logits=logits, scores=ad.sigmoid(logits),
        branches=[label for label, _ in branches],
        fusion_weights=fusion_w.data,
        group_weights=None if gpe_w is None else gpe_w.data,
        subset_weights=None if slot_w is None else slot_w.data,
        member_weights=None if member_w is None else member_w.data)
