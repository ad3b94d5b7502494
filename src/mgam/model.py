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

`forward_batch` scores an (n, 2) integer array of (group, item) rows
under a list of ablation masks, one pass for many models: each branch
runs once over the whole batch for every mask that reads it, and only
fusion and prediction run once per mask.  With one mask (training,
`recommend`, `--explain`) the forward is that mask's alone, and the tape
size does not grow with the number of instances.  Member attention is
group-major: the instances of each of the batch's G unique groups fill
rows of c = ceil(n / G) item cells, a (rows, c, d) grid, and each row
gathers its group's members once, into a padded (rows, W, d) table and a
(rows, R, w, d) table of its R subsets.  Both index tables are index
arithmetic on CSR arrays: `Rows.padded` pads the batch groups' rows of
`Dataset.groups`, and their subsets' rows of the `SubsetTable`.  A
forward over one group's candidates (`recommend`) has a single row
whatever the candidate count; an evaluation chunk of several groups'
candidates has a row or two per group.  Two stacked matmuls give every
(item, member) dot product and weighted sum; padding is masked out of the
softmax with -inf and the real grid cells are taken back into instance
order.  Subset slots become (n, d) tensors read from the cell table, with
a row multiplied by zero (and masked out of the slot softmax) where an
instance lacks the slot.  Fusion stacks the branches as (n, r, d) and is
an (n, r, r) attention.  The same forward serves training, evaluation,
`recommend` and `--explain`; a forward given cached global rows is a
scoring forward, where every instance is a one-node batch graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clustering import SubsetTable
from .config import GRANULARITIES, Config
from .data import Dataset
from .errors import UsageError
# induce_batch_subgraph is not called here; it stays importable from this
# module, where benchmarks/tracing.py wraps it
from .graph import GroupGraph, expand_to_instances, induce_batch_subgraph  # noqa: F401


@dataclass
class AblationMask:
    use_subpe: bool = True
    use_gpe: bool = True
    use_suppe: bool = True

    @classmethod
    def from_disabled(cls, disabled) -> "AblationMask":
        disabled = set(disabled)
        unknown = disabled - set(GRANULARITIES)
        if unknown:
            raise UsageError(f"unknown granularity name(s): {sorted(unknown)}")
        if disabled == set(GRANULARITIES):
            raise UsageError("all three granularities are ablated; nothing to fuse")
        return cls(use_subpe="subpe" not in disabled,
                   use_gpe="gpe" not in disabled,
                   use_suppe="suppe" not in disabled)

    @property
    def reads_gpe(self) -> bool:
        """The group branch runs: fused, or seeding the superset branch."""
        return self.use_gpe or (self.use_suppe and not self.use_subpe)

    def label(self) -> str:
        off = [n for n, on in (("subpe", self.use_subpe), ("gpe", self.use_gpe),
                               ("suppe", self.use_suppe)) if not on]
        return "mgam" if not off else "mgam-wo-" + "-".join(off)


def param_table(cfg: Config, n_users: int, n_items: int, n_groups: int) -> list:
    """(name, shape, is_weight) of every trainable tensor, in the
    checkpoint-stable order `init_params` draws them."""
    cfg.validate()
    d, m, layers = cfg.embedding_dim, cfg.num_subsets, cfg.gcn_layers
    table = [("user_emb", (n_users, d), True),
             ("item_emb", (n_items, d), True),
             ("group_emb", (n_groups, d), True),
             ("user_att_w", (), True),
             ("user_att_b", (), False)]
    for i in range(1, m + 1):
        table.append((f"subpe_self_w_{i}", (d, d), True))
        if m > 1:
            table.append((f"subpe_other_w_{i}", ((m - 1) * d, d), True))
        table.append((f"subpe_bias_{i}", (d,), False))
    table += [("subpe_score_w", (d,), True),
              ("group_att_w", (), True),
              ("group_att_b", (), False)]
    table += [(f"gcn_global_w_{k}", (d, d), True) for k in range(1, layers + 1)]
    table += [(f"gcn_batch_w_{k}", (d, d), True) for k in range(1, layers + 1)]
    table += [("suppe_proj_w", (2 * d, d), True),
              ("suppe_proj_b", (d,), False),
              ("predict_w", (3 * d,), True),
              ("predict_b", (), False)]
    return table


def init_params(cfg: Config, n_users: int, n_items: int, n_groups: int,
                rng: np.random.Generator) -> dict:
    """Create all trainable tensors in `param_table` order.

    Weights are uniform(-s, s) with s = 1/sqrt(embedding_dim); biases
    start at zero.
    """
    s = 1.0 / np.sqrt(cfg.embedding_dim)
    return {name: Tensor(rng.uniform(-s, s, size=shape) if is_weight
                         else np.zeros(shape), requires_grad=True)
            for name, shape, is_weight in param_table(cfg, n_users, n_items, n_groups)}


# ---------------------------------------------------------------------------
# branch operations (each runs once over the whole batch)

def _pad_mask(valid: np.ndarray) -> Tensor:
    """Additive softmax mask: 0 on real entries, -inf on padding."""
    return Tensor(np.where(valid, 0.0, -np.inf))


def member_attention(member_vecs: Tensor, item_vecs: Tensor,
                     weight: Tensor, bias: Tensor, valid: np.ndarray) -> tuple:
    """Item-conditioned softmax attention of item grids over member tables.

    `member_vecs` (..., w, d) holds tables of w member embeddings, padded,
    and `valid` (..., w) marks the real members.  `item_vecs` (..., c, d)
    holds the c items that attend over each table; the leading axes
    broadcast, so a row of c items attends over its group's R subset
    tables at once, (rows, 1, c, d) against (rows, R, w, d).  Scores are
    relu(weight * <e(u), e(v)> + bias) with padding masked out of the
    softmax.  Returns the attention-weighted member sums (..., c, d) and
    the weights (..., c, w).  Used for both the within-subset and the
    whole-group aggregation (different parameters).
    """
    ms, xs = member_vecs.data.shape, item_vecs.data.shape
    if len(ms) < 3 or 0 in ms[:-1] or not valid.any(axis=-1).all():
        raise UsageError("member attention needs non-empty (..., w, d) member "
                         "tables with at least one member per table")
    if len(xs) != len(ms) or 0 in xs[:-1] or xs[-1] != ms[-1]:
        raise UsageError(f"member attention expects (..., c, {ms[-1]}) item "
                         f"vectors matching {ms}, got {xs}")
    # (..., c, w); the item grid is transposed, not the member tables, which
    # repeat per row and subset slot and are the larger array in training
    dots = ad.swapaxes(ad.matmul(member_vecs, ad.swapaxes(item_vecs)))
    scores = ad.relu(ad.add(ad.mul(weight, dots), bias))
    attn = ad.softmax(ad.add(scores, _pad_mask(valid[..., None, :])))
    return ad.matmul(attn, member_vecs), attn


def subset_attention(slot_embs, params: dict, m: int, present: np.ndarray) -> tuple:
    """Slotted attention across subset embeddings, batched over instances.

    `slot_embs[s]` is the (n, d) embedding of every instance's slot s, in
    canonical slot order, and `present` (n, len(slot_embs)) marks the
    slots an instance really has.  A missing slot's row must be zero: it
    is masked out of the softmax but still feeds the other slots' cross
    weights, which keep their (m-1)d input width through zero slots up to
    m.  Returns the (n, d) output and the (n, slots) weights.
    """
    m_eff = len(slot_embs)
    if m_eff == 0 or not present.any(axis=1).all():
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
    scores = ad.stack(scores, axis=1)   # (n, m_eff)
    attn = ad.softmax(ad.add(scores, _pad_mask(present)))
    h = ad.matmul(ad.reshape(attn, (n, 1, m_eff)), ad.stack(slot_embs, axis=1))
    return ad.reshape(h, (n, d)), attn


def superset_propagate(h0: Tensor, norm_adj, layer_weights) -> Tensor:
    """Stacked graph-convolution layers: h -> relu(norm_adj @ h @ W).

    `norm_adj` None is the identity: every node is its own one-node graph.
    """
    h = h0
    for w in layer_weights:
        h = ad.relu(ad.matmul(h if norm_adj is None else ad.spmm(norm_adj, h), w))
    return h


def superset_embeddings(params: dict, cfg: Config, global_rows: Tensor,
                        h0: Tensor, norm_inst) -> Tensor:
    """Two-stream superset branch for a batch of n instances: (n, d).

    Row i of `global_rows` (n, d) is the global stream's row of instance
    i's group, and row i of `h0` (n, d) seeds the batch stream for that
    instance.  The batch stream runs over `norm_inst`, the normalized
    instance graph (`expand_to_instances`), where two instances are
    adjacent iff their groups are; None makes every instance a one-node
    graph.  The two streams' rows, (n, 2d), are projected back to d.
    """
    batch_w = [params[f"gcn_batch_w_{k}"] for k in range(1, cfg.gcn_layers + 1)]
    batch_rows = superset_propagate(h0, norm_inst, batch_w)
    h_sup = ad.concat([global_rows, batch_rows], axis=1)
    return ad.add(ad.matmul(h_sup, params["suppe_proj_w"]), params["suppe_proj_b"])


def fuse(rows, d: int) -> tuple:
    """Row-wise self-attention over stacked branch vectors, mean-pooled.

    `rows` holds r (n, d) branch outputs; the attention is (n, r, r), one
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
    h = ad.stack(rows, axis=1)                                # (n, r, d)
    gram = ad.matmul(h, ad.swapaxes(h))                       # (n, r, r)
    attn = ad.softmax(ad.scale(gram, 1.0 / np.sqrt(d)))
    return ad.tensor_mean(ad.matmul(attn, h), axis=1), attn


def predict_logit(h_fusion: Tensor, item_vecs: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Pre-sigmoid scores (n,) from (n, 3d) features [h, h*e(v), e(v)]."""
    if h_fusion.data.ndim != 2 or h_fusion.data.shape != item_vecs.data.shape:
        raise UsageError(f"fusion/item dimension mismatch: "
                         f"{h_fusion.data.shape} vs {item_vecs.data.shape}")
    feats = ad.concat([h_fusion, ad.mul(h_fusion, item_vecs), item_vecs], axis=1)
    return ad.add(ad.matmul(feats, w), b)


def compute_global_rows(params: dict, cfg: Config, graph: GroupGraph) -> Tensor:
    """The global stream, (n_groups, d): on the tape in a training forward;
    a scorer builds it once under `no_grad` and passes it to its forwards."""
    global_w = [params[f"gcn_global_w_{k}"] for k in range(1, cfg.gcn_layers + 1)]
    return superset_propagate(params["group_emb"], graph.normalized, global_w)


def _slot_rows(table: Tensor, index: np.ndarray, present: np.ndarray) -> list:
    """Slot s of instance i is row `index[i, s]` of the (rows, d) `table`,
    multiplied by 0 where `present[i, s]` is False: the (n, d) inputs of
    `subset_attention`, without a copy of the table."""
    keep = present[:, :, None].astype(np.float64)                    # (n, R, 1)
    return [ad.mul(ad.take(table, index[:, s]), Tensor(keep[:, s]))
            for s in range(index.shape[1])]


# ---------------------------------------------------------------------------
# batched forward

@dataclass
class ForwardResult:
    """One mask's scores plus the attention weights the forward computed.

    Weight arrays keep the forward's padding, where the weight is exactly
    0; a weight array is None when the mask does not read its branch.
    Results of one forward share the arrays of the branches they read.
    """
    logits: Tensor                     # (n,)
    scores: Tensor                     # (n,), sigmoid(logits)
    branches: list                     # active branch names, fusion stack order
    fusion_weights: np.ndarray         # (n, r, r)
    group_weights: np.ndarray | None   # (n, w) whole-group member weights
    subset_weights: np.ndarray | None  # (n, slots)
    member_weights: np.ndarray | None  # (rows, w), one row per (instance, subset)


def forward_batch(params: dict, cfg: Config, dataset: Dataset,
                  assignments: SubsetTable, graph: GroupGraph, batch, *,
                  masks=None, global_rows: Tensor | None = None) -> list:
    """Score a batch of (group, item) pairs under each ablation mask.

    `batch` is an (n, 2) integer array-like of (group, item) rows and
    `masks` a sequence of `AblationMask`s (default: the full model).
    Returns one `ForwardResult` per mask.  Each branch runs once for the
    batch, whatever the number of masks that read it: member attention
    over the subsets and over the whole group, the global stream, and
    the batch stream once per seed (subset- or group-seeded); only fusion
    and prediction run once per mask.  With one mask the forward is
    exactly that mask's.  Given `global_rows` (`compute_global_rows`), it
    is a scoring forward: every instance is its own one-node batch graph,
    so its score depends only on its (group, item) pair.  Without, it is
    a training forward, which builds the global stream on the tape where
    the superset branch first reads it and couples the instances; when no
    mask reads the superset branch, the two forwards are the same.
    """
    masks = list(masks) if masks is not None else [AblationMask()]
    if not masks:
        raise UsageError("a forward needs at least one ablation mask")
    if not all(m.use_subpe or m.use_gpe or m.use_suppe for m in masks):
        raise UsageError("all three granularities are ablated; nothing to fuse")
    pairs = np.asarray(batch, dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not len(pairs):
        raise UsageError(f"a forward batch is a non-empty (n, 2) array of "
                         f"(group, item) rows, got shape {pairs.shape}")
    groups, items = pairs[:, 0], pairs[:, 1]
    d = cfg.embedding_dim
    item_vecs = ad.take(params["item_emb"], items)                     # (n, d)

    # group-major layout: the instances of each unique group fill rows of
    # c = ceil(n / G) cells in batch order, so padding stays below n + G
    # cells however unevenly the groups repeat; instance i sits in cell[i]
    uniq, inv = np.unique(groups, return_inverse=True)
    counts = np.bincount(inv)
    c = -(-len(inv) // len(uniq))
    rows_per = -(-counts // c)
    first_row = np.cumsum(rows_per) - rows_per
    rank = np.empty_like(inv)
    rank[np.argsort(inv, kind="stable")] = (
        np.arange(len(inv)) - np.repeat(np.cumsum(counts) - counts, counts))
    cell = first_row[inv] * c + rank
    row_group = np.repeat(np.arange(len(uniq)), rows_per)        # (rows,)
    n_rows = len(row_group)
    grid = np.zeros(n_rows * c, dtype=np.intp)
    grid[cell] = items                    # padding cells read item 0, never read back
    item_grid = ad.take(params["item_emb"], grid.reshape(n_rows, c))  # (rows, c, d)

    h_subpe = h_gpe = member_w = slot_w = gpe_w = None
    if any(m.use_subpe for m in masks):
        slots, has_slot = assignments.slots.padded(uniq)             # (G, R)
        table, real = assignments.subsets.padded(slots, has_slot)    # (G, R, w)
        real[..., 0] |= ~has_slot         # a missing slot's stand-in, never read back
        r = slots.shape[1]
        h_cells, attn = member_attention(
            ad.take(params["user_emb"], table[row_group]),
            ad.reshape(item_grid, (n_rows, 1, c, d)),
            params["user_att_w"], params["user_att_b"], real[row_group])  # (rows, R, c, d)
        # slot s of instance i reads its cell; a missing slot reads its
        # stand-in's cell, zeroed
        present = has_slot[inv]                                      # (n, R)
        row, col = np.divmod(cell, c)
        row_of = (row[:, None] * r + np.arange(r)) * c + col[:, None]
        h_subpe, slot_w = subset_attention(
            _slot_rows(ad.reshape(h_cells, (n_rows * r * c, d)), row_of, present),
            params, cfg.num_subsets, present)
        member_w = attn.data.reshape(n_rows * r * c, -1)[row_of[present]]
    if any(m.reads_gpe for m in masks):
        idx, valid = dataset.groups.padded(uniq)                     # (G, W)
        h_cells, attn = member_attention(
            ad.take(params["user_emb"], idx[row_group]), item_grid,
            params["group_att_w"], params["group_att_b"], valid[row_group])  # (rows, c, d)
        h_gpe = ad.take(ad.reshape(h_cells, (n_rows * c, d)), cell)
        gpe_w = attn.data.reshape(n_rows * c, -1)[cell]

    h_suppe = {}   # the superset branch's output, by the branch seeding it
    norm_inst = None
    results = []
    for mask in masks:
        seed = "subpe" if mask.use_subpe else "gpe"
        if mask.use_suppe and seed not in h_suppe:
            if not h_suppe:   # built at first read: step time follows allocation order
                if global_rows is None:   # a training forward
                    global_rows = compute_global_rows(params, cfg, graph)
                    norm_inst = expand_to_instances(graph, groups)
                instance_rows = ad.take(global_rows, groups)
            h_suppe[seed] = superset_embeddings(
                params, cfg, instance_rows, h_subpe if mask.use_subpe else h_gpe, norm_inst)
        branches = [(label, h) for label, on, h in (
            ("subpe", mask.use_subpe, h_subpe), ("gpe", mask.use_gpe, h_gpe),
            ("suppe", mask.use_suppe, h_suppe.get(seed))) if on]
        h_fus, fusion_w = fuse([h for _, h in branches], d)
        logits = predict_logit(h_fus, item_vecs, params["predict_w"], params["predict_b"])
        results.append(ForwardResult(
            logits=logits, scores=ad.sigmoid(logits),
            branches=[label for label, _ in branches],
            fusion_weights=fusion_w.data,
            group_weights=gpe_w if mask.reads_gpe else None,
            subset_weights=slot_w.data if mask.use_subpe else None,
            member_weights=member_w if mask.use_subpe else None))
    return results
