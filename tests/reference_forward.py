"""Independent plain-numpy re-implementation of the model forward pass.

Deliberately written without the autodiff engine, the graph module or
model.py: adjacency construction, normalization, attention and fusion are
all recomputed from the dataset and raw parameter arrays.  Tests compare
its predictions against forward_batch to catch composition bugs in
either.
"""

import numpy as np


def _softmax(v):
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _member_attention(emb_rows, item_vec, w, b):
    scores = np.maximum(w * (emb_rows @ item_vec) + b, 0.0)
    weights = _softmax(scores)
    return weights @ emb_rows


def _dense_normalized(adj):
    deg = adj.sum(axis=1)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(deg))
    return d_inv_sqrt @ adj @ d_inv_sqrt


def _co_membership_dense(groups):
    n = len(groups)
    adj = np.eye(n)
    sets = [set(g) for g in groups]
    for a in range(n):
        for b in range(a + 1, n):
            if sets[a] & sets[b]:
                adj[a, b] = adj[b, a] = 1.0
    return adj


def reference_forward(raw, dataset, subset_lists, batch, d, m_max, layers,
                      use_subpe=True, use_gpe=True, use_suppe=True):
    """Predicted probabilities for a batch of (group, item) pairs.

    `raw` maps parameter names to plain ndarrays; `subset_lists[g]` is the
    ordered member partition of group g.
    """
    user_emb = raw["user_emb"]
    item_emb = raw["item_emb"]

    h_subpe, h_gpe = [], []
    for g, v in batch:
        e_v = item_emb[v]
        if use_subpe:
            slots = [
                _member_attention(user_emb[s], e_v, raw["user_att_w"], raw["user_att_b"])
                for s in subset_lists[g]
            ]
            padded = slots + [np.zeros(d)] * (m_max - len(slots))
            acts = []
            for i in range(len(slots)):
                pre = padded[i] @ raw[f"subpe_self_w_{i + 1}"]
                if m_max > 1:
                    others = np.concatenate([padded[j] for j in range(m_max) if j != i])
                    pre = pre + others @ raw[f"subpe_other_w_{i + 1}"]
                pre = pre + raw[f"subpe_bias_{i + 1}"]
                acts.append(raw["subpe_score_w"] @ np.maximum(pre, 0.0))
            weights = _softmax(np.array(acts))
            h_subpe.append(weights @ np.stack(slots))
        else:
            h_subpe.append(None)
        if use_gpe or (use_suppe and not use_subpe):
            h_gpe.append(_member_attention(user_emb[dataset.groups[g]], e_v,
                                           raw["group_att_w"], raw["group_att_b"]))
        else:
            h_gpe.append(None)

    suppe_proj = [None] * len(batch)
    if use_suppe:
        # global stream over all groups
        norm_global = _dense_normalized(_co_membership_dense(dataset.groups))
        h_global = raw["group_emb"]
        for k in range(1, layers + 1):
            h_global = np.maximum(norm_global @ h_global @ raw[f"gcn_global_w_{k}"], 0.0)
        # batch stream: one node per instance, adjacency by group co-membership
        uniq = sorted({g for g, _ in batch})
        sub_adj = _co_membership_dense([dataset.groups[g] for g in uniq])
        pos = [uniq.index(g) for g, _ in batch]
        inst_adj = sub_adj[np.ix_(pos, pos)]
        norm_inst = _dense_normalized(inst_adj)
        h_batch = np.stack([
            h_subpe[i] if use_subpe else h_gpe[i] for i in range(len(batch))
        ])
        for k in range(1, layers + 1):
            h_batch = np.maximum(norm_inst @ h_batch @ raw[f"gcn_batch_w_{k}"], 0.0)
        for i, (g, _) in enumerate(batch):
            h_sup = np.concatenate([h_global[g], h_batch[i]])
            suppe_proj[i] = h_sup @ raw["suppe_proj_w"] + raw["suppe_proj_b"]

    preds = []
    for i, (g, v) in enumerate(batch):
        rows = []
        if use_subpe:
            rows.append(h_subpe[i])
        if use_gpe:
            rows.append(h_gpe[i])
        if use_suppe:
            rows.append(suppe_proj[i])
        h = np.stack(rows)
        attn = _softmax(h @ h.T / np.sqrt(d))
        h_fus = (attn @ h).mean(axis=0)
        e_v = item_emb[v]
        feats = np.concatenate([h_fus, h_fus * e_v, e_v])
        preds.append(_sigmoid(raw["predict_w"] @ feats + raw["predict_b"]))
    return np.array(preds)
