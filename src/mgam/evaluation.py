"""Leave-one-out ranking evaluation and memory-based aggregation baselines.

For every test (group, held-out positive) the positive is ranked against
`eval_negatives` sampled negatives (excluding all of the group's
positives); HR@K and NDCG@K are averaged over groups.  Negative streams
are keyed by group index so evaluation order cannot change the result.
`eval`, `ablate` and `baseline` draw the candidate lists once per command
and rank every model (ablation mask, aggregation strategy) against them.

All of a group's candidates are scored in one batch-wide forward with
`isolated=True`: each candidate gets its own one-node batch graph, so its
score depends only on its own (group, item) pair, never on the rest of
the candidate list.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import STREAM_BASELINE, STREAM_EVAL, Config, substream
from .data import Dataset, Split, draw_unseen, sample_negatives
from .errors import UsageError
from .model import AblationMask, compute_global_rows, forward_batch
from .training import adam_step, init_adam, point_loss_from_logits

METRICS_FILE = "metrics.csv"
METRICS_DETAIL_FILE = "metrics_detail.csv"


@dataclass
class RankedList:
    items: list            # candidates by descending score, ties by ascending item
    scores: list           # aligned scores
    position: int | None   # 1-indexed rank of the target item, when given


@dataclass
class MetricReport:
    ks: list
    hr: dict               # K -> mean HR@K
    ndcg: dict             # K -> mean NDCG@K
    n_groups: int
    per_group: list = field(default_factory=list)  # (group, position) pairs


def rank_candidates(score_fn, group: int, candidates, target=None) -> RankedList:
    """Score and sort candidates for a group (deterministic tie-break)."""
    candidates = [int(c) for c in candidates]
    if not candidates:
        raise UsageError("cannot rank an empty candidate list")
    if len(set(candidates)) != len(candidates):
        raise UsageError("candidates must be distinct")
    scores = np.asarray(score_fn(group, candidates), dtype=np.float64)
    order = np.lexsort((candidates, -scores))
    items = [candidates[i] for i in order]
    position = None
    if target is not None:
        position = items.index(int(target)) + 1
    return RankedList(items=items, scores=[float(scores[i]) for i in order],
                      position=position)


def hr_at_k(position: int, k: int) -> float:
    if position < 1 or k < 1:
        raise UsageError("position and K are 1-based")
    return 1.0 if position <= k else 0.0


def ndcg_at_k(position: int, k: int) -> float:
    """Single-relevant-item NDCG: 1/log2(position+1) inside the cutoff."""
    if position < 1 or k < 1:
        raise UsageError("position and K are 1-based")
    return float(1.0 / np.log2(position + 1)) if position <= k else 0.0


def draw_candidates(dataset: Dataset, split: Split, eval_negatives: int,
                    seed: int) -> list:
    """Each test entry's ranking list, [positive] + negatives, in split order.

    Group g's negatives come from its own STREAM_EVAL stream, so the lists
    do not depend on evaluation order, and one draw serves every model a
    command scores.
    """
    lists = []
    for group, positive in split.test:
        rng = np.random.default_rng(substream(seed, STREAM_EVAL, group))
        lists.append([positive] + sample_negatives(dataset, group, eval_negatives,
                                                   rng=rng))
    return lists


def evaluate(score_fn, dataset: Dataset, split: Split, eval_negatives: int,
             ks, seed: int, candidates=None) -> MetricReport:
    """Rank every held-out positive among sampled negatives; average metrics.

    `candidates` are the lists `draw_candidates` returns for the same
    dataset, split, negative count and seed; they are drawn here when
    omitted.
    """
    if not split.test:
        raise UsageError("split has no test entries to evaluate")
    if candidates is None:
        candidates = draw_candidates(dataset, split, eval_negatives, seed)
    ks = [int(k) for k in ks]
    hr_sum = {k: 0.0 for k in ks}
    ndcg_sum = {k: 0.0 for k in ks}
    per_group = []
    for (group, positive), ranking in zip(split.test, candidates, strict=True):
        ranked = rank_candidates(score_fn, group, ranking, target=positive)
        per_group.append((group, ranked.position))
        for k in ks:
            hr_sum[k] += hr_at_k(ranked.position, k)
            ndcg_sum[k] += ndcg_at_k(ranked.position, k)
    n = len(split.test)
    return MetricReport(
        ks=ks,
        hr={k: hr_sum[k] / n for k in ks},
        ndcg={k: ndcg_sum[k] / n for k in ks},
        n_groups=n,
        per_group=per_group,
    )


def make_mgam_scorer(params: dict, cfg: Config, dataset: Dataset,
                     assignments, graph, mask: AblationMask | None = None):
    """Forward-only scorer closure over a trained model.

    The global graph stream is precomputed once; each call scores all of
    a group's candidates in one isolated forward.
    """
    mask = mask or AblationMask()
    global_rows = compute_global_rows(params, cfg, graph) if mask.use_suppe else None

    def score_fn(group, candidates):
        with ad.no_grad():
            result = forward_batch(params, cfg, dataset, assignments, graph,
                                   np.c_[np.full(len(candidates), group), candidates],
                                   mask=mask, global_rows=global_rows, isolated=True)
        return result.scores.data

    return score_fn


# ---------------------------------------------------------------------------
# memory-based baselines: per-user dot-product scorer + score aggregation

def train_mf_scorer(dataset: Dataset, d: int, epochs: int, lr: float,
                    negatives: int, seed: int, batch_size: int = 1024) -> tuple:
    """Train sigma(<e(u), e(v)>) on the user-item interactions with BCE.

    Returns (user_vecs, item_vecs) as plain arrays; aggregation into group
    scores happens only at inference.
    """
    rng = np.random.default_rng(substream(seed, STREAM_BASELINE))
    s = 1.0 / np.sqrt(d)
    params = {
        "user_emb": ad.Tensor(rng.uniform(-s, s, size=(dataset.n_users, d)),
                              requires_grad=True),
        "item_emb": ad.Tensor(rng.uniform(-s, s, size=(dataset.n_items, d)),
                              requires_grad=True),
    }
    adam = init_adam(params)
    interactions = dataset.user_items
    if not len(interactions.indices):
        raise UsageError("no user-item interactions to train the baseline on")
    pos_users = np.repeat(np.arange(dataset.n_users), interactions.lengths()).tolist()
    pos_items = interactions.indices.tolist()
    for epoch in range(epochs):
        erng = np.random.default_rng(substream(seed, STREAM_BASELINE, epoch + 1))
        order = erng.permutation(len(pos_items))
        for start in range(0, len(order), batch_size):
            users, items, labels = [], [], []
            for oi in order[start:start + batch_size].tolist():
                u = pos_users[oi]
                users.append(u)
                items.append(pos_items[oi])
                labels.append(1.0)
                for v in draw_unseen(dataset.n_items, dataset.user_items[u],
                                     negatives, erng, f"user {dataset.user_ids[u]}"):
                    users.append(u)
                    items.append(v)
                    labels.append(0.0)
            u_vecs = ad.take(params["user_emb"], users)
            i_vecs = ad.take(params["item_emb"], items)
            logits = ad.tensor_sum(ad.mul(u_vecs, i_vecs), axis=1)
            loss = ad.tensor_mean(point_loss_from_logits(logits, labels))
            for p in params.values():
                p.grad = None
            grads = ad.grad_map(loss, params)
            adam_step(params, grads, adam, lr)
    return params["user_emb"].data.copy(), params["item_emb"].data.copy()


# member-score reductions: average, least misery, maximum satisfaction
_AGGREGATE = {"avg": np.mean, "lm": np.min, "ms": np.max}


def make_baseline_scorer(user_vecs: np.ndarray, item_vecs: np.ndarray,
                         dataset: Dataset, strategy: str):
    """Score candidates by aggregating member sigmoid dot-products."""
    if strategy not in _AGGREGATE:
        raise UsageError(f"unknown aggregation strategy {strategy!r}")
    reduce = _AGGREGATE[strategy]

    def score_fn(group, candidates):
        members = dataset.groups[group]
        logits = user_vecs[members] @ item_vecs[list(candidates)].T  # (m, c)
        return reduce(1.0 / (1.0 + np.exp(-logits)), axis=0)

    return score_fn


# ---------------------------------------------------------------------------
# CSV output

def write_metrics_csv(path, labeled_reports, seed: int) -> None:
    """`metrics.csv` rows: model, K, HR, NDCG, n_groups, seed."""
    with open(Path(path), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "K", "HR", "NDCG", "n_groups", "seed"])
        for label, report in labeled_reports:
            for k in report.ks:
                w.writerow([label, k, repr(float(report.hr[k])),
                            repr(float(report.ndcg[k])), report.n_groups, seed])


def write_metrics_detail_csv(path, labeled_reports, dataset: Dataset) -> None:
    """Optional per-group detail: model, group_id, position, HR/NDCG per K."""
    with open(Path(path), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "group", "position", "K", "HR", "NDCG"])
        for label, report in labeled_reports:
            for group, position in report.per_group:
                for k in report.ks:
                    w.writerow([label, dataset.group_ids[group], position, k,
                                repr(float(hr_at_k(position, k))),
                                repr(float(ndcg_at_k(position, k)))])
