"""Leave-one-out ranking evaluation and memory-based aggregation baselines.

For every test (group, held-out positive) the positive is ranked against
`eval_negatives` sampled negatives (excluding all of the group's
positives); HR@K and NDCG@K are averaged over groups.  Row i of the
candidate table is test entry i's held-out item, in column 0, then its
negatives (`data.label_blocks`, the layout of training batches).
Negative streams are keyed by group index so evaluation order cannot
change the result.  One pass serves many models: `eval`, `ablate` and
`baseline` draw the table once per command and score every model
(ablation mask, aggregation strategy) in one `evaluate` call.

A scorer is pairwise: `score_fn(groups, items)` takes two equal-length
int arrays and returns (models, n) scores, one row per model per
(group, item) row.  `evaluate` hands it every test group's candidate
rows at once, and the mgam scorer cuts them into chunks of
`SCORE_CHUNK_ROWS` rows, each one forward with `isolated=True` over rows
of several groups and under every mask: the branches run once per chunk
and only fusion and prediction once per mask.  Every row gets its own
one-node batch graph, so its score depends only on its own (group, item)
pair, never on the rows it shares a forward with.  The chunk size bounds
the memory of a forward whatever the number of test groups.  A held-out
item's position is 1 + the number of candidates in its row that score
higher than column 0, or score the same and have a smaller item index.
`rank_candidates`, which `recommend` calls on one group's unseen items,
sorts by the same rule.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import STREAM_BASELINE, STREAM_EVAL, Config, substream
from .data import Dataset, Split, draw_unseen, label_blocks, sample_negatives
from .errors import NonFiniteError, UsageError
from .model import AblationMask, compute_global_rows, forward_batch
from .training import adam_step, init_adam, point_loss_from_logits

METRICS_FILE = "metrics.csv"
METRICS_DETAIL_FILE = "metrics_detail.csv"

# rows per scoring forward: a fixed count, so chunking never depends on the
# machine and a default-size `recommend` (490 items) is one forward
SCORE_CHUNK_ROWS = 512

# positives per MF baseline step
MF_BATCH_SIZE = 1024


@dataclass
class MetricReport:
    ks: list
    hr: dict               # K -> mean HR@K
    ndcg: dict             # K -> mean NDCG@K
    n_groups: int
    per_group: list = field(default_factory=list)  # (group, position) pairs


def _score(score_fn, groups: np.ndarray, items: np.ndarray, group_name,
           labels=(None,)) -> np.ndarray:
    """(models, n) scores of the (group, item) rows, one row per entry of
    `labels`; a scorer of one model may return (n,) scores.  A non-finite
    score has no rank, so it is refused, naming its model (`labels[m]`,
    unless None) and the group (`group_name(g)`) it was scored for."""
    scores = np.atleast_2d(np.asarray(score_fn(groups, items), dtype=np.float64))
    if scores.shape != (len(labels), len(items)):
        raise UsageError(f"scorer returned {scores.shape} scores for {len(labels)} "
                         f"model(s) of {len(items)} rows")
    bad = np.argwhere(~np.isfinite(scores))
    if len(bad):
        m, i = bad[0]
        model = "" if labels[m] is None else f"model {labels[m]}: "
        raise NonFiniteError(f"{model}non-finite score {float(scores[m, i])!r} for "
                             f"group {group_name(int(groups[i]))}")
    return scores


def rank_candidates(score_fn, group: int, candidates, group_id) -> tuple:
    """Score a group's distinct candidates and sort them: (items, scores)
    arrays by descending score, ties by ascending item, `evaluate`'s order.

    `group_id` names the group in a `NonFiniteError`.
    """
    items = np.asarray(candidates, dtype=np.int64)
    if not len(items):
        raise UsageError("cannot rank an empty candidate list")
    if len(np.unique(items)) != len(items):
        raise UsageError("candidates must be distinct")
    [scores] = _score(score_fn, np.full(len(items), group), items, lambda g: group_id)
    order = np.lexsort((items, -scores))
    return items[order], scores[order]


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
                    seed: int) -> np.ndarray:
    """The (tests, 1 + eval_negatives) int64 candidate table: row i is
    test entry i's held-out item, in column 0, then its negatives.

    Group g's negatives come from its own STREAM_EVAL stream, so the rows
    do not depend on evaluation order, and one draw serves every model a
    command scores.
    """
    negatives = [sample_negatives(dataset, g, eval_negatives, np.random.default_rng(
        substream(seed, STREAM_EVAL, g))) for g, _ in split.test]
    return label_blocks(split.test, negatives)[:, :, 1].copy()   # not a view of the blocks


def evaluate(score_fn, dataset: Dataset, split: Split, eval_negatives: int,
             ks, seed: int, candidates=None, labels=None) -> list:
    """Rank every held-out positive among sampled negatives; average metrics.

    `score_fn` scores one model, or one model per entry of `labels` (one
    row of scores each; the labels name a model in errors).  Returns one
    `MetricReport` per model.  `candidates` is the table `draw_candidates`
    returns for the same dataset, split, negative count and seed; it is
    drawn here when omitted.
    """
    if not split.test:
        raise UsageError("split has no test entries to evaluate")
    if candidates is None:
        candidates = draw_candidates(dataset, split, eval_negatives, seed)
    test = np.asarray(split.test, dtype=np.int64)
    if candidates.shape != (len(test), 1 + eval_negatives):
        raise UsageError(f"candidate table of shape {candidates.shape} for "
                         f"{len(test)} test entries and {eval_negatives} negatives")
    wrong = np.flatnonzero(candidates[:, 0] != test[:, 1])
    if len(wrong):
        raise UsageError(f"column 0 of group {dataset.group_ids[test[wrong[0], 0]]}'s "
                         f"candidates is not its held-out item {test[wrong[0], 1]}")
    scores = _score(score_fn, np.repeat(test[:, 0], candidates.shape[1]), candidates.ravel(),
                    dataset.group_ids.__getitem__, (None,) if labels is None else list(labels))
    # (models, tests, 1 + k); ahead of column 0: by descending score, then ascending item
    scores = scores.reshape(len(scores), *candidates.shape)
    target = scores[:, :, :1]
    ahead = (scores > target) | ((scores == target) & (candidates < candidates[:, :1]))
    ks = [int(k) for k in ks]
    return [_report(split, (1 + a.sum(axis=1)).tolist(), ks) for a in ahead]


def _report(split: Split, positions: list, ks: list) -> MetricReport:
    """HR@K and NDCG@K averaged over the test entries' positions."""
    hr_sum = {k: 0.0 for k in ks}
    ndcg_sum = {k: 0.0 for k in ks}
    per_group = []
    for (group, _), position in zip(split.test, positions):
        per_group.append((group, position))
        for k in ks:
            hr_sum[k] += hr_at_k(position, k)
            ndcg_sum[k] += ndcg_at_k(position, k)
    n = len(split.test)
    return MetricReport(
        ks=ks,
        hr={k: hr_sum[k] / n for k in ks},
        ndcg={k: ndcg_sum[k] / n for k in ks},
        n_groups=n,
        per_group=per_group,
    )


def make_mgam_scorer(params: dict, cfg: Config, dataset: Dataset,
                     assignments, graph, masks=None):
    """Forward-only pairwise scorer of ablation masks over a trained model.

    A call returns (len(masks), n) scores (`masks` defaults to the full
    model).  The global graph stream is precomputed once; a call's
    (group, item) rows are scored `SCORE_CHUNK_ROWS` at a time, one
    isolated forward per chunk for every mask, whatever groups the rows
    belong to.
    """
    masks = list(masks) if masks is not None else [AblationMask()]
    global_rows = (compute_global_rows(params, cfg, graph)
                   if any(m.use_suppe for m in masks) else None)

    def score_fn(groups, items):
        groups, items = np.asarray(groups), np.asarray(items)
        scores = np.empty((len(masks), len(items)))
        with ad.no_grad():
            for start in range(0, len(items), SCORE_CHUNK_ROWS):
                chunk = slice(start, start + SCORE_CHUNK_ROWS)
                results = forward_batch(
                    params, cfg, dataset, assignments, graph,
                    np.c_[groups[chunk], items[chunk]],
                    masks=masks, global_rows=global_rows, isolated=True)
                for row, result in zip(scores, results):
                    row[chunk] = result.scores.data
        return scores

    return score_fn


# ---------------------------------------------------------------------------
# memory-based baselines: per-user dot-product scorer + score aggregation

def train_mf_scorer(dataset: Dataset, d: int, epochs: int, lr: float,
                    negatives: int, seed: int) -> tuple:
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
    positives = np.c_[np.repeat(np.arange(dataset.n_users), interactions.lengths()),
                      interactions.indices]
    for epoch in range(epochs):
        erng = np.random.default_rng(substream(seed, STREAM_BASELINE, epoch + 1))
        order = erng.permutation(len(positives))
        for start in range(0, len(order), MF_BATCH_SIZE):
            batch = positives[order[start:start + MF_BATCH_SIZE]]
            drawn = [draw_unseen(dataset.n_items, dataset.user_items[u], negatives,
                                 erng, f"user {dataset.user_ids[u]}")
                     for u in batch[:, 0].tolist()]
            rows = label_blocks(batch, drawn).reshape(-1, 3)
            u_vecs = ad.take(params["user_emb"], rows[:, 0])
            i_vecs = ad.take(params["item_emb"], rows[:, 1])
            logits = ad.tensor_sum(ad.mul(u_vecs, i_vecs), axis=1)
            loss = ad.tensor_mean(point_loss_from_logits(logits, rows[:, 2]))
            for p in params.values():
                p.grad = None
            grads = ad.grad_map(loss, params)
            adam_step(params, grads, adam, lr)
    return params["user_emb"].data.copy(), params["item_emb"].data.copy()


# member-score reductions: average, least misery, maximum satisfaction
_AGGREGATE = {"avg": np.mean, "lm": np.min, "ms": np.max}


def make_baseline_scorer(user_vecs: np.ndarray, item_vecs: np.ndarray,
                         dataset: Dataset, strategies):
    """Pairwise scorer of aggregation strategies: a call returns
    (len(strategies), n) scores.  The rows of each group are scored
    together, in their order: its member sigmoid dot-products are computed
    once and reduced by every strategy."""
    for strategy in strategies:
        if strategy not in _AGGREGATE:
            raise UsageError(f"unknown aggregation strategy {strategy!r}")
    reduces = [_AGGREGATE[s] for s in strategies]

    def score_fn(groups, items):
        groups, items = np.asarray(groups), np.asarray(items)
        scores = np.empty((len(reduces), len(items)))
        by_group = np.argsort(groups, kind="stable")
        uniq, starts = np.unique(groups[by_group], return_index=True)
        for group, rows in zip(uniq.tolist(), np.split(by_group, starts[1:])):
            logits = user_vecs[dataset.groups[group]] @ item_vecs[items[rows]].T  # (m, c)
            member_scores = 1.0 / (1.0 + np.exp(-logits))
            for row, reduce in zip(scores, reduces):
                row[rows] = reduce(member_scores, axis=0)
        return scores

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
