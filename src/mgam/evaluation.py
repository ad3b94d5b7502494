"""Leave-one-out ranking evaluation and memory-based aggregation baselines.

For every test (group, held-out positive) the positive is ranked against
`eval_negatives` sampled negatives (excluding all of the group's
positives); HR@K and NDCG@K are averaged over groups.  Every command
draws the candidate table once, with `draw_candidates`: row i is test
entry i's held-out item, in column 0, then its negatives.  One
`sample_negatives` call (`data.draw_unseen_rows`, the sampler training
uses) draws every row, each on its group's own STREAM_EVAL generator,
so evaluation order cannot change the result.
One `evaluate` call scores every model a command names (ablation mask,
aggregation strategy, subset count) against that table.

A scorer is pairwise: `score_fn(groups, items)` takes two equal-length
int arrays and returns (models, n) scores, one row per model per
(group, item) row.  `evaluate` hands it every test group's candidate
rows at once, and the mgam scorer cuts them into chunks of whole
candidate lists, at most `SCORE_CHUNK_ROWS` rows each, cutting inside a
list only when it alone is longer.  Each chunk is one scoring forward
(given the cached global rows) over rows of several groups and under
every mask: the branches run once per chunk and only fusion and
prediction once per mask.  Every row is its own one-node batch graph, so
its score depends only on its own (group, item) pair, never on the rows
it shares a forward with (up to the rounding of the shapes BLAS sums
over).  The chunk size bounds the memory of a forward whatever the
number of groups.

One rule, `_ranking`, orders candidates: by descending score, ties by
ascending item.  `rank_candidates` (`recommend`) sorts by it, and
`evaluate` counts the candidates it puts ahead of each held-out item.
`hit_and_gain` is the one definition of HR and NDCG per position, for
`metrics.csv`'s means and `metrics_detail.csv`'s rows, which
`report_metrics` writes.

The baselines' per-user scorer trains through MGAM's training step,
`training.fit_epoch`, giving only its draw of unseen items and its loss.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import STREAM_BASELINE, STREAM_EVAL, Config, substream
from .data import Dataset, Split, draw_unseen_rows, sample_negatives
from .errors import NonFiniteError, UsageError
from .model import AblationMask, compute_global_rows, forward_batch
from .training import fit_epoch, init_adam, point_loss_from_logits

METRICS_FILE = "metrics.csv"
METRICS_DETAIL_FILE = "metrics_detail.csv"

# rows per scoring forward: a fixed count, so chunking never depends on the
# machine and a default-size `recommend` (490 items) is one forward
SCORE_CHUNK_ROWS = 512

# positives per MF baseline step
MF_BATCH_SIZE = 1024


@dataclass
class MetricReport:
    """One model's evaluation: the held-out item's 1-based position per
    test entry, in `split.test` order, and HR@K and NDCG@K averaged over
    them."""
    ks: list
    hr: dict               # K -> mean HR@K
    ndcg: dict             # K -> mean NDCG@K
    positions: np.ndarray  # (tests,) int64


def _score(score_fn, groups: np.ndarray, items: np.ndarray, labels,
           group_name) -> np.ndarray:
    """(models, n) scores of the (group, item) rows, one row per entry of
    `labels`.  A non-finite score has no rank, so it is refused, naming
    its model (`labels[m]`) and the group (`group_name(g)`) it was scored
    for."""
    scores = np.asarray(score_fn(groups, items), dtype=np.float64)
    if scores.shape != (len(labels), len(items)):
        raise UsageError(f"scorer returned {scores.shape} scores for {len(labels)} "
                         f"model(s) of {len(items)} rows")
    bad = np.argwhere(~np.isfinite(scores))
    if len(bad):
        m, i = bad[0]
        raise NonFiniteError(f"model {labels[m]}: non-finite score {float(scores[m, i])!r} "
                             f"for group {group_name(int(groups[i]))}")
    return scores


def _ranking(items: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The order of each last-axis list of candidates: by descending
    score, ties by ascending item."""
    return np.lexsort((items, -scores), axis=-1)


def rank_candidates(score_fn, group: int, candidates, label, group_id) -> tuple:
    """Score a group's distinct candidates under the one model `label` and
    sort them by `_ranking`: (items, scores) arrays.

    `label` and `group_id` name the model and the group in a
    `NonFiniteError`.
    """
    items = np.asarray(candidates, dtype=np.int64)
    if not len(items):
        raise UsageError("cannot rank an empty candidate list")
    if len(np.unique(items)) != len(items):
        raise UsageError("candidates must be distinct")
    [scores] = _score(score_fn, np.full(len(items), group), items, [label],
                      lambda g: group_id)
    order = _ranking(items, scores)
    return items[order], scores[order]


def hit_and_gain(positions, ks) -> tuple:
    """HR@K and NDCG@K of each 1-based position at each cutoff K: two
    float arrays of shape (*positions.shape, len(ks)).  With one relevant
    item, NDCG@K is 1/log2(position + 1) inside the cutoff, else 0."""
    positions = np.asarray(positions, dtype=np.int64)[..., None]
    ks = np.asarray(ks, dtype=np.int64)
    if (positions < 1).any() or (ks < 1).any():
        raise UsageError("position and K are 1-based")
    hit = positions <= ks
    return hit.astype(np.float64), np.where(hit, 1.0 / np.log2(positions + 1), 0.0)


def draw_candidates(dataset: Dataset, split: Split, eval_negatives: int,
                    seed: int) -> np.ndarray:
    """The (tests, 1 + eval_negatives) int64 candidate table: row i is
    test entry i's held-out item, in column 0, then its negatives.

    One `sample_negatives` call draws every row, the negatives of a test
    group g on its own generator, `substream(seed, STREAM_EVAL, g)`, as a
    draw for g alone would; so the rows do not depend on evaluation
    order, and one draw serves every model a command scores.
    """
    test = np.asarray(split.test, dtype=np.int64).reshape(-1, 2)
    negatives = sample_negatives(dataset, test[:, 0], eval_negatives, [
        np.random.default_rng(substream(seed, STREAM_EVAL, g)) for g in test[:, 0].tolist()])
    return np.c_[test[:, 1], negatives]


def evaluate(score_fn, dataset: Dataset, split: Split, candidates: np.ndarray,
             labels, ks) -> list:
    """Rank every held-out positive among its row of `candidates`, the
    table `draw_candidates` returns for `split`, and average metrics.

    `score_fn` scores one model per entry of `labels` (one row of scores
    each; the labels name a model in errors).  Returns one `MetricReport`
    per model.  The means add the test entries in `split.test` order.
    """
    if not split.test:
        raise UsageError("split has no test entries to evaluate")
    test = np.asarray(split.test, dtype=np.int64)
    if candidates.ndim != 2 or len(candidates) != len(test) or candidates.shape[1] < 2:
        raise UsageError(f"candidate table of shape {candidates.shape} for "
                         f"{len(test)} test entries; each needs a row of at least "
                         f"one negative")
    wrong = np.flatnonzero(candidates[:, 0] != test[:, 1])
    if len(wrong):
        raise UsageError(f"column 0 of group {dataset.group_ids[test[wrong[0], 0]]}'s "
                         f"candidates is not its held-out item {test[wrong[0], 1]}")
    scores = _score(score_fn, np.repeat(test[:, 0], candidates.shape[1]), candidates.ravel(),
                    labels, dataset.group_ids.__getitem__)
    scores = scores.reshape(len(labels), *candidates.shape)   # (models, tests, 1 + k)
    # `_ranking` puts ahead of the held-out item (column 0) each candidate
    # scoring higher, or the same with a smaller item
    held = scores[..., :1]
    ahead = (scores > held) | (scores == held) & (candidates < candidates[:, :1])
    positions = 1 + ahead.sum(axis=-1)
    ks = [int(k) for k in ks]
    # cumsum adds in test order, where a sum may pair terms
    hr, ndcg = (np.cumsum(m, axis=1)[:, -1] / len(test) for m in hit_and_gain(positions, ks))
    return [MetricReport(ks, dict(zip(ks, h.tolist())), dict(zip(ks, n.tolist())), p)
            for h, n, p in zip(hr, ndcg, positions)]


def report_metrics(out: Path, labels, reports, dataset: Dataset, split: Split,
                   seed: int, detail: bool) -> None:
    """Print each model's HR@K and NDCG@K and write them to `metrics.csv`
    (model, K, HR, NDCG, n_groups, seed); with `detail`, also write each
    test entry's to `metrics_detail.csv` (model, group, position, K, HR,
    NDCG)."""
    n = len(split.test)
    for label, report in zip(labels, reports):
        for k in report.ks:
            print(f"{label}: HR@{k}={report.hr[k]:.4f} "
                  f"NDCG@{k}={report.ndcg[k]:.4f} ({n} groups)")
    with open(out / METRICS_FILE, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "K", "HR", "NDCG", "n_groups", "seed"])
        for label, report in zip(labels, reports):
            w.writerows([label, k, repr(report.hr[k]), repr(report.ndcg[k]), n, seed]
                        for k in report.ks)
    if not detail:
        return
    group_ids = [dataset.group_ids[g] for g, _ in split.test]
    with open(out / METRICS_DETAIL_FILE, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "group", "position", "K", "HR", "NDCG"])
        for label, report in zip(labels, reports):
            hr, ndcg = (m.tolist() for m in hit_and_gain(report.positions, report.ks))
            for group, position, hrs, ndcgs in zip(group_ids, report.positions.tolist(),
                                                    hr, ndcg):
                w.writerows([label, group, position, k, repr(h), repr(g)]
                            for k, h, g in zip(report.ks, hrs, ndcgs))


def make_mgam_scorer(params: dict, cfg: Config, dataset: Dataset,
                     assignments, graph, masks=None):
    """Forward-only pairwise scorer of ablation masks over a trained model.

    A call returns (len(masks), n) scores (`masks` defaults to the full
    model).  The scorer reads constant tensors over the arrays of
    `params`, so its forwards record no tape, and `params` keep their
    `requires_grad`.  The global graph stream is computed once, and only
    if a mask reads the superset branch; a call's (group, item) rows are
    scored a chunk at a time, one scoring forward per chunk for every
    mask.  A chunk holds whole runs of one group's rows, as many as fit
    in `SCORE_CHUNK_ROWS` rows, and ends inside a run only when the run
    it starts in is longer than that.
    `score_fn.forward(pairs)` is that scoring forward's `ForwardResult`s
    for an (n, 2) array of (group, item) rows, on the same global rows.
    """
    masks = list(masks) if masks is not None else [AblationMask()]
    params = {name: ad.Tensor(p.data) for name, p in params.items()}
    global_rows = None
    if any(mask.use_suppe for mask in masks):
        global_rows = compute_global_rows(params, cfg, graph)

    def forward(pairs) -> list:
        return forward_batch(params, cfg, dataset, assignments, graph, pairs,
                             masks=masks, global_rows=global_rows)

    def score_fn(groups, items):
        groups, items = np.asarray(groups), np.asarray(items)
        scores = np.empty((len(masks), len(items)))
        # each chunk ends at the last run end within SCORE_CHUNK_ROWS rows
        # of its start, or SCORE_CHUNK_ROWS rows on if there is none
        ends = np.r_[0, np.flatnonzero(groups[1:] != groups[:-1]) + 1, len(groups)]
        start = 0
        while start < len(groups):
            end = ends[np.searchsorted(ends, start + SCORE_CHUNK_ROWS, "right") - 1]
            if end <= start:
                end = start + SCORE_CHUNK_ROWS
            chunk = slice(start, end)
            for row, result in zip(scores, forward(np.c_[groups[chunk], items[chunk]])):
                row[chunk] = result.scores.data
            start = end
        return scores

    score_fn.forward = forward
    return score_fn


# ---------------------------------------------------------------------------
# memory-based baselines: per-user dot-product scorer + score aggregation

def train_mf_scorer(dataset: Dataset, d: int, epochs: int, lr: float,
                    negatives: int, seed: int) -> tuple:
    """Train sigma(<e(u), e(v)>) on the user-item interactions with BCE.

    Returns (user_vecs, item_vecs) as plain arrays; aggregation into group
    scores happens only at inference.  Each epoch is one `fit_epoch` on its
    own STREAM_BASELINE stream, which refuses a non-finite loss or gradient.
    """
    rng = np.random.default_rng(substream(seed, STREAM_BASELINE))
    s = 1.0 / np.sqrt(d)
    params = {name: ad.Tensor(rng.uniform(-s, s, size=(n, d)), requires_grad=True)
              for name, n in (("user_emb", dataset.n_users), ("item_emb", dataset.n_items))}
    adam = init_adam(params)
    interactions = dataset.user_items
    if not len(interactions.indices):
        raise UsageError("no user-item interactions to train the baseline on")
    positives = np.c_[np.repeat(np.arange(dataset.n_users), interactions.lengths()),
                      interactions.indices]

    def loss_of(rows):
        u_vecs = ad.take(params["user_emb"], rows[:, 0])
        i_vecs = ad.take(params["item_emb"], rows[:, 1])
        logits = ad.tensor_sum(ad.mul(u_vecs, i_vecs), axis=1)
        return ad.tensor_mean(point_loss_from_logits(logits, rows[:, 2]))

    for epoch in range(epochs):
        fit_epoch(params, adam, positives, MF_BATCH_SIZE, lr, np.random.default_rng(
            substream(seed, STREAM_BASELINE, epoch + 1)), epoch,
            lambda users, rng: draw_unseen_rows(dataset.n_items, interactions, users, negatives,
                                                rng, lambda u: f"user {dataset.user_ids[u]}"),
            loss_of)
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
