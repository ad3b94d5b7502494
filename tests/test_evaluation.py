import dataclasses

import numpy as np
import pytest

from mgam.clustering import cluster_subsets
from mgam.config import STREAM_EVAL, Config, substream
from mgam.data import (Dataset, Rows, SyntheticParams, generate_synthetic,
                       sample_negatives, split_leave_one_out)
from mgam.errors import NonFiniteError, SamplingError, UsageError
from mgam.evaluation import (SCORE_CHUNK_ROWS, MetricReport, draw_candidates,
                             evaluate, hr_at_k, make_baseline_scorer,
                             make_mgam_scorer, ndcg_at_k, rank_candidates,
                             train_mf_scorer, write_metrics_csv)
from mgam.graph import build_co_membership
from mgam.model import init_params


# ---------------------------------------------------------------------------
# ranking

def test_rank_candidates_ordering():
    scores = {7: 0.9, 3: 0.1, 5: 0.5}
    ranked = rank_candidates(lambda g, c: [scores[i] for i in c], 0, [7, 3, 5])
    assert ranked.items == [7, 5, 3]


def test_rank_candidates_tie_breaks_by_item():
    ranked = rank_candidates(lambda g, c: [0.5, 0.5], 0, [4, 2])
    assert ranked.items == [2, 4]


def test_rank_candidates_singleton():
    ranked = rank_candidates(lambda g, c: [0.3], 0, [9], target=9)
    assert ranked.position == 1


def test_rank_candidates_errors():
    with pytest.raises(UsageError):
        rank_candidates(lambda g, c: [], 0, [])
    with pytest.raises(UsageError):
        rank_candidates(lambda g, c: [1, 2], 0, [3, 3])


# ---------------------------------------------------------------------------
# metrics

def test_hr_ndcg_values():
    assert hr_at_k(3, 5) == 1.0
    assert ndcg_at_k(3, 5) == pytest.approx(0.5, abs=1e-12)  # 1/log2(4)
    assert hr_at_k(7, 5) == 0.0
    assert ndcg_at_k(7, 5) == 0.0
    assert hr_at_k(1, 1) == 1.0
    assert ndcg_at_k(1, 17) == 1.0


def test_hr_ndcg_validation():
    with pytest.raises(UsageError):
        hr_at_k(0, 5)
    with pytest.raises(UsageError):
        ndcg_at_k(3, 0)


def test_metrics_match_brute_force_oracle():
    """Exact agreement with an independent formulation on random cases."""
    import math
    rng = np.random.default_rng(0)
    for _ in range(1000):
        position = int(rng.integers(1, 200))
        k = int(rng.integers(1, 25))
        hr_oracle = 1.0 if position <= k else 0.0
        ndcg_oracle = (math.log(2) / math.log(position + 1)) if position <= k else 0.0
        assert hr_at_k(position, k) == hr_oracle
        assert ndcg_at_k(position, k) == pytest.approx(ndcg_oracle, abs=1e-14)


def test_metrics_monotone_in_k():
    rng = np.random.default_rng(1)
    for _ in range(100):
        position = int(rng.integers(1, 30))
        hrs = [hr_at_k(position, k) for k in range(1, 31)]
        ndcgs = [ndcg_at_k(position, k) for k in range(1, 31)]
        assert hrs == sorted(hrs)
        assert ndcgs == sorted(ndcgs)


# ---------------------------------------------------------------------------
# protocol

def _planted(seed=0):
    ds, truth = generate_synthetic(SyntheticParams(
        n_users=40, n_items=120, n_groups=12, group_size_range=(3, 5),
        n_cohorts=2, positives_per_group=6), seed=seed)
    split = split_leave_one_out(ds, [seed, 1])
    return ds, truth, split


def test_evaluate_perfect_scorer_maxes_metrics():
    ds, truth, split = _planted()
    held = dict(split.test)

    def scorer(groups, items):
        return np.array([1.0 if v == held[g] else 0.0
                         for g, v in zip(groups.tolist(), items.tolist())])

    report = evaluate(scorer, ds, split, 30, [5, 10], seed=3)
    assert report.hr[5] == 1.0
    assert report.ndcg[5] == 1.0
    assert report.hr[10] == 1.0


def test_evaluate_matches_independent_sort_oracle():
    ds, truth, split = _planted(seed=2)

    def scorer(groups, items):
        # deterministic pseudo-model score
        return np.array([np.sin(0.13 * g + 0.71 * v)
                         for g, v in zip(groups.tolist(), items.tolist())])

    ks = [3, 5, 10]
    report = evaluate(scorer, ds, split, 25, ks, seed=11)

    # independent recomputation: same negative streams, own ranking logic
    import math
    hr_sum = {k: 0.0 for k in ks}
    ndcg_sum = {k: 0.0 for k in ks}
    for group, positive in split.test:
        rng = np.random.default_rng(substream(11, STREAM_EVAL, group))
        negs = sample_negatives(ds, group, 25, rng=rng)
        cands = [positive] + negs
        scored = sorted(((float(scorer(np.array([group]), np.array([c]))[0]), c)
                         for c in cands),
                        key=lambda t: (-t[0], t[1]))
        position = [c for _, c in scored].index(positive) + 1
        for k in ks:
            hr_sum[k] += 1.0 if position <= k else 0.0
            ndcg_sum[k] += (math.log(2) / math.log(position + 1)
                            if position <= k else 0.0)
    for k in ks:
        assert report.hr[k] == hr_sum[k] / len(split.test)
        assert report.ndcg[k] == pytest.approx(ndcg_sum[k] / len(split.test), abs=1e-12)


def test_evaluate_deterministic():
    ds, truth, split = _planted(seed=4)

    def scorer(groups, items):
        return ((groups * 31 + items * 17) % 97) / 97

    a = evaluate(scorer, ds, split, 20, [5], seed=13)
    b = evaluate(scorer, ds, split, 20, [5], seed=13)
    assert a.hr == b.hr and a.ndcg == b.ndcg and a.per_group == b.per_group


def test_evaluate_requires_test_entries():
    ds, truth, split = _planted()
    split.test = []
    with pytest.raises(UsageError):
        evaluate(lambda g, c: np.zeros(len(c)), ds, split, 10, [5], seed=0)


def test_evaluate_positions_match_rank_candidates_with_ties():
    """The array position formula gives `rank_candidates`' lexsort order,
    with many exact ties and the held-out item anywhere in its list."""
    ds, truth, split = _planted(seed=3)
    rng = np.random.default_rng(21)
    drawn = draw_candidates(ds, split, 40, seed=5)
    for trial in range(30):
        levels = (2, 3, 8, 1000)[trial % 4]
        table = rng.integers(0, levels, size=(ds.n_groups, ds.n_items)) / levels

        def scorer(groups, items):
            return table[groups, items]

        lists = [list(rng.permutation(c)) for c in drawn]
        report = evaluate(scorer, ds, split, 40, [1, 5], seed=5, candidates=lists)
        for (group, positive), ranking, (g, position) in zip(
                split.test, lists, report.per_group, strict=True):
            assert g == group and type(position) is int
            assert position == rank_candidates(scorer, group, ranking,
                                               target=positive).position


def test_evaluate_refuses_bad_candidate_lists():
    ds, truth, split = _planted()
    drawn = draw_candidates(ds, split, 10, seed=0)

    def zeros(groups, items):
        return np.zeros(len(items))

    bad = {"empty": [[]] + drawn[1:],
           "distinct": [drawn[0] + [drawn[0][1]]] + drawn[1:],
           "held-out item": [drawn[0], drawn[1][1:]] + drawn[2:],
           "candidate lists": drawn[:-1]}
    for match, lists in bad.items():
        with pytest.raises(UsageError, match=match):
            evaluate(zeros, ds, split, 10, [5], seed=0, candidates=lists)
    # an item in two groups' lists is no duplicate
    shared = next(v for v in drawn[0] if v not in drawn[1])
    assert evaluate(zeros, ds, split, 10, [5], seed=0,
                    candidates=[drawn[0], drawn[1] + [shared]] + drawn[2:]).n_groups \
        == len(split.test)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_are_refused_naming_the_group(bad):
    ds, truth, split = _planted()
    victim = split.test[3][0]

    def scorer(groups, items):
        scores = np.linspace(0.1, 0.9, len(items))
        scores[np.flatnonzero(groups == victim)[-1]] = bad
        return scores

    with pytest.raises(NonFiniteError,
                       match=rf"non-finite score {bad!r} for group {ds.group_ids[victim]}$"):
        evaluate(scorer, ds, split, 10, [5], seed=0)
    with pytest.raises(NonFiniteError, match=rf"for group {victim}$"):
        rank_candidates(scorer, victim, [4, 2, 7])
    with pytest.raises(NonFiniteError, match=r"for group g-7$"):
        rank_candidates(scorer, victim, [4, 2, 7], group_id="g-7")


def test_random_scorer_hr_within_3_sigma():
    """Random scores over 101 candidates: HR@5 concentrates on 5/101."""
    rng = np.random.default_rng(99)
    n = 10_000
    hits = 0
    for _ in range(n):
        ranked = rank_candidates(
            lambda g, c, r=rng: r.random(len(c)), 0, list(range(101)), target=0)
        hits += ranked.position <= 5
    p = 5 / 101
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_mgam_scorer_matches_direct_forward():
    ds, truth, split = _planted(seed=6)
    assignments = cluster_subsets(ds, 2, seed=1)
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=1)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    scorer = make_mgam_scorer(params, cfg, ds, assignments, graph)
    from mgam.model import forward_batch
    for g, v in [(0, 3), (5, 11), (11, 60)]:
        direct = forward_batch(params, cfg, ds, assignments, graph, [(g, v)])
        assert scorer([g], [v])[0] == pytest.approx(float(direct.scores.data[0]),
                                                    abs=1e-15)


def test_mgam_scorer_chunks_rows_of_many_groups(monkeypatch):
    """Rows of many groups are scored SCORE_CHUNK_ROWS at a time, each row
    as it scores alone."""
    ds, truth, split = _planted(seed=6)
    assignments = cluster_subsets(ds, 2, seed=1)
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=1)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    import mgam.evaluation
    sizes = []
    real = mgam.evaluation.forward_batch

    def spy(*args, **kwargs):
        sizes.append(len(args[5]))
        assert kwargs["isolated"]
        return real(*args, **kwargs)

    monkeypatch.setattr(mgam.evaluation, "forward_batch", spy)
    rng = np.random.default_rng(2)
    n = 2 * SCORE_CHUNK_ROWS + 37
    groups = rng.integers(0, ds.n_groups, size=n)
    items = rng.integers(0, ds.n_items, size=n)
    scores = make_mgam_scorer(params, cfg, ds, assignments, graph)(groups, items)
    assert sizes == [SCORE_CHUNK_ROWS, SCORE_CHUNK_ROWS, 37]
    for i in rng.choice(n, size=40, replace=False):
        alone = real(params, cfg, ds, assignments, graph, [(groups[i], items[i])])
        assert abs(scores[i] - float(alone.scores.data[0])) < 1e-12


def test_scoring_memory_is_bounded_by_a_chunk():
    """`evaluate` through the mgam scorer peaks at about the same level for
    60 and 600 test groups: per extra row it holds a few int64 and float
    arrays, not a share of a forward (about 5 KB per row at d = 32).  A
    `recommend`-style ranking of 5,000 items stays within one chunk's
    peak."""
    import tracemalloc

    def peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cfg = Config(embedding_dim=32, num_subsets=3, gcn_layers=2)

    def model(ds):
        assignments = cluster_subsets(ds, 3, seed=1)
        params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                             np.random.default_rng(0))
        return make_mgam_scorer(params, cfg, ds, assignments, build_co_membership(ds.groups))

    ds, _ = generate_synthetic(SyntheticParams(
        n_users=300, n_items=400, n_groups=600, positives_per_group=5), seed=1)
    split = split_leave_one_out(ds, 2)
    assert len(split.test) == 600
    scorer = model(ds)
    drawn = draw_candidates(ds, split, 100, seed=3)
    peaks = {}
    for n in (60, 600):
        part = dataclasses.replace(split, test=split.test[:n])
        peaks[n] = peak(lambda: evaluate(scorer, ds, part, 100, [5], 3,
                                         candidates=drawn[:n]))
    extra_rows = 101 * (600 - 60)
    assert peaks[600] < 2 * peaks[60], peaks
    assert peaks[600] - peaks[60] < 64 * extra_rows, peaks

    ds, _ = generate_synthetic(SyntheticParams(
        n_users=60, n_items=5100, n_groups=4, positives_per_group=5), seed=1)
    scorer = model(ds)
    unseen = np.setdiff1d(np.arange(ds.n_items), ds.group_pos[0])[:5000]
    chunk = peak(lambda: scorer(np.zeros(SCORE_CHUNK_ROWS, dtype=np.int64),
                                unseen[:SCORE_CHUNK_ROWS]))
    ranked = peak(lambda: rank_candidates(scorer, 0, unseen))
    assert ranked < 1.25 * chunk, (ranked, chunk)


# ---------------------------------------------------------------------------
# baselines

def _one_group_dataset(n_members=2):
    """One group of `n_members` users over 3 items, no interactions."""
    return Dataset(n_users=n_members, n_items=3, n_groups=1,
                   user_items=Rows.from_lists([[] for _ in range(n_members)]),
                   groups=Rows.from_lists([list(range(n_members))]),
                   group_pos=Rows.from_lists([[]]),
                   user_ids=[str(u) for u in range(n_members)],
                   item_ids=["a", "b", "c"], group_ids=["g"])


def _logit(p):
    return np.log(p / (1 - p))


def test_baseline_aggregate_values():
    # member vectors are 1-D logits against a unit item vector
    ds = _one_group_dataset()
    u = _logit(np.array([[0.2], [0.8]]))
    v = np.array([[1.0], [0.0], [0.0]])
    expect = {"avg": 0.5, "lm": 0.2, "ms": 0.8}
    for s in ("avg", "lm", "ms"):
        assert make_baseline_scorer(u, v, ds, s)([0], [0])[0] == pytest.approx(
            expect[s], abs=1e-12)
    one, u_one = _one_group_dataset(1), _logit(np.array([[0.4]]))
    for s in ("avg", "lm", "ms"):
        score = make_baseline_scorer(u_one, v, one, s)([0], [0])[0]
        assert score == pytest.approx(0.4, abs=1e-12)


def test_baseline_aggregate_permutation_invariant():
    rng = np.random.default_rng(0)
    ds = _one_group_dataset(6)
    u = rng.normal(size=(6, 4))
    v = rng.normal(size=(3, 4))
    for s in ("avg", "lm", "ms"):
        a = make_baseline_scorer(u, v, ds, s)([0, 0, 0], [0, 1, 2])
        b = make_baseline_scorer(u[rng.permutation(6)], v, ds, s)([0, 0, 0], [0, 1, 2])
        assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_baseline_aggregate_errors():
    ds = _one_group_dataset()
    with pytest.raises(UsageError, match="median"):
        make_baseline_scorer(np.zeros((2, 1)), np.zeros((3, 1)), ds, "median")


def test_baseline_scorer_consistent_with_aggregate():
    ds, truth, split = _planted(seed=7)
    rng = np.random.default_rng(0)
    u = rng.normal(size=(ds.n_users, 4))
    v = rng.normal(size=(ds.n_items, 4))
    for strategy, reduce in (("avg", np.mean), ("lm", np.min), ("ms", np.max)):
        scorer = make_baseline_scorer(u, v, ds, strategy)
        scores = scorer([2, 2], [5, 9])
        members = ds.groups[2]
        for j, item in enumerate([5, 9]):
            member_scores = 1 / (1 + np.exp(-(u[members] @ v[item])))
            assert scores[j] == pytest.approx(reduce(member_scores), abs=1e-12)
        # rows of several groups, interleaved
        groups, items = [2, 0, 2, 1, 0], [5, 9, 9, 3, 5]
        scores = scorer(groups, items)
        for j, (g, item) in enumerate(zip(groups, items)):
            member_scores = 1 / (1 + np.exp(-(u[ds.groups[g]] @ v[item])))
            assert scores[j] == pytest.approx(reduce(member_scores), abs=1e-12)


def test_mf_baseline_learns_user_preferences():
    ds, truth, split = _planted(seed=8)
    u, v = train_mf_scorer(ds, d=16, epochs=30, lr=0.01, negatives=2, seed=5)
    scorer = make_baseline_scorer(u, v, ds, "avg")
    report = evaluate(scorer, ds, split, 30, [5], seed=3)
    assert report.hr[5] > 5 / 31 + 0.1  # clearly better than random


def test_write_metrics_csv(tmp_path):
    report = MetricReport(ks=[5], hr={5: 0.5}, ndcg={5: 0.25}, n_groups=4,
                          per_group=[(0, 3), (1, 9)])
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [("mgam", report)], seed=1)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "model,K,HR,NDCG,n_groups,seed"
    assert lines[1] == "mgam,5,0.5,0.25,4,1"


def test_baseline_sampler_error_names_the_user():
    # user "u1" has seen 2 of 3 items, so 2 negatives cannot be drawn
    ds = Dataset(n_users=2, n_items=3, n_groups=1,
                 user_items=Rows.from_lists([[0], [0, 1]]),
                 groups=Rows.from_lists([[0, 1]]), group_pos=Rows.from_lists([[0]]),
                 user_ids=["u0", "u1"],
                 item_ids=["0", "1", "2"], group_ids=["0"])
    with pytest.raises(SamplingError, match="^user u1: requested 2 negatives"):
        train_mf_scorer(ds, d=4, epochs=1, lr=0.01, negatives=2, seed=0)
