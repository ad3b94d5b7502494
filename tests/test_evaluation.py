import dataclasses

import numpy as np
import pytest

import mgam.evaluation
from mgam.clustering import cluster_subsets
from mgam.config import STREAM_EVAL, Config, substream
from mgam.data import (Dataset, Rows, Split, SyntheticParams, generate_synthetic,
                       sample_negatives, split_leave_one_out)
from mgam.errors import NonFiniteError, SamplingError, UsageError
from mgam.evaluation import (SCORE_CHUNK_ROWS, MetricReport, draw_candidates,
                             evaluate, hit_and_gain, make_baseline_scorer,
                             make_mgam_scorer, rank_candidates, report_metrics,
                             train_mf_scorer, _ranking)
from mgam.graph import build_co_membership
from mgam.model import AblationMask, forward_batch, init_params, param_table
from mgam.training import load_checkpoint, read_manifest, save_checkpoint, train


# ---------------------------------------------------------------------------
# ranking

def test_rank_candidates_ordering():
    scores = {7: 0.9, 3: 0.1, 5: 0.5}
    items, ranked_scores = rank_candidates(lambda g, c: [[scores[i] for i in c]],
                                           0, [7, 3, 5], "m", "g")
    assert items.tolist() == [7, 5, 3]
    assert ranked_scores.tolist() == [0.9, 0.5, 0.1]


def test_rank_candidates_tie_breaks_by_item():
    items, _ = rank_candidates(lambda g, c: [[0.5, 0.5]], 0, [4, 2], "m", "g")
    assert items.tolist() == [2, 4]


def test_rank_candidates_singleton():
    items, _ = rank_candidates(lambda g, c: [[0.3]], 0, [9], "m", "g")
    assert 1 + np.flatnonzero(items == 9)[0] == 1


def test_rank_candidates_errors():
    with pytest.raises(UsageError):
        rank_candidates(lambda g, c: [[]], 0, [], "m", "g")
    with pytest.raises(UsageError):
        rank_candidates(lambda g, c: [[1, 2]], 0, [3, 3], "m", "g")
    with pytest.raises(UsageError, match=r"\(3,\) scores for 1 model"):
        rank_candidates(lambda g, c: [1, 2, 3], 0, [3, 4, 5], "m", "g")


# ---------------------------------------------------------------------------
# metrics

def test_hr_ndcg_values():
    hr, ndcg = hit_and_gain([3, 7, 1], [1, 5, 17])
    assert hr.tolist() == [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    assert ndcg[0, 1] == pytest.approx(0.5, abs=1e-12)  # 1/log2(4)
    assert ndcg[1, 1] == 0.0 and ndcg[0, 0] == 0.0
    assert ndcg[2].tolist() == [1.0, 1.0, 1.0]
    hr, ndcg = hit_and_gain(np.array([[2, 4], [6, 8]]), [3])
    assert hr.shape == ndcg.shape == (2, 2, 1)


def test_hr_ndcg_validation():
    with pytest.raises(UsageError, match="1-based"):
        hit_and_gain([3, 0], [5])
    with pytest.raises(UsageError, match="1-based"):
        hit_and_gain([3], [5, 0])


def test_metrics_match_brute_force_oracle():
    """Exact agreement with an independent formulation on random cases."""
    import math
    rng = np.random.default_rng(0)
    positions = rng.integers(1, 200, size=1000)
    ks = rng.integers(1, 25, size=40)
    hr, ndcg = hit_and_gain(positions, ks)
    assert hr.shape == ndcg.shape == (1000, 40)
    for i, position in enumerate(positions.tolist()):
        for j, k in enumerate(ks.tolist()):
            hr_oracle = 1.0 if position <= k else 0.0
            ndcg_oracle = (math.log(2) / math.log(position + 1)) if position <= k else 0.0
            assert hr[i, j] == hr_oracle
            assert ndcg[i, j] == pytest.approx(ndcg_oracle, abs=1e-14)


def test_metrics_monotone_in_k():
    rng = np.random.default_rng(1)
    hr, ndcg = hit_and_gain(rng.integers(1, 30, size=100), range(1, 31))
    assert (np.diff(hr, axis=1) >= 0).all()
    assert (np.diff(ndcg, axis=1) >= 0).all()


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
        return np.array([[1.0 if v == held[g] else 0.0
                          for g, v in zip(groups.tolist(), items.tolist())]])

    [report] = evaluate(scorer, ds, split, draw_candidates(ds, split, 30, seed=3), ["m"],
                        [5, 10])
    assert report.hr[5] == 1.0
    assert report.ndcg[5] == 1.0
    assert report.hr[10] == 1.0


def test_evaluate_matches_independent_sort_oracle():
    ds, truth, split = _planted(seed=2)

    def scorer(groups, items):
        # deterministic pseudo-model score
        return np.array([[np.sin(0.13 * g + 0.71 * v)
                          for g, v in zip(groups.tolist(), items.tolist())]])

    ks = [3, 5, 10]
    [report] = evaluate(scorer, ds, split, draw_candidates(ds, split, 25, seed=11), ["m"], ks)

    # independent recomputation: same negative streams, own ranking logic
    import math
    hr_sum = {k: 0.0 for k in ks}
    ndcg_sum = {k: 0.0 for k in ks}
    for group, positive in split.test:
        rng = np.random.default_rng(substream(11, STREAM_EVAL, group))
        negs = sample_negatives(ds, group, 25, rng=rng)
        cands = [positive] + negs
        scored = sorted(((float(scorer(np.array([group]), np.array([c]))[0, 0]), c)
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
        return ((groups * 31 + items * 17) % 97)[None] / 97

    [a] = evaluate(scorer, ds, split, draw_candidates(ds, split, 20, seed=13), ["m"], [5])
    [b] = evaluate(scorer, ds, split, draw_candidates(ds, split, 20, seed=13), ["m"], [5])
    assert a.hr == b.hr and a.ndcg == b.ndcg and np.array_equal(a.positions, b.positions)


def test_evaluate_requires_test_entries():
    ds, truth, split = _planted()
    split.test = []
    with pytest.raises(UsageError, match="no test entries"):
        evaluate(lambda g, c: np.zeros((1, len(c))), ds, split,
                 draw_candidates(ds, split, 10, seed=0), ["m"], [5])


def test_evaluate_positions_match_rank_candidates_with_ties():
    """`evaluate` counts the candidates ahead of each held-out item; every
    position is where `_ranking`'s order, and `rank_candidates`, put it,
    with many exact ties and the negatives in any column order, for one
    model and for four scored in one pass."""
    ds, truth, split = _planted(seed=3)
    rng = np.random.default_rng(21)
    drawn = draw_candidates(ds, split, 40, seed=5)
    groups = np.array([g for g, _ in split.test])
    for trial in range(30):
        models = (1, 4)[trial % 2]
        levels = np.array([(2, 3, 8, 1000)[(trial + m) % 4] for m in range(models)])
        tables = (rng.integers(0, levels[:, None, None], size=(models, ds.n_groups, ds.n_items))
                  / levels[:, None, None])

        def scorer(groups, items):
            return tables[:, groups, items]

        candidates = drawn.copy()
        candidates[:, 1:] = rng.permuted(drawn[:, 1:], axis=1)
        reports = evaluate(scorer, ds, split, candidates, [f"m{m}" for m in range(models)],
                           [1, 5])
        scores = tables[:, groups[:, None], candidates]   # (models, tests, 1 + k)
        orders = _ranking(np.broadcast_to(candidates, scores.shape), scores)
        for m, (report, order) in enumerate(zip(reports, orders)):
            positions = 1 + np.argmax(order == 0, axis=1)
            assert report.positions.dtype == np.int64
            assert report.positions.tolist() == positions.tolist()
            for group, ranking, position in zip(groups.tolist(), candidates,
                                                positions.tolist()):
                items, _ = rank_candidates(lambda g, c: tables[m:m + 1, g, c], group,
                                           ranking, "m", group)
                assert 1 + np.flatnonzero(items == ranking[0])[0] == position


def test_evaluate_refuses_bad_candidate_lists():
    ds, truth, split = _planted()
    drawn = draw_candidates(ds, split, 10, seed=0)

    def zeros(groups, items):
        return np.zeros((1, len(items)))

    swapped = drawn.copy()
    swapped[1, [0, 1]] = swapped[1, [1, 0]]
    bad = {rf"shape \({len(drawn) - 1}, 11\) for {len(drawn)} test entries": drawn[:-1],
           rf"shape \({len(drawn)}, 1\) for {len(drawn)} test entries": drawn[:, :1],
           rf"column 0 of group {ds.group_ids[split.test[1][0]]}'s candidates is not "
           rf"its held-out item {split.test[1][1]}$": swapped}
    for match, candidates in bad.items():
        with pytest.raises(UsageError, match=match):
            evaluate(zeros, ds, split, candidates, ["m"], [5])


def _draw_property_cases():
    """Planted datasets and draws, the last one with every unseen item of
    some group drawn."""
    for seed in range(4):
        ds, truth, split = _planted(seed=seed)
        yield ds, split, 10 + 7 * seed
    ds, truth, split = _planted(seed=5)
    yield ds, split, min(ds.n_items - len(ds.group_pos[g]) for g, _ in split.test)


def test_draw_candidates_table_properties():
    """The properties `evaluate` relies on without checking them: one
    (tests, 1 + k) int64 row per test entry, the held-out item in column
    0, k distinct negatives that are none of the group's positives."""
    for ds, split, k in _draw_property_cases():
        table = draw_candidates(ds, split, k, seed=k)
        assert table.dtype == np.int64 and table.shape == (len(split.test), 1 + k)
        assert table[:, 0].tolist() == [v for _, v in split.test]
        for (group, _), row in zip(split.test, table.tolist()):
            assert len(set(row)) == len(row)
            assert not set(row[1:]) & set(ds.group_pos[group].tolist())
            assert all(0 <= v < ds.n_items for v in row)


def test_draw_candidates_rows_do_not_depend_on_split_order():
    """Each row comes from its group's own stream: any order of
    `split.test` gives the same rows, permuted alike."""
    rng = np.random.default_rng(8)
    for ds, split, k in _draw_property_cases():
        table = draw_candidates(ds, split, k, seed=3)
        perm = rng.permutation(len(split.test))
        shuffled = dataclasses.replace(split, test=[split.test[i] for i in perm])
        assert np.array_equal(draw_candidates(ds, shuffled, k, seed=3), table[perm])


def test_draw_candidates_rows_are_one_group_draws():
    """One draw over every test group gives each row the negatives that a
    draw for its group alone on the group's STREAM_EVAL generator gives
    (the scalar `sample_negatives` that `benchmarks/checks.py` calls).  An
    empty test split gives a (0, 1 + k) table, and a group with too few
    unseen items is named."""
    for ds, split, k in _draw_property_cases():
        table = draw_candidates(ds, split, k, seed=7)
        for (g, _), row in zip(split.test, table.tolist()):
            assert row[1:] == sample_negatives(
                ds, g, k, np.random.default_rng(substream(7, STREAM_EVAL, g)))
    empty = draw_candidates(ds, dataclasses.replace(split, test=[]), k, seed=7)
    assert empty.dtype == np.int64 and empty.shape == (0, 1 + k)
    short = next(g for g, _ in split.test if ds.n_items - len(ds.group_pos[g]) == k)
    with pytest.raises(SamplingError, match=rf"^group {ds.group_ids[short]}: requested "
                                            rf"{k + 1} negatives but only {k} "):
        draw_candidates(ds, split, k + 1, seed=7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_are_refused_naming_the_group(bad):
    ds, truth, split = _planted()
    victim = split.test[3][0]

    def scorer(groups, items):
        scores = np.linspace(0.1, 0.9, len(items))
        scores[np.flatnonzero(groups == victim)[-1]] = bad
        return scores[None]

    with pytest.raises(NonFiniteError, match=rf"^model m: non-finite score {bad!r} "
                                             rf"for group {ds.group_ids[victim]}$"):
        evaluate(scorer, ds, split, draw_candidates(ds, split, 10, seed=0), ["m"], [5])
    with pytest.raises(NonFiniteError, match=rf"^model m: .* for group {victim}$"):
        rank_candidates(scorer, victim, [4, 2, 7], "m", victim)
    with pytest.raises(NonFiniteError, match=r"^model mgam-wo-gpe: .* for group g-7$"):
        rank_candidates(scorer, victim, [4, 2, 7], "mgam-wo-gpe", "g-7")


def test_evaluate_many_models_equals_one_model_runs():
    """A scorer of several models gives each model the report of its own
    run, against one draw of candidates; its row count must match."""
    ds, truth, split = _planted(seed=5)
    rng = np.random.default_rng(3)
    tables = [rng.integers(0, levels, size=(ds.n_groups, ds.n_items)) / levels
              for levels in (2, 7, 1000)]

    def scorer(groups, items):
        return np.stack([t[groups, items] for t in tables])

    drawn = draw_candidates(ds, split, 30, seed=9)
    reports = evaluate(scorer, ds, split, drawn, ["a", "b", "c"], [1, 5])
    assert len(reports) == 3
    for table, report in zip(tables, reports):
        [alone] = evaluate(lambda g, v, t=table: t[g, v][None], ds, split, drawn, ["a"],
                           [1, 5])
        assert (report.hr, report.ndcg) == (alone.hr, alone.ndcg)
        assert np.array_equal(report.positions, alone.positions)
    with pytest.raises(UsageError, match=r"\(3, \d+\) scores for 2 model"):
        evaluate(scorer, ds, split, drawn, ["a", "b"], [5])
    with pytest.raises(UsageError, match=r"\(3, \d+\) scores for 1 model"):
        evaluate(scorer, ds, split, drawn, ["a"], [5])


def test_non_finite_score_names_the_model_and_the_group():
    """A NaN parameter that only one mask reads: the error names that mask
    and the group, and the other masks score as they do alone."""
    ds, truth, split = _planted(seed=6)
    assignments = cluster_subsets(ds, 2, max_iters=100, restarts=3, seed=1)
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=1)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    params["suppe_proj_b"].data[0] = np.nan   # read by the superset branch only
    masks = [AblationMask(True, False, False), AblationMask(False, True, False),
             AblationMask(False, False, True)]
    labels = [m.label() for m in masks]
    assert labels[2] == "mgam-wo-subpe-gpe"
    scorer = make_mgam_scorer(params, cfg, ds, assignments, graph, masks)
    first = ds.group_ids[split.test[0][0]]
    with pytest.raises(NonFiniteError,
                       match=rf"^model mgam-wo-subpe-gpe: non-finite score nan "
                             rf"for group {first}$"):
        evaluate(scorer, ds, split, draw_candidates(ds, split, 10, seed=0), labels, [5])
    groups, items = np.repeat(np.arange(ds.n_groups), 3), np.arange(3 * ds.n_groups)
    scores = scorer(groups, items)
    assert np.isnan(scores[2]).all()
    for mask, row in zip(masks[:2], scores):
        alone = make_mgam_scorer(params, cfg, ds, assignments, graph, [mask])
        assert np.array_equal(row, alone(groups, items)[0])


def test_nan_gcn_weight_is_refused_naming_a_superset_model():
    """A NaN weight in the batch GCN stream reaches every score of the
    masks that read the superset branch (relu passes NaN on), so the
    error names one of them; the mask without that branch stays finite."""
    ds, truth, split = _planted(seed=6)
    assignments = cluster_subsets(ds, 2, max_iters=100, restarts=3, seed=1)
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=2)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    params["gcn_batch_w_1"].data[0, 0] = np.nan
    masks = [AblationMask(), AblationMask(use_subpe=False), AblationMask(use_gpe=False),
             AblationMask(use_suppe=False)]
    labels = [m.label() for m in masks]
    scorer = make_mgam_scorer(params, cfg, ds, assignments, graph, masks)
    with pytest.raises(NonFiniteError, match=r"^model (mgam|mgam-wo-subpe|mgam-wo-gpe): "
                                             r"non-finite score nan for group "):
        evaluate(scorer, ds, split, draw_candidates(ds, split, 10, seed=0), labels, [5])
    groups, items = np.repeat(np.arange(ds.n_groups), 3), np.arange(3 * ds.n_groups)
    scores = scorer(groups, items)
    assert np.isnan(scores[:3]).all() and np.isfinite(scores[3]).all()


def test_random_scorer_hr_within_3_sigma():
    """Random scores over 101 candidates: HR@5 concentrates on 5/101."""
    rng = np.random.default_rng(99)
    n = 10_000
    hits = 0
    for _ in range(n):
        items, _ = rank_candidates(
            lambda g, c, r=rng: r.random((1, len(c))), 0, list(range(101)), "random", 0)
        hits += 1 + np.flatnonzero(items == 0)[0] <= 5
    p = 5 / 101
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_mgam_scorer_matches_direct_forward():
    ds, truth, split = _planted(seed=6)
    assignments = cluster_subsets(ds, 2, max_iters=100, restarts=3, seed=1)
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=1)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    scorer = make_mgam_scorer(params, cfg, ds, assignments, graph)
    from mgam.model import forward_batch
    for g, v in [(0, 3), (5, 11), (11, 60)]:
        [direct] = forward_batch(params, cfg, ds, assignments, graph, [(g, v)])
        assert scorer([g], [v])[0, 0] == pytest.approx(float(direct.scores.data[0]),
                                                       abs=1e-15)


@pytest.mark.parametrize("source", ["trained", "checkpoint"])
def test_mgam_scorer_records_no_tape(tmp_path, monkeypatch, source):
    """A scorer over a just-trained model (as `sweep-subsets` scores) or a
    loaded checkpoint (as `eval` does) records no tape, in its global rows
    or its forwards, while a training forward on the same parameters does.
    The parameters keep `requires_grad` and their exact data."""
    ds, _, split = _planted(seed=6)
    assignments = cluster_subsets(ds, 2, max_iters=100, restarts=3, seed=1)
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=1, epochs=1, batch_size=16)
    params, _ = train(ds, split, assignments, graph, cfg)
    if source == "checkpoint":
        save_checkpoint(tmp_path, params, cfg.resolved(), ds, assignments, {})
        params = load_checkpoint(tmp_path, read_manifest(tmp_path),
                                 param_table(cfg, ds.n_users, ds.n_items, ds.n_groups))
    before = {name: p.data.copy() for name, p in params.items()}
    built = []
    real = mgam.evaluation.compute_global_rows
    monkeypatch.setattr(mgam.evaluation, "compute_global_rows",
                        lambda *args: built.append(real(*args)) or built[-1])
    pairs = [(0, 3), (5, 11), (5, 60)]
    scorer = make_mgam_scorer(params, cfg, ds, assignments, graph)
    [scored] = scorer.forward(pairs)
    scores = scorer(*zip(*pairs))
    [trained] = forward_batch(params, cfg, ds, assignments, graph, pairs)
    assert len(built) == 1
    for t in (built[0], scored.logits, scored.scores):
        assert not t.requires_grad and t.inputs == ()
    assert np.array_equal(scores[0], scored.scores.data)
    assert trained.scores.requires_grad and trained.scores.inputs
    for name, p in params.items():
        assert p.requires_grad and np.array_equal(p.data, before[name]), name


def test_mgam_scorer_chunks_rows_of_many_groups(monkeypatch):
    """Rows of many groups are scored a chunk at a time.  A chunk ends
    where the last run of one group's rows that fits in SCORE_CHUNK_ROWS
    rows ends, and cuts inside a run only when the run starting it is
    longer than that.  Each row scores as it scores alone."""
    ds, truth, split = _planted(seed=6)
    assignments = cluster_subsets(ds, 2, max_iters=100, restarts=3, seed=1)
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=1)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    import mgam.evaluation
    sizes = []
    real = mgam.evaluation.forward_batch

    def spy(*args, **kwargs):
        sizes.append(len(args[5]))
        assert kwargs["global_rows"] is not None   # a scoring forward
        return real(*args, **kwargs)

    monkeypatch.setattr(mgam.evaluation, "forward_batch", spy)
    rng = np.random.default_rng(2)
    # candidate-list-like runs, one of them longer than two chunks, and
    # runs of random length; neighbouring runs belong to different groups
    runs = [101] * 7 + [2 * SCORE_CHUNK_ROWS + 300] + rng.integers(1, 300, size=4).tolist()
    groups = np.repeat(rng.permutation(ds.n_groups)[:len(runs)], runs)
    n = len(groups)
    items = rng.integers(0, ds.n_items, size=n)
    scores = make_mgam_scorer(params, cfg, ds, assignments, graph)(groups, items)
    run_ends = np.cumsum(runs).tolist()
    expected, start = [], 0
    while start < n:
        within = [e for e in run_ends if start < e <= start + SCORE_CHUNK_ROWS]
        end = within[-1] if within else start + SCORE_CHUNK_ROWS
        expected.append(end - start)
        start = end
    assert sizes == expected
    assert sizes[:2] == [5 * 101, 2 * 101]                  # whole lists only
    assert sizes[2:4] == [SCORE_CHUNK_ROWS, SCORE_CHUNK_ROWS]   # inside the long run
    chunk_ends = np.cumsum(sizes)
    cuts = chunk_ends[~np.isin(chunk_ends, run_ends)]
    assert len(cuts) == 2
    for i in [*rng.choice(n, size=40, replace=False), *(cuts - 1), *cuts]:
        [alone] = real(params, cfg, ds, assignments, graph, [(groups[i], items[i])])
        assert abs(scores[0, i] - float(alone.scores.data[0])) < 1e-12


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
        assignments = cluster_subsets(ds, 3, max_iters=100, restarts=3, seed=1)
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
        peaks[n] = peak(lambda: evaluate(scorer, ds, part, drawn[:n], ["mgam"], [5]))
    extra_rows = 101 * (600 - 60)
    assert peaks[600] < 2 * peaks[60], peaks
    assert peaks[600] - peaks[60] < 64 * extra_rows, peaks

    ds, _ = generate_synthetic(SyntheticParams(
        n_users=60, n_items=5100, n_groups=4, positives_per_group=5), seed=1)
    scorer = model(ds)
    unseen = np.setdiff1d(np.arange(ds.n_items), ds.group_pos[0])[:5000]
    chunk = peak(lambda: scorer(np.zeros(SCORE_CHUNK_ROWS, dtype=np.int64),
                                unseen[:SCORE_CHUNK_ROWS]))
    ranked = peak(lambda: rank_candidates(scorer, 0, unseen, "mgam", 0))
    assert ranked < 1.25 * chunk, (ranked, chunk)


def test_many_mask_scoring_memory_stays_near_one_mask():
    """Scoring a chunk under the four `ablate` masks peaks within 1.5x of
    scoring it under the full model: the branches are shared, and only
    fusion and prediction run per mask."""
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
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=300, n_items=400, n_groups=600, positives_per_group=5), seed=1)
    assignments = cluster_subsets(ds, 3, max_iters=100, restarts=3, seed=1)
    graph = build_co_membership(ds.groups)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(0))
    rng = np.random.default_rng(4)
    # a chunk of whole and partial 101-row candidate lists of several groups
    groups = np.repeat(rng.choice(ds.n_groups, size=7, replace=False), 101)
    groups = groups[50:50 + SCORE_CHUNK_ROWS]
    items = rng.integers(0, ds.n_items, size=SCORE_CHUNK_ROWS)
    masks = [AblationMask(), AblationMask(use_subpe=False),
             AblationMask(use_gpe=False), AblationMask(use_suppe=False)]
    one = make_mgam_scorer(params, cfg, ds, assignments, graph, masks[:1])
    four = make_mgam_scorer(params, cfg, ds, assignments, graph, masks)
    assert np.array_equal(four(groups, items)[:1], one(groups, items))
    one_peak, four_peak = peak(lambda: one(groups, items)), peak(lambda: four(groups, items))
    assert four_peak < 1.5 * one_peak, (four_peak, one_peak)


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
        assert make_baseline_scorer(u, v, ds, [s])([0], [0])[0, 0] == pytest.approx(
            expect[s], abs=1e-12)
    one, u_one = _one_group_dataset(1), _logit(np.array([[0.4]]))
    for s in ("avg", "lm", "ms"):
        score = make_baseline_scorer(u_one, v, one, [s])([0], [0])[0, 0]
        assert score == pytest.approx(0.4, abs=1e-12)


def test_baseline_aggregate_permutation_invariant():
    rng = np.random.default_rng(0)
    ds = _one_group_dataset(6)
    u = rng.normal(size=(6, 4))
    v = rng.normal(size=(3, 4))
    for s in ("avg", "lm", "ms"):
        a = make_baseline_scorer(u, v, ds, [s])([0, 0, 0], [0, 1, 2])
        b = make_baseline_scorer(u[rng.permutation(6)], v, ds, [s])([0, 0, 0], [0, 1, 2])
        assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_baseline_aggregate_errors():
    ds = _one_group_dataset()
    with pytest.raises(UsageError, match="median"):
        make_baseline_scorer(np.zeros((2, 1)), np.zeros((3, 1)), ds, ["avg", "median"])


def test_baseline_scorer_consistent_with_aggregate():
    ds, truth, split = _planted(seed=7)
    rng = np.random.default_rng(0)
    u = rng.normal(size=(ds.n_users, 4))
    v = rng.normal(size=(ds.n_items, 4))
    for strategy, reduce in (("avg", np.mean), ("lm", np.min), ("ms", np.max)):
        [scores] = make_baseline_scorer(u, v, ds, [strategy])([2, 2], [5, 9])
        members = ds.groups[2]
        for j, item in enumerate([5, 9]):
            member_scores = 1 / (1 + np.exp(-(u[members] @ v[item])))
            assert scores[j] == pytest.approx(reduce(member_scores), abs=1e-12)
        # rows of several groups, interleaved
        groups, items = [2, 0, 2, 1, 0], [5, 9, 9, 3, 5]
        [scores] = make_baseline_scorer(u, v, ds, [strategy])(groups, items)
        for j, (g, item) in enumerate(zip(groups, items)):
            member_scores = 1 / (1 + np.exp(-(u[ds.groups[g]] @ v[item])))
            assert scores[j] == pytest.approx(reduce(member_scores), abs=1e-12)


def test_baseline_strategies_in_one_pass_equal_separate_scorers():
    ds, truth, split = _planted(seed=7)
    rng = np.random.default_rng(1)
    u = rng.normal(size=(ds.n_users, 4))
    v = rng.normal(size=(ds.n_items, 4))
    groups = rng.integers(0, ds.n_groups, size=200)
    items = rng.integers(0, ds.n_items, size=200)
    scores = make_baseline_scorer(u, v, ds, ["avg", "lm", "ms"])(groups, items)
    assert scores.shape == (3, 200)
    for strategy, row in zip(["avg", "lm", "ms"], scores):
        assert np.array_equal(row, make_baseline_scorer(u, v, ds, [strategy])(groups, items)[0])


def test_mf_baseline_learns_user_preferences():
    ds, truth, split = _planted(seed=8)
    u, v = train_mf_scorer(ds, d=16, epochs=30, lr=0.01, negatives=2, seed=5)
    scorer = make_baseline_scorer(u, v, ds, ["avg"])
    [report] = evaluate(scorer, ds, split, draw_candidates(ds, split, 30, seed=3),
                        ["mf-avg"], [5])
    assert report.hr[5] > 5 / 31 + 0.1  # clearly better than random


def test_write_metrics_csv(tmp_path, capsys):
    ds = Dataset(n_users=1, n_items=10, n_groups=2, user_items=Rows.from_lists([[0]]),
                 groups=Rows.from_lists([[0], [0]]), group_pos=Rows.from_lists([[3], [9]]),
                 user_ids=["u"], item_ids=[str(v) for v in range(10)],
                 group_ids=["g0", "g1"])
    split = Split(train=np.empty((0, 2), dtype=np.int64), test=[(1, 9), (0, 3)])
    report = MetricReport(ks=[5], hr={5: 0.5}, ndcg={5: 0.25}, positions=np.array([3, 9]))
    report_metrics(tmp_path, ["mgam"], [report], ds, split, seed=1, detail=False)
    assert capsys.readouterr().out == "mgam: HR@5=0.5000 NDCG@5=0.2500 (2 groups)\n"
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "model,K,HR,NDCG,n_groups,seed"
    assert lines[1] == "mgam,5,0.5,0.25,2,1"
    assert not (tmp_path / "metrics_detail.csv").exists()
    report_metrics(tmp_path, ["mgam"], [report], ds, split, seed=1, detail=True)
    assert (tmp_path / "metrics_detail.csv").read_text().splitlines() == [
        "model,group,position,K,HR,NDCG", "mgam,g1,3,5,1.0,0.5", "mgam,g0,9,5,0.0,0.0"]


def test_baseline_sampler_error_names_the_user():
    # user "u1" has seen 2 of 3 items, so 2 negatives cannot be drawn
    ds = Dataset(n_users=2, n_items=3, n_groups=1,
                 user_items=Rows.from_lists([[0], [0, 1]]),
                 groups=Rows.from_lists([[0, 1]]), group_pos=Rows.from_lists([[0]]),
                 user_ids=["u0", "u1"],
                 item_ids=["0", "1", "2"], group_ids=["0"])
    with pytest.raises(SamplingError, match="^user u1: requested 2 negatives"):
        train_mf_scorer(ds, d=4, epochs=1, lr=0.01, negatives=2, seed=0)
