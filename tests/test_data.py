import numpy as np
import pytest

from mgam.data import (Dataset, SyntheticParams, generate_synthetic,
                       load_dataset, sample_negatives,
                       split_leave_one_out, write_dataset)
from mgam.errors import DataError, SamplingError, UsageError


def _write(tmp_path, user_item, groups, group_items):
    (tmp_path / "user_item.tsv").write_text(user_item, encoding="utf-8")
    (tmp_path / "groups.tsv").write_text(groups, encoding="utf-8")
    (tmp_path / "group_items.tsv").write_text(group_items, encoding="utf-8")
    return tmp_path


# ---------------------------------------------------------------------------
# loaders

def test_load_user_item_counts(tmp_path):
    d = _write(tmp_path, "7\t5\n9\t5\n", "g1\t7\n", "g1\t5\n")
    ds = load_dataset(d)
    assert (ds.n_users, ds.n_items) == (2, 1)
    assert sum(len(x) for x in ds.user_items) == 2
    assert ds.user_ids == ["7", "9"]


def test_load_user_item_dedup(tmp_path):
    d = _write(tmp_path, "7\t5\n7\t5\n", "g1\t7\n", "g1\t5\n")
    ds = load_dataset(d)
    assert ds.user_items == [[0]]


def test_load_user_item_wrong_delimiter_names_line(tmp_path):
    d = _write(tmp_path, "7,5\n", "g1\t7\n", "g1\t5\n")
    with pytest.raises(DataError, match="user_item.tsv: line 1"):
        load_dataset(d)


def test_load_user_item_empty_file(tmp_path):
    d = _write(tmp_path, "# only a comment\n", "g1\t7\n", "g1\t5\n")
    with pytest.raises(DataError, match="user_item.tsv: no interaction records"):
        load_dataset(d)


def test_load_user_item_third_column_tolerated(tmp_path):
    d = _write(tmp_path, "7\t5\t123456\n", "g1\t7\n", "g1\t5\n")
    ds = load_dataset(d)
    assert (ds.n_users, ds.n_items) == (1, 1)
    assert ds.user_items == [[0]]


def test_load_dataset_groups(tmp_path):
    d = _write(tmp_path, "7\t5\n9\t5\n", "g1\t7,9\n", "g1\t5\n")
    ds = load_dataset(d)
    assert ds.n_groups == 1
    assert ds.groups[0] == [0, 1]
    assert ds.group_pos[0] == [0]


def test_load_dataset_duplicate_member_collapses(tmp_path):
    d = _write(tmp_path, "7\t5\n", "g1\t7,7\n", "g1\t5\n")
    ds = load_dataset(d)
    assert ds.groups[0] == [0]


def test_load_dataset_empty_member_list_rejected(tmp_path):
    d = _write(tmp_path, "7\t5\n", "g1\t\n", "g1\t5\n")
    with pytest.raises(DataError):
        load_dataset(d)


def test_load_dataset_unknown_group_in_items(tmp_path):
    d = _write(tmp_path, "7\t5\n", "g1\t7\n", "g2\t5\n")
    with pytest.raises(DataError, match="unknown group"):
        load_dataset(d)


def test_load_dataset_duplicate_group_items_collapse(tmp_path):
    d = _write(tmp_path, "7\t5\n", "g1\t7\n", "g1\t5\ng1\t5\n")
    ds = load_dataset(d)
    assert ds.group_pos[0] == [0]


def test_load_dataset_group_only_users_registered(tmp_path):
    d = _write(tmp_path, "7\t5\n", "g1\t7,42\n", "g1\t5\n")
    ds = load_dataset(d)
    assert ds.n_users == 2
    u42 = ds.user_index["42"]
    assert ds.user_items[u42] == []


def test_load_dataset_comments_and_blanks_skipped(tmp_path):
    d = _write(tmp_path, "# c\n\n7\t5\n", "g1\t7\n", "# c\ng1\t5\n")
    ds = load_dataset(d)
    assert ds.n_users == 1 and ds.n_items == 1


def test_numeric_id_ordering(tmp_path):
    d = _write(tmp_path, "10\t5\n9\t5\n", "g1\t10,9\n", "g1\t5\n")
    ds = load_dataset(d)
    assert ds.user_ids == ["9", "10"]  # numeric, not lexicographic


def test_remap_roundtrip_bijection(tmp_path):
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=30, n_items=40, n_groups=8, group_size_range=(2, 4),
        n_cohorts=2, positives_per_group=5), seed=3)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    write_dataset(ds, d1)
    loaded = load_dataset(d1)
    write_dataset(loaded, d2)
    assert load_dataset(d2) == loaded
    for name in ("user_item.tsv", "groups.tsv", "group_items.tsv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# ---------------------------------------------------------------------------
# split

def test_split_two_positives_forced(tmp_path):
    ds = Dataset(n_users=2, n_items=3, n_groups=1, user_items=[[0], [1]],
                 groups=[[0, 1]], group_pos=[[0, 2]],
                 user_ids=["0", "1"], item_ids=["0", "1", "2"], group_ids=["0"])
    split = split_leave_one_out(ds, 0)
    assert len(split.test) == 1
    g, held = split.test[0]
    rest = [i.item for i in split.train if i.group == 0]
    assert sorted(rest + [held]) == [0, 2]


def test_split_single_positive_stays_in_train():
    ds = Dataset(n_users=1, n_items=2, n_groups=1, user_items=[[0]],
                 groups=[[0]], group_pos=[[1]],
                 user_ids=["0"], item_ids=["0", "1"], group_ids=["0"])
    split = split_leave_one_out(ds, 0)
    assert split.test == []
    assert [(i.group, i.item, i.label) for i in split.train] == [(0, 1, 1)]


def test_split_deterministic_and_union_preserved():
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=40, n_items=60, n_groups=12, group_size_range=(3, 5),
        n_cohorts=2, positives_per_group=6), seed=1)
    s1 = split_leave_one_out(ds, 9)
    s2 = split_leave_one_out(ds, 9)
    assert [(i.group, i.item) for i in s1.train] == [(i.group, i.item) for i in s2.train]
    assert s1.test == s2.test
    # exactly one held out per eligible group; union restores the positives
    held = dict(s1.test)
    for g in range(ds.n_groups):
        train_g = sorted(i.item for i in s1.train if i.group == g)
        full = sorted(train_g + ([held[g]] if g in held else []))
        assert full == ds.group_pos[g]
        if len(ds.group_pos[g]) >= 2:
            assert g in held


# ---------------------------------------------------------------------------
# negative sampling

def _tiny_ds():
    return Dataset(n_users=1, n_items=3, n_groups=1, user_items=[[0]],
                   groups=[[0]], group_pos=[[0]],
                   user_ids=["0"], item_ids=["0", "1", "2"], group_ids=["0"])


def test_sample_negatives_forced_set():
    out = sample_negatives(_tiny_ds(), 0, 2, rng=np.random.default_rng(0))
    assert sorted(out) == [1, 2]


def test_sample_negatives_zero():
    assert sample_negatives(_tiny_ds(), 0, 0, rng=np.random.default_rng(0)) == []


def test_sample_negatives_insufficient():
    with pytest.raises(SamplingError):
        sample_negatives(_tiny_ds(), 0, 3, rng=np.random.default_rng(0))


def test_sample_negatives_respects_exclude():
    with pytest.raises(SamplingError):
        sample_negatives(_tiny_ds(), 0, 2, exclude={1}, rng=np.random.default_rng(0))
    out = sample_negatives(_tiny_ds(), 0, 1, exclude={1}, rng=np.random.default_rng(0))
    assert out == [2]


def test_sample_negatives_never_returns_positive():
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=20, n_items=30, n_groups=6, group_size_range=(2, 4),
        n_cohorts=2, positives_per_group=4), seed=5)
    rng = np.random.default_rng(1)
    for g in range(ds.n_groups):
        for _ in range(20):
            for v in sample_negatives(ds, g, 5, rng=rng):
                assert v not in ds.group_pos[g]


def test_sample_negatives_same_stream_identical():
    ds = _tiny_ds()
    a = [sample_negatives(ds, 0, 1, rng=np.random.default_rng([4, 2]))[0]
         for _ in range(10)]
    b = [sample_negatives(ds, 0, 1, rng=np.random.default_rng([4, 2]))[0]
         for _ in range(10)]
    assert a == b


def test_sample_negatives_uniformity_chi_square():
    """10^4 single draws over 10 eligible items: every frequency within
    3 sigma of uniform."""
    ds = Dataset(n_users=1, n_items=12, n_groups=1, user_items=[[0]],
                 groups=[[0]], group_pos=[[0, 1]],
                 user_ids=["0"], item_ids=[str(i) for i in range(12)],
                 group_ids=["0"])
    rng = np.random.default_rng(8)
    counts = np.zeros(12)
    n = 10_000
    for _ in range(n):
        counts[sample_negatives(ds, 0, 1, rng=rng)[0]] += 1
    assert counts[0] == 0 and counts[1] == 0
    expected = n / 10
    sigma = np.sqrt(n * 0.1 * 0.9)
    assert np.abs(counts[2:] - expected).max() <= 3 * sigma


# ---------------------------------------------------------------------------
# synthetic generation

def test_synthetic_counts_exact():
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=200, n_items=500, n_groups=60, n_cohorts=3), seed=0)
    assert (ds.n_users, ds.n_items, ds.n_groups) == (200, 500, 60)
    assert all(len(g) >= 1 for g in ds.groups)
    assert all(len(p) == 10 for p in ds.group_pos)


def test_synthetic_degenerate_single_cohort_no_noise():
    ds, truth = generate_synthetic(SyntheticParams(
        n_users=20, n_items=50, n_groups=8, group_size_range=(2, 4),
        n_cohorts=1, noise=0.0, positives_per_group=5), seed=2)
    top1 = int(np.argmax(truth.group_utility[0]))
    for g in range(ds.n_groups):
        assert ds.group_pos[g] == ds.group_pos[0]
        assert top1 in ds.group_pos[g]


def test_synthetic_cohort_overlap_structure():
    """Within-cohort interaction overlap exceeds cross-cohort overlap."""
    ds, truth = generate_synthetic(SyntheticParams(noise=0.1, latent_dim=8),
                                   seed=4)
    rng = np.random.default_rng(0)
    within, cross = [], []
    for _ in range(3000):
        a, b = rng.integers(ds.n_users, size=2)
        if a == b:
            continue
        sa, sb = set(ds.user_items[a]), set(ds.user_items[b])
        j = len(sa & sb) / len(sa | sb)
        (within if truth.cohort_of[a] == truth.cohort_of[b] else cross).append(j)
    assert np.mean(within) > np.mean(cross)


def test_synthetic_deterministic():
    p = SyntheticParams(n_users=30, n_items=40, n_groups=6,
                        group_size_range=(2, 4), n_cohorts=2,
                        positives_per_group=4)
    a, _ = generate_synthetic(p, 7)
    b, _ = generate_synthetic(p, 7)
    assert a == b


def test_synthetic_infeasible_params_rejected():
    with pytest.raises(UsageError):
        generate_synthetic(SyntheticParams(n_items=5, positives_per_group=6), 0)
    with pytest.raises(UsageError):
        generate_synthetic(SyntheticParams(group_size_range=(5, 2)), 0)
    with pytest.raises(UsageError):
        generate_synthetic(SyntheticParams(cross_rate=1.5), 0)


def test_synthetic_covers_every_item():
    ds, _ = generate_synthetic(SyntheticParams(), seed=9)
    mentioned = set()
    for items in ds.user_items:
        mentioned.update(items)
    assert mentioned == set(range(ds.n_items))


def test_write_dataset_meta(tmp_path):
    p = SyntheticParams(n_users=10, n_items=20, n_groups=3,
                        group_size_range=(2, 3), n_cohorts=2,
                        positives_per_group=3)
    ds, _ = generate_synthetic(p, 1)
    write_dataset(ds, tmp_path, meta={"params": p.as_dict(), "seed": 1})
    import json
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["seed"] == 1
    assert meta["params"]["n_users"] == 10
