import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mgam
from mgam import data
from mgam.data import (Dataset, SyntheticParams, generate_synthetic,
                       load_dataset, sample_negatives,
                       split_leave_one_out, write_dataset)
from mgam.errors import DataError, SamplingError, UsageError
from reference_preprocessing import line_parsed_dataset


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


def test_numeric_tie_ordered_by_string_under_any_hash_seed(tmp_path):
    d = _write(tmp_path, "1\t5\n01\t5\n", "g1\t1\n", "g1\t5\n")
    src = str(Path(mgam.__file__).parents[1])
    code = f"from mgam.data import load_dataset; print(load_dataset({str(d)!r}).user_ids)"
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "['01', '1']", seed


def test_group_error_messages_exact(tmp_path):
    cases = [
        # (groups.tsv, line and message after "groups.tsv: ")
        ("g1\t7\n# c\ng2\t , ,\n", "line 3: group 'g2' has an empty member list"),
        ("g1\t7\ng2\t7\n\ng1\t7\n", "line 4: group 'g1' already defined on line 1"),
        # one line breaking both rules: the empty list is reported
        ("g1\t7\ng1\t,\n", "line 2: group 'g1' has an empty member list"),
        # the earlier line wins, whichever rule it breaks
        ("g1\t7\ng1\t7\ng2\t,\n", "line 2: group 'g1' already defined on line 1"),
    ]
    for groups, message in cases:
        d = _write(tmp_path, "7\t5\n", groups, "g1\t5\n")
        with pytest.raises(DataError) as e:
            load_dataset(d)
        assert str(e.value) == f"{d / 'groups.tsv'}: {message}"


def test_strip_sets_match_str_strip():
    code_points = [chr(c) for c in range(sys.maxunicode + 1)
                   if not 0xD800 <= c < 0xE000]
    assert set(data._WHITESPACE) == {c for c in code_points if c.isspace()}
    padded = [c + "x" + c for c in code_points]
    a = np.array(padded, dtype=np.dtypes.StringDType())
    exact = np.strings.strip(a, data._WHITESPACE).tolist()
    default = np.strings.strip(a).tolist()
    assert exact == [p.strip() for p in padded]
    assert [p for p, got in zip(padded, default) if got != p.strip()] == ["\x00x\x00"]


# ---------------------------------------------------------------------------
# column-wise loader against the line-by-line reference parser

_PADS = ["", "", "", " ", "\u3000", "\xa0", "\u2003 "]
# `str.splitlines` also ends lines at \x85, \v, \x1c and \u2028
_ENDS = ["\n", "\r\n", "\r", "\x85", "\v", "\x1c", "\u2028"]
_ALPHA = ["a", "b", "c", "x y", "\u00e9", "u1", "10a", "Z"]


def _id_pool(rng, n):
    kind = rng.choice(["numeric", "alpha", "mixed"])
    pool = set()
    while len(pool) < n:
        k = rng.randrange(30)
        numeric = [str(k), "0" + str(k), "+" + str(k), "\u0663"]
        if kind == "numeric" or (kind == "mixed" and rng.random() < 0.5):
            pool.add(rng.choice(numeric))
        else:
            pool.add(rng.choice(_ALPHA) + rng.choice(["", str(k)]))
    return sorted(pool)


def _pad(rng, token):
    if rng.random() < 0.03:
        token = token + "\x00"
    return rng.choice(_PADS) + token + rng.choice(_PADS)


def _noise_line(rng):
    return rng.choice(["", "   ", "\u3000\xa0", "# comment", "  # indented\tcomment", "#"])


def _render(rng, records):
    """Records (lists of fields) to file text with comments, blank lines,
    extra columns and mixed line endings."""
    lines = []
    for fields in records:
        while rng.random() < 0.2:
            lines.append(_noise_line(rng))
        line = "\t".join(fields)
        if rng.random() < 0.15:
            line += "\t" + rng.choice(["extra", "", "1\t2", " "])
        lines.append(line)
    if rng.random() < 0.2:
        lines.append(_noise_line(rng))
    ends = rng.choice([["\n"], ["\r\n"], _ENDS])
    text = "".join(line + rng.choice(ends) for line in lines)
    return text[:-1] if text and rng.random() < 0.3 else text


def _random_tables(rng):
    users = _id_pool(rng, rng.randint(1, 6))
    items = _id_pool(rng, rng.randint(1, 6))
    groups = _id_pool(rng, rng.randint(1, 4))
    ui = [[_pad(rng, rng.choice(users)), _pad(rng, rng.choice(items))]
          for _ in range(rng.randint(1, 8))]
    gdefs = []
    for g in groups:
        tokens = [_pad(rng, rng.choice(users)) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 2)):
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(["", " ", "\u3000"]))
        members = ",".join(tokens)
        if not members.replace(",", "").strip():
            members += "," + users[0]
        if rng.random() < 0.1:
            members += "\t" + users[-1]   # a tab ends the member list
        gdefs.append([_pad(rng, g), members])
    gi = [[_pad(rng, rng.choice(groups)), _pad(rng, rng.choice(items))]
          for _ in range(rng.randint(1, 8))]
    tables = {"user_item.tsv": ui, "groups.tsv": gdefs, "group_items.tsv": gi}
    broken = {}
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        kind = rng.choice(["no_tab", "empty_field", "empty_file", "empty_members",
                           "redefined", "unknown_group", "not_utf8", "missing"])
        name = rng.choice(sorted(tables))
        rows = tables[name]
        at = rng.randrange(len(rows) + 1)
        if kind == "no_tab":
            rows.insert(at, [" ".join(rows[0]) if rows else "x y"])
        elif kind == "empty_field":
            rows.insert(at, rng.choice([["  ", "5"], ["7", ""], ["", " \u3000"]]))
        elif kind == "empty_file":
            rows.clear()
        elif kind == "empty_members":
            gdefs.insert(rng.randrange(len(gdefs) + 1),
                         [rng.choice(["new", groups[0]]), rng.choice([",", ", ,", " ,\u3000"])])
        elif kind == "redefined":
            if gdefs:
                gdefs.insert(rng.randrange(len(gdefs) + 1), [rng.choice(gdefs)[0], users[0]])
        elif kind == "unknown_group":
            gi.insert(rng.randrange(len(gi) + 1), ["nope", items[0]])
        else:  # not_utf8, missing: applied when the file is written
            broken[name] = kind
    return tables, broken


def _outcome(load, d):
    try:
        return load(d)
    except DataError as e:
        return str(e)


_OUTCOMES = ["expected at least 2 tab-separated fields", "no interaction records",
             "no group records", "no group-item records", "has an empty member list",
             "already defined on line", "unknown group id", "cannot read (",
             "No such file"]


def test_load_dataset_matches_line_parser(tmp_path):
    rng = random.Random(20261018)
    seen = {}
    for case in range(300):
        d = tmp_path / str(case)
        d.mkdir()
        tables, broken = _random_tables(rng)
        for name, records in tables.items():
            raw = _render(rng, records).encode("utf-8")
            if broken.get(name) == "not_utf8":
                cut = rng.randrange(len(raw) + 1)
                raw = raw[:cut] + b"caf\xe9" + raw[cut:]
            if broken.get(name) != "missing":
                (d / name).write_bytes(raw)
        expected = _outcome(line_parsed_dataset, d)
        got = _outcome(load_dataset, d)
        assert got == expected, (case, sorted(p.name for p in d.iterdir()))
        for outcome in ["ok"] if isinstance(expected, Dataset) else _OUTCOMES:
            if outcome == "ok" or outcome in expected:
                seen[outcome] = seen.get(outcome, 0) + 1
    assert seen.keys() == {"ok", *_OUTCOMES}, seen
    assert seen["ok"] >= 100, seen


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
