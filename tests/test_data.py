import collections
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mgam
from mgam import data
from mgam.data import (Dataset, Rows, SyntheticParams, draw_unseen,
                       generate_synthetic, load_dataset, sample_negatives,
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
    assert ds.user_items == Rows.from_lists([[0]])


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
    assert ds.user_items == Rows.from_lists([[0]])


def test_load_dataset_groups(tmp_path):
    d = _write(tmp_path, "7\t5\n9\t5\n", "g1\t7,9\n", "g1\t5\n")
    ds = load_dataset(d)
    assert ds.n_groups == 1
    assert ds.groups[0].tolist() == [0, 1]
    assert ds.group_pos[0].tolist() == [0]


def test_load_dataset_duplicate_member_collapses(tmp_path):
    d = _write(tmp_path, "7\t5\n", "g1\t7,7\n", "g1\t5\n")
    ds = load_dataset(d)
    assert ds.groups[0].tolist() == [0]


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
    assert ds.group_pos[0].tolist() == [0]


def test_load_dataset_group_only_users_registered(tmp_path):
    d = _write(tmp_path, "7\t5\n", "g1\t7,42\n", "g1\t5\n")
    ds = load_dataset(d)
    assert ds.n_users == 2
    u42 = ds.user_index["42"]
    assert ds.user_items[u42].tolist() == []


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
    classes = data._classes(np.array([ord(c) for c in code_points], dtype=np.uint32))
    assert [c for c, k in zip(code_points, classes) if k != data._OTHER] == \
        [c for c in code_points if c.isspace()]
    assert [c for c, k in zip(code_points, classes) if k == data._BREAK] == \
        [c for c in code_points if len(("a" + c + "b").splitlines()) == 2]
    assert [c for c, k in zip(code_points, classes) if k == data._TAB] == ["\t"]


# ---------------------------------------------------------------------------
# column-wise loader against the line-by-line reference parser

_PADS = ["", "", "", " ", "\u3000", "\xa0", "\u2003 "]
# `str.splitlines` also ends lines at \x85, \v, \x1c and \u2028
_ENDS = ["\n", "\r\n", "\r", "\x85", "\v", "\x1c", "\u2028"]
# "\U0001F600" is one code point but four UTF-8 bytes
_ALPHA = ["a", "b", "c", "x y", "\u00e9", "u1", "10a", "Z", "\U0001F600"]


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


def _render(rng, records, seen=None):
    """Records (lists of fields) to file text with comments, blank lines,
    extra columns and mixed line endings.  `seen`, a Counter, counts the
    lines ended by a lone `\\r` before a blank line."""
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
    pieces = []
    for line in lines:
        if rng.random() < 0.05:
            # a lone \r, then a blank line: `splitlines` pairs them as one \r\n
            pieces.append(line + "\r" + "\n")
            if seen is not None:
                seen["lone_cr"] += 1
        else:
            pieces.append(line + rng.choice(ends))
    text = "".join(pieces)
    return text[:-1] if text and rng.random() < 0.3 else text


def _random_tables(rng):
    users = _id_pool(rng, rng.randint(1, 6))
    items = _id_pool(rng, rng.randint(1, 6))
    if rng.random() < 0.2:
        items.append("#x")  # a second field starting with `#`: a record, not a comment
    groups = _id_pool(rng, rng.randint(1, 4))
    ui = [[_pad(rng, rng.choice(users)), _pad(rng, rng.choice(items))]
          for _ in range(rng.randint(1, 8))]
    gdefs = []
    for g in groups:
        tokens = [_pad(rng, rng.choice(users)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.1:
            tokens.insert(rng.randrange(len(tokens) + 1), "#m")
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


def test_random_tables_cover_the_tokenizer_cases():
    """The cases `test_load_dataset_matches_line_parser` draws (the same
    seed and draws) hold astral-plane ids, records whose second field or a
    member starts with `#`, and lone `\\r`s before a blank line."""
    rng = random.Random(20261018)
    seen = collections.Counter()
    for case in range(300):
        tables, broken = _random_tables(rng)
        for name, records in tables.items():
            raw = _render(rng, records, seen).encode("utf-8")
            if broken.get(name) == "not_utf8":
                rng.randrange(len(raw) + 1)
            seen["astral"] += "\U0001F600".encode("utf-8") in raw
        seen["hash_field"] += any(len(r) > 1 and r[1].strip() == "#x"
                                  for name in ("user_item.tsv", "group_items.tsv")
                                  for r in tables[name])
        seen["hash_member"] += any("#m" in r[1].split("\t")[0].split(",")
                                   for r in tables["groups.tsv"] if len(r) > 1)
    assert seen.keys() == {"astral", "hash_field", "hash_member", "lone_cr"}, seen
    assert min(seen.values()) > 0, seen


def test_load_dataset_memory_stays_within_20x_the_tsv_bytes(tmp_path):
    """The benchmark's ingest shape at half size: 1,000 users with 40 items
    each, 3,000 items, 4,000 groups of 4-8 members with 10 positives each.
    Per-character int64 arrays kept while the fields are cut, or one file's
    tokens kept past its interning, cross the bound."""
    rng = np.random.default_rng(11)

    def draw(n, size):
        return sorted(rng.choice(n, size=size, replace=False).tolist())
    n_users, n_items, n_groups = 1000, 3000, 4000
    ds = Dataset(n_users=n_users, n_items=n_items, n_groups=n_groups,
                 user_items=Rows.from_lists([draw(n_items, 40) for _ in range(n_users)]),
                 groups=Rows.from_lists([draw(n_users, int(rng.integers(4, 9)))
                                         for _ in range(n_groups)]),
                 group_pos=Rows.from_lists([draw(n_items, 10) for _ in range(n_groups)]),
                 user_ids=[str(u) for u in range(n_users)],
                 item_ids=[str(i) for i in range(n_items)],
                 group_ids=[str(g) for g in range(n_groups)])
    write_dataset(ds, tmp_path)
    size = sum((tmp_path / name).stat().st_size for name in data.DATA_FILES)
    tracemalloc.start()
    try:
        loaded = load_dataset(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == ds
    assert peak <= 20 * size, f"{peak / size:.2f}x"


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
    ds = Dataset(n_users=2, n_items=3, n_groups=1,
                 user_items=Rows.from_lists([[0], [1]]),
                 groups=Rows.from_lists([[0, 1]]), group_pos=Rows.from_lists([[0, 2]]),
                 user_ids=["0", "1"], item_ids=["0", "1", "2"], group_ids=["0"])
    split = split_leave_one_out(ds, 0)
    assert len(split.test) == 1
    g, held = split.test[0]
    rest = split.train[split.train[:, 0] == 0, 1].tolist()
    assert sorted(rest + [held]) == [0, 2]


def test_split_single_positive_stays_in_train():
    ds = Dataset(n_users=1, n_items=2, n_groups=1, user_items=Rows.from_lists([[0]]),
                 groups=Rows.from_lists([[0]]), group_pos=Rows.from_lists([[1]]),
                 user_ids=["0"], item_ids=["0", "1"], group_ids=["0"])
    split = split_leave_one_out(ds, 0)
    assert split.test == []
    assert split.train.tolist() == [[0, 1]]


def test_split_deterministic_and_union_preserved():
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=40, n_items=60, n_groups=12, group_size_range=(3, 5),
        n_cohorts=2, positives_per_group=6), seed=1)
    s1 = split_leave_one_out(ds, 9)
    s2 = split_leave_one_out(ds, 9)
    assert s1.train.dtype == np.intp and s1.train.shape[1] == 2
    assert np.array_equal(s1.train, s2.train)
    assert s1.test == s2.test
    # exactly one held out per eligible group; union restores the positives
    held = dict(s1.test)
    for g in range(ds.n_groups):
        train_g = sorted(s1.train[s1.train[:, 0] == g, 1].tolist())
        full = sorted(train_g + ([held[g]] if g in held else []))
        assert full == ds.group_pos[g].tolist()
        if len(ds.group_pos[g]) >= 2:
            assert g in held


def test_split_test_and_draws_are_python_ints():
    """`split.test` holds Python ints, and `draw_unseen` draws the same
    list whether `seen` is an int array or a list."""
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=30, n_items=40, n_groups=8, group_size_range=(2, 4),
        n_cohorts=2, positives_per_group=5), seed=3)
    split = split_leave_one_out(ds, 4)
    assert split.test and all(type(g) is int and type(v) is int for g, v in split.test)
    for g in range(ds.n_groups):
        for n in (3, 30):   # rejection draws, then a choice over the eligible
            a = draw_unseen(ds.n_items, ds.group_pos[g], n, np.random.default_rng(g), "g")
            b = draw_unseen(ds.n_items, ds.group_pos[g].tolist(), n,
                            np.random.default_rng(g), "g")
            assert a == b and all(type(v) is int for v in a)


# ---------------------------------------------------------------------------
# negative sampling

def _scalar_draw_unseen(n_items, seen, n, rng):
    """One `rng.integers` call per drawn number: the reference the bulk
    rejection rounds of `draw_unseen` must reproduce exactly."""
    blocked = set(np.asarray(seen, dtype=np.int64).tolist())
    if n <= (n_items - len(blocked)) // 2:
        out, chosen = [], set()
        while len(out) < n:
            cand = int(rng.integers(n_items))
            if cand in blocked or cand in chosen:
                continue
            chosen.add(cand)
            out.append(cand)
        return out
    eligible = np.array([i for i in range(n_items) if i not in blocked])
    return [int(i) for i in rng.choice(eligible, size=n, replace=False)]


@pytest.mark.parametrize("n_items", [500, 5000, 6000])
def test_bulk_draw_unseen_equals_scalar_draws(n_items):
    """Per-group streams (100 draws over up to 45% seen items) and the
    dense `choice` branch give the scalar loop's lists; a stream shared by
    2,000 draws of n = 1 or 3 gives its lists and ends where it ends."""
    rng = np.random.default_rng(n_items)
    for g in range(40):
        seen = rng.choice(n_items, size=int(rng.integers(0, 0.45 * n_items)),
                          replace=False)
        for n in (100, (n_items - len(seen)) // 2 + 1):   # rejection, then choice
            got = draw_unseen(n_items, seen, n, np.random.default_rng(g), "g")
            assert got == _scalar_draw_unseen(n_items, seen, n, np.random.default_rng(g))
    seens = [rng.choice(n_items, size=int(rng.integers(0, 0.45 * n_items)), replace=False)
             for _ in range(20)]
    for n in (1, 3):
        bulk, scalar = np.random.default_rng(7), np.random.default_rng(7)
        for i in range(2000):
            seen = seens[i % len(seens)]
            assert (draw_unseen(n_items, seen, n, bulk, "g")
                    == _scalar_draw_unseen(n_items, seen, n, scalar))
        assert bulk.integers(n_items) == scalar.integers(n_items)
        assert bulk.random() == scalar.random()


def _tiny_ds():
    return Dataset(n_users=1, n_items=3, n_groups=1, user_items=Rows.from_lists([[0]]),
                   groups=Rows.from_lists([[0]]), group_pos=Rows.from_lists([[0]]),
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
    ds = Dataset(n_users=1, n_items=12, n_groups=1, user_items=Rows.from_lists([[0]]),
                 groups=Rows.from_lists([[0]]), group_pos=Rows.from_lists([[0, 1]]),
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
        assert ds.group_pos[g].tolist() == ds.group_pos[0].tolist()
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


# ---------------------------------------------------------------------------
# Rows

def test_rows_views_and_padding_match_lists():
    """`Rows` against the lists it was built from: rows, lengths and
    `padded` for repeated, single and empty rows (all padding), and for
    absent rows of a 2-D id table."""
    rng = np.random.default_rng(3)
    for trial in range(200):
        lists = [rng.integers(0, 50, size=int(rng.integers(0, 6))).tolist()
                 for _ in range(int(rng.integers(1, 8)))]
        rows = Rows.from_lists(lists)
        assert len(rows) == len(lists)
        assert [row.tolist() for row in rows] == lists
        assert [rows[k].tolist() for k in range(-len(lists), 0)] == lists
        assert rows.lengths().tolist() == [len(x) for x in lists]
        ids = rng.integers(0, len(lists), size=int(rng.integers(1, 10)))
        ids = np.append(ids, ids[:2])                           # repeated rows
        for pick in (ids, ids[:1]):                              # and a single one
            idx, valid = rows.padded(pick)
            width = max(len(lists[k]) for k in pick.tolist())
            assert idx.shape == valid.shape == (len(pick), width)
            for r, k in enumerate(pick.tolist()):
                n = len(lists[k])
                assert idx[r, :n].tolist() == lists[k], trial
                assert valid[r].tolist() == [True] * n + [False] * (width - n)
                assert not idx[r, n:].any()                       # padding reads 0
    idx, valid = Rows.from_lists([[], [4, 5], []]).padded([0, 2, 0])
    assert idx.shape == valid.shape == (3, 0)
    # a 2-D table of row ids, where rows marked absent count as empty
    rows = Rows.from_lists([[7, 8, 9], [5], [6, 4]])
    idx, valid = rows.padded(np.array([[1, 2], [0, 0]]),
                             present=np.array([[True, True], [True, False]]))
    assert idx.tolist() == [[[5, 0, 0], [6, 4, 0]], [[7, 8, 9], [0, 0, 0]]]
    assert valid.tolist() == [[[True, False, False], [True, True, False]],
                              [[True, True, True], [False, False, False]]]
    with pytest.raises(IndexError):
        Rows.from_lists([[1]])[1]


def test_rows_equality_and_bad_offsets():
    a = Rows.from_lists([[1, 2], [], [3]])
    assert a == Rows([0, 2, 2, 3], [1, 2, 3])
    assert a != Rows.from_lists([[1], [2], [3]])       # same indices, other cuts
    assert a != Rows.from_lists([[1, 2], [], [4]])
    assert a.offsets.dtype == a.indices.dtype == np.int64
    for offsets in ([1, 3], [0, 2, 1, 3], [0, 2], []):
        with pytest.raises(UsageError, match="offsets"):
            Rows(offsets, [1, 2, 3])


# ---------------------------------------------------------------------------
# array form (checkpoint inputs)

def _roundtrip(dataset):
    arrays = data.dataset_arrays(dataset)
    assert all(a.dtype == (np.uint8 if k.endswith("_ids") else np.int64)
               for k, a in arrays.items())
    return data.dataset_from_arrays(arrays)


def test_dataset_arrays_roundtrip_on_random_datasets(tmp_path):
    """Every dataset the random-table cases load survives the array form,
    including non-ASCII ids, NUL-ending ids and ids that tie as integers."""
    rng = random.Random(20261018)
    seen = {"non_ascii": 0, "nul_end": 0, "int_tie": 0}
    for case in range(300):
        d = tmp_path / str(case)
        d.mkdir()
        tables, broken = _random_tables(rng)
        if broken:
            continue
        for name, records in tables.items():
            (d / name).write_text(_render(rng, records), encoding="utf-8")
        dataset = _outcome(load_dataset, d)
        if not isinstance(dataset, Dataset):
            continue
        assert _roundtrip(dataset) == dataset, case
        ids = dataset.user_ids + dataset.item_ids + dataset.group_ids
        seen["non_ascii"] += any(not e.isascii() for e in ids)
        seen["nul_end"] += any(e.endswith("\x00") for e in ids)
        for kind in (dataset.user_ids, dataset.item_ids, dataset.group_ids):
            try:
                seen["int_tie"] += len({int(e) for e in kind}) < len(kind)
            except ValueError:
                pass
    assert min(seen.values()) > 0, seen


def test_dataset_arrays_roundtrip_edge_ids():
    ds = Dataset(n_users=4, n_items=3, n_groups=2,
                 user_items=Rows.from_lists([[0, 2], [], [1], [0, 1, 2]]),
                 groups=Rows.from_lists([[0, 1, 3], [2]]),
                 group_pos=Rows.from_lists([[1], [0, 2]]),
                 user_ids=["1", "01", "café", "x\x00"],
                 item_ids=["٣", "+3", "\x00"],
                 group_ids=["g　h", "2"])
    assert _roundtrip(ds) == ds
    empty = Dataset(n_users=0, n_items=0, n_groups=0, user_items=Rows.from_lists([]),
                    groups=Rows.from_lists([]), group_pos=Rows.from_lists([]),
                    user_ids=[], item_ids=[], group_ids=[])
    assert _roundtrip(empty) == empty
