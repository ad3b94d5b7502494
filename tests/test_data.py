import collections
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mgam
import mgam.cli
from mgam import data
from mgam.data import (Dataset, Rows, SyntheticParams, generate_synthetic,
                       label_blocks, load_dataset, sample_negatives,
                       split_leave_one_out, write_dataset)
from mgam.errors import DataError, SamplingError, UsageError
from mgam.training import load_inputs, read_manifest
from conftest import same_dataset, same_rows
from reference_preprocessing import line_parsed_dataset, planted_utility


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
    assert same_rows(ds.user_items, Rows.from_lists([[0]]))


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
    assert same_rows(ds.user_items, Rows.from_lists([[0]]))


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
    u42 = ds.user_ids.index("42")
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
        assert same_dataset(got, expected), (case, sorted(p.name for p in d.iterdir()))
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


# ids that share prefixes, tie as integers, hold NUL or astral-plane
# characters, or need two or more key words (a word holds 3 characters of
# a text with astral-plane ones, 9 of the ASCII texts below)
_KEY_IDS = ["1", "10", "100", "1000000000", "10000000000", "01", "001", "+1",
            "a", "a\x00", "\x00", "\x00a", "a\x00\x00", "\U0001F600",
            "\U0001F600" * 4, "\U0001F600" * 4 + "\x00", "\U0010FFFF" * 7,
            "x" * 12, "x" * 13, "x" * 12 + "y", "user-000000000001", "user-000000000010",
            "\u00e9" * 20, "x y", "x,y"]
_KEY_SEPARATORS = ["", " ", "\t", ",", "\n", "\U0001F601"]


def _dict_interned(tokens):
    """(distinct tokens in first-seen order, index of every token into them)."""
    index = {t: k for k, t in enumerate(dict.fromkeys(tokens))}
    return list(index), [index[t] for t in tokens]


def test_intern_matches_dict_interning():
    rng = random.Random(7)
    for trial in range(400):
        ascii_only = rng.random() < 0.3
        pool = [t for t in _KEY_IDS if not ascii_only or t.isascii()]
        alphabet = "019ax\x00" + ("" if ascii_only else "\u00e9\U0001F600\U0010FFFF")
        for _ in range(rng.randrange(4)):
            pool.append("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40))))
        tokens = [rng.choice(pool) for _ in range(rng.randint(1, 60))]
        seps = [t for t in _KEY_SEPARATORS if not ascii_only or t.isascii()]
        text, starts, ends = "", [], []
        for t in tokens:
            text += rng.choice(seps)
            starts.append(len(text))
            text += t
            ends.append(len(text))
        code_points = np.frombuffer((text + "\n").encode("utf-32-le"), np.uint32)
        distinct, codes = data._intern(code_points, np.array(starts), np.array(ends))
        assert (distinct, codes.tolist()) == _dict_interned(tokens), (trial, tokens)


def test_load_dataset_long_ids_match_line_parser(tmp_path):
    rng = random.Random(5)
    for case in range(30):
        d = tmp_path / str(case)
        d.mkdir()
        users = rng.sample(_KEY_IDS, 8)
        items = rng.sample(_KEY_IDS, 10)
        groups = rng.sample(_KEY_IDS, 4)
        pad = lambda t: rng.choice(["", " ", "\u3000"]) + t + rng.choice(["", " "])
        ui = "".join(f"{pad(rng.choice(users))}\t{pad(rng.choice(items))}\n"
                     for _ in range(rng.randint(1, 25)))
        gdefs = "".join(f"{pad(g)}\t{','.join(pad(u) for u in rng.sample(users, rng.randint(1, 5)))}\n"
                        for g in groups)
        gi = "".join(f"{pad(rng.choice(groups))}\t{pad(rng.choice(items))}\n"
                     for _ in range(rng.randint(1, 25)))
        _write(d, ui, gdefs, gi)
        assert same_dataset(load_dataset(d), line_parsed_dataset(d)), case


def test_load_dataset_decodes_each_distinct_id_once(tmp_path, monkeypatch):
    """Only distinct ids become `str`: every piece `_cut` decodes is the
    first occurrence of one id in one field."""
    rng = random.Random(3)
    users, items, groups = ([f"{kind}{k}" for k in range(n)]
                            for kind, n in (("u", 30), ("i", 40), ("g", 20)))
    ui = [(rng.choice(users), rng.choice(items)) for _ in range(2000)]
    gdefs = [(g, rng.sample(users, 6)) for g in groups]
    gi = [(rng.choice(groups), rng.choice(items)) for _ in range(1000)]
    d = _write(tmp_path, "".join(f"{u}\t{i}\n" for u, i in ui),
               "".join(f"{g}\t{','.join(m)}\n" for g, m in gdefs),
               "".join(f"{g}\t{i}\n" for g, i in gi))
    fields = [[u for u, _ in ui], [i for _, i in ui], [g for g, _ in gdefs],
              [u for _, m in gdefs for u in m], [g for g, _ in gi], [i for _, i in gi]]
    decoded = []
    cut = data._cut

    def spy(code_points, starts, ends):
        pieces = cut(code_points, starts, ends)
        decoded.append(len(pieces))
        return pieces
    monkeypatch.setattr(data, "_cut", spy)
    load_dataset(d)
    assert decoded == [len(set(f)) for f in fields]
    assert sum(decoded) * 20 < sum(map(len, fields))


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
    assert same_dataset(loaded, ds)
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
    assert same_dataset(load_dataset(d2), loaded)
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
    """`split.test` holds Python ints, and so does a scalar
    `sample_negatives` draw."""
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=30, n_items=40, n_groups=8, group_size_range=(2, 4),
        n_cohorts=2, positives_per_group=5), seed=3)
    split = split_leave_one_out(ds, 4)
    assert split.test and all(type(g) is int and type(v) is int for g, v in split.test)
    for g in range(ds.n_groups):
        for n in (3, 30):
            drawn = sample_negatives(ds, g, n, np.random.default_rng(g))
            assert type(drawn) is list and all(type(v) is int for v in drawn)


# ---------------------------------------------------------------------------
# negative sampling

def _tiny_ds():
    return Dataset(n_users=1, n_items=3, n_groups=1, user_items=Rows.from_lists([[0]]),
                   groups=Rows.from_lists([[0]]), group_pos=Rows.from_lists([[0]]),
                   user_ids=["0"], item_ids=["0", "1", "2"], group_ids=["0"])


def test_sample_negatives_forced_set():
    out = sample_negatives(_tiny_ds(), 0, 2, rng=np.random.default_rng(0))
    assert sorted(out) == [1, 2]


def test_sample_negatives_zero():
    """No negatives: an empty list for one group, an (n, 0) table for n."""
    assert sample_negatives(_tiny_ds(), 0, 0, rng=np.random.default_rng(0)) == []
    table = sample_negatives(_tiny_ds(), np.array([0, 0]), 0, rng=np.random.default_rng(0))
    assert table.dtype == np.int64 and table.shape == (2, 0)


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
    """10^5 single draws over 10 eligible items, as one batch (a scalar call
    is row 0 of a one-row batch, tested below): every frequency within
    0.009 of uniform (about 9.5 sigma), and the counts pass a chi-square
    test against uniform (9 degrees of freedom, 33.72 is the 1e-4 tail)."""
    ds = Dataset(n_users=1, n_items=12, n_groups=1, user_items=Rows.from_lists([[0]]),
                 groups=Rows.from_lists([[0]]), group_pos=Rows.from_lists([[0, 1]]),
                 user_ids=["0"], item_ids=[str(i) for i in range(12)],
                 group_ids=["0"])
    rng = np.random.default_rng(8)
    n = 100_000
    counts = np.bincount(sample_negatives(ds, np.zeros(n, np.int64), 1, rng).ravel(),
                         minlength=12)
    assert counts[0] == 0 and counts[1] == 0
    expected = n / 10
    assert np.abs(counts[2:] / n - 0.1).max() <= 0.009
    assert ((counts[2:] - expected) ** 2 / expected).sum() < 33.72


@pytest.mark.parametrize("n", [1, 3, 7])
def test_draw_unseen_rows_are_distinct_unseen_and_in_range(n):
    """Owners that have seen every count of items from none to
    n_items - n, each repeated in a shuffled batch: every row holds n
    distinct items, none seen by its owner, all in range."""
    n_items = 20
    rng = np.random.default_rng(n)
    seen = Rows.from_lists([np.sort(rng.choice(n_items, size=k, replace=False)).tolist()
                            for k in range(n_items - n + 1) for _ in range(3)])
    owners = rng.permutation(np.repeat(np.arange(len(seen)), 4))
    for seed in range(10):
        table = data.draw_unseen_rows(n_items, seen, owners, n,
                                      np.random.default_rng(seed), str)
        assert table.dtype == np.int64 and table.shape == (len(owners), n)
        for o, row in zip(owners.tolist(), table.tolist()):
            assert len(set(row)) == n and not set(row) & set(seen[o].tolist())
            assert all(0 <= v < n_items for v in row)


def test_draw_unseen_rows_wanting_every_eligible_item_gets_them_all():
    rng = np.random.default_rng(5)
    n_items = 15
    for k in range(n_items + 1):
        seen = Rows.from_lists([np.sort(rng.choice(n_items, size=k, replace=False)).tolist()])
        eligible = np.setdiff1d(np.arange(n_items), seen[0])
        table = data.draw_unseen_rows(n_items, seen, [0, 0, 0], len(eligible), rng, str)
        assert table.shape == (3, len(eligible))
        assert (np.sort(table, axis=1) == eligible).all()


class _RankRecorder:
    """A generator that keeps what `permuted` returns: `draw_unseen_rows`'s
    table of ranks, before they become items."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, *args):
        return self.rng.integers(*args)

    def permuted(self, *args, **kwargs):
        self.ranks = self.rng.permuted(*args, **kwargs)
        return self.ranks


@pytest.mark.parametrize("seed", range(5))
def test_draw_unseen_rows_turns_ranks_into_the_unseen_items_they_index(seed):
    """Row i's rank r becomes the r-th item, counting up, that owner i has
    not seen: `np.setdiff1d(items, seen[owner])[r]`, on random rows with
    empty, full-but-n and repeated owners in any order."""
    rng = np.random.default_rng(seed)
    n_items, n = int(rng.integers(5, 60)), int(rng.integers(0, 5))
    seen = Rows.from_lists([[], list(range(n_items - n))] + [
        np.sort(rng.choice(n_items, size=k, replace=False)).tolist()
        for k in rng.integers(0, n_items - n + 1, size=30)])
    owners = rng.integers(len(seen), size=200)
    recorder = _RankRecorder(seed)
    table = data.draw_unseen_rows(n_items, seen, owners, n, recorder, str)
    expected = [np.setdiff1d(np.arange(n_items), seen[o])[r]
                for o, r in zip(owners.tolist(), recorder.ranks)]
    assert np.array_equal(table, np.array(expected, dtype=np.int64).reshape(len(owners), n))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_draw_unseen_rows_every_slot_is_uniform(n):
    """12,000 rows of n of the 6 items not in {1, 4}, out of 8: each slot
    on its own passes a chi-square test against uniform (5 degrees of
    freedom, 25.74 is the 1e-4 tail).  Floyd's ranks alone would fail it,
    since slot 0 never holds the top n - 1 ranks."""
    rows = 12_000
    table = data.draw_unseen_rows(8, Rows.from_lists([[1, 4]]), np.zeros(rows, np.int64),
                                  n, np.random.default_rng(n), str)
    expected = rows / 6
    for slot in table.T:
        counts = np.bincount(slot, minlength=8)
        assert counts[1] == counts[4] == 0
        assert ((counts[[0, 2, 3, 5, 6, 7]] - expected) ** 2 / expected).sum() < 25.74


def test_scalar_sample_negatives_is_row_0_of_a_one_row_batch():
    """`benchmarks/checks.py` recomputes evaluation candidates with scalar
    calls: one draws, as Python ints, row 0 of a one-group batch on the
    same stream, and leaves the stream where the batch does."""
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=20, n_items=30, n_groups=6, group_size_range=(2, 4),
        n_cohorts=2, positives_per_group=4), seed=5)
    for g in range(ds.n_groups):
        for n in (1, 5, 20):
            scalar, batch = np.random.default_rng([g, n]), np.random.default_rng([g, n])
            drawn = sample_negatives(ds, g, n, scalar)
            assert all(type(v) is int for v in drawn)
            assert drawn == sample_negatives(ds, np.array([g]), n, batch)[0].tolist()
            assert scalar.bit_generator.state == batch.bit_generator.state


def _mixed_ds():
    """12 items.  g0 and g2 have 2 positives each, g1 has 8 and g3 has 11
    (1 eligible item)."""
    return Dataset(n_users=1, n_items=12, n_groups=4, user_items=Rows.from_lists([[0]]),
                   groups=Rows.from_lists([[0]] * 4),
                   group_pos=Rows.from_lists([[0, 5], list(range(8)), [3, 11],
                                              list(range(11))]),
                   user_ids=["0"], item_ids=[str(i) for i in range(12)],
                   group_ids=["g0", "g1", "g2", "g3"])


def test_sample_negatives_batch_names_a_group_without_enough_items():
    with pytest.raises(SamplingError, match=r"^group g3: requested 2 negatives but "
                                            r"only 1 of 12 items are eligible$"):
        sample_negatives(_mixed_ds(), np.array([0, 2, 3, 1]), 2, np.random.default_rng(0))


def test_draw_unseen_rows_names_a_user_without_enough_items():
    users = Rows.from_lists([[0, 5], list(range(8)), [3, 11], list(range(11))])
    with pytest.raises(SamplingError, match=r"^user u3: requested 2 negatives but "
                                            r"only 1 of 12 items are eligible$"):
        data.draw_unseen_rows(12, users, np.array([0, 2, 3, 1]), 2, np.random.default_rng(0),
                              lambda u: f"user u{u}")


def test_label_blocks_layout():
    """Each positive, labelled 1, then its own negatives, labelled 0, all
    owned by the positive's owner; no negatives and no rows keep that shape."""
    blocks = label_blocks(np.array([[3, 7], [5, 1]]), [[2, 4, 6], [8, 0, 9]])
    assert blocks.dtype == np.int64 and blocks.shape == (2, 4, 3)
    assert blocks.tolist() == [[[3, 7, 1], [3, 2, 0], [3, 4, 0], [3, 6, 0]],
                               [[5, 1, 1], [5, 8, 0], [5, 0, 0], [5, 9, 0]]]
    assert label_blocks([(3, 7), (5, 1)], [[], []]).tolist() == [[[3, 7, 1]], [[5, 1, 1]]]
    assert label_blocks([], []).shape == (0, 1, 3)


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
    top1 = int(np.argmax(planted_utility(truth)[0]))
    for g in range(ds.n_groups):
        assert ds.group_pos[g].tolist() == ds.group_pos[0].tolist()
        assert top1 in ds.group_pos[g]


def test_planted_utility_equals_the_generator_rows_bitwise(monkeypatch):
    """The tests' `planted_utility` holds, bit for bit, the utility rows
    the generator drew each group's positives around (its last
    `n_groups` calls of `_noisy_top`; the first `n_users` are users')."""
    real = data._noisy_top
    for params, seed in ((SyntheticParams(), 42),
                         (SyntheticParams(n_users=20, n_items=50, n_groups=8, noise=0.0,
                                          group_size_range=(2, 4), n_cohorts=1), 2),
                         (SyntheticParams(n_users=90, n_items=700, n_groups=31,
                                          latent_dim=5, noise=0.3), 7)):
        rows = []

        def recording(utility, *rest):
            rows.append(utility.copy())
            return real(utility, *rest)

        monkeypatch.setattr(data, "_noisy_top", recording)
        _, truth = generate_synthetic(params, seed)
        monkeypatch.setattr(data, "_noisy_top", real)
        drawn = np.stack(rows[params.n_users:])
        assert drawn.shape == (params.n_groups, params.n_items)
        assert planted_utility(truth).tobytes() == drawn.tobytes()


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
    assert same_dataset(a, b)


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


# sha256 of every file `gen-data` writes, per argument list: any change to
# how the generator reads its seeded stream shows here
GEN_DATA_DIGESTS = {
    "default": (["--seed", "42"], {
        "user_item.tsv": "45aedd307e290ccbee1da679c9e045dfd33d50dfbf9a8706f266bd60d1045cc7",
        "groups.tsv": "d72b8c46f4205368b3bb218e6d486ff05aa370242752b10947d676fcabac14bf",
        "group_items.tsv": "d32b780bd4dbc4d9d37b5663c1f82d6f85a2a3c67f1f9317823aee769eabeef8",
        "meta.json": "693c1c5843655a61729fc16399f5cc0f4ac9bdb8104cb366efcb7a246f6af8db"}),
    "small": (["--users", "300", "--items", "900", "--groups", "400",
               "--items-per-user", "12", "--cohorts", "5", "--seed", "7"], {
        "user_item.tsv": "c8a0cc3d092e6436e1afb8afe0914c9e800de327858df39d8ac116e6d5e3a7b6",
        "groups.tsv": "e72c458b9c2af8f0bbbf2c0844f34e720ace1e4a6cb3c6759deecfaa90646087",
        "group_items.tsv": "f716f397fa464c6ce6495c0cde5c1340511b07f627ed200a41dd696b204c2a33",
        "meta.json": "b4c54a40f0a318adb98bb26dda497abf4947e1501c746258f4143d6395d9b62f"}),
}


@pytest.mark.parametrize("args, digests", GEN_DATA_DIGESTS.values(), ids=GEN_DATA_DIGESTS)
def test_gen_data_writes_pinned_bytes(tmp_path, args, digests):
    out = tmp_path / "data"
    assert mgam.cli.main(["gen-data", "--out", str(out), *args]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_gen_data_never_imports_scipy_and_train_still_clusters(tmp_path):
    """A fresh interpreter runs `gen-data` and `train --help` without
    loading scipy; a `train` in the same process then imports it where it
    first builds a sparse array, clusters and writes a checkpoint."""
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    code = f"""
import contextlib, io, sys
import mgam.cli
loaded = []
with contextlib.redirect_stdout(io.StringIO()):
    assert mgam.cli.main(["gen-data", "--out", {str(data)!r}, "--users", "30",
                          "--items", "40", "--groups", "8", "--seed", "3"]) == 0
    loaded.append("scipy" in sys.modules)
    try:
        mgam.cli.main(["train", "--help"])
    except SystemExit as e:
        assert e.code == 0
    loaded.append("scipy" in sys.modules)
    assert mgam.cli.main(["train", "--data", {str(data)!r}, "--out", {str(ckpt)!r},
                          "--set", "epochs=1", "--set", "embedding_dim=8"]) == 0
    loaded.append("scipy" in sys.modules)
print(loaded)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(mgam.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, False, True]"
    assert (ckpt / "params.bin").exists()
    assert len(load_inputs(ckpt, data, read_manifest(ckpt))[1]) == 8


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
    assert same_rows(a, Rows([0, 2, 2, 3], [1, 2, 3]))
    assert not same_rows(a, Rows.from_lists([[1], [2], [3]]))   # same indices, other cuts
    assert not same_rows(a, Rows.from_lists([[1, 2], [], [4]]))
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
        assert same_dataset(_roundtrip(dataset), dataset), case
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
    assert same_dataset(_roundtrip(ds), ds)
    empty = Dataset(n_users=0, n_items=0, n_groups=0, user_items=Rows.from_lists([]),
                    groups=Rows.from_lists([]), group_pos=Rows.from_lists([]),
                    user_ids=[], item_ids=[], group_ids=[])
    assert same_dataset(_roundtrip(empty), empty)
