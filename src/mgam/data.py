"""Dataset loading, splitting, negative sampling and synthetic generation.

The on-disk format is three TSV files (UTF-8, `#` comment lines and blank
lines skipped):

    user_item.tsv    user_id <TAB> item_id          (extra columns ignored)
    groups.tsv       group_id <TAB> u1,u2,...
    group_items.tsv  group_id <TAB> item_id

External ids are arbitrary tokens; they are remapped to contiguous
internal indices sorted by external id (numerically when every id of a
kind parses as an integer, else lexicographically; ids equal as integers,
such as `1` and `01`, are ordered as strings).  Users that appear only as
group members are registered with empty interaction histories.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, SamplingError, UsageError

USER_ITEM_FILE = "user_item.tsv"
GROUPS_FILE = "groups.tsv"
GROUP_ITEMS_FILE = "group_items.tsv"
META_FILE = "meta.json"


@dataclass
class Instance:
    """One labeled group-item training example."""
    group: int
    item: int
    label: int


@dataclass
class Dataset:
    """Remapped users, items, groups and their interactions.

    Immutable after construction; all member/item lists are sorted by
    internal index and duplicate-free.
    """
    n_users: int
    n_items: int
    n_groups: int
    user_items: list  # per user: sorted item indices
    groups: list      # per group: sorted member user indices
    group_pos: list   # per group: sorted positive item indices
    user_ids: list    # internal index -> external id (str)
    item_ids: list
    group_ids: list
    user_index: dict = field(default_factory=dict)
    item_index: dict = field(default_factory=dict)
    group_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.user_index:
            self.user_index = {e: i for i, e in enumerate(self.user_ids)}
        if not self.item_index:
            self.item_index = {e: i for i, e in enumerate(self.item_ids)}
        if not self.group_index:
            self.group_index = {e: i for i, e in enumerate(self.group_ids)}


@dataclass
class Split:
    """Leave-one-out split: train keeps positives, test holds one per group."""
    train: list  # of Instance (label 1)
    test: list   # of (group, held_out_item)


# ---------------------------------------------------------------------------
# parsing
#
# Each file is parsed column-wise: one StringDType array of lines, numpy
# string ufuncs for comment skipping, field splitting and stripping, ids
# interned to int64 codes through one dict, and per-row lists cut from one
# sorted array of (row, column) codes.

# every character for which `str.isspace` is true
_WHITESPACE = ("\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002"
               "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029"
               "\u202f\u205f\u3000")
_STR = np.dtypes.StringDType()
# `np.strings.partition` takes no plain `str` separator for StringDType input
_TAB = np.array("\t", dtype=_STR)


def _strip_set(text: str):
    """The `chars` argument that makes `np.strings.strip` act as `str.strip`
    on pieces of `text`.

    numpy's default set is `str.isspace` plus NUL; naming the set is exact
    but about 3x slower, so it is named only when `text` holds a NUL.
    """
    return _WHITESPACE if "\x00" in text else None


def _read_table(path, empty_msg: str) -> tuple:
    """(line numbers, first fields, second fields) of a TSV's record lines.

    Blank, whitespace-only and `#` comment lines are skipped; both fields
    are stripped and must be non-empty.  The fields are StringDType arrays.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: cannot read ({e})") from e
    ws = _strip_set(text)
    lines = np.array(text.splitlines(), dtype=_STR)
    body = np.strings.lstrip(lines, ws)
    kept = np.flatnonzero((np.strings.str_len(body) > 0)
                          & ~np.strings.startswith(body, "#"))
    if not len(kept):
        raise DataError(f"{path}: {empty_msg}")
    lines = lines[kept]
    first, _, rest = np.strings.partition(lines, _TAB)
    first = np.strings.strip(first, ws)
    second = np.strings.strip(np.strings.partition(rest, _TAB)[0], ws)
    bad = np.flatnonzero((np.strings.str_len(first) == 0)
                         | (np.strings.str_len(second) == 0))
    if len(bad):
        r = bad[0]
        raise DataError(f"{path}: line {kept[r] + 1}: expected at least "
                        f"2 tab-separated fields, got {str(lines[r])!r}")
    return kept + 1, first, second


def _sorted_ids(ids) -> list:
    """Distinct ids, numerically ordered when all parse as integers, else
    lexicographically; ids that tie numerically (`1`, `01`) keep string order."""
    ids = sorted(set(ids))
    try:
        return sorted(ids, key=int)
    except ValueError:
        return ids


def _intern(tokens: list) -> tuple:
    """(sorted distinct ids, id -> index dict, int64 index of every token)."""
    ids = _sorted_ids(tokens)
    index = {e: k for k, e in enumerate(ids)}
    codes = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
    return ids, index, codes


def _row_lists(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> list:
    """Per row, the sorted distinct columns paired with it, as int lists."""
    codes = np.sort(rows * n_cols + cols)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    bounds = np.searchsorted(codes, np.arange(n_rows + 1) * n_cols).tolist()
    flat = (codes % n_cols).tolist()
    return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def load_dataset(directory) -> Dataset:
    """Load the three-file dataset from a directory."""
    directory = Path(directory)
    ui_path = directory / USER_ITEM_FILE
    g_path = directory / GROUPS_FILE
    gi_path = directory / GROUP_ITEMS_FILE

    _, ui_users, ui_items = _read_table(ui_path, "no interaction records")

    g_lines, g_names, member_lists = _read_table(g_path, "no group records")
    group_ids, group_index, g_codes = _intern(g_names.tolist())
    n_defs = len(g_codes)
    joined = ",".join(member_lists.tolist())
    members = np.strings.strip(np.array(joined.split(","), dtype=_STR), _strip_set(joined))
    owner = np.repeat(np.arange(n_defs), np.strings.count(member_lists, ",") + 1)
    present = np.strings.str_len(members) > 0
    members, owner = members[present], owner[present]
    first_def = np.unique(g_codes, return_index=True)[1]  # row of each group's first line
    no_members = np.bincount(owner, minlength=n_defs) == 0
    broken = np.flatnonzero(no_members | (first_def[g_codes] != np.arange(n_defs)))
    if len(broken):
        r = broken[0]
        gid = str(g_names[r])
        if no_members[r]:
            raise DataError(f"{g_path}: line {g_lines[r]}: group {gid!r} "
                            f"has an empty member list")
        raise DataError(f"{g_path}: line {g_lines[r]}: group {gid!r} already defined "
                        f"on line {g_lines[first_def[g_codes[r]]]}")

    gi_lines, gi_groups, gi_items = _read_table(gi_path, "no group-item records")
    gi_groups = gi_groups.tolist()
    gi_codes = np.fromiter(map(group_index.get, gi_groups, itertools.repeat(-1)),
                           np.int64, len(gi_groups))
    unknown = np.flatnonzero(gi_codes < 0)
    if len(unknown):
        r = unknown[0]
        raise DataError(f"{gi_path}: line {gi_lines[r]}: unknown group id {gi_groups[r]!r}")

    n_ui = len(ui_users)
    user_ids, user_index, u_codes = _intern(ui_users.tolist() + members.tolist())
    item_ids, item_index, i_codes = _intern(ui_items.tolist() + gi_items.tolist())
    n_users, n_items, n_groups = len(user_ids), len(item_ids), len(group_ids)
    return Dataset(
        n_users=n_users, n_items=n_items, n_groups=n_groups,
        user_items=_row_lists(u_codes[:n_ui], i_codes[:n_ui], n_users, n_items),
        groups=_row_lists(g_codes[owner], u_codes[n_ui:], n_groups, n_users),
        group_pos=_row_lists(gi_codes, i_codes[n_ui:], n_groups, n_items),
        user_ids=user_ids, item_ids=item_ids, group_ids=group_ids,
        user_index=user_index, item_index=item_index, group_index=group_index,
    )


def write_dataset(dataset: Dataset, directory, meta: dict | None = None) -> None:
    """Write a dataset back to the three-file format (plus optional meta.json)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / USER_ITEM_FILE, "w", encoding="utf-8") as f:
        for u in range(dataset.n_users):
            for i in dataset.user_items[u]:
                f.write(f"{dataset.user_ids[u]}\t{dataset.item_ids[i]}\n")
    with open(directory / GROUPS_FILE, "w", encoding="utf-8") as f:
        for g in range(dataset.n_groups):
            members = ",".join(dataset.user_ids[u] for u in dataset.groups[g])
            f.write(f"{dataset.group_ids[g]}\t{members}\n")
    with open(directory / GROUP_ITEMS_FILE, "w", encoding="utf-8") as f:
        for g in range(dataset.n_groups):
            for i in dataset.group_pos[g]:
                f.write(f"{dataset.group_ids[g]}\t{dataset.item_ids[i]}\n")
    if meta is not None:
        with open(directory / META_FILE, "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")


# ---------------------------------------------------------------------------
# splitting and sampling

def split_leave_one_out(dataset: Dataset, seed) -> Split:
    """Move one uniformly chosen positive per multi-positive group to test.

    Groups with a single positive keep it in train and are not evaluated.
    """
    rng = np.random.default_rng(seed)
    train, test = [], []
    for g in range(dataset.n_groups):
        pos = dataset.group_pos[g]
        if len(pos) >= 2:
            held = pos[int(rng.integers(len(pos)))]
            test.append((g, held))
            train.extend(Instance(g, i, 1) for i in pos if i != held)
        else:
            train.extend(Instance(g, i, 1) for i in pos)
    return Split(train=train, test=test)


def draw_unseen(n_items: int, seen, n: int, rng: np.random.Generator,
                owner: str) -> list:
    """Draw n distinct items uniformly from those not in `seen`; `owner`
    (e.g. "group 7") names whose items they are in a SamplingError."""
    if n < 0:
        raise UsageError("cannot sample a negative number of items")
    blocked = set(seen)
    eligible_count = n_items - len(blocked)
    if n > eligible_count:
        raise SamplingError(
            f"{owner}: requested {n} negatives but only "
            f"{eligible_count} of {n_items} items are eligible")
    if n == 0:
        return []
    if n <= eligible_count // 2:
        out: list = []
        chosen: set = set()
        while len(out) < n:
            cand = int(rng.integers(n_items))
            if cand in blocked or cand in chosen:
                continue
            chosen.add(cand)
            out.append(cand)
        return out
    eligible = np.array([i for i in range(n_items) if i not in blocked])
    return [int(i) for i in rng.choice(eligible, size=n, replace=False)]


def sample_negatives(dataset: Dataset, group: int, n: int,
                     rng: np.random.Generator) -> list:
    """Draw n distinct items uniformly from those the group never interacted
    with."""
    return draw_unseen(dataset.n_items, dataset.group_pos[group], n, rng,
                       f"group {dataset.group_ids[group]}")


# ---------------------------------------------------------------------------
# synthetic data

@dataclass
class SyntheticParams:
    """Knobs for the planted-cohort generator.

    Users belong to one of `n_cohorts` taste cohorts; their latent vector
    is the cohort vector plus `noise`-scaled jitter.  Interactions are the
    top `items_per_user` items by (noisy) latent utility.  Groups draw
    most members from one cohort, with a `cross_rate` fraction from the
    others, and their positives are the top `positives_per_group` items by
    noisy mean-member utility.
    """
    n_users: int = 200
    n_items: int = 500
    n_groups: int = 60
    group_size_range: tuple = (4, 8)
    n_cohorts: int = 3
    latent_dim: int = 8
    noise: float = 0.1
    positives_per_group: int = 10
    cross_rate: float = 0.2
    items_per_user: int | None = None  # default: max(10, n_items // 25)

    def resolved_items_per_user(self) -> int:
        if self.items_per_user is not None:
            return self.items_per_user
        return max(10, self.n_items // 25)

    def validate(self) -> None:
        if min(self.n_users, self.n_items, self.n_groups,
               self.n_cohorts, self.latent_dim) < 1:
            raise UsageError("all synthetic counts must be positive")
        lo, hi = self.group_size_range
        if not (1 <= lo <= hi <= self.n_users):
            raise UsageError(f"bad group_size_range {self.group_size_range}")
        if not (1 <= self.positives_per_group <= self.n_items):
            raise UsageError(f"positives_per_group={self.positives_per_group} "
                             f"not in [1, n_items={self.n_items}]")
        if not (1 <= self.resolved_items_per_user() <= self.n_items):
            raise UsageError(f"items_per_user={self.items_per_user} out of range")
        if self.n_cohorts > self.n_users:
            raise UsageError("more cohorts than users")
        if not 0.0 <= self.cross_rate <= 1.0:
            raise UsageError("cross_rate must be in [0, 1]")
        if self.noise < 0:
            raise UsageError("noise must be non-negative")

    def as_dict(self) -> dict:
        return {
            "n_users": self.n_users, "n_items": self.n_items,
            "n_groups": self.n_groups,
            "group_size_range": list(self.group_size_range),
            "n_cohorts": self.n_cohorts, "latent_dim": self.latent_dim,
            "noise": self.noise, "positives_per_group": self.positives_per_group,
            "cross_rate": self.cross_rate,
            "items_per_user": self.resolved_items_per_user(),
        }


@dataclass
class PlantedTruth:
    """Ground truth behind a synthetic dataset, for oracle scoring."""
    cohort_of: np.ndarray      # (n_users,)
    user_vecs: np.ndarray      # (n_users, latent_dim)
    item_vecs: np.ndarray      # (n_items, latent_dim)
    group_utility: np.ndarray  # (n_groups, n_items), noiseless mean member utility


def generate_synthetic(params: SyntheticParams, seed) -> tuple:
    """Generate a planted-cohort dataset; returns (Dataset, PlantedTruth).

    Deterministic for a given (params, seed).
    """
    params.validate()
    rng = np.random.default_rng(seed)
    nu, ni, ng = params.n_users, params.n_items, params.n_groups
    k = params.latent_dim

    cohort_vecs = rng.normal(0.0, 1.0, size=(params.n_cohorts, k))
    item_vecs = rng.normal(0.0, 1.0, size=(ni, k)) / np.sqrt(k)
    cohort_of = (np.arange(nu) * params.n_cohorts) // nu
    user_vecs = cohort_vecs[cohort_of] + params.noise * rng.normal(size=(nu, k))
    utility = user_vecs @ item_vecs.T  # (nu, ni)

    n_take = params.resolved_items_per_user()
    user_sets = []
    for u in range(nu):
        noisy = utility[u] + params.noise * rng.normal(size=ni)
        top = np.argpartition(-noisy, n_take - 1)[:n_take]
        user_sets.append({int(i) for i in top})
    # hand every never-interacted item to a random user so the written
    # dataset keeps the full item universe
    mentioned = set().union(*user_sets)
    for v in range(ni):
        if v not in mentioned:
            user_sets[int(rng.integers(nu))].add(v)
    user_items = [sorted(s) for s in user_sets]

    cohort_pools = [np.flatnonzero(cohort_of == c) for c in range(params.n_cohorts)]
    lo, hi = params.group_size_range
    groups = []
    for _ in range(ng):
        size = int(rng.integers(lo, hi + 1))
        c = int(rng.integers(params.n_cohorts))
        pool_in = cohort_pools[c]
        pool_out = np.flatnonzero(cohort_of != c)
        n_cross = int((rng.random(size) < params.cross_rate).sum())
        n_cross = min(n_cross, len(pool_out), size - 1 if len(pool_in) else size)
        n_in = min(size - n_cross, len(pool_in))
        members = []
        if n_in:
            members.extend(rng.choice(pool_in, size=n_in, replace=False))
        if n_cross:
            members.extend(rng.choice(pool_out, size=n_cross, replace=False))
        groups.append(sorted(int(u) for u in members))

    group_utility = np.empty((ng, ni))
    for g, members in enumerate(groups):
        group_utility[g] = item_vecs @ user_vecs[members].mean(axis=0)
    group_pos = []
    for g in range(ng):
        noisy = group_utility[g] + params.noise * rng.normal(size=ni)
        top = np.argpartition(-noisy, params.positives_per_group - 1)[:params.positives_per_group]
        group_pos.append(sorted(int(i) for i in top))

    dataset = Dataset(
        n_users=nu, n_items=ni, n_groups=ng,
        user_items=user_items, groups=groups, group_pos=group_pos,
        user_ids=[str(u) for u in range(nu)],
        item_ids=[str(i) for i in range(ni)],
        group_ids=[str(g) for g in range(ng)],
    )
    truth = PlantedTruth(cohort_of=cohort_of, user_vecs=user_vecs,
                         item_vecs=item_vecs, group_utility=group_utility)
    return dataset, truth
