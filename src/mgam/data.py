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

`load_dataset` interns every column.  `load_groups`, which `dump-graph`
uses, reads and checks the three files in the same order, so it raises
the same `DataError` for the same first fault, but interns only the
group ids, the member lists and the group column of `group_items.tsv`,
and numbers members by first appearance rather than by sorted user id.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, SamplingError, UsageError

USER_ITEM_FILE = "user_item.tsv"
GROUPS_FILE = "groups.tsv"
GROUP_ITEMS_FILE = "group_items.tsv"
DATA_FILES = (USER_ITEM_FILE, GROUPS_FILE, GROUP_ITEMS_FILE)
META_FILE = "meta.json"


class Rows:
    """Ragged rows of int64 indices in CSR form: row k, `rows[k]`, is the
    view `indices[offsets[k]:offsets[k + 1]]`; `len(rows)` is the row count."""

    __slots__ = ("offsets", "indices")

    def __init__(self, offsets, indices):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        o = self.offsets
        if not (o.ndim == self.indices.ndim == 1 and len(o) and o[0] == 0
                and o[-1] == len(self.indices) and (o[1:] >= o[:-1]).all()):
            raise UsageError("row offsets must be 1-D and rise from 0 to the index count")

    @classmethod
    def from_lists(cls, lists) -> "Rows":
        """The rows of a list of int lists."""
        lengths = np.fromiter(map(len, lists), np.int64, len(lists))
        return cls(np.concatenate(([0], np.cumsum(lengths))), np.fromiter(
            itertools.chain.from_iterable(lists), np.int64, int(lengths.sum())))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k) -> np.ndarray:
        k = range(len(self))[k]
        return self.indices[self.offsets[k]:self.offsets[k + 1]]

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def padded(self, row_ids, present=True) -> tuple:
        """The rows `row_ids` (an int array of any shape) padded to the
        longest of them: an int64 (*row_ids.shape, width) table whose
        padding reads index 0, and the mask of its real entries.  A row
        where the mask `present` is False counts as empty."""
        starts = self.offsets[row_ids]
        lengths = np.where(present, self.offsets[np.asarray(row_ids) + 1] - starts, 0)
        cols = np.arange(lengths.max(initial=0))
        valid = cols < lengths[..., None]
        idx = np.zeros(valid.shape, dtype=np.int64)
        idx[valid] = self.indices[(starts[..., None] + cols)[valid]]
        return idx, valid


@dataclass
class Dataset:
    """Remapped users, items, groups and their interactions.

    Immutable after construction.  The three index tables are `Rows`: row
    u of `user_items` holds user u's items, row g of `groups` group g's
    members and row g of `group_pos` its positive items, each sorted by
    internal index and duplicate-free.
    """
    n_users: int
    n_items: int
    n_groups: int
    user_items: Rows  # per user: sorted item indices
    groups: Rows      # per group: sorted member user indices
    group_pos: Rows   # per group: sorted positive item indices
    user_ids: list    # internal index -> external id (str)
    item_ids: list
    group_ids: list
    item_index: dict = field(default_factory=dict)
    group_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.item_index:
            self.item_index = {e: i for i, e in enumerate(self.item_ids)}
        if not self.group_index:
            self.group_index = {e: i for i, e in enumerate(self.group_ids)}


@dataclass
class Split:
    """Leave-one-out split: train keeps positives, test holds one per group.

    `train` is an (n, 2) int array of (group, item) positives in group
    order; `test` lists (group, held_out_item) pairs of Python ints.
    """
    train: np.ndarray
    test: list


# ---------------------------------------------------------------------------
# parsing
#
# Each file is decoded, then read as an array of code units: its bytes
# (uint8) when the text is ASCII, else its code points (UTF-32, uint32), so
# either way an array position is a `str` index into the text.  One table
# lookup classes every code unit as other, whitespace, tab or line break.
# Lines are cut at the breaks, fields at the tabs and member lists at their
# commas, and a piece is stripped by the whitespace runs that cover its
# ends; these positions are int32 while the text has fewer than 2**31 code
# units.  No piece becomes a `str` on its way to an index: its code units
# are packed into integer key words, one sort groups equal keys (a value
# sort of key and position packed into one uint64 where they fit), and
# only the first piece of each distinct id is cut out of the code units
# (one gather and one decode per column).  A file's distinct ids are merged
# into the sorted global ids, and per-row tables built from one sorted
# array of (row, column) codes.

# every character for which `str.isspace` is true
_WHITESPACE = ("\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002"
               "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029"
               "\u202f\u205f\u3000")
# every character at which `str.splitlines` ends a line, all whitespace;
# `read_text` turns `\r\n` and `\r` into `\n`, so no pair is ever one break
_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_OTHER, _SPACE, _TAB, _BREAK = range(4)
_CLASS = np.zeros(ord(max(_WHITESPACE)) + 2, np.uint8)  # the last entry: other
_CLASS[[ord(c) for c in _WHITESPACE]] = _SPACE
_CLASS[ord("\t")] = _TAB
_CLASS[[ord(c) for c in _BREAKS]] = _BREAK
_CLASS_BLOCK = 1 << 16   # code units per `take`, which copies them to intp


def _classes(code_units: np.ndarray) -> np.ndarray:
    """The `_CLASS` (uint8) of each code unit, of either width; a unit
    past the table reads its last entry, other.  Blocks hold `take`'s copy
    to 512 KB, and run faster than one `take` of the whole text."""
    classes = np.empty(len(code_units), np.uint8)
    for start in range(0, len(code_units), _CLASS_BLOCK):
        chunk = slice(start, start + _CLASS_BLOCK)
        _CLASS.take(code_units[chunk], mode="clip", out=classes[chunk])
    return classes


def _where(mask: np.ndarray) -> np.ndarray:
    """The positions where `mask` is true: int32 while it has fewer than
    2**31 entries, else int64."""
    return np.flatnonzero(mask).astype(np.int32 if mask.size < 2**31 else np.int64)


def _decode(code_units: np.ndarray) -> str:
    """The text of a contiguous array of code units, of either width."""
    return str(code_units, "ascii" if code_units.itemsize == 1 else "utf-32-le")


class _Whitespace:
    """Where a text's whitespace is: a mask over its code units and the
    `[start, end)` bounds of its maximal runs."""

    def __init__(self, classes: np.ndarray):
        self.mask = classes != _OTHER
        edges = _where(np.diff(self.mask, prepend=False, append=False))
        self.start, self.end = edges[0::2], edges[1::2]

    def strip(self, starts, ends) -> tuple:
        """Stripped bounds `[a, b)` of the pieces `[starts, ends)`: a piece
        that starts (ends) in a run starts at the run's end (ends at its
        start); one of whitespace only comes out empty, `a == b`."""
        a = starts.copy()
        lead = np.flatnonzero(self.mask[starts])
        a[lead] = self.end[np.searchsorted(self.start, starts[lead], "right") - 1]
        b = ends.copy()
        # an empty piece at 0 reads the closing break at -1; its b is replaced
        trail = np.flatnonzero(self.mask[ends - 1])
        b[trail] = self.start[np.searchsorted(self.start, ends[trail] - 1, "right") - 1]
        return a, np.where(a < ends, b, a)


def _cut(code_units: np.ndarray, starts, ends) -> list:
    """The text of each piece `[starts, ends)`: one gather, one decode and
    one split give them all."""
    # each piece and one more slot, which holds the separator
    lengths = ends - starts + 1
    offsets = np.cumsum(lengths)
    kept = code_units[np.arange(offsets[-1]) + np.repeat(starts - offsets + lengths, lengths)]
    kept[offsets - 1] = ord("\n")
    tokens = _decode(kept).split("\n")
    tokens.pop()
    return tokens


def _records(path: Path, code_units: np.ndarray, empty_msg: str) -> tuple:
    """(whitespace, line numbers, first fields, second fields) of the record
    lines, a field as the `(starts, ends)` of its stripped bounds; see
    `_read_table`."""
    classes = _classes(code_units)
    space = _Whitespace(classes)
    end = _where(classes == _BREAK)
    start = np.insert(end[:-1] + 1, 0, 0)
    first = space.strip(start, end)[0]
    kept = _where(first < end)
    kept = kept[code_units[first[kept]] != ord("#")]
    if not len(kept):
        raise DataError(f"{path}: {empty_msg}")
    start, end = start[kept], end[kept]
    # two sentinels past the text: a line without a (second) tab ends there
    tabs = _where(classes == _TAB)
    tabs = np.append(tabs, np.full(2, len(classes), tabs.dtype))
    t = np.searchsorted(tabs, start)
    tab1 = np.minimum(tabs[t], end)
    a1, b1 = space.strip(start, tab1)
    a2, b2 = space.strip(np.minimum(tab1 + 1, end), np.minimum(tabs[t + 1], end))
    bad = np.flatnonzero((a1 == b1) | (a2 == b2))
    if len(bad):
        r = bad[0]
        line = _decode(code_units[start[r]:end[r]])
        raise DataError(f"{path}: line {kept[r] + 1}: expected at least "
                        f"2 tab-separated fields, got {line!r}")
    return space, kept + 1, (a1, b1), (a2, b2)


def _read_table(path, empty_msg: str) -> tuple:
    """(code units, whitespace, line numbers, first fields, second fields)
    of a TSV's record lines.

    Blank, whitespace-only and `#` comment lines are skipped; both fields
    are stripped and must be non-empty, or the first line where one is not
    is named in a `DataError`.  The code units of the text, which end in a
    break, are its bytes (uint8) when it is ASCII, else its code points
    (uint32).  A field is the `(starts, ends)` of its bounds into them,
    int32 while there are fewer than 2**31 units.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: cannot read ({e})") from e
    # a closing break, so every line and every field ends before a
    # whitespace character; it adds at most one blank line
    text += "\n"
    code_units = (np.frombuffer(text.encode("ascii"), np.uint8) if text.isascii()
                  else np.frombuffer(text.encode("utf-32-le"), np.uint32))
    del text  # only the code units are read from here on
    return (code_units, *_records(path, code_units, empty_msg))


def _split(code_units: np.ndarray, space: _Whitespace, starts, ends) -> tuple:
    """(field of each piece, piece starts, piece ends): the fields
    `[starts, ends)` cut at their commas, each piece stripped and the
    empty ones dropped."""
    commas = _where(code_units == ord(","))
    field = np.searchsorted(starts, commas, "right") - 1
    commas = commas[(field >= 0) & (commas < ends[field])]
    a, b = space.strip(np.sort(np.concatenate((starts, commas + 1))),
                       np.sort(np.concatenate((commas, ends))))
    kept = a < b
    a, b = a[kept], b[kept]
    return np.searchsorted(starts, a, "right") - 1, a, b


def _intern(code_units: np.ndarray, starts, ends) -> tuple:
    """(distinct ids in first-seen order, int64 index of every piece into
    them) of the non-empty pieces `[starts, ends)`, in text order.

    A piece's key is its code units, each + 1, packed as many to a uint64
    word as the text's largest code unit allows, the last word padded
    with 0; two pieces have equal keys exactly when their texts are equal.
    The pieces of each key width are grouped by one sort, and only the
    first piece of each distinct id is decoded.  One-word keys short
    enough to leave room for a piece's position below them are sorted as
    values, `key << index_bits | position`: equal keys then come out in
    text order, so each id's first piece leads its run."""
    bits = (int(code_units.max()) + 1).bit_length()
    per_word = 64 // bits
    widths = (ends - starts + per_word - 1) // per_word
    codes = np.empty(len(starts), np.int64)
    firsts = []
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        rows = np.flatnonzero(widths == width)
        at = starts[rows, None] + np.arange(0, width * per_word, per_word)
        left = ends[rows, None] - at  # the piece's characters from each word on
        keys = np.zeros(at.shape, np.uint64)
        longest = min(per_word, int(left.max()))
        for k in range(longest):
            chars = (code_units.take(at + k, mode="clip") + 1) * (left > k)
            keys |= chars.astype(np.uint64) << np.uint64(k * bits)
        index_bits = len(rows).bit_length()
        packs = width == 1 and bits * longest + index_bits <= 64
        if packs:
            packed = np.sort(keys[:, 0] << np.uint64(index_bits)
                             | np.arange(len(rows), dtype=np.uint64))
            order = (packed & np.uint64((1 << index_bits) - 1)).astype(np.intp)
            keys = (packed >> np.uint64(index_bits))[:, None]
        else:
            order = np.argsort(keys[:, 0]) if width == 1 else np.lexsort(keys.T)
            keys = keys[order]
        new = np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))
        codes[rows[order]] = sum(map(len, firsts)) + np.cumsum(new) - 1
        # the other sorts need not be stable: there a distinct id's first
        # piece is the least row among its equal keys
        firsts.append(rows[order[new] if packs
                           else np.minimum.reduceat(order, np.flatnonzero(new))])
    firsts = np.concatenate(firsts)
    by_text = np.argsort(firsts)
    rank = np.empty(len(firsts), np.int64)
    rank[by_text] = np.arange(len(firsts))
    firsts = firsts[by_text]
    return _cut(code_units, starts[firsts], ends[firsts]), rank[codes]


def _sorted_ids(ids) -> list:
    """Distinct ids, numerically ordered when all parse as integers, else
    lexicographically; ids that tie numerically (`1`, `01`) keep string order."""
    ids = sorted(set(ids))
    try:
        return sorted(ids, key=int)
    except ValueError:
        return ids


def _merge(*parts) -> tuple:
    """(sorted ids, id -> index, each part's codes remapped to those ids)
    of `_intern` parts."""
    ids = _sorted_ids(itertools.chain.from_iterable(d for d, _ in parts))
    index = {e: k for k, e in enumerate(ids)}
    return ids, index, [np.fromiter(map(index.__getitem__, d), np.int64, len(d))[c]
                        for d, c in parts]


def _rows(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> Rows:
    """Per row, the sorted distinct columns paired with it."""
    codes = np.sort(rows * n_cols + cols)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return Rows(np.searchsorted(codes, np.arange(n_rows + 1) * n_cols),
                codes % n_cols)


def _read_user_items(directory: Path) -> tuple:
    """(code units, user field, item field) of `user_item.tsv`."""
    text, _, _, users, items = _read_table(directory / USER_ITEM_FILE,
                                           "no interaction records")
    return text, users, items


def _read_groups(directory: Path) -> tuple:
    """(sorted group ids, id -> index, the group of each member piece,
    `_intern` of the member pieces) of `groups.tsv`, once no group is
    defined twice or with an empty member list."""
    path = directory / GROUPS_FILE
    text, space, lines, names, lists = _read_table(path, "no group records")
    g_names, g_local = _intern(text, *names)
    group_ids, group_index, (g_codes,) = _merge((g_names, g_local))
    n_defs = len(g_codes)
    owner, *pieces = _split(text, space, *lists)
    first_def = np.unique(g_codes, return_index=True)[1]  # row of each group's first line
    no_members = np.bincount(owner, minlength=n_defs) == 0
    broken = np.flatnonzero(no_members | (first_def[g_codes] != np.arange(n_defs)))
    if len(broken):
        r = broken[0]
        name = g_names[g_local[r]]
        if no_members[r]:
            raise DataError(f"{path}: line {lines[r]}: group {name!r} "
                            f"has an empty member list")
        raise DataError(f"{path}: line {lines[r]}: group {name!r} already "
                        f"defined on line {lines[first_def[g_codes[r]]]}")
    return group_ids, group_index, g_codes[owner], _intern(text, *pieces)


def _read_group_items(directory: Path, group_index: dict) -> tuple:
    """(code units, group index of each record, item field) of
    `group_items.tsv`, once every group id is shown to be defined."""
    path = directory / GROUP_ITEMS_FILE
    text, _, lines, groups, items = _read_table(path, "no group-item records")
    distinct, local = _intern(text, *groups)
    codes = np.fromiter(map(group_index.get, distinct, itertools.repeat(-1)),
                        np.int64, len(distinct))[local]
    unknown = np.flatnonzero(codes < 0)
    if len(unknown):
        r = unknown[0]
        raise DataError(f"{path}: line {lines[r]}: unknown group id "
                        f"{distinct[local[r]]!r}")
    return text, codes, items


def load_dataset(directory) -> Dataset:
    """Load the three-file dataset from a directory."""
    directory = Path(directory)
    text, users, items = _read_user_items(directory)
    ui_users, ui_items = _intern(text, *users), _intern(text, *items)
    del text  # one file's code units at a time
    group_ids, group_index, member_g, members = _read_groups(directory)
    text, gi_codes, items = _read_group_items(directory, group_index)
    gi_items = _intern(text, *items)
    del text

    user_ids, _, (ui_u, member_u) = _merge(ui_users, members)
    item_ids, item_index, (ui_i, gi_i) = _merge(ui_items, gi_items)
    n_users, n_items, n_groups = len(user_ids), len(item_ids), len(group_ids)
    return Dataset(
        n_users=n_users, n_items=n_items, n_groups=n_groups,
        user_items=_rows(ui_u, ui_i, n_users, n_items),
        groups=_rows(member_g, member_u, n_groups, n_users),
        group_pos=_rows(gi_codes, gi_i, n_groups, n_items),
        user_ids=user_ids, item_ids=item_ids, group_ids=group_ids,
        item_index=item_index, group_index=group_index,
    )


def load_groups(directory) -> tuple:
    """(group ids, per-group members) of the dataset in a directory, as
    `load_dataset` gives them but with each member numbered by its first
    appearance in `groups.tsv`, not by the sorted user ids: all that the
    co-membership graph reads.  Every file is read and checked as
    `load_dataset` checks it, so the same `DataError` names the same first
    fault, but only the group ids and member lists are interned."""
    directory = Path(directory)
    _read_user_items(directory)
    group_ids, group_index, member_g, (users, member_u) = _read_groups(directory)
    _read_group_items(directory, group_index)
    return group_ids, _rows(member_g, member_u, len(group_ids), len(users))


def dataset_sha256(directory) -> dict:
    """File name -> sha256 hex digest of each of the three dataset files."""
    digests = {}
    for name in DATA_FILES:
        path = Path(directory) / name
        try:
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as e:
            raise DataError(f"{path}: cannot read ({e})") from e
    return digests


def write_dataset(dataset: Dataset, directory, meta: dict | None = None) -> None:
    """Write a dataset back to the three-file format (plus optional meta.json)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / USER_ITEM_FILE, "w", encoding="utf-8") as f:
        for u in range(dataset.n_users):
            for i in dataset.user_items[u].tolist():
                f.write(f"{dataset.user_ids[u]}\t{dataset.item_ids[i]}\n")
    with open(directory / GROUPS_FILE, "w", encoding="utf-8") as f:
        for g in range(dataset.n_groups):
            members = ",".join(dataset.user_ids[u] for u in dataset.groups[g].tolist())
            f.write(f"{dataset.group_ids[g]}\t{members}\n")
    with open(directory / GROUP_ITEMS_FILE, "w", encoding="utf-8") as f:
        for g in range(dataset.n_groups):
            for i in dataset.group_pos[g].tolist():
                f.write(f"{dataset.group_ids[g]}\t{dataset.item_ids[i]}\n")
    if meta is not None:
        with open(directory / META_FILE, "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")


# ---------------------------------------------------------------------------
# array form, as stored in checkpoints

_ROWS_FIELDS = ("user_items", "groups", "group_pos")
_ID_FIELDS = ("user_ids", "item_ids", "group_ids")


def dataset_arrays(dataset: Dataset) -> dict:
    """The dataset as named arrays: each `Rows` table as its
    `<field>_offsets` and `<field>_indices`, each id list as its
    newline-joined UTF-8 bytes (uint8; loaded ids never hold a line break)."""
    arrays = {f"{name}_{part}": getattr(getattr(dataset, name), part)
              for name in _ROWS_FIELDS for part in ("offsets", "indices")}
    for name in _ID_FIELDS:
        text = "\n".join(getattr(dataset, name))
        arrays[name] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    return arrays


def dataset_from_arrays(arrays) -> Dataset:
    """Inverse of `dataset_arrays` (an empty id list is stored as no bytes)."""
    rows = {name: Rows(arrays[f"{name}_offsets"], arrays[f"{name}_indices"])
            for name in _ROWS_FIELDS}
    ids = {}
    for name in _ID_FIELDS:
        text = arrays[name].tobytes().decode("utf-8")
        ids[name] = text.split("\n") if text else []
    return Dataset(n_users=len(ids["user_ids"]), n_items=len(ids["item_ids"]),
                   n_groups=len(ids["group_ids"]), **rows, **ids)


# ---------------------------------------------------------------------------
# splitting and sampling

def split_leave_one_out(dataset: Dataset, seed) -> Split:
    """Move one uniformly chosen positive per multi-positive group to test.

    Groups with a single positive keep it in train and are not evaluated.
    """
    rng = np.random.default_rng(seed)
    pos = dataset.group_pos
    lengths = pos.lengths()
    tested = np.flatnonzero(lengths >= 2)
    held = pos.offsets[tested] + rng.integers(lengths[tested])
    kept = ~np.isin(np.arange(len(pos.indices)), held)
    owner = np.repeat(np.arange(len(pos)), lengths)
    return Split(train=np.stack((owner[kept], pos.indices[kept]), axis=1),
                 test=list(zip(tested.tolist(), pos.indices[held].tolist())))


def sample_negatives(dataset: Dataset, group, n: int, rng):
    """Draw n distinct items uniformly from those the group never interacted
    with: row 0 of a one-row `draw_unseen_rows` table, as Python ints, for
    one group, or the table over a 1-D array of groups.  `rng` is a
    Generator, or for an array of groups a list of one per group."""
    rows = draw_unseen_rows(dataset.n_items, dataset.group_pos, np.atleast_1d(group), n,
                            rng, lambda g: f"group {dataset.group_ids[g]}")
    return rows[0].tolist() if np.ndim(group) == 0 else rows


def draw_unseen_rows(n_items: int, seen: Rows, owners, n: int, rng, name) -> np.ndarray:
    """An (len(owners), n) int64 table whose row i holds n distinct items
    drawn uniformly, in uniformly random order, from those not in row
    owners[i] of `seen` (sorted, duplicate-free rows, as a `Dataset`'s);
    `name(o)` names owner o in a SamplingError, raised before any draw.

    Floyd's algorithm draws each row's ranks (rank r: the r-th item not
    seen) among its E eligible items: slot j draws from [0, E - n + j],
    in one `rng.integers` call for all slots, and a rank an earlier slot
    holds becomes E - n + j.  One `rng.permuted` then shuffles each row,
    since Floyd alone never puts the top n - 1 ranks in slot 0.  `rng` is
    one Generator for the table, or a list of one per owner: row i
    then reads only `rng[i]`, an `integers` and a `permuted` call over
    its own row, as a one-row table on that Generator would; the clash
    passes and the rank-to-item mapping run over all rows at once.
    """
    if n < 0:
        raise UsageError("cannot sample a negative number of items")
    owners = np.asarray(owners, dtype=np.int64)
    lengths = seen.lengths()[owners]
    eligible = n_items - lengths
    short = np.flatnonzero(eligible < n)
    if len(short):
        raise SamplingError(f"{name(int(owners[short[0]]))}: requested {n} negatives but "
                            f"only {eligible[short[0]]} of {n_items} items are eligible")
    per_owner = isinstance(rng, list)
    slots = np.arange(n)
    low = (eligible - n)[:, None]
    if per_owner:
        drawn = np.array([g.integers(high) for g, high in zip(rng, low + slots + 1)],
                         dtype=np.int64).reshape(len(owners), n)
    else:
        drawn = rng.integers(low + slots + 1)
    # an earlier slot holds slot j's draw if it drew it too (a stable sort puts
    # equal draws in slot order: all but the first are repeats), or if the draw
    # is its top and it took that; each pass settles one more slot
    order = np.argsort(drawn, axis=1, kind="stable")
    ordered = np.take_along_axis(drawn, order, axis=1)
    repeat = np.zeros(drawn.shape, dtype=bool)
    np.put_along_axis(repeat, order[:, 1:], ordered[:, 1:] == ordered[:, :-1], axis=1)
    top_slot = drawn - low
    at_top = (top_slot >= 0) & (top_slot < slots)
    top_slot[~at_top] = 0
    clash, settled = repeat, None
    while not np.array_equal(clash, settled):
        settled, clash = clash, repeat | at_top & np.take_along_axis(clash, top_slot, axis=1)
    ranks = np.where(clash, low + slots, drawn)
    if per_owner:
        for g, row in zip(rng, ranks):
            g.permuted(row, out=row)
    else:
        ranks = rng.permuted(ranks, axis=1)
    # rank r is item r plus the count of seen items k with seen_k - k <= r;
    # the keys of each owner's CSR range, offset by its row, sort as one array
    before = np.cumsum(lengths) - lengths                  # each row's first key
    key_row = np.repeat(np.arange(len(owners)), lengths)
    k = np.arange(len(key_row)) - before[key_row]
    keys = key_row * (n_items + 1) + seen.indices[seen.offsets[owners][key_row] + k] - k
    row = np.arange(len(owners))[:, None]
    return ranks + np.searchsorted(keys, row * (n_items + 1) + ranks, "right") - before[:, None]


def label_blocks(positives, negatives) -> np.ndarray:
    """(n, 1 + k, 3) int64 (owner, item, label) rows, as training batches and
    ranking lists lay them out: each (owner, item) of the (n, 2) `positives`,
    labelled 1, then its row of the (n, k) `negatives`, labelled 0."""
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
    negatives = np.array(negatives, dtype=np.int64, ndmin=2)   # no rows: (1, 0)
    blocks = np.zeros((len(positives), 1 + negatives.shape[1], 3), dtype=np.int64)
    blocks[:, :, :2] = positives[:, None]
    blocks[:, 1:, 1] = negatives
    blocks[:, 0, 2] = 1
    return blocks


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
        return {**asdict(self), "items_per_user": self.resolved_items_per_user()}


@dataclass
class PlantedTruth:
    """Ground truth behind a synthetic dataset, for oracle scoring."""
    cohort_of: np.ndarray      # (n_users,)
    user_vecs: np.ndarray      # (n_users, latent_dim)
    item_vecs: np.ndarray      # (n_items, latent_dim)
    group_means: np.ndarray    # (n_groups, latent_dim), mean member vector


def _noisy_top(utility: np.ndarray, noise: float, n_take: int, rng) -> list:
    """The sorted `n_take` largest entries of `utility` plus Gaussian noise
    scaled by `noise`, drawing one standard normal per entry from `rng`.
    `rng.standard_normal(n)` returns the values of `rng.normal(size=n)`,
    which computes `0.0 + 1.0 * z` from the same draw, and leaves the
    stream at the same position, without the per-value location and scale."""
    noisy = rng.standard_normal(len(utility))
    noisy *= noise
    noisy += utility
    np.negative(noisy, out=noisy)
    return sorted(np.argpartition(noisy, n_take - 1)[:n_take].tolist())


def generate_synthetic(params: SyntheticParams, seed) -> tuple:
    """Generate a planted-cohort dataset; returns (Dataset, PlantedTruth).

    Deterministic for a given (params, seed).  Each group's utility row,
    `item_vecs @ group_means[g]`, is computed into one reused buffer, so
    no `n_groups x n_items` array is held.  Each utility row's noise is
    one `standard_normal` draw per item (`_noisy_top`), which reads the
    stream exactly as `normal(0, 1)` does, so the files are byte-identical
    to those of a `normal` draw.
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
    user_sets = [set(_noisy_top(utility[u], params.noise, n_take, rng)) for u in range(nu)]
    del utility
    # hand every never-interacted item to a random user so the written
    # dataset keeps the full item universe
    mentioned = set().union(*user_sets)
    for v in range(ni):
        if v not in mentioned:
            user_sets[int(rng.integers(nu))].add(v)
    user_items = [sorted(s) for s in user_sets]

    cohort_pools = [np.flatnonzero(cohort_of == c) for c in range(params.n_cohorts)]
    cohort_outs = [np.flatnonzero(cohort_of != c) for c in range(params.n_cohorts)]
    lo, hi = params.group_size_range
    groups = []
    for _ in range(ng):
        size = int(rng.integers(lo, hi + 1))
        c = int(rng.integers(params.n_cohorts))
        pool_in, pool_out = cohort_pools[c], cohort_outs[c]
        n_cross = int((rng.random(size) < params.cross_rate).sum())
        n_cross = min(n_cross, len(pool_out), size - 1 if len(pool_in) else size)
        n_in = min(size - n_cross, len(pool_in))
        members = []
        if n_in:
            members.append(rng.choice(pool_in, size=n_in, replace=False))
        if n_cross:
            members.append(rng.choice(pool_out, size=n_cross, replace=False))
        groups.append(np.sort(np.concatenate(members)).tolist())

    group_means = np.stack([user_vecs[members].mean(axis=0) for members in groups])
    row = np.empty(ni)
    group_pos = []
    for mean in group_means:
        np.matmul(item_vecs, mean, out=row)
        group_pos.append(_noisy_top(row, params.noise, params.positives_per_group, rng))

    dataset = Dataset(
        n_users=nu, n_items=ni, n_groups=ng, user_items=Rows.from_lists(user_items),
        groups=Rows.from_lists(groups), group_pos=Rows.from_lists(group_pos),
        user_ids=[str(u) for u in range(nu)],
        item_ids=[str(i) for i in range(ni)],
        group_ids=[str(g) for g in range(ng)],
    )
    truth = PlantedTruth(cohort_of=cohort_of, user_vecs=user_vecs,
                         item_vecs=item_vecs, group_means=group_means)
    return dataset, truth
