"""Output checks for the benchmark's CLI operations.

Each check reads what a command wrote (files or stdout) and recomputes it
independently: rankings against the plain-numpy forward oracle in
`tests/reference_forward.py`, the co-membership graph as the nonzeros of
`B Bᵀ` for the group x user incidence `B`, and the subset dump against the
group member lists.  A check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse

from mgam.config import STREAM_EVAL, substream
from mgam.data import sample_negatives

# a printed score has six decimals, so it can differ from the oracle by the
# rounding half-step plus the forward's own float error
PRINT_TOL = 5e-7 + 1e-9
# candidates whose oracle scores lie this close count as tied
TIE_TOL = 1e-9


def load_reference_forward(root: Path):
    """Import `reference_forward` from the repository's test oracle."""
    path = Path(root) / "tests" / "reference_forward.py"
    spec = importlib.util.spec_from_file_location("bench_reference_forward", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_forward


def read_params(ckpt_dir) -> dict:
    """Parameter arrays from a checkpoint, read without mgam's loader."""
    ckpt_dir = Path(ckpt_dir)
    manifest = json.loads((ckpt_dir / "manifest.json").read_text(encoding="utf-8"))
    raw = np.fromfile(ckpt_dir / "params.bin", dtype="<f4").astype(np.float64)
    out = {}
    for t in manifest["tensors"]:
        out[t["name"]] = raw[t["offset"]:t["offset"] + t["size"]].reshape(t["shape"])
    return out


def mask_flags(label: str) -> dict:
    """`mgam` / `mgam-wo-a-b` model labels as reference_forward flags."""
    off = set(label[len("mgam-wo-"):].split("-")) if label.startswith("mgam-wo-") else set()
    return {"use_subpe": "subpe" not in off, "use_gpe": "gpe" not in off,
            "use_suppe": "suppe" not in off}


class Oracle:
    """Scores (group, item) pairs one at a time with the reference forward."""

    def __init__(self, reference_forward, dataset, assignments, params: dict,
                 embedding_dim: int, num_subsets: int, gcn_layers: int):
        self._forward = reference_forward
        self.dataset = dataset
        self._subsets = [a.subsets for a in assignments]
        self._params = params
        self._shape = (embedding_dim, num_subsets, gcn_layers)

    def scores(self, group: int, items, flags: dict) -> np.ndarray:
        d, m, layers = self._shape
        return np.array([
            self._forward(self._params, self.dataset, self._subsets, [(group, v)],
                          d, m, layers, **flags)[0]
            for v in items])


def position_range(scores: np.ndarray, target: int) -> tuple:
    """1-based ranks the target may take when near-equal scores are ties."""
    s = scores[target]
    higher = int((scores > s + TIE_TOL).sum())
    tied = int((np.abs(scores - s) <= TIE_TOL).sum())
    return higher + 1, higher + tied


def _read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def check_ranking(metrics_csv, detail_csv, oracle: Oracle, split, seed: int,
                  eval_negatives: int, check_groups) -> list:
    """Check `eval`/`ablate` outputs.

    Every model row of metrics.csv must be the mean of the per-group
    metrics in metrics_detail.csv, every test group must appear once, and
    for each group in `check_groups` the reported position of the held-out
    item must match the oracle's ranking of the same candidates.
    """
    problems = []
    dataset = oracle.dataset
    detail: dict = {}
    for row in _read_csv(detail_csv):
        detail.setdefault(row["model"], {})[row["group"]] = int(row["position"])
    summary = _read_csv(metrics_csv)
    labels = sorted({row["model"] for row in summary})
    if sorted(detail) != labels:
        return [f"models in metrics.csv {labels} != metrics_detail.csv {sorted(detail)}"]
    test_ids = [dataset.group_ids[g] for g, _ in split.test]
    for label in labels:
        positions = detail[label]
        if sorted(positions) != sorted(test_ids):
            problems.append(f"{label}: detail rows do not cover the test groups once each")
            continue
        for row in (r for r in summary if r["model"] == label):
            k = int(row["K"])
            ranks = [positions[gid] for gid in test_ids]
            hr = sum(1.0 if p <= k else 0.0 for p in ranks) / len(ranks)
            ndcg = sum(1.0 / math.log2(p + 1) if p <= k else 0.0 for p in ranks) / len(ranks)
            if int(row["n_groups"]) != len(ranks):
                problems.append(f"{label}: n_groups {row['n_groups']} != {len(ranks)}")
            if abs(float(row["HR"]) - hr) > 1e-12 or abs(float(row["NDCG"]) - ndcg) > 1e-12:
                problems.append(f"{label} K={k}: HR/NDCG {row['HR']}/{row['NDCG']} "
                                f"!= detail mean {hr}/{ndcg}")
        flags = mask_flags(label)
        held_out = dict(split.test)
        for g in check_groups:
            rng = np.random.default_rng(substream(seed, STREAM_EVAL, g))
            negatives = sample_negatives(dataset, g, eval_negatives, rng=rng)
            scores = oracle.scores(g, [held_out[g]] + negatives, flags)
            lo, hi = position_range(scores, 0)
            got = positions[dataset.group_ids[g]]
            if not lo <= got <= hi:
                problems.append(f"{label} group {dataset.group_ids[g]}: position {got}, "
                                f"oracle ranks the held-out item {lo}..{hi}")
    return problems


def parse_recommendations(text: str) -> list:
    """(rank, item id, score) rows from `mgam recommend` stdout."""
    rows = []
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) == 3 and fields[0].isdigit():
            rows.append((int(fields[0]), fields[1], float(fields[2])))
    return rows


def check_recommend(text: str, oracle: Oracle, group: int, k: int,
                    full: bool = False) -> list:
    """Check one `mgam recommend` answer.

    The list must hold min(k, #unseen items) distinct unseen items with
    non-increasing scores, and each printed score must match the oracle to
    print precision.  With `full`, every unseen item is scored by the oracle
    and the printed list must be its top k (near-ties may swap).
    """
    dataset = oracle.dataset
    rows = parse_recommendations(text)
    positives = set(dataset.group_pos[group])
    candidates = [i for i in range(dataset.n_items) if i not in positives]
    want = min(k, len(candidates))
    if [r for r, _, _ in rows] != list(range(1, want + 1)):
        return [f"expected ranks 1..{want}, got {[r for r, _, _ in rows]}"]
    problems = []
    items = []
    for _, item_id, _ in rows:
        if item_id not in dataset.item_index:
            return [f"unknown item id {item_id!r}"]
        items.append(dataset.item_index[item_id])
    if len(set(items)) != len(items):
        problems.append("duplicate items in the list")
    if positives & set(items):
        problems.append("list includes a positive of the group")
    printed = np.array([s for _, _, s in rows])
    if np.any(np.diff(printed) > 0):
        problems.append("scores are not sorted in descending order")
    flags = mask_flags("mgam")
    if full:
        all_scores = oracle.scores(group, candidates, flags)
        by_item = dict(zip(candidates, all_scores))
        expected = np.sort(all_scores)[::-1][:want]
        got = np.array([by_item.get(i, -np.inf) for i in items])
        if np.any(np.abs(got - expected) > TIE_TOL):
            problems.append("list is not the oracle's top-k")
    else:
        got = oracle.scores(group, items, flags)
    if np.any(np.abs(got - printed) > PRINT_TOL):
        problems.append(f"printed scores differ from the oracle by up to "
                        f"{float(np.max(np.abs(got - printed))):.3g}")
    return problems


def _sorted_ids(ids) -> list:
    ids = set(ids)
    try:
        return sorted(ids, key=int)
    except ValueError:
        return sorted(ids)


def read_groups(groups_tsv) -> dict:
    """group id -> set of member ids, parsed from groups.tsv."""
    groups = {}
    with open(groups_tsv, encoding="utf-8") as f:
        for line in f:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            gid, members = line.rstrip("\n").split("\t")[:2]
            groups[gid.strip()] = {m.strip() for m in members.split(",") if m.strip()}
    return groups


def check_graph(graph_tsv, groups_tsv) -> list:
    """Dumped edges must be exactly the off-diagonal nonzeros of B Bᵀ."""
    groups = read_groups(groups_tsv)
    gids = _sorted_ids(groups)
    gidx = {g: i for i, g in enumerate(gids)}
    uidx = {u: i for i, u in enumerate(_sorted_ids(set().union(*groups.values())))}
    rows = [gidx[g] for g in gids for _ in groups[g]]
    cols = [uidx[u] for g in gids for u in groups[g]]
    b = sparse.csr_array((np.ones(len(rows)), (rows, cols)),
                         shape=(len(gids), len(uidx)))
    co = sparse.triu(b @ b.T, k=1).tocoo()
    n = len(gids)
    expected = np.sort(co.row.astype(np.int64) * n + co.col)

    pairs = []
    with open(graph_tsv, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2 or fields[0] not in gidx or fields[1] not in gidx:
                return [f"line {lineno}: not an edge between known groups: {line!r}"]
            a, c = gidx[fields[0]], gidx[fields[1]]
            if a == c:
                return [f"line {lineno}: self-loop {line!r}"]
            pairs.append(min(a, c) * n + max(a, c))
    got = np.sort(np.array(pairs, dtype=np.int64))
    if len(np.unique(got)) != len(got):
        return ["duplicate edges"]
    if not np.array_equal(got, expected):
        missing = len(np.setdiff1d(expected, got))
        extra = len(np.setdiff1d(got, expected))
        return [f"edge set differs from B Bᵀ: {missing} missing, {extra} extra"]
    return []


def check_subsets(subsets_tsv, groups_tsv, max_subsets: int) -> list:
    """Each group's dump must be an ordered partition of its members.

    At most `max_subsets` subsets, numbered from 0, ordered by descending
    size then smallest member, members ascending; and one global user
    labelling must explain every group (users sharing a subset anywhere
    share a label, users in different subsets of one group do not).
    """
    groups = read_groups(groups_tsv)
    uids = _sorted_ids(set().union(*groups.values()))
    uidx = {u: i for i, u in enumerate(uids)}
    dumped: dict = {}
    with open(subsets_tsv, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3 or fields[0] not in groups or fields[2] not in uidx:
                return [f"line {lineno}: malformed row {line!r}"]
            dumped.setdefault(fields[0], {}).setdefault(int(fields[1]), []).append(
                uidx[fields[2]])
    if set(dumped) != set(groups):
        return [f"{len(set(groups) - set(dumped))} groups missing from the dump"]

    parent = list(range(len(uids)))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    problems = []
    ordered = {}
    for gid, by_index in dumped.items():
        subsets = [by_index[i] for i in sorted(by_index)]
        if sorted(by_index) != list(range(len(subsets))):
            problems.append(f"group {gid}: subset indices {sorted(by_index)}")
        if len(subsets) > max_subsets:
            problems.append(f"group {gid}: {len(subsets)} subsets > {max_subsets}")
        members = [u for s in subsets for u in s]
        if sorted(members) != sorted(uidx[u] for u in groups[gid]):
            problems.append(f"group {gid}: subsets do not partition the members")
        if any(s != sorted(s) for s in subsets):
            problems.append(f"group {gid}: members not ascending within a subset")
        if subsets != sorted(subsets, key=lambda s: (-len(s), s[0])):
            problems.append(f"group {gid}: subsets not ordered by size, then first member")
        for s in subsets:
            for u in s[1:]:
                parent[find(u)] = find(s[0])
        ordered[gid] = subsets
    if problems:
        return problems[:5]

    conflicts: dict = {}
    for gid, subsets in ordered.items():
        roots = [find(s[0]) for s in subsets]
        if len(set(roots)) != len(roots):
            return [f"group {gid}: users in different subsets share a subset elsewhere"]
        for r in roots:
            conflicts.setdefault(r, set()).update(x for x in roots if x != r)
    if len(conflicts) <= max_subsets:
        return []
    # greedy colouring of the label classes, largest conflict set first
    colour: dict = {}
    for r in sorted(conflicts, key=lambda r: -len(conflicts[r])):
        used = {colour[x] for x in conflicts[r] if x in colour}
        free = [c for c in range(max_subsets) if c not in used]
        if not free:
            return [f"greedy search found no labelling with {max_subsets} labels"]
        colour[r] = free[0]
    return []
