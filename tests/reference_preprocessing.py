"""Slow reference implementations of mgam's preprocessing.

These are the line-by-line, dense and loop-based forms that the
production code in `mgam.data`, `mgam.clustering` and `mgam.graph`
replaced.  Tests compare the fast paths against them: a line-by-line TSV
parser, a dense Lloyd K-Means over dense feature rows, the per-user pair
loop that builds the co-membership adjacency, the sorted-pair graph
writer and the one-line-at-a-time subset writer.  `planted_utility`
recomputes the synthetic generator's noiseless group utilities, which
the generator itself never holds as one matrix.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import sparse

from mgam.data import GROUP_ITEMS_FILE, GROUPS_FILE, USER_ITEM_FILE, Dataset, Rows
from mgam.errors import DataError


def _iter_rows(path, n_fields_min: int):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: cannot read ({e})") from e
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) < n_fields_min or any(not f.strip() for f in fields[:n_fields_min]):
            raise DataError(f"{path}: line {lineno}: expected at least "
                            f"{n_fields_min} tab-separated fields, got {line!r}")
        rows.append((lineno, [f.strip() for f in fields]))
    return rows


def _sorted_ids(ids) -> list:
    ids = sorted(set(ids))
    try:
        return sorted(ids, key=int)
    except ValueError:
        return ids


def _parse_user_item(path):
    rows = _iter_rows(path, 2)
    if not rows:
        raise DataError(f"{path}: no interaction records")
    return [(lineno, f[0], f[1]) for lineno, f in rows]


def _parse_groups(path):
    rows = _iter_rows(path, 2)
    if not rows:
        raise DataError(f"{path}: no group records")
    parsed = []
    seen = {}
    for lineno, f in rows:
        gid = f[0]
        members = [m.strip() for m in f[1].split(",") if m.strip()]
        if not members:
            raise DataError(f"{path}: line {lineno}: group {gid!r} has an empty member list")
        if gid in seen:
            raise DataError(f"{path}: line {lineno}: group {gid!r} already defined "
                            f"on line {seen[gid]}")
        seen[gid] = lineno
        parsed.append((lineno, gid, members))
    return parsed


def _parse_group_items(path):
    rows = _iter_rows(path, 2)
    if not rows:
        raise DataError(f"{path}: no group-item records")
    return [(lineno, f[0], f[1]) for lineno, f in rows]


def line_parsed_dataset(directory) -> Dataset:
    """`load_dataset`, one line and one id at a time."""
    directory = Path(directory)
    ui_path = directory / USER_ITEM_FILE
    g_path = directory / GROUPS_FILE
    gi_path = directory / GROUP_ITEMS_FILE

    interactions = _parse_user_item(ui_path)
    group_defs = _parse_groups(g_path)
    group_items = _parse_group_items(gi_path)

    user_ids = _sorted_ids([u for _, u, _ in interactions]
                           + [m for _, _, ms in group_defs for m in ms])
    item_ids = _sorted_ids([i for _, _, i in interactions]
                           + [i for _, _, i in group_items])
    group_ids = _sorted_ids(g for _, g, _ in group_defs)
    uidx = {e: k for k, e in enumerate(user_ids)}
    iidx = {e: k for k, e in enumerate(item_ids)}
    gidx = {e: k for k, e in enumerate(group_ids)}

    per_user = [set() for _ in user_ids]
    for _, u, i in interactions:
        per_user[uidx[u]].add(iidx[i])

    members = [None] * len(group_ids)
    for _, g, ms in group_defs:
        members[gidx[g]] = sorted({uidx[m] for m in ms})

    positives = [set() for _ in group_ids]
    for lineno, g, i in group_items:
        if g not in gidx:
            raise DataError(f"{gi_path}: line {lineno}: unknown group id {g!r}")
        positives[gidx[g]].add(iidx[i])

    return Dataset(
        n_users=len(user_ids), n_items=len(item_ids), n_groups=len(group_ids),
        user_items=Rows.from_lists([sorted(s) for s in per_user]),
        groups=Rows.from_lists(members),
        group_pos=Rows.from_lists([sorted(s) for s in positives]),
        user_ids=user_ids, item_ids=item_ids, group_ids=group_ids,
    )


def dense_user_features(dataset) -> np.ndarray:
    """Binary interaction indicator rows, L2-normalized; zero rows stay zero."""
    feats = np.zeros((dataset.n_users, dataset.n_items))
    for u, items in enumerate(dataset.user_items):
        if len(items):
            feats[u, items] = 1.0
            feats[u] /= np.sqrt(len(items))
    return feats


def _squared_distances(points, centroids):
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(points, m, rng):
    k = len(points)
    centroids = np.empty((m, points.shape[1]))
    centroids[0] = points[int(rng.integers(k))]
    closest = _squared_distances(points, centroids[:1]).ravel()
    for j in range(1, m):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(k))
        else:
            idx = int(np.searchsorted(np.cumsum(closest / total), rng.random()))
            idx = min(idx, k - 1)
        centroids[j] = points[idx]
        closest = np.minimum(closest, _squared_distances(points, centroids[j:j + 1]).ravel())
    return centroids


def _lloyd(points, m, max_iters, rng):
    centroids = _kmeanspp_init(points, m, rng)
    labels = np.full(len(points), -1)
    point_range = np.arange(len(points))
    history = []
    for _ in range(max_iters):
        d2 = _squared_distances(points, centroids)
        new_labels = d2.argmin(axis=1)
        assigned_d2 = d2[point_range, new_labels].copy()
        counts = np.bincount(new_labels, minlength=m)
        for j in range(m):
            if counts[j] == 0:
                candidates = np.where(counts[new_labels] >= 2, assigned_d2, -1.0)
                far = int(candidates.argmax())
                counts[new_labels[far]] -= 1
                counts[j] += 1
                new_labels[far] = j
                assigned_d2[far] = 0.0
        for j in range(m):
            centroids[j] = points[new_labels == j].mean(axis=0)
        inertia = float(_squared_distances(points, centroids)[point_range, new_labels].sum())
        history.append(inertia)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centroids, history[-1], history


def dense_kmeans(points, m, max_iters=100, restarts=3, seed=0):
    """Best-of-`restarts` dense K-Means: (labels, centroids, inertia, history)."""
    points = np.asarray(points, dtype=np.float64)
    seed_base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed_base + [r])
        run = _lloyd(points, m, max_iters, rng)
        if best is None or run[2] < best[2]:
            best = run
    return best


def planted_utility(truth) -> np.ndarray:
    """(n_groups, n_items) noiseless mean member utility of a synthetic
    dataset's `PlantedTruth`: row g is `item_vecs @ group_means[g]`,
    computed as `generate_synthetic` computes the row it draws group g's
    positives around, so the rows are the generator's bit for bit."""
    out = np.empty((len(truth.group_means), len(truth.item_vecs)))
    for g, mean in enumerate(truth.group_means):
        np.matmul(truth.item_vecs, mean, out=out[g])
    return out


def pair_loop_adjacency(groups) -> sparse.csr_array:
    """0/1 co-membership adjacency with unit self-loops, one pair at a time."""
    n = len(groups)
    by_user: dict = {}
    for g, members in enumerate(groups):
        for u in members:
            by_user.setdefault(u, []).append(g)
    rows, cols = list(range(n)), list(range(n))
    seen = set()
    for gs in by_user.values():
        for a_i in range(len(gs)):
            for b_i in range(a_i + 1, len(gs)):
                e = (gs[a_i], gs[b_i])
                if e not in seen:
                    seen.add(e)
                    rows.extend((e[0], e[1]))
                    cols.extend((e[1], e[0]))
    adj = sparse.coo_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    adj = adj.tocsr()
    adj.data = np.minimum(adj.data, 1.0)
    return adj


def sorted_pair_dump(adjacency, group_ids) -> str:
    """Graph dump text: one line per edge i < j, in sorted (i, j) order."""
    coo = adjacency.tocoo()
    return "".join(f"{group_ids[i]}\t{group_ids[j]}\n"
                   for i, j in sorted(zip(coo.row, coo.col)) if i < j)


def partition_group(members, labels) -> list:
    """Group members by cluster label, dropping empty labels.

    Returns subsets ordered by descending size then smallest member index.
    """
    by_label = {}
    for u in members:
        by_label.setdefault(int(labels[u]), []).append(int(u))
    subsets = [sorted(s) for s in by_label.values()]
    subsets.sort(key=lambda s: (-len(s), s[0]))
    return subsets


def triple_loop_subset_dump(assignments, dataset) -> str:
    """Subset dump text: one `group_id<TAB>subset_index<TAB>user_id` line
    per member, one group, subset and member at a time."""
    lines = []
    for a in assignments:
        for s_idx, subset in enumerate(a.subsets):
            for u in subset:
                lines.append(f"{dataset.group_ids[a.group]}\t{s_idx}\t{dataset.user_ids[u]}\n")
    return "".join(lines)
