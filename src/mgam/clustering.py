"""Partition group members into preference subsets via global K-Means.

Users are clustered once over all of a dataset (L2-normalized binary
interaction vectors, stored as CSR rows); each group is then partitioned
by reusing the global labels.  Clustering tiny groups separately would be
degenerate, and a single global clustering keeps identical users in
identical subsets across groups.

Every group's subsets live in one `SubsetTable` of three int64 arrays:
`subset_offsets` cuts the subsets into groups, and `member_offsets` cuts
`subset_members` into subsets.

scipy loads at the first sparse operation, not with this module:
`build_user_features` returns plain CSR arrays, and `UserFeatures.tocsr`,
`kmeans` and `_lloyd` import `scipy.sparse` when called, so a process
that only generates data (`gen-data`) never imports it.  Annotations that
name `sparse.csr_array` are strings, never evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, Rows
from .errors import UsageError


@dataclass
class KMeansResult:
    labels: np.ndarray      # (k,) cluster index per point
    centroids: np.ndarray   # (M, d)
    inertia: float          # sum of squared distances to assigned centroid
    inertia_history: list   # per-iteration inertia of the winning restart


@dataclass
class SubsetAssignment:
    """One group's subsets as Python int lists, in slot order."""
    group: int
    subsets: list  # non-empty lists of member indices


class SubsetTable:
    """Every group's ordered partition into at most M subsets, as arrays.

    `subsets` holds one row of members per subset (`member_offsets`,
    `subset_members`), group after group in slot order; `slots[g]` holds
    group g's subset indices, cut by `subset_offsets`.  A group's subsets
    are sorted by descending size, ties broken by the smallest member, and
    each lists its members in ascending order; the order is part of the
    model contract because subset slots carry their own parameters.
    `table[g]` is a `SubsetAssignment` copy, for readers outside the program.
    """

    def __init__(self, subset_offsets, member_offsets, subset_members):
        self.subsets = Rows(member_offsets, subset_members)
        self.slots = Rows(subset_offsets, np.arange(len(self.subsets)))

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, g) -> SubsetAssignment:
        return SubsetAssignment(group=range(len(self))[g], subsets=[
            self.subsets[k].tolist() for k in self.slots[g].tolist()])


@dataclass
class UserFeatures:
    """CSR feature rows as their three arrays: row u is `data[k]` at
    column `indices[k]` for k in `indptr[u]:indptr[u + 1]`."""
    data: np.ndarray      # (nnz,) float64
    indices: np.ndarray   # (nnz,) int64, sorted within each row
    indptr: np.ndarray    # (n_users + 1,) int64
    shape: tuple          # (n_users, n_items)

    @property
    def nbytes(self) -> int:
        """The stored size: data + indices + indptr bytes."""
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def tocsr(self) -> sparse.csr_array:
        """The rows as a `csr_array` over these same arrays."""
        from scipy import sparse
        return sparse.csr_array((self.data, self.indices, self.indptr), shape=self.shape)


def build_user_features(dataset: Dataset) -> UserFeatures:
    """Binary interaction indicator rows, L2-normalized, as CSR.

    Each stored entry is `1/sqrt(len(items))`; a user with no
    interactions gets an empty row.
    """
    rows = dataset.user_items
    lengths = rows.lengths()
    data = np.repeat(1.0 / np.sqrt(np.maximum(lengths, 1)), lengths)
    return UserFeatures(data, rows.indices, rows.offsets, (dataset.n_users, dataset.n_items))


def _squared_distances(points: sparse.csr_array, norms: np.ndarray,
                       centroids: np.ndarray) -> np.ndarray:
    # ||p||^2 - 2 p.c + ||c||^2, clipped to fend off tiny negatives;
    # `norms` holds ||p||^2, computed once per kmeans call
    d2 = (
        norms[:, None]
        - 2.0 * (points @ centroids.T)
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(points: sparse.csr_array, norms: np.ndarray, m: int,
                   rng: np.random.Generator) -> np.ndarray:
    k = points.shape[0]
    centroids = np.empty((m, points.shape[1]))
    centroids[0] = points[[int(rng.integers(k))]].toarray()[0]
    closest = _squared_distances(points, norms, centroids[:1]).ravel()
    for j in range(1, m):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(k))  # all points coincide with a centroid
        else:
            idx = int(np.searchsorted(np.cumsum(closest / total), rng.random()))
            idx = min(idx, k - 1)
        centroids[j] = points[[idx]].toarray()[0]
        closest = np.minimum(closest,
                             _squared_distances(points, norms, centroids[j:j + 1]).ravel())
    return centroids


def _lloyd(points: sparse.csr_array, norms: np.ndarray, m: int, max_iters: int,
           rng: np.random.Generator) -> tuple:
    from scipy import sparse
    centroids = _kmeanspp_init(points, norms, m, rng)
    n = points.shape[0]
    labels = np.full(n, -1)
    point_range = np.arange(n)
    history = []
    d2 = _squared_distances(points, norms, centroids)
    for _ in range(max_iters):
        new_labels = d2.argmin(axis=1)  # ties -> lowest centroid index
        # repair empty clusters: reseed at the point farthest from its centroid,
        # never stealing a cluster's only member
        assigned_d2 = d2[point_range, new_labels]
        counts = np.bincount(new_labels, minlength=m)
        for j in range(m):
            if counts[j] == 0:
                candidates = np.where(counts[new_labels] >= 2, assigned_d2, -1.0)
                far = int(candidates.argmax())
                counts[new_labels[far]] -= 1
                counts[j] += 1
                new_labels[far] = j
                assigned_d2[far] = 0.0
        # cluster sums as one (m x n) one-hot product, then means
        onehot = sparse.csr_array((np.ones(n), (new_labels, point_range)), shape=(m, n))
        centroids = (onehot @ points).toarray() / counts[:, None]
        # the new centroids' distances give this inertia and the next labels
        d2 = _squared_distances(points, norms, centroids)
        history.append(float(d2[point_range, new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centroids, history[-1], history


def kmeans(points, m: int, max_iters: int, restarts: int, seed) -> KMeansResult:
    """Best-of-`restarts` seeded K-Means (k-means++ init, Lloyd updates).

    `points` is a 2-D ndarray or sparse matrix; it is converted to CSR
    once, and the centroids are dense.
    """
    from scipy import sparse
    if points.ndim != 2 or points.shape[0] == 0:
        raise UsageError("kmeans expects a non-empty 2-D point matrix")
    n = points.shape[0]
    if not 1 <= m <= n:
        raise UsageError(f"cluster count {m} must be in [1, n_points={n}]")
    points = sparse.csr_array(points, dtype=np.float64)
    norms = np.asarray(points.multiply(points).sum(axis=1)).ravel()
    seed_base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed_base + [r])
        labels, centroids, inertia, history = _lloyd(points, norms, m, max_iters, rng)
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels=labels, centroids=centroids,
                                inertia=inertia, inertia_history=history)
    return best


def cluster_subsets(dataset: Dataset, m: int, max_iters: int, restarts: int,
                    seed) -> SubsetTable:
    """Cluster all users once, then partition every group's members.

    Group g's subsets are its members split by cluster label, each in
    ascending member order, ordered by descending size and then by
    smallest member.  The effective cluster count is clamped to the number
    of users.
    """
    if m < 1:
        raise UsageError("subset count must be at least 1")
    feats = build_user_features(dataset)
    labels = kmeans(feats.tocsr(), min(m, dataset.n_users),
                    max_iters=max_iters, restarts=restarts, seed=seed).labels
    groups, n_labels = dataset.groups, int(labels.max()) + 1
    # members sorted by (group, label, member): each run of one (group,
    # label) key is a subset, in ascending member order
    key = np.repeat(np.arange(len(groups)), groups.lengths()) * n_labels
    key += labels[groups.indices]
    order = np.lexsort((groups.indices, key))
    members = groups.indices[order]
    runs, start, size = np.unique(key[order], return_index=True, return_counts=True)
    # runs in slot order: by group, then descending size, then smallest member
    slots = np.lexsort((members[start], -size, runs // n_labels))
    member_offsets = np.concatenate(([0], np.cumsum(size[slots])))
    gather = np.repeat(start[slots] - member_offsets[:-1], size[slots]) + np.arange(len(members))
    return SubsetTable(np.searchsorted(runs[slots] // n_labels, np.arange(len(groups) + 1)),
                       member_offsets, members[gather])


def dump_subsets(table: SubsetTable, dataset: Dataset, path) -> None:
    """Write `group_id<TAB>subset_index<TAB>user_id` lines."""
    slots, subsets = table.slots, table.subsets
    group = np.repeat(np.arange(len(slots)), slots.lengths()).tolist()
    in_group = (slots.indices - np.repeat(slots.offsets[:-1], slots.lengths())).tolist()
    names = np.array(dataset.user_ids, dtype=object)[subsets.indices].tolist()
    bounds = subsets.offsets.tolist()
    with open(Path(path), "w", encoding="utf-8") as f:
        # one join per subset keeps only that subset's lines in memory
        for g, s, a, b in zip(group, in_group, bounds[:-1], bounds[1:]):
            head = f"{dataset.group_ids[g]}\t{s}\t"
            f.write(head + f"\n{head}".join(names[a:b]) + "\n")
