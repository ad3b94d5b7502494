"""Group co-membership graph and its degree-normalized adjacency.

Groups are nodes; an undirected edge connects two groups whenever they
share at least one member.  Unit self-loops are always added so that
every degree is positive and isolated groups still propagate their own
state.  Edges are unweighted (the shared-user count is ignored).

The adjacency is one boolean product whose CSC arrays are its sorted CSR
arrays, kept as they come: 1-byte `True` values on int32 indices (int64
once the entry count needs it, as scipy widens them itself).  The
float64 normalized matrix shares those index arrays and is computed on
its first read, so commands that only write the edges (`dump_graph`)
never hold it.  Every reader (`_normalize`, `expand_to_instances`,
`dump_graph`) walks the adjacency's rows in ascending column order, so a
`GroupGraph` refuses an adjacency whose CSR column indices are not sorted
within each row.

scipy loads at the first sparse operation, not with this module: the
functions that build a sparse array (`build_co_membership`, `_normalize`,
`expand_to_instances`) import `scipy.sparse` when called, so a process
that only generates data (`gen-data`) never imports it.  Annotations
that name `sparse.csr_array` are strings, never evaluated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Rows
from .errors import UsageError

# stored adjacency entries per block of rows that `dump_graph` writes at once
DUMP_BLOCK = 4096


@dataclass
class GroupGraph:
    adjacency: sparse.csr_array   # bool, symmetric, unit diagonal, sorted indices

    def __post_init__(self):
        if not self.adjacency.has_sorted_indices:
            raise UsageError("graph adjacency must have sorted column indices")

    @functools.cached_property
    def normalized(self) -> sparse.csr_array:
        """Entry (i,j) = A(i,j) / sqrt(d_i d_j), d the row sums; computed
        on first read and kept, on the adjacency's own index arrays."""
        degree = np.asarray(self.adjacency.sum(axis=1, dtype=np.float64)).ravel()
        return _normalize(self.adjacency, degree)


def _normalize(adj: sparse.csr_array, degree: np.ndarray) -> sparse.csr_array:
    """Values on the CSR structure of `adj`, whose column indices must be
    sorted within each row; its own index arrays are the result's."""
    from scipy import sparse
    rows = np.repeat(np.arange(adj.shape[0], dtype=adj.indices.dtype), np.diff(adj.indptr))
    inv_sqrt = 1.0 / np.sqrt(degree)
    vals = inv_sqrt[rows]
    vals *= inv_sqrt[adj.indices]
    # diagonal computed directly so N(i,i) == 1/d_i exactly
    diag = rows == adj.indices
    vals[diag] = 1.0 / degree[rows[diag]]
    return sparse.csr_array((vals, adj.indices, adj.indptr), shape=adj.shape)


def build_co_membership(groups: Rows) -> GroupGraph:
    """Graph over groups with an edge per shared user, plus self-loops.

    `groups[g]` holds group g's member users.  With `B` the group x user
    incidence matrix, the adjacency is `min(B B^T + I, 1)`, formed as the
    boolean product `[B | I] [B | I]^T`: each group's private column puts
    the unit diagonal in the product, and boolean sums cap every entry at
    1.  The incidence's index arrays are int32 while its entries and
    columns fit.  The product is symmetric, so its CSC arrays are its CSR
    arrays with sorted columns; they and its 1-byte values are the graph.
    """
    from scipy import sparse
    n = len(groups)
    n_users = int(groups.indices.max(initial=-1)) + 1
    fits = max(n_users, len(groups.indices)) + n <= np.iinfo(np.int32).max
    index = np.int32 if fits else np.int64
    # row g: group g's members, then its private column n_users + g
    member_or_own = sparse.csr_array(
        (np.ones(len(groups.indices) + n, dtype=bool),
         np.insert(groups.indices, groups.offsets[1:], n_users + np.arange(n)).astype(index),
         (groups.offsets + np.arange(n + 1)).astype(index)),
        shape=(n, n_users + n))
    adj = (member_or_own @ member_or_own.T).tocsc()
    return GroupGraph(adjacency=sparse.csr_array(
        (adj.data, adj.indices, adj.indptr), shape=(n, n)))


def induce_batch_subgraph(graph: GroupGraph, batch_group_ids) -> GroupGraph:
    """Restrict the graph to the given nodes, recomputing degrees and
    normalization on the subgraph (self-loops are retained).  Node k of
    the result is `batch_group_ids[k]`; its rows are sorted again, since
    slicing by unordered ids leaves their columns unordered."""
    ids = np.asarray(batch_group_ids, dtype=np.intp)
    n = graph.adjacency.shape[0]
    if ids.size == 0:
        raise UsageError("batch subgraph needs at least one group")
    if len(np.unique(ids)) != ids.size:
        raise UsageError("batch group ids must be distinct")
    if ids.min() < 0 or ids.max() >= n:
        raise UsageError(f"batch group id out of range [0, {n})")
    return GroupGraph(adjacency=graph.adjacency[ids][:, ids].sorted_indices())


def expand_to_instances(graph: GroupGraph, positions) -> sparse.csr_array:
    """Normalized instance-level adjacency for a batch.

    `positions[i]` maps batch instance i to its group's node in `graph`:
    the group index itself in the full co-membership graph, as the model
    calls it, or a node of an `induce_batch_subgraph` result, which gives
    the same matrix.  Two instances are adjacent iff their groups are (a
    group is trivially adjacent to itself), and degrees are recomputed at
    the instance level, so duplicate groups in a batch raise each other's
    degrees.  The structure is that of `adjacency[pos][:, pos]` with
    sorted columns, read from the sorted adjacency rows of the batch's
    distinct groups; the values are `_normalize`'s.
    """
    from scipy import sparse
    pos = np.asarray(positions, dtype=np.intp)
    adj = graph.adjacency
    uniq, inv = np.unique(pos, return_inverse=True)
    # the distinct groups' adjacency rows, and which of them are batch groups
    starts, lengths = adj.indptr[uniq], np.diff(adj.indptr)[uniq]
    nbr = adj.indices[np.arange(lengths.sum())
                      + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)]
    k = np.searchsorted(uniq, nbr)
    hit = np.append(uniq, adj.shape[0])[k] == nbr
    near = np.zeros((len(uniq), len(uniq)), dtype=bool)
    near[np.repeat(np.arange(len(uniq)), lengths)[hit], k[hit]] = True
    # each distinct group's instance columns, ascending; an instance's row is its group's
    owner, cols = np.nonzero(near[:, inv])
    per_group = np.bincount(owner, minlength=len(uniq))
    degree = per_group[inv]
    indptr = np.concatenate(([0], np.cumsum(degree)))
    first = np.cumsum(per_group) - per_group
    indices = cols[np.arange(indptr[-1]) + np.repeat(first[inv] - indptr[:-1], degree)]
    return _normalize(sparse.csr_array((np.ones(len(indices)), indices, indptr),
                                       shape=(len(pos), len(pos))),
                      degree.astype(np.float64))


def dump_graph(graph: GroupGraph, group_ids, path) -> None:
    """Write one `group_id<TAB>group_id` line per undirected edge
    (self-loops omitted), in row-major order of the internal indices.

    Rows are written in blocks of about `DUMP_BLOCK` stored entries: one
    gather of a block's upper-triangle column names, then one write of its
    lines, so only one block's names are held at once."""
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    names = np.array(group_ids, dtype=object)
    # a block starts at the row holding each DUMP_BLOCK-th stored entry
    starts = np.searchsorted(indptr, np.arange(0, indptr[-1], DUMP_BLOCK), "right") - 1
    cuts = np.append(np.unique(starts), len(indptr) - 1).tolist()
    with open(Path(path), "w", encoding="utf-8") as f:
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            rows = np.repeat(np.arange(r0, r1), np.diff(indptr[r0:r1 + 1]))
            cols = indices[indptr[r0]:indptr[r1]]
            upper = cols > rows  # the strict upper triangle
            ends = np.cumsum(np.bincount(rows[upper] - r0, minlength=r1 - r0)).tolist()
            tails = names[cols[upper]].tolist()
            heads = [f"{group_ids[i]}\t" for i in range(r0, r1)]
            f.write("".join([head + f"\n{head}".join(tails[a:b]) + "\n"
                             for head, a, b in zip(heads, [0] + ends, ends) if a < b]))
