"""Group co-membership graph and its degree-normalized adjacency.

Groups are nodes; an undirected edge connects two groups whenever they
share at least one member.  Unit self-loops are always added so that
every degree is positive and isolated groups still propagate their own
state.  Edges are unweighted (the shared-user count is ignored).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .data import Rows
from .errors import UsageError


@dataclass
class GroupGraph:
    n: int
    adjacency: sparse.csr_array   # 0/1 symmetric, unit diagonal
    degree: np.ndarray            # row sums (self-loop included)
    normalized: sparse.csr_array  # entry (i,j) = A(i,j) / sqrt(d_i d_j)


def _normalize(adjacency: sparse.csr_array, degree: np.ndarray) -> sparse.csr_array:
    """Values on the adjacency's own (sorted) CSR structure."""
    adj = adjacency.sorted_indices()
    rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    inv_sqrt = 1.0 / np.sqrt(degree)
    vals = inv_sqrt[rows] * inv_sqrt[adj.indices]
    # diagonal computed directly so N(i,i) == 1/d_i exactly
    diag = rows == adj.indices
    vals[diag] = 1.0 / degree[rows[diag]]
    return sparse.csr_array((vals, adj.indices, adj.indptr), shape=adj.shape)


def _finish(adjacency: sparse.csr_array) -> GroupGraph:
    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    return GroupGraph(n=adjacency.shape[0], adjacency=adjacency,
                      degree=degree, normalized=_normalize(adjacency, degree))


def build_co_membership(groups: Rows) -> GroupGraph:
    """Graph over groups with an edge per shared user, plus self-loops.

    `groups[g]` holds group g's member users.  With `B` the group x user
    incidence matrix, the adjacency is `min(B B^T + I, 1)`.
    """
    n = len(groups)
    incidence = sparse.csr_array(
        (np.ones(len(groups.indices)), groups.indices, groups.offsets),
        shape=(n, int(groups.indices.max(initial=-1)) + 1))
    adj = incidence @ incidence.T + sparse.eye_array(n, format="csr")
    adj.data = np.minimum(adj.data, 1.0)
    adj.sort_indices()
    return _finish(adj)


def induce_batch_subgraph(graph: GroupGraph, batch_group_ids) -> GroupGraph:
    """Restrict the graph to the given nodes, recomputing degrees and
    normalization on the subgraph (self-loops are retained)."""
    ids = np.asarray(batch_group_ids, dtype=np.intp)
    if ids.size == 0:
        raise UsageError("batch subgraph needs at least one group")
    if len(np.unique(ids)) != ids.size:
        raise UsageError("batch group ids must be distinct")
    if ids.min() < 0 or ids.max() >= graph.n:
        raise UsageError(f"batch group id out of range [0, {graph.n})")
    sub = graph.adjacency[ids][:, ids].tocsr()
    return _finish(sub)


def expand_to_instances(graph: GroupGraph, positions) -> sparse.csr_array:
    """Normalized instance-level adjacency for a batch.

    `positions[i]` maps batch instance i to its group's node in `graph`:
    the group index itself in the full co-membership graph, as the model
    calls it, or a node of an `induce_batch_subgraph` result, which gives
    the same matrix.  Two instances are adjacent iff their groups are (a
    group is trivially adjacent to itself), and degrees are recomputed at
    the instance level, so duplicate groups in a batch raise each other's
    degrees.  One slice of the adjacency, normalized once.
    """
    pos = np.asarray(positions, dtype=np.intp)
    adj = graph.adjacency[pos][:, pos]
    return _normalize(adj, np.asarray(adj.sum(axis=1)).ravel())


def dump_graph(graph: GroupGraph, group_ids, path) -> None:
    """Write one `group_id<TAB>group_id` line per undirected edge
    (self-loops omitted), in row-major order of the internal indices."""
    adj = graph.adjacency
    if not adj.has_sorted_indices:
        adj = adj.sorted_indices()
    rows = np.repeat(np.arange(graph.n), np.diff(adj.indptr))
    upper = adj.indices > rows  # the strict upper triangle
    bounds = np.cumsum(np.bincount(rows[upper], minlength=graph.n)).tolist()
    col_names = np.array(group_ids, dtype=object)[adj.indices[upper]].tolist()
    with open(Path(path), "w", encoding="utf-8") as f:
        # one join per row keeps only that row's lines in memory
        for i, (a, b) in enumerate(zip([0] + bounds, bounds)):
            if a < b:
                head = f"{group_ids[i]}\t"
                f.write(head + f"\n{head}".join(col_names[a:b]) + "\n")
