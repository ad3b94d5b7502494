import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import mgam.cli
import mgam.graph
from mgam import autodiff as ad
from mgam.autodiff import Tensor
from mgam.data import Rows
from mgam.errors import UsageError
from mgam.graph import (GroupGraph, build_co_membership,
                        dump_graph, expand_to_instances, induce_batch_subgraph)
from reference_preprocessing import pair_loop_adjacency, sorted_pair_dump


def dense_normalized_oracle(adj):
    adj = adj.astype(np.float64)
    deg = adj.sum(axis=1)
    inv = np.diag(1.0 / np.sqrt(deg))
    return inv @ adj @ inv


def random_groups(rng, n_groups, n_users):
    return Rows.from_lists([sorted(rng.choice(n_users, size=rng.integers(1, 5), replace=False))
                            for _ in range(n_groups)])


def test_co_membership_edges():
    g = build_co_membership(Rows.from_lists([[0, 1], [1, 2], [3]]))
    a = g.adjacency.toarray()
    assert np.array_equal(np.diag(a), np.ones(3))
    assert a[0, 1] == 1 and a[1, 0] == 1
    assert a[0, 2] == 0 and a[1, 2] == 0


def test_co_membership_no_shared_users_is_identity():
    g = build_co_membership(Rows.from_lists([[0], [1], [2]]))
    assert np.array_equal(g.adjacency.toarray(), np.eye(3))
    assert np.array_equal(g.normalized.toarray(), np.eye(3))


def test_co_membership_shared_user_complete_graph():
    g = build_co_membership(Rows.from_lists([[0, 1], [0, 2], [0, 3]]))
    assert np.array_equal(g.adjacency.toarray(), np.ones((3, 3)))


def test_path_graph_normalized_entries():
    # A-B-C with self-loops: degrees (2, 3, 2)
    g = build_co_membership(Rows.from_lists([[0], [0, 1], [1]]))
    n = g.normalized.toarray()
    assert n[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert n[0, 1] == pytest.approx(1 / np.sqrt(6), abs=1e-15)
    assert n[1, 1] == pytest.approx(1 / 3, abs=1e-15)
    assert n[0, 2] == 0.0


def test_normalized_matches_dense_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 31)), 12))
        oracle = dense_normalized_oracle(g.adjacency.toarray())
        assert np.abs(g.normalized.toarray() - oracle).max() < 1e-12


def _degree(g):
    """The row sums of a graph's adjacency, self-loop included."""
    return np.asarray(g.adjacency.sum(axis=1)).ravel()


def test_graph_invariants_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 20)), 10))
        a = g.adjacency.toarray()
        n = g.normalized.toarray()
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.ones(g.adjacency.shape[0]))
        assert np.array_equal(n, n.T)
        assert n.max() <= 1.0
        degree = _degree(g)
        for i in range(g.adjacency.shape[0]):
            assert n[i, i] == 1.0 / degree[i]  # exact by construction


def test_induce_single_node():
    g = build_co_membership(Rows.from_lists([[0], [0, 1], [1]]))
    sub = induce_batch_subgraph(g, [2])
    assert np.array_equal(sub.adjacency.toarray(), [[1.0]])
    assert np.array_equal(sub.normalized.toarray(), [[1.0]])


def test_induce_full_set_equals_original():
    rng = np.random.default_rng(2)
    g = build_co_membership(random_groups(rng, 14, 9))
    sub = induce_batch_subgraph(g, list(range(g.adjacency.shape[0])))
    assert np.array_equal(sub.adjacency.toarray(), g.adjacency.toarray())
    assert np.array_equal(sub.normalized.toarray(), g.normalized.toarray())


def test_induce_pair_from_path():
    g = build_co_membership(Rows.from_lists([[0], [0, 1], [1]]))
    sub = induce_batch_subgraph(g, [0, 1])
    n = sub.normalized.toarray()
    # recomputed degrees are (2, 2)
    assert np.allclose(np.diag(n), [0.5, 0.5])
    assert n[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_induce_matches_dense_oracle_randomized():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = build_co_membership(random_groups(rng, int(rng.integers(2, 31)), 12))
        k = int(rng.integers(1, g.adjacency.shape[0] + 1))
        ids = sorted(rng.choice(g.adjacency.shape[0], size=k, replace=False))
        sub = induce_batch_subgraph(g, ids)
        dense = g.adjacency.toarray()[np.ix_(ids, ids)]
        assert np.array_equal(sub.adjacency.toarray(), dense)
        assert np.abs(sub.normalized.toarray()
                      - dense_normalized_oracle(dense)).max() < 1e-12


def test_induce_rejects_bad_ids():
    g = build_co_membership(Rows.from_lists([[0], [1]]))
    with pytest.raises(UsageError):
        induce_batch_subgraph(g, [0, 0])
    with pytest.raises(UsageError):
        induce_batch_subgraph(g, [5])
    with pytest.raises(UsageError):
        induce_batch_subgraph(g, [])


def test_expand_to_instances_duplicates():
    g = build_co_membership(Rows.from_lists([[0], [0, 1], [1]]))
    sub = induce_batch_subgraph(g, [0, 1])
    # instances: group0, group0, group1 -> complete among first two, all linked
    norm = expand_to_instances(sub, [0, 0, 1])
    dense_adj = np.array([[1, 1, 1], [1, 1, 1], [1, 1, 1]], dtype=float)
    assert np.abs(np.asarray(norm.todense())
                  - dense_normalized_oracle(dense_adj)).max() < 1e-12


def test_normalize_adjacency_recompute():
    # inducing on every node recomputes degrees and normalization unchanged
    g = build_co_membership(Rows.from_lists([[0, 1], [1], [2]]))
    again = induce_batch_subgraph(g, [0, 1, 2])
    assert np.array_equal(again.normalized.toarray(), g.normalized.toarray())
    assert np.array_equal(_degree(again), _degree(g))


def _assert_normalized_bitwise(norm, adj):
    """`norm` holds exactly A(i,j)/sqrt(d_i d_j), with 1/d_i on the diagonal,
    on the sorted CSR structure of the sparse adjacency `adj`."""
    dense = adj.toarray().astype(np.float64)
    deg = dense.sum(axis=1)
    rows, cols = np.nonzero(dense)
    expect = np.zeros_like(dense)
    inv_sqrt = 1.0 / np.sqrt(deg)
    expect[rows, cols] = inv_sqrt[rows] * inv_sqrt[cols]
    diag = rows == cols
    expect[rows[diag], cols[diag]] = 1.0 / deg[rows[diag]]
    assert np.array_equal(norm.toarray(), expect)
    assert norm.has_sorted_indices
    structure = adj.sorted_indices()
    assert np.array_equal(norm.indices, structure.indices)
    assert np.array_equal(norm.indptr, structure.indptr)


def test_expand_to_instances_sparse_matches_dense_bitwise():
    """CSR row/column slicing gives exactly the dense-gather construction,
    and the co-membership graph's own normalization follows the same
    formula.  One slice of the full graph by the instances' group ids, as
    the model takes it, equals expanding the induced batch subgraph."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        n_groups = int(rng.integers(1, 12))
        g = build_co_membership(random_groups(rng, n_groups, 10))
        _assert_normalized_bitwise(g.normalized, g.adjacency)
        ids = np.sort(rng.choice(n_groups, size=int(rng.integers(1, n_groups + 1)),
                                 replace=False))
        sub = induce_batch_subgraph(g, ids)
        pos = rng.integers(0, len(ids), size=int(rng.integers(1, 20)))
        norm = expand_to_instances(sub, pos)
        _assert_normalized_bitwise(norm, sub.adjacency[pos][:, pos])
        _assert_csr_bitwise(expand_to_instances(g, ids[pos]), norm)


def test_normalize_reuses_a_sorted_structure_bitwise():
    """A sorted adjacency's index arrays are shared, not copied, and the
    values equal, bit for bit, those of the graph induced on a permutation
    of its nodes."""
    rng = np.random.default_rng(41)
    for _ in range(50):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 20)), 10))
        adj = g.adjacency
        assert adj.has_sorted_indices
        assert np.shares_memory(g.normalized.indices, adj.indices)
        assert np.shares_memory(g.normalized.indptr, adj.indptr)
        perm = rng.permutation(adj.shape[0])
        permuted = induce_batch_subgraph(g, perm)
        assert permuted.normalized.toarray().tobytes() == \
            g.normalized.toarray()[np.ix_(perm, perm)].tobytes()
        _assert_normalized_bitwise(permuted.normalized, permuted.adjacency)
        _assert_normalized_bitwise(g.normalized, adj)


def _assert_csr_bitwise(a, b):
    for field in ("data", "indices", "indptr"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_co_membership_matches_pair_loop_bitwise():
    """`min(B B^T + I, 1)` equals the per-user pair loop, stored entry for
    stored entry, and so do the degrees and the normalized adjacency.  The
    fixed cases hold a single group, empty member lists (each keeps its
    self-loop), repeated members and user ids above 2**16."""
    rng = np.random.default_rng(23)
    cases = [[[4, 9]], [[0], [1], [2]], [[7, 3], [], [3]], [[]], [[], [], []],
             [[3, 3, 1], [1, 1], [2, 2, 2], [0, 3, 0]],
             [[70_000, 3], [70_000], [2**20, 3], [65_536], [2**20]]]
    for _ in range(200):
        n_groups = int(rng.integers(1, 40))
        user_ids = rng.choice(1000, size=int(rng.integers(1, 60)), replace=False)
        cases.append([sorted(rng.choice(user_ids, size=int(rng.integers(1, 6)))
                             .tolist())
                      for _ in range(n_groups)])
    for groups in cases:
        fast = build_co_membership(Rows.from_lists(groups))
        oracle = pair_loop_adjacency(groups)
        # the oracle's 0/1 float64 entries on int64 indices, in the graph's dtypes
        slow = GroupGraph(adjacency=sparse.csr_array(
            (oracle.data.astype(bool), oracle.indices.astype(np.int32),
             oracle.indptr.astype(np.int32)), shape=oracle.shape))
        assert np.array_equal(slow.adjacency.data, oracle.data)
        assert fast.adjacency.shape == slow.adjacency.shape
        _assert_csr_bitwise(fast.adjacency, slow.adjacency)
        _assert_csr_bitwise(fast.normalized, slow.normalized)
        assert _degree(fast).dtype == _degree(slow).dtype
        assert np.array_equal(_degree(fast), _degree(slow))


def overlapping_groups(rng, n_groups, n_users, lo, hi):
    """Groups of `lo..hi` members drawn with replacement from `n_users`
    users, so many groups share members."""
    sizes = rng.integers(lo, hi + 1, size=n_groups)
    return Rows(np.concatenate(([0], np.cumsum(sizes))),
                rng.integers(n_users, size=int(sizes.sum())))


def test_co_membership_ignores_how_members_are_numbered():
    """Renumbering the members one-to-one, into any range, leaves the
    adjacency's arrays and dtypes as they were: the graph reads only which
    groups share a member.  So `dump-graph` may take `load_groups`'
    first-seen member numbers, and the ingest-shaped case (8,000 groups
    of 2,000 users) writes the same file as with the sorted user ids."""
    rng = np.random.default_rng(73)
    cases = [overlapping_groups(rng, 8000, 2000, 4, 8)]
    cases += [random_groups(rng, int(rng.integers(1, 60)), int(rng.integers(4, 90)))
              for _ in range(50)]
    for groups in cases:
        n_users = int(groups.indices.max()) + 1
        graph = build_co_membership(groups)
        for renumber in (rng.permutation(n_users),
                         rng.choice(3 * n_users, size=n_users, replace=False)):
            renumbered = build_co_membership(Rows.from_lists(
                [sorted(renumber[groups[g]].tolist()) for g in range(len(groups))]))
            _assert_csr_bitwise(renumbered.adjacency, graph.adjacency)


def test_co_membership_index_dtypes_are_pinned():
    """int32 indices, at a toy size and at the ingest benchmark's (8,000
    groups of 4-8 of 2,000 users, over a million stored entries), under
    bool values in the adjacency and float64 values in the normalized
    matrix."""
    small = build_co_membership(Rows.from_lists([[0, 1], [1], [2]]))
    large = build_co_membership(overlapping_groups(np.random.default_rng(59), 8000, 2000, 4, 8))
    assert large.adjacency.nnz > 1_000_000
    for g in (small, large):
        for m, values in ((g.adjacency, np.bool_), (g.normalized, np.float64)):
            assert m.indices.dtype == m.indptr.dtype == np.int32
            assert m.data.dtype == values
        assert g.adjacency.data.all()


def _traced_peak(fn):
    """`fn()` and the peak of memory it traced above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _csr_bytes(m):
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


@pytest.mark.parametrize("n_groups, n_users", [(1000, 300), (4000, 1000)])
def test_normalizing_peaks_near_20_bytes_per_entry(n_groups, n_users):
    """Computing `normalized` on overlapping groups peaks under 22 bytes
    per stored entry above the graph (row ids at the width of the
    adjacency's indices, the float64 values and one float64 gather), and
    gives `A(i,j) / sqrt(d_i d_j)` bit for bit, `1 / d_i` on the diagonal.
    int64 row ids, or a product of two gathers, cross the bound."""
    g = build_co_membership(overlapping_groups(np.random.default_rng(67), n_groups,
                                               n_users, 4, 8))
    m, peak = _traced_peak(lambda: g.normalized)
    adj = g.adjacency.tocoo()
    assert peak < 22 * adj.nnz, peak / adj.nnz
    degree = np.bincount(adj.row).astype(np.float64)
    expect = 1.0 / np.sqrt(degree[adj.row]) * (1.0 / np.sqrt(degree[adj.col]))
    expect[adj.row == adj.col] = 1.0 / degree[adj.row[adj.row == adj.col]]
    assert np.array_equal(m.indices, g.adjacency.indices)
    assert np.array_equal(m.data, expect)


def test_building_and_dumping_the_graph_hold_little_beyond_it(tmp_path):
    """On a heavily overlapping group set, building the graph peaks under
    12 bytes per stored entry (the product's 1-byte values on 4-byte
    indices, then its sorted copy, which the graph keeps), and writing it
    holds under 1.6 bytes per stored entry on top of the graph (one block
    of rows' names at a time)."""
    groups = overlapping_groups(np.random.default_rng(53), 1000, 300, 6, 13)
    g, build_peak = _traced_peak(lambda: build_co_membership(groups))
    nnz = g.adjacency.nnz
    assert nnz >= 200_000
    assert build_peak < 12 * nnz
    assert _csr_bytes(g.adjacency) < 6 * nnz
    ids = [f"g{k}" for k in range(g.adjacency.shape[0])]
    _, dump_peak = _traced_peak(lambda: dump_graph(g, ids, tmp_path / "graph.tsv"))
    assert dump_peak < 1.6 * nnz
    assert "normalized" not in g.__dict__


def test_dump_graph_command_never_normalizes(tmp_path, monkeypatch):
    """`dump-graph` reads only the adjacency, so the normalized matrix,
    computed on first read, is never computed."""
    built = []

    def recording_build(groups):
        built.append(build_co_membership(groups))
        return built[-1]

    data = tmp_path / "data"
    assert mgam.cli.main(["gen-data", "--out", str(data), "--users", "30",
                          "--items", "40", "--groups", "12", "--seed", "3"]) == 0
    monkeypatch.setattr(mgam.cli, "build_co_membership", recording_build)
    assert mgam.cli.main(["dump-graph", "--data", str(data),
                          "--out", str(tmp_path / "graph.tsv")]) == 0
    [graph] = built
    assert "normalized" not in graph.__dict__
    graph.normalized
    assert "normalized" in graph.__dict__


def test_spmm_vjp_is_the_transpose_product_on_both_normalized_graphs():
    """The matrices the model hands `spmm`, the normalized group adjacency
    and `expand_to_instances`' instance adjacency, equal their transposes
    bitwise, so the vjp's `m @ g` equals `m.T @ g` bitwise."""
    rng = np.random.default_rng(37)
    for _ in range(60):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 30)), 12))
        n = g.adjacency.shape[0]
        batch = rng.integers(n, size=int(rng.integers(1, 3 * n + 1)))
        for m in (g.normalized, expand_to_instances(g, batch)):
            assert m.toarray().tobytes() == m.T.toarray().tobytes()
            x = Tensor(rng.standard_normal((m.shape[0], 5)), requires_grad=True)
            upstream = rng.standard_normal((m.shape[0], 5))
            ad.backward(ad.tensor_sum(ad.mul(ad.spmm(m, x), Tensor(upstream))))
            assert x.grad.tobytes() == np.asarray(m.T @ upstream).tobytes()


def test_dump_graph_follows_internal_index_order(tmp_path):
    """Lines follow the numeric (row, col) order of internal indices even
    where the ids sort differently as strings."""
    ids = ["2", "10", "9", "1"]
    g = build_co_membership(Rows.from_lists([[0, 1], [1, 2], [0, 2], [2, 3]]))
    out = tmp_path / "graph.tsv"
    dump_graph(g, ids, out)
    text = out.read_text(encoding="utf-8")
    assert text == sorted_pair_dump(g.adjacency, ids)
    assert text == "2\t10\n2\t9\n10\t9\n10\t1\n9\t1\n"

    rng = np.random.default_rng(29)
    for _ in range(50):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 30)), 12))
        n = g.adjacency.shape[0]
        ids = [str(int(v)) for v in rng.permutation(10 * n)[:n]]
        dump_graph(g, ids, out)
        assert out.read_text(encoding="utf-8") == sorted_pair_dump(g.adjacency, ids)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_dump_graph_cuts_blocks_anywhere_without_changing_the_lines(tmp_path, monkeypatch,
                                                                     block):
    """However few entries a block of rows holds, down to one (a row per
    block), the lines are the sorted pairs; rows without an edge above the
    diagonal, and graphs without self-loops, write nothing of their own."""
    monkeypatch.setattr(mgam.graph, "DUMP_BLOCK", block)
    out = tmp_path / "graph.tsv"
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 40)), 12))
        n = g.adjacency.shape[0]
        ids = [f"g{k}" for k in range(n)]
        no_loops = sparse.csr_array(g.adjacency - sparse.eye_array(n, format="csr"))
        no_loops.eliminate_zeros()
        for graph in (g, GroupGraph(adjacency=no_loops)):
            dump_graph(graph, ids, out)
            assert out.read_text(encoding="utf-8") == sorted_pair_dump(g.adjacency, ids)


def test_dump_graph_reads_unsorted_rows_and_needs_no_self_loops(tmp_path):
    """A graph induced on shuffled ids, whose sliced rows come out of order
    until `induce_batch_subgraph` sorts them, and that graph without its
    unit diagonal, give the same lines as the sorted pairs."""
    out = tmp_path / "graph.tsv"
    rng = np.random.default_rng(31)
    unsorted = 0
    for _ in range(30):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 20)), 10))
        n = g.adjacency.shape[0]
        ids = ["\u00e9", "\U0001F600", "01", "1"] + [f"g{k}" for k in range(n)]
        ids = ids[:n]
        perm = rng.permutation(n)
        unsorted += not g.adjacency[perm][:, perm].has_sorted_indices
        shuffled = induce_batch_subgraph(g, perm)
        adj = shuffled.adjacency
        no_loops = sparse.csr_array(adj - sparse.eye_array(n, format="csr"))
        no_loops.eliminate_zeros()
        for graph in (shuffled, GroupGraph(adjacency=no_loops)):
            dump_graph(graph, ids, out)
            assert out.read_bytes().decode("utf-8") == sorted_pair_dump(adj, ids)
    assert unsorted > 10


def test_group_graph_refuses_an_unsorted_adjacency():
    """Every reader walks rows in ascending column order, so a graph whose
    stored column indices are out of order is refused when it is built."""
    g = build_co_membership(Rows.from_lists([[0, 1], [1, 2], [0, 2]]))
    adj = g.adjacency
    indices = adj.indices.copy()
    indices[:2] = indices[1::-1]                 # row 0 reads 1, 0, 2
    shuffled = sparse.csr_array((adj.data, indices, adj.indptr), shape=adj.shape)
    with pytest.raises(UsageError, match="sorted"):
        GroupGraph(adjacency=shuffled)


def test_induced_subgraph_has_sorted_indices_for_shuffled_ids():
    """Slicing by unordered ids leaves rows unordered; the induced graph
    is sorted again, and equals the dense slice."""
    rng = np.random.default_rng(43)
    unsorted = 0
    for _ in range(200):
        g = build_co_membership(random_groups(rng, int(rng.integers(2, 30)), 12))
        n = g.adjacency.shape[0]
        ids = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        unsorted += not g.adjacency[ids][:, ids].has_sorted_indices
        sub = induce_batch_subgraph(g, ids).adjacency
        assert sub.has_sorted_indices
        for a, b in zip(sub.indptr[:-1], sub.indptr[1:]):
            assert np.all(np.diff(sub.indices[a:b]) > 0)
        assert np.array_equal(sub.toarray(), g.adjacency.toarray()[np.ix_(ids, ids)])
    assert unsorted > 50
