import numpy as np
import pytest
from scipy import sparse

from mgam.data import Rows
from mgam.errors import UsageError
from mgam.graph import (GroupGraph, _finish, build_co_membership, dump_graph,
                        expand_to_instances, induce_batch_subgraph)
from reference_preprocessing import pair_loop_adjacency, sorted_pair_dump


def dense_normalized_oracle(adj):
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


def test_graph_invariants_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 20)), 10))
        a = g.adjacency.toarray()
        n = g.normalized.toarray()
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.ones(g.n))
        assert np.array_equal(n, n.T)
        assert n.max() <= 1.0
        for i in range(g.n):
            assert n[i, i] == 1.0 / g.degree[i]  # exact by construction


def test_induce_single_node():
    g = build_co_membership(Rows.from_lists([[0], [0, 1], [1]]))
    sub = induce_batch_subgraph(g, [2])
    assert np.array_equal(sub.adjacency.toarray(), [[1.0]])
    assert np.array_equal(sub.normalized.toarray(), [[1.0]])


def test_induce_full_set_equals_original():
    rng = np.random.default_rng(2)
    g = build_co_membership(random_groups(rng, 14, 9))
    sub = induce_batch_subgraph(g, list(range(g.n)))
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
        k = int(rng.integers(1, g.n + 1))
        ids = sorted(rng.choice(g.n, size=k, replace=False))
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
    assert np.array_equal(again.degree, g.degree)


def _assert_normalized_bitwise(norm, adj):
    """`norm` holds exactly A(i,j)/sqrt(d_i d_j), with 1/d_i on the diagonal,
    on the sorted CSR structure of the sparse adjacency `adj`."""
    dense = adj.toarray()
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


def _assert_csr_bitwise(a, b):
    for field in ("data", "indices", "indptr"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_co_membership_matches_pair_loop_bitwise():
    """`min(B B^T + I, 1)` equals the per-user pair loop, stored entry for
    stored entry, and so do the degrees and the normalized adjacency."""
    rng = np.random.default_rng(23)
    cases = [[[4, 9]], [[0], [1], [2]], [[7, 3], [], [3]]]
    for _ in range(200):
        n_groups = int(rng.integers(1, 40))
        user_ids = rng.choice(1000, size=int(rng.integers(1, 60)), replace=False)
        cases.append([sorted(rng.choice(user_ids, size=int(rng.integers(1, 6)))
                             .tolist())
                      for _ in range(n_groups)])
    for groups in cases:
        fast = build_co_membership(Rows.from_lists(groups))
        slow = _finish(pair_loop_adjacency(groups))
        assert fast.n == slow.n
        _assert_csr_bitwise(fast.adjacency, slow.adjacency)
        _assert_csr_bitwise(fast.normalized, slow.normalized)
        assert fast.degree.dtype == slow.degree.dtype
        assert np.array_equal(fast.degree, slow.degree)


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
        ids = [str(int(v)) for v in rng.permutation(10 * g.n)[:g.n]]
        dump_graph(g, ids, out)
        assert out.read_text(encoding="utf-8") == sorted_pair_dump(g.adjacency, ids)


def test_dump_graph_reads_unsorted_rows_and_needs_no_self_loops(tmp_path):
    """Rows whose column indices are stored out of order, and a graph
    without its unit diagonal, give the same lines as the sorted pairs."""
    out = tmp_path / "graph.tsv"
    rng = np.random.default_rng(31)
    unsorted = 0
    for _ in range(30):
        g = build_co_membership(random_groups(rng, int(rng.integers(1, 20)), 10))
        ids = ["\u00e9", "\U0001F600", "01", "1"] + [f"g{k}" for k in range(g.n)]
        ids = ids[:g.n]
        adj = g.adjacency
        order = np.concatenate([rng.permutation(np.arange(a, b))
                                for a, b in zip(adj.indptr[:-1], adj.indptr[1:])])
        shuffled = sparse.csr_array((adj.data[order], adj.indices[order], adj.indptr),
                                    shape=adj.shape)
        unsorted += not shuffled.has_sorted_indices
        no_loops = sparse.csr_array(adj - sparse.eye_array(g.n, format="csr"))
        no_loops.eliminate_zeros()
        for a in (shuffled, no_loops):
            dump_graph(GroupGraph(n=g.n, adjacency=a, degree=g.degree,
                                  normalized=g.normalized), ids, out)
            assert out.read_bytes().decode("utf-8") == sorted_pair_dump(adj, ids)
    assert unsorted > 10
