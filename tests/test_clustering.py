import numpy as np
import pytest
from scipy import sparse

from mgam import clustering
from mgam.clustering import (KMeansResult, SubsetAssignment, SubsetTable,
                             build_user_features, cluster_subsets, dump_subsets,
                             kmeans)
from mgam.data import Dataset, Rows, SyntheticParams, generate_synthetic
from mgam.errors import UsageError
from conftest import same_subsets, subset_table
from reference_preprocessing import (dense_kmeans, dense_user_features,
                                     partition_group, triple_loop_subset_dump)


def _ds(user_items, groups=None, n_items=4):
    n_users = len(user_items)
    groups = [list(range(n_users))] if groups is None else groups
    return Dataset(n_users=n_users, n_items=n_items, n_groups=len(groups),
                   user_items=Rows.from_lists(user_items),
                   groups=Rows.from_lists(groups),
                   group_pos=Rows.from_lists([[] for _ in groups]),
                   user_ids=[str(i) for i in range(n_users)],
                   item_ids=[str(i) for i in range(n_items)],
                   group_ids=[str(i) for i in range(len(groups))])


# ---------------------------------------------------------------------------
# features

def test_features_normalized_rows():
    feats = build_user_features(_ds([[0, 2], [], [0, 1, 2]]))
    dense = feats.tocsr().toarray()
    assert np.array_equal(dense[0], np.array([1, 0, 1, 0]) / np.sqrt(2))
    assert np.array_equal(dense[1], np.zeros(4))
    assert np.array_equal(dense[2], np.array([1, 1, 1, 0]) / np.sqrt(3))
    assert np.allclose(np.linalg.norm(dense, axis=1), [1.0, 0.0, 1.0])
    assert len(feats.data) == 5                      # one entry per interaction
    assert feats.indptr[1] == feats.indptr[2]        # the empty row stores nothing
    assert feats.nbytes == (feats.data.nbytes + feats.indices.nbytes
                            + feats.indptr.nbytes)


def test_features_match_dense_reference():
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=60, n_items=90, n_groups=12, group_size_range=(2, 6),
        n_cohorts=3, positives_per_group=5), seed=8)
    ds.user_items = Rows.from_lists([[] if u == 5 else items.tolist()
                                     for u, items in enumerate(ds.user_items)])
    assert np.array_equal(build_user_features(ds).tocsr().toarray(), dense_user_features(ds))


def test_cluster_subsets_memory_bounded(monkeypatch):
    """10,000 users x 50,000 items would be a 4 GB dense feature matrix."""
    n_users, n_items, per_user = 10_000, 50_000, 40
    starts = np.random.default_rng(0).integers(0, n_items, size=n_users)
    user_items = [sorted(((s + 1250 * np.arange(per_user)) % n_items).tolist())
                  for s in starts]
    groups = [list(range(u, u + 5)) for u in range(0, n_users, 5)]
    ds = _ds(user_items, groups=groups, n_items=n_items)
    built = []
    monkeypatch.setattr(clustering, "build_user_features",
                        lambda d: built.append(build_user_features(d)) or built[-1])
    assignments = cluster_subsets(ds, 4, max_iters=100, restarts=3, seed=0)
    assert len(assignments) == len(groups)
    assert len(built[0].data) == n_users * per_user


# ---------------------------------------------------------------------------
# kmeans

def test_kmeans_geometry_forced():
    pts = np.array([[0, 0], [0.1, 0], [10, 10], [10.1, 10]])
    res = kmeans(pts, 2, max_iters=100, restarts=3, seed=0)
    assert res.labels[0] == res.labels[1]
    assert res.labels[2] == res.labels[3]
    assert res.labels[0] != res.labels[2]


def test_kmeans_single_point():
    res = kmeans(np.array([[3.0, 4.0]]), 1, max_iters=100, restarts=3, seed=0)
    assert np.allclose(res.centroids[0], [3.0, 4.0])
    assert res.inertia == 0.0


def test_kmeans_beats_random_assignment_oracle():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 4))
    res = kmeans(pts, 3, max_iters=100, restarts=3, seed=1)
    best_random = np.inf
    for _ in range(100):
        labels = rng.integers(3, size=50)
        inertia = 0.0
        for j in range(3):
            cluster = pts[labels == j]
            if len(cluster):
                inertia += ((cluster - cluster.mean(axis=0)) ** 2).sum()
        best_random = min(best_random, inertia)
    assert res.inertia <= best_random


def test_kmeans_inertia_monotone_within_run():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(60, 5))
    res = kmeans(pts, 4, max_iters=100, restarts=1, seed=3)
    hist = res.inertia_history
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_lloyd_computes_distances_once_per_iteration_plus_one(monkeypatch):
    """A Lloyd run reuses the inertia's distance matrix as the next
    iteration's labelling matrix."""
    rng = np.random.default_rng(2)
    points = sparse.csr_array(rng.normal(size=(60, 5)))
    norms = np.asarray(points.multiply(points).sum(axis=1)).ravel()
    centroids = clustering._kmeanspp_init(points, norms, 4, np.random.default_rng(3))
    calls = []
    real = clustering._squared_distances
    monkeypatch.setattr(clustering, "_kmeanspp_init", lambda *args: centroids)
    monkeypatch.setattr(clustering, "_squared_distances",
                        lambda *args: calls.append(args) or real(*args))
    history = clustering._lloyd(points, norms, 4, 100, np.random.default_rng(3))[3]
    assert len(history) > 2 and len(calls) == len(history) + 1


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(40, 3))
    a = kmeans(pts, 3, max_iters=100, restarts=3, seed=7)
    b = kmeans(pts, 3, max_iters=100, restarts=3, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_identical_rows_identical_labels():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(10, 4))
    pts = np.vstack([base, base[3], base[7]])
    res = kmeans(pts, 3, max_iters=100, restarts=3, seed=0)
    assert res.labels[10] == res.labels[3]
    assert res.labels[11] == res.labels[7]


def _random_binary_features(rng, n, d):
    """L2-normalized binary rows holding 0, 1, 4 or 16 entries, with one
    empty row and one duplicate row.  Their values (1, 1/2, 1/4) and the
    first-iteration distances are exact in any summation order, so the
    dense and the sparse paths see the same exact ties; on other data the
    dense path breaks exact ties by BLAS rounding."""
    x = np.zeros((n, d))
    for row in x:
        row[rng.choice(d, size=rng.choice([0, 1, 4, 16]), replace=False)] = 1.0
    if n > 2:
        x[rng.integers(n)] = 0.0
        x[rng.integers(n)] = x[rng.integers(n)]
    norms = np.sqrt(x.sum(axis=1))
    x[norms > 0] /= norms[norms > 0, None]
    return x


def test_kmeans_matches_dense_reference():
    """The sparse Lloyd loop reproduces the dense one: same labels, the
    same centroids to 1e-12 and the same inertia to 1e-9 relative."""
    rng = np.random.default_rng(12)
    for case in range(200):
        n, d = int(rng.integers(1, 40)), int(rng.integers(16, 40))
        x = _random_binary_features(rng, n, d)
        m = n if case % 4 == 0 else int(rng.integers(1, n + 1))
        seed = int(rng.integers(1000))
        res = kmeans(sparse.csr_array(x), m, max_iters=100, restarts=3, seed=seed)
        labels, centroids, inertia, history = dense_kmeans(x, m, seed=seed)
        assert np.array_equal(res.labels, labels)
        assert np.abs(res.centroids - centroids).max() <= 1e-12
        # m = n drives the inertia to rounding noise around 0
        assert res.inertia == pytest.approx(inertia, rel=1e-9, abs=1e-12)
        assert len(res.inertia_history) == len(history)


def test_kmeans_m_exceeds_points_rejected():
    with pytest.raises(UsageError):
        kmeans(np.zeros((2, 2)), 3, max_iters=100, restarts=3, seed=0)


def test_kmeans_coincident_points_degenerate():
    pts = np.ones((5, 3))
    res = kmeans(pts, 2, max_iters=10, restarts=3, seed=0)
    assert res.inertia == 0.0


# ---------------------------------------------------------------------------
# partitioning

def _cluster_with_labels(monkeypatch, groups, labels) -> SubsetTable:
    """`cluster_subsets` of `groups` when K-Means returns `labels`, a
    user -> label dict or array (unlisted users get label 0)."""
    if isinstance(labels, dict):
        labels = [labels.get(u, 0) for u in range(max(labels) + 1)]
    labels = np.asarray(labels, dtype=np.int64)
    monkeypatch.setattr(clustering, "kmeans", lambda *a, **k: KMeansResult(
        labels=labels, centroids=np.zeros((1, 1)), inertia=0.0, inertia_history=[]))
    return cluster_subsets(_ds([[0]] * len(labels), groups=groups, n_items=1), 1,
                           max_iters=100, restarts=3, seed=0)


def _partition(monkeypatch, members, labels) -> list:
    """`cluster_subsets`' partition of one group's members."""
    return _cluster_with_labels(monkeypatch, [members], labels)[0].subsets


def test_partition_examples(monkeypatch):
    assert _partition(monkeypatch, [0, 1, 2], {0: 0, 1: 0, 2: 1}) == [[0, 1], [2]]
    assert _partition(monkeypatch, [0, 1, 2], {0: 1, 1: 1, 2: 1}) == [[0, 1, 2]]
    assert _partition(monkeypatch, [0, 1, 2], {0: 0, 1: 1, 2: 2}) == [[0], [1], [2]]


def test_partition_ordering_rule(monkeypatch):
    # equal sizes tie-break on smallest member index
    labels = {0: 2, 1: 2, 5: 1, 7: 1}
    assert _partition(monkeypatch, [5, 7, 0, 1], labels) == [[0, 1], [5, 7]]


def test_cluster_subsets_table_matches_reference_partition(monkeypatch):
    """The vectorised table holds `partition_group`'s subsets for every
    group: size ties, singletons, one-cluster groups, empty groups and
    labels no member uses included."""
    rng = np.random.default_rng(23)
    for trial in range(300):
        n_users = int(rng.integers(1, 25))
        # up to 8 labels, often more labels than a group's members use
        labels = rng.integers(0, int(rng.integers(1, 9)), size=n_users)
        if trial % 5 == 0:
            labels[:] = labels[0]                   # one cluster for everyone
        groups = [sorted(rng.permutation(n_users)[:rng.integers(0, n_users + 1)].tolist())
                  for _ in range(int(rng.integers(0, 7)))]
        if trial % 7 == 0:
            groups = rng.permutation(n_users)[:, None].tolist()  # singletons
        table = _cluster_with_labels(monkeypatch, groups, labels)
        want = [partition_group(members, labels) for members in groups]
        assert same_subsets(table, subset_table(want)), trial
        assert [a.subsets for a in table] == want, trial


def test_cluster_subsets_partition_property():
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=50, n_items=80, n_groups=15, group_size_range=(2, 6),
        n_cohorts=3, positives_per_group=5), seed=6)
    assignments = cluster_subsets(ds, 3, max_iters=100, restarts=3, seed=1)
    for g, a in enumerate(assignments):
        flat = sorted(u for s in a.subsets for u in s)
        assert flat == ds.groups[g].tolist()  # disjoint + covering
        assert 1 <= len(a.subsets) <= min(3, len(ds.groups[g]))
        sizes = [len(s) for s in a.subsets]
        assert sizes == sorted(sizes, reverse=True)


def test_cluster_subsets_reproducible():
    ds, _ = generate_synthetic(SyntheticParams(
        n_users=40, n_items=60, n_groups=10, group_size_range=(3, 5),
        n_cohorts=2, positives_per_group=5), seed=2)
    a = cluster_subsets(ds, 3, max_iters=100, restarts=3, seed=[9, 1])
    b = cluster_subsets(ds, 3, max_iters=100, restarts=3, seed=[9, 1])
    assert [x.subsets for x in a] == [y.subsets for y in b]


def test_cluster_subsets_m_clamped_to_user_count():
    ds = _ds([[0], [1]], groups=[[0, 1]])
    assignments = cluster_subsets(ds, 5, max_iters=100, restarts=3, seed=0)
    assert len(assignments[0].subsets) <= 2


def test_singleton_subsets_when_all_labels_distinct(monkeypatch):
    labels = {3: 0, 4: 1, 5: 2}
    assert _partition(monkeypatch, [3, 4, 5], labels) == [[3], [4], [5]]


def test_assignment_arrays_roundtrip():
    """A table rebuilt from its three arrays equals the table, and its
    views are the subset lists it was built from."""
    rng = np.random.default_rng(5)
    for trial in range(200):
        assignments = []
        for g in range(int(rng.integers(0, 6))):
            members = rng.permutation(30)[:rng.integers(1, 9)]
            labels = rng.integers(0, int(rng.integers(1, 4)), size=30)
            assignments.append(SubsetAssignment(group=g, subsets=partition_group(
                sorted(members.tolist()), labels)))
        table = subset_table([a.subsets for a in assignments])
        arrays = (table.slots.offsets, table.subsets.offsets, table.subsets.indices)
        assert all(a.dtype == np.int64 for a in arrays)
        assert same_subsets(SubsetTable(*arrays), table), trial
        assert list(SubsetTable(*arrays)) == assignments, trial


def test_assignment_arrays_roundtrip_clustered_dataset():
    ds, _ = generate_synthetic(SyntheticParams(n_users=40, n_items=60, n_groups=12),
                               seed=4)
    assignments = cluster_subsets(ds, 3, max_iters=100, restarts=3, seed=1)
    assert same_subsets(SubsetTable(assignments.slots.offsets, assignments.subsets.offsets,
                                    assignments.subsets.indices), assignments)


def test_assignment_arrays_need_group_order():
    """Subset offsets that run backwards (groups out of order) or do not
    cover every subset are refused."""
    with pytest.raises(UsageError, match="offsets"):
        SubsetTable([0, 1, 0], [0, 1], [0])
    with pytest.raises(UsageError, match="offsets"):
        SubsetTable([0, 1], [0, 1, 2], [0, 1])


# ids that are non-ASCII (one astral code point is four UTF-8 bytes), hold
# spaces or NUL, or tie as integers
_AWKWARD_IDS = ["1", "01", "+1", "10", "\u00e9", "\U0001F600", "x y", "\u0663",
                "a\x00", "g\u3000h", "Z"]


def test_dump_subsets_matches_triple_loop(tmp_path):
    rng = np.random.default_rng(17)
    out = tmp_path / "subsets.tsv"
    for trial in range(100):
        n_users, n_groups = int(rng.integers(1, 10)), int(rng.integers(0, 6))
        pool = rng.permutation(_AWKWARD_IDS).tolist()
        groups = [sorted(rng.permutation(n_users)[:rng.integers(1, n_users + 1)].tolist())
                  for _ in range(n_groups)]
        ds = Dataset(n_users=n_users, n_items=1, n_groups=n_groups,
                     user_items=Rows.from_lists([[0]] * n_users),
                     groups=Rows.from_lists(groups),
                     group_pos=Rows.from_lists([[0]] * n_groups),
                     user_ids=pool[:n_users], item_ids=["i"],
                     group_ids=rng.permutation(_AWKWARD_IDS).tolist()[:n_groups])
        labels = rng.integers(0, int(rng.integers(1, 4)), size=n_users)
        assignments = subset_table([partition_group(members, labels)
                                              for members in groups])
        dump_subsets(assignments, ds, out)
        assert out.read_bytes().decode("utf-8") == triple_loop_subset_dump(assignments, ds), trial
