import dataclasses

import numpy as np
import pytest

from mgam.clustering import SubsetTable
from mgam.data import DATA_FILES, Dataset, Rows
from mgam.graph import build_co_membership
from mgam.config import Config
from mgam.model import init_params


@pytest.fixture(scope="session")
def toy():
    """Fixed small problem: 2 overlapping groups of 4 users, 10 items,
    d=8, M=2, l=2, with a hand-set subset partition and a batch that
    contains same-group positives and negatives (so triplets exist)."""
    ds = Dataset(
        n_users=8, n_items=10, n_groups=2,
        user_items=Rows.from_lists(
            [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], []]),
        groups=Rows.from_lists([[0, 1, 2, 3], [3, 4, 5, 6]]),
        group_pos=Rows.from_lists([[1, 3, 5], [2, 4, 7]]),
        user_ids=[str(i) for i in range(8)],
        item_ids=[str(i) for i in range(10)],
        group_ids=["0", "1"],
    )
    assignments = subset_table([
        [[0, 1], [2, 3]],
        [[3, 4, 5], [6]],
    ])
    graph = build_co_membership(ds.groups)
    cfg = Config(embedding_dim=8, num_subsets=2, gcn_layers=2)
    params = init_params(cfg, ds.n_users, ds.n_items, ds.n_groups,
                         np.random.default_rng(12345))
    instances = [(0, 1, 1), (0, 8, 0), (0, 3, 1), (1, 2, 1), (1, 9, 0),
                 (1, 4, 1), (0, 6, 0)]
    return {
        "dataset": ds,
        "assignments": assignments,
        "graph": graph,
        "cfg": cfg,
        "params": params,
        "instances": instances,
        "batch": [(g, v) for g, v, _ in instances],
        "labels": np.array([y for _, _, y in instances], dtype=np.float64),
    }


def write_ingest_like(d, n_users, n_items, n_groups, rng) -> int:
    """TSVs in the new directory `d` shaped like the ingest benchmark's
    data, with integer ids: 40 interactions per user, groups of 4-8
    members and 10 positives each, all drawn with replacement.  Returns
    their size in bytes."""
    d.mkdir()
    users = np.repeat(np.arange(n_users), 40).tolist()
    items = rng.integers(n_items, size=len(users)).tolist()
    sizes = rng.integers(4, 9, size=n_groups)
    members = rng.integers(n_users, size=int(sizes.sum())).astype(str).tolist()
    ends = np.cumsum(sizes).tolist()
    groups = np.repeat(np.arange(n_groups), 10).tolist()
    positives = rng.integers(n_items, size=len(groups)).tolist()
    for name, lines in zip(DATA_FILES, (
            (f"{u}\t{i}\n" for u, i in zip(users, items)),
            (f"{g}\t{','.join(members[a:b])}\n"
             for g, (a, b) in enumerate(zip([0] + ends, ends))),
            (f"{g}\t{i}\n" for g, i in zip(groups, positives)))):
        (d / name).write_text("".join(lines), encoding="utf-8")
    return sum((d / name).stat().st_size for name in DATA_FILES)


def fresh_toy_params(toy, seed=12345):
    return init_params(toy["cfg"], toy["dataset"].n_users,
                       toy["dataset"].n_items, toy["dataset"].n_groups,
                       np.random.default_rng(seed))


def same_rows(a: Rows, b: Rows) -> bool:
    """Whether two `Rows` hold equal offsets and equal indices."""
    return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.indices, b.indices)


def same_subsets(a: SubsetTable, b: SubsetTable) -> bool:
    """Whether two subset tables cut the same subsets into the same groups."""
    return same_rows(a.slots, b.slots) and same_rows(a.subsets, b.subsets)


def same_dataset(a, b) -> bool:
    """Whether two datasets are equal field by field, `Rows` by `same_rows`;
    outcomes other than two datasets (an error message) compare by `==`."""
    if not (isinstance(a, Dataset) and isinstance(b, Dataset)):
        return a == b
    return all(same_rows(x, y) if isinstance(x, Rows) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name))
                            for f in dataclasses.fields(Dataset)))


def subset_table(per_group) -> SubsetTable:
    """The subset table of `per_group[g]`, group g's list of member lists."""
    subsets = Rows.from_lists([s for group in per_group for s in group])
    return SubsetTable(np.cumsum([0] + [len(group) for group in per_group]),
                       subsets.offsets, subsets.indices)
