"""The benchmark's output checks read checkpoints without mgam's loader; a
change to the checkpoint format must fail here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from mgam.clustering import cluster_subsets
from mgam.config import Config
from mgam.data import SyntheticParams, dataset_sha256, generate_synthetic, write_dataset
from mgam.model import init_params, param_table
from mgam.training import load_checkpoint, read_manifest, save_checkpoint

CHECKS = Path(__file__).resolve().parents[1] / "benchmarks" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_read_params_matches_load_checkpoint(tmp_path):
    dataset, _ = generate_synthetic(SyntheticParams(n_users=30, n_items=40, n_groups=6),
                                    seed=2)
    write_dataset(dataset, tmp_path / "data")
    cfg = Config(embedding_dim=6, num_subsets=3, gcn_layers=2)
    params = init_params(cfg, dataset.n_users, dataset.n_items, dataset.n_groups,
                         np.random.default_rng(3))
    save_checkpoint(tmp_path / "ckpt", params, cfg.resolved(), dataset,
                    cluster_subsets(dataset, cfg.num_subsets, max_iters=100, restarts=3, seed=1),
                    dataset_sha256(tmp_path / "data"))
    read = _load_checks().read_params(tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt", read_manifest(tmp_path / "ckpt"),
                             param_table(cfg, dataset.n_users, dataset.n_items,
                                         dataset.n_groups))
    assert list(read) == list(loaded) == list(params)
    for name, p in params.items():
        rounded = p.data.astype(np.float32).astype(np.float64)
        assert read[name].shape == loaded[name].data.shape == p.data.shape, name
        assert np.array_equal(read[name], loaded[name].data), name
        assert np.array_equal(read[name], rounded), name
