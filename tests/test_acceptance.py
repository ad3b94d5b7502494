"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]/[FAIL] criterion N` line (run with `pytest -s`
to see them on success).  CLI-facing criteria run the real console entry
point in subprocesses; numeric criteria run in process.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mgam import autodiff as ad
from mgam.clustering import cluster_subsets
from mgam.config import (STREAM_CLUSTER, STREAM_DATA, Config, substream)
from mgam.data import (Rows, SyntheticParams, generate_synthetic,
                       split_leave_one_out)
from mgam.evaluation import (draw_candidates, evaluate, hit_and_gain, make_mgam_scorer,
                             rank_candidates)
from mgam.errors import UsageError
from mgam.graph import build_co_membership, induce_batch_subgraph
from mgam.model import AblationMask, forward_batch
from mgam.training import (total_loss, train,
                           triplet_loss, point_loss_from_logits,
                           _build_triplets)

from finite_difference import finite_difference_grad
from reference_forward import reference_forward
from reference_preprocessing import planted_utility


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _cli(args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "mgam.cli", *args],
                          capture_output=True, text=True, cwd=cwd)
    return proc


# ---------------------------------------------------------------------------
# shared planted-dataset fixtures

PLANTED = SyntheticParams()  # 200 users, 500 items, 60 groups, 3 cohorts


def _planted_pipeline(seed: int):
    ds, truth = generate_synthetic(PLANTED, seed)
    split = split_leave_one_out(ds, substream(seed, STREAM_DATA))
    assignments = cluster_subsets(ds, 3, max_iters=100, restarts=3,
                                  seed=substream(seed, STREAM_CLUSTER))
    graph = build_co_membership(ds.groups)
    return ds, truth, split, assignments, graph


@pytest.fixture(scope="module")
def planted_run():
    """Criterion 5 workhorse: full training run on the planted dataset."""
    t0 = time.perf_counter()
    ds, truth, split, assignments, graph = _planted_pipeline(42)
    cfg = Config(embedding_dim=32, num_subsets=3, gcn_layers=2,
                 batch_size=64, epochs=30, seed=42)  # within the 50-epoch budget
    params, history = train(ds, split, assignments, graph, cfg)
    scorer = make_mgam_scorer(params, cfg, ds, assignments, graph)
    drawn = draw_candidates(ds, split, 100, seed=42)
    [report] = evaluate(scorer, ds, split, drawn, ["mgam"], [5, 10])
    utility = planted_utility(truth)
    [oracle] = evaluate(lambda g, c: utility[g, c][None],
                        ds, split, drawn, ["planted"], [5])
    return {"hr5": report.hr[5], "hr10": report.hr[10],
            "oracle_hr5": oracle.hr[5], "seconds": time.perf_counter() - t0,
            "history": history}


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Planted dataset directory plus one short CLI training run."""
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    gen = _cli(["gen-data", "--out", str(data), "--seed", "42"])
    assert gen.returncode == 0, gen.stderr
    ckpt = root / "ckpt"
    tr = _cli(["train", "--data", str(data), "--out", str(ckpt),
               "--set", "epochs=3", "--set", "batch_size=64",
               "--set", "eval_negatives=100"])
    assert tr.returncode == 0, tr.stderr
    return {"root": root, "data": str(data), "ckpt": str(ckpt)}


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness

def test_criterion_1_gradient_correctness(toy):
    t0 = time.perf_counter()
    params = toy["params"]
    instances = toy["instances"]
    triplets = _build_triplets(instances)

    def loss_tensor():
        [res] = forward_batch(params, toy["cfg"], toy["dataset"],
                              toy["assignments"], toy["graph"], toy["batch"])
        pt = point_loss_from_logits(res.logits, toy["labels"])
        ya = ad.take(res.scores, [a for a, _, _ in triplets])
        yp = ad.take(res.scores, [s for _, s, _ in triplets])
        yn = ad.take(res.scores, [d for _, _, d in triplets])
        return total_loss(triplet_loss(ya, yp, yn, 1.0), pt, 0.5)

    for p in params.values():
        p.grad = None
    grads = ad.grad_map(loss_tensor(), params)

    worst, worst_name = 0.0, None
    for name, p in params.items():
        def f(arr):
            return float(loss_tensor().data)
        fd = finite_difference_grad(f, p.data, 1e-5)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
        rel = float((np.abs(fd - grads[name]) / denom).max())
        if rel > worst:
            worst, worst_name = rel, name
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-4 and elapsed < 30.0,
            f"max rel grad error {worst:.2e} on {worst_name} "
            f"(tolerance 1e-4), {elapsed:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# criterion 2: forward equivalence against the straight-line oracle

def test_criterion_2_forward_oracle_equivalence(toy):
    raw = {k: v.data for k, v in toy["params"].items()}
    [res] = forward_batch(toy["params"], toy["cfg"], toy["dataset"],
                          toy["assignments"], toy["graph"], toy["batch"])
    ref = reference_forward(raw, toy["dataset"],
                            [a.subsets for a in toy["assignments"]],
                            toy["batch"], 8, 2, 2)
    diff = float(np.abs(res.scores.data - ref).max())
    _report(2, diff < 1e-10, f"max |prediction difference| {diff:.2e} "
                             f"(tolerance 1e-10)")


# ---------------------------------------------------------------------------
# criterion 3: graph normalization against the dense oracle

def test_criterion_3_graph_oracle():
    rng = np.random.default_rng(2024)
    worst_full = worst_sub = 0.0
    for _ in range(100):
        n_groups = int(rng.integers(1, 31))
        groups = [sorted(rng.choice(12, size=rng.integers(1, 5), replace=False))
                  for _ in range(n_groups)]
        g = build_co_membership(Rows.from_lists(groups))
        # independent dense oracle: D^-1/2 (A + I) D^-1/2
        sets = [set(m) for m in groups]
        a = np.eye(n_groups)
        for i in range(n_groups):
            for j in range(i + 1, n_groups):
                if sets[i] & sets[j]:
                    a[i, j] = a[j, i] = 1.0
        deg = a.sum(axis=1)
        oracle = np.diag(deg ** -0.5) @ a @ np.diag(deg ** -0.5)
        worst_full = max(worst_full,
                         float(np.abs(g.normalized.toarray() - oracle).max()))
        k = int(rng.integers(1, n_groups + 1))
        ids = sorted(rng.choice(n_groups, size=k, replace=False))
        sub = induce_batch_subgraph(g, ids)
        a_sub = a[np.ix_(ids, ids)]
        deg_sub = a_sub.sum(axis=1)
        oracle_sub = np.diag(deg_sub ** -0.5) @ a_sub @ np.diag(deg_sub ** -0.5)
        worst_sub = max(worst_sub,
                        float(np.abs(sub.normalized.toarray() - oracle_sub).max()))
    _report(3, worst_full < 1e-12 and worst_sub < 1e-12,
            f"max |normalized - oracle| full {worst_full:.2e}, "
            f"induced {worst_sub:.2e} (tolerance 1e-12)")


# ---------------------------------------------------------------------------
# criterion 4: metric oracle + random-scorer calibration

def test_criterion_4_metric_oracle():
    import math
    rng = np.random.default_rng(7)
    exact = True
    cases = [(int(rng.integers(1, 200)), int(rng.integers(1, 25))) for _ in range(1000)]
    hr, ndcg = hit_and_gain(*zip(*cases))   # every position at every cutoff
    for i, (position, k) in enumerate(cases):
        hr_oracle = 1.0 if position <= k else 0.0
        ndcg_oracle = (math.log(2) / math.log(position + 1)) if position <= k else 0.0
        exact &= hr[i, i] == hr_oracle
        exact &= abs(ndcg[i, i] - ndcg_oracle) < 1e-14
    for position, k in ((0, 5), (3, 0)):   # positions and cutoffs are 1-based
        with pytest.raises(UsageError, match="1-based"):
            hit_and_gain([position], [k])

    n = 10_000
    hits = 0
    for _ in range(n):
        items, _ = rank_candidates(lambda g, c, r=rng: r.random((1, len(c))),
                                   0, list(range(101)), "random", 0)
        hits += 1 + np.flatnonzero(items == 0)[0] <= 5
    p = 5 / 101
    sigma = float(np.sqrt(p * (1 - p) / n))
    dev = abs(hits / n - p)
    _report(4, exact and dev <= 3 * sigma,
            f"metric oracle exact over 1000 cases: {exact}; random-scorer "
            f"HR@5 deviation {dev:.4f} <= 3 sigma ({3 * sigma:.4f})")


# ---------------------------------------------------------------------------
# criterion 5: learning signal on the planted dataset

def test_criterion_5_learning_signal(planted_run):
    r = planted_run
    ok = (r["hr5"] >= 0.30 and r["oracle_hr5"] >= 0.9 and r["seconds"] < 600)
    _report(5, ok, f"full model HR@5 {r['hr5']:.3f} (floor 0.30), planted "
                   f"oracle HR@5 {r['oracle_hr5']:.3f} (floor 0.90), "
                   f"{r['seconds']:.0f}s (budget 600s)")


# ---------------------------------------------------------------------------
# criterion 6: ablation harness

def test_criterion_6_ablation_harness(cli_workspace):
    out = Path(cli_workspace["root"]) / "ablate"
    proc = _cli(["ablate", "--data", cli_workspace["data"],
                 "--ckpt", cli_workspace["ckpt"], "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
    models = {r.split(",")[0] for r in rows}
    harness_ok = models == {"mgam", "mgam-wo-subpe", "mgam-wo-gpe",
                            "mgam-wo-suppe"}

    full_vals, wo_subpe_vals = [], []
    for seed in (1, 2, 3, 4, 5):
        ds, _, split, assignments, graph = _planted_pipeline(seed)
        cfg = Config(embedding_dim=32, num_subsets=3, gcn_layers=2,
                     batch_size=64, epochs=20, seed=seed)
        params, _ = train(ds, split, assignments, graph, cfg)
        masks = [AblationMask(), AblationMask(use_subpe=False)]
        scorer = make_mgam_scorer(params, cfg, ds, assignments, graph, masks)
        full_report, wo_report = evaluate(scorer, ds, split,
                                          draw_candidates(ds, split, 100, seed=seed),
                                          [m.label() for m in masks], [5])
        full_vals.append(full_report.hr[5])
        wo_subpe_vals.append(wo_report.hr[5])
    full = float(np.mean(full_vals))
    wo = float(np.mean(wo_subpe_vals))
    _report(6, harness_ok and full >= wo - 0.02,
            f"ablate command covers all single removals: {harness_ok}; "
            f"5-seed mean HR@5 full {full:.3f} vs w/o subset branch {wo:.3f} "
            f"(directional floor full >= wo - 0.02)")


# ---------------------------------------------------------------------------
# criterion 7: subset-count sweep

def test_criterion_7_subset_sweep(cli_workspace):
    out = Path(cli_workspace["root"]) / "sweep"
    proc = _cli(["sweep-subsets", "--data", cli_workspace["data"],
                 "--out", str(out), "--m-values", "1,2,3,5",
                 "--set", "epochs=2", "--set", "batch_size=64"])
    ok = proc.returncode == 0
    rows = []
    if ok:
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        rows = [l.split(",")[0] for l in lines[1:]]
        ok = rows == ["1", "2", "3", "5"]
    _report(7, ok, f"sweep completed with one row per M: {rows}")


# ---------------------------------------------------------------------------
# criterion 8: determinism

def test_criterion_8_determinism(cli_workspace):
    root = Path(cli_workspace["root"])
    digests = []
    for tag in ("d1", "d2"):
        ckpt = root / tag
        tr = _cli(["train", "--data", cli_workspace["data"], "--out", str(ckpt),
                   "--set", "epochs=3", "--set", "batch_size=64",
                   "--set", "seed=11"])
        assert tr.returncode == 0, tr.stderr
        ev = _cli(["eval", "--data", cli_workspace["data"], "--ckpt", str(ckpt)])
        assert ev.returncode == 0, ev.stderr
        digests.append({
            "params": (ckpt / "params.bin").read_bytes(),
            "metrics": (ckpt / "metrics.csv").read_bytes(),
            "manifest": (ckpt / "manifest.json").read_bytes(),
        })
    same_params = digests[0]["params"] == digests[1]["params"]
    same_metrics = digests[0]["metrics"] == digests[1]["metrics"]
    same_manifest = digests[0]["manifest"] == digests[1]["manifest"]
    _report(8, same_params and same_metrics and same_manifest,
            f"byte-identical params.bin: {same_params}, metrics.csv: "
            f"{same_metrics}, manifest.json: {same_manifest}")


# ---------------------------------------------------------------------------
# criterion 9: unit values

def test_criterion_9_unit_values():
    checks = []
    checks.append(abs(float(triplet_loss(0.9, 0.8, 0.1, 1.0).data) - 0.37) < 1e-12)
    checks.append(abs(float(point_loss_from_logits(0.0, 1).data) - np.log(2)) < 1e-12)
    checks.append(np.allclose(ad.softmax(ad.Tensor([0.0, 0.0, 0.0])).data,
                              [1 / 3] * 3, atol=1e-15))
    checks.append(np.allclose(ad.softmax(ad.Tensor([np.log(2), 0.0])).data,
                              [2 / 3, 1 / 3], atol=1e-12))
    shift = np.abs(ad.softmax(ad.Tensor([5.0, 5.7, 5.0])).data
                   - ad.softmax(ad.Tensor([0.0, 0.7, 0.0])).data).max()
    checks.append(shift < 1e-12)
    g = build_co_membership(Rows.from_lists([[0], [0, 1], [1]]))
    n = g.normalized.toarray()
    checks.append(abs(n[0, 0] - 0.5) < 1e-15)
    checks.append(abs(n[0, 1] - 1 / np.sqrt(6)) < 1e-15)
    checks.append(abs(n[1, 1] - 1 / 3) < 1e-15)
    _report(9, all(checks),
            f"triplet hinge 0.37, cross-entropy ln2, softmax identities, "
            f"path-graph entries (1/2, 1/sqrt6, 1/3): {sum(checks)}/8 exact")
