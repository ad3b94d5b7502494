"""Self-tests of the benchmark's helpers: statistics, span accounting and
output checks.  Run with `python3 -m pytest benchmarks/test_benchmarks.py`."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mgam.cli import main as mgam_main  # noqa: E402
from mgam.data import SyntheticParams, generate_synthetic, write_dataset  # noqa: E402
from stats import median, tail_percentile  # noqa: E402


# ---------------------------------------------------------------------------
# statistics

def test_tail_percentile_needs_ten_beyond():
    assert tail_percentile(range(10)) is None
    pct, value, n = tail_percentile(range(1, 12))
    assert (value, n) == (1, 11)
    assert pct == pytest.approx(100 / 11)
    assert tail_percentile(range(1, 101)) == (90.0, 90.0, 100)


def test_tail_percentile_leaves_exactly_ten_distinct_samples_beyond():
    rng = random.Random(7)
    for n in (11, 37, 250):
        values = rng.sample(range(100000), n)
        pct, value, count = tail_percentile(values)
        assert count == n
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(100 * (n - 10) / n)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


# ---------------------------------------------------------------------------
# spans

def test_self_time_subtracts_nested_children():
    # 0: [0, 10] holds 1: [1, 4] (which holds 2: [2, 3]) and 3: [5, 6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 5.0, 7.0], [-1, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(4.0)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


# ---------------------------------------------------------------------------
# output checks on a tiny planted dataset

@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    params = SyntheticParams(n_users=40, n_items=60, n_groups=12, positives_per_group=4)
    dataset, _ = generate_synthetic(params, 3)
    write_dataset(dataset, base / "data")
    assert mgam_main(["train", "--data", str(base / "data"), "--out", str(base / "ckpt"),
                      "--set", "epochs=1", "--set", "eval_negatives=20"]) == 0
    assert mgam_main(["eval", "--data", str(base / "data"), "--ckpt", str(base / "ckpt"),
                      "--detail"]) == 0
    assert mgam_main(["dump-graph", "--data", str(base / "data"),
                      "--out", str(base / "graph.tsv")]) == 0
    assert mgam_main(["dump-subsets", "--data", str(base / "data"),
                      "--out", str(base / "subsets.tsv")]) == 0
    return base


def _workload(cls, base, work):
    wl = cls(workloads.Runner(ROOT, work), 42)
    wl.data = base / "data"
    return wl


def _context(base, work):
    wl = _workload(workloads.Fit, base, work)
    cfg = wl._config("eval_negatives=20")
    return wl._context(cfg, base / "ckpt")


def _rewrite(src: Path, dst: Path, edit) -> Path:
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    dst.write_text("".join(edit(lines)), encoding="utf-8")
    return dst


def test_ranking_check_passes_and_catches_corruption(tiny, tmp_path):
    _, split, oracle, _ = _context(tiny, tmp_path)
    groups = [g for g, _ in split.test]
    metrics, detail = tiny / "ckpt" / "metrics.csv", tiny / "ckpt" / "metrics_detail.csv"
    assert checks.check_ranking(metrics, detail, oracle, split, 42, 20, groups) == []

    target = oracle.dataset.group_ids[groups[0]]

    def move_position(lines):
        out = []
        for line in lines:
            f = line.split(",")
            if f[1] == target:
                f[2] = str(int(f[2]) % 21 + 1)
            out.append(",".join(f))
        return out

    bad_detail = _rewrite(detail, tmp_path / "detail.csv", move_position)
    assert checks.check_ranking(metrics, bad_detail, oracle, split, 42, 20, groups[:1])

    def bump_hr(lines):
        f = lines[1].split(",")
        f[2] = repr(float(f[2]) + 0.01)
        return [lines[0], ",".join(f)] + lines[2:]

    bad_metrics = _rewrite(metrics, tmp_path / "metrics.csv", bump_hr)
    assert checks.check_ranking(bad_metrics, detail, oracle, split, 42, 20, [])


def test_recommend_check_passes_and_catches_corruption(tiny, tmp_path, capfd):
    dataset, _, oracle, _ = _context(tiny, tmp_path)
    g = 5
    capfd.readouterr()
    assert mgam_main(["recommend", "--data", str(tiny / "data"), "--ckpt",
                      str(tiny / "ckpt"), "--group-id", dataset.group_ids[g]]) == 0
    text = capfd.readouterr().out
    assert checks.check_recommend(text, oracle, g, 10, full=True) == []

    lines = text.splitlines()
    rows = [line.split("\t") for line in lines]
    swapped = [rows[1][:1] + rows[0][1:], rows[0][:1] + rows[1][1:]] + rows[2:]
    assert checks.check_recommend("\n".join("\t".join(r) for r in swapped), oracle, g, 10)
    nudged = rows[:1] + [[rows[1][0], rows[1][1], f"{float(rows[1][2]) - 1e-5:.6f}"]] + rows[2:]
    assert checks.check_recommend("\n".join("\t".join(r) for r in nudged), oracle, g, 10)
    positive = dataset.item_ids[dataset.group_pos[g][0]]
    with_positive = [rows[0][:1] + [positive] + rows[0][2:]] + rows[1:]
    assert checks.check_recommend("\n".join("\t".join(r) for r in with_positive),
                                  oracle, g, 10)
    assert checks.check_recommend("\n".join(lines[:-1]), oracle, g, 10)


def test_graph_check_passes_and_catches_corruption(tiny, tmp_path):
    groups = tiny / "data" / "groups.tsv"
    good = tiny / "graph.tsv"
    assert checks.check_graph(good, groups) == []
    assert checks.check_graph(_rewrite(good, tmp_path / "drop.tsv", lambda l: l[:-1]), groups)
    edges = {tuple(line.split()) for line in good.read_text().splitlines()}
    ids = sorted({g for e in edges for g in e}, key=int)
    extra = next(f"{a}\t{b}\n" for a in ids for b in ids
                 if int(a) < int(b) and (a, b) not in edges)
    assert checks.check_graph(_rewrite(good, tmp_path / "add.tsv", lambda l: l + [extra]),
                              groups)


def test_subsets_check_passes_and_catches_corruption(tiny, tmp_path):
    groups = tiny / "data" / "groups.tsv"
    good = tiny / "subsets.tsv"
    assert checks.check_subsets(good, groups, 3) == []
    assert checks.check_subsets(good, groups, 1)  # more subsets than allowed
    assert checks.check_subsets(_rewrite(good, tmp_path / "drop.tsv", lambda l: l[1:]),
                                groups, 3)


def test_subsets_check_needs_one_global_labelling(tmp_path):
    groups = tmp_path / "groups.tsv"
    groups.write_text("1\t1,2,3\n2\t1,2,4\n")
    good = tmp_path / "good.tsv"
    good.write_text("1\t0\t1\n1\t0\t2\n1\t1\t3\n2\t0\t1\n2\t0\t2\n2\t1\t4\n")
    assert checks.check_subsets(good, groups, 3) == []
    split = tmp_path / "split.tsv"  # users 1 and 2 together in group 1, apart in 2
    split.write_text("1\t0\t1\n1\t0\t2\n1\t1\t3\n2\t0\t2\n2\t0\t4\n2\t1\t1\n")
    assert checks.check_subsets(split, groups, 3)
    unordered = tmp_path / "unordered.tsv"  # smaller subset first
    unordered.write_text("1\t0\t3\n1\t1\t1\n1\t1\t2\n2\t0\t1\n2\t0\t2\n2\t1\t4\n")
    assert checks.check_subsets(unordered, groups, 3)


def test_corrupted_output_counts_its_operation_as_failed(tiny, tmp_path):
    wl = _workload(workloads.Ingest, tiny, tmp_path)
    bad_graph = _rewrite(tiny / "graph.tsv", tmp_path / "graph.tsv", lambda l: l[:-1])
    ops = [workloads.Op("#0 dump-subsets", "dump-subsets", 0.0, True,
                        info={"file": tiny / "subsets.tsv"}),
           workloads.Op("#1 dump-graph", "dump-graph", 0.0, True, info={"file": bad_graph})]
    wl.check(ops)
    assert [label for label, _ in wl.s.failures] == ["#1 dump-graph"]


def test_tracer_restores_the_program_and_reports_every_metric(tiny, tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.train"):
            assert mgam_main(["train", "--data", str(tiny / "data"),
                              "--out", str(tmp_path / "ckpt"), "--set", "epochs=1"]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in originals.items())
    values = tracing.summarize(tracer, 1)
    names = [n for n, _, _ in tracing.per_layer_metrics()]
    assert set(values) <= set(names)
    assert values["cli.train.s"] >= values["training.train.s"] > values["training.train_epoch.s"] * 0.99
    assert values["model.forward_train.instances"] > 0
    assert values["autodiff.tape_nodes_per_instance"] > 0
    layer_self = sum(values[f"{layer}.self.s"] for layer in tracing.LAYERS)
    assert layer_self <= values["cli.train.s"] + 1e-9
