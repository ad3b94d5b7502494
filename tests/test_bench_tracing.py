"""The benchmark's tracer patches mgam attributes by name and reads their
arguments by position; a renamed or deleted attribute, or a moved
argument, must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr", sorted(
    {(m, a) for m, a, _, _ in tracing.WRAPPED}
    | {(m, a) for m, a, _ in tracing.COUNTED}))
def test_traced_attribute_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} is wrapped by benchmarks/tracing.py but does not exist"


def test_tracer_counts_equal_the_rows_the_program_handled(tmp_path, monkeypatch, capsys):
    """The count hooks read call arguments by position: with the tracer
    installed around an in-process train, eval and recommend, each count
    equals the rows those commands really handled."""
    import mgam.autodiff
    from mgam.cli import main
    traced = [w[:2] for w in tracing.WRAPPED] + [c[:2] for c in tracing.COUNTED]
    assert all(callable(getattr(sys.modules.get(m), a, None)) for m, a in traced), \
        "after importing mgam.cli, an attribute the tracer wraps does not resolve"
    from mgam.config import STREAM_DATA, substream
    from mgam.data import load_dataset, split_leave_one_out

    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    assert main(["gen-data", "--out", str(data), "--users", "30", "--items", "60",
                 "--groups", "8", "--min-group-size", "3", "--max-group-size", "4",
                 "--positives-per-group", "5", "--seed", "3"]) == 0
    epochs, negatives, eval_negatives = 2, 2, 20
    settings = ["--set", f"epochs={epochs}", "--set", "batch_size=16",
                "--set", "embedding_dim=8", "--set", f"train_negatives={negatives}",
                "--set", f"eval_negatives={eval_negatives}"]
    dataset = load_dataset(data)
    split = split_leave_one_out(dataset, substream(42, STREAM_DATA))
    group = dataset.group_index["3"]
    unseen = dataset.n_items - len(dataset.group_pos[group])

    real_backward = mgam.autodiff.backward
    walked = []

    def backward(output):   # the node count of every tape backward walks
        walked.append(len(mgam.autodiff.trace(output)))
        return real_backward(output)

    monkeypatch.setattr(mgam.autodiff, "backward", backward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["train", "--data", str(data), "--out", str(ckpt), *settings]) == 0
        assert main(["eval", "--data", str(data), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 0
        assert main(["recommend", "--data", str(data), "--ckpt", str(ckpt),
                     "--group-id", "3", "--k", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert mgam.autodiff.backward is backward   # the tracer put back what it wrapped

    trained = epochs * len(split.train) * (1 + negatives)
    assert tracer.counts["model.forward_train.instances"] == trained
    assert tracer.counts["training.anchors"] == trained
    assert 0 < tracer.counts["training.triplets"] <= trained
    assert len(walked) == epochs * -(-len(split.train) // 16)   # one backward per batch
    assert tracer.counts["autodiff.tape_nodes"] == sum(walked)
    assert tracer.counts["evaluation.candidates"] == unseen
    assert tracer.counts["model.forward_score.instances"] == (
        len(split.test) * (1 + eval_negatives) + unseen)
    # one draw per training batch, one per candidate table
    assert tracer.names.count("data.sample_negatives") == (
        epochs * -(-len(split.train) // 16) + 1)
    values = tracing.summarize(tracer, 1)
    assert values["autodiff.tape_nodes_per_instance"] == sum(walked) / trained
    assert values["evaluation.candidates"] == unseen
    assert values["training.triplet_coverage"] == tracer.counts["training.triplets"] / trained
