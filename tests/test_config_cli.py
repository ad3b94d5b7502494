import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mgam.cli
import mgam.evaluation
import mgam.model
from mgam.cli import main
from mgam.clustering import cluster_subsets
from mgam.config import (STREAM_CLUSTER, STREAM_DATA, STREAM_INIT, Config, parse_config,
                         substream)
from mgam.data import dataset_sha256, load_dataset, split_leave_one_out
from mgam.errors import ConfigError, NonFiniteError
from mgam.graph import build_co_membership
from mgam.model import AblationMask, init_params, param_table
from mgam.training import (load_checkpoint, load_inputs, read_manifest, save_checkpoint,
                           train)
from conftest import same_dataset, same_subsets
from reference_preprocessing import (line_parsed_dataset, pair_loop_adjacency,
                                     sorted_pair_dump, triple_loop_subset_dump)


# ---------------------------------------------------------------------------
# config resolution

def test_defaults():
    cfg = parse_config()
    assert cfg.embedding_dim == 32
    assert cfg.num_subsets == 3
    assert cfg.gcn_layers == 2
    assert cfg.lambda1 == 0.5
    assert cfg.margin == 1.0
    assert cfg.learning_rate == 0.001
    assert cfg.batch_size == 256
    assert cfg.epochs == 100
    assert cfg.train_negatives == 1
    assert cfg.eval_negatives == 100
    assert cfg.ks_list() == [5, 10]
    assert cfg.kmeans_max_iters == 100
    assert cfg.kmeans_restarts == 3
    assert cfg.seed == 42
    assert cfg.ablated() == []
    assert list(cfg.resolved()) == [
        "embedding_dim", "num_subsets", "gcn_layers", "lambda1", "margin",
        "learning_rate", "batch_size", "epochs", "train_negatives",
        "eval_negatives", "ks", "kmeans_max_iters", "kmeans_restarts", "seed",
        "ablate"]


def test_file_then_override_precedence(tmp_path):
    f = tmp_path / "c.toml"
    f.write_text("num_subsets = 5\nseed = 7\n# comment\nks = 3,5\n")
    cfg = parse_config(f, overrides=["num_subsets=3"])
    assert cfg.num_subsets == 3  # override wins
    assert cfg.seed == 7
    assert cfg.ks_list() == [3, 5]


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="'lr'"):
        parse_config(None, overrides=["lr=0.1"])


def test_unknown_key_in_file_named(tmp_path):
    f = tmp_path / "c.toml"
    f.write_text("lr = 0.1\n")
    with pytest.raises(ConfigError, match="'lr'"):
        parse_config(f)


def test_bad_value_named():
    with pytest.raises(ConfigError, match="'epochs'"):
        parse_config(None, overrides=["epochs=ten"])


def test_out_of_range_values():
    with pytest.raises(ConfigError, match="embedding_dim"):
        parse_config(None, overrides=["embedding_dim=7"])
    with pytest.raises(ConfigError, match="lambda1"):
        parse_config(None, overrides=["lambda1=-1"])
    with pytest.raises(ConfigError, match="ks"):
        parse_config(None, overrides=["ks=0"])
    with pytest.raises(ConfigError, match="unknown configuration key 'graph.weighted'"):
        parse_config(None, overrides=["graph.weighted=true"])
    with pytest.raises(ConfigError, match="ablate"):
        parse_config(None, overrides=["ablate=fusion"])


def test_ablate_parsing():
    cfg = parse_config(None, overrides=["ablate=subpe,suppe"])
    assert cfg.ablated() == ["subpe", "suppe"]


def test_resolved_echo_roundtrip():
    cfg = parse_config(None, overrides=["num_subsets=5", "learning_rate=0.25",
                                        "ks=1,20"])
    echo = cfg.resolved()
    again = parse_config(None, overrides=[f"{k}={v}" for k, v in echo.items()])
    assert again == cfg


def test_substream_distinct():
    assert substream(42, 1) != substream(42, 2)
    assert substream(42, 1, 0) != substream(42, 1, 1)


# ---------------------------------------------------------------------------
# CLI end-to-end on a small dataset

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(["gen-data", "--out", str(data), "--users", "40", "--items", "80",
               "--groups", "10", "--min-group-size", "3", "--max-group-size", "5",
               "--cohorts", "2", "--positives-per-group", "6", "--seed", "7"])
    assert rc == 0
    ckpt = root / "ckpt"
    rc = main(["train", "--data", str(data), "--out", str(ckpt),
               "--set", "epochs=2", "--set", "batch_size=16",
               "--set", "embedding_dim=8", "--set", "eval_negatives=30"])
    assert rc == 0
    return {"root": root, "data": str(data), "ckpt": str(ckpt)}


def test_train_outputs(workspace):
    import pathlib
    ckpt = pathlib.Path(workspace["ckpt"])
    assert (ckpt / "manifest.json").exists()
    assert (ckpt / "params.bin").exists()
    assert (ckpt / "train_log.csv").exists()
    assert (ckpt / "config.resolved").exists()
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["format_version"] == 3
    assert (ckpt / "inputs.npz").exists()
    assert not (ckpt / "adam.bin").exists()
    assert manifest["config"]["embedding_dim"] == 8


def test_eval_writes_metrics(workspace, capsys):
    rc = main(["eval", "--data", workspace["data"], "--ckpt", workspace["ckpt"],
               "--set", "ks=5,10"])
    assert rc == 0
    import pathlib
    lines = (pathlib.Path(workspace["ckpt"]) / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "model,K,HR,NDCG,n_groups,seed"
    assert len(lines) == 3  # one row per K
    assert lines[1].startswith("mgam,5,")


def test_eval_adopts_checkpoint_config(workspace):
    # checkpoint was trained with d=8; no overrides needed for a match
    rc = main(["eval", "--data", workspace["data"], "--ckpt", workspace["ckpt"]])
    assert rc == 0


def test_eval_dimension_mismatch_fails(workspace, capsys):
    rc = main(["eval", "--data", workspace["data"], "--ckpt", workspace["ckpt"],
               "--set", "embedding_dim=16"])
    assert rc == 1
    assert "user_emb" in capsys.readouterr().err


def test_ablate_runs_all_single_removals(workspace):
    import pathlib
    out = pathlib.Path(workspace["root"]) / "ablate"
    rc = main(["ablate", "--data", workspace["data"], "--ckpt", workspace["ckpt"],
               "--out", str(out)])
    assert rc == 0
    rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
    models = {r.split(",")[0] for r in rows}
    assert models == {"mgam", "mgam-wo-subpe", "mgam-wo-gpe", "mgam-wo-suppe"}


def test_ablate_draws_each_test_group_once(workspace, tmp_path, monkeypatch):
    """Four masks share one draw of candidates: one sample_negatives call
    per test group, and each mask's rows, summary and per-group detail
    alike, equal a separate `eval --set ablate=...`."""
    drawn = []
    real = mgam.evaluation.sample_negatives

    def spy(dataset, group, *args, **kwargs):
        drawn.append(group)
        return real(dataset, group, *args, **kwargs)

    monkeypatch.setattr(mgam.evaluation, "sample_negatives", spy)
    rc = main(["ablate", "--data", workspace["data"], "--ckpt", workspace["ckpt"],
               "--out", str(tmp_path / "ablate"), "--detail"])
    assert rc == 0
    dataset = load_dataset(workspace["data"])
    split = split_leave_one_out(dataset, substream(42, STREAM_DATA))
    assert sorted(drawn) == sorted(g for g, _ in split.test)
    assert len((tmp_path / "ablate" / "metrics.csv").read_text().splitlines()) == 1 + 4 * 2
    for label, ablated in (("mgam", ""), ("mgam-wo-subpe", "subpe"),
                           ("mgam-wo-gpe", "gpe"), ("mgam-wo-suppe", "suppe")):
        out = tmp_path / label
        rc = main(["eval", "--data", workspace["data"], "--ckpt", workspace["ckpt"],
                   "--out", str(out), "--set", f"ablate={ablated}", "--detail"])
        assert rc == 0
        for name in ("metrics.csv", "metrics_detail.csv"):
            rows = (tmp_path / "ablate" / name).read_text().splitlines()
            alone = (out / name).read_text().splitlines()
            assert alone[0] == rows[0]
            assert [r for r in rows if r.startswith(label + ",")] == alone[1:], (label, name)


def test_ablate_all_disabled_is_usage_error(workspace, capsys):
    rc = main(["ablate", "--data", workspace["data"], "--ckpt", workspace["ckpt"],
               "--disable", "subpe", "--disable", "gpe", "--disable", "suppe"])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_recommend_prints_topk(workspace, capsys):
    rc = main(["recommend", "--data", workspace["data"], "--ckpt",
               workspace["ckpt"], "--group-id", "3", "--k", "4"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    rank, item, score = out[0].split("\t")
    assert rank == "1"
    float(score)


def test_recommend_explain_json(workspace, capsys):
    rc = main(["recommend", "--data", workspace["data"], "--ckpt",
               workspace["ckpt"], "--group-id", "3", "--k", "2", "--explain"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group"] == "3"
    assert set(payload["fusion_rows"]) == {"subpe", "gpe", "suppe"}
    assert len(payload["fusion_attention"]) == 3
    assert abs(sum(payload["group_member_weights"].values()) - 1) < 1e-9
    assert abs(sum(payload["subset_weights"]) - 1) < 1e-9
    assert payload["recommendations"]
    # every attention block has its documented shape
    assert set(payload) == {"group", "item", "score", "fusion_rows",
                            "fusion_attention", "recommendations",
                            "group_member_weights", "subset_weights",
                            "subsets", "config"}
    assert payload["item"] == payload["recommendations"][0]["item"]
    assert payload["score"] == pytest.approx(payload["recommendations"][0]["score"],
                                             abs=1e-12)
    assert len(payload["recommendations"]) == 2
    assert [len(row) for row in payload["fusion_attention"]] == [3, 3, 3]
    assert len(payload["subsets"]) == len(payload["subset_weights"])
    for subset in payload["subsets"]:
        assert len(subset["member_weights"]) == len(subset["users"])
        assert abs(sum(subset["member_weights"]) - 1) < 1e-9
    members = {u for s in payload["subsets"] for u in s["users"]}
    assert members == set(payload["group_member_weights"])


def _member_softmax(params, dataset, user_ids, item_id, prefix):
    """softmax(relu(w * <e_u, e_v> + b)) over the named users, in numpy."""
    users = params["user_emb"].data[[dataset.user_ids.index(u) for u in user_ids]]
    e_v = params["item_emb"].data[dataset.item_index[item_id]]
    scores = np.maximum(float(params[f"{prefix}_att_w"].data) * (users @ e_v)
                        + float(params[f"{prefix}_att_b"].data), 0.0)
    weights = np.exp(scores - scores.max())
    return weights / weights.sum()


@pytest.mark.parametrize("extra", [[], ["--item", "12"]])
def test_recommend_explain_member_weights_match_numpy(workspace, capsys, extra):
    rc = main(["recommend", "--data", workspace["data"], "--ckpt",
               workspace["ckpt"], "--group-id", "3", "--explain", *extra])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    dataset = load_dataset(workspace["data"])
    manifest = read_manifest(workspace["ckpt"])
    params = load_checkpoint(workspace["ckpt"], manifest, param_table(
        Config(**manifest["config"]), dataset.n_users, dataset.n_items, dataset.n_groups))
    if extra:
        assert payload["item"] == "12"
    g = dataset.group_index["3"]
    assert list(payload["group_member_weights"]) == [
        dataset.user_ids[u] for u in dataset.groups[g]]
    expected = _member_softmax(params, dataset, payload["group_member_weights"],
                               payload["item"], "group")
    got = np.array(list(payload["group_member_weights"].values()))
    assert np.abs(got - expected).max() < 1e-12
    assert payload["subsets"]
    for subset in payload["subsets"]:
        expected = _member_softmax(params, dataset, subset["users"],
                                   payload["item"], "user")
        assert np.abs(np.array(subset["member_weights"]) - expected).max() < 1e-12


@pytest.mark.parametrize("k, extra", [(0, ["--explain"]), (-3, [])])
def test_recommend_k_below_one_is_usage_error(workspace, tmp_path, capsys, k, extra):
    # a missing data directory proves the check fires before any data is read
    rc = main(["recommend", "--data", str(tmp_path / "no-data"), "--ckpt",
               workspace["ckpt"], "--group-id", "3", "--k", str(k), *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: --k must be >= 1")
    assert captured.out == ""


def test_train_all_granularities_ablated_fails_before_output(workspace, tmp_path,
                                                             capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", workspace["data"], "--out", str(out),
               "--set", "ablate=subpe,gpe,suppe"])
    assert rc == 2
    assert "all three granularities are ablated" in capsys.readouterr().err
    assert not out.exists()


def test_recommend_does_not_split(workspace, capsys, monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("recommend split the dataset")

    monkeypatch.setattr(mgam.cli, "split_leave_one_out", spy)
    rc = main(["recommend", "--data", workspace["data"], "--ckpt",
               workspace["ckpt"], "--group-id", "3", "--k", "2", "--explain"])
    assert rc == 0


# the checkpoint commands, each with the arguments it needs besides --data/--ckpt
CHECKPOINT_COMMANDS = [["eval"], ["ablate"], ["recommend", "--group-id", "3"]]
CHECKPOINT_IDS = ["eval", "ablate", "recommend"]


def _run_on_checkpoint(command, data, ckpt, tmp_path, *extra):
    out = [] if command[0] == "recommend" else ["--out", str(tmp_path / "out")]
    return main([command[0], "--data", str(data), "--ckpt", str(ckpt),
                 *command[1:], *out, *extra])


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=CHECKPOINT_IDS)
def test_checkpoint_commands_neither_parse_nor_cluster(workspace, tmp_path,
                                                       monkeypatch, command):
    def spy(*args, **kwargs):
        raise AssertionError("a checkpoint command re-read or re-clustered the data")

    monkeypatch.setattr(mgam.cli, "load_dataset", spy)
    monkeypatch.setattr(mgam.cli, "cluster_subsets", spy)
    assert _run_on_checkpoint(command, workspace["data"], workspace["ckpt"],
                              tmp_path) == 0


def _echo(command, captured):
    """The command's config echo: stderr for `recommend`, else stdout."""
    return captured.err if command[0] == "recommend" else captured.out


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=CHECKPOINT_IDS)
def test_checkpoint_commands_read_config_file_over_checkpoint(workspace, tmp_path,
                                                              capsys, command):
    """Precedence is checkpoint < --config file < --set."""
    path = tmp_path / "f.conf"
    path.write_text("eval_negatives = 7\nks = 4\n")
    assert _run_on_checkpoint(command, workspace["data"], workspace["ckpt"], tmp_path,
                              "--config", str(path), "--set", "ks=2") == 0
    echo = _echo(command, capsys.readouterr()).splitlines()
    assert "eval_negatives = 7" in echo and "ks = 2" in echo
    assert "embedding_dim = 8" in echo       # the checkpoint's, under the file
    if command[0] != "recommend":
        resolved = (tmp_path / "out" / "config.resolved").read_text().splitlines()
        assert "eval_negatives = 7" in resolved


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=CHECKPOINT_IDS)
def test_checkpoint_config_file_cannot_change_clustering(workspace, tmp_path, capsys,
                                                         command):
    path = tmp_path / "f.conf"
    path.write_text("kmeans_restarts = 5\n")
    assert _run_on_checkpoint(command, workspace["data"], workspace["ckpt"], tmp_path,
                              "--config", str(path)) == 2
    assert "kmeans_restarts=5 differs from the checkpoint's 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_checkpoint_unknown_stored_key_names_manifest(workspace, tmp_path, capsys):
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "ckpt")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["graph.weighted"] = True
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert _run_on_checkpoint(["eval"], workspace["data"], ckpt, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{ckpt / 'manifest.json'}: unknown configuration key 'graph.weighted'" in err
    assert "command line" not in err


def test_api_train_trains_and_eval_scores_the_ablated_variant(workspace, tmp_path):
    """`train` trains the variant `cfg.ablate` names: the superset branch's
    parameters keep their initial values, and `eval` of the saved
    checkpoint reports that variant."""
    dataset = load_dataset(workspace["data"])
    cfg = Config(embedding_dim=8, epochs=2, batch_size=16, eval_negatives=30,
                 ablate="suppe")
    assignments = cluster_subsets(dataset, cfg.num_subsets, max_iters=cfg.kmeans_max_iters,
                                  restarts=cfg.kmeans_restarts,
                                  seed=substream(cfg.seed, STREAM_CLUSTER))
    split = split_leave_one_out(dataset, substream(cfg.seed, STREAM_DATA))
    params, _ = train(dataset, split, assignments, build_co_membership(dataset.groups), cfg)
    init = init_params(cfg, dataset.n_users, dataset.n_items, dataset.n_groups,
                       np.random.default_rng(substream(cfg.seed, STREAM_INIT)))
    superset = ["group_emb", "suppe_proj_w", "suppe_proj_b"] + [
        f"gcn_{stream}_w_{k}" for stream in ("global", "batch") for k in (1, 2)]
    for name in superset:
        assert np.array_equal(params[name].data, init[name].data), name
    assert not np.array_equal(params["user_emb"].data, init["user_emb"].data)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, params, cfg.resolved(), cfg.seed, dataset, assignments,
                    dataset_sha256(workspace["data"]))
    assert main(["eval", "--data", workspace["data"], "--ckpt", str(ckpt)]) == 0
    rows = (ckpt / "metrics.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"mgam-wo-suppe"}


def test_checkpoint_inputs_equal_parsing_and_clustering(workspace):
    """The stored dataset and subsets are the ones `train` computed."""
    ckpt = workspace["ckpt"]
    cfg = parse_config(None, overrides=[
        f"{k}={v}" for k, v in read_manifest(ckpt)["config"].items()])
    dataset, assignments = load_inputs(ckpt, workspace["data"], read_manifest(ckpt))
    parsed = load_dataset(workspace["data"])
    assert same_dataset(dataset, parsed)
    assert same_subsets(assignments, cluster_subsets(
        parsed, cfg.num_subsets, max_iters=cfg.kmeans_max_iters,
        restarts=cfg.kmeans_restarts, seed=substream(cfg.seed, STREAM_CLUSTER)))


@pytest.mark.parametrize("name", ["user_item.tsv", "groups.tsv", "group_items.tsv"])
@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=CHECKPOINT_IDS)
def test_checkpoint_refuses_data_it_was_not_trained_on(workspace, tmp_path, capsys,
                                                        command, name):
    data = shutil.copytree(workspace["data"], tmp_path / "data")
    raw = bytearray((data / name).read_bytes())
    raw[len(raw) // 2] ^= 0x01          # one byte, mid-file
    (data / name).write_bytes(bytes(raw))
    assert _run_on_checkpoint(command, data, workspace["ckpt"], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error:")
    assert f"{name} is not the file this checkpoint was trained on" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()      # refused before any scoring


@pytest.mark.parametrize("name,at", [("params.bin", 40), ("inputs.npz", 200)])
@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=CHECKPOINT_IDS)
def test_checkpoint_flipped_byte_is_named(workspace, tmp_path, capsys, command,
                                          name, at):
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "ckpt")
    raw = bytearray((ckpt / name).read_bytes())
    raw[at] ^= 0x01
    (ckpt / name).write_bytes(bytes(raw))
    assert _run_on_checkpoint(command, workspace["data"], ckpt, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: corrupt checkpoint:")
    assert f"{name} does not match its sha256" in err
    assert "Traceback" not in err


def test_checkpoint_missing_inputs_file_is_named(workspace, tmp_path, capsys):
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "ckpt")
    (ckpt / "inputs.npz").unlink()
    assert _run_on_checkpoint(["eval"], workspace["data"], ckpt, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: cannot read")
    assert "inputs.npz" in err and "Traceback" not in err


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=CHECKPOINT_IDS)
def test_checkpoint_replaced_after_its_inputs_load_is_refused(workspace, tmp_path,
                                                              capsys, monkeypatch, command):
    """A command reads manifest.json once: when another run's checkpoint
    replaces the files after the inputs are loaded, params.bin fails the
    digest of the manifest the config and inputs were checked against."""
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "ckpt")
    other = tmp_path / "other"
    assert main(["train", "--data", workspace["data"], "--out", str(other),
                 "--set", "epochs=1", "--set", "batch_size=16",
                 "--set", "embedding_dim=8", "--set", "eval_negatives=30"]) == 0
    real = mgam.cli.load_inputs

    def load_then_replace(*args):
        loaded = real(*args)
        for name in ("params.bin", "inputs.npz", "manifest.json"):
            shutil.copy(other / name, ckpt / name)
        return loaded

    monkeypatch.setattr(mgam.cli, "load_inputs", load_then_replace)
    capsys.readouterr()
    assert _run_on_checkpoint(command, workspace["data"], ckpt, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"error: corrupt checkpoint: {ckpt / 'params.bin'} "
                                    f"does not match its sha256 in manifest.json")
    assert (other / "params.bin").read_bytes() == (ckpt / "params.bin").read_bytes()


@pytest.mark.parametrize("key", ["kmeans_max_iters", "kmeans_restarts"])
@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=CHECKPOINT_IDS)
def test_clustering_override_is_usage_error(workspace, tmp_path, capsys, command, key):
    trained = read_manifest(workspace["ckpt"])["config"][key]
    assert _run_on_checkpoint(command, workspace["data"], workspace["ckpt"], tmp_path,
                              "--set", f"{key}={trained}") == 0
    capsys.readouterr()
    assert _run_on_checkpoint(command, workspace["data"], workspace["ckpt"], tmp_path,
                              "--set", f"{key}={trained + 1}") == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"usage error: {key}={trained + 1} differs")


@pytest.mark.parametrize("name", [["user_emb"], 7], ids=["list", "int"])
def test_recommend_non_string_tensor_name_is_named(workspace, tmp_path, capsys, name):
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "bad")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["tensors"][0]["name"] = name
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["recommend", "--data", workspace["data"], "--ckpt", str(ckpt),
               "--group-id", "3"])
    assert rc == 1
    err = capsys.readouterr().err      # after the config echo
    assert err.splitlines()[-1].startswith("error:")
    assert "tensor entry 0 is" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "recommend"])
def test_non_finite_score_exits_1_naming_the_group(workspace, tmp_path, capsys,
                                                   monkeypatch, command):
    real = mgam.evaluation.forward_batch

    def nan_for_row_3(*args, **kwargs):
        results = real(*args, **kwargs)
        results[0].scores.data[3] = np.nan
        return results

    monkeypatch.setattr(mgam.evaluation, "forward_batch", nan_for_row_3)
    extra = (["--group-id", "3"] if command == "recommend"
             else ["--out", str(tmp_path / "eval")])
    rc = main([command, "--data", workspace["data"], "--ckpt", workspace["ckpt"], *extra])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    group = "3" if command == "recommend" else r"\S+"
    assert re.search(rf"non-finite score nan for group {group}$", err.strip())


def test_recommend_unknown_group(workspace, capsys):
    rc = main(["recommend", "--data", workspace["data"], "--ckpt",
               workspace["ckpt"], "--group-id", "nope"])
    assert rc == 2


def test_dump_graph_format(workspace, tmp_path):
    out = tmp_path / "graph.tsv"
    rc = main(["dump-graph", "--data", workspace["data"], "--out", str(out)])
    assert rc == 0
    for line in out.read_text().strip().splitlines():
        a, b = line.split("\t")
        assert a != b  # self-loops omitted
    assert (tmp_path / "graph.tsv.config").exists()


def test_config_echo_follows_redirected_stdout(workspace, tmp_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["dump-graph", "--data", workspace["data"],
                   "--out", str(tmp_path / "graph.tsv"), "--set", "seed=7"])
    assert rc == 0
    lines = buf.getvalue().splitlines()
    assert "seed = 7" in lines
    assert "embedding_dim = 32" in lines
    assert lines[-1].startswith("graph written to")


def _awkward_tsvs(rng, d):
    """A random dataset with awkward ids (numeric ties, astral and other
    non-ASCII characters, inner spaces, NUL), padded fields, extra columns,
    comments, blank lines and CRLF line endings."""
    def pool(n, prefixes):
        names = [p + str(k) for p in prefixes for k in range(n)]
        return rng.choice(names, size=n, replace=False).tolist()
    numeric = ["", "0", "+"]
    users = pool(12, numeric if rng.random() < 0.5 else
                 numeric + ["\u00e9", "\U0001F600", "x y", "a\x00"])
    items = pool(15, ["", "0", "#", "\U0001F600"])
    groups = pool(6, numeric + ["g\u3000", "\u0663"])

    def pad(token):
        return rng.choice(["", "", " ", "\u3000"]) + token + rng.choice(["", "", " "])

    def write(name, records):
        lines = []
        for fields in records:
            while rng.random() < 0.2:
                lines.append(rng.choice(["", "  ", "# comment", "  # indented\tcomment"]))
            lines.append("\t".join(fields) + ("\textra" if rng.random() < 0.1 else ""))
        (d / name).write_bytes("".join(l + "\r\n" for l in lines).encode("utf-8"))

    write("user_item.tsv", [[pad(u), pad(rng.choice(items))]
                            for u in users for _ in range(rng.integers(1, 5))])
    write("groups.tsv", [[pad(g), rng.choice([",", ", "]).join(
        pad(u) for u in rng.choice(users, size=rng.integers(1, 6), replace=False))]
        for g in groups])
    write("group_items.tsv", [[pad(g), pad(rng.choice(items))]
                              for g in groups for _ in range(rng.integers(1, 4))])


def test_dump_commands_match_line_parser_and_references(tmp_path):
    """`dump-subsets` and `dump-graph` write what the line-by-line parser,
    `cluster_subsets`, the one-line-at-a-time subset writer and the
    sorted-pair graph writer give."""
    rng = np.random.default_rng(23)
    cfg = parse_config()
    for case in range(5):
        d = tmp_path / str(case)
        d.mkdir()
        _awkward_tsvs(rng, d)
        ref = line_parsed_dataset(d)
        assignments = cluster_subsets(ref, cfg.num_subsets, max_iters=cfg.kmeans_max_iters,
                                      restarts=cfg.kmeans_restarts,
                                      seed=substream(cfg.seed, STREAM_CLUSTER))
        assert main(["dump-subsets", "--data", str(d), "--out", str(d / "subsets.out")]) == 0
        assert main(["dump-graph", "--data", str(d), "--out", str(d / "graph.out")]) == 0
        assert ((d / "subsets.out").read_bytes().decode("utf-8")
                == triple_loop_subset_dump(assignments, ref)), case
        assert ((d / "graph.out").read_bytes().decode("utf-8")
                == sorted_pair_dump(pair_loop_adjacency(ref.groups), ref.group_ids)), case


def test_parser_is_built_once_and_keeps_no_values(workspace, tmp_path):
    """`main` reuses one parser: a `--set` or `--disable` of one call does
    not reach the next, and a usage error still exits 2."""
    mgam.cli.build_parser.cache_clear()
    out, config = tmp_path / "graph.tsv", tmp_path / "graph.tsv.config"
    assert main(["dump-graph", "--data", workspace["data"], "--out", str(out),
                 "--set", "seed=7"]) == 0
    assert "seed = 7" in config.read_text().splitlines()
    assert main(["dump-graph", "--data", workspace["data"], "--out", str(out)]) == 0
    assert "seed = 42" in config.read_text().splitlines()
    with pytest.raises(SystemExit) as e:
        main(["dump-graph", "--data", workspace["data"]])
    assert e.value.code == 2
    argv = ["ablate", "--data", "d", "--ckpt", "c"]
    assert mgam.cli.build_parser().parse_args(argv + ["--disable", "gpe"]).disable == ["gpe"]
    assert mgam.cli.build_parser().parse_args(argv).disable == []
    assert mgam.cli.build_parser.cache_info().misses == 1


# every command at its defaults and with each of its options, and the
# namespace it parses to (`func` by name): however the options are
# declared, the parsed arguments stay these
CONFIG_ARGS = ["--config", "c", "--set", "a=1", "--set", "b=2"]
CONFIG_NS = {"config": "c", "overrides": ["a=1", "b=2"]}
NO_CONFIG = {"config": None, "overrides": []}
PARSED = [
    (["gen-data", "--out", "o"],
     {"command": "gen-data", "func": "cmd_gen_data", "out": "o", "users": 200, "items": 500,
      "groups": 60, "min_group_size": 4, "max_group_size": 8, "cohorts": 3, "latent_dim": 8,
      "noise": 0.1, "cross_rate": 0.2, "positives_per_group": 10, "items_per_user": None,
      "seed": 42}),
    (["gen-data", "--out", "o", "--users", "3", "--items", "4", "--groups", "5",
      "--min-group-size", "2", "--max-group-size", "3", "--cohorts", "2", "--latent-dim", "6",
      "--noise", "0.5", "--cross-rate", "0.3", "--positives-per-group", "7",
      "--items-per-user", "8", "--seed", "9"],
     {"command": "gen-data", "func": "cmd_gen_data", "out": "o", "users": 3, "items": 4,
      "groups": 5, "min_group_size": 2, "max_group_size": 3, "cohorts": 2, "latent_dim": 6,
      "noise": 0.5, "cross_rate": 0.3, "positives_per_group": 7, "items_per_user": 8,
      "seed": 9}),
    (["train", "--data", "d", "--out", "o"],
     {"command": "train", "func": "cmd_train", "data": "d", "out": "o", **NO_CONFIG}),
    (["train", "--data", "d", "--out", "o", *CONFIG_ARGS],
     {"command": "train", "func": "cmd_train", "data": "d", "out": "o", **CONFIG_NS}),
    (["eval", "--data", "d", "--ckpt", "k"],
     {"command": "eval", "func": "cmd_eval", "data": "d", "ckpt": "k", "out": None,
      "detail": False, **NO_CONFIG}),
    (["eval", "--data", "d", "--ckpt", "k", "--out", "o", "--detail", *CONFIG_ARGS],
     {"command": "eval", "func": "cmd_eval", "data": "d", "ckpt": "k", "out": "o",
      "detail": True, **CONFIG_NS}),
    (["ablate", "--data", "d", "--ckpt", "k"],
     {"command": "ablate", "func": "cmd_ablate", "data": "d", "ckpt": "k", "out": None,
      "detail": False, "disable": [], **NO_CONFIG}),
    (["ablate", "--data", "d", "--ckpt", "k", "--out", "o", "--disable", "gpe",
      "--disable", "suppe", "--detail", *CONFIG_ARGS],
     {"command": "ablate", "func": "cmd_ablate", "data": "d", "ckpt": "k", "out": "o",
      "detail": True, "disable": ["gpe", "suppe"], **CONFIG_NS}),
    (["sweep-subsets", "--data", "d", "--out", "o", "--m-values", "1,2"],
     {"command": "sweep-subsets", "func": "cmd_sweep_subsets", "data": "d", "out": "o",
      "m_values": "1,2", **NO_CONFIG}),
    (["sweep-subsets", "--data", "d", "--out", "o", "--m-values", "1,2", *CONFIG_ARGS],
     {"command": "sweep-subsets", "func": "cmd_sweep_subsets", "data": "d", "out": "o",
      "m_values": "1,2", **CONFIG_NS}),
    (["recommend", "--data", "d", "--ckpt", "k", "--group-id", "g"],
     {"command": "recommend", "func": "cmd_recommend", "data": "d", "ckpt": "k",
      "group_id": "g", "k": 10, "item": None, "explain": False, **NO_CONFIG}),
    (["recommend", "--data", "d", "--ckpt", "k", "--group-id", "g", "--k", "3",
      "--item", "i", "--explain", *CONFIG_ARGS],
     {"command": "recommend", "func": "cmd_recommend", "data": "d", "ckpt": "k",
      "group_id": "g", "k": 3, "item": "i", "explain": True, **CONFIG_NS}),
    (["dump-graph", "--data", "d", "--out", "o"],
     {"command": "dump-graph", "func": "cmd_dump_graph", "data": "d", "out": "o",
      **NO_CONFIG}),
    (["dump-graph", "--data", "d", "--out", "o", *CONFIG_ARGS],
     {"command": "dump-graph", "func": "cmd_dump_graph", "data": "d", "out": "o",
      **CONFIG_NS}),
    (["dump-subsets", "--data", "d", "--out", "o"],
     {"command": "dump-subsets", "func": "cmd_dump_subsets", "data": "d", "out": "o",
      **NO_CONFIG}),
    (["dump-subsets", "--data", "d", "--out", "o", *CONFIG_ARGS],
     {"command": "dump-subsets", "func": "cmd_dump_subsets", "data": "d", "out": "o",
      **CONFIG_NS}),
    (["baseline", "--data", "d", "--out", "o"],
     {"command": "baseline", "func": "cmd_baseline", "data": "d", "out": "o",
      "detail": False, **NO_CONFIG}),
    (["baseline", "--data", "d", "--out", "o", "--detail", *CONFIG_ARGS],
     {"command": "baseline", "func": "cmd_baseline", "data": "d", "out": "o",
      "detail": True, **CONFIG_NS}),
]
COMMANDS = list(dict.fromkeys(argv[0] for argv, _ in PARSED))


@pytest.mark.parametrize("argv, expected", PARSED, ids=[" ".join(a[:1] + a[-2:])
                                                         for a, _ in PARSED])
def test_every_command_parses_to_its_golden_namespace(argv, expected):
    parsed = vars(mgam.cli.build_parser().parse_args(argv))
    assert {**parsed, "func": parsed["func"].__name__} == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_help_and_needs_each_required_option(command, capsys):
    """`--help` exits 0; the argv of the command's defaults, less any one
    of its required options, exits 2 naming that option."""
    with pytest.raises(SystemExit) as e:
        mgam.cli.build_parser().parse_args([command, "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: mgam {command}")
    required = next(argv for argv, _ in PARSED if argv[0] == command)
    for i in range(1, len(required), 2):
        with pytest.raises(SystemExit) as e:
            mgam.cli.build_parser().parse_args(required[:i] + required[i + 2:])
        assert e.value.code == 2
        assert f"the following arguments are required: {required[i]}" in \
            capsys.readouterr().err


def test_disable_takes_only_a_granularity(capsys):
    with pytest.raises(SystemExit) as e:
        mgam.cli.build_parser().parse_args(["ablate", "--data", "d", "--ckpt", "k",
                                            "--disable", "fusion"])
    assert e.value.code == 2
    assert "choose from 'subpe', 'gpe', 'suppe'" in capsys.readouterr().err


def test_dump_subsets_format(workspace, tmp_path):
    out = tmp_path / "subsets.tsv"
    rc = main(["dump-subsets", "--data", workspace["data"], "--out", str(out),
               "--set", "num_subsets=2"])
    assert rc == 0
    lines = [l.split("\t") for l in out.read_text().strip().splitlines()]
    assert all(len(l) == 3 for l in lines)
    subset_indices = {int(s) for _, s, _ in lines}
    assert subset_indices <= {0, 1}


def test_baseline_writes_three_models(workspace, tmp_path):
    out = tmp_path / "base"
    rc = main(["baseline", "--data", workspace["data"], "--out", str(out),
               "--set", "epochs=2", "--set", "eval_negatives=20"])
    assert rc == 0
    rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
    models = {r.split(",")[0] for r in rows}
    assert models == {"mf-avg", "mf-lm", "mf-ms"}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("failure, message", [
    (None, "non-finite loss nan at epoch 1, batch 0"),
    ("item_emb", "non-finite gradient for parameter 'item_emb' at epoch 0, batch 0")])
def test_baseline_names_where_training_went_non_finite(workspace, tmp_path, capsys,
                                                        monkeypatch, failure, message):
    """A diverging MF baseline, or a non-finite gradient from the step,
    exits 1 naming the epoch and batch, and writes no metrics."""
    if failure is not None:
        def step(*args):
            raise NonFiniteError(f"non-finite gradient for parameter {failure!r}")
        monkeypatch.setattr(mgam.evaluation, "adam_step", step)
    out = tmp_path / "base"
    rc = main(["baseline", "--data", workspace["data"], "--out", str(out),
               "--set", "epochs=2", "--set", "eval_negatives=20",
               "--set", "learning_rate=1e200"])
    assert rc == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not (out / "metrics.csv").exists()


def test_eval_ablate_and_baseline_report_metrics_alike(workspace, tmp_path, capsys):
    """The three commands share one report writer: the same headers, each
    `metrics.csv` row the mean of its `metrics_detail.csv` rows, added in
    test order, and stdout lines that carry the group count."""
    common = ["--detail", "--set", "ks=1,5,10"]
    runs = {"eval": ["eval", "--data", workspace["data"], "--ckpt", workspace["ckpt"]],
            "ablate": ["ablate", "--data", workspace["data"], "--ckpt", workspace["ckpt"]],
            "baseline": ["baseline", "--data", workspace["data"], "--set", "epochs=2",
                         "--set", "eval_negatives=30"]}
    headers = set()
    for name, args in runs.items():
        out = tmp_path / name
        capsys.readouterr()
        assert main([*args, "--out", str(out), *common]) == 0
        printed = [l for l in capsys.readouterr().out.splitlines() if "HR@" in l]
        summary = (out / "metrics.csv").read_text().splitlines()
        detail = (out / "metrics_detail.csv").read_text().splitlines()
        headers.add((summary[0], detail[0]))
        detail_rows = [r.split(",") for r in detail[1:]]
        assert len(printed) == len(summary) - 1
        for line, row in zip(printed, summary[1:]):
            model, k, hr, ndcg, n_groups, _ = row.split(",")
            assert line == (f"{model}: HR@{k}={float(hr):.4f} NDCG@{k}={float(ndcg):.4f} "
                            f"({n_groups} groups)"), name
            mine = [r for r in detail_rows if r[0] == model and r[3] == k]
            assert len(mine) == int(n_groups) > 0
            hr_sum = ndcg_sum = 0.0
            for r in mine:
                hr_sum += float(r[4])
                ndcg_sum += float(r[5])
            assert (float(hr), float(ndcg)) == (hr_sum / len(mine), ndcg_sum / len(mine))
    assert headers == {("model,K,HR,NDCG,n_groups,seed", "model,group,position,K,HR,NDCG")}


def test_sweep_subsets_one_row_per_m(workspace, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep-subsets", "--data", workspace["data"], "--out", str(out),
               "--m-values", "1,2", "--set", "epochs=1",
               "--set", "embedding_dim=8", "--set", "eval_negatives=20"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("m,hr_5,ndcg_5,hr_10,ndcg_10")
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2"]


def test_sweep_subsets_honours_ablate(workspace, tmp_path, monkeypatch):
    seen = []

    class Stop(Exception):
        pass

    def spy(dataset, split, assignments, graph, cfg, **kwargs):
        seen.append(AblationMask.from_disabled(cfg.ablated()).label())
        raise Stop

    monkeypatch.setattr(mgam.cli, "train", spy)
    with pytest.raises(Stop):
        main(["sweep-subsets", "--data", workspace["data"],
              "--out", str(tmp_path / "sweep"), "--m-values", "2",
              "--set", "ablate=subpe,suppe", "--set", "eval_negatives=30"])
    assert seen == ["mgam-wo-subpe-suppe"]


def test_sweep_subsets_draws_each_test_group_once(workspace, tmp_path, monkeypatch):
    """Every subset count is ranked against one draw of candidates."""
    drawn = []
    real = mgam.evaluation.sample_negatives

    def spy(dataset, group, *args, **kwargs):
        drawn.append(group)
        return real(dataset, group, *args, **kwargs)

    monkeypatch.setattr(mgam.evaluation, "sample_negatives", spy)
    rc = main(["sweep-subsets", "--data", workspace["data"],
               "--out", str(tmp_path / "sweep"), "--m-values", "1,2",
               "--set", "epochs=1", "--set", "embedding_dim=8",
               "--set", "eval_negatives=30"])
    assert rc == 0
    split = split_leave_one_out(load_dataset(workspace["data"]),
                                substream(42, STREAM_DATA))
    assert sorted(drawn) == sorted(g for g, _ in split.test)
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2"]


def test_sweep_subsets_checks_its_candidates_before_training(workspace, tmp_path,
                                                             monkeypatch, capsys):
    """More evaluation negatives than a group has unseen items fails
    before any subset count is trained."""
    trained = []
    monkeypatch.setattr(mgam.cli, "train", lambda *a, **k: trained.append(1))
    rc = main(["sweep-subsets", "--data", workspace["data"],
               "--out", str(tmp_path / "sweep"), "--m-values", "2",
               "--set", "eval_negatives=1000"])
    assert rc == 1
    assert "requested 1000 negatives" in capsys.readouterr().err
    assert trained == []


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_config_error_exits_2(workspace, capsys):
    rc = main(["train", "--data", workspace["data"], "--out",
               str(workspace["root"]) + "/x", "--set", "lr=0.1"])
    assert rc == 2


def test_runtime_error_exits_1(tmp_path, capsys):
    rc = main(["dump-graph", "--data", str(tmp_path), "--out",
               str(tmp_path / "g.tsv")])
    assert rc == 1  # missing data files


def _drop_first_offset(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["tensors"][0]["offset"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _manifest_as_list(ckpt):
    (ckpt / "manifest.json").write_text(json.dumps([1, 2]))


@pytest.mark.parametrize("damage", [_drop_first_offset, _manifest_as_list])
def test_malformed_manifest_is_named(workspace, tmp_path, capsys, damage):
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "bad")
    damage(ckpt)
    rc = main(["eval", "--data", workspace["data"], "--ckpt", str(ckpt),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "manifest.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["eval"], ["ablate"], ["recommend", "--group-id", "0"]],
    ids=["eval", "ablate", "recommend"])
def test_manifest_config_must_be_an_object(workspace, tmp_path, capsys, command):
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "bad")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"] = [1]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    rc = main([command[0], "--data", workspace["data"], "--ckpt", str(ckpt),
               *command[1:]])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "manifest.json" in err and "config" in err
    assert "Traceback" not in err


def test_unwritable_output_is_runtime_error(workspace, tmp_path, capsys):
    rc = main(["dump-graph", "--data", workspace["data"],
               "--out", str(tmp_path / "missing_dir" / "g.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "missing_dir" in err
    assert "Traceback" not in err


def test_gen_data_meta(workspace):
    import pathlib
    meta = json.loads((pathlib.Path(workspace["data"]) / "meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["params"]["n_groups"] == 10


def test_eval_detail_writes_per_group_rows(workspace, tmp_path):
    out = tmp_path / "detail"
    rc = main(["eval", "--data", workspace["data"], "--ckpt", workspace["ckpt"],
               "--out", str(out), "--detail"])
    assert rc == 0
    lines = (out / "metrics_detail.csv").read_text().strip().splitlines()
    assert lines[0] == "model,group,position,K,HR,NDCG"
    assert len(lines) > 1


def test_recommend_explain_specific_item(workspace, capsys):
    rc = main(["recommend", "--data", workspace["data"], "--ckpt",
               workspace["ckpt"], "--group-id", "3", "--item", "12",
               "--explain"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["item"] == "12"
    assert 0.0 < payload["score"] < 1.0


@pytest.fixture(scope="module")
def suppe_ckpt(workspace):
    """A checkpoint of the variant without the superset branch."""
    ckpt = workspace["root"] / "ckpt-wo-suppe"
    assert main(["train", "--data", workspace["data"], "--out", str(ckpt),
                 "--set", "epochs=1", "--set", "batch_size=16", "--set", "embedding_dim=8",
                 "--set", "ablate=suppe"]) == 0
    return str(ckpt)


@pytest.mark.parametrize("variant, extra, builds", [
    ("full", ["--explain"], 1), ("wo-suppe", [], 0), ("wo-suppe", ["--explain"], 0)])
def test_recommend_builds_the_global_stream_once_and_only_when_read(
        workspace, suppe_ckpt, capsys, monkeypatch, variant, extra, builds):
    """`recommend --explain` scores its list and explains its item on one
    build of the global stream, and a checkpoint whose variant never reads
    the superset branch builds none."""
    calls, real = [], mgam.model.compute_global_rows
    for module in (mgam.model, mgam.evaluation, mgam.cli):   # wherever a caller looks it up
        monkeypatch.setattr(module, "compute_global_rows",
                            lambda *a: calls.append(1) or real(*a), raising=False)
    ckpt = workspace["ckpt"] if variant == "full" else suppe_ckpt
    assert main(["recommend", "--data", workspace["data"], "--ckpt", ckpt,
                 "--group-id", "3", *extra]) == 0
    assert capsys.readouterr().out
    assert len(calls) == builds


@pytest.fixture(scope="module")
def subpe_gpe_ckpt(workspace):
    """A checkpoint of the variant with only the superset branch."""
    ckpt = workspace["root"] / "ckpt-wo-subpe-gpe"
    assert main(["train", "--data", workspace["data"], "--out", str(ckpt),
                 "--set", "epochs=1", "--set", "batch_size=16", "--set", "embedding_dim=8",
                 "--set", "ablate=subpe,gpe"]) == 0
    return str(ckpt)


@pytest.mark.parametrize("variant, models", [
    ("ckpt", [("mgam", ""), ("mgam-wo-subpe", "subpe"), ("mgam-wo-gpe", "gpe"),
              ("mgam-wo-suppe", "suppe")]),
    ("suppe_ckpt", [("mgam-wo-suppe", "suppe"), ("mgam-wo-subpe-suppe", "subpe,suppe"),
                    ("mgam-wo-gpe-suppe", "gpe,suppe")]),
    ("subpe_gpe_ckpt", [("mgam-wo-subpe-gpe", "subpe,gpe")])])
def test_ablate_adds_each_removal_to_the_checkpoints_own(workspace, request, tmp_path,
                                                          variant, models):
    """`ablate` scores the full model and each single removal on top of
    the branches the checkpoint was trained without, never a branch it did
    not train: a removal that repeats a mask, or leaves no branch, is
    dropped.  Each model's rows equal the narrowed `eval --set ablate=...`."""
    ckpt = workspace["ckpt"] if variant == "ckpt" else request.getfixturevalue(variant)
    common = ["--data", workspace["data"], "--ckpt", ckpt, "--detail",
              "--set", "eval_negatives=30"]
    assert main(["ablate", *common, "--out", str(tmp_path / "ablate")]) == 0
    rows = (tmp_path / "ablate" / "metrics.csv").read_text().splitlines()[1:]
    assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == [m for m, _ in models]
    for label, ablated in models:
        out = tmp_path / label
        assert main(["eval", *common, "--out", str(out), "--set", f"ablate={ablated}"]) == 0
        for name in ("metrics.csv", "metrics_detail.csv"):
            mine = [r for r in (tmp_path / "ablate" / name).read_text().splitlines()
                    if r.startswith(label + ",")]
            assert mine == (out / name).read_text().splitlines()[1:], (label, name)


def test_ablate_disable_joins_the_checkpoints_removals(workspace, suppe_ckpt,
                                                       subpe_gpe_ckpt, tmp_path, capsys):
    """A `--disable` mask adds the checkpoint's removals; one that then
    removes all three branches is still a usage error."""
    out = tmp_path / "gpe"
    assert main(["ablate", "--data", workspace["data"], "--ckpt", suppe_ckpt,
                 "--out", str(out), "--disable", "gpe", "--set", "eval_negatives=30"]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"mgam-wo-gpe-suppe"}
    capsys.readouterr()
    assert main(["ablate", "--data", workspace["data"], "--ckpt", subpe_gpe_ckpt,
                 "--out", str(tmp_path / "all"), "--disable", "suppe"]) == 2
    assert "all three granularities are ablated" in capsys.readouterr().err
    assert not (tmp_path / "all").exists()


@pytest.mark.parametrize("ablate", ["", "gpe", "subpe,gpe"])
@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=CHECKPOINT_IDS)
def test_checkpoint_commands_refuse_to_restore_an_untrained_branch(
        workspace, suppe_ckpt, tmp_path, capsys, command, ablate):
    """An `ablate` that re-enables a branch the checkpoint was trained
    without would score its initial weights: exit 2 naming both values,
    before any output."""
    rc = _run_on_checkpoint(command, workspace["data"], suppe_ckpt, tmp_path,
                            "--set", f"ablate={ablate}")
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        f"usage error: ablate={ablate!r} re-enables a branch the checkpoint was trained "
        f"without (ablate='suppe'); its weights were never trained\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ckpt", ["trained", "missing"])
def test_recommend_item_without_explain_is_usage_error(workspace, tmp_path, capsys, ckpt):
    """`--item` names the item `--explain` explains.  Without `--explain`
    it is refused, before the checkpoint is read (a missing one is never
    noticed), instead of printing the plain list and ignoring the item."""
    path = workspace["ckpt"] if ckpt == "trained" else str(tmp_path / "no-ckpt")
    rc = main(["recommend", "--data", workspace["data"], "--ckpt", path,
               "--group-id", "3", "--item", "12"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: --item")
    assert captured.out == ""


def test_missing_checkpoint_is_runtime_error(workspace, tmp_path, capsys):
    rc = main(["eval", "--data", workspace["data"], "--ckpt",
               str(tmp_path / "nope")])
    assert rc == 1


@pytest.mark.parametrize("command", [
    ["eval"], ["ablate"], ["recommend", "--group-id", "3"]])
def test_version_1_checkpoint_refused(workspace, tmp_path, capsys, command):
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "v1")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["format_version"] = 1
    # a version-1 manifest still carries the deleted graph.weighted key; the
    # version check must fire before that key reaches the config parser
    manifest["config"]["graph.weighted"] = "false"
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    rc = main([command[0], "--data", workspace["data"], "--ckpt", str(ckpt),
               *command[1:]])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unsupported checkpoint format version 1 (expected 3)" in err
    assert "graph.weighted" not in err


def test_eval_missing_params_file_is_named(workspace, tmp_path, capsys):
    ckpt = shutil.copytree(workspace["ckpt"], tmp_path / "noparams")
    (ckpt / "params.bin").unlink()
    rc = main(["eval", "--data", workspace["data"], "--ckpt", str(ckpt),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read")
    assert "params.bin" in err
    assert "Traceback" not in err


def test_non_utf8_data_file_is_named(workspace, tmp_path, capsys):
    data = shutil.copytree(workspace["data"], tmp_path / "latin1")
    (data / "user_item.tsv").write_bytes(b"caf\xe9\t5\n")
    rc = main(["dump-graph", "--data", str(data), "--out", str(tmp_path / "g.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "user_item.tsv: cannot read (" in err
    assert "Traceback" not in err


def test_non_integer_ks_is_config_error(workspace, tmp_path, capsys):
    with pytest.raises(ConfigError, match="ks must be comma-separated integers, got 'a'"):
        parse_config(None, overrides=["ks=a"])
    rc = main(["dump-graph", "--data", workspace["data"], "--out",
               str(tmp_path / "g.tsv"), "--set", "ks=a"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'a'" in err and "ks" in err
    assert "Traceback" not in err


def test_every_src_statement_runs_in_some_command():
    """`tests/trace_cli.py` runs every command under a line trace: it
    prints nothing, so no statement of `src/mgam` outside its allowlist
    goes unexecuted and no allowlist entry is unused."""
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("trace_cli.py"))],
                          capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
