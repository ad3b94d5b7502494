import contextlib
import io
import json
import shutil

import numpy as np
import pytest

import mgam.cli
from mgam.cli import main
from mgam.config import Config, parse_config, substream
from mgam.data import load_dataset
from mgam.errors import ConfigError
from mgam.training import load_checkpoint


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
    assert manifest["format_version"] == 2
    assert not (ckpt / "adam.bin").exists()
    assert manifest["config"]["embedding_dim"] == 8


def test_eval_writes_metrics(workspace, capsys):
    rc = main(["eval", "--data", workspace["data"], "--ckpt", workspace["ckpt"],
               "--ks", "5,10"])
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
    users = params["user_emb"].data[[dataset.user_index[u] for u in user_ids]]
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
    params, _ = load_checkpoint(workspace["ckpt"])
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

    def spy(*args, mask=None, **kwargs):
        seen.append(mask and mask.label())
        raise Stop

    monkeypatch.setattr(mgam.cli, "train", spy)
    with pytest.raises(Stop):
        main(["sweep-subsets", "--data", workspace["data"],
              "--out", str(tmp_path / "sweep"), "--m-values", "2",
              "--set", "ablate=subpe,suppe"])
    assert seen == ["mgam-wo-subpe-suppe"]


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
    assert "unsupported checkpoint format version 1 (expected 2)" in err
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
