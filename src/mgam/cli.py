"""Command-line entry points for reproducible experiments.

Commands: gen-data, train, eval, ablate, sweep-subsets, recommend,
dump-graph, dump-subsets, baseline.  Exit codes: 0 success, 1 runtime
failure, 2 usage/config error.  Every command echoes its fully resolved
configuration and persists it next to its outputs.

`train`, `sweep-subsets`, `baseline` and `dump-subsets` parse the
dataset TSVs (and cluster); `dump-graph` checks all three but interns
only the group table (`load_groups`).  `eval`, `ablate` and `recommend`
read the parsed dataset and subset assignments from the checkpoint
instead; they only hash `--data` and refuse it unless it is the data the
checkpoint was trained on.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .clustering import SubsetTable, cluster_subsets, dump_subsets
from .config import (GRANULARITIES, STREAM_CLUSTER, STREAM_DATA, Config, format_resolved,
                     parse_config, substream, write_resolved)
from .data import (SyntheticParams, dataset_sha256, generate_synthetic,
                   load_dataset, load_groups, split_leave_one_out, write_dataset)
from .errors import MgamError, UsageError
from .evaluation import (draw_candidates, evaluate, make_baseline_scorer,
                         make_mgam_scorer, rank_candidates, report_metrics,
                         train_mf_scorer)
from .graph import build_co_membership, dump_graph
from .model import AblationMask, param_table
from .training import (MANIFEST_FILE, TRAIN_LOG_FILE, load_checkpoint, load_inputs,
                       read_manifest, save_checkpoint, train)


def _resolve_config(args, base=(), echo_to=None) -> Config:
    cfg = parse_config(args.config, overrides=args.overrides, base=base)
    print(format_resolved(cfg), file=echo_to)  # None: sys.stdout at call time
    return cfg


# keys whose value the checkpoint's stored subset assignments already fix
_CLUSTERING_KEYS = ("kmeans_max_iters", "kmeans_restarts")


def _checkpoint_config(args, echo_to=None) -> tuple:
    """(config, manifest, trained_off): the checkpoint's resolved config as
    the base of the command's own, under `--config` and `--set`, and the
    branches the checkpoint was trained without.  A changed clustering key
    is a usage error, and so is an `ablate` that re-enables one of those
    branches, whose weights were never trained."""
    manifest = read_manifest(args.ckpt)
    trained = manifest.get("config", {})
    origin = str(Path(args.ckpt) / MANIFEST_FILE)
    cfg = _resolve_config(args, base=[(origin, k, v) for k, v in trained.items()],
                          echo_to=echo_to)
    for key in _CLUSTERING_KEYS:
        if key in trained and getattr(cfg, key) != trained[key]:
            raise UsageError(f"{key}={getattr(cfg, key)} differs from the checkpoint's "
                             f"{trained[key]}; its subsets are stored, retrain to "
                             f"re-cluster")
    trained_off = Config(ablate=str(trained.get("ablate", ""))).ablated()
    if not set(trained_off) <= set(cfg.ablated()):
        raise UsageError(f"ablate={cfg.ablate!r} re-enables a branch the checkpoint was "
                         f"trained without (ablate={','.join(trained_off)!r}); its weights "
                         f"were never trained")
    return cfg, manifest, trained_off


def _load_trained(args, cfg: Config, manifest: dict) -> tuple:
    """(dataset, assignments, graph, params) of the checkpoint, once
    `--data` is shown to hold the files it was trained on."""
    dataset, assignments = load_inputs(args.ckpt, args.data, manifest)
    graph = build_co_membership(dataset.groups)
    params = load_checkpoint(args.ckpt, manifest, param_table(
        cfg, dataset.n_users, dataset.n_items, dataset.n_groups))
    return dataset, assignments, graph, params


def _cluster(dataset, cfg: Config, m: int) -> SubsetTable:
    return cluster_subsets(dataset, m, max_iters=cfg.kmeans_max_iters,
                           restarts=cfg.kmeans_restarts,
                           seed=substream(cfg.seed, STREAM_CLUSTER))


# ---------------------------------------------------------------------------
# commands

# gen-data's flags: the dest of each, and the SyntheticParams field it sets
_GEN_FIELDS = {"users": "n_users", "items": "n_items", "groups": "n_groups",
               "cohorts": "n_cohorts", "latent_dim": "latent_dim", "noise": "noise",
               "cross_rate": "cross_rate", "positives_per_group": "positives_per_group",
               "items_per_user": "items_per_user"}


def cmd_gen_data(args) -> int:
    params = SyntheticParams(group_size_range=(args.min_group_size, args.max_group_size),
                             **{name: getattr(args, dest) for dest, name in _GEN_FIELDS.items()})
    dataset, _ = generate_synthetic(params, args.seed)
    write_dataset(dataset, args.out,
                  meta={"params": params.as_dict(), "seed": args.seed})
    print(f"wrote {dataset.n_users} users, {dataset.n_items} items, "
          f"{dataset.n_groups} groups to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    data_sha256 = dataset_sha256(args.data)
    dataset = load_dataset(args.data)
    assignments = _cluster(dataset, cfg, cfg.num_subsets)
    graph = build_co_membership(dataset.groups)
    split = split_leave_one_out(dataset, substream(cfg.seed, STREAM_DATA))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def progress(stats):
        print(f"epoch {stats.epoch}: loss={stats.mean_loss:.5f} "
              f"triplet={stats.triplet_mean:.5f} point={stats.point_mean:.5f} "
              f"({stats.wall_seconds:.1f}s)")

    params, _ = train(dataset, split, assignments, graph, cfg,
                      log_path=out / TRAIN_LOG_FILE, progress=progress)
    save_checkpoint(out, params, cfg.resolved(), dataset, assignments, data_sha256)
    write_resolved(cfg, out / "config.resolved")
    print(f"checkpoint written to {out}")
    return 0


def _evaluate_models(cfg: Config, dataset, split, candidates, scorer, labels, out: Path,
                     detail: bool) -> int:
    """Rank the test entries under each of `labels`' models against one
    draw of candidates, made before any model is trained or scored so
    that too many `eval_negatives` fail first; print and write the
    metrics and the config."""
    reports = evaluate(scorer, dataset, split, candidates, labels, cfg.ks_list())
    report_metrics(out, labels, reports, dataset, split, cfg.seed, detail)
    write_resolved(cfg, out / "config.resolved")
    return 0


def _run_eval(args, masks_for) -> int:
    """Score the checkpoint under `masks_for(config, trained_off)`."""
    cfg, manifest, trained_off = _checkpoint_config(args)
    masks = masks_for(cfg, trained_off)
    dataset, assignments, graph, params = _load_trained(args, cfg, manifest)
    split = split_leave_one_out(dataset, substream(cfg.seed, STREAM_DATA))
    candidates = draw_candidates(dataset, split, cfg.eval_negatives, cfg.seed)
    out = Path(args.out if args.out else args.ckpt)
    out.mkdir(parents=True, exist_ok=True)
    scorer = make_mgam_scorer(params, cfg, dataset, assignments, graph, masks)
    return _evaluate_models(cfg, dataset, split, candidates, scorer,
                            [mask.label() for mask in masks], out, args.detail)


def cmd_eval(args) -> int:
    return _run_eval(args, lambda cfg, _: [AblationMask.from_disabled(cfg.ablated())])


def cmd_ablate(args) -> int:
    # one combined removal, or the full model and each single removal, each
    # on top of the checkpoint's own; a default removal that repeats an
    # earlier one's mask or leaves no branch is dropped
    def masks(cfg, trained_off):
        if args.disable:
            return [AblationMask.from_disabled({*trained_off, *args.disable})]
        unions = dict.fromkeys(frozenset({*trained_off, *removal})
                               for removal in [[], ["subpe"], ["gpe"], ["suppe"]])
        return [AblationMask.from_disabled(u) for u in unions if len(u) < len(GRANULARITIES)]
    return _run_eval(args, masks)


def cmd_sweep_subsets(args) -> int:
    cfg = _resolve_config(args)
    mask = AblationMask.from_disabled(cfg.ablated())
    try:
        m_values = [int(m) for m in args.m_values.split(",") if m.strip()]
    except ValueError as e:
        raise UsageError(f"bad --m-values {args.m_values!r}") from e
    if not m_values or any(m < 1 for m in m_values):
        raise UsageError("--m-values must list positive integers")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(args.data)
    split = split_leave_one_out(dataset, substream(cfg.seed, STREAM_DATA))
    graph = build_co_membership(dataset.groups)
    drawn = draw_candidates(dataset, split, cfg.eval_negatives, cfg.seed)
    ks = cfg.ks_list()
    rows = []
    for m in m_values:
        assignments = _cluster(dataset, cfg, m)
        m_cfg = dataclasses.replace(cfg, num_subsets=m)
        params, _ = train(dataset, split, assignments, graph, m_cfg)
        scorer = make_mgam_scorer(params, m_cfg, dataset, assignments, graph, [mask])
        [report] = evaluate(scorer, dataset, split, drawn, [mask.label()], ks)
        rows.append((m, report))
        print(f"M={m}: " + " ".join(
            f"HR@{k}={report.hr[k]:.4f} NDCG@{k}={report.ndcg[k]:.4f}" for k in ks))
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        header = ["m"]
        for k in ks:
            header += [f"hr_{k}", f"ndcg_{k}"]
        w.writerow(header + ["seed"])
        for m, report in rows:
            row = [m]
            for k in ks:
                row += [repr(report.hr[k]), repr(report.ndcg[k])]
            w.writerow(row + [cfg.seed])
    write_resolved(cfg, out / "config.resolved")
    return 0


def cmd_recommend(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    if args.item is not None and not args.explain:
        raise UsageError("--item names the item to explain; it needs --explain")
    # config echo goes to stderr so stdout stays machine-readable
    cfg, manifest, _ = _checkpoint_config(args, echo_to=sys.stderr)
    mask = AblationMask.from_disabled(cfg.ablated())
    dataset, assignments, graph, params = _load_trained(args, cfg, manifest)
    if args.group_id not in dataset.group_index:
        raise UsageError(f"unknown group id {args.group_id!r}")
    if args.item is not None and args.item not in dataset.item_index:
        raise UsageError(f"unknown item id {args.item!r}")
    g = dataset.group_index[args.group_id]
    candidates = np.setdiff1d(np.arange(dataset.n_items), dataset.group_pos[g])
    if not len(candidates):
        raise UsageError(f"group {args.group_id!r} has interacted with every item")
    scorer = make_mgam_scorer(params, cfg, dataset, assignments, graph, [mask])
    items, scores = rank_candidates(scorer, g, candidates, mask.label(), args.group_id)
    top = list(zip(items[:args.k].tolist(), scores[:args.k].tolist()))

    if args.explain:
        v = top[0][0] if args.item is None else dataset.item_index[args.item]
        [result] = scorer.forward([(g, v)])
        payload = _explain_json(result, g, v, dataset, assignments, top)
        payload["config"] = cfg.resolved()
        print(json.dumps(payload, indent=2))
    else:
        for rank, (item, score) in enumerate(top, start=1):
            print(f"{rank}\t{dataset.item_ids[item]}\t{score:.6f}")
    return 0


def _explain_json(result, g, v, dataset, assignments, top) -> dict:
    """The attention weights of instance 0 of a one-instance forward."""
    out = {
        "group": dataset.group_ids[g],
        "item": dataset.item_ids[v],
        "score": float(result.scores.data[0]),
        "fusion_rows": result.branches,
        "fusion_attention": result.fusion_weights[0].tolist(),
        "recommendations": [
            {"item": dataset.item_ids[i], "score": s} for i, s in top
        ],
    }
    if result.group_weights is not None:
        out["group_member_weights"] = {
            dataset.user_ids[u]: w for u, w in
            zip(dataset.groups[g].tolist(), result.group_weights[0].tolist())
        }
    if result.subset_weights is not None:
        subsets = assignments[g].subsets
        out["subset_weights"] = result.subset_weights[0, :len(subsets)].tolist()
        out["subsets"] = [
            {"users": [dataset.user_ids[u] for u in subset],
             "member_weights": weights[:len(subset)].tolist()}
            for subset, weights in zip(subsets, result.member_weights)
        ]
    return out


def cmd_dump_graph(args) -> int:
    cfg = _resolve_config(args)
    group_ids, groups = load_groups(args.data)
    dump_graph(build_co_membership(groups), group_ids, args.out)
    write_resolved(cfg, str(args.out) + ".config")
    print(f"graph written to {args.out}")
    return 0


def cmd_dump_subsets(args) -> int:
    cfg = _resolve_config(args)
    dataset = load_dataset(args.data)
    assignments = _cluster(dataset, cfg, cfg.num_subsets)
    dump_subsets(assignments, dataset, args.out)
    write_resolved(cfg, str(args.out) + ".config")
    print(f"subsets written to {args.out}")
    return 0


def cmd_baseline(args) -> int:
    cfg = _resolve_config(args)
    dataset = load_dataset(args.data)
    split = split_leave_one_out(dataset, substream(cfg.seed, STREAM_DATA))
    candidates = draw_candidates(dataset, split, cfg.eval_negatives, cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    user_vecs, item_vecs = train_mf_scorer(
        dataset, d=cfg.embedding_dim, epochs=cfg.epochs,
        lr=cfg.learning_rate, negatives=max(1, cfg.train_negatives),
        seed=cfg.seed)
    strategies = ("avg", "lm", "ms")
    scorer = make_baseline_scorer(user_vecs, item_vecs, dataset, strategies)
    return _evaluate_models(cfg, dataset, split, candidates, scorer,
                            [f"mf-{strategy}" for strategy in strategies], out, args.detail)


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and `append` actions copy their default before appending.
    An option several commands take is declared once, on a parent parser
    that each of them composes."""
    def options(*parents) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=parents)

    data, config, out, ckpt, detail = (options() for _ in range(5))
    data.add_argument("--data", required=True)
    config.add_argument("--config", help="key = value configuration file")
    config.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one configuration key")
    out.add_argument("--out", required=True)
    ckpt.add_argument("--ckpt", required=True)
    detail.add_argument("--detail", action="store_true",
                        help="also write per-group metrics_detail.csv")
    report = options(detail)
    report.add_argument("--out", default=None, help="default: the checkpoint directory")

    parser = argparse.ArgumentParser(
        prog="mgam",
        description="Multi-granularity attention model for group recommendation")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("gen-data", cmd_gen_data, "write a synthetic planted-cohort dataset", out)
    for dest, name in _GEN_FIELDS.items():
        default = getattr(SyntheticParams, name)
        p.add_argument("--" + dest.replace("_", "-"), default=default,
                       type=float if isinstance(default, float) else int)
    low, high = SyntheticParams.group_size_range
    p.add_argument("--min-group-size", type=int, default=low)
    p.add_argument("--max-group-size", type=int, default=high)
    p.add_argument("--seed", type=int, default=42)

    command("train", cmd_train, "train a model and write a checkpoint", data, out, config)
    command("eval", cmd_eval, "rank held-out positives and write metrics.csv",
            data, ckpt, report, config)
    p = command("ablate", cmd_ablate, "evaluate with granularity branches removed",
                data, ckpt, report, config)
    p.add_argument("--disable", action="append", default=[], choices=GRANULARITIES,
                   help="evaluate one combined mask instead of every single removal")
    p = command("sweep-subsets", cmd_sweep_subsets, "retrain/evaluate across subset counts",
                data, out, config)
    p.add_argument("--m-values", required=True, help="e.g. 1,2,3,5")
    p = command("recommend", cmd_recommend, "print top-K items for a group", data, ckpt, config)
    p.add_argument("--group-id", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--item", default=None, help="item to explain (with --explain)")
    p.add_argument("--explain", action="store_true", help="emit attention weights as JSON")
    command("dump-graph", cmd_dump_graph, "write co-membership edges as TSV", data, out, config)
    command("dump-subsets", cmd_dump_subsets, "write subset assignments as TSV",
            data, out, config)
    command("baseline", cmd_baseline, "train the per-user scorer and evaluate "
            "avg/least-misery/max-satisfaction", data, out, detail, config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (MgamError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
