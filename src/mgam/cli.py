"""Command-line entry points for reproducible experiments.

Commands: gen-data, train, eval, ablate, sweep-subsets, recommend,
dump-graph, dump-subsets, baseline.  Exit codes: 0 success, 1 runtime
failure, 2 usage/config error.  Every command echoes its fully resolved
configuration and persists it next to its outputs.

`train`, `sweep-subsets`, `baseline` and the dump commands parse the
dataset TSVs (and cluster).  `eval`, `ablate` and `recommend` read the
parsed dataset and subset assignments from the checkpoint instead; they
only hash `--data` and refuse it unless it is the data the checkpoint was
trained on.
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

from . import autodiff as ad
from .clustering import SubsetTable, cluster_subsets, dump_subsets
from .config import (STREAM_CLUSTER, STREAM_DATA, Config, format_resolved,
                     parse_config, substream, write_resolved)
from .data import (SyntheticParams, dataset_sha256, generate_synthetic,
                   load_dataset, split_leave_one_out, write_dataset)
from .errors import MgamError, UsageError
from .evaluation import (draw_candidates, evaluate, make_baseline_scorer,
                         make_mgam_scorer, rank_candidates, train_mf_scorer,
                         write_metrics_csv, write_metrics_detail_csv,
                         METRICS_FILE, METRICS_DETAIL_FILE)
from .graph import build_co_membership, dump_graph
from .model import AblationMask, forward_batch
from .training import (expected_param_shapes, load_checkpoint, load_inputs,
                       read_manifest, save_checkpoint, train, TRAIN_LOG_FILE)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one configuration key")


def _resolve_config(args, base=(), echo_to=None) -> Config:
    cfg = parse_config(args.config, overrides=list(base) + list(args.overrides))
    print(format_resolved(cfg), file=echo_to)  # None: sys.stdout at call time
    return cfg


# keys whose value the checkpoint's stored subset assignments already fix
_CLUSTERING_KEYS = ("kmeans_max_iters", "kmeans_restarts")


def _checkpoint_config(args, echo_to=None) -> tuple:
    """(config, manifest): the checkpoint's resolved config as the base of
    the command's own; a changed clustering key is a usage error."""
    manifest = read_manifest(args.ckpt)
    trained = manifest.get("config", {})
    cfg = _resolve_config(args, base=[f"{k}={v}" for k, v in trained.items()],
                          echo_to=echo_to)
    for key in _CLUSTERING_KEYS:
        if key in trained and getattr(cfg, key) != trained[key]:
            raise UsageError(f"{key}={getattr(cfg, key)} differs from the checkpoint's "
                             f"{trained[key]}; its subsets are stored, retrain to "
                             f"re-cluster")
    return cfg, manifest


def _load_trained(args, cfg: Config, manifest: dict) -> tuple:
    """(dataset, assignments, graph, params) of the checkpoint, once
    `--data` is shown to hold the files it was trained on."""
    dataset, assignments = load_inputs(args.ckpt, args.data, manifest)
    graph = build_co_membership(dataset.groups)
    expected = expected_param_shapes(cfg, dataset.n_users, dataset.n_items,
                                     dataset.n_groups)
    params, _ = load_checkpoint(args.ckpt, expected)
    return dataset, assignments, graph, params


def _cluster(dataset, cfg: Config, m: int) -> SubsetTable:
    return cluster_subsets(dataset, m, max_iters=cfg.kmeans_max_iters,
                           restarts=cfg.kmeans_restarts,
                           seed=substream(cfg.seed, STREAM_CLUSTER))


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args) -> int:
    params = SyntheticParams(
        n_users=args.users, n_items=args.items, n_groups=args.groups,
        group_size_range=(args.min_group_size, args.max_group_size),
        n_cohorts=args.cohorts, latent_dim=args.latent_dim, noise=args.noise,
        positives_per_group=args.positives_per_group,
        cross_rate=args.cross_rate, items_per_user=args.items_per_user)
    dataset, _ = generate_synthetic(params, args.seed)
    write_dataset(dataset, args.out,
                  meta={"params": params.as_dict(), "seed": args.seed})
    print(f"wrote {dataset.n_users} users, {dataset.n_items} items, "
          f"{dataset.n_groups} groups to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    mask = AblationMask.from_disabled(cfg.ablated())
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

    params, _ = train(dataset, split, assignments, graph, cfg, mask=mask,
                      log_path=out / TRAIN_LOG_FILE, progress=progress)
    save_checkpoint(out, params, cfg.resolved(), cfg.seed, dataset, assignments,
                    data_sha256)
    write_resolved(cfg, out / "config.resolved")
    print(f"checkpoint written to {out}")
    return 0


def _run_eval(args, masks_from_cfg) -> int:
    cfg, manifest = _checkpoint_config(args)
    masks = masks_from_cfg(cfg)
    dataset, assignments, graph, params = _load_trained(args, cfg, manifest)
    split = split_leave_one_out(dataset, substream(cfg.seed, STREAM_DATA))
    out = Path(args.out if args.out else args.ckpt)
    out.mkdir(parents=True, exist_ok=True)
    drawn = draw_candidates(dataset, split, cfg.eval_negatives, cfg.seed)
    reports = []
    for mask in masks:
        scorer = make_mgam_scorer(params, cfg, dataset, assignments, graph,
                                  mask=mask)
        report = evaluate(scorer, dataset, split, cfg.eval_negatives,
                          cfg.ks_list(), cfg.seed, candidates=drawn)
        reports.append((mask.label(), report))
        for k in report.ks:
            print(f"{mask.label()}: HR@{k}={report.hr[k]:.4f} "
                  f"NDCG@{k}={report.ndcg[k]:.4f} ({report.n_groups} groups)")
    write_metrics_csv(out / METRICS_FILE, reports, cfg.seed)
    if getattr(args, "detail", False):
        write_metrics_detail_csv(out / METRICS_DETAIL_FILE, reports, dataset)
    write_resolved(cfg, out / "config.resolved")
    return 0


def cmd_eval(args) -> int:
    return _run_eval(
        args, lambda cfg: [AblationMask.from_disabled(cfg.ablated())])


def cmd_ablate(args) -> int:
    if args.disable:
        masks = [AblationMask.from_disabled(args.disable)]
    else:
        masks = [AblationMask(),
                 AblationMask(use_subpe=False),
                 AblationMask(use_gpe=False),
                 AblationMask(use_suppe=False)]
    return _run_eval(args, lambda cfg: masks)


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
        params, _ = train(dataset, split, assignments, graph, m_cfg, mask=mask)
        scorer = make_mgam_scorer(params, m_cfg, dataset, assignments, graph,
                                  mask=mask)
        report = evaluate(scorer, dataset, split, cfg.eval_negatives, ks, cfg.seed,
                          candidates=drawn)
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
    # config echo goes to stderr so stdout stays machine-readable
    cfg, manifest = _checkpoint_config(args, echo_to=sys.stderr)
    mask = AblationMask.from_disabled(cfg.ablated())
    dataset, assignments, graph, params = _load_trained(args, cfg, manifest)
    if args.group_id not in dataset.group_index:
        raise UsageError(f"unknown group id {args.group_id!r}")
    g = dataset.group_index[args.group_id]
    scorer = make_mgam_scorer(params, cfg, dataset, assignments, graph, mask=mask)
    candidates = np.setdiff1d(np.arange(dataset.n_items), dataset.group_pos[g])
    if not len(candidates):
        raise UsageError(f"group {args.group_id!r} has interacted with every item")
    ranked = rank_candidates(scorer, g, candidates, group_id=args.group_id)
    top = list(zip(ranked.items, ranked.scores))[:args.k]

    if args.explain:
        if args.item is not None:
            if args.item not in dataset.item_index:
                raise UsageError(f"unknown item id {args.item!r}")
            v = dataset.item_index[args.item]
        else:
            v = top[0][0]
        with ad.no_grad():
            result = forward_batch(params, cfg, dataset, assignments, graph,
                                   [(g, v)], mask=mask, isolated=True)
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
    dataset = load_dataset(args.data)
    graph = build_co_membership(dataset.groups)
    dump_graph(graph, dataset.group_ids, args.out)
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    user_vecs, item_vecs = train_mf_scorer(
        dataset, d=cfg.embedding_dim, epochs=cfg.epochs,
        lr=cfg.learning_rate, negatives=max(1, cfg.train_negatives),
        seed=cfg.seed)
    drawn = draw_candidates(dataset, split, cfg.eval_negatives, cfg.seed)
    reports = []
    for strategy in ("avg", "lm", "ms"):
        scorer = make_baseline_scorer(user_vecs, item_vecs, dataset, strategy)
        report = evaluate(scorer, dataset, split, cfg.eval_negatives,
                          cfg.ks_list(), cfg.seed, candidates=drawn)
        reports.append((f"mf-{strategy}", report))
        for k in report.ks:
            print(f"mf-{strategy}: HR@{k}={report.hr[k]:.4f} "
                  f"NDCG@{k}={report.ndcg[k]:.4f}")
    write_metrics_csv(out / METRICS_FILE, reports, cfg.seed)
    if args.detail:
        write_metrics_detail_csv(out / METRICS_DETAIL_FILE, reports, dataset)
    write_resolved(cfg, out / "config.resolved")
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and `append` actions copy their default before appending."""
    parser = argparse.ArgumentParser(
        prog="mgam",
        description="Multi-granularity attention model for group recommendation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic planted-cohort dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=500)
    p.add_argument("--groups", type=int, default=60)
    p.add_argument("--min-group-size", type=int, default=4)
    p.add_argument("--max-group-size", type=int, default=8)
    p.add_argument("--cohorts", type=int, default=3)
    p.add_argument("--latent-dim", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--cross-rate", type=float, default=0.2)
    p.add_argument("--positives-per-group", type=int, default=10)
    p.add_argument("--items-per-user", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank held-out positives and write metrics.csv")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", default=None, help="default: the checkpoint directory")
    p.add_argument("--detail", action="store_true",
                   help="also write per-group metrics_detail.csv")
    _add_config_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="evaluate with granularity branches removed")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--disable", action="append", default=[],
                   choices=["subpe", "gpe", "suppe"],
                   help="evaluate one combined mask instead of every single removal")
    p.add_argument("--detail", action="store_true")
    _add_config_args(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-subsets", help="retrain/evaluate across subset counts")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--m-values", required=True, help="e.g. 1,2,3,5")
    _add_config_args(p)
    p.set_defaults(func=cmd_sweep_subsets)

    p = sub.add_parser("recommend", help="print top-K items for a group")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--group-id", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--item", default=None, help="item to explain (with --explain)")
    p.add_argument("--explain", action="store_true",
                   help="emit attention weights as JSON")
    _add_config_args(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("dump-graph", help="write co-membership edges as TSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_dump_graph)

    p = sub.add_parser("dump-subsets", help="write subset assignments as TSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_dump_subsets)

    p = sub.add_parser("baseline", help="train the per-user scorer and evaluate "
                                        "avg/least-misery/max-satisfaction")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detail", action="store_true")
    _add_config_args(p)
    p.set_defaults(func=cmd_baseline)

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
