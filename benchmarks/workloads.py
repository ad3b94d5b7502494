"""The benchmark's workloads: set-up, timed cycles, output checks, metrics.

Each workload is a closed loop with one client: it runs one `mgam` CLI
command (or one `recommend` query) at a time, in-process through
`mgam.cli.main`, and starts the next only after the previous returns.  A
cycle is the workload's fixed command sequence; cycles repeat until the
run's time is used, and every cycle after the first must reproduce the
first cycle's outputs byte for byte.

`gen-data` runs in a child process, so the generator's dense
`n_groups x n_items` utility matrix does not count towards the workload's
peak RSS; its own peak is reported as `data.gen_peak_rss_mb`.

`mgam.cli._resolve_config` binds `echo_to=sys.stdout` when the module is
imported, so `contextlib.redirect_stdout` does not catch the config echo.
Command output is therefore captured at the file-descriptor level, which
keeps the benchmark's own stdout machine-readable.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import mgam.cli
from mgam.clustering import cluster_subsets
from mgam.config import STREAM_CLUSTER, STREAM_DATA, parse_config, substream
from mgam.data import load_dataset, split_leave_one_out

import checks
from stats import median, tail_percentile
from tracing import Tracer, summarize

SETUP_REPS = 3          # set-ups per untraced run; setup_s is their median
CHECK_GROUPS = 5        # test groups re-ranked by the oracle per model row
FIT_EPOCHS = 2
FIT_BATCH = 64          # README quick-start batch size
RANK_CKPT_EPOCHS = 1
RANK_QUERIES = 20       # distinct groups queried per cycle
RANK_K = 10
# large, heavily overlapping groups: K-Means on dense features, TSV
# parsing and the co-membership pair loop dominate
INGEST_GEN = ["--users", "2000", "--items", "6000", "--groups", "8000",
              "--items-per-user", "40", "--cohorts", "8"]


class SetupError(RuntimeError):
    """A set-up command failed, so the workload cannot run."""


@dataclass
class Op:
    """One timed operation: a CLI command or a recommend query."""
    label: str
    kind: str
    wall: float
    ok: bool
    fingerprint: str = ""
    text: str = ""
    info: dict = field(default_factory=dict)


def typical_cycle(cycles) -> float:
    """Wall time of one cycle's commands, each kind at its median over the run.

    A kind is a CLI command name; e.g. a `rank` cycle counts one `ablate`
    and RANK_QUERIES `recommend` queries.
    """
    kinds = Counter(op.kind for op in cycles[0])
    return sum(n * median(op.wall for ops in cycles for op in ops if op.kind == kind)
               for kind, n in kinds.items())


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else Path(p).read_bytes())
    return h.hexdigest()


def _train_log(path) -> list:
    """Per-epoch (epoch, mean_loss, triplet_mean, point_mean), without timings."""
    with open(path, encoding="utf-8", newline="") as f:
        return [(r["epoch"], r["mean_loss"], r["triplet_mean"], r["point_mean"])
                for r in csv.DictReader(f)]


def _train_log_problems(path) -> list:
    log = _train_log(path)
    if len(log) != FIT_EPOCHS or not all(math.isfinite(float(r[1])) for r in log):
        return [f"train_log.csv has {len(log)} rows or a non-finite loss"]
    return []


def _metric_row(metrics_csv, model: str, k: int) -> dict:
    with open(metrics_csv, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            if row["model"] == model and int(row["K"]) == k:
                return row
    raise KeyError(f"{metrics_csv}: no row for {model} K={k}")


class Runner:
    """Runs operations, captures their output and records failures."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list = []

    def fail(self, label: str, message: str) -> None:
        self.failures.append((label, message))

    def cli(self, argv) -> Op:
        """Run `mgam <argv>` in-process with stdout and stderr captured."""
        argv = [str(a) for a in argv]
        label = f"#{self.attempted} {argv[0]}"
        self.attempted += 1
        capture = self.work / "capture.txt"
        error = None
        sys.stdout.flush()
        sys.stderr.flush()
        saved = os.dup(1), os.dup(2)
        try:
            with open(capture, "wb") as f:
                os.dup2(f.fileno(), 1)
                os.dup2(f.fileno(), 2)
                t0 = time.perf_counter()
                try:
                    if self.tracer is None:
                        code = mgam.cli.main(argv)
                    else:
                        self.tracer.run_id = self.attempted
                        with self.tracer.span("cli." + argv[0].replace("-", "_")):
                            code = mgam.cli.main(argv)
                except SystemExit as e:
                    code = e.code
                except Exception:  # any crash is a failed operation
                    code, error = None, traceback.format_exc()
                wall = time.perf_counter() - t0
                sys.stdout.flush()
                sys.stderr.flush()
        finally:
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])
        text = capture.read_text(encoding="utf-8", errors="replace")
        ok = code == 0 and error is None
        if not ok:
            self.fail(label, error or f"exit code {code}: {text[-400:]}")
        return Op(label=label, kind=argv[0], wall=wall, ok=ok, text=text)

    def gen_data(self, out: Path, extra, seed: int) -> float:
        """`mgam gen-data` in a child process; returns its wall time."""
        self.attempted += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mgam.cli", "gen-data", "--out", str(out),
             "--seed", str(seed), *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"gen-data exited {proc.returncode}: {proc.stdout[-400:]}")
        return wall

    def verify(self, op: Op, check, *args) -> None:
        """Run an output check on a successful operation; its problems,
        or a crash on malformed output, fail the operation."""
        if not op.ok:
            return
        try:
            problems = check(*args)
        except Exception as e:  # noqa: BLE001 - a corrupt output may break the parser
            problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            op.ok = False
            self.fail(op.label, "; ".join(problems[:3]))

    def fingerprint(self, op: Op, digest) -> None:
        """Record `digest()` of an operation's outputs, compared across cycles."""
        if not op.ok:
            return
        try:
            op.fingerprint = digest()
        except (OSError, KeyError, ValueError) as e:
            op.ok = False
            self.fail(op.label, f"output missing: {e}")

    def setup_cli(self, argv) -> Op:
        op = self.cli(argv)
        if not op.ok:
            raise SetupError(f"{op.label} failed: {self.failures[-1][1]}")
        return op


class Workload:
    """Base class: subclasses define set-up, one cycle, checks and report."""

    name = ""

    def __init__(self, runner: Runner, seed: int):
        self.s = runner
        self.seed = seed
        self.work = runner.work
        self.data = self.work / "data"
        self._contexts: dict = {}

    def cycle_dir(self, c: int) -> Path:
        d = self.work / f"c{c}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int) -> list:
        raise NotImplementedError

    def check(self, ops: list) -> None:
        """Full output checks on the first cycle's operations."""
        raise NotImplementedError

    def report(self, cycles: list) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        return {}

    # shared helpers for the model workloads

    def _config(self, *overrides):
        return parse_config(None, overrides=[f"seed={self.seed}", *overrides])

    def _context(self, cfg, ckpt: Path):
        """(dataset, split, oracle, check groups) for a checkpoint, rebuilt
        from the data files with the command's own configuration."""
        if ckpt not in self._contexts:
            self._contexts[ckpt] = self._build_context(cfg, ckpt)
        return self._contexts[ckpt]

    def _build_context(self, cfg, ckpt: Path):
        dataset = load_dataset(self.data)
        split = split_leave_one_out(dataset, substream(cfg.seed, STREAM_DATA))
        assignments = cluster_subsets(
            dataset, cfg.num_subsets, max_iters=cfg.kmeans_max_iters,
            restarts=cfg.kmeans_restarts, seed=substream(cfg.seed, STREAM_CLUSTER))
        oracle = checks.Oracle(
            checks.load_reference_forward(self.s.root), dataset, assignments,
            checks.read_params(ckpt), cfg.embedding_dim, cfg.num_subsets,
            cfg.gcn_layers)
        groups = sorted(g for g, _ in split.test)
        check_groups = random.Random(self.seed).sample(groups, min(CHECK_GROUPS, len(groups)))
        return dataset, split, oracle, check_groups

    def _ranking_problems(self, out: Path, cfg, ckpt: Path) -> list:
        _, split, oracle, check_groups = self._context(cfg, ckpt)
        return checks.check_ranking(out / "metrics.csv", out / "metrics_detail.csv",
                                    oracle, split, cfg.seed, cfg.eval_negatives,
                                    check_groups)


class Fit(Workload):
    """Default planted dataset: `train` for a fixed epoch count, then `eval --detail`."""

    name = "fit"

    def _train_args(self):
        return [f"epochs={FIT_EPOCHS}", f"batch_size={FIT_BATCH}"]

    def setup(self) -> None:
        self.s.gen_data(self.data, [], self.seed)

    def cycle(self, c: int) -> list:
        ckpt = self.cycle_dir(c) / "ckpt"
        sets = [x for a in self._train_args() + [f"seed={self.seed}"] for x in ("--set", a)]
        train = self.s.cli(["train", "--data", self.data, "--out", ckpt, *sets])
        ev = self.s.cli(["eval", "--data", self.data, "--ckpt", ckpt, "--detail"])
        train.info["dir"] = ev.info["dir"] = ckpt
        # train_log.csv also holds per-epoch wall times, which are left out
        self.s.fingerprint(train, lambda: _digest(
            ckpt / "params.bin", repr(_train_log(ckpt / "train_log.csv")).encode()))
        self.s.fingerprint(ev, lambda: _digest(ckpt / "metrics.csv",
                                               ckpt / "metrics_detail.csv"))
        return [train, ev]

    def check(self, ops: list) -> None:
        train, ev = ops
        ckpt = train.info["dir"]
        cfg = self._config(*self._train_args())
        self.s.verify(train, _train_log_problems, ckpt / "train_log.csv")
        self.s.verify(ev, self._ranking_problems, ckpt, cfg, ckpt)

    def report(self, cycles: list) -> dict:
        train, ev = cycles[0]
        ckpt = train.info["dir"]
        cfg = self._config(*self._train_args())
        _, split, _, _ = self._context(cfg, ckpt)
        positives = len(split.train)
        candidates = len(split.test) * (cfg.eval_negatives + 1)
        row = _metric_row(ckpt / "metrics.csv", "mgam", 10)
        return {
            "train_pos_per_s": (positives * FIT_EPOCHS / median(c[0].wall for c in cycles),
                                "positives/s"),
            "eval_cands_per_s": (candidates / median(c[1].wall for c in cycles),
                                 "candidates/s"),
            "hr_at_10": (float(row["HR"]), "ratio"),
            "ndcg_at_10": (float(row["NDCG"]), "ratio"),
            "train_loss_final": (float(_train_log(ckpt / "train_log.csv")[-1][1]), "loss"),
        }


class Rank(Workload):
    """Default planted dataset and a 1-epoch checkpoint made in set-up:
    `ablate --detail`, then `recommend` for distinct groups, one at a time."""

    name = "rank"

    def _train_args(self):
        return [f"epochs={RANK_CKPT_EPOCHS}", f"batch_size={FIT_BATCH}"]

    def setup(self) -> None:
        self.s.gen_data(self.data, [], self.seed)
        self.ckpt = self.work / "ckpt"
        sets = [x for a in self._train_args() + [f"seed={self.seed}"] for x in ("--set", a)]
        self.s.setup_cli(["train", "--data", self.data, "--out", self.ckpt, *sets])
        gids = sorted(checks.read_groups(self.data / "groups.tsv"), key=int)
        self.queries = random.Random(self.seed).sample(gids, min(RANK_QUERIES, len(gids)))

    def cycle(self, c: int) -> list:
        out = self.cycle_dir(c) / "ablate"
        ablate = self.s.cli(["ablate", "--data", self.data, "--ckpt", self.ckpt,
                             "--out", out, "--detail"])
        ablate.info["dir"] = out
        self.s.fingerprint(ablate, lambda: _digest(out / "metrics.csv",
                                                   out / "metrics_detail.csv"))
        ops = [ablate]
        for gid in self.queries:
            op = self.s.cli(["recommend", "--data", self.data, "--ckpt", self.ckpt,
                             "--group-id", gid, "--k", RANK_K])
            op.info["group"] = gid
            self.s.fingerprint(op, lambda: _digest(op.text.encode()))
            ops.append(op)
        return ops

    def check(self, ops: list) -> None:
        cfg = self._config(*self._train_args())
        self.s.verify(ops[0], self._ranking_problems, ops[0].info["dir"], cfg, self.ckpt)
        for i, op in enumerate(ops[1:]):
            self.s.verify(op, self._recommend_problems, op, cfg, i == 0)

    def _recommend_problems(self, op: Op, cfg, full: bool) -> list:
        dataset, _, oracle, _ = self._context(cfg, self.ckpt)
        return checks.check_recommend(op.text, oracle, dataset.group_index[op.info["group"]],
                                      RANK_K, full=full)

    def report(self, cycles: list) -> dict:
        cfg = self._config(*self._train_args())
        _, split, _, _ = self._context(cfg, self.ckpt)
        candidates = len(split.test) * (cfg.eval_negatives + 1) * 4  # 4 masks
        latencies = [op.wall * 1000.0 for ops in cycles for op in ops[1:]]
        out = {
            "eval_cands_per_s": (candidates / median(c[0].wall for c in cycles),
                                 "candidates/s"),
            "recommend_p50_ms": (median(latencies), "ms"),
        }
        tail = tail_percentile(latencies)
        if tail is not None:
            pct, value, n = tail
            out["recommend_tail_ms"] = (value, "ms", {"percentile": pct, "samples": n})
        row = _metric_row(cycles[0][0].info["dir"] / "metrics.csv", "mgam", 10)
        out["hr_at_10"] = (float(row["HR"]), "ratio")
        out["ndcg_at_10"] = (float(row["NDCG"]), "ratio")
        out["train_loss_final"] = (float(_train_log(self.ckpt / "train_log.csv")[-1][1]),
                                   "loss")
        return out


class Ingest(Workload):
    """Large overlapping planted dataset: `dump-subsets`, then `dump-graph`."""

    name = "ingest"

    def setup(self) -> None:
        self.s.gen_data(self.data, INGEST_GEN, self.seed)

    def cycle(self, c: int) -> list:
        d = self.cycle_dir(c)
        subsets = self.s.cli(["dump-subsets", "--data", self.data, "--out", d / "subsets.tsv"])
        graph = self.s.cli(["dump-graph", "--data", self.data, "--out", d / "graph.tsv"])
        subsets.info["file"] = d / "subsets.tsv"
        graph.info["file"] = d / "graph.tsv"
        for op in (subsets, graph):
            self.s.fingerprint(op, lambda: _digest(op.info["file"]))
        return [subsets, graph]

    def check(self, ops: list) -> None:
        subsets, graph = ops
        groups = self.data / "groups.tsv"
        self.s.verify(subsets, checks.check_subsets, subsets.info["file"], groups,
                      parse_config().num_subsets)
        self.s.verify(graph, checks.check_graph, graph.info["file"], groups)


WORKLOADS = {w.name: w for w in (Fit, Rank, Ingest)}


def _process_age() -> float | None:
    """Seconds since this process started, from /proc (None elsewhere)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except OSError:
        return None
    return uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")


def run(root: Path, name: str, seed: int, seconds: float, trace: bool,
        started: float) -> dict:
    """Run one workload in this process and return its report."""
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(root, work, name, seed, seconds, trace, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(root, work, name, seed, seconds, trace, started):
    age = _process_age()
    start_s = age if age is not None else time.perf_counter() - started
    runner = Runner(root, work)
    wl = WORKLOADS[name](runner, seed)

    setup_walls = []
    for _ in range(1 if trace else SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_walls.append(time.perf_counter() - t0)
    gen_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # a traced run alternates untraced and traced cycles, starting untraced
    tracer = Tracer() if trace else None
    cycles, walls, traced = [], [], []
    while True:
        traced.append(tracer is not None and len(cycles) % 2 == 1)
        if traced[-1]:
            tracer.install()
            runner.tracer = tracer
        try:
            ops = wl.cycle(len(cycles))
        finally:
            if traced[-1]:
                tracer.uninstall()
                runner.tracer = None
        cycles.append(ops)
        walls.append(sum(op.wall for op in ops))
        if len(cycles) > 1:
            shutil.rmtree(work / f"c{len(cycles) - 1}", ignore_errors=True)
        if sum(walls) + median(walls) > seconds and len(cycles) >= (2 if trace else 1):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl.check(cycles[0])
    # every later cycle, traced or not, must repeat cycle 0 exactly
    mismatches = 0
    for c, ops in enumerate(cycles[1:], start=1):
        for first, op in zip(cycles[0], ops):
            if not op.ok:
                continue
            if not first.ok:
                runner.fail(op.label, f"cycle {c}: the same command failed in cycle 0")
            elif op.fingerprint != first.fingerprint:
                mismatches += 1
                runner.fail(op.label, f"cycle {c}: output differs from cycle 0")

    report = {
        "workload": name, "seed": seed, "cycles": len(cycles), "cycle_walls": walls,
        "attempted": runner.attempted, "failed": len({l for l, _ in runner.failures}),
        "failures": [f"{l}: {m}" for l, m in runner.failures],
        "metrics": {}, "outputs_differ_across_cycles": mismatches,
    }
    metrics = report["metrics"]
    report["op_fail_ratio"] = report["failed"] / report["attempted"]
    if trace:
        traced_walls = [w for w, t in zip(walls, traced) if t]
        untraced_walls = [w for w, t in zip(walls, traced) if not t]
        values = summarize(tracer, len(traced_walls))
        values["data.gen_peak_rss_mb"] = gen_rss_mb
        values["bench.tracing_overhead_s"] = median(traced_walls) - median(untraced_walls)
        for key, value in values.items():
            metrics[key] = value
        report["pipeline_untraced_s"] = median(untraced_walls)
        report["pipeline_traced_s"] = median(traced_walls)
        tracer.write(root / ".bench_work" / f"trace-{name}.csv")
    else:
        metrics["setup_s"] = start_s + median(setup_walls)
        metrics["pipeline_s"] = typical_cycle(cycles)
        metrics["peak_rss_mb"] = peak_rss_mb
        report["extra"] = {}
        if not runner.failures:
            for key, value in wl.report(cycles).items():
                report["extra"][key] = value
    return report
