"""mgam benchmark: run one workload, or all of them, and print the metrics.

    python3 benchmarks/run.py --workload fit --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 \
        [--baseline benchmarks/baseline.json --label <commit>]

One workload runs in this process; `all` runs each workload in a fresh
process, untraced and then traced, prints a summary and can record it as
a baseline.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Lines before it are
the human-readable report.  Work files go to `.bench_work/` at the
repository root and are removed at the end, except the span dump of a
traced run (`.bench_work/trace-<workload>.csv`).

End-to-end metrics, the same on every workload:
  setup_s      process start to the first timed command: interpreter and
               imports plus the median of several set-ups (`gen-data` in a
               child process; on `rank` also training the checkpoint)
  pipeline_s   wall time of one cycle of the workload's timed commands,
               each kind of command at its median over the run
  peak_rss_mb  ru_maxrss of the workload process
The workload-specific metrics (train_pos_per_s, eval_cands_per_s,
recommend_p50_ms, recommend_tail_ms, hr_at_10, ndcg_at_10,
train_loss_final) and op_fail_ratio are printed in the report and kept on
the `REPORT` line; the final JSON holds only metrics every workload has.

The program is imported from `src/` next to this directory; without it
the benchmark exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("fit", "rank", "ingest")
# (name, unit) of the end-to-end metrics every workload reports
END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB")]


def cap_blas_threads() -> int:
    """Limit BLAS pools to the CPUs this process may use; returns the cap."""
    cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return min(int(os.environ[v]) for v in BLAS_VARS)


def environment(blas_cap: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_cap, "machine": platform.machine()}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, blas_cap: int) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from tracing import SHOULD_MOVE, per_layer_metrics

    try:
        report = workloads.run(ROOT, args.workload, args.seed, args.seconds,
                               bool(args.trace), STARTED)
    except workloads.SetupError as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1
    report["environment"] = environment(blas_cap)

    print(f"workload {args.workload}, seed {args.seed}, {report['cycles']} cycles, "
          f"trace {args.trace}, BLAS threads capped at {blas_cap}")
    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        names = list(units)
        print(f"tracing overhead: {report['pipeline_traced_s']:.3f} s traced - "
              f"{report['pipeline_untraced_s']:.3f} s untraced pipeline = "
              f"{report['metrics']['bench.tracing_overhead_s']:.3f} s")
        same = "reproduce" if report["outputs_differ_across_cycles"] == 0 else "DO NOT reproduce"
        print(f"traced cycles {same} the untraced cycle's outputs byte for byte "
              f"(metrics.csv, train_log.csv losses, params.bin, dumps, recommend lists)")
        for layer, moves in SHOULD_MOVE.items():
            print(f"  {layer}.self.s = {report['metrics'][layer + '.self.s']:.4f} s "
                  f"(should move {moves})")
    else:
        units = dict(END_TO_END)
        names = [n for n, _ in END_TO_END]
    for name in names:
        print(f"{name} = {_fmt(report['metrics'][name])} {units[name]}")
    for name, value in report.get("extra", {}).items():
        detail = f" {value[2]}" if len(value) > 2 else ""
        print(f"{name} = {_fmt(value[0])} {value[1]}{detail}")
    print(f"op_fail_ratio = {report['op_fail_ratio']} ratio "
          f"({report['failed']} failed of {report['attempted']} operations)")
    for line in report["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print("REPORT " + json.dumps(report, default=str))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


def run_all(args, blas_cap: int) -> int:
    """Each workload untraced then traced, each in a fresh process."""
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "environment": environment(blas_cap), "workloads": {}}
    ok = True
    for name in NAMES:
        entry = record["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            reports = [json.loads(l[len("REPORT "):]) for l in lines if l.startswith("REPORT ")]
            if proc.returncode != 0 or not reports:
                print(f"{name} trace={trace}: exited {proc.returncode}", file=sys.stderr)
                return 1
            sys.stdout.write("".join(l + "\n" for l in lines[:-2]) + "\n")
            report = reports[0]
            ok = ok and report["failed"] == 0
            key = "per_layer" if trace else "end_to_end"
            entry[key] = dict(report["metrics"])
            if trace:
                entry["tracing_overhead_s"] = report["metrics"]["bench.tracing_overhead_s"]
                entry["pipeline_traced_s"] = report["pipeline_traced_s"]
                entry["pipeline_untraced_s"] = report["pipeline_untraced_s"]
            else:
                for extra, value in report["extra"].items():
                    entry[key][extra] = value[0]
                    if len(value) > 2:
                        entry[extra + "_detail"] = value[2]
                entry["cycle_walls"] = report["cycle_walls"]
                entry["op_fail_ratio"] = report["op_fail_ratio"]
                entry["attempted"] = report["attempted"]
                entry["failed"] = report["failed"]
    print("summary (untraced):")
    for name, entry in record["workloads"].items():
        cells = ", ".join(f"{k}={_fmt(v)}" for k, v in entry["end_to_end"].items())
        print(f"  {name}: {cells}; op_fail_ratio={entry['op_fail_ratio']}; "
              f"tracing overhead {entry['tracing_overhead_s']:.3f} s")
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    print(json.dumps({"correct": ok}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", help="with --workload all: write the results here")
    p.add_argument("--label", default="", help="name of the measured code, e.g. a commit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "mgam" / "cli.py").is_file():
        print(f"mgam sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    if args.workload == "all":
        return run_all(args, blas_cap)
    return run_one(args, blas_cap)


if __name__ == "__main__":
    sys.exit(main())
