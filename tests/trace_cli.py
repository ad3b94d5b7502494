"""List the `src/mgam` statements that no CLI command executes.

    python tests/trace_cli.py

Runs every `mgam` command in-process under a line trace (`sys.settrace`),
on the default `gen-data` dataset and on a tiny hand-written one whose
ids are not integers and whose items are few (so the string order of ids
runs, and some groups draw most of their eligible items).  Then it prints
`path:line: statement` for each statement of `src/mgam` that no command
executed and that `ALLOWED` does not name, and `unused: ...` for each
`ALLOWED` entry that names no such statement, and exits 1 if it printed
anything.  A statement in a block that ends in `raise` is an error path
and needs no entry.  The runs write only to a temporary directory.
pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "mgam"

# (file, enclosing function, start of the statement or "*" for all of the
# function's, why no command runs it)
REPAIR = "K-Means' empty-cluster repair: no traced clustering leaves a cluster empty"
ALLOWED = [
    ("clustering.py", "_kmeanspp_init", "idx = int(rng.integers(k))",
     "K-Means' degenerate init: every point already coincides with a centroid"),
    ("clustering.py", "_lloyd", "candidates = ", REPAIR),
    ("clustering.py", "_lloyd", "far = ", REPAIR),
    ("clustering.py", "_lloyd", "counts[new_labels[far]] -= 1", REPAIR),
    ("clustering.py", "_lloyd", "counts[j] += 1", REPAIR),
    ("clustering.py", "_lloyd", "new_labels[far] = j", REPAIR),
    ("clustering.py", "_lloyd", "assigned_d2[far] = 0.0", REPAIR),
    ("clustering.py", "UserFeatures.nbytes", "*",
     "benchmarks/tracing.py reads the features' stored bytes"),
    ("graph.py", "induce_batch_subgraph", "*",
     "benchmarks/tracing.py wraps it through its mgam.model re-export"),
    ("cli.py", "main", "print(f\"error: {e}\"", "error path: exit 1"),
    ("cli.py", "main", "return 1", "error path: exit 1"),
    ("cli.py", "<module>", "sys.exit(main())", "runs only as `python -m mgam.cli`"),
]

TINY = {
    "user_item.tsv": """\
# user <TAB> item
ann\tapple
ann\tbanana
bob\tbanana
bob\tcherry
bob\tdate
cat\tcherry
cat\telder
dan\tfig
dan\tgrape
eve\tgrape
eve\thoney
eve\tapple
fay\tiris
fay\tjuniper
gus\tkiwi
gus\tlemon
hal\tlemon
hal\tapple
""",
    "groups.tsv": """\
g-red\tann,bob,cat
g-blue\tcat,dan,eve,fay
g-green\teve,fay,gus,hal
g-gold\tann,hal,dan
g-grey\tbob,gus
""",
    # g-blue holds 7 of the 12 items, so its 3 training and 4 evaluation
    # negatives take most of its 5 eligible items
    "group_items.tsv": """\
g-red\tapple
g-red\tcherry
g-red\tfig
g-blue\tbanana
g-blue\tdate
g-blue\telder
g-blue\tgrape
g-blue\thoney
g-blue\tiris
g-blue\tkiwi
g-green\tlemon
g-green\tjuniper
g-green\tapple
g-gold\tgrape
g-gold\tcherry
g-gold\tkiwi
g-grey\thoney
g-grey\tdate
g-grey\tfig
""",
}


def _commands(data: Path, work: Path, settings: list, group: str, item: str) -> list:
    """(argv, expected exit code) of every command on one dataset: train
    three ways, then the commands that read the first checkpoint, those
    that read the `ablate=subpe` one, and those that parse the data
    themselves."""
    config = work / "train.conf"
    config.write_text("# trace settings\n\n"
                      + "".join(s.replace("=", " = ", 1) + "\n" for s in settings[1::2]))
    ckpt, data = str(work / "ckpt"), str(data)
    read = ["--data", data, "--ckpt", ckpt]
    subpe = ["--data", data, "--ckpt", str(work / "subpe")]
    runs = [
        ["train", "--data", data, "--out", ckpt, "--config", str(config)],
        ["train", "--data", data, "--out", str(work / "subpe"), *settings,
         "--set", "ablate=subpe", "--set", "train_negatives=3"],
        # positives only: no batch has a triplet
        ["train", "--data", data, "--out", str(work / "positives"), *settings,
         "--set", "train_negatives=0"],
        ["eval", *read, "--out", str(work / "eval"), "--detail"],
        ["ablate", *read, "--out", str(work / "ablate")],
        ["ablate", *read, "--out", str(work / "ablate-gpe"), "--disable", "gpe"],
        ["recommend", *read, "--group-id", group],
        ["recommend", *read, "--group-id", group, "--explain"],
        ["recommend", *read, "--group-id", group, "--explain", "--item", item],
        ["ablate", *subpe, "--out", str(work / "ablate-subpe")],
        ["sweep-subsets", "--data", data, "--out", str(work / "sweep"),
         "--m-values", "1,2", *settings],
        ["dump-graph", "--data", data, "--out", str(work / "graph.tsv")],
        ["dump-subsets", "--data", data, "--out", str(work / "subsets.tsv")],
        ["baseline", "--data", data, "--out", str(work / "baseline"), "--detail",
         *settings],
    ]
    # re-enabling the branch the subpe checkpoint was trained without: exit 2
    return [(argv, 0) for argv in runs] + [(["eval", *subpe, "--set", "ablate="], 2)]


def _run_all(main, tmp: Path) -> None:
    default, tiny = tmp / "default", tmp / "tiny"
    runs = [(["gen-data", "--out", str(default), "--seed", "42"], 0),
            # an explicit --items-per-user, unused further
            (["gen-data", "--out", str(tmp / "small"), "--users", "30", "--items", "40",
              "--groups", "8", "--items-per-user", "5", "--seed", "1"], 0)]
    tiny.mkdir()
    for name, text in TINY.items():
        (tiny / name).write_text(text, encoding="utf-8")
    for data, settings, group, item in (
            (default, ["--set", "epochs=2", "--set", "batch_size=64"], "3", "7"),
            (tiny, ["--set", "epochs=2", "--set", "batch_size=4",
                    "--set", "embedding_dim=8", "--set", "eval_negatives=4",
                    "--set", "ks=1,3"], "g-blue", "lemon")):
        work = tmp / f"{data.name}-runs"
        work.mkdir()
        runs += _commands(data, work, settings, group, item)
    for argv, expected in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
        if code != expected:
            sys.exit(f"`mgam {' '.join(argv)}` exited {code}, not {expected}:\n"
                     f"{out.getvalue()}")


def _statements(path: Path):
    """(enclosing function, first line, last line, in a block that ends in
    `raise`, statement) of each statement in `path`.  The lines are the
    statement's own, without the bodies of a compound statement.
    Docstrings, `global` declarations and `try:` lines (no code of their
    own) are left out."""
    def visit(body, scope):
        raising = isinstance(body[-1], ast.Raise)
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)) \
                    or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if not isinstance(node, ast.Try):
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
                yield scope, first, max(first, last), raising, node
            name = getattr(node, "name", None)
            inner = scope if name is None else (
                name if scope == "<module>" else f"{scope}.{name}")
            for block in [getattr(node, f, []) for f in ("body", "orelse", "finalbody")] \
                    + [h.body for h in getattr(node, "handlers", [])]:
                if block:
                    yield from visit(block, inner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")).body, "<module>")


def _allowance(path: Path, scope: str, text: str) -> int | None:
    """The index of the `ALLOWED` entry naming a statement, if any."""
    for k, (file, where, start, _) in enumerate(ALLOWED):
        if (path.name, scope) == (file, where) and (start == "*" or text.startswith(start)):
            return k
    return None


def main() -> int:
    hits: set = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(calls)
        try:
            from mgam.cli import main as mgam_main
            _run_all(mgam_main, Path(tmp))
        finally:
            sys.settrace(None)

    printed, used = 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for scope, first, last, raising, node in _statements(path):
            if raising or any((str(path), n) in hits for n in range(first, last + 1)):
                continue
            text = lines[node.lineno - 1].strip()
            k = _allowance(path, scope, text)
            if k is None:
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {text}")
                printed += 1
            used.add(k)
    for k, entry in enumerate(ALLOWED):
        if k not in used:
            print(f"unused: {entry}")
            printed += 1
    return 1 if printed else 0


if __name__ == "__main__":
    sys.exit(main())
