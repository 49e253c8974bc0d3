#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs, summarized into one JSON file.

    python scripts/bench_pairs.py --parent HEAD~1 --change HEAD --seed 2101 --out BENCH_1.json
    python scripts/bench_pairs.py --target letrec-sandwich --seed 2101 --out BENCH_2.json

Both commits are extracted with ``git archive`` into new temporary
directories (so no worktree is left registered in the repository, and
neither side reads uncommitted files or a stale bytecode cache), and the
``perfbench/run.py`` of each runs there, with the same seed, the
``run_seconds`` of ``BENCHMARK.json`` and ``--trace 0``.  Pairs alternate
which side runs first.  The workload a change targets (``--target``,
``denote-large`` by default) gets 10 pairs, every other workload 6; then
each side makes one ``--trace 1`` run on the target for the per-layer
metrics.  Pair ``i`` of the ``w``-th workload (in ``BENCHMARK.json`` order)
uses seed ``--seed + 100 * w + i``.

The output holds, per workload and metric, each side's runs, median and
quartiles and the pairs the change won (ties count for neither side, the
direction read from ``BENCHMARK.json``), the failed items, both commits, the
``src/`` line counts (all lines, and code lines: not blank, a comment or a
docstring) and the interpreter and library versions.

Each end-to-end metric of each workload also gets a ``verdict``, by a rule
fixed before any run.  It is "better" when the change wins at least 90% of
the pairs (6 of 6, 9 of 10) and its median beats the parent's by more than
the parent's quartile spread (q3 - q1); "worse" when the parent wins at
least 90% of the pairs and its median beats the change's by more than that
spread; and "unresolved" otherwise, which a drifting host often gives.

It runs one benchmark process at a time; at ``run_seconds`` 20 the whole
run takes about 40 minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET_PAIRS, PAIRS = 10, 6  # pairs on the target workload, and on any other
WIN_SHARE = 0.9  # the share of pairs a verdict other than "unresolved" needs


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``."""
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest)


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src").rglob("*.py")))


def src_code_lines(tree: Path) -> int:
    """The lines of ``src/`` that are not blank, a comment or a docstring."""
    count = 0
    for p in sorted((tree / "src").rglob("*.py")):
        text = p.read_text(encoding="utf-8")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    docs.update(range(first.lineno, first.end_lineno + 1))
        count += sum(1 for i, line in enumerate(text.splitlines(), 1)
                     if line.strip() and not line.lstrip().startswith("#") and i not in docs)
    return count


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its last line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing:\n{proc.stderr}")
    last = json.loads(lines[-1])
    return {"failed": last["failed"], "attempted": last["attempted"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def summary(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def verdict(row: dict, sign: int) -> str:
    """"better", "worse" or "unresolved", by the rule of the module docstring."""
    pairs, parent, change = row["pairs"], row["parent"], row["change"]
    gap = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    if row["change_won"] >= WIN_SHARE * pairs and gap > spread:
        return "better"
    if row["parent_won"] >= WIN_SHARE * pairs and -gap > spread:
        return "worse"
    return "unresolved"


def compare(parent: list, change: list, better: dict, end_to_end) -> dict:
    """Per metric: each side's summary and the pairs each side won, and a
    verdict for the end-to-end metrics."""
    out = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        row = {"parent": summary(p), "change": summary(c), "better": better.get(name)}
        if None not in p + c and name in better:
            sign = 1 if better[name] == "higher" else -1
            row["change_won"] = sum(sign * (y - x) > 0 for x, y in zip(p, c))
            row["parent_won"] = sum(sign * (y - x) < 0 for x, y in zip(p, c))
            row["pairs"] = len(p)
            if name in end_to_end:
                row["verdict"] = verdict(row, sign)
        out[name] = row
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="the commit to compare against")
    ap.add_argument("--change", default="HEAD", help="the commit to measure")
    ap.add_argument("--seed", type=int, required=True, help="the first seed")
    ap.add_argument("--target", default="denote-large",
                    choices=[wl["name"] for wl in bench["workloads"]],
                    help="the workload the change targets: 10 pairs and the traced run")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    import numpy as np
    import scipy

    report = {
        "parent": {"commit": git("rev-parse", args.parent)},
        "change": {"commit": git("rev-parse", args.change)},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "machine": platform.machine()},
        "seconds": seconds,
        "workloads": {},
    }
    # a terminated run still removes its extracted trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = Path(tmp, side)
            extract(report[side]["commit"], trees[side])
            report[side]["src_lines"] = src_lines(trees[side])
            report[side]["src_code_lines"] = src_code_lines(trees[side])
        for w, workload in enumerate(wl["name"] for wl in bench["workloads"]):
            runs = {"parent": [], "change": []}
            seeds = []
            for i in range(TARGET_PAIRS if workload == args.target else PAIRS):
                seed = args.seed + 100 * w + i
                seeds.append(seed)
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run(trees[side], workload, seed, seconds, 0))
                    print(workload, seed, side, runs[side][-1]["metrics"], flush=True)
            report["workloads"][workload] = {
                "seeds": seeds,
                "first": ["parent" if i % 2 == 0 else "change" for i in range(len(seeds))],
                "failed": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()},
                "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in runs.items()},
                "metrics": compare(runs["parent"], runs["change"], better,
                                   {m["name"] for m in bench["end_to_end"]}),
            }
        seed = args.seed + 100 * len(bench["workloads"])
        traced = {side: run(trees[side], args.target, seed, seconds, 1) for side in trees}
        report["trace"] = {"workload": args.target, "seed": seed,
                           **{side: r["metrics"] for side, r in traced.items()}}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
