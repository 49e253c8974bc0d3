"""qlam's benchmark: closed-loop workloads over both semantics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs as rounds of cold child sessions (``session.py``), one at
a time, one client, no extra threads.  A round repeats while the time so far
plus the longest round still fits in ``--seconds``.  With ``--trace 0`` the
last line of stdout holds the end-to-end metrics; with ``--trace 1`` the
sessions are replayed item for item with the layer tracer installed and the
last line holds the per-layer metrics.  Every item is checked against its
oracle; the exit code is 1 if any item failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# Per-workload shape: (cold sessions per round, items per session).  None
# items means each session runs items for --seconds / sessions.  Kept here
# so that this process never imports qlam.
SHAPES = {
    "sample-teleport": (6, None),
    "adequacy-fuzz": (6, None),
    "denote-large": (4, 1),
    "letrec-sandwich": (6, None),
}
# A run ends, its last child killed, this long after it started.
RUN_DEADLINE_S = 170.0
# Address-space cap of each child, so a blow-up is a counted MemoryError
# rather than the machine running out (qlist at L4/K1 peaks near 2.3 GB).
CHILD_AS_BYTES = 4 << 30
# Report item_p90_ms only with at least ten items beyond it.
P90_MIN_ITEMS = 100
# setup_s is the median of this many cold set-ups per run; sessions that run
# no items make up the count.
SETUPS_PER_RUN = 5

# Every end-to-end metric with its unit, in print order.
UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
         "item_p90_ms": "ms", "peak_rss_mb": "MB", "error_rate": "ratio"}
# The metrics on the last line, and so in BENCHMARK.json: never zero or
# missing, and steady from run to run on a shared 2-core machine (README.md).
GATED = ("setup_s", "items_per_s", "peak_rss_mb")


class SetupFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def run_session(spec: dict, deadline: float) -> dict:
    """Run one child session to completion; returns its parsed records."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), json.dumps(spec)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        preexec_fn=_limit_child)
    buf = bytearray()
    fd = proc.stdout.fileno()
    killed = False
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            proc.kill()
            killed = True
            break
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)

    res = {"ready": None, "items": [], "done": None, "rss_mb": usage.ru_maxrss / 1024}
    for line in buf.decode(errors="replace").splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "ready" in rec:
            res["ready"] = rec["ready"] - t_spawn
        elif "item" in rec:
            res["items"].append(rec)
        elif "done" in rec:
            res["done"] = rec["done"]
    if res["ready"] is None:
        raise SetupFailed(f"session {spec['session']} of {spec['workload']} failed "
                          f"before its first item (exit {proc.returncode})")
    if res["done"] is None:
        # the child died inside an item: that item counts as failed
        res["items"].append({"item": None, "ms": None,
                             "error": f"session died (exit {proc.returncode}, "
                                      f"killed={killed})"})
    return res


def run_rounds(workload: str, seed: int, seconds: float, deadline: float):
    """The measured sessions, then set-up-only sessions up to SETUPS_PER_RUN."""
    per_round, n_items = SHAPES[workload]
    budget = None if n_items else seconds / per_round
    sessions = []
    t_start = time.monotonic()
    longest = 0.0
    while not sessions or (time.monotonic() - t_start) + longest <= seconds:
        t_round = time.monotonic()
        for _ in range(per_round):
            spec = {"workload": workload, "seed": seed, "session": len(sessions),
                    "budget_s": budget, "n_items": n_items, "trace": False}
            sessions.append(run_session(spec, deadline))
        longest = max(longest, time.monotonic() - t_round)
    probes = []
    while len(sessions) + len(probes) < SETUPS_PER_RUN:
        spec = {"workload": workload, "seed": seed,
                "session": len(sessions) + len(probes),
                "budget_s": None, "n_items": 0, "trace": False}
        probes.append(run_session(spec, deadline))
    return sessions, probes


def replay_traced(workload: str, seed: int, untraced: list, deadline: float) -> list:
    """The same sessions and items again, with the layer tracer installed."""
    OUT.mkdir(exist_ok=True)
    traced = []
    for k, s in enumerate(untraced):
        spec = {"workload": workload, "seed": seed, "session": k,
                "budget_s": None, "n_items": len(s["items"]), "trace": True,
                "spans_path": str(OUT / f"spans-{workload}-seed{seed}-session{k}.npz")}
        traced.append(run_session(spec, deadline))
    return traced


def _items(sessions):
    return [it for s in sessions for it in s["items"]]


def end_to_end(sessions, probes=()) -> dict:
    items = _items(sessions)
    lat = [it["ms"] for it in items if it["ms"] is not None]
    passed = sum(it["error"] is None for it in items)
    wall_s = sum(lat) / 1e3
    return {
        "setup_s": statistics.median(s["ready"] for s in [*sessions, *probes]),
        "items_per_s": passed / wall_s if wall_s else 0.0,
        "item_p50_ms": statistics.median(lat) if lat else 0.0,
        "item_p90_ms": (statistics.quantiles(lat, n=10)[8]
                        if len(lat) >= P90_MIN_ITEMS else None),
        "peak_rss_mb": max(s["rss_mb"] for s in [*sessions, *probes]),
        "error_rate": (len(items) - passed) / len(items) if items else 0.0,
    }


def descriptors(workload: str, sessions) -> dict:
    items = _items(sessions)
    descs = [it["desc"] for it in items if it.get("desc")]
    inputs = [d["input"] for d in descs]
    distinct = {d["input"]: d for d in descs}
    out = {
        "items": len(items),
        "sessions": len(sessions),
        "pools_exhausted": sum(bool(s["done"] and s["done"]["pool_exhausted"])
                               for s in sessions),
        "distinct_input_share": len(distinct) / len(inputs) if inputs else None,
        "deriv_nodes_mean": (statistics.mean(d["nodes"] for d in distinct.values())
                             if distinct else None),
    }
    if workload == "sample-teleport" and descs:
        out["steps_per_sample"] = sorted({d["steps"] for d in descs})
    if workload == "denote-large":
        out["outputs"] = {name: {k: v for k, v in d.items() if k != "input"}
                          for name, d in distinct.items()}
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qlam" / "__init__.py").is_file():
        print(f"no qlam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        sessions, probes = run_rounds(args.workload, args.seed, args.seconds, deadline)
        traced = (replay_traced(args.workload, args.seed, sessions, deadline)
                  if args.trace else [])
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    from tracer import layer_metrics

    e2e = end_to_end(sessions, probes)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "end_to_end": e2e,
              "inputs": descriptors(args.workload, sessions),
              "environment": environment()}
    for name, unit in UNITS.items():
        print(f"{args.workload} {name} {e2e[name]} {unit}")
    if args.trace:
        wall = lambda ss: sum(it["ms"] or 0.0 for it in _items(ss)) / 1e3
        layers = layer_metrics([s["done"]["trace"] for s in traced if s["done"]],
                               wall(sessions), wall(traced))
        report["per_layer"] = {k: v for k, (v, _) in layers.items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in GATED}
    print(json.dumps({"inputs": report["inputs"], "environment": report["environment"]}))

    all_items = _items(sessions) + _items(traced)
    failed = sum(it["error"] is not None for it in all_items)
    for it in all_items:
        if it["error"] is not None:
            print(f"FAILED item {it['item']}: {it['error']}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(all_items),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
