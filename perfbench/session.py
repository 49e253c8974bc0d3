"""One cold benchmark session: set up, run items, report one JSON line each.

Started by ``run.py`` as ``python3 perfbench/session.py '<spec json>'``, the
way a ``qlam`` command starts.  It prints ``{"ready": t}`` (a
``time.monotonic`` reading) once its inputs are ready, one ``{"item": ...}``
line per item, and ``{"done": ...}`` at the end.  A failing item is
reported and the session goes on.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_session(spec: dict, emit, workload=None) -> None:
    """Run one session as ``spec`` describes, passing each record to ``emit``.

    ``spec`` keys: workload, seed, session, budget_s (None: no time limit),
    n_items (None: no count limit), trace (bool), spans_path (None: keep
    spans in memory only).
    """
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = workload or WORKLOADS[spec["workload"]](ROOT)
    inputs = wl.inputs(spec["seed"], spec["session"])
    tracer = Tracer() if spec["trace"] else None
    emit({"ready": time.monotonic()})

    budget, n_items = spec["budget_s"], spec["n_items"]
    exhausted = True
    shown_tracebacks = 0
    if tracer:
        tracer.install()
    try:
        t_loop = time.perf_counter()
        for k, item in enumerate(inputs):
            if (n_items is not None and k >= n_items) or (
                    budget is not None and time.perf_counter() - t_loop >= budget):
                exhausted = False
                break
            record = {"item": item[0]}
            out = None
            try:
                if tracer:
                    tracer.begin_item(item[0])
                    try:
                        out = wl.run(item)
                    finally:
                        record["ms"] = tracer.end_item() * 1e3
                else:
                    t0 = time.perf_counter()
                    try:
                        out = wl.run(item)
                    finally:
                        record["ms"] = (time.perf_counter() - t0) * 1e3
                wl.check(item, out)
                record["desc"] = wl.describe(item, out)
                record["error"] = None
            except Exception as exc:  # a failing item is counted, never fatal
                record["error"] = f"{type(exc).__name__}: {exc}"[:300]
                if shown_tracebacks < 3:
                    traceback.print_exc(file=sys.stderr)
                    shown_tracebacks += 1
            del out
            emit(record)
    finally:
        if tracer:
            tracer.uninstall()
    done = {"pool_exhausted": exhausted and budget is not None}
    if tracer:
        done["trace"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    emit({"done": done})


def main() -> int:
    spec = json.loads(sys.argv[1])
    import qlam

    src = (ROOT / "src").resolve()
    if Path(qlam.__file__).resolve().parent.parent != src:
        print(f"qlam was imported from {qlam.__file__}, not from {src}", file=sys.stderr)
        return 2

    def emit(record):
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    run_session(spec, emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
