"""Smoke tests of the benchmark itself.

    python -m pytest perfbench -q

They run every workload on a handful of items, check that failures are
counted, that tracing leaves no wrapper behind, that layer self times add up
to the traced wall time, and that the command line meets BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import qlam.denote as D  # noqa: E402
import qlam.syntax as S  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _session(wl, k=0, n_items=3, trace=False):
    records = []
    spec = {"workload": wl.name, "seed": 7, "session": k, "budget_s": None,
            "n_items": n_items, "trace": trace}
    session.run_session(spec, records.append, workload=wl)
    return {"ready": records[0]["ready"], "rss_mb": 1.0,
            "items": [r for r in records if "item" in r],
            "done": records[-1]["done"]}


@pytest.fixture
def small_qlist(monkeypatch):
    # qlist at L4/K1 takes seconds and gigabytes; L2 keeps its oracle honest
    monkeypatch.setattr(workloads, "QLIST_CFG", D.TruncationConfig(list_max=2, bang_max=1))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_oracle(name, small_qlist):
    cls = workloads.WORKLOADS[name]
    per_round, n_items = run.SHAPES[name]
    ks = range(per_round) if n_items else [0]
    sessions = [_session(cls(ROOT), k) for k in ks]
    items = run._items(sessions)
    assert items and all(it["error"] is None for it in items), items
    assert all(it["ms"] > 0 for it in items)
    e2e = run.end_to_end(sessions)
    assert e2e["error_rate"] == 0.0 and e2e["items_per_s"] > 0
    if name == "denote-large":
        assert {it["desc"]["input"] for it in items} == set(cls.PROGRAMS)


class _WrongEveryOther(workloads.SampleTeleport):
    """Odd items return a wrong final term; item 2 raises MemoryError."""

    def run(self, item):
        if item[0] == 2:
            raise MemoryError("simulated")
        trace = super().run(item)
        if item[0] % 2:
            trace.final = trace.final.__class__(trace.final.state, (), S.ff())
        return trace


def test_wrong_outputs_and_exceptions_are_counted_and_do_not_abort():
    s = _session(_WrongEveryOther(ROOT), n_items=6)
    errors = [it["error"] for it in s["items"]]
    assert len(errors) == 6
    assert [e is None for e in errors] == [True, False, False, False, True, False]
    assert errors[2].startswith("MemoryError")
    e2e = run.end_to_end([s])
    assert e2e["error_rate"] == pytest.approx(4 / 6)


def _installed_wrappers():
    found = []
    owners = [m for m in tracer._qlam_modules()]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    for owner in owners:
        for name, value in vars(owner).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{owner.__name__}.{name}")
    return found


@pytest.mark.parametrize("name", ["sample-teleport", "adequacy-fuzz"])
def test_traced_session_removes_every_wrapper(name):
    originals = {(m, q): tracer._resolve(m, q)[2] for m, q, _ in tracer.LAYERS}
    s = _session(workloads.WORKLOADS[name](ROOT), n_items=2, trace=True)
    assert s["done"]["trace"]["spans"] > 0
    assert _installed_wrappers() == []
    for (m, q), orig in originals.items():
        assert tracer._resolve(m, q)[2] is orig, (m, q)


def test_tracer_patches_import_time_bindings():
    import qlam.adequacy as A
    import qlam.machine as M

    tr = tracer.Tracer()
    tr.install()
    try:
        for fn in (M.free_vars, M.subst, A.denote, M.step):
            assert hasattr(fn, "perfbench_span"), fn
    finally:
        tr.uninstall()
    assert _installed_wrappers() == []


@pytest.mark.parametrize("name", ["sample-teleport", "letrec-sandwich"])
def test_layer_self_times_add_up_to_traced_wall_time(name):
    s = _session(workloads.WORKLOADS[name](ROOT), n_items=3, trace=True)
    summary = s["done"]["trace"]
    wall = sum(it["ms"] for it in s["items"]) / 1e3
    assert sum(summary["self_s"].values()) == pytest.approx(wall, rel=1e-9)
    layers = tracer.layer_metrics([summary], wall, wall)
    self_total = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(layers["trace.wall_s"][0], rel=1e-9)
    assert summary["calls"]["item"] == 3


def test_benchmark_json_names_every_metric():
    assert [m["name"] for m in BENCH["per_layer"]] == [n for n, _ in tracer.metric_names()]
    assert [m["unit"] for m in BENCH["per_layer"]] == [u for _, u in tracer.metric_names()]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == \
        [(n, run.UNITS[n]) for n in run.GATED]
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(run.SHAPES)
    assert sorted(workloads.WORKLOADS) == sorted(run.SHAPES)
    assert run.SHAPES["denote-large"] == (len(workloads.DenoteLarge.PROGRAMS), 1)


def _cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_contracted_last_line(trace):
    p = _cli(ROOT, "--workload", "sample-teleport", "--seed", "3",
             "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    last = json.loads(p.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _cli(tmp_path, "--workload", "sample-teleport", "--seed", "0",
             "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
