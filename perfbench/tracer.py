"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the qlam modules from the benchmark's
own files; it edits nothing under ``src/``.  Every wrapped call made inside
an item is counted, and the outermost call of each wrapped function opens a
span (name, start, end, parent span, item id).  Spans are kept in memory and
written out when the session ends.  A span's self time is its duration minus
the part covered by its child spans; each item is a root span whose self time
is the untraced remainder, so the self times of one item add up to its wall
time.

``machine`` binds ``free_vars``/``subst`` and ``adequacy`` binds ``denote``
at import, so a function is patched under every name that holds it in any
loaded ``qlam`` module.  Methods are patched on their class (``then`` calls
``compose`` through the class).
"""

from __future__ import annotations

import hashlib
import importlib
import re
import sys
from collections import Counter
from time import perf_counter

import numpy as np
from scipy import sparse

# (module, function or Class.method, span name).  The span name is the
# per-layer metric prefix; several functions may share one.
LAYERS = (
    ("qlam.parser", "parse_term", "parser"),
    ("qlam.parser", "parse_type", "parser"),
    ("qlam.typecheck", "typecheck", "typecheck"),
    ("qlam.denote", "denote", "denote"),
    ("qlam.denote", "route", "denote.route"),
    ("qlam.denote", "fixpoint_iterate", "denote.fixpoint"),
    ("qlam.cpm", "structural", "cpm.structural"),
    ("qlam.cpm", "Morphism.tensor", "cpm.tensor"),
    ("qlam.cpm", "Morphism.compose", "cpm.compose"),
    ("qlam.cpm", "curry", "cpm.curry"),
    ("qlam.cpm", "eval_mor", "cpm.curry"),
    ("qlam.cpm", "eta", "cpm.curry"),
    ("qlam.cpm", "epsilon", "cpm.curry"),
    ("qlam.cpm", "weakening", "cpm.bang"),
    ("qlam.cpm", "dereliction", "cpm.bang"),
    ("qlam.cpm", "contraction", "cpm.bang"),
    ("qlam.cpm", "digging", "cpm.bang"),
    ("qlam.cpm", "promotion", "cpm.bang"),
    ("qlam.cpm", "bierman_unit", "cpm.bang"),
    ("qlam.cpm", "bierman_tensor", "cpm.bang"),
    ("qlam.cpm", "Morphism.loewner_leq", "cpm.order"),
    ("qlam.cpm", "Morphism.sup_distance", "cpm.order"),
    ("qlam.cpm", "identity", "cpm.other"),
    ("qlam.cpm", "zero", "cpm.other"),
    ("qlam.cpm", "injection", "cpm.other"),
    ("qlam.cpm", "cotuple", "cpm.other"),
    ("qlam.cpm", "distribute_left", "cpm.other"),
    ("qlam.cpm", "swap", "cpm.other"),
    ("qlam.cpm", "assoc_left", "cpm.other"),
    ("qlam.cpm", "assoc_right", "cpm.other"),
    ("qlam.cpm", "lunit_elim", "cpm.other"),
    ("qlam.cpm", "lunit_intro", "cpm.other"),
    ("qlam.cpm", "list_roll", "cpm.other"),
    ("qlam.cpm", "list_unroll", "cpm.other"),
    ("qlam.cpm", "bang_obj", "cpm.other"),
    ("qlam.cpm", "list_obj", "cpm.other"),
    ("qlam.cpm", "Morphism.entry", "cpm.other"),
    ("qlam.cpm", "Morphism.apply", "cpm.other"),
    ("qlam.machine", "load", "machine.load"),
    ("qlam.machine", "step", "machine.step"),
    ("qlam.machine", "sample", "machine.sample"),
    ("qlam.machine", "evaluate", "machine.evaluate"),
    ("qlam.machine", "canonical_key", "machine.canonical_key"),
    ("qlam.syntax", "free_vars", "syntax.free_vars"),
    ("qlam.syntax", "subst", "syntax.subst"),
    ("qlam.qstate", "measure", "qstate"),
    ("qlam.qstate", "apply_unitary", "qstate"),
    ("qlam.qstate", "append_qubit", "qstate"),
    ("qlam.adequacy", "check_adequacy", "adequacy"),
    ("qlam.adequacy", "scalar_denotation", "adequacy"),
    ("qlam.adequacy", "is_finitary", "adequacy"),
)

ITEM = "item"
# The distinct-key and distinct-closure shares cover the first KEY_ITEMS
# items of each session, so they describe the workload rather than how many
# items a run reached (and keep a traced run's bookkeeping bounded).
KEY_ITEMS = 50
SPAN_NAMES = (ITEM,) + tuple(dict.fromkeys(name for _, _, name in LAYERS))
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# Per-layer metrics that are not a span's calls or self time.  The order
# here is the order in which ``run.py`` prints them.
EXTRA_METRICS = (
    ("typecheck.deriv_nodes", "count"),
    ("denote.distinct_key_share", "ratio"),
    ("denote.fixpoint.order_checks", "count"),
    ("cpm.cache_hit_share", "ratio"),
    ("cpm.out_entries", "count"),
    ("cpm.out_nnz", "count"),
    ("cpm.sparse_entry_share", "ratio"),
    ("machine.distinct_closure_share", "ratio"),
)


def _resolve(modname: str, qual: str):
    mod = importlib.import_module(modname)
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, qual, getattr(mod, qual)


def _qlam_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "qlam" or n.startswith("qlam.")) and m is not None]


def deriv_nodes(d) -> int:
    return 1 + sum(deriv_nodes(c) for c in d.children)


def entry_nnz(e) -> int:
    """Stored nonzeros of a morphism entry, sparse or dense."""
    return e.nnz if sparse.issparse(e) else int(np.count_nonzero(e))


class Tracer:
    """Records spans and counts around the qlam layers while installed.

    Calls made while no item is open pass straight through, so oracle checks
    and the bookkeeping done between items are neither counted nor timed.
    """

    def __init__(self):
        self.active = False
        self.item = -1
        self.items_done = 0
        self.self_s = Counter()
        self._state = {}  # function id -> [open depth, calls]
        self._spans = {}  # function id -> span name
        self._stack = []
        self._patches = []
        # span columns
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.items, self._child = [], [], []
        # objects captured inside an item, digested after it ends
        self._derivs_in, self._closures, self._derivs_out = [], [], []
        self._morphisms = []
        self._cache_fns = []
        self.extra = Counter()
        self._denote_keys, self._closure_keys = set(), set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qlam.cpm as C

        self._cache_fns = [v for v in vars(C).values() if hasattr(v, "cache_info")]
        modules = _qlam_modules()
        hooks = {
            "qlam.denote.denote": (self._on_denote, self._after_denote),
            "qlam.machine.step": (self._on_step, None),
            "qlam.typecheck.typecheck": (None, self._derivs_out.append),
            "qlam.cpm.Morphism.loewner_leq": (self._on_order_check, None),
        }
        for modname, qual, span in LAYERS:
            owner, attr, orig = _resolve(modname, qual)
            fid = f"{modname}.{qual}"
            wrapper = self._wrap(orig, span, fid, *hooks.get(fid, (None, None)))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, orig))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, fn, span, fid, on_call, on_return):
        name_id = _NAME_ID[span]
        tr = self
        state = self._state[fid] = [0, 0]  # [open depth, calls]

        def wrapper(*args, **kwargs):
            if state[0]:  # a recursive call: counted, no span of its own
                state[1] += 1
                if on_call is not None:
                    on_call(args, kwargs)
                return fn(*args, **kwargs)
            if not tr.active:
                return fn(*args, **kwargs)
            state[1] += 1
            if on_call is not None:
                on_call(args, kwargs)
            state[0] = 1
            idx = tr._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(idx)
                state[0] = 0
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = span
        self._spans[fid] = span
        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self._child.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        self.ends[idx] = end
        dur = end - self.starts[idx]
        self.self_s[SPAN_NAMES[self.names[idx]]] += dur - self._child[idx]
        parent = self.parents[idx]
        if parent >= 0:
            self._child[parent] += dur

    def begin_item(self, item_id: int) -> None:
        self._hits_misses = self._cache_totals()
        self.item = item_id
        self.items_done += 1
        self._root = self._open(_NAME_ID[ITEM])
        self.active = True

    def end_item(self) -> float:
        """Close the item's root span; returns its wall time in seconds."""
        self.active = False
        self._close(self._root)
        hits, misses = self._cache_totals()
        self.extra["cache_hits"] += hits - self._hits_misses[0]
        self.extra["cache_lookups"] += (hits + misses) - sum(self._hits_misses)
        self._digest_item()
        return self.ends[self._root] - self.starts[self._root]

    def _cache_totals(self):
        hits = misses = 0
        for fn in self._cache_fns:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    # -- hooks (inside the item) and their digestion (after it) ---------------

    def _on_denote(self, args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        self._derivs_in.append((args[0], cfg))

    def _after_denote(self, mor):
        self._morphisms.append(mor)

    def _on_step(self, args, kwargs):
        self._closures.append(args[0])

    def _on_order_check(self, args, kwargs):
        if self._state["qlam.denote.fixpoint_iterate"][0]:
            self.extra["order_checks"] += 1

    def _digest_item(self) -> None:
        import qlam.syntax as S

        if self.items_done <= KEY_ITEMS:
            canon = {}
            for d, cfg in self._derivs_in:
                t = canon.get(id(d.term))
                if t is None:
                    t = canon[id(d.term)] = S.pretty(S.alpha_canonical(d.term))
                ctx = ",".join(f"{x}:{ty}" for x, ty in d.ctx)
                self._denote_keys.add(_digest(d.rule, t, ctx, d.type, cfg))
            self.extra["denote_calls"] += len(self._derivs_in)
            for c in self._closures:
                self._closure_keys.add(_digest(*_closure_key(c)))
            self.extra["stepped_closures"] += len(self._closures)
        for d in self._derivs_out:
            self.extra["deriv_nodes"] += deriv_nodes(d)
        for mor in self._morphisms:
            for e in mor.entries.values():
                self.extra["out_entries"] += 1
                self.extra["out_sparse"] += sparse.issparse(e)
                self.extra["out_nnz"] += entry_nnz(e)
            self.extra["out_morphisms"] += 1
        self._derivs_in.clear()
        self._closures.clear()
        self._derivs_out.clear()
        self._morphisms.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts that add across sessions; ``run.py`` turns them into metrics."""
        calls = Counter({ITEM: self.items_done})
        for fid, (_, n) in self._state.items():
            calls[self._spans[fid]] += n
        ex = dict(self.extra)
        ex["distinct_denote_keys"] = len(self._denote_keys)
        ex["distinct_closures"] = len(self._closure_keys)
        return {
            "calls": {n: calls[n] for n in SPAN_NAMES},
            "self_s": {n: self.self_s[n] for n in SPAN_NAMES},
            "extra": ex,
            "spans": len(self.starts),
        }

    def write_spans(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.array(self.names, dtype=np.int16),
            start=np.array(self.starts) - t0,
            end=np.array(self.ends) - t0,
            parent=np.array(self.parents, dtype=np.int64),
            item=np.array(self.items, dtype=np.int64),
        )


def _closure_key(c) -> tuple:
    """A closure up to bound and free variable names and global phase.

    Same identification as ``machine.canonical_key`` at a tenth of its cost:
    free variables are renamed by first occurrence in the printed term.
    """
    import qlam.syntax as S

    text = S.pretty(S.alpha_canonical(c.term))
    link = dict(c.linking)
    order = {}
    if link:
        names = sorted(link, key=len, reverse=True)
        pat = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
        text = pat.sub(lambda m: order.setdefault(m.group(1), f"_q{len(order)}"), text)
    links = tuple(sorted((order.get(x, x), i) for x, i in link.items()))
    amps = c.state.amps
    ref = amps[np.argmax(np.abs(amps))]
    if abs(ref) > 1e-12:
        amps = amps * (abs(ref) / ref)
    return text, links, tuple(np.round(amps, 9).tolist())


def _digest(*parts) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=12).hexdigest()


def layer_metrics(summaries, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Per-layer metrics from the traced sessions' summaries, by name."""
    calls, self_s, ex = Counter(), Counter(), Counter()
    for s in summaries:
        calls.update(s["calls"])
        self_s.update(s["self_s"])
        ex.update(s["extra"])

    def share(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SPAN_NAMES:
        if name == ITEM:
            continue
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    morphs = ex["out_morphisms"]
    values = {
        "typecheck.deriv_nodes": ex["deriv_nodes"],
        "denote.distinct_key_share": share(ex["distinct_denote_keys"], ex["denote_calls"]),
        "denote.fixpoint.order_checks": ex["order_checks"],
        "cpm.cache_hit_share": share(ex["cache_hits"], ex["cache_lookups"]),
        "cpm.out_entries": share(ex["out_entries"], morphs),
        "cpm.out_nnz": share(ex["out_nnz"], morphs),
        "cpm.sparse_entry_share": share(ex["out_sparse"], ex["out_entries"]),
        "machine.distinct_closure_share": share(ex["distinct_closures"], ex["stepped_closures"]),
    }
    for name, unit in EXTRA_METRICS:
        out[name] = (values[name], unit)
    out["item.self_s"] = (self_s[ITEM], "s")
    out["trace.items"] = (calls[ITEM], "count")
    out["trace.spans"] = (sum(s["spans"] for s in summaries), "count")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead"] = (share(traced_wall_s, untraced_wall_s), "ratio")
    return out


def metric_names():
    """Every per-layer metric name with its unit, in print order."""
    return [(name, unit) for name, (_, unit) in layer_metrics([], 0.0, 0.0).items()]
