#!/usr/bin/env python3
"""One SHA-256 per corpus over every ``denote`` output, to show that a change
keeps the denotations bit for bit.

    python scripts/denote_digest.py

The sections are the finitary fuzz programs of seeds 0..299 (default
config), the letrec programs of seeds 0..199 at the benchmark's
``LETREC_CFG``, the four programs of the ``denote-large`` workload, and the
two golden letrecs under a nonempty exponential context
(``LETREC_UNDER_BANG`` of ``tests/test_golden.py``, at its config), and the
second of them at ``bang_max=2``.  The last two are the only sections that
reach ``bierman_tensor`` and the fixpoint under a nonempty exponential
context, and the last the only one with many index-map keys whose source and
target groups differ in order (123 of them); it takes about 0.5 s and 310 MB.
Each digest covers every derivation node of every program, sub-derivations
included, in preorder: for each morphism its source and target webs, its
keys in order, and each entry's shape and dense ``ndarray.tobytes``.  Run it
on two checkouts and compare the printed lines; it reads the ``src/``,
``perfbench/`` and ``tests/`` next to it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import qlam.adequacy as A  # noqa: E402
import qlam.cpm as C  # noqa: E402
import qlam.denote as D  # noqa: E402
import qlam.parser as P  # noqa: E402
import qlam.syntax as S  # noqa: E402
import qlam.typecheck as T  # noqa: E402
from test_golden import LETREC_UNDER_BANG  # noqa: E402
from workloads import LETREC_CFG, DenoteLarge  # noqa: E402


def feed(h, m: C.Morphism) -> None:
    h.update(f"{m.src}|{m.dst}|{len(m.entries)}\n".encode())
    for key, s in m.entries.items():
        e = C._dense(s)
        h.update(f"{key!r}|{e.shape}\n".encode())
        h.update(e.tobytes())


def feed_tree(h, d: T.Derivation, cfg: D.TruncationConfig) -> int:
    """Every node of ``d``, in preorder; the number of nodes."""
    feed(h, D.denote(d, cfg))
    return 1 + sum(feed_tree(h, c, cfg) for c in d.children)


def sections():
    yield "finitary 0..299", ((T.typecheck(A.random_finitary_program(s), S.UNIT),
                               D.DEFAULT_CONFIG) for s in range(300))
    yield "letrec 0..199", ((T.typecheck(A.random_letrec_program(s), S.UNIT), LETREC_CFG)
                            for s in range(200))
    wl = DenoteLarge(ROOT)
    items = sorted((wl.inputs(0, s)[0] for s in range(len(wl.PROGRAMS))), key=lambda i: i[1])
    yield "denote-large", ((T.typecheck(P.parse_term(text), None, ctx), cfg)
                           for _, _, text, ctx, cfg, _ in items)
    yield "letrec under !", ((T.typecheck(P.parse_term(text), None, ctx),
                              D.TruncationConfig(bang_max=k, fix_iters=5000, fix_tol=1e-15))
                             for text, ctx, k in LETREC_UNDER_BANG.values())
    text, ctx, _ = LETREC_UNDER_BANG["letrec-bang-qubit-K1"]
    yield "letrec-bang-qubit at K2", [(T.typecheck(P.parse_term(text), None, ctx),
                                       D.TruncationConfig(bang_max=2, fix_iters=5000,
                                                          fix_tol=1e-15))]


def main() -> int:
    for name, derivs in sections():
        h = hashlib.sha256()
        nodes = sum(feed_tree(h, d, cfg) for d, cfg in derivs)
        print(f"{name}: {nodes} nodes {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
