#!/usr/bin/env python3
"""One SHA-256 per corpus over every ``denote`` output, to show that a change
keeps the denotations bit for bit.

    python scripts/denote_digest.py

The sections are the finitary fuzz programs of seeds 0..299 (default
config), the letrec programs of seeds 0..199 at the benchmark's
``LETREC_CFG``, and the four programs of the ``denote-large`` workload.  Each
digest covers every derivation node of every program, sub-derivations
included, in preorder: for each morphism its source and target webs, its
keys in order, and each entry's shape and dense ``ndarray.tobytes``.  Run
it on two checkouts and compare the printed lines; it reads the ``src/`` and
``perfbench/`` next to it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import qlam.adequacy as A  # noqa: E402
import qlam.cpm as C  # noqa: E402
import qlam.denote as D  # noqa: E402
import qlam.parser as P  # noqa: E402
import qlam.syntax as S  # noqa: E402
import qlam.typecheck as T  # noqa: E402
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


def main() -> int:
    for name, derivs in sections():
        h = hashlib.sha256()
        nodes = sum(feed_tree(h, d, cfg) for d, cfg in derivs)
        print(f"{name}: {nodes} nodes {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
