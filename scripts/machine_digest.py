#!/usr/bin/env python3
"""One SHA-256 per corpus over every ``machine`` output, to show that a change
keeps the machine's results bit for bit.

    python scripts/machine_digest.py

The sections are ``evaluate`` on the finitary fuzz programs of seeds 0..299
at 2000 steps, on the letrec programs of seeds 0..199 at 300 steps, and on
the golden machine programs (``MACHINE_PROGRAMS`` of ``tests/test_golden.py``
at its ``MACHINE_STEPS``), then ``sample`` traces of every file of
``programs/`` that parses, at seeds 0..9.  A distribution is hashed as its
outcome keys in order with the ``float.hex`` of each mass, then the blocked,
residual and pruned masses and ``steps_used``; a trace as each step's rule,
``float.hex`` probability, qubit count and raw ``pretty`` of its term, then
the same of its final closure and whether it timed out.  Run it on two
checkouts and compare the printed lines; it reads the ``src/`` and
``tests/`` next to it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import qlam.adequacy as A  # noqa: E402
import qlam.machine as M  # noqa: E402
import qlam.parser as P  # noqa: E402
import qlam.syntax as S  # noqa: E402
from test_golden import MACHINE_PROGRAMS, MACHINE_STEPS  # noqa: E402


def program(name: str) -> S.Term:
    return P.parse_term((ROOT / "programs" / f"{name}.qlam").read_text(encoding="utf-8"))


def feed_distribution(h, dist: M.Distribution) -> None:
    for key, o in dist.outcomes.items():
        h.update(f"{key!r}|{o.prob.hex()}\n".encode())
    masses = (dist.blocked, dist.residual, dist.pruned)
    h.update(f"{'|'.join(float(x).hex() for x in masses)}|{dist.steps_used}\n".encode())


def feed_trace(h, trace: M.Trace) -> None:
    for rule, prob, c in trace.steps:
        h.update(f"{rule}|{prob.hex()}|{c.num_qubits}|{S.pretty(c.term)}\n".encode())
    final = trace.final
    h.update(f"{final.num_qubits}|{S.pretty(final.term)}|{trace.timed_out}\n".encode())


def sections():
    yield "finitary 0..299", feed_distribution, (
        M.evaluate(M.load(A.random_finitary_program(s, 10)), 2000) for s in range(300))
    yield "letrec 0..199", feed_distribution, (
        M.evaluate(M.load(A.random_letrec_program(s)), 300) for s in range(200))
    yield "golden programs", feed_distribution, (
        M.evaluate(M.load(program(n)), MACHINE_STEPS) for n in MACHINE_PROGRAMS)
    names = []
    for path in sorted((ROOT / "programs").glob("*.qlam")):
        try:
            program(path.stem)
        except P.QlamSyntaxError:
            continue
        names.append(path.stem)
    yield f"samples of {len(names)} programs", feed_trace, (
        M.sample(M.load(program(n)), seed) for n in names for seed in range(10))


def main() -> int:
    for name, feed, outputs in sections():
        h = hashlib.sha256()
        count = 0
        for out in outputs:
            feed(h, out)
            count += 1
        print(f"{name}: {count} runs {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
