"""The benchmark's four workloads: seeded inputs, one timed item, its oracle.

Every oracle is derived here, independently of ``tests/``.  ``inputs`` runs
during a session's set-up (reading and parsing programs, generating terms);
``run`` is the timed item; ``check`` raises :class:`WrongOutput` when the
output is wrong; ``describe`` returns a small per-item descriptor.  Only
``run`` is timed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from pathlib import Path

import numpy as np
from scipy import sparse

import qlam.adequacy as A
import qlam.denote as D
import qlam.machine as M
import qlam.parser as P
import qlam.syntax as S
import qlam.typecheck as T

from tracer import deriv_nodes, entry_nnz

# Inputs of different seeds and sessions come from disjoint index ranges.
STRIDE = 1_000_000
# Terms generated per session during set-up.  Fixed, so set-up does not
# depend on how fast items run; a session that exhausts its pool stops early.
# A power of two, for the bit-reversal walk in ``stratified``.
POOL = 256
TOL = 1e-9


class WrongOutput(Exception):
    """The item completed, but its output failed the oracle."""


def base_index(seed: int, session: int) -> int:
    return (seed * 1000 + session) * STRIDE


def stratified(terms: list) -> list:
    """``(index, term)`` pairs ordered so that every prefix spreads evenly
    over the terms' printed sizes.

    An item's cost grows with its program's size (log-log correlation 0.92
    on the finitary fuzz), and a run covers only a prefix of its pool.
    Walking the size-sorted pool in bit-reversed order makes every prefix a
    stratified sample, so runs on different seeds differ less by chance.
    """
    by_size = sorted(range(len(terms)), key=lambda i: (len(S.pretty(terms[i])), i))
    bits = (len(terms) - 1).bit_length()
    walk = sorted(range(len(terms)), key=lambda r: int(f"{r:0{bits}b}"[::-1], 2))
    return [(by_size[r], terms[by_size[r]]) for r in walk]


def _key(term: S.Term) -> str:
    return hashlib.sha256(S.pretty(term).encode()).hexdigest()[:16]


class _Workload:
    name = ""

    def __init__(self, root: Path):
        self.root = root
        self._nodes = {}

    def program(self, name: str) -> str:
        return (self.root / "programs" / f"{name}.qlam").read_text(encoding="utf-8")

    def nodes(self, key, deriv_fn) -> int:
        if key not in self._nodes:
            self._nodes[key] = deriv_nodes(deriv_fn())
        return self._nodes[key]


class SampleTeleport(_Workload):
    """Seeded samples of the teleport round trip; oracle: the result is tt."""

    name = "sample-teleport"

    def inputs(self, seed, session):
        self.term = P.parse_term(self.program("teleport-roundtrip"))
        base = base_index(seed, session)
        return ((i, base + i) for i in range(STRIDE))

    def run(self, item):
        return M.sample(M.load(self.term), item[1])

    def check(self, item, trace):
        final = S.pretty(trace.final.term)
        if trace.timed_out or final != S.pretty(S.tt()):
            raise WrongOutput(f"sample seed {item[1]} ended in {final}")

    def describe(self, item, trace):
        return {"input": "teleport-roundtrip", "steps": len(trace.steps),
                "nodes": self.nodes("teleport-roundtrip",
                                    lambda: T.typecheck(self.term))}


class AdequacyFuzz(_Workload):
    """Random finitary programs; oracle: PASS and denot equals halt mass."""

    name = "adequacy-fuzz"

    def inputs(self, seed, session):
        base = base_index(seed, session)
        return stratified([A.random_finitary_program(base + i, 10) for i in range(POOL)])

    def run(self, item):
        return A.check_adequacy(item[1])

    def check(self, item, rep):
        if rep.verdict != "PASS" or abs(rep.denot - rep.halt_lower) > 1e-6:
            raise WrongOutput(rep.line())

    def describe(self, item, rep):
        key = _key(item[1])
        return {"input": key,
                "nodes": self.nodes(key, lambda: T.typecheck(item[1], S.UNIT))}


LETREC_CFG = D.TruncationConfig(list_max=2, bang_max=2, fix_iters=2000,
                                fix_tol=1e-12)


class LetrecSandwich(AdequacyFuzz):
    """Unbounded letrec programs; oracle: PASS and the denotation lies in
    [halt_lower, halt_lower + residual] up to 1e-6."""

    name = "letrec-sandwich"

    def inputs(self, seed, session):
        base = base_index(seed, session)
        return stratified([A.random_letrec_program(base + i) for i in range(POOL)])

    def run(self, item):
        return A.check_adequacy(item[1], LETREC_CFG, max_steps=300)

    def check(self, item, rep):
        lo, hi = rep.halt_lower - 1e-6, rep.halt_lower + rep.residual + 1e-6
        if rep.verdict != "PASS" or not lo <= rep.denot <= hi:
            raise WrongOutput(rep.line())


# -- denote-large -------------------------------------------------------------

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
# the correction applied by g for the transmitted bits (s, t)
_CORRECTION = {(0, 0): np.eye(2), (0, 1): _X, (1, 0): _Z, (1, 1): _Z @ _X}
QLIST_CFG = D.TruncationConfig(list_max=4, bang_max=1)


def _vec(m: np.ndarray) -> np.ndarray:
    return m.reshape(-1, 1, order="F")


def _bits(label) -> tuple:
    """The injection indices of a web label, left to right."""
    if label[0] == "inj":
        return (label[1],) + _bits(label[2])
    if label[0] == "pair":
        return _bits(label[1]) + _bits(label[2])
    return ()


def _teleport_output(label) -> np.ndarray:
    """The density matrix one teleport run puts on the (f, g) label.

    f measures (b1, b2) with probability 1/4 each; g applies the correction
    for its bits, so the pair acts as the operator corr(g) corr(f)^* and its
    Choi-style output is 1/4 vec(V) vec(V)^dagger.
    """
    _, f, g = label
    v = _vec(_CORRECTION[_bits(g)] @ _CORRECTION[_bits(f)].conj())
    return 0.25 * (v @ v.conj().T)


def _random_density(rng: random.Random) -> np.ndarray:
    a = rng.uniform(0.2, 0.8)
    d = 1.0 - a
    b = rng.uniform(0.0, 0.9) * math.sqrt(a * d) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return np.array([[a, b], [np.conj(b), d]])


class DenoteLarge(_Workload):
    """Large-web denotations from source text, one cold process per item."""

    name = "denote-large"
    # one session per program and round (run.SHAPES)
    PROGRAMS = ("qlist", "teleport", "teleport-applied", "teleport-roundtrip")

    def inputs(self, seed, session):
        rnd, pos = divmod(session, len(self.PROGRAMS))
        rng = random.Random(f"{seed}:{rnd}")
        name = rng.sample(self.PROGRAMS, len(self.PROGRAMS))[pos]
        text = self.program(name)
        if name == "qlist":
            # qlist applied to a free qubit x, as in ``(qlist) x``
            return [(session, name, f"(\n{text}\n) x", (("x", S.QUBIT),),
                     QLIST_CFG, _random_density(rng))]
        return [(session, name, text, (), D.DEFAULT_CONFIG, None)]

    def run(self, item):
        _, _, text, ctx, cfg, _ = item
        return D.denote(T.typecheck(P.parse_term(text), None, ctx), cfg)

    def check(self, item, mor):
        _, name, _, _, cfg, rho = item
        src = mor.src.labels()[0]
        expect = getattr(self, "_expect_" + name.replace("-", "_"))(mor, cfg, rho)
        if set(expect) != set(mor.dst.labels()):
            raise WrongOutput(f"{name}: {len(mor.dst.labels())} output labels, "
                              f"expected {len(expect)}")
        for label, want in expect.items():
            got = mor.entry(src, label)
            if rho is not None:
                got = got @ _vec(rho)
            err = float(np.max(np.abs(got - want)))
            if err > TOL:
                raise WrongOutput(f"{name}: entry {label!r} off by {err:.3g}")

    @staticmethod
    def _expect_qlist(mor, cfg, rho):
        # on rho = (a b; c d) the length-n component is 2^-n times the
        # 2^n x 2^n matrix with a, b, c, d in its four corners; n = 0 is 0
        out = {}
        for label in mor.dst.labels():
            n = label[1]
            e = np.zeros((2 ** n, 2 ** n), dtype=complex)
            if n > 0:
                e[0, 0], e[0, -1], e[-1, 0], e[-1, -1] = rho.ravel()
                e *= 2.0 ** -n
            out[label] = _vec(e)
        if sorted(l[1] for l in out) != list(range(cfg.list_max + 1)):
            raise WrongOutput(f"qlist lengths {sorted(l[1] for l in out)}")
        return out

    @staticmethod
    def _family():
        """The 16-entry family of one teleport run, keyed by (f, g) label."""
        bit = lambda i: ("inj", i, ("star",))
        star = ("star",)
        out = {}
        for a, b, c, d in itertools.product((0, 1), repeat=4):
            label = ("pair", ("pair", star, ("pair", bit(a), bit(b))),
                     ("pair", ("pair", bit(c), bit(d)), star))
            out[label] = _teleport_output(label)
        return out

    def _expect_teleport_applied(self, mor, cfg, rho):
        return {label: _vec(m) for label, m in self._family().items()}

    def _expect_teleport(self, mor, cfg, rho):
        # the promoted thunk: a multiset of k copies of (star, l) carries the
        # tensor product of the k single-run outputs, for k = 0..bang_max
        fam = sorted(self._family().items())
        out = {}
        for k in range(cfg.bang_max + 1):
            for combo in itertools.combinations_with_replacement(range(len(fam)), k):
                m = np.eye(1)
                for j in combo:
                    m = np.kron(m, fam[j][1])
                ms = tuple(("pair", ("star",), fam[j][0]) for j in combo)
                out[("mset", ms)] = _vec(m)
        return out

    @staticmethod
    def _expect_teleport_roundtrip(mor, cfg, rho):
        # g (f (new tt)) measures to tt with certainty
        return {("inj", 0, ("star",)): np.zeros((1, 1)),
                ("inj", 1, ("star",)): np.ones((1, 1))}

    def describe(self, item, mor):
        _, name, text, ctx, _, _ = item
        entries = list(mor.entries.values())
        return {
            "input": name,
            "src_labels": len(mor.src.labels()),
            "dst_labels": len(mor.dst.labels()),
            "entries": len(entries),
            "nnz": sum(entry_nnz(e) for e in entries),
            "sparse_entries": sum(bool(sparse.issparse(e)) for e in entries),
            "nodes": self.nodes(name, lambda: T.typecheck(P.parse_term(text), None, ctx)),
        }


WORKLOADS = {w.name: w for w in (SampleTeleport, AdequacyFuzz, DenoteLarge,
                                  LetrecSandwich)}
