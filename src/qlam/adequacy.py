"""Cross-validation of the denotational and operational semantics.

The central check compares, for a closed unit-type program, the scalar
denotation against the operational halting probability.  For finitary
programs (bounded recursion only) every reduction sequence is finite, so the
two numbers must agree up to float noise.  For programs with unbounded
recursion the machine only yields a halting lower bound plus an unresolved
residual, and the truncated denotation must land in that sandwich.

The module also provides the generator/consumer term families indexed by
type (a closed producer of type ``1 -o A`` and a closed eraser ``A -o 1``
for every type), biased coins built from a rotation gate, and seeded random
program generators used by the fuzz harness.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import machine as M
from . import syntax as S
from . import typecheck as T
from .denote import DEFAULT_CONFIG, TruncationConfig, denote

TOL = 1e-6  # how far the denotation may miss the machine's halting mass


class AdequacyError(Exception):
    pass


class NotUnitType(AdequacyError):
    pass


class NotClosed(AdequacyError):
    pass


UNIT_VAL = S.UnitVal()

# the fair coin: allocate |0>, rotate by H, measure
COIN = S.App(S.Meas(), S.App(S.STANDARD_GATES["H"], S.App(S.New(), S.ff())))


def biased_coin(rho: float) -> S.Term:
    """A closed term of type bit with P(ff) = rho and P(tt) = 1 - rho.

    Measures a fresh qubit rotated by the real rotation with
    cos(phi)^2 = rho, so the denotation is the pair (rho, 1 - rho).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be a probability, got {rho}")
    phi = math.acos(math.sqrt(rho))
    v = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
    g = S.gate(f"Rot[{rho:.12g}]", v)
    return S.App(S.Meas(), S.App(g, S.App(S.New(), S.ff())))


# ---------------------------------------------------------------------------
# Generator / consumer families


def generate_term(a: S.Type) -> S.Term:
    """A closed term of type ``1 -o a`` producing a canonical inhabitant."""
    match a:
        case S.QubitT():
            return S.lam_unit(S.App(S.New(), S.ff()))
        case S.UnitT():
            return S.lam_unit(UNIT_VAL)
        case S.LinArrow(ta, tb):
            return S.lam_unit(
                S.Abs("x", ta,
                      S.seq(S.App(consume_term(ta), S.Var("x")),
                            S.App(generate_term(tb), UNIT_VAL))))
        case S.BangArrow(ta, tb):
            inner = S.Abs("x", ta,
                          S.App(S.App(generate_term(S.LinArrow(ta, tb)), UNIT_VAL),
                                S.Var("x")))
            return S.lam_unit(S.Ascribe(inner, a))
        case S.TensorT(ta, tb):
            return S.lam_unit(S.Pair(S.App(generate_term(ta), UNIT_VAL),
                                     S.App(generate_term(tb), UNIT_VAL)))
        case S.SumT(ta, tb):
            return S.lam_unit(
                S.if_term(COIN,
                          S.InR(S.App(generate_term(tb), UNIT_VAL), ann=a),
                          S.InL(S.App(generate_term(ta), UNIT_VAL), ann=a)))
        case S.ListT(ta):
            body = S.seq(
                S.Var("u"),
                S.if_term(COIN,
                          S.cons(S.App(generate_term(ta), UNIT_VAL),
                                 S.App(S.Var("f"), UNIT_VAL)),
                          S.nil()))
            return S.LetRec("f", S.UNIT, a, "u", body, S.Var("f"))
    raise AdequacyError(f"no generator for type {a}")


def consume_term(a: S.Type) -> S.Term:
    """A closed term of type ``a -o 1`` erasing its argument."""
    match a:
        case S.QubitT():
            return S.Abs("x", a,
                         S.if_term(S.App(S.Meas(), S.Var("x")), UNIT_VAL, UNIT_VAL))
        case S.UnitT():
            return S.lam_unit(UNIT_VAL)
        case S.LinArrow(ta, tb):
            return S.Abs("f", a,
                         S.App(consume_term(tb),
                               S.App(S.Var("f"), S.App(generate_term(ta), UNIT_VAL))))
        case S.BangArrow(ta, tb):
            # coin-guarded recursion: each round flips a fair coin and either
            # stops or erases one derelicted copy and recurses
            body = S.if_term(COIN,
                             UNIT_VAL,
                             S.seq(S.App(consume_term(S.LinArrow(ta, tb)), S.Var("f")),
                                   S.App(S.Var("g"), S.Var("f"))))
            return S.LetRec("g", a, S.UNIT, "f", body, S.Var("g"))
        case S.TensorT(ta, tb):
            return S.Abs("x", a,
                         S.LetPair("z1", ta, "z2", tb, S.Var("x"),
                                   S.seq(S.App(consume_term(ta), S.Var("z1")),
                                         S.App(consume_term(tb), S.Var("z2")))))
        case S.SumT(ta, tb):
            return S.Abs("x", a,
                         S.Match(S.Var("x"),
                                 "z1", ta, S.App(consume_term(ta), S.Var("z1")),
                                 "z2", tb, S.App(consume_term(tb), S.Var("z2"))))
        case S.ListT(ta):
            body = S.Match(S.App(S.Split(ta), S.Var("x")),
                           "z1", S.UNIT, S.Var("z1"),
                           "z2", S.TensorT(ta, a),
                           S.LetPair("y1", ta, "y2", a, S.Var("z2"),
                                     S.seq(S.App(consume_term(ta), S.Var("y1")),
                                           S.App(S.Var("f"), S.Var("y2")))))
            return S.LetRec("f", a, S.UNIT, "x", body, S.Var("f"))
    raise AdequacyError(f"no consumer for type {a}")


# ---------------------------------------------------------------------------
# The adequacy check


@dataclass(frozen=True)
class AdequacyReport:
    source_hash: str
    denot: float
    halt_lower: float
    residual: float
    finitary: bool
    verdict: str  # "PASS" | "FAIL"

    def line(self) -> str:
        return (f"{self.source_hash} denot={self.denot:.9f} "
                f"halt_lower={self.halt_lower:.9f} residual={self.residual:.9f} "
                f"finitary={self.finitary} {self.verdict}")


def is_finitary(m: S.Term) -> bool:
    """True iff every letrec in the term carries a finite unfolding bound."""
    if isinstance(m, S.LetRec) and m.bound is None:
        return False
    return all(is_finitary(t) for t in S.subterms(m))


def scalar_denotation(m: S.Term, cfg: TruncationConfig = DEFAULT_CONFIG) -> float:
    """The number ``[[M]](1)`` for a closed unit-type term.

    When the check against unit fails, the program's own type tells why: a
    program with no type raises its own ``TypingError``, and one of another
    type raises ``NotUnitType`` naming that type.
    """
    if S.free_vars(m):
        raise NotClosed(f"free variables {sorted(S.free_vars(m))}")
    try:
        deriv = T.typecheck(m, S.UNIT)
    except T.TypingError as e:
        found = T.typecheck(m).type
        if found != S.UNIT:
            raise NotUnitType(f"the program has type {found}, expected unit") from None
        raise NotUnitType(str(e)) from None
    mor = denote(deriv, cfg)
    src = mor.src.labels()[0]
    dst = mor.dst.labels()[0]
    e = mor.entry(src, dst)
    val = complex(e[0, 0])
    if abs(val.imag) > 1e-9:
        raise AdequacyError(f"unit denotation not real: {val}")
    return float(val.real)


def check_adequacy(m: S.Term, cfg: TruncationConfig = DEFAULT_CONFIG,
                   max_steps: int = 2000) -> AdequacyReport:
    """Compare a closed unit-type program's denotation with its halting mass.

    Finitary programs must match exactly (up to ``TOL``); general programs
    must satisfy ``halt_lower - TOL <= denot <= halt_lower + residual + TOL``.

    Reports are memoized per process (``_check_adequacy``), keyed exactly by
    ``(m, cfg, max_steps)``, over the 256 most recently used keys.  A hit is
    the report the call would compute: every field is a function of the
    key, and terms compare with ``==``, under which a gate written with
    ``-0.0`` equals its ``+0.0`` twin, but gates hold ``+0j``, so equal terms
    print alike and share one source hash.  A hit returns the same report,
    which is frozen and holds no mutable field.  A call that raises keeps
    nothing, so it raises again.  Module constants (``TOL``, the machine's
    caps) are not in the key: a test that patches one must clear the memo
    with ``_check_adequacy.cache_clear()`` first.
    """
    if max_steps < 0:  # checked before the lookup, with the machine's message
        raise M.MachineError(f"step budget must be nonnegative, got {max_steps}")
    return _check_adequacy(m, cfg, max_steps)


@lru_cache(maxsize=256)
def _check_adequacy(m: S.Term, cfg: TruncationConfig, max_steps: int) -> AdequacyReport:
    denot = scalar_denotation(m, cfg)
    dist = M.evaluate(M.load(m), max_steps=max_steps)
    halt = dist.halt_mass
    residual = dist.residual
    fin = is_finitary(m)
    if fin:
        ok = residual <= TOL and abs(denot - halt) <= TOL
    else:
        ok = halt - TOL <= denot <= halt + residual + TOL
    src_hash = hashlib.sha256(S.pretty(m).encode()).hexdigest()[:12]
    return AdequacyReport(src_hash, denot, halt, residual, fin,
                          "PASS" if ok else "FAIL")


# ---------------------------------------------------------------------------
# Random program generators for the fuzz harness


_FUZZ_TYPE_LEAVES = [S.QUBIT, S.UNIT, S.BIT]


def _random_type(rng: random.Random, depth: int) -> S.Type:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(_FUZZ_TYPE_LEAVES)
    kind = rng.choice(["loli", "tensor", "sum"])
    a = _random_type(rng, depth - 1)
    b = _random_type(rng, depth - 1)
    if kind == "loli":
        return S.LinArrow(a, b)
    if kind == "tensor":
        return S.TensorT(a, b)
    return S.SumT(a, b)


_RHOS = [0.0, 0.25, 0.5, 0.75, 1.0]


def random_finitary_program(seed: int, budget: int = 10) -> S.Term:
    """A seeded closed finitary program of type unit.

    Built from sequencing, coin-guarded branching, generate/consume pairs at
    random small types, bounded recursion, and the divergent constant; never
    contains an unbounded letrec.
    """
    rng = random.Random(seed)

    def go(b: int) -> S.Term:
        if b <= 1:
            return rng.choice([
                UNIT_VAL,
                S.App(consume_term(S.QUBIT), S.App(S.New(), S.tt())),
                S.Omega(S.UNIT),
            ])
        choice = rng.random()
        if choice < 0.30:
            return S.seq(go(b // 2), go(b - b // 2))
        if choice < 0.60:
            rho = rng.choice(_RHOS)
            return S.if_term(biased_coin(rho), go(b // 2), go(b - b // 2))
        if choice < 0.85:
            a = _random_type(rng, min(2, b // 3))
            return S.App(consume_term(a), S.App(generate_term(a), UNIT_VAL))
        # bounded coin-guarded loop: halts or blocks within n unfoldings
        n = rng.randrange(0, 4)
        rho = rng.choice(_RHOS[1:-1])
        body = S.seq(S.Var("u"),
                     S.if_term(biased_coin(rho), UNIT_VAL,
                               S.App(S.Var("f"), UNIT_VAL)))
        return S.App(S.LetRec("f", S.UNIT, S.UNIT, "u", body, S.Var("f"), bound=n),
                     UNIT_VAL)

    return go(budget)


def random_letrec_program(seed: int) -> S.Term:
    """A seeded closed unit-type program with genuine unbounded recursion."""
    rng = random.Random(seed)
    rho = rng.choice([0.25, 0.5, 0.75])
    shape = rng.randrange(3)
    if shape == 0:
        # geometric loop on unit
        body = S.seq(S.Var("u"),
                     S.if_term(biased_coin(rho), UNIT_VAL,
                               S.App(S.Var("f"), UNIT_VAL)))
        return S.App(S.LetRec("f", S.UNIT, S.UNIT, "u", body, S.Var("f")),
                     UNIT_VAL)
    if shape == 1:
        # recurse on a fresh qubit, stopping when it measures true
        body = S.if_term(S.App(S.Meas(), S.Var("q")), UNIT_VAL,
                         S.App(S.Var("f"), S.App(S.STANDARD_GATES["H"],
                                                 S.App(S.New(), S.ff()))))
        return S.App(S.LetRec("f", S.QUBIT, S.UNIT, "q", body, S.Var("f")),
                     S.App(S.STANDARD_GATES["H"], S.App(S.New(), S.ff())))
    # diverge with probability 1 - rho after one coin flip
    body = S.seq(S.Var("u"), S.App(S.Var("f"), UNIT_VAL))
    loop = S.App(S.LetRec("f", S.UNIT, S.UNIT, "u", body, S.Var("f")), UNIT_VAL)
    return S.if_term(biased_coin(rho), UNIT_VAL, loop)
