"""Probabilistic abstract machine over quantum closures.

A closure is a quantum state together with a linking of term variables to
qubit positions and a term to reduce.  Reduction is call-by-value, left to
right; classical steps have probability 1, measurement branches carry the
Born probabilities.  Bounded ``letrec^n`` unfolds at most n times, with
``letrec^0`` substituting the explicitly divergent function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import qstate as QS
from . import syntax as S
from .syntax import (
    Abs, App, Gate, InL, InR, LetPair, LetRec, LetUnit, Match, Meas, New,
    Omega, Pair, Split, Term, UnitVal, Var, free_vars, is_value, subst,
)


class MachineError(Exception):
    pass


class ErroneousLinking(MachineError):
    pass


class StuckTerm(MachineError):
    pass


@dataclass(frozen=True)
class Closure:
    state: QS.QState
    linking: tuple  # ordered ((var, position), ...), positions 1-based
    term: Term

    def link_map(self) -> dict:
        return dict(self.linking)

    @property
    def num_qubits(self) -> int:
        return self.state.num_qubits

    def validate(self):
        link = self.link_map()
        fv = free_vars(self.term)
        if set(link) != fv:
            raise ErroneousLinking(
                f"linking domain {sorted(link)} != free variables {sorted(fv)}"
            )
        pos = sorted(link.values())
        if pos != list(range(1, self.num_qubits + 1)):
            raise ErroneousLinking(
                f"linking positions {pos} do not enumerate 1..{self.num_qubits}"
            )

    def __str__(self) -> str:
        link = ", ".join(f"{x}->{i}" for x, i in self.linking)
        return f"[{self.num_qubits} qubits; {link}; {S.pretty(self.term)}]"


def load(term: Term, state: Optional[QS.QState] = None, linking=()) -> Closure:
    c = Closure(state if state is not None else QS.EMPTY, tuple(linking), S.strip_ascriptions(term))
    c.validate()
    return c


@dataclass(frozen=True)
class Step:
    prob: float
    closure: Closure
    rule: str


def _unfold_letrec(m: LetRec) -> Term:
    """One unfolding of the recursive binder inside the body."""
    f, x = m.fname, m.var
    if m.bound is None:
        wrapped = Abs(x, m.arg_type, LetRec(f, m.arg_type, m.res_type, x, m.body, m.body, None))
    elif m.bound == 0:
        wrapped = Abs(x, m.arg_type, Omega(m.res_type))
    else:
        wrapped = Abs(x, m.arg_type, LetRec(f, m.arg_type, m.res_type, x, m.body, m.body, m.bound - 1))
    return subst(m.cont, f, wrapped)


def _tensor_vars(v: Term) -> list:
    """Flatten a value of nested-pair shape into its variable leaves."""
    match v:
        case Var(x):
            return [x]
        case Pair(l, r):
            return _tensor_vars(l) + _tensor_vars(r)
    raise StuckTerm(f"gate argument {S.pretty(v)} is not a tensor of qubit variables")


def _bit_value(v: Term) -> int:
    match v:
        case InL(UnitVal(), _):
            return 0
        case InR(UnitVal(), _):
            return 1
    raise StuckTerm(f"new argument {S.pretty(v)} is not a bit literal")


def step(c: Closure) -> list:
    """All one-step successors of a closure with their probabilities.

    A value, an omega-blocked term, or any other normal form returns the
    empty list; use :func:`is_blocked` to tell the cases apart.
    """
    results = _step_term(c.state, c.link_map(), c.term)
    out = []
    for prob, state, link, term, rule in results:
        for p2, state2, link2 in _discard_orphans(prob, state, link, term):
            nc = Closure(state2, tuple(sorted(link2.items(), key=lambda kv: kv[1])), term)
            nc.validate()
            out.append(Step(p2, nc, rule))
    return out


def _discard_orphans(prob, state, link, term):
    """Measure out qubits whose variables vanished from the term.

    A linked qubit can only be discarded by substitution into an exhausted
    recursion (the divergent constant erases its argument); the branch is
    permanently blocked afterwards, so discarding is implemented as an
    unobserved measurement, which preserves the total probability mass.
    """
    fv = free_vars(term)
    orphans = [x for x in link if x not in fv]
    branches = [(prob, state, link)]
    for x in orphans:
        next_branches = []
        for p, st, lk in branches:
            pos = lk[x]
            lk2 = {y: (i if i < pos else i - 1) for y, i in lk.items() if y != x}
            for br in QS.measure(st, pos):
                if br.valid:
                    next_branches.append((p * br.prob, br.state, lk2))
        branches = next_branches
    return branches


# Call-by-value evaluation order: the fields of each node that reduce to
# values, left to right, before the node itself is a redex or a value.
_EVAL_ORDER = {
    App: ("fn", "arg"),
    Pair: ("left", "right"),
    InL: ("body",),
    InR: ("body",),
    LetUnit: ("subject",),
    LetPair: ("subject",),
    Match: ("subject",),
}


def _focus(m: Term) -> Optional[str]:
    """The field that holds the next redex of ``m``; None when no field does."""
    for name in _EVAL_ORDER.get(type(m), ()):
        if not is_value(getattr(m, name)):
            return name
    return None


def _step_term(state, link, m):
    """Returns a list of (prob, state, linking-dict, term, rule)."""
    name = _focus(m)
    if name is not None:
        steps = _step_term(state, link, getattr(m, name))
        return [(p, q2, l2, replace(m, **{name: m2}), rule) for p, q2, l2, m2, rule in steps]
    match m:
        case App(f, a):
            return _apply(state, link, f, a)
        case LetUnit(s, b):
            if not isinstance(s, UnitVal):
                raise StuckTerm(f"let () subject is {S.pretty(s)}")
            return [(1.0, state, link, b, "let_unit")]
        case LetPair(x, _, y, _, s, b):
            if not isinstance(s, Pair):
                raise StuckTerm(f"let <,> subject is {S.pretty(s)}")
            out = subst(subst(b, x, s.left), y, s.right)
            return [(1.0, state, link, out, "let_tensor")]
        case Match(InL(v, _), x, _, lb, _, _, _):
            return [(1.0, state, link, subst(lb, x, v), "match_inl")]
        case Match(InR(v, _), _, _, _, y, _, rb):
            return [(1.0, state, link, subst(rb, y, v), "match_inr")]
        case Match(s):
            raise StuckTerm(f"match subject is {S.pretty(s)}")
        case LetRec(_, _, _, _, _, _, bound):
            rule = "letrec" if bound is None else f"letrec^{bound}"
            return [(1.0, state, link, _unfold_letrec(m), rule)]
        case Omega():
            return []
        case _ if is_value(m):
            return []
    raise StuckTerm(f"no rule applies to {S.pretty(m)}")


def _apply(state, link, f, a):
    match f:
        case Abs(x, _, body):
            return [(1.0, state, link, subst(body, x, a), "beta")]
        case Split(_):
            return [(1.0, state, link, a, "split")]
        case New():
            bit = _bit_value(a)
            y = S.fresh_name(f"q{state.num_qubits + 1}", link)
            state2 = QS.append_qubit(state, bit)
            link2 = dict(link)
            link2[y] = state.num_qubits + 1
            return [(1.0, state2, link2, Var(y), "new")]
        case Meas():
            if not isinstance(a, Var):
                raise StuckTerm(f"meas argument {S.pretty(a)} is not a qubit variable")
            pos = link[a.name]
            b0, b1 = QS.measure(state, pos)
            out = []
            for branch, term in ((b0, S.ff()), (b1, S.tt())):
                if not branch.valid:
                    continue
                link2 = {
                    x: (i if i < pos else i - 1) for x, i in link.items() if x != a.name
                }
                out.append((branch.prob, branch.state, link2, term, "meas"))
            return out
        case Gate(_, arity, _):
            names = _tensor_vars(a)
            if len(names) != arity:
                raise StuckTerm(f"gate expects {arity} qubits, got {len(names)}")
            positions = [link[x] for x in names]
            state2 = QS.apply_unitary(state, f.as_array(), positions)
            return [(1.0, state2, link, a, "unitary")]
    raise StuckTerm(f"cannot apply {S.pretty(f)}")


def is_blocked(m: Term) -> bool:
    """A term is omega-blocked when the next redex is an exhausted letrec."""
    while (name := _focus(m)) is not None:
        m = getattr(m, name)
    return isinstance(m, Omega)


# ---------------------------------------------------------------------------
# Distribution over outcomes


def canonical_key(c: Closure):
    """Aggregation key identifying closures up to renaming and global phase."""
    # rename variables to _q0, _q1, ... by first occurrence in the
    # alpha-canonical term, then rename the free ones in one pass
    canon = S.alpha_canonical(c.term)
    renaming = {}

    def scan(t):
        if isinstance(t, Var):
            renaming.setdefault(t.name, f"_q{len(renaming)}")
        for u in S.subterms(t):
            scan(u)

    scan(canon)
    canon = S.alpha_canonical(canon, renaming)
    link = c.link_map()
    link_key = tuple(sorted((renaming.get(x, x), i) for x, i in link.items()))
    amps = c.state.amps
    phase_ref = amps[np.argmax(np.abs(amps))]
    if abs(phase_ref) > 1e-12:
        amps = amps * (abs(phase_ref) / phase_ref)
    amp_key = tuple(np.round(amps, 9).tolist())
    return (S.pretty(canon), c.num_qubits, link_key, amp_key)


@dataclass
class Outcome:
    prob: float
    closure: Closure


@dataclass
class Distribution:
    """Result of exhaustive probabilistic evaluation.

    ``outcomes`` maps canonical keys of terminal *value* closures to their
    accumulated probability; ``blocked`` is the mass that reached an
    omega-blocked normal form; ``residual`` is mass still unreduced when
    the step budget ran out (an under-approximation witness); ``pruned`` is
    the mass of the branches dropped at or below ``prune_eps``.  The halting
    mass and these three sum to 1.
    """

    outcomes: dict = field(default_factory=dict)
    blocked: float = 0.0
    residual: float = 0.0
    pruned: float = 0.0
    steps_used: int = 0

    @property
    def halt_mass(self) -> float:
        return sum(o.prob for o in self.outcomes.values())

    def prob_of(self, term: Term) -> float:
        want = S.pretty(S.alpha_canonical(term))
        return sum(o.prob for o in self.outcomes.values()
                   if S.pretty(S.alpha_canonical(o.closure.term)) == want)


def evaluate(c: Closure, max_steps: int = 10_000, prune_eps: float = 1e-12) -> Distribution:
    """Exhaustive breadth-first evaluation of the branching reduction tree."""
    dist = Distribution()
    frontier = [(1.0, c)]
    steps = 0
    while frontier and steps < max_steps:
        steps += 1
        next_frontier = []
        for prob, cl in frontier:
            succs = step(cl)
            if not succs:
                if is_value(cl.term):
                    key = canonical_key(cl)
                    if key in dist.outcomes:
                        dist.outcomes[key].prob += prob
                    else:
                        dist.outcomes[key] = Outcome(prob, cl)
                elif is_blocked(cl.term):
                    dist.blocked += prob
                else:
                    raise StuckTerm(f"stuck non-value {S.pretty(cl.term)}")
                continue
            for s in succs:
                p2 = prob * s.prob
                if p2 > prune_eps:
                    next_frontier.append((p2, s.closure))
                else:
                    dist.pruned += p2
        frontier = next_frontier
    dist.residual = sum(p for p, _ in frontier)
    dist.steps_used = steps
    return dist


def halt_probability(c: Closure, max_steps: int = 10_000, prune_eps: float = 1e-12):
    """Lower bound on the halting probability plus the unresolved residual."""
    d = evaluate(c, max_steps, prune_eps)
    return d.halt_mass, d.residual


@dataclass
class Trace:
    steps: list  # list of (rule, prob, Closure)
    final: Closure
    timed_out: bool


def sample(c: Closure, seed: int, max_steps: int = 10_000) -> Trace:
    """Sample one run, resolving probabilistic branches with the given seed."""
    rng = random.Random(seed)
    trace = []
    cur = c
    for _ in range(max_steps):
        succs = step(cur)
        if not succs:
            return Trace(trace, cur, False)
        r = rng.random()
        acc = 0.0
        chosen = succs[-1]
        for s in succs:
            acc += s.prob
            if r < acc:
                chosen = s
                break
        trace.append((chosen.rule, chosen.prob, chosen.closure))
        cur = chosen.closure
    return Trace(trace, cur, True)
