"""Probabilistic abstract machine over quantum closures.

A closure is a quantum state together with a linking of term variables to
qubit positions and a term to reduce.  Reduction is call-by-value, left to
right; classical steps have probability 1, measurement branches carry the
Born probabilities.  Bounded ``letrec^n`` unfolds at most n times, with
``letrec^0`` substituting the explicitly divergent function.

The control is classical: the term alone fixes which rule fires, which
quantum operation it applies to which variables, and the successor terms.
A plan (``_plan``) holds exactly that: the rule, the operation (the bit and
fresh name of a ``new``, the matrix and variable names of a gate, the
measured variable) and the successor terms.  ``step`` applies the operation
to the state and the linking, which supply only the amplitudes and the Born
probabilities.  Plans are memoized per process, keyed by the whole term: a
``new`` names its qubit apart from the linked variables, which are the free
variables of the whole term, not of the redex.  So a term that recurs, along
one ``sample`` or across calls, costs one lookup.  The table keeps the 256
most recent plans, since a stream of distinct programs reuses none: one
program steps through at most 129 distinct terms on the fuzz corpus.

``evaluate`` runs the branching reduction as a Markov chain over shared
closures: one table per call keeps a node for each distinct closure, holding
its successor steps, or, for a normal form, its ``canonical_key`` or the fact
that it is blocked.  The key is ``(term, linking, amplitude bytes)`` with exact
equality, so the result is bit for bit the one plain stepping gives.  A
frontier entry names its closure as a parent node and a successor index, and
a node keeps a slot for each successor's node, filled on the first visit: a
branch that revisits a closure follows a slot instead of hashing its key.
Successors are resolved only when their branch is popped, so a pruned or
residual closure is never stepped.  The table holds at most
``MAX_TABLE_AMPS`` amplitudes and is emptied when the next node would pass
that; slots link only nodes the table holds and are cut when it empties, so
they keep no memory alive that the table does not.  ``sample`` follows one
path, where a per-call closure table would not hit, so it shares only the
plans.  Runaway growth raises a typed error: ``new`` past ``MAX_QUBITS``
qubits, or a frontier past ``MAX_FRONTIER`` branches.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import qstate as QS
from . import syntax as S
from .syntax import (
    Abs, App, Gate, InL, InR, LetPair, LetRec, LetUnit, Match, Meas, New,
    Omega, Pair, Split, Term, UnitVal, Var, free_vars, is_value, subst,
)


# The most qubits a closure may hold.  A state of n qubits is a dense vector
# of 2^n amplitudes, and ``evaluate`` keeps one per frontier branch, so the
# ``new`` rule refuses to go past this instead of exhausting memory.
MAX_QUBITS = 20
# The most amplitudes one ``evaluate`` call's closure table holds (see
# ``_ClosureTable``); unbounded, it more than tripled the peak memory of
# ``qlist-run`` at 200 steps.
MAX_TABLE_AMPS = 1 << 16
# The most branches ``evaluate`` keeps in one frontier.
MAX_FRONTIER = 1 << 14
PRUNE_EPS = 1e-12  # ``evaluate`` drops branches this unlikely as pruned mass


class MachineError(Exception):
    pass


class TooManyQubits(MachineError):
    pass


class FrontierTooLarge(MachineError):
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
        # a repeated pair collapses in the dict, so count the pairs too
        if link.keys() != fv or len(link) != len(self.linking):
            names = sorted(x for x, _ in self.linking)
            raise ErroneousLinking(f"linking domain {names} != free variables {sorted(fv)}")
        pos = sorted(link.values())
        if pos != list(range(1, self.num_qubits + 1)):
            raise ErroneousLinking(
                f"linking positions {pos} do not enumerate 1..{self.num_qubits}"
            )


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

    A normal form, which is a value or an omega-blocked term, returns the
    empty list; a term that is neither and has no redex raises ``StuckTerm``.
    """
    rule, op, terms = _plan(c.term)
    state, link = c.state, c.link_map()
    if rule == "meas":
        # the successor terms are ff then tt, one per outcome
        branches = [(p, st, lk, terms[b]) for b, p, st, lk in _measure_out(1.0, state, link, op)]
    else:
        if rule == "new":
            if state.num_qubits >= MAX_QUBITS:
                raise TooManyQubits(f"new would allocate qubit {state.num_qubits + 1} "
                                    f"beyond the cap of {MAX_QUBITS}")
            bit, y = op
            link[y] = state.num_qubits + 1
            state = QS.append_qubit(state, bit)
        elif rule == "unitary":
            matrix, names = op
            state = QS.apply_unitary(state, matrix, [link[x] for x in names])
        branches = [(1.0, state, link, term) for term in terms]
    out = []
    for prob, st, lk, term in branches:
        for p2, state2, link2 in _discard_orphans(prob, st, lk, term):
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
    branches = [(prob, state, link)]
    for x in [x for x in link if x not in fv]:
        branches = [(p, st, lk) for branch in branches for _, p, st, lk in _measure_out(*branch, x)]
    return branches


def _measure_out(prob, state, link, x):
    """Measure the qubit linked to ``x`` in a branch of mass ``prob``: an
    ``(outcome, mass, state, linking)`` for each outcome that can occur, with
    ``x`` unlinked and the positions above its qubit shifted down."""
    pos = link[x]
    link2 = {y: (i if i < pos else i - 1) for y, i in link.items() if y != x}
    return [(b, prob * p, st, link2) for b, p, st in QS.measure(state, pos)]


# Call-by-value evaluation order: the fields of each node that reduce to
# values, left to right, before the node itself is a redex or a value.  Each
# field comes with the constructor call that rebuilds the node around a new
# value of it (``dataclasses.replace`` would walk every field on every plan).
_EVAL_ORDER = {
    App: (("fn", lambda m, v: App(v, m.arg)), ("arg", lambda m, v: App(m.fn, v))),
    Pair: (("left", lambda m, v: Pair(v, m.right)), ("right", lambda m, v: Pair(m.left, v))),
    InL: (("body", lambda m, v: InL(v, m.ann)),),
    InR: (("body", lambda m, v: InR(v, m.ann)),),
    LetUnit: (("subject", lambda m, v: LetUnit(v, m.body)),),
    LetPair: (("subject", lambda m, v: LetPair(m.lvar, m.ltype, m.rvar, m.rtype, v, m.body)),),
    Match: (("subject", lambda m, v: Match(v, m.lvar, m.ltype, m.lbody,
                                           m.rvar, m.rtype, m.rbody)),),
}


@functools.lru_cache(maxsize=256)
def _plan(m: Term):
    """The part of a step from ``m`` that the term alone fixes:
    ``(rule, op, successor terms)``.

    ``op`` is ``(bit, fresh name)`` for ``new``, ``(matrix, variable names)``
    for ``unitary``, the measured variable for ``meas`` (whose successors are
    ff then tt) and None otherwise.  A normal form has rule None and no
    successors.  A closure's linking covers exactly its term's free
    variables, so the fresh name avoids those of the whole term.
    """
    return _redex_plan(m, free_vars(m))


def _redex_plan(m: Term, linked: frozenset):
    for name, rebuild in _EVAL_ORDER.get(type(m), ()):
        sub = getattr(m, name)
        if not is_value(sub):
            rule, op, terms = _redex_plan(sub, linked)
            return rule, op, tuple(rebuild(m, m2) for m2 in terms)
    match m:
        case App(Abs(x, _, body), a):
            return "beta", None, (subst(body, x, a),)
        case App(Split(), a):
            return "split", None, (a,)
        case App(New(), a):
            y = S.fresh_name(f"q{len(linked) + 1}", linked)
            return "new", (_bit_value(a), y), (Var(y),)
        case App(Meas(), a):
            if not isinstance(a, Var):
                raise StuckTerm(f"meas argument {S.pretty(a)} is not a qubit variable")
            return "meas", a.name, (S.ff(), S.tt())
        case App(Gate(_, arity, _) as g, a):
            names = _tensor_vars(a)
            if len(names) != arity:
                raise StuckTerm(f"gate expects {arity} qubits, got {len(names)}")
            matrix = g.as_array()
            matrix.setflags(write=False)  # every step from this plan shares it
            return "unitary", (matrix, tuple(names)), (a,)
        case App(f, _):
            raise StuckTerm(f"cannot apply {S.pretty(f)}")
        case LetUnit(s, b):
            if not isinstance(s, UnitVal):
                raise StuckTerm(f"let () subject is {S.pretty(s)}")
            return "let_unit", None, (b,)
        case LetPair(x, _, y, _, s, b):
            if not isinstance(s, Pair):
                raise StuckTerm(f"let <,> subject is {S.pretty(s)}")
            return "let_tensor", None, (subst(subst(b, x, s.left), y, s.right),)
        case Match(InL(v, _), x, _, lb, _, _, _):
            return "match_inl", None, (subst(lb, x, v),)
        case Match(InR(v, _), _, _, _, y, _, rb):
            return "match_inr", None, (subst(rb, y, v),)
        case Match(s):
            raise StuckTerm(f"match subject is {S.pretty(s)}")
        case LetRec(_, _, _, _, _, _, bound):
            rule = "letrec" if bound is None else f"letrec^{bound}"
            return rule, None, (_unfold_letrec(m),)
        case Omega():
            return None, None, ()
        case _ if is_value(m):
            return None, None, ()
    raise StuckTerm(f"no rule applies to {S.pretty(m)}")


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
    the mass of the branches dropped at or below ``PRUNE_EPS``.  The halting
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


def _resolve(c: Closure):
    """What ``evaluate`` needs of a closure: ``(successors, outcome key)``.

    A closure that steps has its successor list and no key; a value has no
    successors and its ``canonical_key``; an omega-blocked term, the other
    normal form, has neither.
    """
    succs = step(c)
    return succs, (canonical_key(c) if not succs and is_value(c.term) else None)


class _Node:
    """One distinct closure's ``_resolve`` entry, with a slot for the node of
    each successor.

    A slot is filled only while both ends are held by the table, and the
    table cuts every slot when it clears, so links keep alive nothing that
    the table does not.  The node does not hold its own closure: its parent's
    ``Step`` does.
    """

    __slots__ = ("succs", "key", "links", "held")

    def __init__(self, succs, key, held: bool):
        self.succs, self.key, self.held = succs, key, held
        self.links = [None] * len(succs)


class _ClosureTable:
    """One ``evaluate`` call's nodes, keyed by exact closure.

    The amplitudes held are counted over the keys' states, their successors'
    states and their outcome keys, each of which rounds its key's state.
    """

    def __init__(self):
        self.nodes = {}
        self.amps = 0

    def node(self, c: Closure) -> _Node:
        if c.state.amps.size > MAX_TABLE_AMPS:  # its node could never be held
            return _Node(*_resolve(c), False)
        key = (c.term, c.linking, c.state.amps.tobytes())
        node = self.nodes.get(key)
        if node is None:
            succs, out_key = _resolve(c)
            amps = (c.state.amps.size + sum(s.closure.state.amps.size for s in succs)
                    + (c.state.amps.size if out_key is not None else 0))
            if self.amps + amps > MAX_TABLE_AMPS:
                self.clear()
            node = _Node(succs, out_key, amps <= MAX_TABLE_AMPS)
            if node.held:
                self.nodes[key] = node
                self.amps += amps
        return node

    def clear(self):
        for node in self.nodes.values():
            node.held = False
            node.links = [None] * len(node.links)
        self.nodes.clear()
        self.amps = 0


def evaluate(c: Closure, max_steps: int = 10_000) -> Distribution:
    """Exhaustive breadth-first evaluation of the branching reduction tree,
    resolving each distinct closure once through a ``_ClosureTable``.

    A frontier entry is ``(prob, parent node, successor index)``: a branch
    whose parent has linked that successor's node follows the link, and any
    other branch looks its closure up in the table when it is popped.
    """
    if max_steps < 0:
        raise MachineError(f"step budget must be nonnegative, got {max_steps}")
    dist = Distribution()
    # the start closure is the one successor of a node that no table holds
    frontier = [(1.0, _Node((Step(1.0, c, "load"),), None, False), 0)]
    table = _ClosureTable()
    steps = 0
    while frontier and steps < max_steps:
        steps += 1
        next_frontier = []
        for prob, parent, i in frontier:
            node = parent.links[i]
            if node is None:
                node = table.node(parent.succs[i].closure)
                if parent.held and node.held:
                    parent.links[i] = node
            succs = node.succs
            if not succs:
                key = node.key
                if key is None:
                    dist.blocked += prob
                elif key in dist.outcomes:
                    dist.outcomes[key].prob += prob
                else:
                    dist.outcomes[key] = Outcome(prob, parent.succs[i].closure)
                continue
            for j, s in enumerate(succs):
                p2 = prob * s.prob
                if p2 > PRUNE_EPS:
                    next_frontier.append((p2, node, j))
                else:
                    dist.pruned += p2
        if len(next_frontier) > MAX_FRONTIER:
            raise FrontierTooLarge(f"step {steps} would keep {len(next_frontier)} branches "
                                   f"beyond the cap of {MAX_FRONTIER}")
        frontier = next_frontier
    table.clear()  # cut the links, so no cycle of nodes outlives the call
    dist.residual = sum(p for p, _, _ in frontier)
    dist.steps_used = steps
    return dist


@dataclass
class Trace:
    steps: list  # list of (rule, prob, Closure)
    final: Closure
    timed_out: bool


def sample(c: Closure, seed: int, max_steps: int = 10_000) -> Trace:
    """Sample one run, resolving probabilistic branches with the given seed."""
    if max_steps < 0:
        raise MachineError(f"step budget must be nonnegative, got {max_steps}")
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
