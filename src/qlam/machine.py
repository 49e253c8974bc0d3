"""Probabilistic abstract machine over quantum closures.

A closure is a quantum state together with a linking of term variables to
qubit positions and a term to reduce.  Reduction is call-by-value, left to
right; classical steps have probability 1, measurement branches carry the
Born probabilities.  Bounded ``letrec^n`` unfolds at most n times, with
``letrec^0`` substituting the explicitly divergent function.

The machine is an environment machine (Felleisen-Friedman's CEK).  A
closure's control is a code node of the loaded program under an environment
of values, trimmed to the code's free variables, or a value returned to a
continuation of evaluation frames.  A value is a qubit variable, a constant,
a pair or injection of values, or a function: an ``Abs`` code node with its
environment (a ``letrec`` binds its one unfolding as such a function).  A
step binds variables, pushes frames and pops them; it never substitutes,
rebuilds the term or descends from its root, so a fresh program's step costs
what a recurring one's does.  ``new`` names its qubit apart from the linked
variables, which are the free variables of the whole term.

The term is read back, by substituting each environment into its code, only
where output needs it: ``Closure.term`` (cached), ``canonical_key`` at
values, traces.  It is the term substitution would have made, binder names
included: a step whose bound name is free in a value of its environment (so
that substitution renamed the binder), or that binds the second name of a
pair in which the first value holds a qubit of that name (so that
substitution captured it), goes on from its term with no environment.  A
step that drops a value holding qubits measures out those the term no
longer names.

``evaluate`` runs the branching reduction as a Markov chain over shared
closures: one table per call keeps a node for each distinct closure, holding
its successor steps, or, for a normal form, its ``canonical_key`` or the fact
that it is blocked.  The key is ``(control, environment, frames, linking,
amplitude bytes)`` with exact equality; a frame around the second field of
an application or pair holds the node's class, not the node, so that calls
from different places meet.  A frontier entry names its closure as a parent
node and a successor index, and a node keeps a slot for each successor's
node, filled on the first visit: a branch that revisits a closure follows a
slot instead of hashing its key.  Successors are resolved only when their
branch is popped, so a pruned or residual closure is never stepped.  The
table holds at most ``MAX_TABLE_AMPS`` amplitudes and is emptied when the
next node would pass that; slots link only nodes the table holds and are cut
when it empties, so they keep no memory alive that the table does not.
``sample`` follows one path, where a per-call closure table would not hit.
Runaway growth raises a typed error: ``new`` past ``MAX_QUBITS`` qubits, or
a frontier past ``MAX_FRONTIER`` branches.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import qstate as QS
from . import syntax as S
from .syntax import (
    Abs, App, Gate, InL, InR, LetPair, LetRec, LetUnit, Match, Meas, New,
    Omega, Pair, Split, Term, UnitVal, Var, free_vars, subst,
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


@dataclass(unsafe_hash=True)  # not frozen: a frozen init costs a tenth of a step
class _Fun:
    """A function value: an ``Abs`` code node and the values of its free
    program variables."""

    code: Abs
    env: tuple

    @functools.cached_property
    def _fv(self) -> frozenset:
        """The free (qubit) variables of the term, where ``free_vars`` looks."""
        keys = [x for x, _ in self.env]
        return free_vars(self.code).difference(keys).union(*(free_vars(v) for _, v in self.env))


def _plug(frame: tuple, hole: Term) -> Term:
    """The term of an evaluation context with ``hole`` in it.

    A frame is a tuple ``(node, env, done, up)``.  Around the first field of
    code node ``node``, ``env`` holds the environment of the node's other
    parts; around the second field of an ``App`` or a ``Pair``, ``node`` is
    the class and ``done`` holds the first field's value.  ``up`` is the
    frame around this one, or None.
    """
    node, env, done, _ = frame
    if done:
        return node(_read(done[0]), hole)
    return replace(_subst_env(node, env), **{_DESCEND[type(node)][0]: hole})


# Call-by-value evaluation order: each node whose first field is evaluated
# before the node itself is a redex or a value (then the second, for ``App``
# and ``Pair``), that field's name, and the variables free in the rest.
_DESCEND = {
    App: ("fn", lambda m: free_vars(m.arg)),
    Pair: ("left", lambda m: free_vars(m.right)),
    InL: ("body", lambda m: frozenset()),
    InR: ("body", lambda m: frozenset()),
    LetUnit: ("subject", lambda m: free_vars(m.body)),
    LetPair: ("subject", lambda m: free_vars(m.body) - {m.lvar, m.rvar}),
    Match: ("subject", lambda m: (free_vars(m.lbody) - {m.lvar}) | (free_vars(m.rbody) - {m.rvar})),
}
_CONSTANTS = {UnitVal, Meas, New, Split, Gate}
_FF, _TT = S.ff(), S.tt()


def _read(v) -> Term:
    """The term of a value."""
    return _subst_env(v.code, v.env) if isinstance(v, _Fun) else S.map_subterms(v, _read)


def _subst_env(m: Term, env: tuple) -> Term:
    for x, v in env:
        m = subst(m, x, _read(v))
    return m


def _read_back(m, env: Optional[tuple], kont: Optional[tuple]) -> Term:
    """The term of code ``m`` under ``env`` (of value ``m``, if ``env`` is
    None) inside the frames ``kont``."""
    t = _read(m) if env is None else _subst_env(m, env)
    while kont is not None:
        t, kont = _plug(kont, t), kont[3]
    return t


def _trim(env: tuple, keep: frozenset) -> tuple:
    return tuple([p for p in env if p[0] in keep]) if env else env


def _atom(m: Term, env: tuple):
    """The value of code ``m`` under ``env`` if it takes no evaluation: a
    variable's, a function's or a constant's; None otherwise."""
    t = type(m)
    if t is Var:
        for x, v in env:
            if x == m.name:
                return v
        return m
    if t is Abs:
        return _Fun(m, _trim(env, free_vars(m)))
    return m if t in _CONSTANTS else None


def _settle(m, env, kont):
    """Run from code ``m`` under ``env`` (or from value ``m``, if ``env`` is
    None) up to the next redex or normal form: a value returned to the frame
    of a redex or to none, or a ``letrec`` or omega under its environment."""
    while True:
        if env is not None:
            t = type(m)
            if t is App or t is Pair:
                first = _atom(m.fn if t is App else m.left, env)
                if first is not None:  # no frame for a field that takes no step
                    m, kont = m.arg if t is App else m.right, (t, (), (first,), kont)
                    continue
            if t in _DESCEND:
                if (t is InL or t is InR) and type(m.body) is UnitVal:  # a bit literal
                    env = None
                    continue
                field, later = _DESCEND[t]
                m, kont = getattr(m, field), (m, _trim(env, later(m)), (), kont)
                continue
            if t is LetRec or t is Omega:
                return m, _trim(env, free_vars(m)), kont
            v = _atom(m, env)
            if v is None:
                raise StuckTerm(f"no rule applies to {S.pretty(m)}")
            m, env = v, None
        if kont is None:
            return m, None, None
        node, fenv, done, up = kont
        t = type(node)
        if node is Pair:
            m, kont = Pair(done[0], m), up
        elif t is App or t is Pair:
            m, env, kont = node.arg if t is App else node.right, fenv, (t, (), (m,), up)
        elif t is InL or t is InR:
            m, kont = t(m, node.ann), up
        else:
            return m, None, kont


@dataclass(frozen=True, init=False)
class Closure:
    """A quantum state, a linking of term variables to its qubits, and the
    control: code ``code`` under ``env``, or, when ``env`` is None, the
    value ``code``, inside the frames ``kont``.

    Built from a bare term (``Closure(state, linking, term)``), it settles
    at once on the term's first redex.  ``term`` reads the closure back.
    """

    state: QS.QState
    linking: tuple  # ordered ((var, position), ...), positions 1-based
    code: object
    env: Optional[tuple] = ()
    kont: Optional[tuple] = None

    def __init__(self, state: QS.QState, linking: tuple, code, env=(), kont=None):
        d = self.__dict__
        d["state"], d["linking"] = state, linking
        if env == () and kont is None:
            d["term"] = code
        d["code"], d["env"], d["kont"] = _settle(code, env, kont)

    @functools.cached_property
    def term(self) -> Term:
        return _read_back(self.code, self.env, self.kont)

    def link_map(self) -> dict:
        return dict(self.linking)

    @property
    def num_qubits(self) -> int:
        return self.state.num_qubits

    def validate(self):
        # a repeated pair is two names for one variable, so compare sorted lists
        names, fv = sorted(x for x, _ in self.linking), sorted(free_vars(self.term))
        if names != fv:
            raise ErroneousLinking(f"linking domain {names} != free variables {fv}")
        pos, n = sorted(i for _, i in self.linking), self.num_qubits
        if pos != list(range(1, n + 1)):
            raise ErroneousLinking(f"linking positions {pos} do not enumerate 1..{n}")


def load(term: Term, state: Optional[QS.QState] = None, linking=()) -> Closure:
    c = Closure(state if state is not None else QS.EMPTY, tuple(linking), S.strip_ascriptions(term))
    c.validate()
    return c


@dataclass(frozen=True)
class Step:
    prob: float
    closure: Closure
    rule: str


def _tensor_vars(v: Term) -> list:
    """Flatten a value of nested-pair shape into its variable leaves."""
    match v:
        case Var(x):
            return [x]
        case Pair(l, r):
            return _tensor_vars(l) + _tensor_vars(r)
    raise StuckTerm(f"gate argument {S.pretty(_read(v))} is not a tensor of qubit variables")


def _bit_value(v: Term) -> int:
    if isinstance(v, (InL, InR)) and isinstance(v.body, UnitVal):
        return int(isinstance(v, InR))
    raise StuckTerm(f"new argument {S.pretty(_read(v))} is not a bit literal")


def _unfolded(m: LetRec) -> Abs:
    """The function a ``letrec`` binds: one unfolding of itself, or the
    divergent function once its bound is spent."""
    bound = None if m.bound is None else m.bound - 1
    body = Omega(m.res_type) if m.bound == 0 else replace(m, cont=m.body, bound=bound)
    return Abs(m.var, m.arg_type, body)


def _bind(body: Term, env: tuple, pairs: tuple, kont):
    """The successor that enters ``body`` with ``pairs`` bound over ``env``:
    ``(code, env, kont, lost, capture)``, or None when a bound name is free
    in a value of ``env``, so that substitution renamed its binder.

    ``lost`` says that a value holding qubits was dropped; ``capture``, that
    the second of two names is free in the first's value, so that
    substitution captured it.
    """
    fv, names = free_vars(body), [x for x, _ in pairs]
    kept, lost = [], False
    for x, v in env:
        if x in fv and x not in names:
            if names[0] in free_vars(v) or names[-1] in free_vars(v):
                return None
            kept.append((x, v))
        else:
            lost = lost or bool(free_vars(v))
    for x, v in pairs:
        if x in fv:
            kept.append((x, v))
        else:
            lost = lost or bool(free_vars(v))
    capture = len(names) == 2 and set(names) <= fv and names[1] in free_vars(pairs[0][1])
    return body, tuple(kept), kont, lost or capture, capture


def _linking(link) -> tuple:
    return link if type(link) is tuple else tuple(sorted(link.items(), key=lambda kv: kv[1]))


def step(c: Closure) -> list:
    """All one-step successors of a closure with their probabilities.

    A normal form, which is a value or an omega-blocked term, returns the
    empty list; a term that is neither and has no redex raises ``StuckTerm``.
    A step that substitution makes by renaming a binder goes on from the
    closure's term instead, with no environment.
    """
    m, env, kont = c.code, c.env, c.kont
    if env is None and kont is None or isinstance(m, Omega):
        return []  # a value, or blocked on omega
    state, link, branches, nxt = c.state, c.linking, None, None
    if env is not None:  # a letrec under its environment
        rule, fun = ("letrec" if m.bound is None else f"letrec^{m.bound}"), _unfolded(m)
        if not any(m.fname in free_vars(v) or m.var in free_vars(v) for _, v in env):
            nxt = _bind(m.cont, env, ((m.fname, _Fun(fun, _trim(env, free_vars(fun)))),), kont)
    elif kont[0] is not App:
        node, fenv, _, up = kont
        if isinstance(node, LetUnit) and isinstance(m, UnitVal):
            rule, nxt = "let_unit", (node.body, fenv, up, False, False)
        elif isinstance(node, LetPair) and isinstance(m, Pair):
            pairs = ((node.lvar, m.left), (node.rvar, m.right))
            rule, nxt = "let_tensor", _bind(node.body, fenv, pairs, up)
        elif isinstance(node, Match) and isinstance(m, InL):
            rule, nxt = "match_inl", _bind(node.lbody, fenv, ((node.lvar, m.body),), up)
        elif isinstance(node, Match) and isinstance(m, InR):
            rule, nxt = "match_inr", _bind(node.rbody, fenv, ((node.rvar, m.body),), up)
        else:
            what = {LetUnit: "let ()", LetPair: "let <,>", Match: "match"}[type(node)]
            raise StuckTerm(f"{what} subject is {S.pretty(_read(m))}")
    else:
        f, up = kont[2][0], kont[3]
        nxt = (m, None, up, False, False)  # split and a gate return their argument
        if isinstance(f, _Fun):
            rule, nxt = "beta", _bind(f.code.body, f.env, ((f.code.var, m),), up)
        elif isinstance(f, Split):
            rule = "split"
        elif isinstance(f, New):
            bit = _bit_value(m)
            if state.num_qubits >= MAX_QUBITS:
                raise TooManyQubits(f"new would allocate qubit {state.num_qubits + 1} "
                                    f"beyond the cap of {MAX_QUBITS}")
            # the linked variables are the free variables of the whole term
            link = c.link_map()
            y = S.fresh_name(f"q{len(link) + 1}", link)
            link[y] = state.num_qubits + 1
            state = QS.append_qubit(state, bit)
            rule, nxt = "new", (Var(y), None, up, False, False)
        elif isinstance(f, Meas):
            if not isinstance(m, Var):
                raise StuckTerm(f"meas argument {S.pretty(_read(m))} is not a qubit variable")
            rule = "meas"
            branches = [(p, st, lk, (_TT if b else _FF, None, up, False, False))
                        for b, p, st, lk in _measure_out(1.0, state, c.link_map(), m.name)]
        elif isinstance(f, Gate):
            names = _tensor_vars(m)
            if len(names) != f.arity:
                raise StuckTerm(f"gate expects {f.arity} qubits, got {len(names)}")
            state = QS.apply_unitary(state, f.as_array(), [c.link_map()[x] for x in names])
            rule = "unitary"
        else:
            raise StuckTerm(f"cannot apply {S.pretty(_read(f))}")
    if branches is None and nxt is None:
        return step(Closure(c.state, c.linking, c.term))
    if branches is None and not nxt[3]:  # one plain successor
        return [Step(1.0, Closure(state, _linking(link), *nxt[:3]), rule)]
    out = []
    for prob, st, lk, (code, env2, kont2, lost, capture) in branches or [(1.0, state, link, nxt)]:
        if capture:  # go on from the term that substitution made
            code, env2, kont2 = _read_back(code, env2, kont2), (), None
        nc = Closure(st, _linking(lk), code, env2, kont2)
        for p2, st2, lk2 in (_discard_orphans(prob, st, nc.link_map(), nc.term) if lost
                             else [(prob, st, None)]):
            out.append(Step(p2, nc if lk2 is None else
                            replace(nc, state=st2, linking=_linking(lk2)), rule))
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
    link_key = tuple(sorted((renaming.get(x, x), i) for x, i in c.linking))
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
    return succs, (canonical_key(c) if not succs and c.env is None else None)


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
        key = (c.code, c.env, c.kont, c.linking, c.state.amps.tobytes())
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
    rng, trace = random.Random(seed), []
    for _ in range(max_steps):
        succs = step(c)
        if not succs:
            return Trace(trace, c, False)
        r, acc, chosen = rng.random(), 0.0, succs[-1]
        for s in succs:
            acc += s.prob
            if r < acc:
                chosen = s
                break
        trace.append((chosen.rule, chosen.prob, chosen.closure))
        c = chosen.closure
    return Trace(trace, c, True)
