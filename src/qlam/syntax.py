"""Abstract syntax for the linear quantum lambda calculus.

Types and terms are immutable dataclasses.  The exponential modality is
restricted to arrow types, so ``!`` is baked into a dedicated ``BangArrow``
node rather than being a general type constructor.  Surface sugar
(booleans, lists, ``if``, sequencing) is eliminated at parse time; the
constructors for the desugared forms live here so the parser, the
typechecker tests and the adequacy generators all agree on the encoding.

Passes that bind nothing (``strip_ascriptions``, ``lower_approximant``,
``adequacy.is_finitary``, the variable scan of ``machine.canonical_key``) walk
terms through ``subterms``/``map_subterms``, which read the subterm fields of
every class from one table.  ``subst`` and ``alpha_canonical`` spell out
only the binders, because they must know what each binder binds.  ``pretty``
spells out every constructor because each prints differently, and
``free_vars`` does so too because on a fresh term the table lookup would
cost more than the set operations.

Free variables are cached per node: ``free_vars`` fills a node's ``_fv`` slot
from the cached sets of its immediate subterms the first time it is asked,
so a term shared between machine steps is scanned once.  Nodes are never
mutated otherwise, and a node built by a constructor, ``replace``,
``map_subterms`` or ``subst`` starts with an empty slot, so no cached set can
go stale.  ``subst`` returns every subterm in which the variable is not free
as it is, so it rebuilds only the paths down to the occurrences and the rest
of the term, caches included, is shared with the result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np


# ---------------------------------------------------------------------------
# Types


class Type:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class QubitT(Type):
    def __str__(self) -> str:
        return "qubit"


@dataclass(frozen=True, slots=True)
class UnitT(Type):
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True, slots=True)
class LinArrow(Type):
    arg: Type
    res: Type

    def __str__(self) -> str:
        return f"{_paren_arrow_arg(self.arg)} -o {self.res}"


@dataclass(frozen=True, slots=True)
class BangArrow(Type):
    """``!(A -o B)``: the only form the exponential takes."""

    arg: Type
    res: Type

    def __str__(self) -> str:
        return f"!({self.arg} -o {self.res})"

    @property
    def underlying(self) -> LinArrow:
        return LinArrow(self.arg, self.res)


@dataclass(frozen=True, slots=True)
class TensorT(Type):
    left: Type
    right: Type

    def __str__(self) -> str:
        return f"{_paren_mul(self.left)} * {_paren_mul(self.right)}"


@dataclass(frozen=True, slots=True)
class SumT(Type):
    left: Type
    right: Type

    def __str__(self) -> str:
        return f"{_paren_add(self.left)} + {_paren_add(self.right)}"


@dataclass(frozen=True, slots=True)
class ListT(Type):
    elem: Type

    def __str__(self) -> str:
        return f"list[{self.elem}]"


QUBIT = QubitT()
UNIT = UnitT()
BIT = SumT(UNIT, UNIT)


def _paren_arrow_arg(t: Type) -> str:
    if isinstance(t, LinArrow):
        return f"({t})"
    return str(t)


def _paren_mul(t: Type) -> str:
    if isinstance(t, (LinArrow, SumT, TensorT)):
        return f"({t})"
    return str(t)


def _paren_add(t: Type) -> str:
    if isinstance(t, (LinArrow, SumT)):
        return f"({t})"
    return str(t)


def is_exponential(t: Type) -> bool:
    """Exponential types may be duplicated and discarded."""
    return isinstance(t, BangArrow)


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, slots=True)
class Term:
    # the free-variable set, filled in by ``free_vars`` on first use; it is not
    # an ``__init__`` argument, so every new node, ``replace``'s too, starts empty
    _fv: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Abs(Term):
    var: str
    var_type: Type
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class UnitVal(Term):
    pass


@dataclass(frozen=True, slots=True)
class LetUnit(Term):
    subject: Term
    body: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class LetPair(Term):
    lvar: str
    ltype: Type
    rvar: str
    rtype: Type
    subject: Term
    body: Term


@dataclass(frozen=True, slots=True)
class InL(Term):
    body: Term
    ann: Optional[Type] = None  # optional full sum-type annotation


@dataclass(frozen=True, slots=True)
class InR(Term):
    body: Term
    ann: Optional[Type] = None


@dataclass(frozen=True, slots=True)
class Match(Term):
    subject: Term
    lvar: str
    ltype: Type
    lbody: Term
    rvar: str
    rtype: Type
    rbody: Term


@dataclass(frozen=True, slots=True)
class LetRec(Term):
    """``letrec f(x : arg_ty) : res_ty = body in cont``.

    ``bound`` is ``None`` for the genuine fixpoint and ``n >= 0`` for the
    finitary approximant that may unfold at most ``n`` times.
    """

    fname: str
    arg_type: Type
    res_type: Type
    var: str
    body: Term
    cont: Term
    bound: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Omega(Term):
    """The canonical divergent term at a given type."""

    ann: Type


@dataclass(frozen=True, slots=True)
class Meas(Term):
    pass


@dataclass(frozen=True, slots=True)
class New(Term):
    pass


@dataclass(frozen=True, slots=True)
class Split(Term):
    elem: Type


@dataclass(frozen=True, slots=True)
class Gate(Term):
    name: str
    arity: int
    # unitary stored row-major as a tuple of tuples of complex, so the term
    # stays hashable; validated unitary at construction time by the parser.
    matrix: tuple

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=complex)


@dataclass(frozen=True, slots=True)
class Ascribe(Term):
    """Type ascription ``M : T``; erased before execution."""

    body: Term
    ann: Type


# the subterm fields of each term class: its fields annotated ``Term``
_SUBTERMS = {
    cls: tuple(f.name for f in fields(cls) if f.type == "Term")
    for cls in (Var, Abs, App, UnitVal, LetUnit, Pair, LetPair, InL, InR, Match,
                LetRec, Omega, Meas, New, Split, Gate, Ascribe)
}


def _subterm_fields(m: Term) -> tuple:
    try:
        return _SUBTERMS[type(m)]
    except KeyError:
        raise TypeError(f"not a term: {m!r}") from None


def subterms(m: Term) -> tuple:
    """The immediate subterms of ``m`` in field order; ``()`` for a leaf."""
    return tuple(getattr(m, name) for name in _subterm_fields(m))


def map_subterms(m: Term, f: Callable[[Term], Term]) -> Term:
    """``m`` with ``f`` applied to each immediate subterm, binders untouched.

    Returns ``m`` itself when ``f`` returns every subterm unchanged.
    """
    names = _subterm_fields(m)
    kids = [f(getattr(m, name)) for name in names]
    if all(k is getattr(m, name) for k, name in zip(kids, names)):
        return m
    return replace(m, **dict(zip(names, kids)))


def gate(name: str, matrix) -> Gate:
    """Build a gate term, checking unitarity of the matrix."""
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"gate {name}: matrix must be square, got {arr.shape}")
    d = arr.shape[0]
    k = d.bit_length() - 1
    if 2**k != d:
        raise ValueError(f"gate {name}: dimension {d} is not a power of 2")
    dev = np.max(np.abs(arr.conj().T @ arr - np.eye(d)))
    if dev > 1e-9:
        raise ValueError(f"gate {name}: matrix is not unitary (deviation {dev:.3e})")
    return Gate(name, k, tuple(tuple(complex(x) for x in row) for row in arr))


_HADAMARD = [[2**-0.5, 2**-0.5], [2**-0.5, -(2**-0.5)]]

STANDARD_GATES = {
    "I": gate("I", np.eye(2)),
    "X": gate("X", [[0, 1], [1, 0]]),
    "Y": gate("Y", [[0, -1j], [1j, 0]]),
    "Z": gate("Z", [[1, 0], [0, -1]]),
    "H": gate("H", _HADAMARD),
    "CNOT": gate("CNOT", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}


# ---------------------------------------------------------------------------
# Sugar constructors (surface forms eliminated by the parser)


def tt() -> Term:
    return InR(UnitVal(), ann=BIT)


def ff() -> Term:
    return InL(UnitVal(), ann=BIT)


def nil() -> Term:
    return InL(UnitVal())


def cons(head: Term, tail: Term) -> Term:
    return InR(Pair(head, tail))


def if_term(cond: Term, then_branch: Term, else_branch: Term) -> Term:
    # bit is 1 + 1 with truth on the right injection, so the left branch of
    # the match is the "else" arm; binding the unit pattern keeps the
    # branches linear.
    avoid = free_vars(then_branch) | free_vars(else_branch)
    fv = fresh_name("_f", avoid)
    tv = fresh_name("_t", avoid)
    return Match(
        cond,
        fv, UNIT, LetUnit(Var(fv), else_branch),
        tv, UNIT, LetUnit(Var(tv), then_branch),
    )


def seq(first: Term, second: Term) -> Term:
    return LetUnit(first, second)


def lam_unit(body: Term, fresh: str = "_u") -> Term:
    while fresh in free_vars(body):
        fresh += "'"
    return Abs(fresh, UNIT, LetUnit(Var(fresh), body))


def lam_pair(x: str, tx: Type, y: str, ty: Type, body: Term, fresh: str = "_p") -> Term:
    while fresh in free_vars(body) or fresh in (x, y):
        fresh += "'"
    return Abs(fresh, TensorT(tx, ty), LetPair(x, tx, y, ty, Var(fresh), body))


def let_term(x: str, tx: Type, subject: Term, body: Term) -> Term:
    return App(Abs(x, tx, body), subject)


# ---------------------------------------------------------------------------
# Free variables, substitution, values


def free_vars(m: Term) -> frozenset:
    """The free variables of ``m``, computed once per node and cached on it."""
    fv = m._fv
    if fv is None:
        fv = _node_free_vars(m)
        object.__setattr__(m, "_fv", fv)
    return fv


def _node_free_vars(m: Term) -> frozenset:
    # one level: the subterms' sets are cached, so this costs one node
    match m:
        case Var(x):
            return frozenset((x,))
        case App(a, b) | Pair(a, b) | LetUnit(a, b):
            return _union(free_vars(a), free_vars(b))
        case Abs(x, _, body):
            return _minus(free_vars(body), x)
        case InL(b, _) | InR(b, _) | Ascribe(b, _):
            return free_vars(b)
        case UnitVal() | Meas() | New() | Split() | Gate() | Omega():
            return _NO_VARS
        case LetPair(x, _, y, _, s, b):
            return _union(free_vars(s), _minus(free_vars(b), x, y))
        case Match(s, x, _, lb, y, _, rb):
            return _union(_union(free_vars(s), _minus(free_vars(lb), x)),
                          _minus(free_vars(rb), y))
        case LetRec(f, _, _, x, body, cont, _):
            return _union(_minus(free_vars(body), f, x), _minus(free_vars(cont), f))
    raise TypeError(f"not a term: {m!r}")


# ``_minus`` and ``_union`` return an operand itself when it already is the
# result, so most nodes share their set with a subterm and every closed
# subterm shares ``_NO_VARS``: a frozenset costs 216 bytes and a GC slot.
_NO_VARS = frozenset()


def _minus(fv: frozenset, *names: str) -> frozenset:
    if fv.isdisjoint(names):
        return fv
    return fv.difference(names) or _NO_VARS


def _union(a: frozenset, b: frozenset) -> frozenset:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def is_value(m: Term) -> bool:
    match m:
        case Var() | UnitVal() | Meas() | New() | Split() | Gate() | Abs():
            return True
        case Pair(l, r):
            return is_value(l) and is_value(r)
        case InL(b, _) | InR(b, _):
            return is_value(b)
    return False


def fresh_name(base: str, avoid) -> str:
    if base not in avoid:
        return base
    root = base.split("#", 1)[0]
    k = 1
    while f"{root}#{k}" in avoid:
        k += 1
    return f"{root}#{k}"


def subst(m: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution ``m[v / x]``.

    Only the paths down to the free occurrences of ``x`` are rebuilt; every
    other subterm of ``m`` is shared with the result, ``m`` itself when ``x``
    is not free in it.  A binder is renamed only when ``x`` occurs under it
    and ``v`` has a free variable of the same name.
    """
    fv_v = free_vars(v)

    def under(names: tuple, body: Term):
        """Substitute in ``body`` under the binders ``names``."""
        if x in names or x not in free_vars(body):
            return names, body
        avoid = set().union(fv_v, free_vars(body), names)
        renamed = []
        for y in names:
            if y in fv_v:
                y2 = fresh_name(y, avoid)
                avoid.add(y2)
                body = subst(body, y, Var(y2))
                y = y2
            renamed.append(y)
        return tuple(renamed), go(body)

    def go(t: Term) -> Term:
        if x not in free_vars(t):
            return t
        match t:
            case Var():
                return v
            case Abs(y, ty, body):
                (y,), body = under((y,), body)
                return Abs(y, ty, body)
            case LetPair(y, ty, z, tz, s, b):
                (y, z), b = under((y, z), b)
                return LetPair(y, ty, z, tz, go(s), b)
            case Match(s, y, ty, lb, z, tz, rb):
                (y,), lb = under((y,), lb)
                (z,), rb = under((z,), rb)
                return Match(go(s), y, ty, lb, z, tz, rb)
            case LetRec(f, ta, tb, y, body, cont, bound):
                # f binds in both body and cont, so it is renamed in both
                # (x is free here, so f != x)
                if f in fv_v:
                    f2 = fresh_name(f, fv_v | free_vars(body) | free_vars(cont) | {y})
                    body, cont = subst(body, f, Var(f2)), subst(cont, f, Var(f2))
                    f = f2
                (f, y), body = under((f, y), body)
                return LetRec(f, ta, tb, y, body, go(cont), bound)
        return map_subterms(t, go)

    return go(m)


def strip_ascriptions(m: Term) -> Term:
    while isinstance(m, Ascribe):
        m = m.body
    return map_subterms(m, strip_ascriptions)


def lower_approximant(m: Term, n: int) -> Term:
    """Replace every unbounded ``letrec`` by its ``n``-bounded variant."""
    if isinstance(m, LetRec) and m.bound is None:
        m = replace(m, bound=n)
    return map_subterms(m, lambda t: lower_approximant(t, n))


# ---------------------------------------------------------------------------
# Alpha-canonical form (for term equality between machine branches)


def alpha_canonical(m: Term, env: Optional[dict] = None) -> Term:
    """Rename bound variables to ``_b0, _b1, ...`` in binding order.

    Free variables are renamed through ``env`` in the same pass, all at once;
    those not in it are kept.  Bound names skip every name a free variable
    ends up with, so no free variable is captured.
    """
    env = env or {}
    taken = {env.get(x, x) for x in free_vars(m)}
    counter = itertools.count()

    def bind() -> str:
        while (fresh := f"_b{next(counter)}") in taken:
            pass
        return fresh

    def go(t: Term, env: dict) -> Term:
        match t:
            case Var(x):
                return Var(env.get(x, x))
            case Abs(x, ty, b):
                x2 = bind()
                return Abs(x2, ty, go(b, {**env, x: x2}))
            case LetPair(x, tx, y, ty, s, b):
                s2 = go(s, env)
                x2, y2 = bind(), bind()
                return LetPair(x2, tx, y2, ty, s2, go(b, {**env, x: x2, y: y2}))
            case Match(s, x, tx, lb, y, ty, rb):
                s2 = go(s, env)
                x2 = bind()
                lb2 = go(lb, {**env, x: x2})
                y2 = bind()
                rb2 = go(rb, {**env, y: y2})
                return Match(s2, x2, tx, lb2, y2, ty, rb2)
            case LetRec(f, ta, tb, x, body, cont, bound):
                f2, x2 = bind(), bind()
                body2 = go(body, {**env, f: f2, x: x2})
                cont2 = go(cont, {**env, f: f2})
                return LetRec(f2, ta, tb, x2, body2, cont2, bound)
        return map_subterms(t, lambda u: go(u, env))

    return go(m, env)


# ---------------------------------------------------------------------------
# Pretty printing (concrete syntax; round-trips through the parser)


def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return repr(re)
    if re == 0:
        return f"{im!r}i"
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def pretty(m: Term) -> str:
    return _pp(m, 0)


# precedence levels: 0 = open, 1 = application operand
def _pp(m: Term, level: int) -> str:
    match m:
        case Var(x):
            return x
        case UnitVal():
            return "()"
        case Meas():
            return "meas"
        case New():
            return "new"
        case Split(t):
            return f"split[{t}]"
        case Omega(t):
            return f"omega[{t}]"
        case Gate(name, _, matrix):
            if name in STANDARD_GATES and STANDARD_GATES[name].matrix == matrix:
                return f"#{name}"
            rows = ",".join("[" + ",".join(_fmt_complex(z) for z in row) + "]" for row in matrix)
            return f"#U[{rows}]"
        case Pair(l, r):
            return f"<{_pp(l, 0)}, {_pp(r, 0)}>"
        case InL(b, ann):
            tag = f"inl[{ann}]" if ann is not None else "inl"
            return _wrap(f"{tag} {_pp(b, 1)}", level)
        case InR(b, ann):
            tag = f"inr[{ann}]" if ann is not None else "inr"
            return _wrap(f"{tag} {_pp(b, 1)}", level)
        case App(f, a):
            return _wrap(f"{_pp_app(f)} {_pp(a, 1)}", level)
        case Abs(x, t, b):
            return _wrap(f"lam {x}:{t}. {_pp(b, 0)}", level)
        case LetUnit(s, b):
            return _wrap(f"let () = {_pp(s, 0)} in {_pp(b, 0)}", level)
        case LetPair(x, tx, y, ty, s, b):
            return _wrap(f"let <{x}:{tx}, {y}:{ty}> = {_pp(s, 0)} in {_pp(b, 0)}", level)
        case Match(s, x, tx, lb, y, ty, rb):
            return _wrap(
                f"match {_pp(s, 0)} with ({x}:{tx} -> {_pp(lb, 0)} | {y}:{ty} -> {_pp(rb, 0)})",
                level,
            )
        case LetRec(f, ta, tb, x, body, cont, bound):
            kw = "letrec" if bound is None else f"letrec^{bound}"
            return _wrap(
                f"{kw} {f}({x}:{ta}):{tb} = {_pp(body, 0)} in {_pp(cont, 0)}", level
            )
        case Ascribe(b, t):
            return _wrap(f"{_pp(b, 1)} : {t}", level)
    raise TypeError(f"not a term: {m!r}")


def _pp_app(f: Term) -> str:
    # the function position of an application binds like an operand, except
    # that a nested application may stay unparenthesised (left associativity)
    if isinstance(f, App):
        return f"{_pp_app(f.fn)} {_pp(f.arg, 1)}"
    return _pp(f, 1)


def _wrap(s: str, level: int) -> str:
    return f"({s})" if level >= 1 else s
