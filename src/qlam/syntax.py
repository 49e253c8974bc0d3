"""Abstract syntax for the linear quantum lambda calculus.

Types and terms are immutable dataclasses.  The exponential modality is
restricted to arrow types, so ``!`` is baked into a dedicated ``BangArrow``
node rather than being a general type constructor.  Surface sugar
(booleans, lists, ``if``, sequencing) is eliminated at parse time; the
constructors for the desugared forms live here so the parser, the
typechecker tests and the adequacy generators all agree on the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

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


class Term:
    __slots__ = ()


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
    match m:
        case Var(x):
            return frozenset((x,))
        case Abs(x, _, body):
            return free_vars(body) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case UnitVal() | Meas() | New() | Split() | Gate() | Omega():
            return frozenset()
        case LetUnit(s, b):
            return free_vars(s) | free_vars(b)
        case Pair(l, r):
            return free_vars(l) | free_vars(r)
        case LetPair(x, _, y, _, s, b):
            return free_vars(s) | (free_vars(b) - {x, y})
        case InL(b, _) | InR(b, _) | Ascribe(b, _):
            return free_vars(b)
        case Match(s, x, _, lb, y, _, rb):
            return free_vars(s) | (free_vars(lb) - {x}) | (free_vars(rb) - {y})
        case LetRec(f, _, _, x, body, cont, _):
            return (free_vars(body) - {f, x}) | (free_vars(cont) - {f})
    raise TypeError(f"not a term: {m!r}")


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
    """Capture-avoiding substitution ``m[v / x]``."""
    fv_v = free_vars(v)

    def go(t: Term) -> Term:
        match t:
            case Var(y):
                return v if y == x else t
            case Abs(y, ty, body):
                if y == x:
                    return t
                if y in fv_v:
                    y2 = fresh_name(y, fv_v | free_vars(body))
                    body = subst(body, y, Var(y2))
                    y = y2
                return Abs(y, ty, go(body))
            case App(f, a):
                return App(go(f), go(a))
            case UnitVal() | Meas() | New() | Split() | Gate() | Omega():
                return t
            case LetUnit(s, b):
                return LetUnit(go(s), go(b))
            case Pair(l, r):
                return Pair(go(l), go(r))
            case LetPair(y, ty, z, tz, s, b):
                s2 = go(s)
                if x in (y, z):
                    return LetPair(y, ty, z, tz, s2, b)
                avoid = fv_v | free_vars(b)
                if y in fv_v:
                    y2 = fresh_name(y, avoid | {z})
                    b = subst(b, y, Var(y2))
                    y = y2
                if z in fv_v:
                    z2 = fresh_name(z, avoid | {y})
                    b = subst(b, z, Var(z2))
                    z = z2
                return LetPair(y, ty, z, tz, s2, go(b))
            case InL(b, ann):
                return InL(go(b), ann)
            case InR(b, ann):
                return InR(go(b), ann)
            case Ascribe(b, ann):
                return Ascribe(go(b), ann)
            case Match(s, y, ty, lb, z, tz, rb):
                s2 = go(s)
                if y != x:
                    if y in fv_v:
                        y2 = fresh_name(y, fv_v | free_vars(lb))
                        lb = subst(lb, y, Var(y2))
                        y = y2
                    lb = go(lb)
                if z != x:
                    if z in fv_v:
                        z2 = fresh_name(z, fv_v | free_vars(rb))
                        rb = subst(rb, z, Var(z2))
                        z = z2
                    rb = go(rb)
                return Match(s2, y, ty, lb, z, tz, rb)
            case LetRec(f, ta, tb, y, body, cont, bound):
                if f != x:
                    avoid = fv_v | free_vars(body) | free_vars(cont)
                    if f in fv_v:
                        f2 = fresh_name(f, avoid | {y})
                        body = subst(body, f, Var(f2))
                        cont = subst(cont, f, Var(f2))
                        f = f2
                    cont = go(cont)
                    if y != x:
                        if y in fv_v:
                            y2 = fresh_name(y, fv_v | free_vars(body) | {f})
                            body = subst(body, y, Var(y2))
                            y = y2
                        body = go(body)
                else:
                    pass  # f shadows x in both body and cont
                return LetRec(f, ta, tb, y, body, cont, bound)
        raise TypeError(f"not a term: {t!r}")

    return go(m)


def strip_ascriptions(m: Term) -> Term:
    match m:
        case Ascribe(b, _):
            return strip_ascriptions(b)
        case Var() | UnitVal() | Meas() | New() | Split() | Gate() | Omega():
            return m
        case Abs(x, t, b):
            return Abs(x, t, strip_ascriptions(b))
        case App(f, a):
            return App(strip_ascriptions(f), strip_ascriptions(a))
        case LetUnit(s, b):
            return LetUnit(strip_ascriptions(s), strip_ascriptions(b))
        case Pair(l, r):
            return Pair(strip_ascriptions(l), strip_ascriptions(r))
        case LetPair(x, tx, y, ty, s, b):
            return LetPair(x, tx, y, ty, strip_ascriptions(s), strip_ascriptions(b))
        case InL(b, ann):
            return InL(strip_ascriptions(b), ann)
        case InR(b, ann):
            return InR(strip_ascriptions(b), ann)
        case Match(s, x, tx, lb, y, ty, rb):
            return Match(strip_ascriptions(s), x, tx, strip_ascriptions(lb), y, ty, strip_ascriptions(rb))
        case LetRec(f, ta, tb, x, body, cont, bound):
            return LetRec(f, ta, tb, x, strip_ascriptions(body), strip_ascriptions(cont), bound)
    raise TypeError(f"not a term: {m!r}")


def lower_approximant(m: Term, n: int) -> Term:
    """Replace every unbounded ``letrec`` by its ``n``-bounded variant."""
    match m:
        case LetRec(f, ta, tb, x, body, cont, bound):
            new_bound = n if bound is None else bound
            return LetRec(f, ta, tb, x, lower_approximant(body, n), lower_approximant(cont, n), new_bound)
        case Var() | UnitVal() | Meas() | New() | Split() | Gate() | Omega():
            return m
        case Abs(x, t, b):
            return Abs(x, t, lower_approximant(b, n))
        case App(f, a):
            return App(lower_approximant(f, n), lower_approximant(a, n))
        case LetUnit(s, b):
            return LetUnit(lower_approximant(s, n), lower_approximant(b, n))
        case Pair(l, r):
            return Pair(lower_approximant(l, n), lower_approximant(r, n))
        case LetPair(x, tx, y, ty, s, b):
            return LetPair(x, tx, y, ty, lower_approximant(s, n), lower_approximant(b, n))
        case InL(b, ann):
            return InL(lower_approximant(b, n), ann)
        case InR(b, ann):
            return InR(lower_approximant(b, n), ann)
        case Ascribe(b, ann):
            return Ascribe(lower_approximant(b, n), ann)
        case Match(s, x, tx, lb, y, ty, rb):
            return Match(lower_approximant(s, n), x, tx, lower_approximant(lb, n), y, ty, lower_approximant(rb, n))
    raise TypeError(f"not a term: {m!r}")


# ---------------------------------------------------------------------------
# Alpha-canonical form (for term equality between machine branches)


def alpha_canonical(m: Term, env: Optional[dict] = None, counter: Optional[list] = None) -> Term:
    """Rename bound variables to a canonical scheme; free variables are kept."""
    if env is None:
        env = {}
    if counter is None:
        counter = [0]

    def bind(name: str) -> str:
        fresh = f"_b{counter[0]}"
        counter[0] += 1
        return fresh

    match m:
        case Var(x):
            return Var(env.get(x, x))
        case Abs(x, t, b):
            x2 = bind(x)
            return Abs(x2, t, alpha_canonical(b, {**env, x: x2}, counter))
        case App(f, a):
            return App(alpha_canonical(f, env, counter), alpha_canonical(a, env, counter))
        case UnitVal() | Meas() | New() | Split() | Gate() | Omega():
            return m
        case LetUnit(s, b):
            return LetUnit(alpha_canonical(s, env, counter), alpha_canonical(b, env, counter))
        case Pair(l, r):
            return Pair(alpha_canonical(l, env, counter), alpha_canonical(r, env, counter))
        case LetPair(x, tx, y, ty, s, b):
            s2 = alpha_canonical(s, env, counter)
            x2, y2 = bind(x), bind(y)
            return LetPair(x2, tx, y2, ty, s2, alpha_canonical(b, {**env, x: x2, y: y2}, counter))
        case InL(b, ann):
            return InL(alpha_canonical(b, env, counter), ann)
        case InR(b, ann):
            return InR(alpha_canonical(b, env, counter), ann)
        case Ascribe(b, ann):
            return Ascribe(alpha_canonical(b, env, counter), ann)
        case Match(s, x, tx, lb, y, ty, rb):
            s2 = alpha_canonical(s, env, counter)
            x2 = bind(x)
            lb2 = alpha_canonical(lb, {**env, x: x2}, counter)
            y2 = bind(y)
            rb2 = alpha_canonical(rb, {**env, y: y2}, counter)
            return Match(s2, x2, tx, lb2, y2, ty, rb2)
        case LetRec(f, ta, tb, x, body, cont, bound):
            f2 = bind(f)
            x2 = bind(x)
            body2 = alpha_canonical(body, {**env, f: f2, x: x2}, counter)
            cont2 = alpha_canonical(cont, {**env, f: f2}, counter)
            return LetRec(f2, ta, tb, x2, body2, cont2, bound)
    raise TypeError(f"not a term: {m!r}")


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
        return _pp(f, 0) if False else f"{_pp_app(f.fn)} {_pp(f.arg, 1)}"
    return _pp(f, 1)


def _wrap(s: str, level: int) -> str:
    return f"({s})" if level >= 1 else s
