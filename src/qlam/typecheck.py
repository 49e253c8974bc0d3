"""Linear type checking with explicit derivations.

Contexts are ordered lists of ``(name, type)`` pairs.  Linear bindings must
be consumed exactly once; exponential bindings (of ``!(A -o B)`` type) may
be duplicated across context splits and discarded at leaves.  The checker
is bidirectional: promotion fires only when checking a value against a
``!`` type, the list introduction coercion fires only when checking
against a list type, and injections require either an expected type or an
annotation.

The result is a full derivation tree.  The denotational interpreter is
driven by derivations, and reads all it needs from a node's own fields and
its premises': a rule's context split is its premises' contexts, less the
variables that a premise binds.

``check`` is memoized per process over its 4096 most recent
``(context, term, expected type)`` calls, the recursive calls included, so a
program that recurs, or shares subterms with one checked before, is checked
once.  A hit returns the derivation the first call built, so a recurring
sub-derivation is one object while the memo holds it.  A ``TypingError`` is
not memoized, so a list type's fallback to the coercion rule runs as before.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from . import syntax as S
from .syntax import (
    Abs, App, Ascribe, BangArrow, Gate, InL, InR, LetPair, LetRec, LetUnit,
    LinArrow, ListT, Match, Meas, New, Omega, Pair, QUBIT, Split, SumT,
    TensorT, Term, Type, UNIT, UnitVal, Var, free_vars, is_exponential,
    is_value,
)

Ctx = tuple  # tuple[(name, Type), ...]


class TypingError(Exception):
    def __init__(self, code: str, msg: str):
        super().__init__(f"{code}: {msg}")
        self.code = code
        self.msg = msg


@dataclass(frozen=True)
class Derivation:
    rule: str
    ctx: Ctx
    term: Term
    type: Type
    children: tuple = ()
    # the hash, filled in on first use
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rule, self.ctx, self.term, self.type, self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # a string hash depends on the process's seed, so a pickled
        # derivation leaves its hash behind
        return {**self.__dict__, "_hash": None}


def ctx_lookup(ctx: Ctx, name: str) -> Optional[Type]:
    for x, t in ctx:
        if x == name:
            return t
    return None


def exponential_part(ctx: Ctx) -> Ctx:
    return tuple((x, t) for x, t in ctx if is_exponential(t))


def split_ctx(ctx: Ctx, fv_left: frozenset, fv_right: frozenset):
    """Split a context for a two-premise rule by free-variable occurrence.

    Exponential bindings go to both sides; a linear binding must occur in
    exactly one of the two free-variable sets.
    """
    left, right = [], []
    for x, t in ctx:
        if is_exponential(t):
            left.append((x, t))
            right.append((x, t))
            continue
        in_l, in_r = x in fv_left, x in fv_right
        if in_l and in_r:
            raise TypingError("LinearVarDuplicated", f"linear variable {x} used on both sides of a split")
        if not in_l and not in_r:
            raise TypingError("LinearVarUnused", f"linear variable {x} is never used")
        (left if in_l else right).append((x, t))
    return tuple(left), tuple(right)


def _require_exponential(ctx: Ctx, what: str, keep: Optional[str] = None):
    """Raise unless every binding of ``ctx`` but ``keep``'s is exponential."""
    for x, t in ctx:
        if x != keep and not is_exponential(t):
            raise TypingError("LinearVarUnused", f"linear variable {x} cannot be discarded at {what}")


def _mismatch(term: Term, expected: Type, actual: Type):
    raise TypingError(
        "TypeMismatch",
        f"term {S.pretty(term)} has type {actual}, expected {expected}",
    )


def _unshadow(x: str, clash: bool, ctx: Ctx, *terms: Term) -> tuple:
    """The binder ``x`` and the ``terms`` in its scope; when ``clash``, ``x``
    is renamed to a name fresh for ``ctx`` and the terms, in the terms too."""
    if not clash:
        return (x, *terms)
    x2 = S.fresh_name(x, {y for y, _ in ctx}.union(*map(free_vars, terms)))
    return (x2, *(S.subst(t, {x: Var(x2)}) for t in terms))


def _qubits_tensor(k: int) -> Type:
    t: Type = QUBIT
    for _ in range(k - 1):
        t = TensorT(t, QUBIT)
    return t


@functools.lru_cache(maxsize=4096)
def check(ctx: Ctx, m: Term, expected: Optional[Type] = None) -> Derivation:
    """Check ``m`` against ``expected`` (or synthesise when ``None``).

    Memoized per process; a ``TypingError`` is raised afresh each time.
    """
    if isinstance(m, Ascribe):
        d = check(ctx, m.body, m.ann)
        return _finish(Derivation("ascribe", ctx, m, m.ann, (d,)), expected)

    # Promotion: the only way a term acquires a ! type.
    if isinstance(expected, BangArrow):
        if not is_value(m):
            # elimination forms propagate the expected ! type into their
            # branches, where promotion applies at the value leaves
            return _check_core(ctx, m, expected)
        # a variable already of the promoted type reuses its binding directly
        if isinstance(m, Var) and ctx_lookup(ctx, m.name) == expected:
            _require_exponential(ctx, m.name, keep=m.name)
            return Derivation("ax", ctx, m, expected)
        for x, t in ctx:
            if not is_exponential(t):
                raise TypingError(
                    "PromotionUnderLinearContext",
                    f"cannot promote under linear binding {x}:{t}",
                )
        child = check(ctx, m, expected.underlying)
        return Derivation("promotion", ctx, m, expected, (child,))

    if isinstance(expected, ListT):
        # an unannotated injection (a cons or nil literal) is a list only as
        # its unrolled sum: ``_check_core`` would raise, printing it first
        if isinstance(m, (InL, InR)) and m.ann is None:
            return _coerce_list(ctx, m, expected)
        try:
            return _check_core(ctx, m, expected)
        except TypingError:
            return _coerce_list(ctx, m, expected)

    return _check_core(ctx, m, expected)


def _coerce_list(ctx: Ctx, m: Term, expected: ListT) -> Derivation:
    unrolled = SumT(UNIT, TensorT(expected.elem, expected))
    child = check(ctx, m, unrolled)
    return Derivation("list_I", ctx, m, expected, (child,))


def _finish(d: Derivation, expected: Optional[Type]) -> Derivation:
    if expected is not None and d.type != expected:
        _mismatch(d.term, expected, d.type)
    return d


def _check_core(ctx: Ctx, m: Term, expected: Optional[Type]) -> Derivation:
    match m:
        case Var(x):
            t = ctx_lookup(ctx, x)
            if t is None:
                raise TypingError("UnboundVariable", f"unbound variable {x}")
            _require_exponential(ctx, x, keep=x)
            if isinstance(t, BangArrow):
                # dereliction: an exponential variable is used at its arrow type
                return _finish(Derivation("axd", ctx, m, t.underlying), expected)
            return _finish(Derivation("ax", ctx, m, t), expected)

        case UnitVal():
            _require_exponential(ctx, "()")
            return _finish(Derivation("unit_I", ctx, m, UNIT), expected)

        case Meas():
            _require_exponential(ctx, "meas")
            return _finish(Derivation("const", ctx, m, LinArrow(QUBIT, S.BIT)), expected)

        case New():
            _require_exponential(ctx, "new")
            return _finish(Derivation("const", ctx, m, LinArrow(S.BIT, QUBIT)), expected)

        case Gate(_, arity, _):
            _require_exponential(ctx, "gate")
            qt = _qubits_tensor(arity)
            return _finish(Derivation("const", ctx, m, LinArrow(qt, qt)), expected)

        case Split(a):
            _require_exponential(ctx, "split")
            t = LinArrow(ListT(a), SumT(UNIT, TensorT(a, ListT(a))))
            return _finish(Derivation("const", ctx, m, t), expected)

        case Omega(a):
            _require_exponential(ctx, "omega")
            return _finish(Derivation("omega", ctx, m, a), expected)

        case Abs(x, tx, body):
            if expected is not None:
                if not isinstance(expected, LinArrow):
                    _mismatch(m, expected, LinArrow(tx, S.UNIT))
                if expected.arg != tx:
                    _mismatch(m, expected.arg, tx)
            if ctx_lookup(ctx, x) is not None:
                x, body = _unshadow(x, True, ctx, body)
                m = Abs(x, tx, body)
            d = check(ctx + ((x, tx),), body, expected.res if expected else None)
            return Derivation("loli_I", ctx, m, LinArrow(tx, d.type), (d,))

        case App(f, a):
            c1, c2 = split_ctx(ctx, free_vars(f), free_vars(a))
            df = check(c1, f, None)
            if not isinstance(df.type, LinArrow):
                raise TypingError(
                    "TypeMismatch",
                    f"applied term {S.pretty(f)} has non-function type {df.type}",
                )
            da = check(c2, a, df.type.arg)
            d = Derivation("loli_E", ctx, m, df.type.res, (df, da))
            return _finish(d, expected)

        case LetUnit(s, b):
            c1, c2 = split_ctx(ctx, free_vars(s), free_vars(b))
            ds = check(c1, s, UNIT)
            db = check(c2, b, expected)
            return Derivation("unit_E", ctx, m, db.type, (ds, db))

        case Pair(l, r):
            c1, c2 = split_ctx(ctx, free_vars(l), free_vars(r))
            if expected is not None and not isinstance(expected, TensorT):
                # no structural retry: pairs only inhabit tensor types here
                dl = check(c1, l, None)
                dr = check(c2, r, None)
                _mismatch(m, expected, TensorT(dl.type, dr.type))
            dl = check(c1, l, expected.left if expected else None)
            dr = check(c2, r, expected.right if expected else None)
            return Derivation("tensor_I", ctx, m, TensorT(dl.type, dr.type), (dl, dr))

        case LetPair(x, tx, y, ty, s, b):
            fv_b = free_vars(b) - {x, y}
            c1, c2 = split_ctx(ctx, free_vars(s), fv_b)
            ds = check(c1, s, TensorT(tx, ty))
            if x == y:
                raise TypingError("TypeMismatch", f"tensor pattern binds {x} twice")
            clash_x, clash_y = ctx_lookup(c2, x) is not None, ctx_lookup(c2, y) is not None
            x, b = _unshadow(x, clash_x, ctx, b)
            y, b = _unshadow(y, clash_y, ctx, b)
            if clash_x or clash_y:
                m = LetPair(x, tx, y, ty, s, b)
            db = check(c2 + ((x, tx), (y, ty)), b, expected)
            return Derivation("tensor_E", ctx, m, db.type, (ds, db))

        case InL(b, ann) | InR(b, ann):
            is_left = isinstance(m, InL)
            target = expected if isinstance(expected, SumT) else ann
            if target is None:
                raise TypingError(
                    "CannotInfer",
                    f"injection {S.pretty(m)} needs an annotation or an expected sum type",
                )
            if not isinstance(target, SumT):
                _mismatch(m, target, SumT(UNIT, UNIT))
            db = check(ctx, b, target.left if is_left else target.right)
            rule = "plus_Il" if is_left else "plus_Ir"
            return _finish(Derivation(rule, ctx, m, target, (db,)), expected)

        case Match(s, x, tx, lb, y, ty, rb):
            fv_branches = (free_vars(lb) - {x}) | (free_vars(rb) - {y})
            c1, c2 = split_ctx(ctx, free_vars(s), fv_branches)
            ds = check(c1, s, SumT(tx, ty))
            x, lb = _unshadow(x, ctx_lookup(c2, x) is not None, ctx, lb)
            y, rb = _unshadow(y, ctx_lookup(c2, y) is not None, ctx, rb)
            m = Match(s, x, tx, lb, y, ty, rb)
            dl = check(c2 + ((x, tx),), lb, expected)
            dr = check(c2 + ((y, ty),), rb, expected if expected is not None else dl.type)
            if dl.type != dr.type:
                _mismatch(m, dl.type, dr.type)
            return Derivation("plus_E", ctx, m, dl.type, (ds, dl, dr))

        case LetRec(f, ta, tb, x, body, cont, bound):
            ft = BangArrow(ta, tb)
            exp = exponential_part(ctx)
            f, body, cont = _unshadow(f, ctx_lookup(ctx, f) is not None or f == x, ctx, body, cont)
            # machine unfoldings yield `letrec f x = M in M`; detect the
            # shape before the renaming below touches only the body
            cont_is_body = cont == body
            x, body = _unshadow(x, ctx_lookup(ctx, x) is not None, ctx, body)
            m = LetRec(f, ta, tb, x, body, cont, bound)
            dbody = check(exp + ((f, ft), (x, ta)), body, tb)
            if expected is None and cont_is_body:
                # machine unfoldings yield `letrec f x = M in M`, whose
                # continuation is the body at the declared result type
                dcont = check(ctx + ((f, ft),), cont, tb)
            else:
                dcont = check(ctx + ((f, ft),), cont, expected)
            rule = "rec" if bound is None else "recN"
            return Derivation(rule, ctx, m, dcont.type, (dbody, dcont))

    raise TypingError("CannotInfer", f"cannot type term {S.pretty(m)}")


def typecheck(m: Term, expected: Optional[Type] = None, ctx: Ctx = ()) -> Derivation:
    return check(ctx, m, expected)
