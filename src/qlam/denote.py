"""Truncated denotational semantics.

Types become webbed objects (:mod:`qlam.cpm`); typing derivations become
morphisms from the interpretation of their context (tensored left-to-right
in declaration order) to the interpretation of their type.  The infinite
biproducts of the untruncated semantics — lists and the exponential — are
cut at configurable bounds, so every computed denotation is a lower
approximant (in the Löwner order) of the true one, and letrec is an
explicitly iterated fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import cpm as C
from . import syntax as S
from . import typecheck as T
from .cpm import CpmObject, Morphism


class DenotationError(Exception):
    pass


@dataclass(frozen=True)
class TruncationConfig:
    list_max: int = 4          # L: list lengths 0..L
    bang_max: int = 2          # K: multiset cardinalities 0..K
    fix_iters: int = 64        # N: fixpoint iteration cap
    fix_tol: float = 1e-10     # fixpoint convergence threshold (sup norm)
    matrix_tol: float = 1e-9   # comparison tolerance for clients
    group_cap: int = 5040      # largest materialized permutation group

    def __post_init__(self):
        if min(self.list_max, self.bang_max, self.fix_iters) < 0:
            raise DenotationError("truncation bounds must be nonnegative")
        if self.fix_tol <= 0 or self.matrix_tol <= 0:
            raise DenotationError("tolerances must be positive")


DEFAULT_CONFIG = TruncationConfig()


# ---------------------------------------------------------------------------
# types

_TYPE_CACHE: dict = {}


def denote_type(t: S.Type, cfg: TruncationConfig = DEFAULT_CONFIG) -> CpmObject:
    key = (t, cfg)
    obj = _TYPE_CACHE.get(key)
    if obj is None:
        obj = _denote_type(t, cfg)
        _TYPE_CACHE[key] = obj
    return obj


def _denote_type(t: S.Type, cfg: TruncationConfig) -> CpmObject:
    match t:
        case S.QubitT():
            return C.QUBIT_OBJ
        case S.UnitT():
            return C.UNIT_OBJ
        case S.LinArrow(a, b):
            return C.hom_obj(denote_type(a, cfg), denote_type(b, cfg))
        case S.BangArrow(a, b):
            hom = C.hom_obj(denote_type(a, cfg), denote_type(b, cfg))
            return C.bang_obj(hom, cfg.bang_max, cfg.group_cap)
        case S.TensorT(a, b):
            return C.tensor_obj(denote_type(a, cfg), denote_type(b, cfg))
        case S.SumT(a, b):
            return C.biproduct([denote_type(a, cfg), denote_type(b, cfg)])
        case S.ListT(a):
            return C.list_obj(denote_type(a, cfg), cfg.list_max)
    raise DenotationError(f"unknown type {t}")


def _hom_of_bang(t: S.BangArrow, cfg: TruncationConfig) -> CpmObject:
    return C.hom_obj(denote_type(t.arg, cfg), denote_type(t.res, cfg))


def ctx_obj(ctx: T.Ctx, cfg: TruncationConfig) -> CpmObject:
    return C.tensor_fold(denote_type(t, cfg) for _, t in ctx)


# ---------------------------------------------------------------------------
# context routing: weakening / contraction / reordering in one morphism


def _nest(ids):
    """Left-nested shape over a list of leaf ids ('u' when empty)."""
    if not ids:
        return "u"
    shape = ids[0]
    for i in ids[1:]:
        shape = (shape, i)
    return shape


def route(ctx: T.Ctx, dests, cfg: TruncationConfig) -> Morphism:
    """``[[ctx]] -> [[dests[0]]] (x) ... (x) [[dests[-1]]]``.

    Each destination is itself a context; linear variables must occur
    exactly once across all destinations, exponential variables any number
    of times (0 = weakening, >1 = contraction).
    """
    counts = {x: 0 for x, _ in ctx}
    for dest in dests:
        for x, _ in dest:
            counts[x] += 1

    # per-variable block morphisms, tensored in context order
    blocks = []       # morphisms
    shapes = []       # leaf shapes of each block's destination
    leaf_objs = {}
    mor = None
    for x, t in ctx:
        n = counts[x]
        obj = denote_type(t, cfg)
        if n == 1:
            f = C.identity(obj)
            shapes.append(f"{x}#0")
            leaf_objs[f"{x}#0"] = obj
        elif n == 0:
            if not S.is_exponential(t):
                raise DenotationError(f"cannot weaken linear variable {x}")
            f = C.weakening(_hom_of_bang(t, cfg), cfg.bang_max, cfg.group_cap)
            shapes.append(f"{x}#w")
            leaf_objs[f"{x}#w"] = C.UNIT_OBJ
        else:
            if not S.is_exponential(t):
                raise DenotationError(f"cannot contract linear variable {x}")
            hom = _hom_of_bang(t, cfg)
            contr = C.contraction(hom, cfg.bang_max, cfg.group_cap)
            # iterated contraction, left-nested: ((!H (x) !H) (x) !H) ...
            f = contr
            for _ in range(n - 2):
                f = f.then(contr.tensor(C.identity(obj)))
            shape = f"{x}#0"
            for j in range(1, n):
                shape = (shape, f"{x}#{j}")
            shapes.append(shape)
            for j in range(n):
                leaf_objs[f"{x}#{j}"] = obj
        blocks.append(f)
        mor = f if mor is None else mor.tensor(f)

    src_after = _nest(shapes)
    if mor is None:
        mor = C.identity(C.UNIT_OBJ)
        src_after = "u"

    # destination shape: consume copies of each variable in reading order
    next_copy = {x: 0 for x, _ in ctx}
    dest_shapes = []
    for dest in dests:
        ids = []
        for x, _ in dest:
            ids.append(f"{x}#{next_copy[x]}")
            next_copy[x] += 1
        dest_shapes.append(_nest(ids))
    dst_shape = _nest(dest_shapes)

    perm = C.structural(mor.dst, src_after, dst_shape, leaf_objs)
    return mor.then(perm)


# ---------------------------------------------------------------------------
# constants (Table of quantum constants)


def _meas_mor() -> Morphism:
    bit = C.biproduct([C.UNIT_OBJ, C.UNIT_OBJ])
    # column-major vec of a 2x2 density: (r00, r10, r01, r11)
    return Morphism(
        C.QUBIT_OBJ,
        bit,
        {
            (C.STAR, ("inj", 0, C.STAR)): np.array([[1, 0, 0, 0]], dtype=complex),
            (C.STAR, ("inj", 1, C.STAR)): np.array([[0, 0, 0, 1]], dtype=complex),
        },
    )


def _new_mor() -> Morphism:
    bit = C.biproduct([C.UNIT_OBJ, C.UNIT_OBJ])
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1
    e11 = np.zeros((2, 2), dtype=complex)
    e11[1, 1] = 1
    return Morphism(
        bit,
        C.QUBIT_OBJ,
        {
            (("inj", 0, C.STAR), C.STAR): C.vec(e00).reshape(-1, 1),
            (("inj", 1, C.STAR), C.STAR): C.vec(e11).reshape(-1, 1),
        },
    )


def _gate_mor(g: S.Gate, cfg: TruncationConfig) -> Morphism:
    qt = denote_type(T._qubits_tensor(g.arity), cfg)
    label = qt.labels()[0]
    return Morphism(qt, qt, {(label, label): C.so_conjugation(g.as_array())})


def _const_body(term: S.Term, arrow: S.LinArrow, cfg: TruncationConfig) -> Morphism:
    """The underlying direct morphism [[A]] -> [[B]] of a constant."""
    match term:
        case S.Meas():
            return _meas_mor()
        case S.New():
            return _new_mor()
        case S.Gate():
            return _gate_mor(term, cfg)
        case S.Split(a):
            return C.list_unroll(denote_type(a, cfg), cfg.list_max)
    raise DenotationError(f"unknown constant {S.pretty(term)}")


def _curry_const(f: Morphism, a: CpmObject, b: CpmObject) -> Morphism:
    """1 -> (A -o B) packaging a direct morphism f : A -> B."""
    body = C.lunit_elim(a).then(f)
    return C.curry(body, C.UNIT_OBJ, a, b)


# ---------------------------------------------------------------------------
# promotion over an exponential context


def _promote_ctx(ctx: T.Ctx, g: Morphism, cfg: TruncationConfig) -> Morphism:
    """``[[ctx]] -> !H`` from ``g : [[ctx]] -> H`` (ctx all-exponential)."""
    K, cap = cfg.bang_max, cfg.group_cap
    if not ctx:
        return C.bierman_unit(K, cap).then(C.promotion(g, K, cap))
    bases = []
    digs = None
    for x, t in ctx:
        if not S.is_exponential(t):
            raise DenotationError(f"promotion under linear binding {x}")
        base = denote_type(t, cfg)  # already a ! object
        hom = _hom_of_bang(t, cfg)
        d = C.digging(hom, K, cap)
        bases.append(base)
        digs = d if digs is None else digs.tensor(d)
    mor = digs
    cur = bases[0]
    for i in range(1, len(bases)):
        m = C.bierman_tensor(cur, bases[i], K, cap)
        rest = [C.bang_obj(b, K, cap) for b in bases[i + 1:]]
        lift = m
        for r in rest:
            lift = lift.tensor(C.identity(r))
        mor = mor.then(lift)
        cur = C.tensor_obj(cur, bases[i])
    return mor.then(C.promotion(g, K, cap))


# ---------------------------------------------------------------------------
# fixpoints


def _bang_point(dst_bang: CpmObject) -> Morphism:
    """1 -> !B supported on the empty multiset: the promotion of 0."""
    return Morphism(C.UNIT_OBJ, dst_bang, {(C.STAR, ("mset", ())): np.eye(1, dtype=complex)})


def fixpoint_iterate(exp_ctx: T.Ctx, chi: Morphism, bang_hom: CpmObject,
                     cfg: TruncationConfig, bound=None) -> Morphism:
    """Iterate ``F_0 = weak;(empty multiset)``, ``F_{n+1} = contr;(id (x) F_n);chi``.

    ``chi : [[exp_ctx]] (x) !H -> !H`` is one recursion step.  With
    ``bound`` set, exactly that many iterations are taken (the semantics of
    an indexed letrec); otherwise iteration stops at ``fix_tol`` or
    ``fix_iters``, checking Löwner monotonicity along the way.
    """
    eobj = ctx_obj(exp_ctx, cfg)
    f = route(exp_ctx, [()], cfg).then(_bang_point(bang_hom))
    n_iters = bound if bound is not None else cfg.fix_iters
    split = route(exp_ctx, [exp_ctx, exp_ctx], cfg) if exp_ctx else None
    for _ in range(n_iters):
        if exp_ctx:
            nxt = split.then(C.identity(eobj).tensor(f)).then(chi)
        else:
            nxt = f.then(chi)
        if bound is None:
            if not f.loewner_leq(nxt, cfg.matrix_tol):
                raise C.NonMonotoneIteration("fixpoint iteration is not Löwner-increasing")
            if nxt.sup_distance(f) <= cfg.fix_tol:
                return nxt
        f = nxt
    return f


# ---------------------------------------------------------------------------
# derivations


def denote(d: T.Derivation, cfg: TruncationConfig = DEFAULT_CONFIG) -> Morphism:
    """Interpret a typing derivation as ``[[ctx]] -> [[type]]``."""
    ctx = d.ctx
    match d.rule:
        case "ax":
            x = d.term.name
            t = T.ctx_lookup(ctx, x)
            return route(ctx, [((x, t),)], cfg)

        case "axd":
            x = d.term.name
            t = T.ctx_lookup(ctx, x)
            hom = _hom_of_bang(t, cfg)
            return route(ctx, [((x, t),)], cfg).then(
                C.dereliction(hom, cfg.bang_max, cfg.group_cap)
            )

        case "ascribe":
            return denote(d.children[0], cfg)

        case "unit_I":
            return route(ctx, [()], cfg)

        case "const":
            arrow = d.type
            a = denote_type(arrow.arg, cfg)
            b = denote_type(arrow.res, cfg)
            f = _const_body(d.term, arrow, cfg)
            return route(ctx, [()], cfg).then(_curry_const(f, a, b))

        case "omega":
            return C.zero(ctx_obj(ctx, cfg), denote_type(d.type, cfg))

        case "promotion":
            child = d.children[0]
            return _promote_ctx(ctx, denote(child, cfg), cfg)

        case "loli_I":
            child = d.children[0]
            body = denote(child, cfg)
            a = denote_type(d.type.arg, cfg)
            b = denote_type(d.type.res, cfg)
            if not ctx:  # the body context has no unit factor on the left
                body = C.lunit_elim(a).then(body)
            return C.curry(body, ctx_obj(ctx, cfg), a, b)

        case "loli_E":
            df, da = d.children
            c1, c2 = d.info["split"]
            a = denote_type(df.type.arg, cfg)
            b = denote_type(df.type.res, cfg)
            return (
                route(ctx, [c1, c2], cfg)
                .then(denote(df, cfg).tensor(denote(da, cfg)))
                .then(C.eval_mor(a, b))
            )

        case "unit_E":
            ds, db = d.children
            c1, c2 = d.info["split"]
            out = denote_type(db.type, cfg)
            return (
                route(ctx, [c1, c2], cfg)
                .then(denote(ds, cfg).tensor(denote(db, cfg)))
                .then(C.lunit_elim(out))
            )

        case "tensor_I":
            dl, dr = d.children
            c1, c2 = d.info["split"]
            return route(ctx, [c1, c2], cfg).then(denote(dl, cfg).tensor(denote(dr, cfg)))

        case "tensor_E":
            ds, db = d.children
            c1, c2 = d.info["split"]
            tens = ds.type
            c2o = ctx_obj(c2, cfg)
            tl, tr = denote_type(tens.left, cfg), denote_type(tens.right, cfg)
            pre = (
                route(ctx, [c2, c1], cfg)
                .then(C.identity(c2o).tensor(denote(ds, cfg)))
                .then(C.assoc_left(c2o, tl, tr))
            )
            if not c2:  # the branch context has no unit factor on the left
                pre = pre.then(C.lunit_elim(tl).tensor(C.identity(tr)))
            return pre.then(denote(db, cfg))

        case "plus_Il" | "plus_Ir":
            child = d.children[0]
            parts = [denote_type(d.type.left, cfg), denote_type(d.type.right, cfg)]
            i = 0 if d.rule == "plus_Il" else 1
            return denote(child, cfg).then(C.injection(tuple(parts), i))

        case "plus_E":
            ds, dl, dr = d.children
            c1, c2 = d.info["split"]
            c2o = ctx_obj(c2, cfg)
            sum_t = ds.type
            parts = (denote_type(sum_t.left, cfg), denote_type(sum_t.right, cfg))
            sumo = C.biproduct(parts)
            branches = []
            for part, dbr in zip(parts, (dl, dr)):
                b = C.swap(part, c2o)
                if not c2:  # the branch context has no unit factor on the left
                    b = b.then(C.lunit_elim(part))
                branches.append(b.then(denote(dbr, cfg)))
            parts_t = tuple(C.tensor_obj(p, c2o) for p in parts)
            return (
                route(ctx, [c2, c1], cfg)
                .then(C.identity(c2o).tensor(denote(ds, cfg)))
                .then(C.swap(c2o, sumo))
                .then(C.distribute_left(c2o, parts))
                .then(C.cotuple(parts_t, branches))
            )

        case "list_I":
            child = d.children[0]
            elem = denote_type(d.type.elem, cfg)
            return denote(child, cfg).then(C.list_roll(elem, cfg.list_max))

        case "rec" | "recN":
            return _denote_rec(d, cfg)

    raise DenotationError(f"no interpretation for rule {d.rule}")


def _denote_rec(d: T.Derivation, cfg: TruncationConfig) -> Morphism:
    dbody, dcont = d.children
    ctx = d.ctx
    exp = d.info["exp"]
    bound = d.info["bound"]
    m: S.LetRec = d.term
    ft = S.BangArrow(m.arg_type, m.res_type)
    hom = _hom_of_bang(ft, cfg)
    bang_hom = denote_type(ft, cfg)

    # one recursion step chi : [[exp]] (x) !H -> !H
    body = denote(dbody, cfg)  # [[exp + f + x]] -> [[res]]
    f_ctx = exp + ((dbody.ctx[-2][0], ft),)
    phi = C.curry(body, ctx_obj(f_ctx, cfg), denote_type(m.arg_type, cfg),
                  denote_type(m.res_type, cfg))
    chi = _promote_ctx(f_ctx, phi, cfg)

    fix = fixpoint_iterate(exp, chi, bang_hom, cfg, bound=bound)

    cont = denote(dcont, cfg)  # [[ctx + f]] -> [[type]]
    co = ctx_obj(ctx, cfg)
    pre = route(ctx, [ctx, exp], cfg).then(C.identity(co).tensor(fix))
    if not ctx:  # the continuation context has no unit factor on the left
        pre = pre.then(C.lunit_elim(bang_hom))
    return pre.then(cont)


# ---------------------------------------------------------------------------
# closures


def denote_closure(closure, cfg: TruncationConfig = DEFAULT_CONFIG,
                   expected: S.Type | None = None) -> dict:
    """Apply the closure's denotation to its state's density matrix.

    Returns a dict mapping web labels of the result object to positive
    matrices.  The closure's linking must be total and all its context
    variables are qubits.
    """
    link = sorted(closure.linking, key=lambda kv: kv[1])
    ctx = tuple((x, S.QUBIT) for x, _ in link)
    deriv = T.typecheck(closure.term, expected, ctx)
    mor = denote(deriv, cfg)
    amps = closure.state.amps
    rho = np.outer(amps, amps.conj())
    if closure.num_qubits == 0:
        rho = np.array([[1.0 + 0j]])
    src_label = mor.src.labels()[0]
    return mor.apply(src_label, rho)
