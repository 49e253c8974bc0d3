"""Truncated denotational semantics.

Types become webbed objects (:mod:`qlam.cpm`); typing derivations become
morphisms from the interpretation of their context (tensored left-to-right
in declaration order) to the interpretation of their type.  The infinite
biproducts of the untruncated semantics — lists and the exponential — are
cut at configurable bounds, so every computed denotation is a lower
approximant (in the Löwner order) of the true one, and letrec is an
explicitly iterated fixpoint: an unbounded one doubles its Kleene index by
squaring the recursion step (``fixpoint_iterate``).

At each derivation node only the children's denotations depend on the term;
the plumbing around them is a function of types and ``cfg`` alone.
``route``'s weakening/contraction/exchange map is built once per process, in
a bounded ``lru_cache`` (``_route``, keyed by the context's types, each
destination's positions in the context and ``cfg``, so alpha-renamed
contexts share an entry).  Equal keys give equal morphisms, so reusing one
is sound; only left prefixes of composites are cached, so every ``compose``
runs in the same order as an uncached build and the results are
bit-identical.  The checks that name a variable (linear weakening or
contraction) run before the lookup.

Abstraction is ``cpm.curry``, and application is ``route ;
cpm.application(f, x, a, b)``: both are index arithmetic on the entries of
the children's denotations, with no ``eval`` or ``eta`` map, group channel
or tensor built.  ``application`` is ``(f (x) x) ; eval`` with the sums in
that composite's order (see the :mod:`qlam.cpm` docstring).

``denote`` itself is memoized beside that plumbing, in one bounded
``lru_cache`` keyed by the derivation and ``cfg``, so a sub-derivation that
recurs within a program or across programs is interpreted once.  The key is
exact: a derivation's equality covers its rule, context (names included),
term, type and children, which is everything the interpretation reads (a
context split is read off the premises' contexts, a letrec's bound off its
term).  So equal keys are equal derivations, which the interpretation,
defined by induction on derivations, sends to equal morphisms.  A hit
returns the morphism the first build returned.  The checker's memo returns
one object for a recurring ``check`` call, so most of this memo's keys are
the derivations that the checker's memo holds, not a copy of every program's
tree.

Cached morphisms, the memo's included, are shared and must not be mutated.

``_route`` is one index map of :mod:`qlam.cpm`: its identity, weakening and
contraction blocks tensor, and compose with its exchange permutation, as vec
gathers, so no channel of it is built until an entry is read (by the
``compose`` that applies the route, only on keys whose groups differ in
order).  The exchange is built only on the labels that the blocks reach,
read off their keys alone.  ``compose`` reads no other entry, so the route is
the same, and the rest of that permutation can be huge: for qlist's
``[!H, qubit, qubit]`` context at ``list_max=4, bang_max=1``, its unreached
labels have up to 16,777,216 vec indices, the reached ones at most 16,384.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

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
    fix_iters: int = 64        # N: fixpoint doublings cap (Kleene index 2^N)
    fix_tol: float = 1e-10     # fixpoint convergence threshold (sup norm)

    def __post_init__(self):
        if min(self.list_max, self.bang_max, self.fix_iters) < 0:
            raise DenotationError("truncation bounds must be nonnegative")
        if self.fix_tol <= 0:
            raise DenotationError("fix_tol must be positive")


DEFAULT_CONFIG = TruncationConfig()


# ---------------------------------------------------------------------------
# types

@lru_cache(maxsize=4096)
def denote_type(t: S.Type, cfg: TruncationConfig = DEFAULT_CONFIG) -> CpmObject:
    match t:
        case S.QubitT():
            return C.QUBIT_OBJ
        case S.UnitT():
            return C.UNIT_OBJ
        case S.LinArrow(a, b):
            # the internal hom via compact closure: A -o B has the web of A (x) B
            return C.tensor_obj(denote_type(a, cfg), denote_type(b, cfg))
        case S.BangArrow():
            return C.bang_obj(denote_type(t.underlying, cfg), cfg.bang_max)
        case S.TensorT(a, b):
            return C.tensor_obj(denote_type(a, cfg), denote_type(b, cfg))
        case S.SumT(a, b):
            return C.biproduct([denote_type(a, cfg), denote_type(b, cfg)])
        case S.ListT(a):
            return C.list_obj(denote_type(a, cfg), cfg.list_max)
    raise DenotationError(f"unknown type {t}")


def ctx_obj(ctx: T.Ctx, cfg: TruncationConfig) -> CpmObject:
    """The left-nested tensor of the context's types; the unit when empty."""
    objs = [denote_type(t, cfg) for _, t in ctx]
    return reduce(C.tensor_obj, objs) if objs else C.UNIT_OBJ


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


def _uses(dests: tuple, n: int) -> list:
    """How often each of ``n`` context positions occurs in ``dests``."""
    counts = [0] * n
    for dest in dests:
        for i in dest:
            counts[i] += 1
    return counts


def route(ctx: T.Ctx, dests, cfg: TruncationConfig) -> Morphism:
    """``[[ctx]] -> [[dests[0]]] (x) ... (x) [[dests[-1]]]``.

    Each destination is itself a context; linear variables must occur
    exactly once across all destinations, exponential variables any number
    of times (0 = weakening, >1 = contraction).  The morphism depends only
    on the context's types and each destination's positions in it, so it is
    built once per such key by ``_route``.
    """
    pos = {x: i for i, (x, _) in enumerate(ctx)}
    if len(pos) != len(ctx):
        raise DenotationError(f"context names are not distinct: {[x for x, _ in ctx]}")
    key = tuple(tuple(pos[x] for x, _ in dest) for dest in dests)
    counts = _uses(key, len(ctx))
    for i, (x, t) in enumerate(ctx):
        if counts[i] != 1 and not S.is_exponential(t):
            verb = "weaken" if counts[i] == 0 else "contract"
            raise DenotationError(f"cannot {verb} linear variable {x}")
    return _route(tuple(t for _, t in ctx), key, cfg)


@lru_cache(maxsize=512)
def _route(types: tuple, dests: tuple, cfg: TruncationConfig) -> Morphism:
    """``route`` on context positions: ``dests`` index into ``types``."""
    counts = _uses(dests, len(types))

    # per-variable block morphisms, tensored in context order.  A variable
    # used n times gets weakening (n = 0), the identity (n = 1) or n - 1
    # left-nested contractions ((!H (x) !H) (x) !H) ..., whose leaves are
    # its copies i#0 .. i#(n-1); a weakened one leaves the unit leaf "u",
    # which ``structural`` drops
    shapes = []
    leaf_objs = {}
    mor = None
    for i, t in enumerate(types):
        n = counts[i]
        obj = denote_type(t, cfg)
        f = C.weakening(denote_type(t.underlying, cfg), cfg.bang_max) if n == 0 else C.identity(obj)
        for j in range(1, n):
            # contr ; (f (x) id), which for the first copy is contr itself
            contr = C.contraction(denote_type(t.underlying, cfg), cfg.bang_max)
            f = contr.compose(f.tensor(C.identity(obj))) if j > 1 else contr
        ids = [f"{i}#{j}" for j in range(n)]
        shapes.append(_nest(ids))
        leaf_objs.update(dict.fromkeys(ids, obj))
        mor = f if mor is None else mor.tensor(f)

    if mor is None:
        mor = C.identity(C.UNIT_OBJ)

    # destination shape: consume copies of each variable in reading order
    next_copy = [0] * len(types)
    dest_shapes = []
    for dest in dests:
        ids = []
        for i in dest:
            ids.append(f"{i}#{next_copy[i]}")
            next_copy[i] += 1
        dest_shapes.append(_nest(ids))
    dst_shape = _nest(dest_shapes)

    # compose reads only the labels mor reaches, so build the map on those
    reached = {lb for _, lb in mor.entries}
    return mor.compose(C.structural(mor.dst, _nest(shapes), dst_shape, leaf_objs, labels=reached))


# ---------------------------------------------------------------------------
# constants (Table of quantum constants)


def _meas_mor() -> Morphism:
    bit = C.biproduct([C.UNIT_OBJ, C.UNIT_OBJ])
    # column-major vec of a 2x2 density: (r00, r10, r01, r11), so outcome b
    # reads r_bb at 3 * b
    return Morphism(
        C.QUBIT_OBJ,
        bit,
        {(C.STAR, ("inj", b, C.STAR)): np.eye(1, 4, 3 * b, dtype=complex) for b in (0, 1)},
    )


def _const_mor(term: S.Term, arrow: S.LinArrow, cfg: TruncationConfig) -> Morphism:
    """``1 -> (A -o B)``: a constant's direct morphism ``A -> B``, curried."""
    a = denote_type(arrow.arg, cfg)
    b = denote_type(arrow.res, cfg)
    match term:
        case S.Meas():
            f = _meas_mor()
        case S.New():
            # preparation is the transpose of measurement
            f = _meas_mor().transpose()
        case S.Gate():
            # ``a`` and ``b`` are both the gate's qubit tensor, a single label
            label = a.labels()[0]
            f = Morphism(a, a, {(label, label): C.so_conjugation(term.as_array())})
        case S.Split(elem):
            f = C.list_unroll(denote_type(elem, cfg), cfg.list_max)
        case _:
            raise DenotationError(f"unknown constant {S.pretty(term)}")
    return C.curry(C.lunit_elim(a).compose(f), C.UNIT_OBJ, a, b)


# ---------------------------------------------------------------------------
# promotion over an exponential context


def _promote_ctx(ctx: T.Ctx, g: Morphism, cfg: TruncationConfig) -> Morphism:
    """``[[ctx]] -> !H`` from ``g : [[ctx]] -> H`` (ctx all-exponential):
    digging on every factor ``!Ai``, the Bierman maps into
    ``!(A1 (x) ... (x) An)`` left to right (``!1``'s unit when ``ctx`` is
    empty), then the promotion of ``g``."""
    for x, t in ctx:
        if not S.is_exponential(t):
            raise DenotationError(f"promotion under linear binding {x}")
    K = cfg.bang_max
    if not ctx:
        return C.bierman_unit(K).compose(C.promotion(g, K))
    bases = [denote_type(t, cfg) for _, t in ctx]  # already ! objects
    mor = reduce(Morphism.tensor, (C.digging(denote_type(t.underlying, cfg), K) for _, t in ctx))
    cur = bases[0]
    for i in range(1, len(bases)):
        lift = C.bierman_tensor(cur, bases[i], K)
        for b in bases[i + 1:]:
            lift = lift.tensor(C.identity(C.bang_obj(b, K)))
        mor = mor.compose(lift)
        cur = C.tensor_obj(cur, bases[i])
    return mor.compose(C.promotion(g, K))


# ---------------------------------------------------------------------------
# fixpoints


def _bang_point(dst_bang: CpmObject) -> Morphism:
    """1 -> !B supported on the empty multiset: the promotion of 0."""
    return C.relabel(C.UNIT_OBJ, dst_bang, [(C.STAR, ("mset", ()))])


def fixpoint_iterate(exp_ctx: T.Ctx, chi: Morphism, bang_hom: CpmObject,
                     cfg: TruncationConfig, bound=None) -> Morphism:
    """The Kleene chain ``F_0 = weak;(empty multiset)``,
    ``F_{n+1} = split;(id_E (x) F_n);chi``: ``split`` contracts
    ``E = [[exp_ctx]]`` and ``chi : E (x) !H -> !H`` is one recursion step.

    With ``bound`` set, exactly that many steps are taken (an indexed
    letrec).  Otherwise the index doubles: ``G_n = split;(id_E (x) F_n)``
    gives ``F_{n+1} = G_n;chi`` and, by the coassociativity of ``split`` and
    the interchange law, ``G_{n+1} = G_n;Psi`` with
    ``Psi = (split (x) id_!H);assoc_right(E, E, !H);(id_E (x) chi)``
    (``G_n = F_n`` and ``Psi = chi`` when ``exp_ctx`` is empty).  Round ``k``
    sets ``G <- G;Psi^(2^(k-1))`` and reads off the Kleene iterate
    ``F_(2^k) = G;chi``, then squares the power.  Each round checks that the
    iterate is Löwner-above the last one and stops once the two are within
    ``fix_tol``; ``fix_iters`` caps the rounds, so it counts doublings: the
    result is at most ``F_(2^fix_iters)``, and ``F_0`` when it is 0.
    """
    f = route(exp_ctx, [()], cfg).compose(_bang_point(bang_hom))
    if exp_ctx:
        eobj = ctx_obj(exp_ctx, cfg)
        split = route(exp_ctx, [exp_ctx, exp_ctx], cfg)

        def lift(f: Morphism) -> Morphism:
            return split.compose(C.identity(eobj).tensor(f))
    else:
        def lift(f: Morphism) -> Morphism:
            return f
    if bound is not None:
        for _ in range(bound):
            f = lift(f).compose(chi)
        return f

    if exp_ctx:
        psi = (split.tensor(C.identity(bang_hom))
               .compose(C.assoc_right(eobj, eobj, bang_hom))
               .compose(C.identity(eobj).tensor(chi)))
    else:
        psi = chi
    g = lift(f)
    for k in range(cfg.fix_iters):
        if k:
            psi = psi.compose(psi)
        g = g.compose(psi)
        nxt = g.compose(chi)
        if not f.loewner_leq(nxt):
            raise C.NonMonotoneIteration("fixpoint iteration is not Löwner-increasing")
        if nxt.sup_distance(f) <= cfg.fix_tol:
            return nxt
        f = nxt
    return f


# ---------------------------------------------------------------------------
# derivations


@lru_cache(maxsize=4096)
def denote(d: T.Derivation, cfg: TruncationConfig = DEFAULT_CONFIG) -> Morphism:
    """Interpret a typing derivation as ``[[ctx]] -> [[type]]``, once per
    derivation and ``cfg`` in a process (the module docstring says why)."""
    ctx = d.ctx
    match d.rule:
        case "ax":
            x = d.term.name
            t = T.ctx_lookup(ctx, x)
            return route(ctx, [((x, t),)], cfg)

        case "axd":
            x = d.term.name
            t = T.ctx_lookup(ctx, x)
            hom = denote_type(t.underlying, cfg)
            return route(ctx, [((x, t),)], cfg).compose(
                C.dereliction(hom, cfg.bang_max)
            )

        case "ascribe":
            return denote(d.children[0], cfg)

        case "unit_I":
            return route(ctx, [()], cfg)

        case "const":
            return route(ctx, [()], cfg).compose(_const_mor(d.term, d.type, cfg))

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
                body = C.lunit_elim(a).compose(body)
            return C.curry(body, ctx_obj(ctx, cfg), a, b)

        case "loli_E":
            df, da = d.children
            c1, c2 = df.ctx, da.ctx
            a = denote_type(df.type.arg, cfg)
            b = denote_type(df.type.res, cfg)
            return route(ctx, [c1, c2], cfg).compose(
                C.application(denote(df, cfg), denote(da, cfg), a, b))

        case "unit_E":
            ds, db = d.children
            c1, c2 = ds.ctx, db.ctx
            out = denote_type(db.type, cfg)
            return (
                route(ctx, [c1, c2], cfg)
                .compose(denote(ds, cfg).tensor(denote(db, cfg)))
                .compose(C.lunit_elim(out))
            )

        case "tensor_I":
            dl, dr = d.children
            c1, c2 = dl.ctx, dr.ctx
            return route(ctx, [c1, c2], cfg).compose(denote(dl, cfg).tensor(denote(dr, cfg)))

        case "tensor_E":
            ds, db = d.children
            c1, c2 = ds.ctx, db.ctx[:-2]  # the branch binds the pair's two halves
            tens = ds.type
            c2o = ctx_obj(c2, cfg)
            tl, tr = denote_type(tens.left, cfg), denote_type(tens.right, cfg)
            pre = (
                route(ctx, [c2, c1], cfg)
                .compose(C.identity(c2o).tensor(denote(ds, cfg)))
                .compose(C.assoc_left(c2o, tl, tr))
            )
            if not c2:  # the branch context has no unit factor on the left
                pre = pre.compose(C.lunit_elim(tl).tensor(C.identity(tr)))
            return pre.compose(denote(db, cfg))

        case "plus_Il" | "plus_Ir":
            child = d.children[0]
            parts = [denote_type(d.type.left, cfg), denote_type(d.type.right, cfg)]
            i = 0 if d.rule == "plus_Il" else 1
            return denote(child, cfg).compose(C.injection(tuple(parts), i))

        case "plus_E":
            ds, dl, dr = d.children
            c1, c2 = ds.ctx, dl.ctx[:-1]  # the left branch binds the injected value
            c2o = ctx_obj(c2, cfg)
            sum_t = ds.type
            parts = (denote_type(sum_t.left, cfg), denote_type(sum_t.right, cfg))
            sumo = C.biproduct(parts)
            branches = []
            for part, dbr in zip(parts, (dl, dr)):
                b = C.swap(part, c2o)
                if not c2:  # the branch context has no unit factor on the left
                    b = b.compose(C.lunit_elim(part))
                branches.append(b.compose(denote(dbr, cfg)))
            parts_t = tuple(C.tensor_obj(p, c2o) for p in parts)
            return (
                route(ctx, [c2, c1], cfg)
                .compose(C.identity(c2o).tensor(denote(ds, cfg)))
                .compose(C.swap(c2o, sumo))
                .compose(C.distribute_left(c2o, parts))
                .compose(C.cotuple(parts_t, branches))
            )

        case "list_I":
            child = d.children[0]
            elem = denote_type(d.type.elem, cfg)
            return denote(child, cfg).compose(C.list_roll(elem, cfg.list_max))

        case "rec" | "recN":
            return _denote_rec(d, cfg)

    raise DenotationError(f"no interpretation for rule {d.rule}")


def _denote_rec(d: T.Derivation, cfg: TruncationConfig) -> Morphism:
    dbody, dcont = d.children
    ctx = d.ctx
    m: S.LetRec = d.term
    f_ctx = dbody.ctx[:-1]  # the body's context is exp + f + x
    exp = f_ctx[:-1]
    bang_hom = denote_type(S.BangArrow(m.arg_type, m.res_type), cfg)

    # one recursion step chi : [[exp]] (x) !H -> !H
    body = denote(dbody, cfg)  # [[exp + f + x]] -> [[res]]
    phi = C.curry(body, ctx_obj(f_ctx, cfg), denote_type(m.arg_type, cfg),
                  denote_type(m.res_type, cfg))
    chi = _promote_ctx(f_ctx, phi, cfg)

    fix = fixpoint_iterate(exp, chi, bang_hom, cfg, bound=m.bound)

    cont = denote(dcont, cfg)  # [[ctx + f]] -> [[type]]
    co = ctx_obj(ctx, cfg)
    pre = route(ctx, [ctx, exp], cfg).compose(C.identity(co).tensor(fix))
    if not ctx:  # the continuation context has no unit factor on the left
        pre = pre.compose(C.lunit_elim(bang_hom))
    return pre.compose(cont)


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
