"""AST, desugaring, substitution, free-variable and hash caching, pretty-printer round-trips."""

import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.adequacy as A
import qlam.machine as M
import qlam.parser as P
import qlam.qstate as Q
import qlam.syntax as S

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def test_sugar_constants():
    assert S.tt() == S.InR(S.UnitVal(), ann=S.BIT)
    assert S.ff() == S.InL(S.UnitVal(), ann=S.BIT)
    assert S.nil() == S.InL(S.UnitVal())
    assert S.cons(S.Var("x"), S.nil()) == S.InR(S.Pair(S.Var("x"), S.nil()))
    assert S.BIT == S.SumT(S.UNIT, S.UNIT)


def test_if_sugar_routes_false_through_left():
    t = S.if_term(S.Var("c"), S.Var("m"), S.Var("n"))
    assert isinstance(t, S.Match)
    # left injection is the false branch, right the true branch
    assert t.lbody == S.LetUnit(S.Var(t.lvar), S.Var("n"))
    assert t.rbody == S.LetUnit(S.Var(t.rvar), S.Var("m"))


def test_free_vars():
    assert S.free_vars(S.Abs("x", S.QUBIT, S.Var("x"))) == frozenset()
    assert S.free_vars(S.Pair(S.Var("x"), S.Var("y"))) == {"x", "y"}
    qlist = P.parse_term((PROGRAMS / "qlist.qlam").read_text())
    assert S.free_vars(qlist) == frozenset()


def test_subst_renaming():
    t = S.subst(S.App(S.Meas(), S.Var("x")), {"x": S.Var("y")})
    assert t == S.App(S.Meas(), S.Var("y"))


def test_subst_capture_avoiding():
    # (lam y. x){y/x} must rename the bound y
    t = S.subst(S.Abs("y", S.QUBIT, S.Var("x")), {"x": S.Var("y")})
    assert t == S.Abs("y#1", S.QUBIT, S.Var("y"))
    # both binders of a pair pattern
    yz = S.Pair(S.Var("y"), S.Var("z"))
    t = S.subst(S.LetPair("y", S.UNIT, "z", S.UNIT, S.Var("s"), S.Pair(S.Var("x"), yz)), {"x": yz})
    assert t == S.LetPair("y#1", S.UNIT, "z#1", S.UNIT, S.Var("s"),
                          S.Pair(yz, S.Pair(S.Var("y#1"), S.Var("z#1"))))
    # the recursive binder, renamed in the body and the continuation alike
    loop = S.LetRec("f", S.UNIT, S.UNIT, "u", S.Pair(S.Var("x"), S.Var("f")),
                    S.App(S.Var("f"), S.Var("x")))
    assert S.subst(loop, {"x": S.Var("f")}) == S.LetRec(
        "f#1", S.UNIT, S.UNIT, "u", S.Pair(S.Var("f"), S.Var("f#1")),
        S.App(S.Var("f#1"), S.Var("f")))


def test_subst_free_var_equation():
    m = S.Pair(S.Var("x"), S.Abs("z", S.QUBIT, S.Var("x")))
    v = S.Pair(S.Var("a"), S.Var("b"))
    out = S.subst(m, {"x": v})
    assert S.free_vars(out) == (S.free_vars(m) - {"x"}) | S.free_vars(v)


def _reference_free_vars(m: S.Term) -> set:
    """Free variables recomputed from scratch, reading no cached set."""
    match m:
        case S.Var(x):
            return {x}
        case S.Abs(x, _, b):
            return _reference_free_vars(b) - {x}
        case S.LetPair(x, _, y, _, s, b):
            return _reference_free_vars(s) | (_reference_free_vars(b) - {x, y})
        case S.Match(s, x, _, lb, y, _, rb):
            return (_reference_free_vars(s) | (_reference_free_vars(lb) - {x})
                    | (_reference_free_vars(rb) - {y}))
        case S.LetRec(f, _, _, x, body, cont, _):
            return (_reference_free_vars(body) - {f, x}) | (_reference_free_vars(cont) - {f})
    return set().union(*map(_reference_free_vars, S.subterms(m)))


def _all_subterms(m: S.Term):
    yield m
    for u in S.subterms(m):
        yield from _all_subterms(u)


def _fuzz_terms() -> list:
    return ([A.random_finitary_program(seed, 10) for seed in range(20)]
            + [S.lower_approximant(A.random_letrec_program(seed), 3) for seed in range(10)])


def _reached_terms(term: S.Term, limit: int = 500) -> list:
    """The terms of the closures reached from ``load(term)``, as ``evaluate`` walks them."""
    frontier, seen = [M.load(term)], []
    while frontier and len(seen) < limit:
        c = frontier.pop()
        seen.append(c.term)
        frontier.extend(s.closure for s in M.step(c))
    return seen


def test_cached_free_vars_match_reference():
    for term in _fuzz_terms():
        for reached in [term] + _reached_terms(term):
            for u in _all_subterms(reached):
                assert S.free_vars(u) == _reference_free_vars(u), S.pretty(u)


def test_free_vars_of_a_deep_chain_under_the_default_recursion_limit():
    # a fresh node costs ``free_vars`` one frame
    m = S.Var("x")
    for _ in range(700):
        m = S.App(S.STANDARD_GATES["H"], m)
    assert S.free_vars(m) == {"x"}


def test_subst_shares_subterms_without_the_variable():
    for term in _fuzz_terms():
        for u in _all_subterms(term):
            assert S.subst(u, {"absent": S.Var("y")}) is u
    big = S.Abs("y", S.QUBIT, S.Pair(S.Var("y"), S.Var("z")))
    m = S.Pair(S.Var("x"), big)
    out = S.subst(m, {"x": S.Var("y")})
    assert out == S.Pair(S.Var("y"), big) and out.right is big
    # x is bound in the left arm only: that arm is shared, the right rebuilt
    arms = S.Match(S.Var("c"), "x", S.UNIT, big, "w", S.UNIT, S.Var("x"))
    out = S.subst(arms, {"x": S.UnitVal()})
    assert out.lbody is big and out.rbody == S.UnitVal()


def test_rebuilt_nodes_carry_no_stale_free_vars():
    m = S.Abs("y", S.QUBIT, S.Pair(S.Var("x"), S.Var("y")))
    assert S.free_vars(m) == {"x"} and S.free_vars(m.body) == {"x", "y"}
    assert S.free_vars(replace(m, var="x")) == {"y"}
    assert S.free_vars(replace(m.body, left=S.Var("z"))) == {"z", "y"}
    swapped = S.map_subterms(m.body, lambda t: S.Var("w") if t == S.Var("x") else t)
    assert S.free_vars(swapped) == {"w", "y"}
    assert S.free_vars(S.map_subterms(m, lambda t: swapped)) == {"w"}
    assert S.free_vars(S.subst(m, {"x": S.Var("v")})) == {"v"}


class _Uncached:
    """Stands for a term inside a field tuple with the term's hash recomputed."""

    def __init__(self, m: S.Term):
        self.m = m

    def __hash__(self) -> int:
        return _reference_hash(self.m)


def _reference_hash(m: S.Term) -> int:
    """The dataclass hash of ``m``'s compared fields, reading no cached hash."""
    return hash(tuple(_Uncached(v) if isinstance(v, S.Term) else v
                      for v in (getattr(m, f.name) for f in fields(m) if f.compare)))


def test_cached_hash_matches_reference():
    for term in _fuzz_terms():
        for reached in [term] + _reached_terms(term, limit=100):
            for u in _all_subterms(reached):
                assert hash(u) == _reference_hash(u), S.pretty(u)
                assert u._hash == hash(u)


def test_equal_terms_built_separately_hash_equal():
    text = (PROGRAMS / "qlist.qlam").read_text()
    a, b = P.parse_term(text), P.parse_term(text)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    # reached by substitution or built directly, before or after hashing a part
    m = S.Abs("y", S.QUBIT, S.Pair(S.Var("x"), S.Var("y")))
    hash(m.body)
    built = S.Abs("y", S.QUBIT, S.Pair(S.Var("z"), S.Var("y")))
    assert hash(S.subst(m, {"x": S.Var("z")})) == hash(built)
    assert len({S.subst(m, {"x": S.Var("z")}), built, m}) == 2


def test_rebuilt_nodes_carry_no_stale_hash():
    m = S.Abs("y", S.QUBIT, S.Pair(S.Var("x"), S.Var("y")))
    hash(m)
    assert m._hash is not None and m.body._hash is not None
    rebuilt = [
        replace(m, var="x"),
        replace(m.body, left=S.Var("z")),
        S.map_subterms(m.body, lambda t: S.Var("w") if t == S.Var("x") else t),
        S.subst(m, {"x": S.Var("v")}),
    ]
    for r in rebuilt:
        assert r._hash is None
        assert hash(r) == _reference_hash(r)
    # a pickled copy recomputes its hash, which may differ in another process
    again = pickle.loads(pickle.dumps(m))
    assert again == m and again._hash is None and again.body._hash is None
    assert hash(again) == hash(m)
    # subst rebuilds the path to the occurrence and shares the rest, caches included
    out = S.subst(m, {"x": S.Var("v")})
    assert out.body._hash is None and out.body.right is m.body.right
    assert out.body.right._hash is not None


def _binder_names(m: S.Term) -> set:
    names = set()
    for u in _all_subterms(m):
        match u:
            case S.Abs(x, _, _):
                names.add(x)
            case S.LetPair(x, _, y, _, _, _) | S.Match(_, x, _, _, y, _, _):
                names |= {x, y}
            case S.LetRec(f, _, _, x, _, _, _):
                names |= {f, x}
    return names


def _naive_subst(m: S.Term, x: str, v: S.Term) -> S.Term:
    # correct only when no binder of m is named x or like a free name of v
    return v if m == S.Var(x) else S.map_subterms(m, lambda t: _naive_subst(t, x, v))


def _names_value(m: S.Term) -> S.Term:
    """A pair of variables named like every binder of ``m``."""
    names = sorted(_binder_names(m)) or ["z"]
    v = S.Var(names[0])
    for name in names[1:]:
        v = S.Pair(v, S.Var(name))
    return v


def _naive_simultaneous(m: S.Term, sigma: dict) -> S.Term:
    # through fresh placeholders, so that no substituted term is substituted
    # into; correct under the same condition as ``_naive_subst``
    holes = {x: f"%{x}" for x in sigma}
    for x, hole in holes.items():
        m = _naive_subst(m, x, S.Var(hole))
    for x, hole in holes.items():
        m = _naive_subst(m, hole, sigma[x])
    return m


def test_subst_agrees_with_substitution_after_renaming_every_binder():
    # substitute, for the variable of each binder, a value whose free names
    # are the names of every binder in the body, so that each one captures;
    # and, for two names free in a term with binders, swap them, and
    # substitute for them values that hold each other's names and the binders'
    checked, two_names = 0, 0
    for term in _fuzz_terms():
        for u in _all_subterms(term):
            if isinstance(u, S.Abs) and u.var in S.free_vars(u.body):
                v = _names_value(u.body)
                got = S.subst(u.body, {u.var: v})
                want = _naive_subst(S.alpha_canonical(u.body), u.var, v)
                assert S.alpha_canonical(got) == S.alpha_canonical(want), S.pretty(u)
                assert S.free_vars(got) == _reference_free_vars(got)
                checked += 1
            fv = sorted(S.free_vars(u))
            if len(fv) < 2 or not _binder_names(u):
                continue
            x, y, v = fv[0], fv[1], _names_value(u)
            for sigma in ({x: S.Var(y), y: S.Var(x)},
                          {x: S.Pair(v, S.Var(y)), y: S.Pair(S.Var(x), v)}):
                got = S.subst(u, sigma)
                want = _naive_simultaneous(S.alpha_canonical(u), sigma)
                assert S.alpha_canonical(got) == S.alpha_canonical(want), S.pretty(u)
                assert S.free_vars(got) == _reference_free_vars(got)
                two_names += 1
    assert checked > 50 and two_names > 50


def test_gate_validation():
    with pytest.raises(ValueError):
        S.gate("bad", [[1, 1], [0, 1]])  # not unitary
    with pytest.raises(ValueError):
        S.gate("bad", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # not a power of 2
    with pytest.raises(ValueError, match="at least 2x2"):
        S.gate("bad", [[1]])  # acts on no qubit
    # NaN compares false with any bound, so it is rejected by name
    for x in (float("nan"), float("inf"), complex(0, float("nan"))):
        with pytest.raises(ValueError, match="non-finite"):
            S.gate("bad", [[x, 0], [0, 1]])
    g = S.gate("H", [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]])
    assert g.arity == 1


def test_lower_approximant():
    term = P.parse_term((PROGRAMS / "qlist.qlam").read_text())
    approx = S.lower_approximant(term, 3)
    assert isinstance(approx, S.LetRec) and approx.bound == 3
    # letrec-free terms unchanged
    plain = S.Abs("x", S.QUBIT, S.Var("x"))
    assert S.lower_approximant(plain, 5) == plain


def test_subterms_in_field_order_without_binders():
    m = S.Match(S.Var("s"), "x", S.UNIT, S.Var("l"), "y", S.UNIT, S.Var("r"))
    assert S.subterms(m) == (S.Var("s"), S.Var("l"), S.Var("r"))
    assert S.subterms(S.LetRec("f", S.UNIT, S.UNIT, "x", S.Var("b"), S.Var("c"))) \
        == (S.Var("b"), S.Var("c"))
    assert S.subterms(S.InL(S.UnitVal(), ann=S.BIT)) == (S.UnitVal(),)
    assert S.subterms(S.Var("x")) == () and S.subterms(S.Omega(S.UNIT)) == ()
    assert S.map_subterms(m, lambda t: t) is m
    renamed = S.map_subterms(m, lambda t: S.Var(t.name * 2))
    assert renamed == S.Match(S.Var("ss"), "x", S.UNIT, S.Var("ll"), "y", S.UNIT, S.Var("rr"))
    with pytest.raises(TypeError):
        S.subterms(S.UNIT)


def _asc(t: S.Term) -> S.Term:
    return S.Ascribe(t, S.UNIT)


def test_strip_ascriptions_under_every_binder():
    u = S.UnitVal()

    def build(a):
        match_ = S.Match(a(S.ff()), "l", S.UNIT, a(S.Var("l")), "r", S.UNIT, a(S.Var("r")))
        let_pair = S.LetPair("x", S.UNIT, "y", S.UNIT, a(S.Pair(u, u)),
                             a(S.LetUnit(a(S.Var("x")), a(match_))))
        lam = S.Abs("z", S.UNIT, a(let_pair))
        return S.LetRec("f", S.UNIT, S.UNIT, "w", a(lam), a(S.App(a(S.Var("f")), a(u))))

    assert S.strip_ascriptions(build(_asc)) == build(lambda t: t)
    assert S.strip_ascriptions(_asc(_asc(u))) == u


def test_lower_approximant_bounds_nested_letrecs():
    def loop(f, bound=None):
        return S.LetRec(f, S.UNIT, S.UNIT, "u", S.App(S.Var(f), S.Var("u")), S.Var(f), bound)

    arms = S.Match(S.Var("c"), "l", S.UNIT, loop("h"), "r", S.UNIT, loop("k", bound=1))
    term = S.LetRec("f", S.UNIT, S.UNIT, "x", loop("g"), arms)
    approx = S.lower_approximant(term, 2)
    assert approx.bound == 2
    assert approx.body.bound == 2
    assert approx.cont.lbody.bound == 2
    assert approx.cont.rbody.bound == 1  # an existing bound is kept


def test_alpha_canonical_identifies_renamings():
    a = S.Abs("x", S.QUBIT, S.Var("x"))
    b = S.Abs("y", S.QUBIT, S.Var("y"))
    assert S.alpha_canonical(a) == S.alpha_canonical(b)


def test_alpha_canonical_avoids_free_variable_names():
    # the bound name must not capture a free variable that is named like one
    free = S.Abs("x", S.QUBIT, S.Pair(S.Var("x"), S.Var("_b0")))
    diag = S.Abs("x", S.QUBIT, S.Pair(S.Var("x"), S.Var("x")))
    assert S.alpha_canonical(free) != S.alpha_canonical(diag)
    assert S.free_vars(S.alpha_canonical(free)) == {"_b0"}
    assert S.alpha_canonical(free, {"_b0": "q"}) == \
        S.Abs("_b0", S.QUBIT, S.Pair(S.Var("_b0"), S.Var("q")))


def test_canonical_key_renames_free_variables_at_once():
    # p -> _q0 and _q0 -> _q1 at once; renaming one after the other would
    # turn <p, _q0> into <_q0, _q0> and then into <_q1, _q1>
    state = Q.QState(np.array([1, 0, 0, 0], dtype=complex))
    c = M.Closure(state, (("p", 1), ("_q0", 2)), S.Pair(S.Var("p"), S.Var("_q0")))
    text, n, link_key, _ = M.canonical_key(c)
    assert text == "<_q0, _q1>"
    assert (n, link_key) == (2, (("_q0", 1), ("_q1", 2)))


_NAMES = st.sampled_from(["x", "y", "z", "w"])


@st.composite
def terms(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from(
            [S.UnitVal(), S.tt(), S.ff(), S.Var("x"), S.Meas(), S.New()]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return S.Abs(draw(_NAMES), S.QUBIT, draw(terms(depth=depth - 1)))
    if kind == 1:
        return S.App(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
    if kind == 2:
        return S.Pair(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
    if kind == 3:
        return S.LetUnit(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
    return S.InL(draw(terms(depth=depth - 1)), ann=S.BIT)


@settings(max_examples=200, deadline=None)
@given(terms(), st.sampled_from(["x", "y"]))
def test_subst_and_free_vars_on_random_terms(term, x):
    v = S.Pair(S.Var("y"), S.Var("z"))
    out = S.subst(term, {x: v})
    assert S.free_vars(term) == _reference_free_vars(term)
    assert S.free_vars(out) == _reference_free_vars(out)
    want = _naive_subst(S.alpha_canonical(term), x, v)
    assert S.alpha_canonical(out) == S.alpha_canonical(want)


@settings(max_examples=200, deadline=None)
@given(terms(), st.sampled_from(["x", "y"]))
def test_cached_hash_on_random_terms(term, x):
    out = S.subst(term, {x: S.Pair(S.Var("y"), S.Var("z"))})
    for m in (term, out):
        for u in _all_subterms(m):
            assert hash(u) == _reference_hash(u)
    # a separately built copy hashes the same
    again = P.parse_term(S.pretty(term))
    assert again == term and hash(again) == hash(term)


@settings(max_examples=200, deadline=None)
@given(terms())
def test_pretty_parse_roundtrip(term):
    assert S.alpha_canonical(P.parse_term(S.pretty(term))) == \
        S.alpha_canonical(term)


def test_corpus_roundtrip():
    for path in sorted(PROGRAMS.glob("*.qlam")):
        if path.stem.startswith("ill-"):
            continue
        term = P.parse_term(path.read_text())
        again = P.parse_term(S.pretty(term))
        assert S.alpha_canonical(again) == S.alpha_canonical(term), path
