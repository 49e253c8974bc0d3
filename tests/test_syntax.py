"""AST, desugaring, substitution, pretty-printer round-trips."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    t = S.subst(S.App(S.Meas(), S.Var("x")), "x", S.Var("y"))
    assert t == S.App(S.Meas(), S.Var("y"))


def test_subst_capture_avoiding():
    # (lam y. x){y/x} must rename the bound y
    t = S.subst(S.Abs("y", S.QUBIT, S.Var("x")), "x", S.Var("y"))
    assert isinstance(t, S.Abs)
    assert t.var != "y"
    assert t.body == S.Var("y")


def test_subst_free_var_equation():
    m = S.Pair(S.Var("x"), S.Abs("z", S.QUBIT, S.Var("x")))
    v = S.Pair(S.Var("a"), S.Var("b"))
    out = S.subst(m, "x", v)
    assert S.free_vars(out) == (S.free_vars(m) - {"x"}) | S.free_vars(v)


def test_gate_validation():
    with pytest.raises(ValueError):
        S.gate("bad", [[1, 1], [0, 1]])  # not unitary
    with pytest.raises(ValueError):
        S.gate("bad", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # not a power of 2
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
