"""Concrete-syntax parsing: grammar instances and error reporting."""

import numpy as np
import pytest

import qlam.parser as P
import qlam.syntax as S


def test_unit_literal():
    assert P.parse_term("()") == S.UnitVal()


def test_lambda_meas():
    assert P.parse_term("lam x:qubit. meas x") == \
        S.Abs("x", S.QUBIT, S.App(S.Meas(), S.Var("x")))


def test_sugar_literals():
    assert P.parse_term("tt") == S.tt()
    assert P.parse_term("ff") == S.ff()
    assert P.parse_term("nil") == S.nil()
    assert P.parse_term("cons x nil") == S.cons(S.Var("x"), S.nil())


def test_if_desugars_to_match():
    t = P.parse_term("if c then m else n")
    assert isinstance(t, S.Match)


def test_types():
    assert P.parse_type("qubit -o qubit") == S.LinArrow(S.QUBIT, S.QUBIT)
    assert P.parse_type("!(qubit -o qubit)") == S.BangArrow(S.QUBIT, S.QUBIT)
    assert P.parse_type("bit") == S.BIT
    assert P.parse_type("list[qubit]") == S.ListT(S.QUBIT)
    assert P.parse_type("qubit * unit + unit") == \
        S.SumT(S.TensorT(S.QUBIT, S.UNIT), S.UNIT)


def test_standard_and_inline_gates():
    assert P.parse_term("#H") == S.STANDARD_GATES["H"]
    g = P.parse_term("#U[[0,1],[-1,0]]")
    assert isinstance(g, S.Gate)
    assert np.allclose(g.as_array(), [[0, 1], [-1, 0]])


def test_unknown_gate():
    with pytest.raises(P.QlamSyntaxError):
        P.parse_term("#NOSUCH")


def test_non_unitary_inline_gate():
    with pytest.raises(P.QlamSyntaxError):
        P.parse_term("#U[[1,1],[0,1]]")


def test_non_finite_inline_gate():
    # 1e999 reads as inf
    with pytest.raises(P.QlamSyntaxError, match="non-finite"):
        P.parse_term("#U[[1e999,0.0],[0.0,1.0]]")


def test_syntax_error_has_position():
    with pytest.raises(P.QlamSyntaxError) as exc:
        P.parse_term("lam x:qubit.")
    assert any(ch.isdigit() for ch in str(exc.value))


def test_letrec_bounded_form():
    t = P.parse_term("letrec f(x:unit):unit = f x in f ()")
    assert isinstance(t, S.LetRec) and t.bound is None
    assert t.cont == S.App(S.Var("f"), S.UnitVal())


def test_comments_ignored():
    assert P.parse_term("// comment\n() // trailing") == S.UnitVal()
