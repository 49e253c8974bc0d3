"""Concrete-syntax parsing: grammar instances and error reporting."""

import random
from dataclasses import fields

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


def test_bang_types_in_any_position():
    bang = S.BangArrow(S.QUBIT, S.QUBIT)
    assert P.parse_type("!(qubit -o qubit) -o unit") == S.LinArrow(bang, S.UNIT)
    assert P.parse_type("unit + !(qubit -o qubit) * qubit") == \
        S.SumT(S.UNIT, S.TensorT(bang, S.QUBIT))
    assert P.parse_type("!((qubit -o qubit) -o qubit)") == \
        S.BangArrow(S.LinArrow(S.QUBIT, S.QUBIT), S.QUBIT)
    assert P.parse_type("!(qubit -o qubit -o qubit)") == \
        S.BangArrow(S.QUBIT, S.LinArrow(S.QUBIT, S.QUBIT))
    # a !-typed binder prints bare and reads back
    m = P.parse_term("lam h:(!(qubit -o qubit)) -o unit. h")
    assert P.parse_term(S.pretty(m)) == m


def _random_type(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((S.QUBIT, S.UNIT, S.BIT))
    ctor = rng.choice((S.LinArrow, S.BangArrow, S.TensorT, S.SumT, S.ListT))
    if ctor is S.ListT:
        return S.ListT(_random_type(rng, depth - 1))
    return ctor(_random_type(rng, depth - 1), _random_type(rng, depth - 1))


def _bang_positions(t, seen):
    """Add ``(constructor, field)`` for each place a ``!``-type fills in ``t``."""
    for f in fields(t):
        child = getattr(t, f.name)
        if isinstance(child, S.BangArrow):
            seen.add((type(t).__name__, f.name))
        _bang_positions(child, seen)


def test_types_print_and_parse_back():
    rng = random.Random(0)
    seen = set()
    for _ in range(5000):
        t = _random_type(rng, 4)
        assert P.parse_type(str(t)) == t, str(t)
        _bang_positions(t, seen)
    assert seen == {(c.__name__, f.name)
                    for c in (S.LinArrow, S.BangArrow, S.TensorT, S.SumT, S.ListT)
                    for f in fields(c)}


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
    t = P.parse_term("letrec^2 f(x:unit):unit = x in f ()")
    assert isinstance(t, S.LetRec) and t.bound == 2
    assert P.parse_term(S.pretty(t)) == t


@pytest.mark.parametrize("src, entry", [
    ("#U[[0.6,0.8i],[0.8i,0.6]]", 0.8j),
    ("#U[[0.6,-0.48+0.64i],[0.48+0.64i,0.6]]", -0.48 + 0.64j),
])
def test_complex_inline_gates_print_and_parse_back(src, entry):
    g = P.parse_term(src)
    assert g.as_array()[0, 1] == entry
    assert S.pretty(g) == src
    assert P.parse_term(S.pretty(g)) == g


def test_comments_ignored():
    assert P.parse_term("// comment\n() // trailing") == S.UnitVal()


# Malformed inputs with the error each must raise: message, line, column.
MALFORMED = [
    ('term', '', "expected a term, found ''", 1, 1),
    ('term', 'in', "expected a term, found 'in'", 1, 1),
    ('term', 'lam x:qubit.', "expected a term, found ''", 1, 13),
    ('term', 'lam x qubit. x', "expected ':', found 'qubit'", 1, 7),
    ('term', 'lam ( x. x', "expected ')', found 'x'", 1, 7),
    ('term', 'lam <x:qubit y:qubit>. x', "expected ',', found 'y'", 1, 14),
    ('term', 'lam <x:qubit, y:qubit. x', "expected '>', found '.'", 1, 22),
    ('term', 'lam x:qubit x', "expected '.', found 'x'", 1, 13),
    ('term', 'let x:qubit = new ff x', "expected 'in', found ''", 1, 23),
    ('term', 'let () = ()', "expected 'in', found ''", 1, 12),
    ('term', 'let <x:qubit, y:qubit> () in x', "expected '=', found '('", 1, 24),
    ('term', 'let x = () in x', "expected ':', found '='", 1, 7),
    ('term', 'letrec^2.5 f(x:unit):unit = x in f', 'letrec bound must be a natural number', 1, 8),
    ('term', 'letrec^1e3 f(x:unit):unit = x in f', 'letrec bound must be a natural number', 1, 8),
    ('term', 'letrec^ f(x:unit):unit = x in f', "expected 'num', found 'f'", 1, 9),
    ('term', 'letrec f x:unit', "expected '(', found 'x'", 1, 10),
    ('term', 'letrec f(x:unit) unit = x in f', "expected ':', found 'unit'", 1, 18),
    ('term', 'letrec f(x:unit):unit x in f', "expected '=', found 'x'", 1, 23),
    ('term', 'letrec f(x:unit):unit = x', "expected 'in', found ''", 1, 26),
    ('term', 'match x with a:unit', "expected '(', found 'a'", 1, 14),
    ('term', 'match x with (a:unit => a | b:unit -> b)', "expected '->', found '='", 1, 22),
    ('term', 'match x with (a:unit -> a b:unit -> b)', "expected '|', found '->'", 1, 34),
    ('term', 'match x with (a:unit -> a | b:unit -> b', "expected ')', found ''", 1, 40),
    ('term', 'match x (a:unit -> a | b:unit -> b)', "expected ')', found '->'", 1, 17),
    ('term', 'if c then m', "expected 'else', found ''", 1, 12),
    ('term', 'if c m else n', "expected 'then', found 'else'", 1, 8),
    ('term', '#', "expected 'id', found ''", 1, 2),
    ('term', '#NOSUCH', 'unknown gate #NOSUCH', 1, 1),
    ('term', '() #U[[1,1],[0,1]]', 'gate U: matrix is not unitary (deviation 1.000e+00)', 1, 4),
    ('term', '#U[[1,0],[0,1]', "expected ']', found ''", 1, 15),
    ('term', '#U[[1,0] [0,1]]', "expected ']', found '['", 1, 10),
    ('term', '#U[[1+2,0],[0,1]]', 'expected imaginary part after sign', 1, 8),
    ('term', '#U[[x,0],[0,1]]', "expected 'num', found 'x'", 1, 5),
    ('term', '#U[[1e999,0],[0,1]]', 'gate U: matrix has a non-finite entry', 1, 1),
    ('term', '#U[[1,0,0],[0,1,0],[0,0,1]]', 'gate U: dimension 3 is not a power of 2', 1, 1),
    ('term', '#U[1,0]', "expected '[', found '1'", 1, 4),
    ('term', '#U[[-i,0],[0,1]]', "expected 'num', found 'i'", 1, 6),
    ('term', 'x $ y', "unexpected character '$'", 1, 3),
    ('term', '<x, y', "expected '>', found ''", 1, 6),
    ('term', '<x y>', "expected ',', found '>'", 1, 5),
    ('term', '(x', "expected ')', found ''", 1, 3),
    ('term', 'x :', "expected a type, found ''", 1, 4),
    ('term', 'split[qubit', "expected ']', found ''", 1, 12),
    ('term', 'omega qubit', "expected '[', found 'qubit'", 1, 7),
    ('term', 'inl[unit]', "expected a term, found ''", 1, 10),
    ('term', 'x y )', "trailing input starting at ')'", 1, 5),
    ('term', 'lam x:!(qubit). x', "expected '-o', found ')'", 1, 14),
    ('term', 'lam x:list qubit. x', "expected '[', found 'qubit'", 1, 12),
    ('term', 'lam x:qubit.\n  meas x\n  )', "trailing input starting at ')'", 3, 3),
    ('term', '() ;', "expected a term, found ''", 1, 5),
    ('term', 'cons x', "expected a term, found ''", 1, 7),
    ('term', 'lam x:qubit. x : qubit qubit', "trailing input starting at 'qubit'", 1, 24),
    ('term', 'let <x:qubit, y:qubit> = p in\n\n   <y, x', "expected '>', found ''", 3, 9),
    ('term', 'x // comment\n  ]', "trailing input starting at ']'", 2, 3),
    ('type', '', "expected a type, found ''", 1, 1),
    ('type', 'qubit -o', "expected a type, found ''", 1, 9),
    ('type', 'qubit qubit', "trailing input starting at 'qubit'", 1, 7),
    ('type', '!(qubit)', "expected '-o', found ')'", 1, 8),
    ('type', '!(qubit -o qubit', "expected ')', found ''", 1, 17),
    ('type', 'list[qubit', "expected ']', found ''", 1, 11),
    ('type', '(qubit * unit', "expected ')', found ''", 1, 14),
    ('type', 'qubit +', "expected a type, found ''", 1, 8),
    ('type', 'x', "expected a type, found 'x'", 1, 1),
    ('type', 'qubit @', "unexpected character '@'", 1, 7),
    ('type', '! qubit -o qubit', "expected '(', found 'qubit'", 1, 3),
    ('type', 'qubit *\n  -o unit', "expected a type, found '-o'", 2, 3),
    ('type', 'list qubit', "expected '[', found 'qubit'", 1, 6),
]


@pytest.mark.parametrize("entry,src,msg,line,col", MALFORMED)
def test_malformed_input_errors(entry, src, msg, line, col):
    parse = P.parse_term if entry == "term" else P.parse_type
    with pytest.raises(P.QlamSyntaxError) as exc:
        parse(src)
    assert (exc.value.msg, exc.value.line, exc.value.col) == (msg, line, col)
    assert str(exc.value) == f"{line}:{col}: {msg}"
