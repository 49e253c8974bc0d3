"""Linear type checker: rules, context splitting, errors, uniqueness."""

import pickle
from dataclasses import replace
from pathlib import Path

import pytest

import qlam.adequacy as A
import qlam.parser as P
import qlam.syntax as S
import qlam.typecheck as T

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def load(name: str) -> S.Term:
    return P.parse_term((PROGRAMS / f"{name}.qlam").read_text())


def to_text(d: T.Derivation, indent: int = 0) -> str:
    """The derivation as an indented tree, one judgement a line."""
    ctx_s = ", ".join(f"{x}:{t}" for x, t in d.ctx)
    head = f"{'  ' * indent}[{d.rule}] {ctx_s} |- {S.pretty(d.term)} : {d.type}"
    return "\n".join([head] + [to_text(c, indent + 1) for c in d.children])


def err_of(fn):
    with pytest.raises(T.TypingError) as exc:
        fn()
    return str(exc.value).split(":")[0]


def test_teleport_judgement():
    want = P.parse_type(
        "!(unit -o (qubit -o bit * bit) * (bit * bit -o qubit))")
    d = T.typecheck(load("teleport"))
    assert d.type == want


def test_qlist_type():
    term = P.parse_term((PROGRAMS / "qlist.qlam").read_text())
    d = T.typecheck(term, P.parse_type("qubit -o list[qubit]"))
    assert d.type == P.parse_type("qubit -o list[qubit]")


def test_linear_duplication_rejected():
    dup = S.Pair(S.Var("x"), S.Var("x"))
    assert err_of(lambda: T.typecheck(dup, None, (("x", S.QUBIT),))) == \
        "LinearVarDuplicated"


def test_linear_discard_rejected():
    drop = S.Abs("x", S.QUBIT, S.UnitVal())
    assert err_of(lambda: T.typecheck(drop)) == "LinearVarUnused"


@pytest.mark.parametrize("src, code, message", [
    ("() ()", "TypeMismatch", "applied term () has non-function type unit"),
    ("(<(), ()> : unit)", "TypeMismatch", "term <(), ()> has type unit * unit, expected unit"),
    ("let <x:unit, x:unit> = <(), ()> in x", "TypeMismatch", "tensor pattern binds x twice"),
    ("inl ()", "CannotInfer", "injection inl () needs an annotation or an expected sum type"),
    ("((lam x:unit. x) : qubit -o unit)", "TypeMismatch",
     "term lam x:unit. x has type unit, expected qubit"),
    # the branches have types unit and qubit
    ("match (inl[unit + unit] ()) with (a:unit -> a | b:unit -> b; new ff)", "TypeMismatch",
     "has type qubit, expected unit"),
    ("lam x:qubit. lam y:qubit. x", "LinearVarUnused",
     "linear variable y cannot be discarded at x"),
])
def test_typing_errors(src, code, message):
    with pytest.raises(T.TypingError) as exc:
        T.typecheck(P.parse_term(src))
    assert exc.value.code == code and message in exc.value.msg


def test_unbound_variable():
    assert err_of(lambda: T.typecheck(S.Var("nope"))) == "UnboundVariable"


def test_exponential_duplication_allowed():
    # a !-typed variable may be used twice
    ft = S.BangArrow(S.QUBIT, S.QUBIT)
    term = S.Abs("f", ft, S.Pair(S.App(S.Var("f"), S.App(S.New(), S.ff())),
                                 S.App(S.Var("f"), S.App(S.New(), S.ff()))))
    d = T.typecheck(term)
    assert d.type == S.LinArrow(ft, S.TensorT(S.QUBIT, S.QUBIT))


def test_exponential_weakening_allowed():
    ft = S.BangArrow(S.QUBIT, S.QUBIT)
    term = S.Abs("f", ft, S.UnitVal())
    assert T.typecheck(term).type == S.LinArrow(ft, S.UNIT)


def test_promotion_requires_exponential_context():
    # a lambda with a free linear variable cannot be promoted
    term = S.Abs("x", S.QUBIT,
                 S.Ascribe(S.Abs("y", S.UNIT,
                                 S.LetUnit(S.Var("y"), S.Var("x"))),
                           S.BangArrow(S.UNIT, S.QUBIT)))
    assert err_of(lambda: T.typecheck(term)) == "PromotionUnderLinearContext"


def test_promotion_of_value_in_exponential_context():
    inner = S.Abs("x", S.QUBIT, S.Var("x"))
    d = T.typecheck(inner, S.BangArrow(S.QUBIT, S.QUBIT))
    assert d.rule == "promotion"


def test_letrec_binds_bang():
    # the recursion variable is bound at the ! type (and derelicts on use)
    term = P.parse_term("letrec f(x:unit):unit = f x in f")
    d = T.typecheck(term, S.BangArrow(S.UNIT, S.UNIT))
    assert d.type == S.BangArrow(S.UNIT, S.UNIT)
    # synthesis without an expected type yields the derelicted arrow
    assert T.typecheck(term).type == S.LinArrow(S.UNIT, S.UNIT)


def test_derivation_unique():
    a = T.typecheck(load("teleport"))
    b = T.typecheck(load("teleport"))
    assert a == b


def test_derivation_hash_is_cached_and_structural():
    a = T.typecheck(load("teleport"))
    rebuilt = replace(a)
    assert rebuilt is not a and rebuilt._hash is None
    # a copy is equal and hashes alike
    assert rebuilt == a
    assert hash(rebuilt) == hash(a) == hash((a.rule, a.ctx, a.term, a.type, a.children))
    assert rebuilt._hash is not None and a.children[0]._hash is not None
    # another context is another derivation
    lifted = T.typecheck(load("teleport"), None, (("f", S.BangArrow(S.UNIT, S.UNIT)),))
    assert lifted != a
    # a pickled copy recomputes its hash, which may differ in another process
    again = pickle.loads(pickle.dumps(a))
    assert again == a and again._hash is None and again.children[0]._hash is None
    assert hash(again) == hash(a)


def test_check_memo_shares_recurring_derivations():
    # a program checked twice is one root, and a subterm checked twice in one
    # context against one type is one sub-derivation, in one program or two
    T.check.cache_clear()
    a = T.typecheck(load("teleport"))
    assert T.typecheck(load("teleport")) is a
    coin = load("cointoss")
    d = T.typecheck(S.Pair(coin, coin))
    assert d.children[0] is d.children[1] is T.typecheck(coin)
    assert T.typecheck(S.LetUnit(S.UnitVal(), S.Pair(coin, coin))).children[1] is d
    # across the fuzz programs, the 1997 nodes are 375 objects and 364
    # distinct derivations: equal ones are two objects only where calls with
    # different keys built them
    progs = [T.typecheck(A.random_finitary_program(s), S.UNIT) for s in range(20)]
    nodes, stack = [], list(progs)
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1].children)
    assert len({id(n) for n in nodes}) <= 1.05 * len(set(nodes)) < len(nodes) / 5


def test_a_deep_gate_chain_checks_under_the_default_recursion_limit():
    # a nesting level costs the checker the memoized ``check`` frame and the
    # frames of its rule, and a fresh subterm's ``free_vars`` one frame a level
    m = S.App(S.New(), S.ff())
    for _ in range(275):
        m = S.App(S.STANDARD_GATES["H"], m)
    T.check.cache_clear()
    assert T.typecheck(S.App(S.Meas(), m)).type == S.BIT


def test_check_memo_is_exact():
    # a derivation served in part by other programs' memo entries equals the
    # one a cold process builds, and prints alike
    terms = [A.random_finitary_program(s) for s in range(300)]
    terms += [A.random_letrec_program(s) for s in range(50)]
    cold = []
    for m in terms:
        T.check.cache_clear()
        d = T.typecheck(m, S.UNIT)
        cold.append((pickle.dumps(d), to_text(d)))
        del d  # so no node of it is shared with the warm run below
    T.check.cache_clear()
    warm = [T.typecheck(m, S.UNIT) for m in terms]
    assert T.check.cache_info().hits > 1000
    for m, d, (blob, text) in zip(terms, warm, cold):
        assert d == pickle.loads(blob) and to_text(d) == text, S.pretty(m)


def test_memo_keeps_the_list_fallback():
    # checking against a list type first tries the term's own rule, and on a
    # TypingError (never memoized) coerces through the unrolled sum
    lt = S.ListT(S.QUBIT)
    m = S.InL(S.UnitVal(), S.SumT(S.UNIT, S.TensorT(S.QUBIT, lt)))
    T.check.cache_clear()
    d = T.typecheck(m, lt)
    assert d.rule == "list_I"
    assert T.typecheck(m, lt) is d
    T.check.cache_clear()
    assert to_text(T.typecheck(m, lt)) == to_text(d)
    assert [err_of(lambda: T.typecheck(S.Var("x"))) for _ in range(2)] == ["UnboundVariable"] * 2


def test_derivation_serializes():
    text = to_text(T.typecheck(load("cointoss")))
    assert "meas" in text or "const" in text
    assert "|-" in text or ":" in text


def test_split_duplicates_exponentials():
    ft = S.BangArrow(S.UNIT, S.UNIT)
    term = S.Pair(S.App(S.Var("f"), S.UnitVal()),
                  S.App(S.Var("f"), S.UnitVal()))
    d = T.typecheck(term, None, (("f", ft),))
    c1, c2 = (child.ctx for child in d.children)
    assert ("f", ft) in c1 and ("f", ft) in c2


def test_omega_types_anywhere():
    d = T.typecheck(S.Omega(S.QUBIT), S.QUBIT)
    assert d.rule == "omega"


def test_bounded_letrec_rule():
    term = P.parse_term("letrec f(x:unit):unit = f x in f ()")
    bounded = S.lower_approximant(term, 2)
    d = T.typecheck(bounded, S.UNIT)
    node = d
    while node.rule != "recN":
        node = node.children[-1]
    assert node.term.bound == 2


def test_cons_literal_checks_without_printing(monkeypatch):
    # an unannotated cons or nil is a list only through its unrolled sum; a
    # direct attempt would print the whole literal into an error message
    # that the retry swallows, at a cost quadratic in the literal's length
    lst = S.ListT(S.UNIT)
    m = S.nil()
    for _ in range(50):
        m = S.cons(S.UnitVal(), m)
    printed = []
    pretty = S.pretty
    monkeypatch.setattr(S, "pretty", lambda t: printed.append(t) or pretty(t))
    T.check.cache_clear()
    assert T.check((), m, lst).type == lst
    assert printed == []
    # the error that escapes is the retry's, as it always was
    bad = S.cons(S.App(S.New(), S.ff()), S.nil())
    with pytest.raises(T.TypingError) as err:
        T.check((), bad, lst)
    assert str(err.value) == \
        "TypeMismatch: term new (inl[unit + unit] ()) has type qubit, expected unit"


def test_unshadow_avoids_the_free_names_of_the_scope():
    # the letrec's f clashes with the context's; its first fresh candidate,
    # f#1, is the letrec's own parameter, free in the body, so f must skip
    # past it rather than capture the parameter
    ctx = (("f", S.BangArrow(S.UNIT, S.UNIT)),)
    m = S.LetRec("f", S.UNIT, S.UNIT, "f#1", S.App(S.Var("f"), S.Var("f#1")), S.Var("f"))
    T.check.cache_clear()
    d = T.check(ctx, m, None)
    assert (d.term.fname, d.term.var) == ("f#2", "f#1")
    assert S.free_vars(d.children[0].term) == {"f#2", "f#1"}
    assert S.pretty(d.term) == "letrec f#2(f#1:unit):unit = f#2 f#1 in f#2"
