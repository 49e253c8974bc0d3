"""Adequacy harness: generators, consumers, biased coins, fuzz plumbing, and
adequacy at the density level for gates that are neither real nor symmetric."""

import dataclasses

import numpy as np
import pytest

import qlam.adequacy as A
import qlam.cpm as C
import qlam.denote as D
import qlam.machine as M
import qlam.qstate as Q
import qlam.syntax as S
import qlam.typecheck as T


def prob_of(dist: M.Distribution, term: S.Term) -> float:
    """The mass of ``dist``'s outcomes whose term is ``term`` up to renaming."""
    want = S.pretty(S.alpha_canonical(term))
    return sum(o.prob for o in dist.outcomes.values()
               if S.pretty(S.alpha_canonical(o.closure.term)) == want)


def test_consume_bit_of_cointoss():
    rep = A.check_adequacy(S.App(A.consume_term(S.BIT), A.COIN))
    assert rep.verdict == "PASS"
    assert rep.denot == pytest.approx(1.0, abs=1e-9)
    assert rep.halt_lower == pytest.approx(1.0, abs=1e-9)


def test_omega_adequacy():
    rep = A.check_adequacy(S.Omega(S.UNIT))
    assert rep.verdict == "PASS"
    assert rep.denot == 0.0 and rep.halt_lower == 0.0


def test_coin_guarded_omega():
    term = S.if_term(A.COIN, S.UnitVal(), S.Omega(S.UNIT))
    rep = A.check_adequacy(term)
    assert rep.verdict == "PASS"
    assert rep.denot == pytest.approx(0.5, abs=1e-9)
    assert rep.halt_lower == pytest.approx(0.5, abs=1e-9)


def test_not_unit_type():
    with pytest.raises(A.NotUnitType):
        A.check_adequacy(S.tt())


def test_not_closed():
    with pytest.raises(A.NotClosed):
        A.check_adequacy(S.Var("x"))


def test_not_unit_type_names_the_program_type(monkeypatch):
    # a program with no type raises its own error, not a mismatch with unit
    dup = S.Abs("x", S.QUBIT, S.Pair(S.Var("x"), S.Var("x")))
    with pytest.raises(T.TypingError, match="^LinearVarDuplicated: "):
        A.check_adequacy(dup)
    # one of another type names that type, not the term
    with pytest.raises(A.NotUnitType, match=r"^the program has type unit \+ unit, expected unit$"):
        A.check_adequacy(S.tt())
    # a check against unit that fails where synthesis gives unit keeps its error
    typecheck = T.typecheck

    def failing(m, expected=None, ctx=()):
        if expected == S.UNIT:
            raise T.TypingError("Probe", "the check against unit")
        return typecheck(m, expected, ctx)

    monkeypatch.setattr(T, "typecheck", failing)
    with pytest.raises(A.NotUnitType, match="^Probe: the check against unit$"):
        A.scalar_denotation(S.UnitVal())


# -- the memo of check_adequacy

LETREC_CFG = D.TruncationConfig(list_max=2, bang_max=2, fix_iters=2000, fix_tol=1e-12)


def _fields(rep):
    return dataclasses.astuple(rep) + (rep.line(),)


def _memo_cases():
    """``(build, cfg, max_steps)``, with ``build`` making the program anew."""
    cases = [(lambda s=seed: A.random_finitary_program(s, 10), D.DEFAULT_CONFIG, 2000)
             for seed in range(300)]
    cases += [(lambda s=seed: A.random_letrec_program(s), LETREC_CFG, 300) for seed in range(200)]
    # one program at three budgets, and at three fixpoint bounds
    letrec = lambda: A.random_letrec_program(0)  # noqa: E731
    cases += [(letrec, LETREC_CFG, max_steps) for max_steps in (20, 40, 60)]
    cases += [(letrec, D.TruncationConfig(fix_iters=n), 300) for n in (1, 2, 2000)]
    return cases


def test_memo_returns_what_a_cold_call_computes():
    cases = _memo_cases()
    cold = []
    for build, cfg, max_steps in cases:
        A._check_adequacy.cache_clear()
        cold.append(_fields(A.check_adequacy(build(), cfg, max_steps)))
    # the cases differ where their keys do
    assert len(set(cold[-6:])) == 6
    A._check_adequacy.cache_clear()
    for (build, cfg, max_steps), want in zip(cases, cold):
        hits = A._check_adequacy.cache_info().hits
        term = build()
        assert _fields(A.check_adequacy(term, cfg, max_steps)) == want
        # rebuilt from its seed, the program is equal but another object, and
        # the second call, at least, is served by the memo
        again = build()
        assert again == term and again is not term
        assert _fields(A.check_adequacy(again, cfg, max_steps)) == want
        assert A._check_adequacy.cache_info().hits > hits


def test_call_forms_share_one_entry():
    A._check_adequacy.cache_clear()
    term = A.random_finitary_program(3, 10)
    reps = [A.check_adequacy(term),
            A.check_adequacy(term, D.DEFAULT_CONFIG, 2000),
            A.check_adequacy(term, cfg=D.DEFAULT_CONFIG, max_steps=2000)]
    assert reps[1] is reps[0] and reps[2] is reps[0]
    info = A._check_adequacy.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def test_memo_hands_out_one_frozen_report():
    A._check_adequacy.cache_clear()
    term = S.App(A.consume_term(S.BIT), A.COIN)
    rep = A.check_adequacy(term)
    assert A.check_adequacy(term) is rep
    # its fields are immutable scalars, so no caller can change what the next
    # one is handed
    for f in dataclasses.fields(rep):
        assert type(getattr(rep, f.name)) in (str, int, float, bool), f.name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, f.name, getattr(rep, f.name))
    assert rep.line() == A.check_adequacy(S.App(A.consume_term(S.BIT), A.COIN)).line()


def test_memo_keeps_no_error(monkeypatch):
    A._check_adequacy.cache_clear()  # a report kept under the default cap would not raise
    coin = S.App(A.consume_term(S.BIT), A.COIN)
    monkeypatch.setattr(M, "MAX_FRONTIER", 1)
    for term, error in ((S.Var("x"), A.NotClosed), (S.tt(), A.NotUnitType),
                        (coin, M.FrontierTooLarge)):
        for _ in range(2):  # a call that raises keeps nothing, so the next raises too
            with pytest.raises(error):
                A.check_adequacy(term)
    assert A._check_adequacy.cache_info().currsize == 0
    monkeypatch.undo()
    assert A.check_adequacy(coin).verdict == "PASS"


def test_negative_budget_raises_before_the_lookup():
    A._check_adequacy.cache_clear()
    info = A._check_adequacy.cache_info()
    with pytest.raises(M.MachineError, match="^step budget must be nonnegative, got -1$"):
        A.check_adequacy(S.UnitVal(), max_steps=-1)
    assert A._check_adequacy.cache_info() == info


def test_memo_drops_the_least_recently_used_first():
    A._check_adequacy.cache_clear()
    size = A._check_adequacy.cache_info().maxsize
    term = S.UnitVal()
    for n in range(size):  # one entry per budget
        A.check_adequacy(term, max_steps=n)
    A.check_adequacy(term, max_steps=0)  # a hit makes its entry the most recent
    A.check_adequacy(term, max_steps=size)  # so this one drops budget 1's
    info = A._check_adequacy.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, size + 1, size)
    for n in [0, *range(2, size + 1)]:
        A.check_adequacy(term, max_steps=n)
    assert A._check_adequacy.cache_info().hits == info.hits + size
    A.check_adequacy(term, max_steps=1)
    assert A._check_adequacy.cache_info().misses == info.misses + 1


def test_generator_shapes():
    assert A.generate_term(S.QUBIT) == S.lam_unit(S.App(S.New(), S.ff()))
    c = A.consume_term(S.QUBIT)
    assert isinstance(c, S.Abs) and isinstance(c.body, S.Match)


GC_TYPES = [
    S.QUBIT, S.UNIT, S.BIT,
    S.LinArrow(S.QUBIT, S.QUBIT),
    S.TensorT(S.QUBIT, S.BIT),
    S.SumT(S.QUBIT, S.UNIT),
    S.BangArrow(S.QUBIT, S.QUBIT),
    S.ListT(S.QUBIT),
    S.LinArrow(S.BIT, S.TensorT(S.UNIT, S.QUBIT)),
]


@pytest.mark.parametrize("ty", GC_TYPES, ids=str)
def test_generate_consume_typecheck(ty):
    T.typecheck(A.generate_term(ty), S.LinArrow(S.UNIT, ty))
    T.typecheck(A.consume_term(ty), S.LinArrow(ty, S.UNIT))


NONZERO_TYPES = [
    S.QUBIT, S.UNIT, S.BIT,
    S.LinArrow(S.QUBIT, S.QUBIT),
    S.TensorT(S.QUBIT, S.QUBIT),
    S.SumT(S.UNIT, S.QUBIT),
    S.TensorT(S.BIT, S.BIT),
]


@pytest.mark.parametrize("ty", NONZERO_TYPES, ids=str)
def test_nonzero_representability(ty):
    cfg = D.TruncationConfig(list_max=2, bang_max=2)
    term = S.App(A.generate_term(ty), S.UnitVal())
    mor = D.denote(T.typecheck(term, ty), cfg)
    assert max(map(C._maxabs, mor.entries.values()), default=0.0) > 1e-9


def test_biased_coin_denotation():
    for rho in (0.0, 0.25, 0.5, 1.0):
        term = A.biased_coin(rho)
        mor = D.denote(T.typecheck(term, S.BIT), D.DEFAULT_CONFIG)
        src0 = mor.src.labels()[0]

        def prob(i):
            e = mor.entries.get((src0, ("inj", i, ("star",))))
            return 0.0 if e is None else float(np.real(e[0, 0]))

        assert prob(0) == pytest.approx(rho, abs=1e-12)
        assert prob(1) == pytest.approx(1 - rho, abs=1e-12)


def test_biased_coin_operational():
    dist = M.evaluate(M.load(A.biased_coin(0.25)))
    assert prob_of(dist, S.ff()) == pytest.approx(0.25, abs=1e-12)
    assert prob_of(dist, S.tt()) == pytest.approx(0.75, abs=1e-12)


def test_biased_coin_sampled_band():
    n = 4000
    hits = sum(M.sample(M.load(A.biased_coin(0.25)), seed).final.term
               == S.ff() for seed in range(n))
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(hits / n - 0.25) < 3 * sigma


def test_biased_coin_extremes():
    assert prob_of(M.evaluate(M.load(A.biased_coin(1.0))), S.ff()) == 1.0
    with pytest.raises(ValueError):
        A.biased_coin(1.5)


def test_random_finitary_is_finitary_and_typechecks():
    for seed in range(25):
        term = A.random_finitary_program(seed, 10)
        assert A.is_finitary(term)
        T.typecheck(term, S.UNIT)


def test_random_finitary_deterministic():
    assert A.random_finitary_program(3, 10) == A.random_finitary_program(3, 10)


def test_unbounded_letrec_in_match_arm_is_not_finitary():
    loop = S.LetRec("f", S.UNIT, S.UNIT, "u", S.App(S.Var("f"), S.Var("u")), S.Var("f"))
    term = S.if_term(A.COIN, S.UnitVal(), S.App(loop, S.UnitVal()))
    assert not A.is_finitary(term)
    assert A.is_finitary(S.lower_approximant(term, 2))


def test_random_letrec_is_not_finitary():
    for seed in range(10):
        term = A.random_letrec_program(seed)
        assert not A.is_finitary(term)
        T.typecheck(term, S.UNIT)


def test_fuzz_sample_passes():
    for seed in range(20):
        rep = A.check_adequacy(A.random_finitary_program(seed, 8))
        assert rep.verdict == "PASS", rep.line()


def test_letrec_sandwich_sample():
    cfg = D.TruncationConfig(list_max=2, bang_max=2,
                             fix_iters=2000, fix_tol=1e-12)
    for seed in range(8):
        rep = A.check_adequacy(A.random_letrec_program(seed), cfg,
                               max_steps=300)
        assert rep.verdict == "PASS", rep.line()
        assert (rep.halt_lower - 1e-6 <= rep.denot
                <= rep.halt_lower + rep.residual + 1e-6)


def test_approximant_denotations_nondecreasing():
    # denotation at letrec^n grows monotonically toward the fixpoint value
    term = A.random_letrec_program(0)
    cfg = D.TruncationConfig(fix_iters=200, fix_tol=1e-14)
    vals = [A.scalar_denotation(S.lower_approximant(term, n), cfg)
            for n in (0, 1, 2, 4, 8)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    assert vals[-1] <= A.scalar_denotation(term, cfg) + 1e-9


def test_truncation_monotone():
    # a closed unit program's truncated denotation is a sum of positive
    # terms, so it cannot decrease as the list, ! and fixpoint bounds grow;
    # fix_iters counts doublings, so 1, 3, 5, 7 reach Kleene index 2, 8, 32, 128
    finitary = [D.TruncationConfig(list_max=l, bang_max=k)
                for l, k in ((0, 0), (1, 1), (2, 1), (2, 2), (3, 2))]
    letrec = [D.TruncationConfig(list_max=l, bang_max=k, fix_iters=n)
              for l, k, n in ((1, 1, 1), (2, 1, 3), (2, 2, 5), (2, 2, 7))]
    cases = ([(A.random_finitary_program(s), finitary) for s in range(20)]
             + [(A.random_letrec_program(s), letrec) for s in range(10)])
    for term, cfgs in cases:
        vals = [A.scalar_denotation(term, cfg) for cfg in cfgs]
        for cfg, lo, hi in zip(cfgs[1:], vals, vals[1:]):
            assert hi >= lo - 1e-12, (S.pretty(term), cfg, vals)


def _haar(d: int, seed: int) -> np.ndarray:
    """A Haar-random d x d unitary: QR of a seeded complex Gaussian, with the
    phases of R's diagonal moved into Q."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n_qubits, seed", [(1, 41), (2, 43)])
def test_haar_gate_density_adequacy(n_qubits, seed):
    # a gate that is neither real nor symmetric, so that denoting or running
    # it with U^T or conj(U) changes the output density
    u = _haar(2 ** n_qubits, seed)
    assert np.abs(u - u.T).max() > 0.1 and np.abs(u.imag).max() > 0.1
    rng = np.random.default_rng(seed + 1)
    amps = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    names = ["x", "y"][:n_qubits]
    arg = S.Var("x") if n_qubits == 1 else S.Pair(S.Var("x"), S.Var("y"))
    start = M.Closure(Q.QState(amps / np.linalg.norm(amps)),
                      tuple((x, i + 1) for i, x in enumerate(names)),
                      S.App(S.gate("U", u), arg))
    want = D.denote_closure(start)
    # the machine's outcome mixture, each halting value as its density
    got = {}
    for o in M.evaluate(start).outcomes.values():
        for label, rho in D.denote_closure(o.closure).items():
            got[label] = got.get(label, 0) + o.prob * C._dense(rho)
    assert want.keys() == got.keys()
    for label, rho in want.items():
        assert np.abs(C._dense(rho) - got[label]).max() <= 1e-12, label
