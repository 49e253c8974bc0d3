"""Abstract machine: steps, distributions, sampling, finitary machinery."""

import random
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qlam.adequacy as A
import qlam.machine as M
import qlam.parser as P
import qlam.qstate as Q
import qlam.syntax as S
import qlam.typecheck as T

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def load(name: str) -> S.Term:
    return P.parse_term((PROGRAMS / f"{name}.qlam").read_text())


def prob_of(dist: M.Distribution, term: S.Term) -> float:
    """The mass of ``dist``'s outcomes whose term is ``term`` up to renaming."""
    want = S.pretty(S.alpha_canonical(term))
    return sum(o.prob for o in dist.outcomes.values()
               if S.pretty(S.alpha_canonical(o.closure.term)) == want)


def test_beta_step():
    c = M.load(S.App(S.Abs("x", S.UNIT, S.Var("x")), S.UnitVal()))
    (step,) = M.step(c)
    assert step.prob == 1.0 and step.closure.term == S.UnitVal()
    assert step.rule == "beta"


def test_measurement_branches():
    a, b = 0.6, 0.8j
    c = M.Closure(Q.QState(np.array([a, b])), (("x", 1),),
                  S.App(S.Meas(), S.Var("x")))
    s0, s1 = M.step(c)
    assert s0.prob == pytest.approx(abs(a) ** 2)
    assert s0.closure.term == S.ff()
    assert s1.prob == pytest.approx(abs(b) ** 2)
    assert s1.closure.term == S.tt()
    assert s0.closure.num_qubits == 0
    # on |1>, outcome 0 cannot occur, and the one left still leads to tt
    (s1,) = M.step(replace(c, state=Q.append_qubit(Q.EMPTY, 1)))
    assert s1.prob == 1.0 and s1.closure.term == S.tt()


def test_discarding_a_definite_orphan_keeps_one_branch():
    # x, w, y hold |+>, |0>, |1>
    plus = Q.apply_unitary(Q.append_qubit(Q.EMPTY, 0), S.STANDARD_GATES["H"].as_array(), [1])
    state = Q.append_qubit(Q.append_qubit(plus, 0), 1)
    link = {"x": 1, "w": 2, "y": 3}
    # y's qubit is |1>, so measuring it out keeps one branch, with all the
    # parent's mass
    ((p, st, lk),) = M._discard_orphans(0.375, state, link, S.Pair(S.Var("x"), S.Var("w")))
    assert p == pytest.approx(0.375, abs=1e-15) and lk == {"x": 1, "w": 2}
    assert np.allclose(st.amps, Q.append_qubit(plus, 0).amps)
    # x's qubit is |+>: two branches of half the mass, and w and y move down
    branches = M._discard_orphans(0.375, state, link, S.Pair(S.Var("w"), S.Var("y")))
    assert [lk for _, _, lk in branches] == [{"w": 1, "y": 2}] * 2
    assert sum(p for p, _, _ in branches) == pytest.approx(0.375, abs=1e-15)
    # and through step: a beta step whose body drops its linked argument
    c = M.Closure(Q.append_qubit(Q.EMPTY, 1), (("x", 1),),
                  S.App(S.Abs("q", S.QUBIT, S.Omega(S.UNIT)), S.Var("x")))
    (s,) = M.step(c)
    assert s.prob == 1.0 and s.closure.linking == () and s.closure.num_qubits == 0


def test_entangle_trace():
    a, b = 0.6, 0.8j
    term = S.App(load("entangle"), S.Var("x"))
    cl = M.Closure(Q.QState(np.array([a, b])), (("x", 1),), term)
    while True:
        succs = M.step(cl)
        if not succs:
            break
        (s,) = succs
        assert s.prob == 1.0
        cl = s.closure
    assert isinstance(cl.term, S.Pair)
    want = np.array([a, 0, 0, b])
    assert np.max(np.abs(cl.state.amps - want)) < 1e-12


def test_cointoss_distribution():
    dist = M.evaluate(M.load(load("cointoss")))
    assert dist.residual == 0.0
    assert prob_of(dist, S.tt()) == pytest.approx(0.5, abs=1e-12)
    assert prob_of(dist, S.ff()) == pytest.approx(0.5, abs=1e-12)


def test_omega_residual():
    dist = M.evaluate(M.load(load("omega")), max_steps=100)
    assert not dist.outcomes
    assert dist.residual == pytest.approx(1.0)


def test_blocked_mass():
    dist = M.evaluate(M.load(S.Omega(S.UNIT)))
    assert dist.blocked == 1.0 and dist.residual == 0.0


def test_new_then_meas_deterministic():
    term = S.App(S.Meas(), S.App(S.New(), S.ff()))
    for seed in range(20):
        trace = M.sample(M.load(term), seed)
        assert trace.final.term == S.ff()


def test_sample_reproducible():
    term = load("cointoss")
    a = M.sample(M.load(term), 7)
    b = M.sample(M.load(term), 7)
    assert S.pretty(a.final.term) == S.pretty(b.final.term)
    # qubit names included: a run does not depend on the runs before it
    assert [(r, S.pretty(c.term)) for r, _, c in a.steps] == \
        [(r, S.pretty(c.term)) for r, _, c in b.steps]


def _is_blocked(m: S.Term) -> bool:
    """Whether the next redex of ``m``, followed down the evaluation order,
    is an exhausted letrec's omega."""
    while True:
        names = [n for n, _ in _EVAL_ORDER.get(type(m), ()) if not S.is_value(getattr(m, n))]
        if not names:
            return isinstance(m, S.Omega)
        m = getattr(m, names[0])


def test_is_blocked_follows_the_evaluation_order():
    omega = S.Omega(S.UNIT)
    cases = [
        (omega, True),
        (S.Pair(S.UnitVal(), omega), True),
        (S.App(S.Abs("x", S.UNIT, S.Var("x")), omega), True),
        # omega under a binder, or after a redex that is not blocked, is not next
        (S.Abs("x", S.UNIT, omega), False),
        (S.Pair(S.App(S.New(), S.ff()), omega), False),
        (S.UnitVal(), False),
    ]
    for term, blocked in cases:
        assert _is_blocked(term) == blocked
        # the machine's normal forms are the values and the blocked terms
        c = M.load(term)
        succs = M.step(c)
        assert (not succs and not S.is_value(term)) == blocked
        assert all(_is_blocked(s.closure.term) for s in succs)
        dist = M.evaluate(c)
        assert dist.blocked == (1.0 if blocked or succs else 0.0)
        assert dist.halt_mass == 1.0 - dist.blocked


@pytest.mark.parametrize("linking, message", [
    ((("y", 1),), r"linking domain \['y'\] != free variables \['x'\]"),
    ((("x", 2),), r"linking positions \[2\] do not enumerate 1\.\.1"),
    # a repeated pair is two pairs for one qubit
    ((("x", 1), ("x", 1)), r"linking domain \['x', 'x'\] != free variables \['x'\]"),
])
def test_erroneous_linking(linking, message):
    qubit = Q.QState(np.array([1.0, 0.0]))
    assert M.load(S.Var("x"), qubit, (("x", 1),)).linking == (("x", 1),)
    with pytest.raises(M.ErroneousLinking, match=message):
        M.load(S.Var("x"), qubit, linking)


def test_split_consumes_a_generated_list():
    # generate_term's list has a coin-chosen length, which consume_term takes
    # apart with split; check_adequacy is not run here, since the L4/K2
    # denotation of this program does not fit in memory
    lst = S.ListT(S.QUBIT)
    term = S.App(A.consume_term(lst), S.App(A.generate_term(lst), S.UnitVal()))
    T.typecheck(term)
    for seed in range(10):
        trace = M.sample(M.load(term), seed)
        assert "split" in [rule for rule, _, _ in trace.steps]
        assert not trace.timed_out
        assert trace.final.term == S.UnitVal() and trace.final.num_qubits == 0


def test_sample_frequency_band():
    term = load("cointoss")
    hits = sum(M.sample(M.load(term), seed).final.term == S.tt()
               for seed in range(4000))
    # binomial three-sigma band around 1/2 for 4000 trials
    assert abs(hits / 4000 - 0.5) < 3 * 0.5 / np.sqrt(4000)


def test_halt_probability():
    dist = M.evaluate(M.load(load("cointoss")))
    assert dist.halt_mass == pytest.approx(1.0, abs=1e-12) and dist.residual == 0.0
    dist = M.evaluate(M.load(load("omega")), max_steps=50)
    assert dist.halt_mass == 0.0 and dist.residual == pytest.approx(1.0)
    trace = M.sample(M.load(load("omega")), 0, max_steps=5)
    assert trace.timed_out and len(trace.steps) == 5
    assert trace.final is trace.steps[-1][2]


def test_dimension_bookkeeping():
    # along every step, qubit-count change equals linking-size change
    cl = M.load(load("teleport-roundtrip"))
    frontier = [cl]
    checked = 0
    while frontier and checked < 200:
        cur = frontier.pop()
        for s in M.step(cur):
            d_q = s.closure.num_qubits - cur.num_qubits
            d_l = len(s.closure.linking) - len(cur.linking)
            assert d_q == d_l
            frontier.append(s.closure)
        checked += 1


def test_letrec_zero_blocks():
    term = P.parse_term("letrec f(x:unit):unit = f x in f ()")
    bounded = S.lower_approximant(term, 0)
    dist = M.evaluate(M.load(bounded))
    assert dist.blocked == pytest.approx(1.0)
    assert dist.residual == 0.0


def test_bounded_qlist_terminates():
    bounded = S.lower_approximant(load("qlist-run"), 3)
    dist = M.evaluate(M.load(bounded), max_steps=200)
    assert dist.residual == 0.0
    # lengths 1..3 as usual; the remaining 2^-3 mass blocks on omega
    assert dist.halt_mass == pytest.approx(1 - 2.0 ** -3)
    assert dist.blocked == pytest.approx(2.0 ** -3)


def test_monotone_in_max_steps():
    term = load("qlist-run")
    prev = 0.0
    for ms in (20, 40, 60, 80):
        dist = M.evaluate(M.load(term), max_steps=ms)
        assert dist.halt_mass >= prev - 1e-12
        prev = dist.halt_mass


def _total_mass(dist) -> float:
    return dist.halt_mass + dist.blocked + dist.residual + dist.pruned


def test_pruned_branches_are_accounted():
    # the tt branch of the measurement has probability 1e-13 <= M.PRUNE_EPS
    s = 1e-13 ** 0.5
    c = (1 - 1e-13) ** 0.5
    term = P.parse_term(
        f"if meas (#U[[{c!r},{-s!r}],[{s!r},{c!r}]] (new ff)) then omega[unit] else ()")
    dist = M.evaluate(M.load(term))
    assert dist.blocked == 0.0 and dist.residual == 0.0
    assert dist.pruned == pytest.approx(1e-13, rel=1e-6)
    assert _total_mass(dist) == pytest.approx(1.0, abs=1e-15)


def test_four_masses_sum_to_one():
    terms = [A.random_finitary_program(seed, 10) for seed in range(50)]
    terms += [S.lower_approximant(A.random_letrec_program(seed), 3) for seed in range(30)]
    for i, term in enumerate(terms):
        dist = M.evaluate(M.load(term), max_steps=2000)
        assert abs(_total_mass(dist) - 1.0) <= 1e-12, i


def test_qubit_cap(monkeypatch):
    term = P.parse_term("<new ff, <new tt, new ff>>")
    monkeypatch.setattr(M, "MAX_QUBITS", 2)
    for run in (M.evaluate, lambda c: M.sample(c, 0)):
        with pytest.raises(M.TooManyQubits, match="qubit 3 beyond the cap of 2"):
            run(M.load(term))
    # reaching the cap is allowed
    assert M.sample(M.load(P.parse_term("<new ff, new tt>")), 0).final.num_qubits == 2
    monkeypatch.setattr(M, "MAX_QUBITS", 3)
    (_, outcome), = M.evaluate(M.load(term)).outcomes.items()
    assert outcome.closure.num_qubits == 3
    assert M.sample(M.load(term), 0).final.num_qubits == 3


# ---------------------------------------------------------------------------
# The substitution machine, kept as the reference semantics: each step finds
# the redex of the whole term down the evaluation order, substitutes, and
# rebuilds the term around the result.


@dataclass(frozen=True)
class _RefClosure:
    state: Q.QState
    linking: tuple
    term: S.Term

    link_map = M.Closure.link_map
    num_qubits = M.Closure.num_qubits


# Call-by-value evaluation order: the fields of each node that reduce to
# values, left to right, before the node itself is a redex or a value.  Each
# field comes with the constructor call that rebuilds the node around a new
# value of it.
_EVAL_ORDER = {
    S.App: (("fn", lambda m, v: S.App(v, m.arg)), ("arg", lambda m, v: S.App(m.fn, v))),
    S.Pair: (("left", lambda m, v: S.Pair(v, m.right)), ("right", lambda m, v: S.Pair(m.left, v))),
    S.InL: (("body", lambda m, v: S.InL(v, m.ann)),),
    S.InR: (("body", lambda m, v: S.InR(v, m.ann)),),
    S.LetUnit: (("subject", lambda m, v: S.LetUnit(v, m.body)),),
    S.LetPair: (("subject", lambda m, v: S.LetPair(m.lvar, m.ltype, m.rvar, m.rtype, v, m.body)),),
    S.Match: (("subject", lambda m, v: S.Match(v, m.lvar, m.ltype, m.lbody,
                                               m.rvar, m.rtype, m.rbody)),),
}


def _unfold_letrec(m: S.LetRec) -> S.Term:
    """One unfolding of the recursive binder inside the body."""
    f, x = m.fname, m.var
    if m.bound is None:
        wrapped = S.Abs(x, m.arg_type, S.LetRec(f, m.arg_type, m.res_type, x, m.body, m.body, None))
    elif m.bound == 0:
        wrapped = S.Abs(x, m.arg_type, S.Omega(m.res_type))
    else:
        wrapped = S.Abs(x, m.arg_type, S.LetRec(f, m.arg_type, m.res_type, x, m.body, m.body,
                                                m.bound - 1))
    return S.subst(m.cont, {f: wrapped})


def _redex_plan(m: S.Term, linked: frozenset):
    """``(rule, op, successor terms)`` of ``m``, whose linked variables are
    ``linked``: ``op`` is ``(bit, fresh name)`` for ``new``, ``(matrix,
    variable names)`` for ``unitary``, the measured variable for ``meas``
    (whose successors are ff then tt) and None otherwise; a normal form has
    rule None and no successors."""
    for name, rebuild in _EVAL_ORDER.get(type(m), ()):
        sub = getattr(m, name)
        if not S.is_value(sub):
            rule, op, terms = _redex_plan(sub, linked)
            return rule, op, tuple(rebuild(m, m2) for m2 in terms)
    match m:
        case S.App(S.Abs(x, _, body), a):
            return "beta", None, (S.subst(body, {x: a}),)
        case S.App(S.Split(), a):
            return "split", None, (a,)
        case S.App(S.New(), a):
            y = S.fresh_name(f"q{len(linked) + 1}", linked)
            return "new", (M._bit_value(a), y), (S.Var(y),)
        case S.App(S.Meas(), a):
            if not isinstance(a, S.Var):
                raise M.StuckTerm(f"meas argument {S.pretty(a)} is not a qubit variable")
            return "meas", a.name, (S.ff(), S.tt())
        case S.App(S.Gate(_, arity, _) as g, a):
            names = M._tensor_vars(a)
            if len(names) != arity:
                raise M.StuckTerm(f"gate expects {arity} qubits, got {len(names)}")
            return "unitary", (g.as_array(), tuple(names)), (a,)
        case S.App(f, _):
            raise M.StuckTerm(f"cannot apply {S.pretty(f)}")
        case S.LetUnit(s, b):
            if not isinstance(s, S.UnitVal):
                raise M.StuckTerm(f"let () subject is {S.pretty(s)}")
            return "let_unit", None, (b,)
        case S.LetPair(x, _, y, _, s, b):
            if not isinstance(s, S.Pair):
                raise M.StuckTerm(f"let <,> subject is {S.pretty(s)}")
            return "let_tensor", None, (S.subst(b, {x: s.left, y: s.right}),)
        case S.Match(S.InL(v, _), x, _, lb, _, _, _):
            return "match_inl", None, (S.subst(lb, {x: v}),)
        case S.Match(S.InR(v, _), _, _, _, y, _, rb):
            return "match_inr", None, (S.subst(rb, {y: v}),)
        case S.Match(s):
            raise M.StuckTerm(f"match subject is {S.pretty(s)}")
        case S.LetRec(_, _, _, _, _, _, bound):
            rule = "letrec" if bound is None else f"letrec^{bound}"
            return rule, None, (_unfold_letrec(m),)
        case S.Omega():
            return None, None, ()
        case _ if S.is_value(m):
            return None, None, ()
    raise M.StuckTerm(f"no rule applies to {S.pretty(m)}")


def _reference_step(c) -> list:
    """``M.step`` by substitution, on a closure with a ``term``."""
    rule, op, terms = _redex_plan(c.term, S.free_vars(c.term))
    state, link = c.state, c.link_map()
    if rule == "meas":
        branches = [(p, st, lk, terms[b]) for b, p, st, lk in M._measure_out(1.0, state, link, op)]
    else:
        if rule == "new":
            if state.num_qubits >= M.MAX_QUBITS:
                raise M.TooManyQubits(f"new would allocate qubit {state.num_qubits + 1} "
                                      f"beyond the cap of {M.MAX_QUBITS}")
            bit, y = op
            link[y] = state.num_qubits + 1
            state = Q.append_qubit(state, bit)
        elif rule == "unitary":
            matrix, names = op
            state = Q.apply_unitary(state, matrix, [link[x] for x in names])
        branches = [(1.0, state, link, term) for term in terms]
    out = []
    for prob, st, lk, term in branches:
        for p2, state2, link2 in M._discard_orphans(prob, st, lk, term):
            linking = tuple(sorted(link2.items(), key=lambda kv: kv[1]))
            out.append(M.Step(p2, _RefClosure(state2, linking, term), rule))
    return out


def _reference_sample(c, seed: int, max_steps: int = 10_000) -> M.Trace:
    """``M.sample`` with ``_reference_step``."""
    rng = random.Random(seed)
    trace = []
    for _ in range(max_steps):
        succs = _reference_step(c)
        if not succs:
            return M.Trace(trace, c, False)
        r, acc, chosen = rng.random(), 0.0, succs[-1]
        for s in succs:
            acc += s.prob
            if r < acc:
                chosen = s
                break
        trace.append((chosen.rule, chosen.prob, chosen.closure))
        c = chosen.closure
    return M.Trace(trace, c, True)


def _reference_load(term: S.Term) -> _RefClosure:
    return _RefClosure(Q.EMPTY, (), S.strip_ascriptions(term))


def _reference_evaluate(c, max_steps):
    """Breadth-first evaluation with ``_reference_step`` and ``canonical_key``,
    no table."""
    dist = M.Distribution()
    frontier = [(1.0, c)]
    steps = 0
    while frontier and steps < max_steps:
        steps += 1
        next_frontier = []
        for prob, cl in frontier:
            succs = _reference_step(cl)
            if not succs:
                if S.is_value(cl.term):
                    key = M.canonical_key(cl)
                    if key in dist.outcomes:
                        dist.outcomes[key].prob += prob
                    else:
                        dist.outcomes[key] = M.Outcome(prob, cl)
                else:
                    assert _is_blocked(cl.term)
                    dist.blocked += prob
                continue
            for s in succs:
                p2 = prob * s.prob
                if p2 > M.PRUNE_EPS:
                    next_frontier.append((p2, s.closure))
                else:
                    dist.pruned += p2
        frontier = next_frontier
    dist.residual = sum(p for p, _ in frontier)
    dist.steps_used = steps
    return dist


def _closure_record(c):
    return c.term, c.linking, c.state.amps.tobytes()


def _assert_same_distribution(got, want):
    # exact equality, outcome order included
    assert list(got.outcomes) == list(want.outcomes)
    for key, o in want.outcomes.items():
        assert got.outcomes[key].prob == o.prob
        assert _closure_record(got.outcomes[key].closure) == _closure_record(o.closure)
    assert (got.blocked, got.residual, got.pruned, got.steps_used) == \
        (want.blocked, want.residual, want.pruned, want.steps_used)


# a qubit is flipped on one branch of a coin toss and not on the other, so the
# two branches end on equal terms and linkings with different amplitudes
_CONVERGING = "let q:qubit = new ff in if meas (#H (new ff)) then #X q else q"


def _equivalence_cases():
    cases = [(A.random_finitary_program(seed, 10), 2000) for seed in range(50)]
    cases += [(A.random_letrec_program(seed), 300) for seed in range(30)]
    cases += [(load(name), 200) for name in sorted(p.stem for p in PROGRAMS.glob("*.qlam"))
              if not name.startswith("ill-")]
    cases.append((P.parse_term(_CONVERGING), 100))
    return cases


def test_evaluate_equals_plain_stepping():
    for term, max_steps in _equivalence_cases():
        c = M.load(term)
        _assert_same_distribution(M.evaluate(c, max_steps), _reference_evaluate(c, max_steps))


def test_each_distinct_closure_is_stepped_once(monkeypatch):
    stepped = []
    plain = M.step

    def recording(c):
        stepped.append(_closure_record(c))
        return plain(c)

    monkeypatch.setattr(M, "step", recording)
    for seed in range(10):
        stepped.clear()
        dist = M.evaluate(M.load(A.random_letrec_program(seed)), max_steps=300)
        assert stepped, seed
        assert len(stepped) == len(set(stepped)), seed
        assert len(stepped) < dist.steps_used


def test_table_amplitude_cap_keeps_the_distribution(monkeypatch):
    from test_golden import MACHINE_PROGRAMS, MACHINE_STEPS

    term = load("qlist-run")
    want = M.evaluate(M.load(term), max_steps=200)
    for cap in (64, 1024):
        monkeypatch.setattr(M, "MAX_TABLE_AMPS", cap)
        _assert_same_distribution(M.evaluate(M.load(term), max_steps=200), want)
    _assert_same_distribution(want, _reference_evaluate(M.load(term), 200))
    # a small table clears often and cuts the links between its nodes mid-run
    monkeypatch.undo()
    cases = [(load(name), MACHINE_STEPS) for name in MACHINE_PROGRAMS]
    cases += [(A.random_letrec_program(seed), 300) for seed in range(30)]
    want = [M.evaluate(M.load(term), max_steps) for term, max_steps in cases]
    cut = []
    clear = M._ClosureTable.clear

    def counting(table):
        cut.append(sum(n is not None for node in table.nodes.values() for n in node.links))
        clear(table)

    monkeypatch.setattr(M._ClosureTable, "clear", counting)
    monkeypatch.setattr(M, "MAX_TABLE_AMPS", 64)
    for (term, max_steps), w in zip(cases, want):
        _assert_same_distribution(M.evaluate(M.load(term), max_steps), w)
    # besides the clear that ends each call
    assert len(cut) > 2 * len(cases) and sum(c > 0 for c in cut) > len(cases)


def test_links_hold_no_memory(monkeypatch):
    # the successor links keep alive only nodes the table holds anyway, so
    # the peak with the table is close to the peak with no table, and that
    # one is close to plain stepping's, whose frontier holds only closures
    term = load("qlist-run")

    steps = []  # the steps each measured run took

    def peak(evaluate):
        c = M.load(term)
        tracemalloc.start()
        try:
            steps.append(evaluate(c, 200).steps_used)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    M.evaluate(M.load(term), 200)  # the measured runs find the process warmed up
    with_table = peak(M.evaluate)
    monkeypatch.setattr(M, "MAX_TABLE_AMPS", 0)
    without = peak(M.evaluate)
    assert with_table <= 1.1 * without
    assert without <= 1.1 * peak(_reference_evaluate)
    assert min(steps) > 0  # each of the three calls stepped


def test_frontier_cap(monkeypatch):
    # cointoss's frontier holds two branches after its measurement
    monkeypatch.setattr(M, "MAX_FRONTIER", 1)
    for _ in range(2):  # a call that raises keeps nothing, so the next raises too
        with pytest.raises(M.FrontierTooLarge, match="would keep 2 branches beyond the cap of 1"):
            M.evaluate(M.load(load("cointoss")))
    monkeypatch.setattr(M, "MAX_FRONTIER", 2)
    assert M.evaluate(M.load(load("cointoss"))).halt_mass == pytest.approx(1.0)
    # sample follows one branch, so the cap does not apply to it
    monkeypatch.setattr(M, "MAX_FRONTIER", 1)
    assert not M.sample(M.load(load("cointoss")), 0).timed_out


def _clear_memos():
    S.strip_ascriptions.cache_clear()
    T.check.cache_clear()


def _exact_traces(monkeypatch, term, seeds=range(10), max_steps=10_000):
    """``sample`` at ``seeds``, for at most ``max_steps`` steps: every step's
    rule, probability, linking, raw printed term and amplitude bytes, and the
    number of ``rng.random()`` draws; then the same of ``_reference_sample``."""
    draws = []

    class Counting(random.Random):
        def random(self):
            draws[-1] += 1
            return super().random()

    def record(trace):
        return ([(rule, prob, c.linking, S.pretty(c.term), c.state.amps.tobytes())
                 for rule, prob, c in trace.steps],
                _closure_record(trace.final), trace.timed_out, len(trace.steps))

    monkeypatch.setattr(M, "random", SimpleNamespace(Random=Counting))
    got = []
    for seed in seeds:
        draws.append(0)
        trace = M.sample(M.load(term), seed, max_steps)
        assert draws[-1] == len(trace.steps)  # one draw per step taken
        got.append(record(trace))
    monkeypatch.undo()
    return got, [record(_reference_sample(_reference_load(term), seed, max_steps))
                 for seed in seeds]


# Programs in which substitution renames a binder or drops a qubit: a binder
# named like a qubit that a value substituted under it holds (beta, match, a
# letrec's function and its argument), a pair whose second name is the qubit
# of its first value (both names are substituted at once, so nothing is
# captured and the program ends in <q1, q2>), and a discarded argument.
_CLASHES = [
    "let a:qubit = new ff in (lam q1:qubit. <a, q1>) (new tt)",
    "let <x:qubit, q1:qubit> = <new ff, new tt> in <x, q1>",
    "let a:qubit = new ff in match inl[unit + unit] () with "
    "(q1:unit -> let () = q1 in a | z:unit -> let () = z in a)",
    "let a:qubit = new ff in letrec q1(x:unit):qubit = let () = x in a in q1 ()",
    "let a:qubit = new ff in letrec f(q1:unit):qubit = let () = q1 in a in f ()",
    "(lam q:qubit. omega[unit]) (new ff)",
    "let x:qubit = new ff in match inl[unit + unit] () with "
    "(x:unit -> x | y:unit -> let () = y in x)",
]


# The names every binder of the renamed corpus is drawn from: the machine's
# first qubit names, a name that the renaming of a binder named like a qubit
# picks, and two plain names.
_BINDER_NAMES = ("q1", "q2", "q3", "q1#1", "q2#1", "a", "x")


def _rename_binders(m: S.Term, rng: random.Random) -> S.Term:
    """``m`` with every binder renamed to a name of ``_BINDER_NAMES`` drawn
    by ``rng``, keeping scopes: a binder's new name is none of the new names
    of the other variables free in its scope."""

    def pick(scope, env, taken=()):
        # scope: the free variables of the binder's scope but its own names
        used = {env.get(z, z) for z in scope}.union(taken)
        return rng.choice([n for n in _BINDER_NAMES if n not in used])

    def go(t: S.Term, env: dict) -> S.Term:
        fv = S.free_vars
        match t:
            case S.Var(x):
                return S.Var(env.get(x, x))
            case S.Abs(y, ty, b):
                n = pick(fv(b) - {y}, env)
                return S.Abs(n, ty, go(b, {**env, y: n}))
            case S.LetPair(y, ty, z, tz, s, b):
                ny = pick(fv(b) - {y, z}, env)
                nz = pick(fv(b) - {y, z}, env, (ny,))
                return S.LetPair(ny, ty, nz, tz, go(s, env), go(b, {**env, y: ny, z: nz}))
            case S.Match(s, y, ty, lb, z, tz, rb):
                ny, nz = pick(fv(lb) - {y}, env), pick(fv(rb) - {z}, env)
                return S.Match(go(s, env), ny, ty, go(lb, {**env, y: ny}),
                               nz, tz, go(rb, {**env, z: nz}))
            case S.LetRec(f, ta, tb, y, body, cont, bound):
                nf = pick((fv(body) - {f, y}) | (fv(cont) - {f}), env)
                ny = pick(fv(body) - {f, y}, env, (nf,))
                return S.LetRec(nf, ta, tb, ny, go(body, {**env, f: nf, y: ny}),
                                go(cont, {**env, f: nf}), bound)
        return S.map_subterms(t, lambda u: go(u, env))

    return go(m, {})


def _renamed_corpus(seed: int):
    """Finitary and letrec seeds 0..39 with their binders renamed at ``seed``."""
    rng = random.Random(seed)
    cases = [(_rename_binders(A.random_finitary_program(s, 10), rng), 2000) for s in range(40)]
    cases += [(_rename_binders(A.random_letrec_program(s), rng), 300) for s in range(40)]
    for term, _ in cases:
        T.typecheck(term)
    return cases


def test_environment_machine_matches_substitution(monkeypatch):
    # (term, step budget, trace seeds, trace budget); the renamed corpus traces
    # within its step budget, since four of its letrec programs (seeds 9, 11,
    # 20 and 37), like three of the plain ones, loop for 10000 steps at seed 0
    cases = [(A.random_finitary_program(seed, 10), 2000, range(2), 10_000) for seed in range(50)]
    cases += [(A.random_letrec_program(seed), 300, range(2), 10_000) for seed in range(30)]
    cases += [(P.parse_term(text), 100, range(4), 10_000) for text in _CLASHES]
    cases += [(term, max_steps, range(2), max_steps) for term, max_steps in _renamed_corpus(1)]
    for term, max_steps, seeds, trace_steps in cases:
        # exact distributions, the outcomes' closures included
        _assert_same_distribution(M.evaluate(M.load(term), max_steps),
                                  _reference_evaluate(_reference_load(term), max_steps))
        # raw traces: the names of new qubits and of renamed binders included
        got, want = _exact_traces(monkeypatch, term, seeds, trace_steps)
        assert got == want, S.pretty(term)


def test_focus_rebuild_changes_only_its_field():
    # the reference's rebuilds change only the field they focus on; every
    # field of each node distinct, so a swapped argument shows
    a, b, c = S.Var("a"), S.Var("b"), S.Var("c")
    nodes = [
        S.App(a, b), S.Pair(a, b), S.InL(a, S.BIT), S.InR(a, S.BIT), S.LetUnit(a, b),
        S.LetPair("x", S.QUBIT, "y", S.UNIT, a, b),
        S.Match(a, "x", S.QUBIT, b, "y", S.UNIT, S.Var("d")),
    ]
    assert {type(m) for m in nodes} == set(_EVAL_ORDER)
    for m in nodes:
        for name, rebuild in _EVAL_ORDER[type(m)]:
            assert rebuild(m, c) == replace(m, **{name: c})


# The two tests below are named for the per-term plan memo the machine once
# kept.  What they check holds of the memos it keeps now (stripped and checked
# terms, each function's free variables): filled by other programs, they
# change no evaluation or trace, which stay the substitution reference's.


def _warm_memos():
    # other programs' stripped and checked terms, so the runs below are served
    # partly by entries that these programs did not make
    for seed in range(40):
        M.evaluate(M.load(A.random_finitary_program(seed, 10)), max_steps=2000)
    for seed in range(30):
        M.evaluate(M.load(A.random_letrec_program(seed)), max_steps=300)


def test_plans_do_not_change_evaluations():
    from test_golden import MACHINE_PROGRAMS, MACHINE_STEPS

    cold = {}
    for name in MACHINE_PROGRAMS:
        _clear_memos()
        cold[name] = M.evaluate(M.load(load(name)), MACHINE_STEPS)
        _assert_same_distribution(cold[name], _reference_evaluate(_reference_load(load(name)),
                                                                  MACHINE_STEPS))
    _clear_memos()
    _warm_memos()
    for name in MACHINE_PROGRAMS:
        _assert_same_distribution(M.evaluate(M.load(load(name)), MACHINE_STEPS), cold[name])


def test_plans_do_not_change_sample_traces(monkeypatch):
    from test_golden import MACHINE_PROGRAMS, SAMPLE_PROGRAMS

    cold = {}
    for name in MACHINE_PROGRAMS:
        _clear_memos()
        got, want = _exact_traces(monkeypatch, load(name))
        assert got == want, name
        cold[name] = got
    _clear_memos()
    _warm_memos()
    # the programs that halt; coin-unit and omega run out their 10000 steps
    for name in SAMPLE_PROGRAMS:
        got, _ = _exact_traces(monkeypatch, load(name))
        assert got == cold[name], name


def test_new_names_avoid_the_whole_term():
    # a plan for the closed <new ff, new ff> names its qubits q1 and q2; with
    # q1 linked, the same redexes must name theirs q2 and q3
    pair = S.Pair(S.App(S.New(), S.ff()), S.App(S.New(), S.ff()))
    for c, want in ((M.load(pair), ["q1", "q2"]),
                    (M.load(S.Pair(S.Var("q1"), pair), Q.QState(np.array([0.6, 0.8])),
                            (("q1", 1),)), ["q1", "q2", "q3"])):
        while succs := M.step(c):  # step validates every successor
            (s,) = succs
            c = s.closure
        assert [x for x, _ in c.linking] == want


def test_signed_zero_gates_trace_alike():
    # the memos key terms by ==, under which -0.0 == 0.0, so a gate written
    # with -0.0 must print as its +0.0 twin does, or a trace would depend on
    # which of the two ran first in the process
    neg = P.parse_term("meas (#U[[1.0,-0.0],[-0.0,1.0]] (new ff))")
    pos = P.parse_term("meas (#U[[1.0,0.0],[0.0,1.0]] (new ff))")

    def trace(term):
        t = M.sample(M.load(term), 0)
        return (S.pretty(T.typecheck(term).term),
                [(rule, prob, S.pretty(c.term), c.state.amps.tobytes())
                 for rule, prob, c in t.steps])

    _clear_memos()
    cold = trace(neg)
    _clear_memos()
    trace(pos)
    assert trace(neg) == cold
