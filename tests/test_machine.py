"""Abstract machine: steps, distributions, sampling, finitary machinery."""

from pathlib import Path

import numpy as np
import pytest

import qlam.adequacy as A
import qlam.machine as M
import qlam.parser as P
import qlam.qstate as Q
import qlam.syntax as S

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def load(name: str) -> S.Term:
    return P.parse_term((PROGRAMS / f"{name}.qlam").read_text())


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
    assert dist.prob_of(S.tt()) == pytest.approx(0.5, abs=1e-12)
    assert dist.prob_of(S.ff()) == pytest.approx(0.5, abs=1e-12)


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


def test_is_blocked_follows_the_evaluation_order():
    omega = S.Omega(S.UNIT)
    assert M.is_blocked(omega)
    assert M.is_blocked(S.Pair(S.UnitVal(), omega))
    assert M.is_blocked(S.App(S.Abs("x", S.UNIT, S.Var("x")), omega))
    # omega under a binder, or after a redex that is not blocked, is not next
    assert not M.is_blocked(S.Abs("x", S.UNIT, omega))
    assert not M.is_blocked(S.Pair(S.App(S.New(), S.ff()), omega))
    assert not M.is_blocked(S.UnitVal())


def test_sample_frequency_band():
    term = load("cointoss")
    hits = sum(M.sample(M.load(term), seed).final.term == S.tt()
               for seed in range(4000))
    # binomial three-sigma band around 1/2 for 4000 trials
    assert abs(hits / 4000 - 0.5) < 3 * 0.5 / np.sqrt(4000)


def test_halt_probability():
    lower, residual = M.halt_probability(M.load(load("cointoss")))
    assert lower == pytest.approx(1.0, abs=1e-12) and residual == 0.0
    lower, residual = M.halt_probability(M.load(load("omega")), max_steps=50)
    assert lower == 0.0 and residual == pytest.approx(1.0)


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
    # the tt branch of the measurement has probability 1e-13 <= prune_eps
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
