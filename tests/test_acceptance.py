"""End-to-end acceptance suite: the ten headline checks.

Each test freezes an independently derived oracle (closed-form reductions,
hand-built matrices, binomial reasoning) and runs the full pipeline against
it at the stated tolerances.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import qlam.adequacy as A
import qlam.cpm as C
import qlam.denote as D
import qlam.machine as M
import qlam.parser as P
import qlam.syntax as S
import qlam.typecheck as T

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def load_program(name: str) -> S.Term:
    return P.parse_term((PROGRAMS / f"{name}.qlam").read_text())


def _label_bits(label) -> tuple:
    """In-order injection indices of a nested web label."""
    out = []

    def walk(l):
        if isinstance(l, tuple):
            if l[0] == "inj":
                out.append(l[1])
                walk(l[2])
            elif l[0] == "pair":
                walk(l[1])
                walk(l[2])

    walk(label)
    return tuple(out)


# the four correction unitaries of the teleport protocol, keyed by the
# transmitted bit pair
_CORR = {
    (0, 0): np.eye(2),
    (0, 1): np.array([[0.0, 1.0], [1.0, 0.0]]),
    (1, 0): np.array([[1.0, 0.0], [0.0, -1.0]]),
    (1, 1): np.array([[0.0, 1.0], [-1.0, 0.0]]),
}


def test_01_teleport_golden():
    # the denotation of one teleport run is the 16-entry family
    # (x,y,z,t) -> 1/4 vec(V) vec(V)^dagger with V = corr(z,t) corr(x,y)*
    t0 = time.monotonic()
    deriv = T.typecheck(load_program("teleport-applied"))
    mor = D.denote(deriv, D.TruncationConfig())
    elapsed = time.monotonic() - t0
    src0 = mor.src.labels()[0]
    assert len(mor.dst.labels()) == 16
    worst = 0.0
    for dl in mor.dst.labels():
        assert dl[0] == "pair"
        fb = _label_bits(dl[1])
        gb = _label_bits(dl[2])
        assert len(fb) == 2 and len(gb) == 2
        v = _CORR[gb] @ _CORR[fb].conj()
        vv = v.reshape(-1, order="F")
        expect = 0.25 * np.outer(vv, vv.conj())
        got = mor.entry(src0, dl)
        worst = max(worst, float(np.max(np.abs(
            got - expect.reshape(got.shape, order="F")))))
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_02_teleport_roundtrip():
    term = load_program("teleport-roundtrip")
    want = S.pretty(S.tt())
    hits = 0
    for seed in range(10_000):
        trace = M.sample(M.load(term), seed)
        assert not trace.timed_out
        hits += S.pretty(trace.final.term) == want
    assert hits == 10_000  # frequency exactly 1.0


def test_03_cointoss():
    term = load_program("cointoss")
    dist = M.evaluate(M.load(term))
    assert dist.residual == 0.0 and dist.blocked == 0.0
    probs = {S.pretty(o.closure.term): o.prob for o in dist.outcomes.values()}
    assert probs[S.pretty(S.tt())] == pytest.approx(0.5, abs=1e-12)
    assert probs[S.pretty(S.ff())] == pytest.approx(0.5, abs=1e-12)
    # denotation: the pair (1/2, 1/2) on the two injections of bit
    mor = D.denote(T.typecheck(term, S.BIT), D.TruncationConfig())
    src0 = mor.src.labels()[0]
    for i in range(2):
        e = mor.entry(src0, ("inj", i, ("star",)))
        assert abs(complex(e[0, 0]) - 0.5) <= 1e-12


def test_04a_qlist_operational():
    term = load_program("qlist-run")
    # 92 machine steps resolve exactly the outcomes of length 1..8
    dist = M.evaluate(M.load(term), max_steps=92)
    lens = {}
    for o in dist.outcomes.values():
        n = S.pretty(o.closure.term).count("<")  # one cons cell per pair
        lens[n] = lens.get(n, 0.0) + o.prob
    for n in range(1, 9):
        assert abs(lens[n] - 2.0 ** -n) <= 1e-9
    assert abs(dist.residual - 2.0 ** -8) <= 1e-9


def test_04b_qlist_denotational():
    # applied to an arbitrary density matrix (a b; c d), the length-n
    # component is 2^-n times the corner matrix e_n
    cfg = D.TruncationConfig(list_max=4, bang_max=1)
    app = S.App(load_program("qlist"), S.Var("x"))
    deriv = T.typecheck(app, None, (("x", S.QUBIT),))
    mor = D.denote(deriv, cfg)
    a, b, c, d = 0.7, 0.2 - 0.1j, 0.2 + 0.1j, 0.3
    vin = np.array([[a, b], [c, d]]).reshape(-1, order="F")
    src0 = mor.src.labels()[0]
    for dl in mor.dst.labels():
        n = dl[1]
        out = (mor.entry(src0, dl) @ vin).reshape(2 ** n, 2 ** n, order="F")
        expect = np.zeros((2 ** n, 2 ** n), dtype=complex)
        if n > 0:
            expect[0, 0], expect[0, -1] = a, b
            expect[-1, 0], expect[-1, -1] = c, d
            expect *= 2.0 ** -n
        assert np.max(np.abs(out - expect)) <= 1e-9, dl


def test_05_group_average_golden():
    # averaging CNOT over {id, qubit-swap} gives the displayed matrix
    nc = S.STANDARD_GATES["CNOT"].as_array()
    group = C.PermGroup(4, ((0, 1, 2, 3), (0, 2, 1, 3)))
    got = C.so_apply(C.group_channel(group), nc.astype(complex))
    expect = 0.5 * np.array([
        [2, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 1, 1, 0],
    ])
    assert np.array_equal(got, expect)


def test_06_bang_qubit_shape():
    bang = C.bang_obj(C.QUBIT_OBJ, 4)
    dims = tuple(d for _, d, _ in bang.elems)
    orders = tuple(g.order for _, _, g in bang.elems)
    assert dims == (1, 2, 4, 8, 16)
    assert orders == (1, 1, 2, 6, 24)


def test_07_law_suites():
    # the named law suites, at 100 randomized instances each (shared pools
    # with tests/test_cpm_laws.py, which runs the full battery)
    import test_cpm_laws as L

    assert L.N_INSTANCES == 100
    L.test_snake_equations()
    L.test_comonoid_laws()
    L.test_comonad_triangles()
    L.test_pdistr_iso_and_naturality()
    L.test_curry_eval_adjunction()


def _one_step_worst(closure, cfg) -> tuple:
    succs = M.step(closure)
    if not succs:
        return 0.0, succs
    lhs = D.denote_closure(closure, cfg)
    acc = {}
    for s in succs:
        for l, mat in D.denote_closure(s.closure, cfg).items():
            acc[l] = acc.get(l, 0) + s.prob * C._dense(mat)
    worst = 0.0
    for l in set(lhs) | set(acc):
        x = C._dense(lhs.get(l, 0.0))
        y = acc.get(l, np.zeros_like(x))
        worst = max(worst, float(np.max(np.abs(x - y))))
    return worst, succs


def test_08_one_step_soundness():
    import qlam.qstate as Q

    cfg = D.TruncationConfig()
    entangle = S.App(load_program("entangle"), S.Var("x"))
    start_points = [
        M.load(load_program("cointoss")),
        M.Closure(Q.QState(np.array([0.6, 0.8j])), (("x", 1),), entangle),
        M.load(load_program("teleport-applied")),
    ]
    for start in start_points:
        frontier = [start]
        seen = set()
        worst = 0.0
        while frontier:
            cl = frontier.pop()
            key = M.canonical_key(cl)
            if key in seen:
                continue
            seen.add(key)
            err, succs = _one_step_worst(cl, cfg)
            worst = max(worst, err)
            frontier.extend(s.closure for s in succs)
        assert worst <= 1e-9


def test_09a_adequacy_fuzz_finitary():
    for seed in range(200):
        rep = A.check_adequacy(A.random_finitary_program(seed, 10))
        assert rep.verdict == "PASS", (seed, rep.line())
        assert abs(rep.denot - rep.halt_lower) <= 1e-6


def test_09b_adequacy_letrec_sandwich():
    cfg = D.TruncationConfig(list_max=2, bang_max=2,
                             fix_iters=2000, fix_tol=1e-12)
    for seed in range(50):
        rep = A.check_adequacy(A.random_letrec_program(seed), cfg,
                               max_steps=300)
        assert rep.verdict == "PASS", (seed, rep.line())
        assert (rep.halt_lower - 1e-6 <= rep.denot
                <= rep.halt_lower + rep.residual + 1e-6)


RUNNABLE = ["tt", "coin-unit", "cointoss", "entangle", "omega", "qlist",
            "qlist-run", "teleport", "teleport-applied",
            "teleport-roundtrip"]


def test_10_subject_reduction_progress():
    for name in RUNNABLE:
        term = load_program(name)
        ty = T.typecheck(term).type
        frontier = [M.load(term)]
        seen = set()
        steps = 0
        while frontier and steps < 250:
            cl = frontier.pop()
            if cl.num_qubits > 10:  # bound the unbounded-recursion branches
                continue
            key = M.canonical_key(cl)
            if key in seen:
                continue
            seen.add(key)
            ctx = tuple((x, S.QUBIT) for x, _ in
                        sorted(cl.linking, key=lambda kv: kv[1]))
            T.typecheck(cl.term, ty, ctx)  # type preserved along the trace
            succs = M.step(cl)
            if succs:
                assert abs(sum(s.prob for s in succs) - 1.0) <= 1e-9
                frontier.extend(s.closure for s in succs)
            steps += 1
