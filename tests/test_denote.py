"""Denotational semantics: constants, structural rules, fixpoints."""

import functools
import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import qlam.adequacy as A
import qlam.cpm as C
import qlam.denote as D
import qlam.machine as M
import qlam.parser as P
import qlam.qstate as Q
import qlam.syntax as S
import qlam.typecheck as T

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
CFG = D.TruncationConfig(list_max=3, bang_max=2)


def den(term, expected=None, ctx=()):
    return D.denote(T.typecheck(term, expected, ctx), CFG)


def max_abs(mor: C.Morphism) -> float:
    return max(map(C._maxabs, mor.entries.values()), default=0.0)


def scalar_entries(mor):
    src0 = mor.src.labels()[0]
    out = {}
    for dl in mor.dst.labels():
        e = mor.entry(src0, dl)
        if e.shape == (1, 1):
            out[dl] = complex(e[0, 0])
    return out


def test_tt_denotation():
    got = scalar_entries(den(S.tt(), S.BIT))
    assert got[("inj", 1, ("star",))] == pytest.approx(1.0)
    assert got.get(("inj", 0, ("star",)), 0.0) == pytest.approx(0.0)


def test_unit_denotation():
    mor = den(S.UnitVal(), S.UNIT)
    assert complex(mor.entry(("star",), ("star",))[0, 0]) == pytest.approx(1.0)


def test_new_denotation():
    # new sends the bit (p, q) to the density p|0><0| + q|1><1|
    mor = den(S.App(S.New(), S.Var("b")), S.QUBIT, (("b", S.BIT),))
    e0 = mor.entry(("inj", 0, ("star",)), ("star",))
    e1 = mor.entry(("inj", 1, ("star",)), ("star",))
    assert np.allclose(e0.ravel(), [1, 0, 0, 0])
    assert np.allclose(e1.ravel(), [0, 0, 0, 1])


def test_meas_denotation():
    mor = den(S.App(S.Meas(), S.Var("x")), S.BIT, (("x", S.QUBIT),))
    e0 = mor.entry(("star",), ("inj", 0, ("star",)))
    e1 = mor.entry(("star",), ("inj", 1, ("star",)))
    assert np.allclose(e0.ravel(), [1, 0, 0, 0])
    assert np.allclose(e1.ravel(), [0, 0, 0, 1])


def test_gate_denotation_is_conjugation():
    x = S.STANDARD_GATES["X"].as_array()
    mor = den(S.App(S.STANDARD_GATES["X"], S.Var("q")), S.QUBIT,
              (("q", S.QUBIT),))
    got = mor.entry(("star",), ("star",))
    assert np.allclose(got, np.kron(x.conj(), x))


def test_cointoss_denotation():
    term = P.parse_term((PROGRAMS / "cointoss.qlam").read_text())
    got = scalar_entries(den(term, S.BIT))
    assert got[("inj", 0, ("star",))] == pytest.approx(0.5, abs=1e-12)
    assert got[("inj", 1, ("star",))] == pytest.approx(0.5, abs=1e-12)


def test_identity_function():
    mor = den(S.Abs("x", S.QUBIT, S.Var("x")),
              S.LinArrow(S.QUBIT, S.QUBIT))
    # applying the curried value to a state recovers the identity channel
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    applied = D.denote_closure(
        M.load(S.App(S.Abs("x", S.QUBIT, S.Var("x")), S.Var("y")),
               Q.QState(np.array([1.0, 0.0])), (("y", 1),)), CFG)
    assert np.allclose(C._dense(applied[("star",)]),
                       np.array([[1, 0], [0, 0]]).reshape(4, 1, order="F")
                       .reshape(2, 2, order="F"))
    assert max_abs(mor) > 0


def test_swap_function():
    term = S.Abs("p", S.TensorT(S.QUBIT, S.QUBIT),
                 S.LetPair("a", S.QUBIT, "b", S.QUBIT, S.Var("p"),
                           S.Pair(S.Var("b"), S.Var("a"))))
    mor = den(term)
    assert max_abs(mor) > 0


def test_denote_type_shapes():
    assert den(S.UnitVal(), S.UNIT).dst.labels() == (("star",),)
    lst = D.denote_type(S.ListT(S.QUBIT), CFG)
    assert tuple(d for _, d, _ in lst.elems) == (1, 2, 4, 8)
    bang = D.denote_type(S.BangArrow(S.QUBIT, S.QUBIT), CFG)
    assert all(g.order >= 1 for _, _, g in bang.elems)


def test_fixpoint_geometric_loop():
    # letrec f(u) = if coin then () else f(), applied: denotation 1
    term = A.random_letrec_program(0)
    val = A.scalar_denotation(
        term, D.TruncationConfig(fix_iters=500, fix_tol=1e-14))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_fixpoint_omega_is_zero():
    term = P.parse_term((PROGRAMS / "omega.qlam").read_text())
    assert A.scalar_denotation(term, CFG) == 0.0


def _kleene(exp_ctx, chi, bang_hom, cfg, bound=None):
    """The Kleene chain one step at a time, ``F_{n+1} = split;(id (x) F_n);chi``,
    stopping at ``fix_tol`` or after ``fix_iters`` steps."""
    f = D.route(exp_ctx, [()], cfg).compose(D._bang_point(bang_hom))
    eobj = D.ctx_obj(exp_ctx, cfg)
    split = D.route(exp_ctx, [exp_ctx, exp_ctx], cfg)
    for _ in range(cfg.fix_iters if bound is None else bound):
        lifted = split.compose(C.identity(eobj).tensor(f)) if exp_ctx else f
        nxt = lifted.compose(chi)
        if bound is None and nxt.sup_distance(f) <= cfg.fix_tol:
            return nxt
        f = nxt
    return f


KLEENE_CFG = D.TruncationConfig(fix_iters=5000, fix_tol=1e-15)
BANG_UNIT = S.BangArrow(S.UNIT, S.UNIT)
# unbounded letrecs whose recursion step reads a nonempty exponential context
LETREC_UNDER_BANG = [
    ("letrec f(u:unit):unit = let () = u in "
     "if meas (#H (new ff)) then g () else f () in f ()", (("g", BANG_UNIT),)),
    ("letrec f(u:unit):unit = let () = u in "
     "if meas (#U[[0.6,0.8],[-0.8,0.6]] (new ff)) then h (g ()) else f (g ()) in f ()",
     (("g", BANG_UNIT), ("h", BANG_UNIT))),
]


def test_doubled_fixpoint_equals_kleene(monkeypatch):
    derivs = [T.typecheck(A.random_letrec_program(s)) for s in range(30)]
    derivs += [T.typecheck(P.parse_term(src), None, ctx) for src, ctx in LETREC_UNDER_BANG]
    doubled = [D.denote(d, KLEENE_CFG) for d in derivs]
    monkeypatch.setattr(D, "fixpoint_iterate", _kleene)
    # past the memo, which holds the doubled results and must not keep these
    monkeypatch.setattr(D, "denote", D.denote.__wrapped__)
    for d, got in zip(derivs, doubled):
        want = D.denote(d, KLEENE_CFG)
        assert C.diff_entries(want.entries, got.entries)[None] <= 1e-12, S.pretty(d.term)
    # each of these recurs under a nonempty exponential context
    assert all(d.rule == "rec" and d.children[0].ctx[:-2] for d in derivs[30:])


def test_slow_letrec_seeds_converge_at_default_config():
    # the step-by-step chain stopped these 1e-8 below the exact value 1
    for seed in (6, 10, 19, 26, 29):
        val = A.scalar_denotation(A.random_letrec_program(seed), D.DEFAULT_CONFIG)
        assert val == pytest.approx(1.0, abs=1e-12), seed


BANG_UNIT_OBJ = D.denote_type(BANG_UNIT, CFG)


def _halving_chain(fix_iters: int) -> C.Morphism:
    """The fixpoint of the hand-built step ``chi = id/2``, whose chain decreases."""
    half = {k: 0.5 * v for k, v in C.identity(BANG_UNIT_OBJ).entries.items()}
    return D.fixpoint_iterate((), C.Morphism(BANG_UNIT_OBJ, BANG_UNIT_OBJ, half), BANG_UNIT_OBJ,
                              replace(CFG, fix_iters=fix_iters))


def test_decreasing_step_raises():
    with pytest.raises(C.NonMonotoneIteration):
        _halving_chain(64)


def test_zero_fix_iters_gives_the_first_iterate():
    f0 = _halving_chain(0)
    assert f0.entries.keys() == {(C.STAR, ("mset", ()))}
    assert C.diff_entries(f0.entries, D._bang_point(BANG_UNIT_OBJ).entries)[None] == 0.0
    term = A.random_letrec_program(0)
    assert A.scalar_denotation(term, D.TruncationConfig(fix_iters=0)) == 0.0


def test_denotation_trace_nonincreasing():
    # the interpretation of a closed qubit-type program is trace-nonincreasing
    term = S.App(S.STANDARD_GATES["H"], S.App(S.New(), S.ff()))
    mor = den(term, S.QUBIT)
    e = mor.entry(("star",), ("star",))
    rho = e.reshape(2, 2, order="F")
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_denote_closure_matches_direct():
    # denote_closure applies the context morphism to the actual state
    amps = np.array([0.6, 0.8j])
    cl = M.Closure(Q.QState(amps), (("x", 1),), S.App(S.Meas(), S.Var("x")))
    out = D.denote_closure(cl, CFG)
    assert C._dense(out[("inj", 0, ("star",))])[0, 0] == pytest.approx(0.36)
    assert C._dense(out[("inj", 1, ("star",))])[0, 0] == pytest.approx(0.64)


def qlist_applied(cfg):
    term = P.parse_term((PROGRAMS / "qlist.qlam").read_text())
    return D.denote(T.typecheck(S.App(term, S.Var("x")), None, (("x", S.QUBIT),)), cfg)


@pytest.mark.parametrize("list_max, bang_max", [(2, 2), (4, 1)])
def test_qlist_closed_form(list_max, bang_max):
    # applied to a density (a b; c d), the length-n component is 2^-n times
    # the n-qubit matrix with a, b, c, d in its corners; length 0 is zero
    mor = qlist_applied(D.TruncationConfig(list_max=list_max, bang_max=bang_max))
    a, b, c, d = 0.7, 0.2 - 0.1j, 0.2 + 0.1j, 0.3
    rho = np.array([[a, b], [c, d]])
    lengths = []
    for dl in mor.dst.labels():
        n = dl[1]
        lengths.append(n)
        expect = np.zeros((2 ** n, 2 ** n), dtype=complex)
        if n > 0:
            expect[0, 0], expect[0, -1], expect[-1, 0], expect[-1, -1] = a, b, c, d
            expect *= 2.0 ** -n
        out = mor.apply(C.STAR, rho).get(dl, np.zeros_like(expect))
        assert np.max(np.abs(out - expect)) <= 1e-12, dl
    assert lengths == list(range(list_max + 1))


QLIST_UNDER_1GIB = """
import resource
from pathlib import Path
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import qlam.denote as D, qlam.parser as P, qlam.syntax as S, qlam.typecheck as T
term = P.parse_term(Path("programs/qlist.qlam").read_text())
deriv = T.typecheck(S.App(term, S.Var("x")), None, (("x", S.QUBIT),))
print(len(D.denote(deriv, D.TruncationConfig(list_max=4, bang_max=1)).entries))
"""


def test_qlist_denotes_in_1gib():
    # with route's permutation built on every label, this denotation peaked
    # at 1.1 GB
    proc = subprocess.run([sys.executable, "-c", QLIST_UNDER_1GIB], capture_output=True,
                          text=True, cwd=PROGRAMS.parent,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "4\n"


def test_contraction_route():
    # a !-variable used twice denotes through contraction without error
    ft = S.BangArrow(S.QUBIT, S.QUBIT)
    term = S.Abs("f", ft, S.Pair(S.App(S.Var("f"), S.App(S.New(), S.ff())),
                                 S.App(S.Var("f"), S.App(S.New(), S.ff()))))
    mor = den(term)
    assert max_abs(mor) > 0


# ---------------------------------------------------------------------------
# the type-indexed plumbing built once per process (route, the curry and
# promotion prefixes, the curried constants)

BANG_UQ = S.BangArrow(S.UNIT, S.QUBIT)


def fuzz_terms():
    return ([A.random_finitary_program(s) for s in range(20)]
            + [A.random_letrec_program(s) for s in range(10)])


def clear_caches():
    # the machine's plans, syntax's stripped terms and the checker's memo too
    for mod in (C, D, M, S, T):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def record_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def recorder(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, recorder)
    return calls


def assert_same(m1, m2):
    assert m1.src == m2.src and m1.dst == m2.dst
    assert set(m1.entries) == set(m2.entries)
    assert C.diff_entries(m1.entries, m2.entries)[None] == 0.0


def uncached_route(ctx, dests, cfg):
    pos = {x: i for i, (x, _) in enumerate(ctx)}
    key = tuple(tuple(pos[x] for x, _ in dest) for dest in dests)
    return D._route.__wrapped__(tuple(t for _, t in ctx), key, cfg)


def test_cached_route_equals_uncached_build(monkeypatch):
    clear_caches()  # the denote memo would otherwise hide calls
    calls = record_calls(monkeypatch, D, "route")
    for term in fuzz_terms():
        # and across programs it would leave too few routes to check
        D.denote.cache_clear()
        A.scalar_denotation(term, D.DEFAULT_CONFIG)
    monkeypatch.undo()
    assert len(calls) > 1000
    for ctx, dests, cfg in calls:
        assert_same(D.route(ctx, dests, cfg), uncached_route(ctx, dests, cfg))


ORIG_STRUCTURAL = C.structural


def full_structural(src, src_shape, dst_shape, leaf_objs, labels=None, extra_side=None):
    """``structural`` on every label (``extra_side=None``), or on ``labels``
    plus every other label of at most ``extra_side`` dimensions."""
    if extra_side is None:
        labels = None
    else:
        labels = set(labels) | {l for l, d, _ in src.elems if d <= extra_side}
    return ORIG_STRUCTURAL(src, src_shape, dst_shape, leaf_objs, labels=labels)


@pytest.mark.parametrize("case", ["qlist-L3K1", "qlist-L2K2", "teleport",
                                  "teleport-applied", "teleport-roundtrip"])
def test_route_builds_only_reached_labels(monkeypatch, case):
    # _route composes its blocks with a structural map built only on the
    # labels the blocks reach; compose reads no other entry, so the route
    # equals the composite with the unrestricted map
    clear_caches()  # the denote memo would otherwise hide calls
    calls = record_calls(monkeypatch, D, "route")
    if case.startswith("qlist"):
        list_max, bang_max = int(case[-3]), int(case[-1])
        qlist_applied(D.TruncationConfig(list_max=list_max, bang_max=bang_max))
    else:
        term = P.parse_term((PROGRAMS / f"{case}.qlam").read_text())
        D.denote(T.typecheck(term), D.DEFAULT_CONFIG)
    monkeypatch.undo()
    # at L2/K2 the unrestricted map has 5.4e8 rows over 100 labels and does
    # not fit in memory, so there the reference adds every unreached label of
    # side <= 256 (30 to 56 of the 72 in the largest routes) instead
    extra = 256 if case == "qlist-L2K2" else None
    seen = set()
    for ctx, dests, cfg in calls:
        key = (tuple(t for _, t in ctx),
               tuple(tuple(ctx.index(v) for v in dest) for dest in dests), cfg)
        if key in seen:
            continue
        seen.add(key)
        got = D._route.__wrapped__(*key)
        monkeypatch.setattr(C, "structural", lambda *a, labels=None: full_structural(
            *a, labels=labels, extra_side=extra))
        want = D._route.__wrapped__(*key)
        monkeypatch.undo()
        # entries compared without densifying: some have 16384 rows
        assert (got.src, got.dst) == (want.src, want.dst)
        assert got.entries.keys() == want.entries.keys()
        for k, e in got.entries.items():
            assert type(e) is type(want.entries[k])
            assert abs(e - want.entries[k]).max() == 0.0, k
    assert len(seen) >= 3


def test_route_is_keyed_by_positions_not_names():
    ctx = (("f", BANG_UQ), ("q", S.QUBIT))
    renamed = (("g", BANG_UQ), ("p", S.QUBIT))
    m = D.route(ctx, [(ctx[1],), (ctx[0], ctx[0])], CFG)
    assert D.route(renamed, [(renamed[1],), (renamed[0], renamed[0])], CFG) is m
    # the same names in another order are another key
    swapped = (ctx[1], ctx[0])
    m2 = D.route(swapped, [(ctx[1],), (ctx[0], ctx[0])], CFG)
    assert m2.src != m.src
    assert_same(m2, uncached_route(swapped, [(ctx[1],), (ctx[0], ctx[0])], CFG))


def test_plumbing_is_keyed_by_cfg():
    ctx = (("f", BANG_UQ), ("q", S.QUBIT))
    dests = [(ctx[1],), (ctx[0], ctx[0])]
    promoted = T.typecheck(S.Abs("u", S.UNIT, S.App(S.Var("f"), S.Var("u"))),
                           BANG_UQ, ctx[:1])
    const = T.typecheck(S.Split(S.QUBIT))
    webs = []
    for k in (1, 2):
        cfg = D.TruncationConfig(list_max=k, bang_max=k)
        m = D.route(ctx, dests, cfg)
        assert_same(m, uncached_route(ctx, dests, cfg))
        webs.append(m.src)
        for d in (promoted, const):
            m = D.denote(d, cfg)
            assert (m.src, m.dst) == (D.ctx_obj(d.ctx, cfg), D.denote_type(d.type, cfg))
    assert webs[0] != webs[1]


def test_route_copies_a_variable_any_number_of_times():
    # a !-variable used n times, with every copy but the j-th weakened, is the
    # identity (the counit law of the comonoid), for n up to 4; the weakened
    # copies leave unit factors, which "u" source leaves drop
    cfg = D.TruncationConfig(list_max=1, bang_max=1)
    ctx = (("f", BANG_UQ),)
    bang = D.denote_type(BANG_UQ, cfg)
    weak = C.weakening(D.denote_type(BANG_UQ.underlying, cfg), cfg.bang_max)
    for n in range(1, 5):
        m = D.route(ctx, [ctx] * n, cfg)
        for j in range(n):
            blocks = [C.identity(bang) if i == j else weak for i in range(n)]
            kept = functools.reduce(C.Morphism.tensor, blocks)
            shape = D._nest([0 if i == j else "u" for i in range(n)])
            drop = C.structural(kept.dst, shape, 0, {0: bang})
            assert m.compose(kept).compose(drop).sup_distance(C.identity(bang)) <= 1e-12


def test_route_errors_name_the_variable():
    cfg = CFG
    for name in ("alpha", "beta"):
        ctx = ((name, S.QUBIT),)
        with pytest.raises(D.DenotationError, match=f"cannot weaken linear variable {name}$"):
            D.route(ctx, [()], cfg)
        with pytest.raises(D.DenotationError, match=f"cannot contract linear variable {name}$"):
            D.route(ctx, [ctx, ctx], cfg)
        with pytest.raises(D.DenotationError, match=f"promotion under linear binding {name}$"):
            D._promote_ctx((("f", BANG_UQ), (name, S.QUBIT)), C.identity(C.UNIT_OBJ), cfg)
    with pytest.raises(D.DenotationError, match="not distinct"):
        D.route((("f", BANG_UQ), ("f", BANG_UQ)), [()], cfg)


def five_step_curry(f, c, a, b):
    from test_cpm_laws import curry_prefix_composite

    return curry_prefix_composite(c, a).compose(C.identity(a).tensor(f))


def test_curry_equals_unfactored_chain(monkeypatch):
    clear_caches()  # the denote memo would otherwise hide calls
    calls = record_calls(monkeypatch, C, "curry")
    for term in fuzz_terms()[::3]:
        A.scalar_denotation(term, D.DEFAULT_CONFIG)
    monkeypatch.undo()
    assert len({(c, a) for _, c, a, _ in calls}) > 5
    for f, c, a, b in calls:
        assert_same(C.curry(f, c, a, b), five_step_curry(f, c, a, b))


def frozen(m):
    """A cached morphism's text, or a cached plumbing entry's bytes."""
    return C.serialize_morphism(m) if isinstance(m, C.Morphism) else C._dense(m).tobytes()


def test_cached_plumbing_is_not_mutated(monkeypatch):
    clear_caches()  # the denote memo would otherwise hide calls
    # the denote memo too: adequacy's binding makes the outermost call and
    # the module's own the nested ones
    builders = [(D, "route"), (D, "denote"), (A, "denote")]
    calls = [(getattr(mod, name), record_calls(monkeypatch, mod, name))
             for mod, name in builders]
    terms = fuzz_terms()
    for term in terms:
        A.scalar_denotation(term, D.DEFAULT_CONFIG)
    monkeypatch.undo()
    cached = {}
    for fn, args in calls:
        assert args, fn
        for a in args:
            m = fn(*a)
            cached[id(m)] = (fn, a, m, frozen(m))
    for term in terms:
        A.scalar_denotation(term, D.DEFAULT_CONFIG)
    for fn, a, m, text in cached.values():
        assert fn(*a) is m
        assert frozen(m) == text


def test_outputs_do_not_depend_on_process_history():
    from test_golden import PROGRAM_NAMES, SAMPLE_PROGRAMS, _program, _samples

    def outputs():
        return ([C.serialize_morphism(_program(n)) for n in PROGRAM_NAMES],
                [_samples(n) for n in SAMPLE_PROGRAMS])

    clear_caches()
    cold = outputs()
    for s in range(40):
        program = A.random_finitary_program(s)
        A.scalar_denotation(program, D.DEFAULT_CONFIG)
        M.sample(M.load(program), s)
    assert outputs() == cold


def test_memo_is_exact():
    # a denotation served in part by other programs' memo entries is the
    # one a cold process builds, byte for byte
    cfg = D.DEFAULT_CONFIG
    derivs = [T.typecheck(A.random_finitary_program(s), S.UNIT) for s in range(300)]
    derivs += [T.typecheck(A.random_letrec_program(s), S.UNIT) for s in range(150)]
    clear_caches()
    warm = [C.serialize_morphism(D.denote(d, cfg)) for d in derivs]
    assert D.denote.cache_info().hits > 1000
    for d, text in zip(derivs, warm):
        clear_caches()
        assert C.serialize_morphism(D.denote(d, cfg)) == text, S.pretty(d.term)
    # and no entry crosses configs: teleport's web depends on bang_max
    d = T.typecheck(P.parse_term((PROGRAMS / "teleport.qlam").read_text()))
    clear_caches()
    cold = C.serialize_morphism(D.denote(d, cfg))
    clear_caches()
    other = C.serialize_morphism(D.denote(d, replace(cfg, bang_max=1)))
    assert other != cold
    assert C.serialize_morphism(D.denote(d, cfg)) == cold


# ---------------------------------------------------------------------------
# compose gathers through index maps (relabel and permute maps, and the maps
# built from them alone); eval and the curry prefix file entries built once
# per pair of label signatures


def large_denotations():
    """The fuzz programs and the four programs of perfbench's denote-large."""
    for term in fuzz_terms():
        A.scalar_denotation(term, D.DEFAULT_CONFIG)
    qlist_applied(D.TruncationConfig(list_max=4, bang_max=1))
    for name in ("teleport", "teleport-applied", "teleport-roundtrip"):
        D.denote(T.typecheck(P.parse_term((PROGRAMS / f"{name}.qlam").read_text())),
                 D.DEFAULT_CONFIG)


def entry_distance(m1, m2) -> float:
    """The largest entrywise difference, large entries kept sparse."""
    assert (m1.src, m1.dst) == (m2.src, m2.dst)
    worst = 0.0
    for k in m1.entries.keys() | m2.entries.keys():
        x, y = m1.entries.get(k), m2.entries.get(k)
        worst = max(worst, C._maxabs(y if x is None else x if y is None else x - y))
    return worst


def multiplied(m):
    """m with the same entries, built, but not an index map, so that
    ``compose`` multiplies them in."""
    return C.Morphism(m.src, m.dst, m.entries)


def moved_groups(m) -> int:
    """The keys of an index map that move digits under a nontrivial group."""
    return sum(rows is not None and not m.src.group(la).is_trivial
               for (la, _), rows in (m.gathers or {}).items())


def test_gathered_compose_equals_product(monkeypatch):
    # every compose with an index map on either side: re-keyed, rows
    # gathered, columns moved, or composed into one index map
    clear_caches()  # so the plumbing is built, and composed, in the test
    compose = C.Morphism.compose
    distances = []
    nontrivial = []

    def checked(self, other):
        got = compose(self, other)
        if self.gathers is not None or other.gathers is not None:
            want = compose(multiplied(self), multiplied(other))
            assert got.entries.keys() == want.entries.keys()
            distances.append(entry_distance(got, want))
            assert distances[-1] <= 1e-12, (self.src, other.dst)
            nontrivial.append(moved_groups(self) + moved_groups(other))
        return got

    monkeypatch.setattr(C.Morphism, "compose", checked)
    large_denotations()
    monkeypatch.undo()
    assert len(distances) > 1000
    # teleport at bang_max=2 moves digits under S2 wreath groups
    assert sum(map(bool, nontrivial)) > 10


def test_compose_after_unequal_group_orders_multiplies():
    # contraction and the Bierman tensor carry the source group of some keys
    # onto a proper supergroup of the target's; there the source average
    # still acts, so compose must multiply, not move columns
    from test_cpm_laws import rand_mor

    rng = np.random.default_rng(3)
    q = C.QUBIT_OBJ
    unequal = 0
    for p in (C.contraction(q, 2), C.digging(q, 2), C.bierman_tensor(q, q, 2)):
        x = rand_mor(rng, p.dst, q)
        got = p.compose(x)
        want = multiplied(p).compose(x)
        assert got.entries.keys() == want.entries.keys()
        assert entry_distance(got, want) <= 1e-12
        unequal += sum(p.src.group(la).order != p.dst.group(lb).order for la, lb in p.gathers)
    assert unequal > 0


def test_index_map_keys_never_grow_the_group(monkeypatch):
    # compose reads a key as exact, its relabelling carrying the source
    # group onto the target's, when the two orders are equal; that holds
    # because the relabelled source group contains the target's, so no key
    # of an index map has a smaller source group than target group
    from test_cpm_laws import (test_bierman_maps, test_comonad_naturality,
                               test_comonad_triangles, test_comonoid_laws,
                               test_constructors_invariant, test_cp_preserved_by_constructors,
                               test_curry_eval_adjunction, test_digging_coassociativity,
                               test_maps_that_move_digits_absorb_the_target_average,
                               test_structural_isos)

    clear_caches()  # so the cached index maps are built here
    built = record_calls(monkeypatch, C, "_index_map")
    for law in (test_structural_isos, test_curry_eval_adjunction, test_comonoid_laws,
                test_comonad_triangles, test_digging_coassociativity, test_comonad_naturality,
                test_bierman_maps, test_maps_that_move_digits_absorb_the_target_average,
                test_constructors_invariant, test_cp_preserved_by_constructors):
        law()
    large_denotations()
    monkeypatch.undo()
    keys = larger = 0
    for src, dst, gathers in built:
        for la, lb in gathers:
            assert src.group(la).order >= dst.group(lb).order, (la, lb)
            keys += 1
            larger += src.group(la).order > dst.group(lb).order
    assert keys > 10000 and larger > 100


def test_curry_and_application_equal_the_composites_bit_for_bit(monkeypatch):
    # curry and application by index arithmetic are the composites on the
    # whole webs, bit for bit, on every call of the large denotations
    from test_cpm_laws import assert_bitwise_equal, tensor_eval_composite

    clear_caches()  # the denote memo would otherwise hide calls
    curries = record_calls(monkeypatch, C, "curry")
    applications = record_calls(monkeypatch, C, "application")
    large_denotations()
    monkeypatch.undo()
    assert len(curries) > 50 and len(applications) > 100
    large = 0
    for args in curries:
        assert_bitwise_equal(C.curry(*args), five_step_curry(*args))
        large += sum(map(sparse.issparse, args[0].entries.values()))
    for f, x, a, b in applications:
        assert_bitwise_equal(C.application(f, x, a, b), tensor_eval_composite(f, x, a, b))
        large += sum(map(sparse.issparse, f.entries.values()))
    # qlist's curries and applications have CSR entries of up to 1024 x 1024
    assert large > 3


# ---------------------------------------------------------------------------
# application: route ; application(f, x, a, b) is route ; (f (x) x) ; eval


def application_composite(d, cfg):
    """An application node's denotation with the whole tensor ``f (x) x``."""
    df, da = d.children
    ev = C.eval_mor(D.denote_type(df.type.arg, cfg), D.denote_type(df.type.res, cfg))
    whole = D.denote(df, cfg).tensor(D.denote(da, cfg))
    return D.route(d.ctx, [df.ctx, da.ctx], cfg).compose(whole).compose(ev), whole, ev


def test_application_equals_the_unrestricted_composite(monkeypatch):
    from test_cpm_laws import assert_bitwise_equal

    clear_caches()  # the denote memo would otherwise hide calls
    # adequacy's binding makes the outermost call and the module's own the nested ones
    calls = [record_calls(monkeypatch, mod, "denote") for mod in (D, A)]
    large_denotations()
    monkeypatch.undo()
    applications = {(d, cfg) for d, cfg in itertools.chain(*calls) if d.rule == "loli_E"}
    assert len(applications) > 100
    unread = 0
    for d, cfg in applications:
        want, whole, ev = application_composite(d, cfg)
        assert_bitwise_equal(D.denote(d, cfg), want)
        reads = {l for l, _ in ev.entries}
        unread += sum(lb not in reads for _, lb in whole.entries)
    # teleport's two 64-entry tensors leave 48 entries each unread
    assert unread > 150


def test_curry_and_application_build_no_channel_and_no_tensor(monkeypatch):
    # neither builds a group channel, an eval or curry plumbing map, or a
    # tensor, nor multiplies by one: each call of the large denotations,
    # replayed with those builders raising, gives the same entries
    clear_caches()
    curries = record_calls(monkeypatch, C, "curry")
    applications = record_calls(monkeypatch, C, "application")
    large_denotations()
    monkeypatch.undo()
    calls = [(C.curry, args) for args in curries] + [(C.application, args) for args in applications]
    want = [fn(*args) for fn, args in calls]

    def forbidden(*args, **kwargs):
        raise AssertionError("built by curry or application")

    for module, name in ((C, "group_channel"), (C, "so_tensor"), (C, "eta"), (C, "epsilon"),
                         (C, "eval_mor"), (C, "swap"), (C.Morphism, "tensor"),
                         (C.Morphism, "compose")):
        monkeypatch.setattr(module, name, forbidden)
    got = [fn(*args) for fn, args in calls]
    monkeypatch.undo()
    assert len(calls) > 150
    for m1, m2 in zip(got, want):
        assert_same(m1, m2)
