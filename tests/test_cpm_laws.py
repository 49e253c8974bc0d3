"""Randomized law suites for the CPM-style category.

Each family runs 100 seeded instances on small objects (component dims <= 4,
multiset truncation K <= 3) and requires equality within 1e-9 in the
entrywise sup norm.
"""

import numpy as np
import pytest

from qlam import cpm as C

TOL = 1e-9
N_INSTANCES = 100

S2 = C.PermGroup(2, ((0, 1), (1, 0)))

# a small pool of fixed web objects; randomness lives in the morphism entries
U1 = C.UNIT_OBJ
D2 = C.QUBIT_OBJ
D2S = C.CpmObject(((C.STAR, 2, S2),))
TWO = C.CpmObject(((("a",), 1, C.PermGroup.trivial(1)), (("b",), 2, C.PermGroup.trivial(2))))
TWO_S = C.CpmObject(((("a",), 2, S2), (("b",), 1, C.PermGroup.trivial(1))))

POOL = [U1, D2, D2S, TWO, TWO_S]
POOL_DIM1 = [U1, C.CpmObject(((("a",), 1, C.PermGroup.trivial(1)), (("b",), 1, C.PermGroup.trivial(1))))]


def rand_obj(rng, pool=POOL):
    return pool[rng.integers(len(pool))]


def rand_mor(rng, a: C.CpmObject, b: C.CpmObject) -> C.Morphism:
    """A random group-invariant morphism (not necessarily CP)."""
    entries = {}
    for la, da, ga in a.elems:
        for lb, db, gb in b.elems:
            if rng.random() < 0.15:
                continue  # leave some entries structurally zero
            s = rng.normal(size=(db * db, da * da)) + 1j * rng.normal(size=(db * db, da * da))
            entries[(la, lb)] = C.average_post(C.average_pre(s, ga), gb)
    return C.Morphism(a, b, entries)


def assert_close(f: C.Morphism, g: C.Morphism, tol: float = TOL):
    d = f.sup_distance(g)
    assert d <= tol, f"morphisms differ by {d:.3e}"


def seeds():
    return [np.random.default_rng(seed) for seed in range(N_INSTANCES)]


# ---------------------------------------------------------------------------
# category and monoidal structure


def test_category_laws():
    for rng in seeds():
        a, b, c, d = (rand_obj(rng) for _ in range(4))
        f, g, h = rand_mor(rng, a, b), rand_mor(rng, b, c), rand_mor(rng, c, d)
        assert_close(f.then(g).then(h), f.then(g.then(h)))
        assert_close(C.identity(a).then(f), f)
        assert_close(f.then(C.identity(b)), f)


def test_tensor_bifunctorial():
    for rng in seeds():
        a, b, c, d = (rand_obj(rng) for _ in range(4))
        f1, f2 = rand_mor(rng, a, b), rand_mor(rng, b, c)
        g1, g2 = rand_mor(rng, c, d), rand_mor(rng, d, a)
        assert_close(f1.tensor(g1).then(f2.tensor(g2)), f1.then(f2).tensor(g1.then(g2)))
        assert_close(C.identity(a).tensor(C.identity(b)), C.identity(C.tensor_obj(a, b)))


def test_structural_isos():
    for rng in seeds():
        a, b, c = (rand_obj(rng) for _ in range(3))
        assert_close(C.swap(a, b).then(C.swap(b, a)), C.identity(C.tensor_obj(a, b)))
        assert_close(
            C.assoc_right(a, b, c).then(C.assoc_left(a, b, c)),
            C.identity(C.tensor_obj(C.tensor_obj(a, b), c)),
        )
        assert_close(C.lunit_intro(a).then(C.lunit_elim(a)), C.identity(a))
        assert_close(C.runit_intro(a).then(C.runit_elim(a)), C.identity(a))
        # naturality of swap
        f, g = rand_mor(rng, a, b), rand_mor(rng, b, c)
        assert_close(f.tensor(g).then(C.swap(b, c)), C.swap(a, b).then(g.tensor(f)))


def _digit_permutation_reference(dims, order, acts):
    """Decode each flat index into digits (last fastest), relabel, re-encode."""
    tau = []
    for flat in range(int(np.prod(dims))):
        digits, rem = [], flat
        for d in reversed(dims):
            digits.append(rem % d)
            rem //= d
        digits.reverse()
        out = 0
        for j, i in enumerate(order):
            out = out * dims[i] + (digits[i] if acts is None else acts[j][digits[i]])
        tau.append(out)
    return tau


def test_digit_permutation_and_perm_channel():
    cases = [((), (), None), ((1, 1), (), None), ((1,), (), None)]
    for rng in seeds():
        dims = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(0, 5)))
        # a reordering of the digits that drops some of dimension 1
        order = tuple(int(i) for i in rng.permutation(len(dims))
                      if dims[i] > 1 or rng.random() < 0.5)
        acts = [tuple(rng.permutation(dims[i]).tolist()) for i in order]
        cases += [(dims, order, None), (dims, order, acts)]
    for dims, order, acts in cases:
        tau = C.digit_permutation(dims, order, acts)
        assert tau.tolist() == _digit_permutation_reference(dims, order, acts)
        # perm_channel is conjugation by P[tau[i], i] = 1
        p = np.zeros((tau.size, tau.size))
        p[tau, np.arange(tau.size)] = 1.0
        triv = C.PermGroup.trivial(tau.size)
        chan = C.perm_channel(tau, triv, triv)
        assert np.array_equal(chan.toarray(), C.so_conjugation(p))


# ---------------------------------------------------------------------------
# biproducts and distributivity


def test_biproduct_laws():
    for rng in seeds():
        parts = [rand_obj(rng), rand_obj(rng)]
        for i in range(2):
            assert_close(C.injection(parts, i).then(C.projection(parts, i)), C.identity(parts[i]))
            j = 1 - i
            assert_close(
                C.injection(parts, i).then(C.projection(parts, j)),
                C.zero(parts[i], parts[j]),
            )
        # cotuple mediates: inj_i ; [f0,f1] = f_i
        c = rand_obj(rng)
        fs = [rand_mor(rng, parts[0], c), rand_mor(rng, parts[1], c)]
        cot = C.cotuple(parts, fs)
        for i in range(2):
            assert_close(C.injection(parts, i).then(cot), fs[i])


def test_pdistr_iso_and_naturality():
    for rng in seeds():
        a = rand_obj(rng)
        parts = [rand_obj(rng), rand_obj(rng)]
        bp = C.biproduct(parts)
        dist = C.distribute_left(a, parts)
        undist = C.undistribute_left(a, parts)
        assert_close(dist.then(undist), C.identity(C.tensor_obj(bp, a)))
        assert_close(undist.then(dist), C.identity(dist.dst))
        # naturality in the biproduct argument
        parts2 = [rand_obj(rng), rand_obj(rng)]
        gs = [rand_mor(rng, parts[i], parts2[i]) for i in range(2)]
        bp_map = C.cotuple(parts, [gs[i].then(C.injection(parts2, i)) for i in range(2)])
        f = rand_mor(rng, a, a)
        lhs = bp_map.tensor(f).then(C.distribute_left(a, parts2))
        parts_t = [C.tensor_obj(p, a) for p in parts]
        parts2_t = [C.tensor_obj(p, a) for p in parts2]
        sum_map = C.cotuple(parts_t, [gs[i].tensor(f).then(C.injection(parts2_t, i)) for i in range(2)])
        rhs = dist.then(sum_map)
        assert_close(lhs, rhs)


# ---------------------------------------------------------------------------
# compact closure


def test_snake_equations():
    for rng in seeds():
        a = rand_obj(rng)
        ida = C.identity(a)
        lhs = (
            C.lunit_intro(a)
            .then(C.eta(a).tensor(ida))
            .then(C.assoc_right(a, a, a))
            .then(ida.tensor(C.epsilon(a)))
            .then(C.runit_elim(a))
        )
        assert_close(lhs, ida)
        rhs = (
            C.runit_intro(a)
            .then(ida.tensor(C.eta(a)))
            .then(C.assoc_left(a, a, a))
            .then(C.epsilon(a).tensor(ida))
            .then(C.lunit_elim(a))
        )
        assert_close(rhs, ida)


def test_curry_eval_adjunction():
    for rng in seeds():
        c, a, b = rand_obj(rng), rand_obj(rng), rand_obj(rng)
        f = rand_mor(rng, C.tensor_obj(c, a), b)
        lam = C.curry(f, c, a, b)
        assert_close(lam.tensor(C.identity(a)).then(C.eval_mor(a, b)), f)
        # currying Eval gives the identity on the hom object
        hom = C.hom_obj(a, b)
        assert_close(C.curry(C.eval_mor(a, b), hom, a, b), C.identity(hom))


# ---------------------------------------------------------------------------
# lists


def test_list_roll_unroll():
    for rng in seeds():
        a = rand_obj(rng)
        L = int(rng.integers(1, 4))
        roll = C.list_roll(a, L)
        unroll = C.list_unroll(a, L)
        # unroll is total and rolls back to the identity
        assert_close(unroll.then(roll), C.identity(C.list_obj(a, L)))


# ---------------------------------------------------------------------------
# exponential: comonoid, comonad, promotion, bierman

# K = 3 instances use 1-dimensional webs; 2-dimensional bases use K = 2 to
# keep the triple-tensor structural morphisms desk-scale
BANG_POOL = [(U1, 3), (POOL_DIM1[1], 3), (D2, 2), (D2S, 2), (TWO, 2), (TWO_S, 2)]


def rand_bang_obj(rng):
    return BANG_POOL[rng.integers(len(BANG_POOL))]


def test_comonoid_laws():
    checked = set()
    for rng in seeds():
        a, k = rand_bang_obj(rng)
        if (a, k) in checked:
            continue  # the maps are canonical; each instance checks once
        checked.add((a, k))
        bang = C.bang_obj(a, k)
        contr = C.contraction(a, k)
        weak = C.weakening(a, k)
        idb = C.identity(bang)
        assert_close(contr.then(weak.tensor(idb)).then(C.lunit_elim(bang)), idb)
        assert_close(contr.then(idb.tensor(weak)).then(C.runit_elim(bang)), idb)
        assert_close(contr.then(C.swap(bang, bang)), contr)
        assert_close(
            contr.then(contr.tensor(idb)).then(C.assoc_right(bang, bang, bang)),
            contr.then(idb.tensor(contr)),
        )


def test_comonad_triangles():
    for rng in seeds():
        a, k = rand_bang_obj(rng)
        bang = C.bang_obj(a, k)
        dig = C.digging(a, k)
        assert_close(dig.then(C.dereliction(bang, k)), C.identity(bang))
        assert_close(dig.then(C.promotion(C.dereliction(a, k), k)), C.identity(bang))


def test_digging_coassociativity():
    # needs !!!A, so restrict to 1-dimensional webs to keep it desk-scale.
    # Under cardinality truncation K the two composites agree exactly on
    # every target whose flattened cardinality fits below K; the route
    # through dig;dig additionally forces the *flattened* intermediate
    # multiset through !!A, so at the boundary it only loses entries
    # (Loewner-below the dig;!dig route).  Both facts are tested; exact
    # coassociativity is recovered in the K -> infinity limit.
    # the two composites are canonical (no random data), so enumerate the
    # feasible (base, K) pairs instead of drawing repeated instances
    combos = [(U1, 1), (U1, 2), (U1, 3), (POOL_DIM1[1], 1), (POOL_DIM1[1], 2)]
    for a, k in combos:
        bang = C.bang_obj(a, k)
        dig = C.digging(a, k)
        lhs = dig.then(C.digging(bang, k))
        rhs = dig.then(C.promotion(dig, k))
        assert lhs.loewner_leq(rhs, TOL)
        for key in set(lhs.entries) | set(rhs.entries):
            _, ltarget = key
            flat = sum(len(inner[1]) for inner in ltarget[1])
            if flat <= k:
                assert np.max(np.abs(lhs.entry(*key) - rhs.entry(*key))) <= TOL
            else:
                assert np.max(np.abs(lhs.entry(*key))) <= TOL


def test_promotion_functorial():
    for rng in seeds():
        a, k = rand_bang_obj(rng)
        b, _ = rand_bang_obj(rng)
        c, _ = rand_bang_obj(rng)
        f, g = rand_mor(rng, a, b), rand_mor(rng, b, c)
        assert_close(C.promotion(f.then(g), k), C.promotion(f, k).then(C.promotion(g, k)))
        assert_close(C.promotion(C.identity(a), k), C.identity(C.bang_obj(a, k)))


def test_comonad_naturality():
    for rng in seeds():
        a, k = rand_bang_obj(rng)
        b, kb = rand_bang_obj(rng)
        k = min(k, kb)
        f = rand_mor(rng, a, b)
        bf = C.promotion(f, k)
        assert_close(bf.then(C.dereliction(b, k)), C.dereliction(a, k).then(f))
        assert_close(bf.then(C.weakening(b, k)), C.weakening(a, k))
        assert_close(
            bf.then(C.contraction(b, k)),
            C.contraction(a, k).then(bf.tensor(bf)),
        )
        assert_close(
            bf.then(C.digging(b, k)),
            C.digging(a, k).then(C.promotion(bf, k)),
        )


def test_bierman_maps():
    for rng in seeds():
        a, k = rand_bang_obj(rng)
        b, kb = rand_bang_obj(rng)
        k = min(k, kb)
        ab = C.tensor_obj(a, b)
        m = C.bierman_tensor(a, b, k)
        # monoidality interacts correctly with dereliction and weakening
        assert_close(
            m.then(C.dereliction(ab, k)),
            C.dereliction(a, k).tensor(C.dereliction(b, k)),
        )
        assert_close(
            m.then(C.weakening(ab, k)),
            C.weakening(a, k).tensor(C.weakening(b, k)).then(C.lunit_elim(U1)),
        )
        # naturality: (!f (x) !g) ; m = m ; !(f (x) g)
        f = rand_mor(rng, a, a)
        g = rand_mor(rng, b, b)
        assert_close(
            C.promotion(f, k).tensor(C.promotion(g, k)).then(m),
            m.then(C.promotion(f.tensor(g), k)),
        )
    # the unit map splits dereliction and weakening off as identities
    for k in range(4):
        m1 = C.bierman_unit(k)
        if k >= 1:
            assert_close(m1.then(C.dereliction(U1, k)), C.identity(U1))
        assert_close(m1.then(C.weakening(U1, k)), C.identity(U1))


# ---------------------------------------------------------------------------
# hygiene: constructors produce invariant entries


def test_constructors_invariant():
    for rng in seeds()[:20]:
        a, k = rand_bang_obj(rng)
        b, _ = rand_bang_obj(rng)
        f = rand_mor(rng, a, b)
        for m in (
            C.identity(a),
            C.eta(a),
            C.epsilon(a),
            C.contraction(a, k),
            C.dereliction(a, k),
            C.digging(a, k),
            C.promotion(f, k),
            C.bierman_tensor(a, b, k),
            C.swap(a, b),
        ):
            assert m.is_invariant(TOL)


def test_cp_preserved_by_constructors():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, k = rand_bang_obj(rng)
        # a random CP morphism a -> a: conjugation superoperators are CP
        entries = {}
        for la, da, ga in a.elems:
            kraus = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
            s = C.so_conjugation(kraus)
            entries[(la, la)] = C.average_post(C.average_pre(s, ga), ga)
        f = C.Morphism(a, a, entries)
        if not f.is_completely_positive():
            continue  # group averaging can leave CP; only test when it does
        assert C.promotion(f, k).is_completely_positive()
        assert C.contraction(a, k).is_completely_positive()
        assert C.digging(a, k).is_completely_positive()
