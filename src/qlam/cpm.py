"""The completely positive map category with biproducts, built on webs.

An object is a finite web: a family of pairs (dimension, permutation
group), one per label.  A morphism is a label-indexed family of
superoperators, each invariant under the source and target group actions
(conjugation by permutation matrices).  Superoperators are complex
matrices acting on column-major vectorizations, stored dense or as scipy
sparse arrays (relabellings, identities, eta and epsilon are built
sparse), and morphism families are sparse: absent entries are zero.

Every structural map is a relabelling of basis indices averaged over the
group actions.  A relabelling is an index array ``tau`` with
``tau[in_flat] = out_flat`` over mixed-radix digits, the last digit
varying fastest (:func:`digit_permutation`); :func:`perm_channel` turns it
into conjugation by ``P`` with ``P[tau[i], i] = 1``, whose vec form sends
``vec(X)`` to ``vec(P X P^T)``.

The exponential is the biproduct of symmetric powers up to a truncation
bound; lists are the biproduct of tensor powers up to a bound.  All
structural morphisms (associativity, symmetry, currying, dereliction,
digging, contraction, the monoidal strength of the exponential) are
ordinary morphisms here and are exercised by the law test-suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy import sparse

DROP_EPS = 1e-12  # entries below this sup-norm are dropped from families
MAGNITUDE_BOUND = 1e12


class CpmError(Exception):
    pass


class GroupTooLargeError(CpmError):
    pass


class DivergentDenotation(CpmError):
    pass


class NonMonotoneIteration(CpmError):
    pass


# ---------------------------------------------------------------------------
# Superoperator helpers (column-major vec convention: vec(AXB) = (B^T (x) A) vec(X))


def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def _dense(v) -> np.ndarray:
    return v.toarray() if sparse.issparse(v) else np.asarray(v)


def _maxabs(v) -> float:
    # implicit zeros of a sparse entry never raise the maximum
    data = v.data if sparse.issparse(v) else np.asarray(v)
    return float(np.max(np.abs(data))) if data.size else 0.0


def so_conjugation(a: np.ndarray) -> np.ndarray:
    """X -> A X A^dagger as a superoperator."""
    a = np.asarray(a, dtype=complex)
    return np.kron(a.conj(), a)


def so_apply(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    dout = int(math.isqrt(s.shape[0]))
    return unvec(s @ vec(x), dout)


def _to_tensor(s: np.ndarray, dout: int, din: int) -> np.ndarray:
    # S[i + j*dout, k + l*din] -> T[i,j,k,l]
    return s.reshape((dout, dout, din, din), order="F")


def _from_tensor(t: np.ndarray) -> np.ndarray:
    dout, _, din, _ = t.shape
    return t.transpose(1, 0, 3, 2).reshape(dout * dout, din * din)


def digit_permutation(dims, order, acts=None) -> np.ndarray:
    """The relabelling ``tau[in_flat] = out_flat`` of mixed-radix indices.

    Indices have digits over ``dims``, the last varying fastest.  Output
    digit ``j`` is input digit ``order[j]``, mapped through the index array
    ``acts[j]`` when ``acts`` is given.  Input digits left out of ``order``
    must have dimension 1.
    """
    # open grids keep one full-size array alive, not one per digit
    grids = np.ix_(*(np.arange(d) for d in dims))
    out = np.zeros(tuple(dims), dtype=np.intp)
    for j, i in enumerate(order):
        out *= dims[i]
        out += grids[i] if acts is None else np.asarray(acts[j], dtype=np.intp)[grids[i]]
    return out.reshape(-1)


def _vec_gather(perm) -> np.ndarray:
    """Index c with vec(P X P^T) = vec(X)[c], where P[perm[i], i] = 1."""
    inv = np.argsort(perm)
    return digit_permutation((len(perm), len(perm)), (0, 1), (inv, inv))


@lru_cache(maxsize=4096)
def _vec_pair_perm(d1: int, d2: int) -> np.ndarray:
    """Combined vec index -> Kronecker vec index, for the sparse tensor path."""
    # combined digits (c1, c2, r1, r2) -> Kronecker digits (c1, r1, c2, r2)
    out = digit_permutation((d1, d2, d1, d2), (0, 2, 1, 3))
    out.setflags(write=False)
    return out


def so_tensor(s1, s2):
    """Tensor of superoperators under lexicographic pairing of indices."""
    d1o = int(math.isqrt(s1.shape[0]))
    d1i = int(math.isqrt(s1.shape[1]))
    d2o = int(math.isqrt(s2.shape[0]))
    d2i = int(math.isqrt(s2.shape[1]))
    if sparse.issparse(s1) or sparse.issparse(s2):
        # keep the result sparse: one sparse factor keeps the product sparse
        k = sparse.kron(sparse.csr_array(s1), sparse.csr_array(s2), format="csr")
        return k[_vec_pair_perm(d1o, d2o), :][:, _vec_pair_perm(d1i, d2i)]
    t1 = _to_tensor(s1, d1o, d1i)
    t2 = _to_tensor(s2, d2o, d2i)
    t = np.einsum("abcd,efgh->aebfcgdh", t1, t2).reshape(
        d1o * d2o, d1o * d2o, d1i * d2i, d1i * d2i
    )
    return _from_tensor(t)


def choi(s) -> np.ndarray:
    """Choi matrix; positive semidefinite iff the map is completely positive."""
    s = _dense(s)
    dout = int(math.isqrt(s.shape[0]))
    din = int(math.isqrt(s.shape[1]))
    t = _to_tensor(s, dout, din)
    return t.transpose(2, 0, 3, 1).reshape(din * dout, din * dout)


def is_cp(s: np.ndarray, tol: float = 1e-9) -> bool:
    c = choi(s)
    c = (c + c.conj().T) / 2
    if s.shape[0] == 1 and s.shape[1] == 1:
        return c[0, 0].real >= -tol
    return float(np.linalg.eigvalsh(c)[0]) >= -tol


@lru_cache(maxsize=65536)
def _perm_vec_index(perm: tuple) -> np.ndarray:
    """The vec gather of one group element, cached and read-only."""
    out = _vec_gather(perm)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4096)
def _group_vec_indices(group: "PermGroup") -> np.ndarray:
    """Stacked vec-gather index arrays for all group elements, shape (order, d^2)."""
    out = np.stack([_perm_vec_index(g) for g in group.perms])
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Permutation groups


@dataclass(frozen=True)
class PermGroup:
    degree: int
    perms: tuple  # sorted tuple of index tuples, closed under composition

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup(degree, (tuple(range(degree)),))

    @staticmethod
    def symmetric(k: int, cap: int | None = None) -> "PermGroup":
        if cap is not None and math.factorial(k) > cap:
            raise GroupTooLargeError(f"S_{k} exceeds cap {cap}")
        return PermGroup(k, tuple(sorted(itertools.permutations(range(k)))))

    @property
    def order(self) -> int:
        return len(self.perms)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def product(self, other: "PermGroup") -> "PermGroup":
        """Direct product acting on the lexicographic pairing (i, j) -> i*d2 + j."""
        return _product_group(self, other)


@lru_cache(maxsize=4096)
def _product_group(g1: PermGroup, g2: PermGroup) -> PermGroup:
    d1, d2 = g1.degree, g2.degree
    if g1.is_trivial and g2.is_trivial:
        return PermGroup.trivial(d1 * d2)
    perms = set()
    for g in g1.perms:
        for h in g2.perms:
            perms.add(tuple(g[i] * d2 + h[j] for i in range(d1) for j in range(d2)))
    return PermGroup(d1 * d2, tuple(sorted(perms)))


@lru_cache(maxsize=256)
def _group_channel_sparse(group: PermGroup):
    """The group-average channel as a sparse symmetric matrix on vec space."""
    dd = group.degree * group.degree
    idx = _group_vec_indices(group)  # (order, dd); row a of S_g has its 1 at idx[g, a]
    rows = np.tile(np.arange(dd), group.order)
    cols = idx.reshape(-1)
    data = np.full(rows.shape, 1.0 / group.order)
    return sparse.csr_array((data.astype(complex), (rows, cols)), shape=(dd, dd))


def average_pre(s: np.ndarray, group: PermGroup) -> np.ndarray:
    """s composed after the group-average channel of the source."""
    if group.is_trivial:
        return s
    chan = _group_channel_sparse(group)
    # the channel is symmetric, so s @ chan == (chan @ s.T).T
    out = (chan @ s.T).T
    return out if sparse.issparse(out) else np.asarray(out)


def average_post(s: np.ndarray, group: PermGroup) -> np.ndarray:
    """the group-average channel of the target composed after s."""
    if group.is_trivial:
        return s
    chan = _group_channel_sparse(group)
    out = chan @ s
    return out if sparse.issparse(out) else np.asarray(out)


def perm_channel(tau: np.ndarray, g_src: PermGroup, g_dst: PermGroup):
    """Conjugation by P (P[tau[i], i] = 1), averaged by the source group
    before and the target group after, as a sparse matrix."""
    dd = len(tau) ** 2
    # row a holds a single 1, at the vec-gather index of a
    s = sparse.csr_array(
        (np.ones(dd, dtype=complex), _vec_gather(tau), np.arange(dd + 1)), shape=(dd, dd)
    )
    return average_post(average_pre(s, g_src), g_dst)


def group_average(group: PermGroup, x: np.ndarray) -> np.ndarray:
    """The action of the group-average channel on a single matrix."""
    v = vec(np.asarray(x, dtype=complex))
    idx = _group_vec_indices(group)
    return unvec(v[idx].mean(axis=0), group.degree)


@lru_cache(maxsize=4096)
def group_channel(group: PermGroup):
    """The group-average channel (a sparse idempotent superoperator)."""
    if group.is_trivial:
        return sparse.eye_array(group.degree ** 2, dtype=complex, format="csr")
    return _group_channel_sparse(group)


# ---------------------------------------------------------------------------
# Objects

STAR = ("star",)


@dataclass(frozen=True)
class CpmObject:
    elems: tuple  # tuple of (label, dim, PermGroup), labels distinct

    def __post_init__(self):
        labels = [l for l, _, _ in self.elems]
        if len(set(labels)) != len(labels):
            raise CpmError("duplicate labels in web")

    def labels(self):
        return tuple(l for l, _, _ in self.elems)

    def dim(self, label) -> int:
        return self._index[label][0]

    def group(self, label) -> PermGroup:
        return self._index[label][1]

    @property
    def _index(self) -> dict:
        idx = object.__getattribute__(self, "__dict__").get("_idx")
        if idx is None:
            idx = {l: (d, g) for l, d, g in self.elems}
            object.__getattribute__(self, "__dict__")["_idx"] = idx
        return idx

    def __str__(self) -> str:
        parts = ", ".join(f"{l}:{d}/#{g.order}" for l, d, g in self.elems)
        return f"{{{parts}}}"


UNIT_OBJ = CpmObject(((STAR, 1, PermGroup.trivial(1)),))
QUBIT_OBJ = CpmObject(((STAR, 2, PermGroup.trivial(2)),))


def biproduct(parts) -> CpmObject:
    elems = []
    for i, part in enumerate(parts):
        for l, d, g in part.elems:
            elems.append((("inj", i, l), d, g))
    return CpmObject(tuple(elems))


@lru_cache(maxsize=4096)
def tensor_obj(a: CpmObject, b: CpmObject) -> CpmObject:
    elems = []
    for la, da, ga in a.elems:
        for lb, db, gb in b.elems:
            elems.append((("pair", la, lb), da * db, ga.product(gb)))
    return CpmObject(tuple(elems))


def tensor_fold(objs) -> CpmObject:
    """Left-nested tensor of a list of objects; empty product is the unit."""
    objs = list(objs)
    if not objs:
        return UNIT_OBJ
    return reduce(tensor_obj, objs)


def hom_obj(a: CpmObject, b: CpmObject) -> CpmObject:
    """Internal hom via compact closure: A -o B has the web of A (x) B."""
    return tensor_obj(a, b)


# ---------------------------------------------------------------------------
# Morphisms


@dataclass
class Morphism:
    src: CpmObject
    dst: CpmObject
    entries: dict  # (src_label, dst_label) -> superoperator ndarray

    def __post_init__(self):
        entries = {}
        for k, v in self.entries.items():
            v = v.astype(complex) if sparse.issparse(v) else np.asarray(v, dtype=complex)
            m = _maxabs(v)
            if m <= DROP_EPS:
                continue
            if m > MAGNITUDE_BOUND:
                raise DivergentDenotation(f"entry {k} exceeds magnitude bound")
            entries[k] = v
        self.entries = entries
        for (la, lb), s in self.entries.items():
            din, dout = self.src.dim(la), self.dst.dim(lb)
            if s.shape != (dout * dout, din * din):
                raise CpmError(
                    f"entry ({la},{lb}) has shape {s.shape}, expected {(dout*dout, din*din)}"
                )

    def entry(self, la, lb) -> np.ndarray:
        e = self.entries.get((la, lb))
        if e is not None:
            return _dense(e)
        return np.zeros((self.dst.dim(lb) ** 2, self.src.dim(la) ** 2), dtype=complex)

    def compose(self, other: "Morphism") -> "Morphism":
        """self ; other (diagrammatic order: self first)."""
        if self.dst.labels() != other.src.labels():
            raise CpmError(f"compose mismatch: {self.dst} vs {other.src}")
        acc = {}
        by_mid = {}
        for (lb, lc), s2 in other.entries.items():
            by_mid.setdefault(lb, []).append((lc, s2))
        for (la, lb), s1 in self.entries.items():
            for lc, s2 in by_mid.get(lb, ()):
                key = (la, lc)
                prod = s2 @ s1
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        return Morphism(self.src, other.dst, acc)

    def then(self, other: "Morphism") -> "Morphism":
        return self.compose(other)

    def tensor(self, other: "Morphism") -> "Morphism":
        src = tensor_obj(self.src, other.src)
        dst = tensor_obj(self.dst, other.dst)
        entries = {}
        for (la, lb), s1 in self.entries.items():
            for (lc, ld), s2 in other.entries.items():
                entries[(("pair", la, lc), ("pair", lb, ld))] = so_tensor(s1, s2)
        return Morphism(src, dst, entries)

    def add(self, other: "Morphism") -> "Morphism":
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries[k] + v if k in entries else v
        return Morphism(self.src, self.dst, entries)

    def scale(self, c: float) -> "Morphism":
        return Morphism(self.src, self.dst, {k: c * v for k, v in self.entries.items()})

    def sup_distance(self, other: "Morphism") -> float:
        keys = set(self.entries) | set(other.entries)
        worst = 0.0
        for la, lb in keys:
            worst = max(worst, _maxabs(self.entry(la, lb) - other.entry(la, lb)))
        return worst

    def approx_eq(self, other: "Morphism", tol: float = 1e-9) -> bool:
        return self.sup_distance(other) <= tol

    def is_invariant(self, tol: float = 1e-9) -> bool:
        for (la, lb), s in self.entries.items():
            avg = average_post(average_pre(s, self.src.group(la)), self.dst.group(lb))
            if _maxabs(avg - s) > tol:
                return False
        return True

    def is_completely_positive(self, tol: float = 1e-9) -> bool:
        return all(is_cp(s, tol) for s in self.entries.values())

    def loewner_leq(self, other: "Morphism", tol: float = 1e-9) -> bool:
        """self <= other in the entrywise Loewner (Choi PSD) order."""
        keys = set(self.entries) | set(other.entries)
        for la, lb in keys:
            diff = other.entry(la, lb) - self.entry(la, lb)
            if not is_cp(diff, tol):
                return False
        return True

    def apply(self, label_in, x: np.ndarray) -> dict:
        """Apply to a matrix sitting at one source label; dict of outputs."""
        out = {}
        for (la, lb), s in self.entries.items():
            if la == label_in:
                out[lb] = so_apply(s, np.asarray(x, dtype=complex))
        return out

    def max_abs(self) -> float:
        return max((_maxabs(s) for s in self.entries.values()), default=0.0)


@lru_cache(maxsize=512)
def identity(a: CpmObject) -> Morphism:
    # the identity entry is the group-average channel (idempotent projection)
    entries = {
        (l, l): group_channel(g) for l, _, g in a.elems
    }
    return Morphism(a, a, entries)


def zero(a: CpmObject, b: CpmObject) -> Morphism:
    return Morphism(a, b, {})


def scalar(value: complex) -> Morphism:
    return Morphism(UNIT_OBJ, UNIT_OBJ, {(STAR, STAR): np.array([[value]], dtype=complex)})


# biproduct structure -------------------------------------------------------


def injection(parts, i: int) -> Morphism:
    bp = biproduct(parts)
    entries = {}
    for l, d, g in parts[i].elems:
        entries[(l, ("inj", i, l))] = group_channel(g)
    return Morphism(parts[i], bp, entries)


def projection(parts, i: int) -> Morphism:
    bp = biproduct(parts)
    entries = {}
    for l, d, g in parts[i].elems:
        entries[(("inj", i, l), l)] = group_channel(g)
    return Morphism(bp, parts[i], entries)


def cotuple(parts, morphisms) -> Morphism:
    """[f_i] : biproduct(parts) -> C given f_i : parts[i] -> C."""
    bp = biproduct(parts)
    dst = morphisms[0].dst
    entries = {}
    for i, f in enumerate(morphisms):
        for (la, lb), s in f.entries.items():
            entries[(("inj", i, la), lb)] = s
    return Morphism(bp, dst, entries)


def distribute_left(a: CpmObject, parts) -> Morphism:
    """(biproduct B_i) (x) A  ->  biproduct (B_i (x) A), label identity."""
    bp = biproduct(parts)
    src = tensor_obj(bp, a)
    dst = biproduct([tensor_obj(p, a) for p in parts])
    entries = {}
    for la, da, ga in a.elems:
        for i, part in enumerate(parts):
            for lb, db, gb in part.elems:
                g = gb.product(ga)
                entries[(("pair", ("inj", i, lb), la), ("inj", i, ("pair", lb, la)))] = group_channel(g)
    return Morphism(src, dst, entries)


def undistribute_left(a: CpmObject, parts) -> Morphism:
    # the distributor is a label retag with identical channels, so its
    # inverse reuses each entry with the key reversed
    d = distribute_left(a, parts)
    return Morphism(d.dst, d.src, {(lb, la): s for (la, lb), s in d.entries.items()})


# structural (permutation) morphisms ----------------------------------------


def _label_leaves(label, shape):
    """Decompose a tensor label along a shape tree of leaf ids."""
    if isinstance(shape, tuple):
        if label[0] != "pair":
            raise CpmError(f"label {label} does not match shape {shape}")
        return _label_leaves(label[1], shape[0]) + _label_leaves(label[2], shape[1])
    return [(shape, label)]


def _build_label(shape, leaf_labels):
    if isinstance(shape, tuple):
        return ("pair", _build_label(shape[0], leaf_labels), _build_label(shape[1], leaf_labels))
    if shape == "u":
        return STAR
    return leaf_labels[shape]


def _shape_leaf_ids(shape):
    if isinstance(shape, tuple):
        return _shape_leaf_ids(shape[0]) + _shape_leaf_ids(shape[1])
    return [] if shape == "u" else [shape]


def structural(src: CpmObject, src_shape, dst_shape, leaf_objs: dict) -> Morphism:
    """Reassociate / permute / add-drop unit factors between tensor shapes.

    Shapes are nested 2-tuples whose leaves are ids into ``leaf_objs``; the
    special leaf ``"u"`` in the destination inserts a unit factor, and ids
    present in the source but absent from the destination must denote
    1-dimensional labels (they are silently dropped).
    """
    src_ids = _shape_leaf_ids(src_shape)
    dst_ids = _shape_leaf_ids(dst_shape)
    if not set(dst_ids) <= set(src_ids):
        raise CpmError(f"destination ids {dst_ids} not a subset of source ids {src_ids}")

    # destination object: rebuild from leaf objects following the shape
    def build_obj(shape):
        if isinstance(shape, tuple):
            return tensor_obj(build_obj(shape[0]), build_obj(shape[1]))
        if shape == "u":
            return UNIT_OBJ
        return leaf_objs[shape]

    dst = build_obj(dst_shape)

    entries = {}
    for la, da, ga in src.elems:
        leaves = dict(_label_leaves(la, src_shape))
        dims = {i: leaf_objs[i].dim(leaves[i]) for i in src_ids}
        for i in src_ids:
            if i not in dst_ids and dims[i] != 1:
                raise CpmError(f"cannot drop non-unit leaf {i} (dim {dims[i]})")
        lb = _build_label(dst_shape, leaves)
        tau = digit_permutation([dims[i] for i in src_ids], [src_ids.index(i) for i in dst_ids])
        # the relabelling carries the source symmetry onto the target's, so
        # averaging once over the source group suffices
        entries[(la, lb)] = perm_channel(tau, ga, PermGroup.trivial(da))
    return Morphism(src, dst, entries)


@lru_cache(maxsize=512)
def swap(a: CpmObject, b: CpmObject) -> Morphism:
    return structural(tensor_obj(a, b), (0, 1), (1, 0), {0: a, 1: b})


@lru_cache(maxsize=512)
def assoc_right(a: CpmObject, b: CpmObject, c: CpmObject) -> Morphism:
    """(A (x) B) (x) C -> A (x) (B (x) C)."""
    src = tensor_obj(tensor_obj(a, b), c)
    return structural(src, ((0, 1), 2), (0, (1, 2)), {0: a, 1: b, 2: c})


@lru_cache(maxsize=512)
def assoc_left(a: CpmObject, b: CpmObject, c: CpmObject) -> Morphism:
    src = tensor_obj(a, tensor_obj(b, c))
    return structural(src, (0, (1, 2)), ((0, 1), 2), {0: a, 1: b, 2: c})


@lru_cache(maxsize=512)
def lunit_elim(a: CpmObject) -> Morphism:
    """1 (x) A -> A."""
    return structural(tensor_obj(UNIT_OBJ, a), ("u0", 0), 0, {0: a, "u0": UNIT_OBJ})


@lru_cache(maxsize=512)
def lunit_intro(a: CpmObject) -> Morphism:
    return structural(a, 0, ("u", 0), {0: a})


@lru_cache(maxsize=512)
def runit_elim(a: CpmObject) -> Morphism:
    return structural(tensor_obj(a, UNIT_OBJ), (0, "u0"), 0, {0: a, "u0": UNIT_OBJ})


@lru_cache(maxsize=512)
def runit_intro(a: CpmObject) -> Morphism:
    return structural(a, 0, (0, "u"), {0: a})


# compact closure ------------------------------------------------------------


def vec_kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """vec (under lexicographic index pairing) of the tensor x (x) y."""
    dx, dy = x.shape[0], y.shape[0]
    t = np.einsum("ik,jl->ijkl", x, y).reshape(dx * dy, dx * dy)
    return vec(t)


@lru_cache(maxsize=512)
def eta(a: CpmObject) -> Morphism:
    """1 -> A (x) A: the scalar p goes to p * sum_ij S(E_ij) (x) S(E_ij)."""
    dst = tensor_obj(a, a)
    entries = {}
    for l, d, g in a.elems:
        col = np.zeros(((d * d) ** 2,), dtype=complex)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                avg = group_average(g, e)
                col += vec_kron(avg, avg)
        entries[(STAR, ("pair", l, l))] = sparse.csr_array(col.reshape(-1, 1))
    return Morphism(UNIT_OBJ, dst, entries)


@lru_cache(maxsize=512)
def epsilon(a: CpmObject) -> Morphism:
    """A (x) A -> 1: E_ij (x) E_i'j' goes to (1/#G^2) sum_{g,g'} [g i = g' i'][g j = g' j']."""
    src = tensor_obj(a, a)
    entries = {}
    for l, d, g in a.elems:
        row = np.zeros((1, (d * d) ** 2), dtype=complex)
        for i in range(d):
            for j in range(d):
                for i2 in range(d):
                    for j2 in range(d):
                        val = 0.0
                        for gp in g.perms:
                            for gq in g.perms:
                                if gp[i] == gq[i2] and gp[j] == gq[j2]:
                                    val += 1.0
                        if val:
                            # the coefficient of E_ij (x) E_i'j' sits at
                            # matrix position (i*d+i', j*d+j') in vec order
                            r = i * d + i2
                            c = j * d + j2
                            row[0, r + c * d * d] += val / (g.order * g.order)
        entries[(("pair", l, l), STAR)] = sparse.csr_array(row)
    return Morphism(src, UNIT_OBJ, entries)


def curry(f: Morphism, c: CpmObject, a: CpmObject, b: CpmObject) -> Morphism:
    """Lambda(f) : C -> A -o B given f : C (x) A -> B."""
    # C -> 1 (x) C -> (A (x) A) (x) C -> A (x) (A (x) C) -> A (x) (C (x) A) -> A (x) B
    m = lunit_intro(c)
    m = m.compose(eta(a).tensor(identity(c)))
    m = m.compose(assoc_right(a, a, c))
    m = m.compose(identity(a).tensor(swap(a, c)))
    m = m.compose(identity(a).tensor(f))
    return m


@lru_cache(maxsize=512)
def eval_mor(a: CpmObject, b: CpmObject) -> Morphism:
    """Eval : (A -o B) (x) A -> B."""
    hom = tensor_obj(a, b)
    m = swap(hom, a)
    m = m.compose(assoc_left(a, a, b))
    m = m.compose(epsilon(a).tensor(identity(b)))
    m = m.compose(lunit_elim(b))
    return m


# lists ----------------------------------------------------------------------


@lru_cache(maxsize=512)
def tensor_power(a: CpmObject, n: int) -> CpmObject:
    """Right-nested n-fold tensor (so consing is a label retag)."""
    obj = UNIT_OBJ
    for _ in range(n):
        obj = tensor_obj(a, obj)
    return obj


@lru_cache(maxsize=512)
def list_obj(a: CpmObject, list_max: int) -> CpmObject:
    return biproduct([tensor_power(a, n) for n in range(list_max + 1)])


@lru_cache(maxsize=512)
def list_roll(a: CpmObject, list_max: int) -> Morphism:
    """1 (+) (A (x) A^list) -> A^list; the length list_max+1 part is dropped."""
    lst = list_obj(a, list_max)
    src = biproduct([UNIT_OBJ, tensor_obj(a, lst)])
    entries = {}
    entries[((("inj", 0, STAR)), ("inj", 0, STAR))] = np.eye(1, dtype=complex)
    for la, da, ga in a.elems:
        for n in range(list_max + 1):
            for lw, dw, gw in tensor_power(a, n).elems:
                if n + 1 > list_max:
                    continue  # truncation: overflowing lists vanish
                src_label = ("inj", 1, ("pair", la, ("inj", n, lw)))
                dst_label = ("inj", n + 1, ("pair", la, lw))
                g = ga.product(gw)
                entries[(src_label, dst_label)] = group_channel(g)
    return Morphism(src, lst, entries)


@lru_cache(maxsize=512)
def list_unroll(a: CpmObject, list_max: int) -> Morphism:
    """A^list -> 1 (+) (A (x) A^list); total (the roll is its one-sided inverse)."""
    lst = list_obj(a, list_max)
    dst = biproduct([UNIT_OBJ, tensor_obj(a, lst)])
    entries = {}
    entries[(("inj", 0, STAR), ("inj", 0, STAR))] = np.eye(1, dtype=complex)
    for n in range(1, list_max + 1):
        for la, da, ga in a.elems:
            for lw, dw, gw in tensor_power(a, n - 1).elems:
                src_label = ("inj", n, ("pair", la, lw))
                dst_label = ("inj", 1, ("pair", la, ("inj", n - 1, lw)))
                g = ga.product(gw)
                entries[(src_label, dst_label)] = group_channel(g)
    return Morphism(lst, dst, entries)


# symmetric powers and the exponential ---------------------------------------


def _mset(labels) -> tuple:
    return tuple(sorted(labels))


@lru_cache(maxsize=1024)
def sym_power(a: CpmObject, k: int, cap: int = 5040) -> CpmObject:
    """k-th symmetric power: multisets of labels with wreath-product groups."""
    elems = []
    for combo in itertools.combinations_with_replacement(sorted(a.labels()), k):
        mu = _mset(combo)
        dim = 1
        for l in mu:
            dim *= a.dim(l)
        group = _wreath_group(a, mu, cap)
        elems.append((("mset", mu), dim, group))
    return CpmObject(tuple(elems))


def _mult(mu: tuple) -> dict:
    out = {}
    for l in mu:
        out[l] = out.get(l, 0) + 1
    return out


def _wreath_group(a: CpmObject, mu: tuple, cap: int) -> PermGroup:
    """Permutations of mu-indexed digit tuples: permute equal-label copies
    and act with the per-copy groups.

    Labels of dimension 1 contribute nothing to the action and are skipped,
    so only the effective part of the multiset counts against the cap.
    """
    dims = [a.dim(l) for l in mu]
    total = 1
    for d in dims:
        total *= d
    if total == 1:
        return PermGroup.trivial(1)

    eff = [l for l in mu if a.dim(l) > 1]
    mult = _mult(eff)
    order = 1
    for l, m in mult.items():
        order *= math.factorial(m) * (a.group(l).order ** m)
    if order > cap:
        raise GroupTooLargeError(f"wreath group of {mu} has order {order} > cap {cap}")

    # slots of each effective label, in mu (sorted) order
    slots = {}
    for pos, l in enumerate(mu):
        if a.dim(l) > 1:
            slots.setdefault(l, []).append(pos)

    perms = set()
    label_list = sorted(mult)
    copy_perm_choices = [list(itertools.permutations(range(mult[l]))) for l in label_list]
    trivial_act = {d: tuple(range(d)) for d in set(dims)}
    for copy_perms in itertools.product(*copy_perm_choices):
        group_choices = [
            itertools.product(a.group(l).perms, repeat=mult[l]) for l in label_list
        ]
        for gs in itertools.product(*group_choices):
            # digit map: out digit at slot (l, t) = g_l^t(in digit at slot (l, h_l(t)))
            digit_src = list(range(len(mu)))
            digit_act = [trivial_act[d] for d in dims]
            for li, l in enumerate(label_list):
                h = copy_perms[li]
                for t in range(mult[l]):
                    digit_src[slots[l][t]] = slots[l][h[t]]
                    digit_act[slots[l][t]] = gs[li][t]
            perms.add(tuple(digit_permutation(dims, digit_src, digit_act).tolist()))
    return PermGroup(total, tuple(sorted(perms)))


@lru_cache(maxsize=1024)
def bang_obj(a: CpmObject, bang_max: int, cap: int = 5040) -> CpmObject:
    """!A truncated at multiset cardinality bang_max."""
    elems = []
    for k in range(bang_max + 1):
        for l, d, g in sym_power(a, k, cap).elems:
            elems.append((("mset", l[1]), d, g))
    return CpmObject(tuple(elems))


def _copy_positions(seq) -> list:
    """The position of each entry of seq in the multiset sorted(seq): the
    t-th occurrence of a label in seq takes the t-th copy of it."""
    pos = [0] * len(seq)
    for p, j in enumerate(sorted(range(len(seq)), key=seq.__getitem__)):
        pos[j] = p
    return pos


def _reindex_channel(a: CpmObject, mu: tuple, seq, group_src: PermGroup, group_dst: PermGroup):
    """Channel taking digits in mu (sorted) order to digits in seq order,
    averaged by the source and target symmetries."""
    tau = digit_permutation([a.dim(l) for l in mu], _copy_positions(seq))
    return perm_channel(tau, group_src, group_dst)


@lru_cache(maxsize=512)
def weakening(a: CpmObject, bang_max: int, cap: int = 5040) -> Morphism:
    """!A -> 1, supported on the empty multiset."""
    bang = bang_obj(a, bang_max, cap)
    return Morphism(bang, UNIT_OBJ, {(("mset", ()), STAR): np.eye(1, dtype=complex)})


@lru_cache(maxsize=512)
def dereliction(a: CpmObject, bang_max: int, cap: int = 5040) -> Morphism:
    """!A -> A, supported on singleton multisets."""
    bang = bang_obj(a, bang_max, cap)
    entries = {}
    if bang_max >= 1:
        for l, d, g in a.elems:
            entries[(("mset", (l,)), l)] = group_channel(g)
    return Morphism(bang, a, entries)


@lru_cache(maxsize=512)
def contraction(a: CpmObject, bang_max: int, cap: int = 5040) -> Morphism:
    """!A -> !A (x) !A, summing over all splits of each multiset."""
    bang = bang_obj(a, bang_max, cap)
    dst = tensor_obj(bang, bang)
    entries = {}
    for lmu, dmu, gmu in bang.elems:
        mu = lmu[1]
        mult = _mult(mu)
        keys = sorted(mult)
        choices = [range(mult[l] + 1) for l in keys]
        for take in itertools.product(*choices):
            mu1 = []
            mu2 = []
            for l, t in zip(keys, take):
                mu1 += [l] * t
                mu2 += [l] * (mult[l] - t)
            mu1, mu2 = _mset(mu1), _mset(mu2)
            # digit order: mu1's copies then mu2's copies, as a sequence
            seq = list(mu1) + list(mu2)
            g1 = bang.group(("mset", mu1))
            g2 = bang.group(("mset", mu2))
            s = _reindex_channel(a, mu, seq, gmu, g1.product(g2))
            key = (lmu, ("pair", ("mset", mu1), ("mset", mu2)))
            entries[key] = entries.get(key, 0) + s
    return Morphism(bang, dst, entries)


@lru_cache(maxsize=512)
def digging(a: CpmObject, bang_max: int, cap: int = 5040) -> Morphism:
    """!A -> !!A; a multiset of multisets receives their multiset union.

    The exponent is read multiplicatively: the union counts each inner
    multiset as many times as it occurs.
    """
    bang = bang_obj(a, bang_max, cap)
    bb = bang_obj(bang, bang_max, cap)
    entries = {}
    for lM, dM, gM in bb.elems:
        msets = lM[1]  # tuple of ("mset", mu) labels
        union = []
        for inner in msets:
            union += list(inner[1])
        mu = _mset(union)
        if len(mu) > bang_max:
            continue
        lmu = ("mset", mu)
        # digit order of the target label: concatenation of the inner msets
        seq = [l for inner in msets for l in inner[1]]
        s = _reindex_channel(a, mu, seq, bang.group(lmu), gM)
        key = (lmu, lM)
        entries[key] = entries.get(key, 0) + s
    return Morphism(bang, bb, entries)


def promotion(f: Morphism, bang_max: int, cap: int = 5040) -> Morphism:
    """!f : !A -> !B from f : A -> B, acting multiset-pointwise."""
    a, b = f.src, f.dst
    banga = bang_obj(a, bang_max, cap)
    bangb = bang_obj(b, bang_max, cap)
    entries = {}
    src_labels = sorted({la for la, _ in f.entries})
    for lnu, dnu, gnu in bangb.elems:
        nu = lnu[1]
        k = len(nu)
        if k == 0:
            key = (("mset", ()), lnu)
            entries[key] = np.eye(1, dtype=complex)
            continue
        # enumerate source sequences aligned with the sorted target sequence
        for seq in itertools.product(src_labels, repeat=k):
            blocks = [f.entries.get((seq[i], nu[i])) for i in range(k)]
            if any(bl is None for bl in blocks):
                continue
            mu = _mset(seq)
            lmu = ("mset", mu)
            # reorder source digits from mu order into seq order, then apply
            # the blockwise tensor, then average into the target symmetry
            pre = _reindex_channel(a, mu, seq, banga.group(lmu), PermGroup.trivial(banga.dim(lmu)))
            block = reduce(so_tensor, blocks)
            s = average_post(block @ pre, gnu)
            key = (lmu, lnu)
            entries[key] = entries.get(key, 0) + s
    return Morphism(banga, bangb, entries)


@lru_cache(maxsize=512)
def bierman_unit(bang_max: int, cap: int = 5040) -> Morphism:
    """m1 : 1 -> !1; hits the k-fold multiset of the unit label for every k."""
    bang = bang_obj(UNIT_OBJ, bang_max, cap)
    entries = {}
    for k in range(bang_max + 1):
        entries[(STAR, ("mset", (STAR,) * k))] = np.eye(1, dtype=complex)
    return Morphism(UNIT_OBJ, bang, entries)


@lru_cache(maxsize=512)
def bierman_tensor(a: CpmObject, b: CpmObject, bang_max: int, cap: int = 5040) -> Morphism:
    """m(x) : !A (x) !B -> !(A (x) B).

    The target multiset eta determines the sources as its two projections;
    the entry matches the canonical label-respecting pairing of copies,
    averaged by all three symmetries.
    """
    banga = bang_obj(a, bang_max, cap)
    bangb = bang_obj(b, bang_max, cap)
    ab = tensor_obj(a, b)
    bangab = bang_obj(ab, bang_max, cap)
    src = tensor_obj(banga, bangb)
    entries = {}
    for leta, deta, geta in bangab.elems:
        eta_ms = leta[1]  # sorted tuple of ("pair", la, lb)
        a_seq = [p[1] for p in eta_ms]
        b_seq = [p[2] for p in eta_ms]
        mu, nu = _mset(a_seq), _mset(b_seq)
        if len(mu) > bang_max or len(nu) > bang_max:
            continue
        lsrc = ("pair", ("mset", mu), ("mset", nu))
        # source digits: mu digits then nu digits; target digits follow
        # eta_ms order as (a-digit, b-digit) pairs, each eta slot taking a
        # concrete copy of its a-label and b-label
        k = len(eta_ms)
        order = [q for i, j in zip(_copy_positions(a_seq), _copy_positions(b_seq))
                 for q in (i, k + j)]
        tau = digit_permutation([a.dim(l) for l in mu] + [b.dim(l) for l in nu], order)
        gsrc = banga.group(("mset", mu)).product(bangb.group(("mset", nu)))
        entries[(lsrc, leta)] = perm_channel(tau, gsrc, geta)
    return Morphism(src, bangab, entries)


# ---------------------------------------------------------------------------
# Text serialization of morphisms (for golden tests and the CLI)


def serialize_morphism(m: Morphism) -> str:
    """Line-oriented text form: one block per entry.

    Each block is ``entry <src-label> <dst-label>`` followed by
    ``shape <rows> <cols>`` and the superoperator matrix in row-major order,
    one row per line, each element written as ``re,im``.  Labels are the
    nested-tuple web labels, written with ``repr`` (parseable by
    ``ast.literal_eval``).  Entries appear in sorted label order so the
    output is deterministic.
    """
    lines = ["qlam-morphism v1"]
    lines.append(f"src {m.src}")
    lines.append(f"dst {m.dst}")
    for (ls, ld) in sorted(m.entries, key=repr):
        e = _dense(m.entries[(ls, ld)])
        lines.append(f"entry {ls!r} -> {ld!r}")
        lines.append(f"shape {e.shape[0]} {e.shape[1]}")
        for row in e:
            lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def deserialize_entries(text: str) -> dict:
    """Parse the output of :func:`serialize_morphism` back into a dict
    mapping (src-label, dst-label) to dense complex matrices."""
    import ast

    entries = {}
    it = iter(text.splitlines())
    header = next(it, "")
    if not header.startswith("qlam-morphism"):
        raise CpmError("not a serialized morphism")
    cur = None
    rows = []
    shape = None

    def flush():
        if cur is not None:
            mat = np.array(rows, dtype=complex)
            if shape is not None and mat.shape != shape:
                raise CpmError(f"entry {cur}: expected shape {shape}, got {mat.shape}")
            entries[cur] = mat

    for line in it:
        line = line.strip()
        if not line or line.startswith(("src ", "dst ")):
            continue
        if line.startswith("entry "):
            flush()
            lhs, _, rhs = line[len("entry "):].partition(" -> ")
            cur = (ast.literal_eval(lhs), ast.literal_eval(rhs))
            rows = []
            shape = None
        elif line.startswith("shape "):
            r, c = line.split()[1:]
            shape = (int(r), int(c))
        else:
            rows.append([complex(*map(float, z.split(","))) for z in line.split()])
    flush()
    return entries


def diff_entries(a: dict, b: dict) -> dict:
    """Per-entry max-norm differences between two entry dicts.

    Missing entries are treated as zero.  Returns a dict from entry key to
    max absolute difference; the overall maximum is under the key ``None``.
    """
    report = {}
    worst = 0.0
    for key in sorted(set(a) | set(b), key=repr):
        x = a.get(key)
        y = b.get(key)
        if x is None:
            d = _maxabs(y)
        elif y is None:
            d = _maxabs(x)
        elif _dense(x).shape != _dense(y).shape:
            d = float("inf")
        else:
            d = float(np.max(np.abs(_dense(x) - _dense(y)))) if _dense(x).size else 0.0
        report[key] = d
        worst = max(worst, d)
    report[None] = worst
    return report
