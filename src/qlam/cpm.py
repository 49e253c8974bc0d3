"""The completely positive map category with biproducts, built on webs.

An object is a finite web: a family of pairs (dimension, permutation
group), one per label.  A morphism is a label-indexed family of
superoperators, each invariant under the source and target group actions
(conjugation by permutation matrices).  Superoperators are complex
matrices acting on column-major vectorizations, and morphism families are
sparse: absent entries are zero.

An entry has one storage form, fixed by its shape alone: a complex128
``ndarray`` when it has at most ``DENSE_MAX ** 2`` elements, a complex128 CSR
array otherwise (:func:`_stored`).  Almost every entry of a denotation is
tiny, and for those scipy's per-object cost dwarfs the arithmetic, tall and
flat ones such as a 256 x 1 column too; the large entries (relabellings and
channels on big labels) are mostly zero.
:func:`so_tensor`, ``compose`` and the relabelling and group channels choose
their path from the shape of the result, and a sum or multiple keeps the
form of its same-shaped operands; ``Morphism`` puts whatever else it is
given (a transpose, a hand-built array) into the form of its shape.

The tensor of two entries (:func:`so_tensor`) pairs vec indices by digit
arithmetic.  A vec index of a side-``d`` matrix has digits (column, row), and
the pair of (c1, r1) and (c2, r2) is ``((c1*d2 + c2)*d1 + r1)*d2 + r2``.  A
small result is one transpose of the outer product of the factors; a large
one is CSR, built straight from the factors' nonzeros, with no Kronecker
product and no regather.

The inverse maps are transposes (:meth:`Morphism.transpose`): epsilon of
eta, as the counit of a compact closed category is the transpose of its
unit, and list_unroll of list_roll, whose entries are symmetric group-average
channels, so that there the transpose only reverses the keys.

Maps that only rename labels (identities, injections, distributivity, the
list fold, weakening, dereliction, the Bierman unit, associators, unitors)
come from :func:`relabel`, whose entries are the source group-average
channels, and which accepts only pairs of labels with equal groups.  Maps
that move digits (:func:`structural`, and so ``swap`` and ``denote``'s
routing; contraction, digging and the Bierman tensor) come from
:func:`permute`: each entry relabels basis indices after one average, over
the source label's group, which absorbs the target's (see :func:`permute`).
A relabelling is an index array ``tau`` with ``tau[in_flat] = out_flat``
over mixed-radix digits, the last digit varying fastest
(:func:`digit_permutation`).  The groups come from the same helper, in one
builder keyed by a label's digit signature (:func:`_digit_group`): each
element permutes equal-label copies and acts on each copy by its label's
group, one ``digit_permutation`` each.  A product group is the signature
whose digits are each their own first copy, so a tensor label and a
multiset of distinct labels with the same groups share one group.
:func:`_vec_gather` turns a permutation or a stacked group into the vec
gathers behind every channel, ``eta``'s too; a digit move's gather is built
once per ``(dims, order)`` (:func:`_digit_gather`).

Both kinds are index maps (``Morphism.gathers``): each key keeps only the
vec gather ``rows`` of its relabelling (none for a renaming), and stands for
the source average channel ``G`` with its rows gathered, ``G[rows]``: the
conjugation by the relabelling after the average.  ``compose`` with an index
map multiplies nothing where the product is known to be a gather:

- *Second* (``X ; P``), it gathers the rows of X's entry by ``rows``, for
  every key: X's entries are invariant under its target web's groups, and
  the average channel of a group is the identity on invariant maps (an
  idempotent projection onto them), so ``G`` does nothing to X.
- *First* (``P ; X``), it moves the columns of X's entry by ``rows``, but only
  on a key whose source and target groups, read off the two webs, have
  equal orders.  The relabelling carries the source group onto a group that
  contains the target's, so with equal orders onto the target group itself:
  then ``G``, moved through the relabelling, is the target average, which X
  absorbs, and only the relabelling is left.  With a larger source group,
  ``G`` also averages over permutations that X is not invariant under, and
  the product is taken.  Renamings, ``structural`` and ``swap`` always have equal
  orders; contraction, digging and the Bierman tensor on trivial groups do
  too.  No key has a smaller source group than target group, so a
  composite or tensor of index maps has equal orders at a key exactly
  where each of its factors has them, and an index map stores nothing but
  its gathers.

Index maps compose (``rows1[rows2]``, or re-keyed through a renaming) and
tensor (the paired gathers of :func:`_pair_rows`) into index maps, so
``denote``'s routing is one index map however many blocks it has; where two
paths of a composite meet at one key, the built entries are summed.  A
channel is built, by the row gather :func:`_take_rows`, only when an entry is
read: by a product (a general map, or the first side with unequal orders), a
transpose other than a renaming's, a tensor with a general map, ``apply``,
the order checks or serialization.  Reading only the keys builds nothing.

Abstraction and application are index arithmetic on entries, not the
composites that define them (Selinger, "Dagger compact closed categories and
completely positive maps", QPL 2005).  A vec index of a side-``d`` matrix has
digits (column, row), and an entry is indexed in C order over (rows, cols):

- ``curry(f)``, the composite of ``eta_A (x) id_C``, exchanges and
  ``id_A (x) f``, has at ``(lc, (la, lb))`` the entry
  ``F.reshape(db, db, dc, da, dc, da).transpose(3, 0, 5, 1, 2, 4)``, as a
  ``((da*db)**2, dc**2)`` matrix, F being f's entry at ``((lc, la), lb)``.
  It only moves elements; a CSR entry moves its indices.
- ``application(f, x, a, b)``, ``(f (x) x) ; eval_mor(a, b)`` with ``eval``
  built from ``epsilon_A``, adds ``einsum('ibjkpq,ijrs->bkprqs', F, X)``,
  as a ``(db**2, (dc1*dc2)**2)`` matrix, to its entry at
  ``((lc1, lc2), lb)``, for f's entry F at ``(lc1, (la, lb))`` and x's X at
  ``(lc2, la)``: A's column and row digits i, j pair F with X, and B's b, k,
  C1's p, q and C2's r, s are moved into place.  It is one product of F,
  its digits moved, with X (:func:`_applied`), and a large one stays CSR.

The group averages inside ``eta``, ``epsilon`` and the exchanges drop out.
Every entry of f and x is invariant under its webs' groups, and an average
channel is the identity on invariant maps, so on f and x the composites
only move and pair digits.  ``application`` sums the composite's terms in
the composite's order, from zero, as its CSR products do (BLAS, which takes
its dense ones, may order them its own way), so the two agree to rounding.
``eval_mor`` is the composite; ``denote`` builds none of it, nor any group
channel or tensor for these two.

Each entry averages once, at its source, as an average over a group absorbs
any later one over a subgroup (:func:`permute`, :func:`promotion`); ``eta``
alone averages at its target, because its source is the unit.

The exponential is the biproduct of symmetric powers up to a truncation
bound; lists are the biproduct of tensor powers up to a bound.  All
structural morphisms (associativity, symmetry, currying, dereliction,
digging, contraction, the monoidal strength of the exponential) are
ordinary morphisms here and are exercised by the law test-suite.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np
from scipy import sparse

DROP_EPS = 1e-12  # entries below this sup-norm are dropped from families
# Entries with at most DENSE_MAX**2 elements are stored dense, whatever their
# shape: a square one is at most 16 x 16 (4 KB), a tall or flat one such as
# eta's 256 x 1 column on a 4-dimensional label as large.  Entry sides are
# squared label dimensions (1, 4, 16, 64, ...), so 16 and 64 are the choices;
# 64 ran the finitary fuzz faster, but with 10% more peak memory.
DENSE_MAX = 16
GROUP_CAP = 5040  # largest materialized permutation group
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


def _dense(v) -> np.ndarray:
    return v.toarray() if sparse.issparse(v) else np.asarray(v)


def _is_small(rows: int, cols: int) -> bool:
    return rows * cols <= DENSE_MAX * DENSE_MAX


def _csr(v) -> sparse.csr_array:
    """v as a complex128 CSR array; v itself when it already is one."""
    if isinstance(v, sparse.csr_array) and v.dtype == np.complex128:
        return v
    return sparse.csr_array(v, dtype=complex)


def _stored(v):
    """The storage form of an entry: a complex128 ndarray when it has at most
    ``DENSE_MAX ** 2`` elements, a complex128 CSR array otherwise.  A value
    already in that form is returned as it is, not copied."""
    if not _is_small(*v.shape):
        return _csr(v)
    if sparse.issparse(v):
        v = v.toarray()
    return np.asarray(v, dtype=complex)


def _matmul(a, b):
    """a @ b in the storage form of the product's shape."""
    if _is_small(a.shape[0], b.shape[1]):
        return _stored(a @ b)
    return _csr(a) @ _csr(b)


def _gather_channel(idx: np.ndarray, weight: float):
    """The square entry whose row ``a`` holds ``weight`` at each column
    ``idx[g, a]``, repeated columns summed, in storage form."""
    k, n = idx.shape
    if _is_small(n, n):
        out = np.zeros((n, n), dtype=complex)
        np.add.at(out, (np.tile(np.arange(n), k), idx.reshape(-1)), weight)
        return out
    # the rows come in order, k columns each, so the CSR arrays are direct
    data = np.full(k * n, weight, dtype=complex)
    out = sparse.csr_array((data, idx.T.reshape(-1), np.arange(0, k * n + 1, k)), shape=(n, n))
    out.sum_duplicates()
    return out


def _maxabs(v) -> float:
    # implicit zeros of a sparse entry never raise the maximum
    data = v.data if sparse.issparse(v) else v
    return float(np.abs(data).max()) if data.size else 0.0


def so_conjugation(a: np.ndarray) -> np.ndarray:
    """X -> A X A^dagger as a superoperator."""
    a = np.asarray(a, dtype=complex)
    return np.kron(a.conj(), a)


def so_apply(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    dout = int(math.isqrt(s.shape[0]))
    return np.asarray(s @ vec(x)).reshape((dout, dout), order="F")


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


def _vec_gather(perms) -> np.ndarray:
    """Index c with vec(P X P^T) = vec(X)[c], where P[perm[i], i] = 1: the
    relabelling ``digit_permutation((n, n), (0, 1), (inv, inv))`` of the
    inverse; for a stack of permutations, shape (order, n), one row each."""
    inv = np.argsort(perms, axis=-1)
    n = inv.shape[-1]
    return (inv[..., :, None] * n + inv[..., None, :]).reshape(*inv.shape[:-1], n * n)


@lru_cache(maxsize=256)
def _digit_gather(dims: tuple, order: tuple) -> np.ndarray:
    """The vec gather of the relabelling ``digit_permutation(dims, order)``,
    built once per process: ``permute``'s maps and ``promotion``'s terms move
    the same digits again and again.  It is read-only, as the cache shares
    it."""
    rows = _vec_gather(digit_permutation(dims, order))
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=256)
def _vec_pair_parts(n1: int, n2: int):
    """Index arrays u, w with u[a1] + w[a2] the paired vec index of the vec
    indices a1 < n1 and a2 < n2 of two factors of sides d1, d2.  A vec index
    has digits (column, row), so the pair is ((c1*d2 + c2)*d1 + r1)*d2 + r2.
    The arrays are read-only, as the cache shares them."""
    d1, d2 = math.isqrt(n1), math.isqrt(n2)
    c1, r1 = np.divmod(np.arange(n1), d1)
    c2, r2 = np.divmod(np.arange(n2), d2)
    u, w = (c1 * d1 * d2 + r1) * d2, c2 * d1 * d2 + r2
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _pair_rows(r1, n1: int, r2, n2: int):
    """The gather of the tensor of two gathered entries of sides n1 and n2:
    row pair(a1, a2) is row pair(r1[a1], r2[a2]), with None the identity."""
    if r1 is None and r2 is None:
        return None
    u, w = _vec_pair_parts(n1, n2)
    out = np.empty(n1 * n2, dtype=np.intp)
    out[np.add.outer(u, w).reshape(-1)] = np.add.outer(
        u if r1 is None else u[r1], w if r2 is None else w[r2]).reshape(-1)
    return out


def _take_rows(v, rows):
    """The entry whose row ``a`` is row ``rows[a]`` of v, in v's storage form.
    A CSR entry's rows are gathered from its arrays directly, each keeping its
    column order: scipy's row indexing costs more than the copy on these
    small arrays."""
    if isinstance(v, np.ndarray):
        return v[rows]
    counts = np.diff(v.indptr)[rows]
    indptr = np.zeros(rows.size + 1, dtype=v.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    take = np.repeat(v.indptr[rows] - indptr[:-1], counts)
    take += np.arange(take.size)
    return sparse.csr_array((v.data[take], v.indices[take], indptr), shape=(rows.size, v.shape[1]))


def _move_columns(v, rows):
    """The entry whose column ``rows[a]`` is column ``a`` of v (``rows`` a
    permutation), in v's storage form: v times the matrix with a 1 at each
    ``(a, rows[a])``.  Adding 0.0 makes a dense entry's zeros positive, as
    in the product this replaces.  A CSR entry keeps each row's order, and
    owns its arrays, so that sorting them in place leaves v as it was."""
    if isinstance(v, np.ndarray):
        out = np.empty_like(v)
        out[:, rows] = v
        out += 0.0
        return out
    return sparse.csr_array((v.data.copy(), rows[v.indices], v.indptr.copy()), shape=v.shape)


def _nonzeros(s):
    """Rows, columns and values of the stored entries of s, row by row with
    columns ascending, with each entry's offset within its row and the row
    counts."""
    if isinstance(s, np.ndarray):
        rows, cols = np.nonzero(s)
        vals = s[rows, cols]
    else:
        if not s.has_sorted_indices:
            s = s.sorted_indices()
        rows = np.repeat(np.arange(s.shape[0]), np.diff(s.indptr))
        cols, vals = s.indices, s.data
    counts = np.bincount(rows, minlength=s.shape[0])
    offsets = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    return rows, cols, vals, offsets, counts


def so_tensor(s1, s2):
    """Tensor of superoperators under lexicographic pairing of indices.

    Entry (a1, b1) of s1 times entry (a2, b2) of s2 lands at row pair(a1, a2)
    and column pair(b1, b2), with ``pair`` the digit arithmetic of
    :func:`_vec_pair_parts`.  A small product (its factors then are small, so
    dense too) is one transpose of the outer product of the factors' 4-d
    forms.  A large one is CSR, built once from the factors' nonzeros: row
    pair(a1, a2) holds row a1's entries times row a2's, ordered by (b1, b2),
    the order of the CSR Kronecker product with its rows and columns
    regathered, so that later sums over a row run in that order."""
    (m1, n1), (m2, n2) = s1.shape, s2.shape
    if _is_small(m1 * m2, n1 * n2):
        o1, o2, i1, i2 = map(math.isqrt, (m1, m2, n1, n2))
        # axes (out col, out row, in col, in row) of s1, then of s2
        t = np.multiply.outer(s1.reshape(o1, o1, i1, i1), s2.reshape(o2, o2, i2, i2))
        return t.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(m1 * m2, n1 * n2)
    ra, ca, va, off1, _ = _nonzeros(s1)
    rb, cb, vb, off2, count2 = _nonzeros(s2)
    u, w = _vec_pair_parts(m1, m2)
    rows = np.add.outer(u[ra], w[rb])
    indptr = np.zeros(m1 * m2 + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows.reshape(-1), minlength=m1 * m2), out=indptr[1:])
    # entry (i, j) sits at its row's start + off1[i] * len(row rb[j]) + off2[j]
    pos = (indptr[rows] + np.multiply.outer(off1, count2[rb]) + off2).reshape(-1)
    u, w = _vec_pair_parts(n1, n2)
    cols = np.empty(pos.size, dtype=np.intp)
    cols[pos] = np.add.outer(u[ca], w[cb]).reshape(-1)
    data = np.empty(pos.size, dtype=complex)
    data[pos] = np.multiply.outer(va, vb).reshape(-1)
    return sparse.csr_array((data, cols, indptr), shape=(m1 * m2, n1 * n2))


def _entry_at(flat, vals, shape):
    """The entry of ``shape`` holding ``vals`` at the distinct, ascending
    C-order flat indices ``flat``, in its storage form; a CSR one keeps no
    zero, as a CSR product keeps none."""
    if _is_small(*shape):
        out = np.zeros(shape[0] * shape[1], dtype=complex)
        out[flat] = vals
        return out.reshape(shape)
    keep = vals != 0
    rows, cols = np.divmod(flat[keep], shape[1])
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_array((vals[keep], cols, indptr), shape=shape)


def _move_digits(v, dims, order, shape):
    """The entry of ``shape`` whose elements, in C order, are v's viewed as
    an array over ``dims`` with its axes transposed by ``order``, in v's
    storage form (the element count is v's).  Adding 0.0 makes a dense
    entry's zeros positive, as in the product this replaces.  A CSR entry
    is never densified: each nonzero's flat index is moved by its digits."""
    if isinstance(v, np.ndarray):
        t = v.reshape(dims).transpose(order)
        out = np.empty(t.shape, dtype=complex)
        np.add(t, 0.0, out=out)
        return out.reshape(shape)
    rows, cols, vals, _, _ = _nonzeros(v)
    digits = np.unravel_index(rows * v.shape[1] + cols, dims)
    flat = np.ravel_multi_index([digits[i] for i in order], [dims[i] for i in order])
    perm = np.argsort(flat)
    return _entry_at(flat[perm], vals[perm], shape)


def _applied(s, t, da: int, db: int, d1: int, d2: int):
    """``einsum('ibjkpq,ijrs->bkprqs', S, T)`` as a ``(db**2, (d1*d2)**2)``
    entry, for S of shape ``((da*db)**2, d1**2)`` and T of ``(da**2, d2**2)``:
    the product of S, its digits moved to rows ``(b, k, p, q)`` and columns
    ``(i, j)``, with T, its columns moved.  Each element is summed over
    ``(i, j)`` in order, from zero, as a CSR product sums.  Two dense factors
    are multiplied term by term; otherwise the terms come from the
    nonzeros, each filed under its flat index, and no array over S's moved
    rows is built."""
    shape = (db * db, d1 * d1 * d2 * d2)
    if isinstance(s, np.ndarray) and isinstance(t, np.ndarray):
        # every term at once, over axes (i, j, b, k, p, r, q, s), then the
        # planes of (i, j) added in order
        terms = (s.reshape(da, db, da, db, d1, 1, d1, 1).transpose(0, 2, 1, 3, 4, 5, 6, 7)
                 * t.reshape(da, da, 1, 1, 1, d2, 1, d2)).reshape(da * da, -1)
        out = terms[0] + 0.0
        for term in terms[1:]:
            out += term
        return _stored(out.reshape(shape))
    sr, sc, sv, _, _ = _nonzeros(s)
    _, tc, tv, _, tcount = _nonzeros(t)
    i, b, j, k = np.unravel_index(sr, (da, db, da, db))
    p, q = np.divmod(sc, d1)
    ij = i * da + j
    # each nonzero of S meets the n nonzeros of T's row ij, at pos
    n = tcount[ij]
    src = np.repeat(np.arange(sr.size), n)
    pos = np.repeat((np.cumsum(tcount) - tcount)[ij] - (np.cumsum(n) - n), n) + np.arange(src.size)
    r, c = np.divmod(tc[pos], d2)
    flat = (b * db + k)[src] * shape[1] + (((p * d2)[src] + r) * d1 + q[src]) * d2 + c
    order = np.lexsort((ij[src], flat))
    flat, vals = flat[order], sv[src[order]] * tv[pos[order]]
    # sum each run of equal flat indices in order, a term at a time
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    lens = np.diff(starts, append=flat.size)
    acc = vals[starts]
    for m in range(1, int(lens.max(initial=1))):
        more = lens > m
        acc[more] += vals[starts[more] + m]
    acc += 0.0
    return _entry_at(flat[starts], acc, shape)


def choi(s) -> np.ndarray:
    """Choi matrix; positive semidefinite iff the map is completely positive."""
    s = _dense(s)
    dout = int(math.isqrt(s.shape[0]))
    din = int(math.isqrt(s.shape[1]))
    # S[i + j*dout, k + l*din] -> T[i,j,k,l]
    t = s.reshape((dout, dout, din, din), order="F")
    return t.transpose(2, 0, 3, 1).reshape(din * dout, din * dout)


def is_cp(s: np.ndarray, tol: float = 1e-9) -> bool:
    c = choi(s)
    c = (c + c.conj().T) / 2
    if s.shape[0] == 1 and s.shape[1] == 1:
        return c[0, 0].real >= -tol
    return float(np.linalg.eigvalsh(c)[0]) >= -tol


# ---------------------------------------------------------------------------
# Permutation groups


@dataclass(frozen=True)
class PermGroup:
    degree: int
    perms: tuple  # sorted tuple of index tuples, closed under composition

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup(degree, (tuple(range(degree)),))

    @property
    def order(self) -> int:
        return len(self.perms)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def product(self, other: "PermGroup") -> "PermGroup":
        """Direct product acting on the lexicographic pairing (i, j) -> i*d2 + j."""
        return _digit_group(((self.degree, self, 0), (other.degree, other, 1)))


@lru_cache(maxsize=4096)
def _digit_group(sig: tuple) -> PermGroup:
    """The permutations of digit tuples that permute equal-label copies and
    then act on each copy by its label's group: ``digit_permutation(dims,
    src, acts)`` for every permutation ``src`` of equal-label copies and
    every choice ``acts`` of an element of each copy's group.

    ``sig`` holds, per digit, its dimension, its label's group and the
    position of the label's first copy.  A product group is the signature in
    which every digit is its own first copy (:meth:`PermGroup.product`), a
    wreath group one in which the copies of a multiset's label share it
    (:func:`sym_power`).  The group depends on nothing else, so it is built
    once per signature, and a product and a multiset of distinct labels with
    one signature share one object.  Digits of dimension 1 contribute
    nothing to the action, so only the effective part counts against
    ``GROUP_CAP``, which is checked before any element is built.
    """
    dims = [d for d, _, _ in sig]
    slots = {}  # the positions of each effective label, by its first one
    for pos, (d, _, first) in enumerate(sig):
        if d > 1:
            slots.setdefault(first, []).append(pos)
    order = math.prod(math.factorial(len(p)) * sig[f][1].order ** len(p) for f, p in slots.items())
    if order == 1:
        return PermGroup.trivial(math.prod(dims))
    if order > GROUP_CAP:
        raise GroupTooLargeError(f"group over dimensions {dims} has order {order} "
                                 f"> cap {GROUP_CAP}")
    perms = set()
    for shuffles in itertools.product(*map(itertools.permutations, slots.values())):
        # output digit at slot t is input digit src[t]; copies swap slots
        src = list(range(len(sig)))
        for p, q in zip(slots.values(), shuffles):
            for t, u in zip(p, q):
                src[t] = u
        for acts in itertools.product(*(g.perms for _, g, _ in sig)):
            perms.add(tuple(digit_permutation(dims, src, acts).tolist()))
    return PermGroup(math.prod(dims), tuple(sorted(perms)))


@lru_cache(maxsize=4096)
def group_channel(group: PermGroup):
    """The group-average channel (a symmetric idempotent superoperator), in
    storage form; a small one is read-only, as the cache shares it."""
    idx = _vec_gather(np.array(group.perms))  # row a of S_g has its 1 at idx[g, a]
    out = _gather_channel(idx, 1.0 / group.order)
    if isinstance(out, np.ndarray):
        out.setflags(write=False)
    return out


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

    def labels(self) -> tuple:
        return self._labels

    @cached_property
    def _labels(self) -> tuple:
        return tuple(l for l, _, _ in self.elems)

    def dim(self, label) -> int:
        return self._index[label][0]

    def group(self, label) -> PermGroup:
        return self._index[label][1]

    @cached_property
    def _index(self) -> dict:
        return {l: (d, g) for l, d, g in self.elems}

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


# ---------------------------------------------------------------------------
# Morphisms


class _GatheredEntries(Mapping):
    """The entries of an index map, each built when first read: the average
    channel of its source label's group, with its rows gathered.  Iterating
    the keys builds nothing."""

    def __init__(self, src: CpmObject, gathers: dict):
        self._src, self._gathers, self._built = src, gathers, {}

    def __getitem__(self, key):
        e = self._built.get(key)
        if e is None:
            rows = self._gathers[key]
            e = group_channel(self._src.group(key[0]))
            if rows is not None:
                e = _take_rows(e, rows)
            self._built[key] = e
        return e

    def __contains__(self, key) -> bool:
        return key in self._gathers

    def __iter__(self):
        return iter(self._gathers)

    def __len__(self) -> int:
        return len(self._gathers)


@dataclass
class Morphism:
    src: CpmObject
    dst: CpmObject
    entries: Mapping  # (src_label, dst_label) -> superoperator, in storage form
    # the largest sup-norm of an entry dropped as zero (at most DROP_EPS)
    dropped: float = field(default=0.0, init=False, compare=False)
    _: KW_ONLY
    # set for an index map (relabel, permute and the maps built from them
    # alone): key -> rows, the entry being the source label's average channel
    # with its rows gathered by ``rows`` (None: not moved)
    gathers: dict | None = field(default=None, compare=False)
    # keys whose entries compose passed through from checked ones, moved by a
    # bijection, so that their values, norms and shapes need no new check
    checked: InitVar[frozenset] = frozenset()

    def __post_init__(self, checked):
        if self.gathers is not None:
            return  # the entries are channels, built when read
        entries = {}
        for k, v in self.entries.items():
            if k not in checked:
                v = _stored(v)
                m = _maxabs(v)
                if m <= DROP_EPS:
                    self.dropped = max(self.dropped, m)
                    continue
                if m > MAGNITUDE_BOUND:
                    raise DivergentDenotation(f"entry {k} exceeds magnitude bound")
                din, dout = self.src.dim(k[0]), self.dst.dim(k[1])
                if v.shape != (dout * dout, din * din):
                    raise CpmError(f"entry ({k[0]},{k[1]}) has shape {v.shape}, "
                                   f"expected {(dout*dout, din*din)}")
            entries[k] = v
        self.entries = entries

    @property
    def renames(self) -> bool:
        """True for an index map that moves no digit: a renaming of labels."""
        return self.gathers is not None and all(r is None for r in self.gathers.values())

    def entry(self, la, lb) -> np.ndarray:
        e = self.entries.get((la, lb))
        if e is not None:
            return _dense(e)
        return np.zeros((self.dst.dim(lb) ** 2, self.src.dim(la) ** 2), dtype=complex)

    def compose(self, other: "Morphism") -> "Morphism":
        """self ; other (diagrammatic order: self first).

        An index map is not multiplied in where the product is a gather (see
        the module docstring).  Second, it gathers the rows of self's entry,
        on every key.  First, it moves the columns of other's entry, on keys
        whose groups have equal orders; elsewhere its entry is built and
        multiplied.  Two index maps compose to one, unless two of their paths
        meet at one key; there, the built entries are summed.  An entry
        moved from an already-checked one is not checked again, since a
        bijection keeps its values and shape; every product and every sum
        is."""
        if self.dst is not other.src and self.dst.labels() != other.src.labels():
            raise CpmError(f"compose mismatch: {self.dst} vs {other.src}")
        by_mid = {}
        for k2 in other.entries:
            by_mid.setdefault(k2[0], []).append(k2)
        g1, g2 = self.gathers, other.gathers
        if g1 is not None and g2 is not None:
            gathers = _chained(g1, g2, by_mid)
            if gathers is not None:
                return _index_map(self.src, other.dst, gathers)
        acc = {}
        passed = set()
        for k1 in self.entries:
            for k2 in by_mid.get(k1[1], ()):
                key = (k1[0], k2[1])
                moved = True
                if g2 is not None:
                    prod, rows = self.entries[k1], g2[k2]
                    if rows is not None:
                        prod = _take_rows(prod, rows)
                elif g1 is not None and self.src.group(k1[0]).order == self.dst.group(k1[1]).order:
                    prod, rows = other.entries[k2], g1[k1]
                    if rows is not None:
                        prod = _move_columns(prod, rows)
                else:
                    prod = _matmul(other.entries[k2], self.entries[k1])
                    moved = False
                if key in acc:
                    acc[key] = acc[key] + prod
                    passed.discard(key)
                else:
                    acc[key] = prod
                    if moved:
                        passed.add(key)
        return Morphism(self.src, other.dst, acc, checked=passed)

    def tensor(self, other: "Morphism") -> "Morphism":
        """self (x) other, its entries in the order of self's, then of
        other's."""
        src = tensor_obj(self.src, other.src)
        dst = tensor_obj(self.dst, other.dst)
        if self.gathers is not None and other.gathers is not None:
            gathers = {}
            for (la, lb), r1 in self.gathers.items():
                n1 = self.src.dim(la) ** 2
                for (lc, ld), r2 in other.gathers.items():
                    gathers[(("pair", la, lc), ("pair", lb, ld))] = _pair_rows(
                        r1, n1, r2, other.src.dim(lc) ** 2)
            return _index_map(src, dst, gathers)
        entries = {}
        for (la, lb), s1 in self.entries.items():
            for (lc, ld), s2 in other.entries.items():
                entries[(("pair", la, lc), ("pair", lb, ld))] = so_tensor(s1, s2)
        return Morphism(src, dst, entries)

    def transpose(self) -> "Morphism":
        """B -> A with every key reversed and every entry transposed."""
        if self.renames:
            # a group channel is symmetric, so a relabel's transpose renames back
            return _index_map(self.dst, self.src, {(lb, la): None for la, lb in self.gathers})
        entries = {(lb, la): s.T for (la, lb), s in self.entries.items()}
        return Morphism(self.dst, self.src, entries)

    def sup_distance(self, other: "Morphism") -> float:
        keys = set(self.entries) | set(other.entries)
        worst = 0.0
        for la, lb in keys:
            worst = max(worst, _maxabs(self.entry(la, lb) - other.entry(la, lb)))
        return worst

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


def _chained(g1: dict, g2: dict, by_mid: dict):
    """The gathers of two index maps composed, the second's keys grouped by
    their source labels in ``by_mid``; None where two paths meet at one key.
    The composite gathers the first's rows by the second's rows."""
    out = {}
    for (la, lb), r1 in g1.items():
        for k2 in by_mid.get(lb, ()):
            key = (la, k2[1])
            if key in out:
                return None
            r2 = g2[k2]
            out[key] = r1 if r2 is None else r2 if r1 is None else r1[r2]
    return out


def _index_map(src: CpmObject, dst: CpmObject, gathers: dict) -> Morphism:
    """The index map of ``gathers`` (see ``Morphism.gathers``)."""
    return Morphism(src, dst, _GatheredEntries(src, gathers), gathers=gathers)


def relabel(src: CpmObject, dst: CpmObject, pairs) -> Morphism:
    """The map sending each source label ``l`` of ``pairs`` to its partner
    ``m``, with the group-average channel of ``l`` as the entry: a renaming
    of labels that moves no digit, as an index map whose entries are the
    cached channels.  Entries follow the order of ``pairs``.  Each pair must
    join labels with equal groups, which ``compose`` relies on when it
    re-keys through the map."""
    gathers = {}
    for l, m in pairs:
        if src.group(l) != dst.group(m):
            raise CpmError(f"relabel pairs {l} and {m}, whose groups differ")
        gathers[(l, m)] = None
    return _index_map(src, dst, gathers)


@lru_cache(maxsize=512)
def identity(a: CpmObject) -> Morphism:
    # the identity entry is the group-average channel (idempotent projection)
    return relabel(a, a, ((l, l) for l in a.labels()))


def zero(a: CpmObject, b: CpmObject) -> Morphism:
    return Morphism(a, b, {})


# biproduct structure -------------------------------------------------------


def injection(parts, i: int) -> Morphism:
    return relabel(parts[i], biproduct(parts), ((l, ("inj", i, l)) for l in parts[i].labels()))


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
    pairs = ((("pair", ("inj", i, lb), la), ("inj", i, ("pair", lb, la)))
             for la in a.labels() for i, part in enumerate(parts) for lb in part.labels())
    return relabel(tensor_obj(biproduct(parts), a),
                   biproduct([tensor_obj(p, a) for p in parts]), pairs)


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


def permute(src: CpmObject, dst: CpmObject, moves) -> Morphism:
    """The map that moves digits: for each ``(l, m, dims, order)`` of
    ``moves``, the entry ``(l, m)`` relabels the digits (over ``dims``) of
    source label ``l`` by ``digit_permutation(dims, order)``, after the
    average over ``l``'s group.  Entries follow the order of ``moves``, and
    no two moves share a key.

    The map is an index map: each key keeps only the vec gather of its
    relabelling, and its entry, the average channel of ``l``'s group with
    its rows gathered, is built only when read (see the module docstring).

    One average suffices.  Conjugating by the relabelling carries the source
    group onto a group that contains the target group of ``m``, and an
    average over a group absorbs any later average over one of its
    subgroups (the twirl over a supergroup absorbs the twirl over a
    subgroup).  So averaging over the target group after the relabelling is
    a no-op, for every map built here: the target group of ``structural`` is
    exactly the relabelled product of the leaf groups; ``contraction``'s
    permutes copies within each half of a split, a subset of permuting all
    equal-label copies of the whole multiset; ``digging``'s permutes equal
    inner multisets, and copies inside each, which permutes equal-label
    copies of their union; ``bierman_tensor``'s permutes equal label pairs
    together, a subset of permuting the copies of each side independently.
    """
    return _index_map(src, dst, {(l, m): _digit_gather(tuple(dims), tuple(order))
                                 for l, m, dims, order in moves})


def structural(src: CpmObject, src_shape, dst_shape, leaf_objs: dict,
               labels=None) -> Morphism:
    """Reassociate / permute / add-drop unit factors between tensor shapes.

    Shapes are nested 2-tuples whose leaves are ids into ``leaf_objs``; the
    special leaf ``"u"`` stands for a unit factor in either shape: in the
    destination it inserts one, and in the source it is dropped.  Ids
    present in the source but absent from the destination must denote
    1-dimensional labels (they are silently dropped).  With ``labels`` set,
    only the entries of those source labels are built: the map restricted to
    them, for a composite whose first factor reaches no other label.
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

    order = [src_ids.index(i) for i in dst_ids]

    def moves():
        for la in src.labels():
            if labels is not None and la not in labels:
                continue
            leaves = dict(_label_leaves(la, src_shape))
            dims = [leaf_objs[i].dim(leaves[i]) for i in src_ids]
            for i, d in zip(src_ids, dims):
                if i not in dst_ids and d != 1:
                    raise CpmError(f"cannot drop non-unit leaf {i} (dim {d})")
            yield la, _build_label(dst_shape, leaves), dims, order

    return permute(src, build_obj(dst_shape), moves())


@lru_cache(maxsize=512)
def swap(a: CpmObject, b: CpmObject) -> Morphism:
    return structural(tensor_obj(a, b), (0, 1), (1, 0), {0: a, 1: b})


def assoc_right(a: CpmObject, b: CpmObject, c: CpmObject) -> Morphism:
    """(A (x) B) (x) C -> A (x) (B (x) C)."""
    return relabel(tensor_obj(tensor_obj(a, b), c), tensor_obj(a, tensor_obj(b, c)),
                   ((("pair", ("pair", la, lb), lc), ("pair", la, ("pair", lb, lc)))
                    for la, lb, lc in itertools.product(a.labels(), b.labels(), c.labels())))


def assoc_left(a: CpmObject, b: CpmObject, c: CpmObject) -> Morphism:
    return relabel(tensor_obj(a, tensor_obj(b, c)), tensor_obj(tensor_obj(a, b), c),
                   ((("pair", la, ("pair", lb, lc)), ("pair", ("pair", la, lb), lc))
                    for la, lb, lc in itertools.product(a.labels(), b.labels(), c.labels())))


@lru_cache(maxsize=512)
def lunit_elim(a: CpmObject) -> Morphism:
    """1 (x) A -> A."""
    return relabel(tensor_obj(UNIT_OBJ, a), a, ((("pair", STAR, l), l) for l in a.labels()))


def lunit_intro(a: CpmObject) -> Morphism:
    return relabel(a, tensor_obj(UNIT_OBJ, a), ((l, ("pair", STAR, l)) for l in a.labels()))


# compact closure ------------------------------------------------------------


def eta(a: CpmObject) -> Morphism:
    """1 -> A (x) A: the scalar p goes to p * sum_ij S(E_ij) (x) S(E_ij), the
    0/1 column vec(sum_ij E_ij (x) E_ij) averaged over the product group."""
    dst = tensor_obj(a, a)
    entries = {}
    for l, d, g in a.elems:
        # sum_ij E_ij (x) E_ij is the outer square of the flattened identity
        v = np.eye(d).reshape(-1)
        col = np.kron(v, v).reshape(-1, 1)
        gg = g.product(g)
        if not gg.is_trivial:
            col = _matmul(group_channel(gg), col)
        entries[(STAR, ("pair", l, l))] = col
    return Morphism(UNIT_OBJ, dst, entries)


def epsilon(a: CpmObject) -> Morphism:
    """A (x) A -> 1: the transpose of eta."""
    return eta(a).transpose()


def curry(f: Morphism, c: CpmObject, a: CpmObject, b: CpmObject) -> Morphism:
    """Lambda(f) : C -> A -o B given f : C (x) A -> B, by moving f's elements
    (the module docstring gives the formula, and why it is the composite).
    The entries follow the labels of C (x) A, then f's order, as the
    composite's do."""
    by_src = {}
    for (lca, lb), s in f.entries.items():
        by_src.setdefault(lca, []).append((lb, s))
    entries = {}
    for lca in f.src.labels():
        _, lc, la = lca
        for lb, s in by_src.get(lca, ()):
            dc, da, db = c.dim(lc), a.dim(la), b.dim(lb)
            entries[(lc, ("pair", la, lb))] = _move_digits(
                s, (db, db, dc, da, dc, da), (3, 0, 5, 1, 2, 4), (da * da * db * db, dc * dc))
    return Morphism(c, tensor_obj(a, b), entries, checked=frozenset(entries))


def eval_mor(a: CpmObject, b: CpmObject) -> Morphism:
    """Eval : (A -o B) (x) A -> B, the composite of an exchange, an
    associator, ``epsilon (x) id_B`` and the left unitor.  Application
    builds none of it (:func:`application`)."""
    m = swap(tensor_obj(a, b), a).compose(assoc_left(a, a, b))
    m = m.compose(epsilon(a).tensor(identity(b)))
    return m.compose(lunit_elim(b))


def application(f: Morphism, x: Morphism, a: CpmObject, b: CpmObject) -> Morphism:
    """``(f (x) x) ; eval_mor(a, b)`` : C1 (x) C2 -> B, given f : C1 -> A -o B
    and x : C2 -> A, by index arithmetic.

    Each entry of f at ``(lc1, (la, lb))`` meets each of x at ``(lc2, la)``
    (:func:`_applied`; the module docstring gives the formula), and no other
    pair of entries meets in ``eval``.  The terms are summed, and the keys
    come, in f's order, as the composite's do."""
    by_a = {}
    for (lc2, la), s in x.entries.items():
        by_a.setdefault(la, []).append((lc2, s))
    entries = {}
    for (lc1, (_, la, lb)), s in f.entries.items():
        for lc2, t in by_a.get(la, ()):
            r = _applied(s, t, a.dim(la), b.dim(lb), f.src.dim(lc1), x.src.dim(lc2))
            key = (("pair", lc1, lc2), lb)
            entries[key] = entries[key] + r if key in entries else r
    return Morphism(tensor_obj(f.src, x.src), b, entries)


# lists ----------------------------------------------------------------------


def tensor_power(a: CpmObject, n: int) -> CpmObject:
    """Right-nested n-fold tensor (so consing is a label retag)."""
    obj = UNIT_OBJ
    for _ in range(n):
        obj = tensor_obj(a, obj)
    return obj


def list_obj(a: CpmObject, list_max: int) -> CpmObject:
    return biproduct([tensor_power(a, n) for n in range(list_max + 1)])


def list_roll(a: CpmObject, list_max: int) -> Morphism:
    """1 (+) (A (x) A^list) -> A^list; the length list_max+1 part is dropped."""
    lst = list_obj(a, list_max)
    src = biproduct([UNIT_OBJ, tensor_obj(a, lst)])
    # n stops below list_max: a cons onto a list of length list_max vanishes
    conses = ((("inj", 1, ("pair", la, ("inj", n, lw))), ("inj", n + 1, ("pair", la, lw)))
              for la in a.labels() for n in range(list_max) for lw in tensor_power(a, n).labels())
    return relabel(src, lst, itertools.chain([(("inj", 0, STAR), ("inj", 0, STAR))], conses))


def list_unroll(a: CpmObject, list_max: int) -> Morphism:
    """A^list -> 1 (+) (A (x) A^list); total (the roll is its one-sided inverse)."""
    return list_roll(a, list_max).transpose()


# symmetric powers and the exponential ---------------------------------------


def _mset(labels) -> tuple:
    return tuple(sorted(labels))


def sym_power(a: CpmObject, k: int) -> CpmObject:
    """k-th symmetric power: multisets of labels with wreath-product groups."""
    elems = []
    for combo in itertools.combinations_with_replacement(sorted(a.labels()), k):
        mu = _mset(combo)
        sig = tuple((a.dim(l), a.group(l), mu.index(l)) for l in mu)
        elems.append((("mset", mu), math.prod(d for d, _, _ in sig), _digit_group(sig)))
    return CpmObject(tuple(elems))


@lru_cache(maxsize=1024)
def bang_obj(a: CpmObject, bang_max: int) -> CpmObject:
    """!A truncated at multiset cardinality bang_max."""
    return CpmObject(tuple(itertools.chain.from_iterable(
        sym_power(a, k).elems for k in range(bang_max + 1))))


def _copy_positions(seq) -> list:
    """The position of each entry of seq in the multiset sorted(seq): the
    t-th occurrence of a label in seq takes the t-th copy of it."""
    pos = [0] * len(seq)
    for p, j in enumerate(sorted(range(len(seq)), key=seq.__getitem__)):
        pos[j] = p
    return pos


def weakening(a: CpmObject, bang_max: int) -> Morphism:
    """!A -> 1, supported on the empty multiset."""
    return relabel(bang_obj(a, bang_max), UNIT_OBJ, [(("mset", ()), STAR)])


def dereliction(a: CpmObject, bang_max: int) -> Morphism:
    """!A -> A, supported on singleton multisets."""
    return relabel(bang_obj(a, bang_max), a,
                   ((("mset", (l,)), l) for l in a.labels() if bang_max >= 1))


def contraction(a: CpmObject, bang_max: int) -> Morphism:
    """!A -> !A (x) !A, one entry for each split of each multiset."""
    bang = bang_obj(a, bang_max)

    def moves():
        for lmu in bang.labels():
            mu = lmu[1]
            mult = Counter(mu)
            keys = sorted(mult)
            for take in itertools.product(*(range(mult[l] + 1) for l in keys)):
                mu1 = []
                mu2 = []
                for l, t in zip(keys, take):
                    mu1 += [l] * t
                    mu2 += [l] * (mult[l] - t)
                # target digits: mu1's copies, then mu2's
                lsplit = ("pair", ("mset", tuple(mu1)), ("mset", tuple(mu2)))
                yield lmu, lsplit, [a.dim(l) for l in mu], _copy_positions(mu1 + mu2)

    return permute(bang, tensor_obj(bang, bang), moves())


def digging(a: CpmObject, bang_max: int) -> Morphism:
    """!A -> !!A; a multiset of multisets receives their multiset union.

    The exponent is read multiplicatively: the union counts each inner
    multiset as many times as it occurs.
    """
    bang = bang_obj(a, bang_max)
    bb = bang_obj(bang, bang_max)

    def moves():
        for lM in bb.labels():
            # target digits: the inner multisets' copies, concatenated
            seq = [l for inner in lM[1] for l in inner[1]]
            mu = _mset(seq)
            if len(mu) <= bang_max:
                yield ("mset", mu), lM, [a.dim(l) for l in mu], _copy_positions(seq)

    return permute(bang, bb, moves())


def promotion(f: Morphism, bang_max: int) -> Morphism:
    """!f : !A -> !B from f : A -> B, acting multiset-pointwise.

    Entry (mu, nu) sums over the source sequences ``seq`` that sort to mu the
    tensor of f's blocks at ``(seq[i], nu[i])``, its columns moved from seq's
    digit order into mu's, and then averages the sum once, over mu's group,
    where that is not trivial: the product of a sum is the sum of the
    products.  The sequences are the products of f's keys at each target
    label of nu, each list sorted by source label, so they come in
    lexicographic order, and only the blocks they use are read.  One average
    suffices.  The group of nu acts on each copy by its label's group, which
    every block of ``f`` absorbs, and permutes equal-label copies.  That
    permutes the sequences the sum runs over, after the matching permutation
    of equal-label copies of mu, which the source average absorbs.  So the
    sum is already invariant under nu's group."""
    a, b = f.src, f.dst
    banga = bang_obj(a, bang_max)
    bangb = bang_obj(b, bang_max)
    by_target = {}  # f's keys at each target label, sorted by source label
    for key in sorted(f.entries):
        by_target.setdefault(key[1], []).append(key)
    empty = ("mset", ())
    entries = {(empty, empty): np.eye(1, dtype=complex)}
    for lnu in bangb.labels():
        nu = lnu[1]
        if not nu:
            continue
        # the source sequences with a block at every position of nu, in
        # lexicographic order
        for keys in itertools.product(*(by_target.get(l, ()) for l in nu)):
            seq = [la for la, _ in keys]
            mu = _mset(seq)
            # reorder source digits from mu order into seq order, then tensor
            rows = _digit_gather(tuple(a.dim(l) for l in mu), tuple(_copy_positions(seq)))
            s = _move_columns(reduce(so_tensor, (f.entries[k] for k in keys)), rows)
            key = (("mset", mu), lnu)
            entries[key] = entries.get(key, 0) + s
    for key, s in entries.items():
        g = banga.group(key[0])
        if not g.is_trivial:
            entries[key] = _matmul(s, group_channel(g))
    return Morphism(banga, bangb, entries)


def bierman_unit(bang_max: int) -> Morphism:
    """m1 : 1 -> !1; hits the k-fold multiset of the unit label for every k."""
    return relabel(UNIT_OBJ, bang_obj(UNIT_OBJ, bang_max),
                   ((STAR, ("mset", (STAR,) * k)) for k in range(bang_max + 1)))


def bierman_tensor(a: CpmObject, b: CpmObject, bang_max: int) -> Morphism:
    """m(x) : !A (x) !B -> !(A (x) B).

    The target multiset eta determines the sources as its two projections;
    the entry matches the canonical label-respecting pairing of copies,
    averaged over the source's symmetries (:func:`permute`).
    """
    banga = bang_obj(a, bang_max)
    bangb = bang_obj(b, bang_max)
    bangab = bang_obj(tensor_obj(a, b), bang_max)

    def moves():
        for leta in bangab.labels():
            eta_ms = leta[1]  # sorted tuple of ("pair", la, lb)
            a_seq = [p[1] for p in eta_ms]
            b_seq = [p[2] for p in eta_ms]
            mu, nu = _mset(a_seq), _mset(b_seq)
            # source digits: mu digits then nu digits; target digits follow
            # eta_ms order as (a-digit, b-digit) pairs, each eta slot taking a
            # concrete copy of its a-label and b-label
            k = len(eta_ms)
            order = [q for i, j in zip(_copy_positions(a_seq), _copy_positions(b_seq))
                     for q in (i, k + j)]
            dims = [a.dim(l) for l in mu] + [b.dim(l) for l in nu]
            yield ("pair", ("mset", mu), ("mset", nu)), leta, dims, order

    return permute(tensor_obj(banga, bangb), bangab, moves())


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

    header, *blocks = text.split("\nentry ")
    if not header.startswith("qlam-morphism"):
        raise CpmError("not a serialized morphism")
    entries = {}
    for block in blocks:
        # "<src> -> <dst>", "shape <rows> <cols>", then one line per row
        label, shape, *rows = block.strip().splitlines()
        lhs, _, rhs = label.partition(" -> ")
        key = (ast.literal_eval(lhs), ast.literal_eval(rhs))
        mat = np.array([[complex(*map(float, z.split(","))) for z in row.split()] for row in rows],
                       dtype=complex)
        shape = tuple(map(int, shape.split()[1:]))
        if mat.shape != shape:
            raise CpmError(f"entry {key}: expected shape {shape}, got {mat.shape}")
        entries[key] = mat
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
        elif x.shape != y.shape:
            d = float("inf")
        else:
            d = _maxabs(_dense(x) - _dense(y))
        report[key] = d
        worst = max(worst, d)
    report[None] = worst
    return report
