"""Finite preorders, monotone maps, squares, and the enumeration engine.

Elements are always the indices ``0..n-1``.  The relation is stored as
bitset rows: ``up[i]`` is the mask of ``{j : i <= j}``, which makes
reflexive-transitive closure, down-closure and pointwise comparison
word-parallel.  Labels are presentation-only; equality and hashing ignore
them.  All values are immutable after construction and every operation is
a pure function, so shared values are safe to use concurrently.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from functools import lru_cache

from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    ShapeMismatch,
    SizeLimitExceeded,
)

DEFAULT_MAX_CARRIER = 4096
DEFAULT_ENUM_BOUND = 5

# the carrier bound of the current thread or task; set only by carrier_bound
_bound = contextvars.ContextVar("lofs_carrier_bound", default=DEFAULT_MAX_CARRIER)


@contextlib.contextmanager
def carrier_bound(n):
    """Bound every carrier, hom set and square set built inside the block by n.

    The one way to set the carrier bound, which is ``DEFAULT_MAX_CARRIER``
    outside every block: the size guards read it from the context, so no
    call below the block can drop it.  As with any ``ContextVar``, the
    value holds for the current thread or asyncio task, and the previous
    bound is restored when the block exits, also by an exception.
    """
    token = _bound.set(n)
    try:
        yield
    finally:
        _bound.reset(token)


def _guard(what, requested, bound):
    """Raise ``SizeLimitExceeded`` when ``requested`` exceeds ``bound``.

    The one size guard: every limit in lofs calls it with the amount of
    work it is about to do, or the count reached so far, and ``what``
    names the guard in the message.
    """
    if requested > bound:
        raise SizeLimitExceeded(what, requested, bound)


def _hom_guard(X, Y):
    """The guard on the |Y|^|X| candidate maps X -> Y, when both are non-empty."""
    if X.n and Y.n:
        _guard(f"{Y.n}^{X.n} candidate maps", Y.n ** X.n, _bound.get())


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _preimage_masks(assign, rows):
    """For each mask r in ``rows``, the mask of {a : assign[a] in r}.

    The one kernel for preimages along an assignment vector: the sources
    are grouped by value once, and each row is the OR of the groups whose
    value it contains, instead of one bit test per (row, source) pair.
    """
    at = {}
    bit = 1
    for v in assign:
        at[v] = at.get(v, 0) | bit
        bit <<= 1
    groups = tuple(at.items())
    out = []
    for r in rows:
        m = 0
        for v, vm in groups:
            if r >> v & 1:
                m |= vm
        out.append(m)
    return out


def _union(rows, mask):
    """The OR of ``rows[i]`` over the set bits i of ``mask``.

    The one kernel for unions of down-sets: down-closure of an image,
    the multiplications of the down-set and filter monads, and the
    factorisation's action on squares.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _least_member(mask, rows):
    """The lowest a in ``mask`` with mask ⊆ rows[a], or None.

    With ``up`` rows that is a least member of the subset (the lowest
    index among equivalent ones); with ``down`` rows a greatest member.
    Every other least member lies in the class of the one returned.
    """
    m = mask
    while m:
        low = m & -m
        a = low.bit_length() - 1
        if not (mask & ~rows[a]):
            return a
        m ^= low
    return None


class FinPreorder:
    """A finite set with a reflexive-transitive relation.

    Doubles as a finite Alexandrov space: the opens are exactly the
    up-closed subsets of the relation.

    Validation runs in two passes over the rows.  The first checks each
    row's range and reflexivity.  The second walks the set bits of every
    row once, inline: each j in up[i] is tested for transitivity
    (up[j] must lie inside up[i]) and recorded in down[j] in the same
    step.  Rows and bits are visited in ascending order, and the first
    violation met is the one reported.
    """

    __slots__ = ("n", "up", "down", "labels", "_hash")

    def __init__(self, n, up, labels=None):
        up = tuple(up)
        if n < 0 or len(up) != n:
            raise InvariantViolation(f"need {n} relation rows, got {len(up)}")
        full = (1 << n) - 1
        for i, row in enumerate(up):
            if row & ~full:
                raise InvariantViolation(f"row {i} mentions elements >= {n}")
            if not (row >> i) & 1:
                raise InvariantViolation(f"relation is not reflexive at {i}")
        down = [0] * n
        bit = 1
        for i, row in enumerate(up):
            m = row
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if up[j] & ~row:
                    raise InvariantViolation(
                        f"relation is not transitive through ({i},{j})"
                    )
                down[j] |= bit
                m ^= low
            bit <<= 1
        self._set(up, tuple(down), labels)

    @classmethod
    def _checked(cls, up, down, labels=None):
        """The preorder on rows that already form one, with ``labels``.

        Trusted: only the labels are checked.  ``up`` and ``down`` are
        tuples from one of three sources: a validated preorder's rows (or
        the two swapped, its opposite, or renumbered by ``_renumbered``
        for ``restrict`` and ``quotient``), the up and down rows of a
        pointwise order on validated coordinates, from
        ``_pointwise_preorder``, or the factorisation carrier, the
        componentwise order built from its down-set blocks in
        ``downsets._carrier``, which is also every lattice of down-sets.
        Anything else enters through the validating constructor.
        """
        self = object.__new__(cls)
        self._set(up, down, labels)
        return self

    def _set(self, up, down, labels):
        n = len(up)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n or len(set(labels)) != n:
                raise InvariantViolation("labels must be n distinct strings")
        self.n = n
        self.up = up
        self.down = down
        self.labels = labels
        self._hash = hash((n, up))

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def equiv(self, i, j):
        return bool((self.up[i] >> j) & (self.up[j] >> i) & 1)

    def class_mask(self, i):
        """Bitmask of the equivalence class of ``i``."""
        return self.up[i] & self.down[i]

    def classes(self):
        """Equivalence-class masks, ordered by least member."""
        seen = 0
        out = []
        for i in range(self.n):
            if not (seen >> i) & 1:
                c = self.class_mask(i)
                out.append(c)
                seen |= c
        return out

    @property
    def is_poset(self):
        return all(self.class_mask(i) == 1 << i for i in range(self.n))

    def label(self, i):
        if self.labels is not None:
            return self.labels[i]
        return f"x{i}"

    def pairs(self):
        """All non-reflexive related pairs (i, j) with i <= j."""
        return [(i, j) for i in range(self.n) for j in _bits(self.up[i]) if i != j]

    def _renumbered(self, bits, elems, labels=None):
        """The order on ``elems`` with element e renumbered to ``bits[e]``.

        Built trusted: row e is the union of ``bits`` over up[e] (and
        down[e]), so with ``bits`` the new positions of a subset, 0
        elsewhere, it is the restriction, and with ``bits`` the class of
        each element and one member per class, the poset reflection.
        Either is a preorder when this one is.
        """
        return FinPreorder._checked(
            tuple(_union(bits, self.up[e]) for e in elems),
            tuple(_union(bits, self.down[e]) for e in elems),
            labels,
        )

    def restrict(self, mask):
        """Induced sub-preorder on the elements of ``mask`` (ascending)."""
        elems = list(_bits(mask))
        pos = [0] * self.n
        for p, e in enumerate(elems):
            pos[e] = 1 << p
        labels = None if self.labels is None else tuple(self.labels[e] for e in elems)
        return self._renumbered(pos, elems, labels)

    def quotient(self):
        """Poset reflection: (quotient poset, class masks)."""
        cls = self.classes()
        of = [0] * self.n
        for c, m in enumerate(cls):
            for x in _bits(m):
                of[x] = 1 << c
        return self._renumbered(of, [next(_bits(m)) for m in cls]), cls

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinPreorder)
            and self.n == other.n
            and self.up == other.up
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinPreorder({self.n}, {self.pairs()!r})"


class MonotoneMap:
    """An order-preserving function between two finite preorders.

    Monotonicity is checked in mask form: with pre[v] the mask of
    {a : v <= assign[a]} (``_preimage_masks`` over the target's up-rows),
    the map is monotone iff src.up[i] lies inside pre[assign[i]] for
    every i, one word test per element instead of one bit test per
    related pair.  On failure the offending j is the lowest bit of
    src.up[i] & ~pre[assign[i]] for the first failing i.
    A value that is not an integer (a float, a string) is reported as
    such, naming its first index.
    """

    __slots__ = ("src", "tgt", "assign", "_hash")

    def __init__(self, src, tgt, assign):
        assign = tuple(assign)
        if len(assign) != src.n:
            raise InvariantViolation(
                f"assignment has {len(assign)} entries for {src.n} elements"
            )
        try:
            for i, v in enumerate(assign):
                if not 0 <= v < tgt.n:
                    raise IndexOutOfRange(f"assign[{i}]={v} outside 0..{tgt.n - 1}")
            pre = _preimage_masks(assign, tgt.up)
            for i, row in enumerate(src.up):
                bad = row & ~pre[assign[i]]
                if bad:
                    j = (bad & -bad).bit_length() - 1
                    raise InvariantViolation(
                        f"not monotone: {i}<={j} but images are unrelated"
                    )
        except TypeError:
            # only a non-integer value gets here, so valid input pays nothing
            for i, v in enumerate(assign):
                if not isinstance(v, int):
                    raise InvariantViolation(
                        f"assign[{i}]={v!r} is not an integer"
                    ) from None
            raise
        self._set(src, tgt, assign)

    @classmethod
    def _checked(cls, src, tgt, assign):
        """The map with the assignment tuple ``assign``, unchecked.

        Trusted: only for an ``assign`` that is monotone src -> tgt by an
        argument stated where it is built (an enumerated hom set, a
        composite of monotone maps, a projection of a pointwise order).
        """
        self = object.__new__(cls)
        self._set(src, tgt, assign)
        return self

    def _set(self, src, tgt, assign):
        self.src = src
        self.tgt = tgt
        self.assign = assign
        self._hash = hash((src, tgt, assign))

    def __call__(self, i):
        return self.assign[i]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, MonotoneMap)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.assign == other.assign
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MonotoneMap({list(self.assign)})"


def identity(X):
    return MonotoneMap(X, X, range(X.n))


def compose(f, g):
    """The composite g∘f (f first); domains must match."""
    if f.tgt != g.src:
        raise ShapeMismatch("compose: f.tgt differs from g.src")
    return MonotoneMap(f.src, g.tgt, (g.assign[v] for v in f.assign))


def two_cell(f, g):
    """Whether the 2-cell f => g exists, i.e. f <= g pointwise."""
    if f.src != g.src or f.tgt != g.tgt:
        raise ShapeMismatch("two_cell: maps are not parallel")
    return all((f.tgt.up[a] >> b) & 1 for a, b in zip(f.assign, g.assign))


def maps_equivalent(f, g):
    """Pointwise equivalence of parallel maps (2-cells both ways)."""
    return two_cell(f, g) and two_cell(g, f)


class Square:
    """A commutative square (h, k) : j -> g in the arrow category."""

    __slots__ = ("j", "g", "h", "k")

    def __init__(self, j, g, h, k):
        if h.src != j.src or h.tgt != g.src or k.src != j.tgt or k.tgt != g.tgt:
            raise ShapeMismatch("square sides do not line up")
        # g∘h against k∘j on assignment tuples: both composites exist once
        # the sides line up, and composites of monotone maps are monotone
        if tuple(g.assign[v] for v in h.assign) != tuple(k.assign[v] for v in j.assign):
            raise InvariantViolation("square does not commute")
        self._set(j, g, h, k)

    @classmethod
    def _checked(cls, j, g, h, k):
        """The square (h, k) : j -> g, unchecked: for sides known to commute."""
        self = object.__new__(cls)
        self._set(j, g, h, k)
        return self

    def _set(self, j, g, h, k):
        self.j = j
        self.g = g
        self.h = h
        self.k = k

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Square)
            and self.j == other.j
            and self.g == other.g
            and self.h == other.h
            and self.k == other.k
        )

    def __hash__(self):
        return hash((self.j, self.g, self.h, self.k))

    def __repr__(self):
        return f"Square(h={list(self.h.assign)}, k={list(self.k.assign)})"


# ---------------------------------------------------------------------------
# construction


def closure(n, pairs):
    """Smallest reflexive-transitive relation on 0..n-1 containing ``pairs``."""
    return FinPreorder(n, _closure_rows(n, pairs))


def _closure_rows(n, pairs):
    """The ``up`` rows of :func:`closure`, unvalidated.

    Lets a reader that attaches labels build (and validate) the labelled
    preorder once.
    """
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise IndexOutOfRange(f"pair ({a},{b}) outside 0..{n - 1}")
        rows[a] |= 1 << b
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            if (rows[i] >> k) & 1:
                rows[i] |= rk
    return rows


def chain(n):
    return FinPreorder(n, (((1 << n) - 1) >> i << i for i in range(n)))


def antichain(n):
    return FinPreorder(n, (1 << i for i in range(n)))


def indiscrete(n):
    """n pairwise-equivalent elements (the codiscrete preorder)."""
    return FinPreorder(n, ((1 << n) - 1 for _ in range(n)))


def diamond():
    """Four-element lattice: bottom, two incomparable middles, top."""
    return closure(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def vee():
    """Two incomparable points under a common top (no bottom)."""
    return closure(3, [(0, 2), (1, 2)])


# ---------------------------------------------------------------------------
# predicates


def is_full(f):
    """f(a) <= f(a') implies a <= a' (order is reflected, not just preserved)."""
    return _unreflected_pair(f.assign, f.src.up, f.tgt.up) is None


def _unreflected_pair(assign, src_up, tgt_up):
    """The first (a, b) with assign[a] <= assign[b] but not a <= b, or None.

    The one fullness scan, on an assignment tuple and the two up-rows, so
    a caller can test a candidate before it builds (and validates) a map,
    and a failing verdict comes with its witness.  One word test per
    element a, in order: the mask {b : assign[a] <= assign[b]} must lie in
    up[a], and b is the lowest bit outside it.  The scan stops at the
    first element that fails; most maps are not full, so most scans stop
    early.
    """
    for a, v in enumerate(assign):
        r = tgt_up[v]
        above, bit = 0, 1
        for w in assign:
            if r >> w & 1:
                above |= bit
            bit <<= 1
        bad = above & ~src_up[a]
        if bad:
            return a, (bad & -bad).bit_length() - 1
    return None


def sup_mask(X, mask):
    """A least upper bound of the subset ``mask`` up to equivalence.

    Returns the least index among equivalent candidates, or None when the
    subset has no least upper bound.
    """
    ub = (1 << X.n) - 1
    for i in _bits(mask):
        ub &= X.up[i]
    return _least_member(ub, X.up)


def _subset_without_sup(X):
    """The first subset of X without a least upper bound, as a mask, or None.

    A singleton always has a sup, and a bottom plus binary sups make a
    finite preorder complete: the upper bounds of S ∪ {x} are those of
    {sup S, x}, so folding binary sups from the bottom reaches the sup
    of every subset.  So the first subset without a sup, by size and
    then mask, is the empty set or a pair, and only those are tested:
    the empty set first, then the pairs i < j by j and then i, which is
    ascending mask order.  The pairs are walked lazily and the walk
    stops at the first failure.  The empty preorder needs no case of its
    own: its empty subset has no upper bound at all.
    """
    if sup_mask(X, 0) is None:
        return 0
    for j in range(X.n):
        for i in range(j):
            if sup_mask(X, 1 << i | 1 << j) is None:
                return 1 << i | 1 << j
    return None


def is_complete_lattice(X):
    """Every subset (including the empty one) has a sup up to equivalence.

    That is, ``_subset_without_sup`` finds none.
    """
    return _subset_without_sup(X) is None


def down_set_masks(X):
    """All down-closed subsets of X as bitmasks, ascending.

    Enumerates order ideals of the poset reflection and expands classes,
    so the cost is O(result * classes) rather than 2^n.  The result is an
    immutable tuple that depends only on X's relation, so it is cached
    (bounded) in ``_down_set_masks``, keyed by X and the carrier bound:
    a sweep over many maps asks again for few sources, and a smaller
    bound is a different key, so its guard still raises.
    """
    return _down_set_masks(X, _bound.get())


@lru_cache(maxsize=256)
def _down_set_masks(X, bound):
    """:func:`down_set_masks` under the carrier bound ``bound``."""
    Q, cls = X.quotient()
    k = Q.n
    # process classes in a linear extension of the quotient
    topo = sorted(range(k), key=lambda c: (Q.down[c].bit_count(), c))
    ideals = [0]
    for c in topo:
        below = Q.down[c] & ~(1 << c)
        grown = [m | (1 << c) for m in ideals if not (below & ~m)]
        ideals += grown
        _guard(f"down-sets of a {X.n}-element preorder", len(ideals), bound)
    return tuple(sorted(_union(cls, m) for m in ideals))


# ---------------------------------------------------------------------------
# hom objects


def monotone_assignments(X, Y):
    """All monotone assignment vectors X -> Y, lexicographic.

    The raw candidate space |Y|^|X| is limited by the carrier bound
    before enumeration starts.
    """
    return _monotone_within(X, Y, ((1 << Y.n) - 1,) * X.n)


def _monotone_within(X, Y, allowed, full=False):
    """The monotone assignments a with a[i] in ``allowed[i]`` for each i.

    The same recursion, order and size guard as ``monotone_assignments``,
    which is the case where every mask is full: the masks only prune
    branches, so the survivors keep their lexicographic order.

    With ``full`` only the full assignments survive: for j < i, index i
    also loses ``Y.up[a[j]]`` when j ≰ i and ``Y.down[a[j]]`` when
    i ≰ j, which is fullness on the pair (j, i) in both directions.  A
    partial assignment that fails it is dropped before it grows, and the
    survivors are the full ones among all monotone assignments, in the
    same order.
    """
    if X.n == 0:
        return [()]
    if Y.n == 0:
        return []
    _hom_guard(X, Y)
    n = X.n
    out = []
    assign = [0] * n

    def rec(i):
        if i == n:
            out.append(tuple(assign))
            return
        mask = allowed[i]
        for j in range(i):
            if (X.up[j] >> i) & 1:
                mask &= Y.up[assign[j]]
            elif full:
                mask &= ~Y.up[assign[j]]
            if (X.up[i] >> j) & 1:
                mask &= Y.down[assign[j]]
            elif full:
                mask &= ~Y.down[assign[j]]
            if not mask:
                return
        for v in _bits(mask):
            assign[i] = v
            rec(i + 1)

    rec(0)
    return out


def hom_maps(X, Y):
    return [MonotoneMap(X, Y, a) for a in monotone_assignments(X, Y)]


def _pointwise_leq(Y, a, b):
    return all((Y.up[x] >> y) & 1 for x, y in zip(a, b))


def _least_vector(vectors, Y):
    """Index of the first of ``vectors`` pointwise below all of them, or None.

    One pass takes ``lower``, the pointwise meet of the down-sets of all
    the vectors; the vectors below every other one are those inside it.
    """
    if not vectors:
        return None
    lower = [(1 << Y.n) - 1] * len(vectors[0])
    for v in vectors:
        for y, x in enumerate(v):
            lower[y] &= Y.down[x]
    for i, v in enumerate(vectors):
        if all(lower[y] >> x & 1 for y, x in enumerate(v)):
            return i
    return None


def _pointwise_rows(vectors, ups):
    """Up-rows of the pointwise order on equal-length ``vectors``.

    ``ups[c]`` is the ``up`` table of the preorder coordinate c lives in.
    Row i is the mask of the vectors lying above vectors[i] in every
    coordinate, built as an AND of one column mask per coordinate (the
    preimage of an up-row along that coordinate) instead of comparing
    all pairs.
    """
    rows = [(1 << len(vectors)) - 1] * len(vectors)
    for c, up in enumerate(ups):
        col = [v[c] for v in vectors]
        above = _preimage_masks(col, up)
        rows = [r & above[x] for r, x in zip(rows, col)]
    return rows


def _pointwise_preorder(vectors, ups, downs):
    """The pointwise order on ``vectors``, built trusted.

    ``ups[c]`` and ``downs[c]`` are the rows of the validated preorder
    coordinate c lives in.  A pointwise order of preorders is a preorder,
    and its down rows are the pointwise rows of the down tables, so both
    come from ``_pointwise_rows`` and nothing is validated again.
    """
    return FinPreorder._checked(
        tuple(_pointwise_rows(vectors, ups)), tuple(_pointwise_rows(vectors, downs))
    )


def squares(j, g):
    """All commuting squares (h, k) : j -> g, lexicographic on (h, k).

    The k assignments are grouped by k∘j once, so each h meets only the
    k with k∘j = g∘h instead of testing every (h, k) pair; each group
    keeps the lexicographic order of the k, so the output order is the
    one of the full scan.  Each h and each k map is built once, however
    many squares share it, and all are built trusted: h and k come from
    the enumerated hom sets, so they are monotone, and each square pairs
    an h with a k of the same k∘j = g∘h, so it commutes.  Each hom set
    is limited by the carrier bound, their product by 64 times it and
    the squares found by it.

    The enumeration is memoised in ``_squares``, keyed by (j, g, the
    labels of their four preorders, the carrier bound) and bounded at 16
    square sets, so a caller that lists the squares of a pair and then
    asks ``lifting._comparison`` about the same pair enumerates them
    once.  A
    cached set is an immutable tuple built by the same code from the
    same key, and each call returns a fresh list of it, so the squares,
    their order and every error are unchanged, and mutating one result
    changes no other.  A smaller bound is a different key, so its guards
    still raise.
    """
    labels = (j.src.labels, j.tgt.labels, g.src.labels, g.tgt.labels)
    return list(_squares(j, g, labels, _bound.get()))


@lru_cache(maxsize=16)
def _squares(j, g, labels, bound):
    """``squares`` as a tuple, under the carrier bound ``bound``.

    ``lifting._comparison`` reads it through ``squares``, so the lifting
    functions share the enumeration with every other caller.  ``labels``
    is part of the key only: map and preorder equality ignore labels, and
    every square holds j and g, so a labelled pair never receives squares
    built on another caller's labels.  The hom-set guards read the
    bound from the context, where ``squares`` took it.
    """
    hs = monotone_assignments(j.src, g.src)
    ks = monotone_assignments(j.tgt, g.tgt)
    _guard("square search space", len(hs) * len(ks), 64 * bound)
    by_kj = {}
    for k in ks:
        by_kj.setdefault(tuple(k[v] for v in j.assign), []).append(k)
    kmaps = {}
    out = []
    for h in hs:
        group = by_kj.get(tuple(g.assign[v] for v in h))
        if not group:
            continue
        hmap = MonotoneMap._checked(j.src, g.src, h)
        for k in group:
            kmap = kmaps.get(k)
            if kmap is None:
                kmap = kmaps[k] = MonotoneMap._checked(j.tgt, g.tgt, k)
            out.append(Square._checked(j, g, hmap, kmap))
    _guard("commuting squares", len(out), bound)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration and isomorphism


def _refinement(X):
    """Iterated degree refinement; an isomorphism-invariant color per element."""
    n = X.n
    inv = [(X.up[i].bit_count(), X.down[i].bit_count()) for i in range(n)]
    for _ in range(2):
        nxt = []
        for i in range(n):
            ups = tuple(sorted(inv[j] for j in _bits(X.up[i])))
            dns = tuple(sorted(inv[j] for j in _bits(X.down[i])))
            nxt.append((inv[i], ups, dns))
        codes = {v: c for c, v in enumerate(sorted(set(nxt)))}
        inv = [codes[v] for v in nxt]
    return tuple(inv)


_PERM_LIMIT = 40320  # 8!


@lru_cache(maxsize=None)
def _canonical(X):
    """Minimal relabeling of X compatible with the refinement classes.

    Returns (canonical rows, all relabelings old->new achieving them).
    Any isomorphism preserves refinement colors, so the minimum over
    color-respecting permutations is a true canonical form.
    """
    n = X.n
    inv = _refinement(X)
    by_color = {}
    for i in range(n):
        by_color.setdefault(inv[i], []).append(i)
    blocks = [tuple(by_color[c]) for c in sorted(by_color)]
    total = 1
    for b in blocks:
        for t in range(2, len(b) + 1):
            total *= t
        _guard(f"relabelings of a {n}-element preorder", total, _PERM_LIMIT)
    best_rows = None
    best_perms = []
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        seq = [e for block in combo for e in block]  # new index -> old element
        new_of_old = [0] * n
        new_bit = [0] * n
        for new, old in enumerate(seq):
            new_of_old[old] = new
            new_bit[old] = 1 << new
        rows = tuple(_union(new_bit, X.up[old]) for old in seq)
        if best_rows is None or rows < best_rows:
            best_rows = rows
            best_perms = [tuple(new_of_old)]
        elif rows == best_rows:
            best_perms.append(tuple(new_of_old))
    return best_rows, tuple(best_perms)


def canonical_key(X):
    return (X.n, _canonical(X)[0])


def canonical_form(X):
    return FinPreorder(X.n, _canonical(X)[0])


def arrow_canonical_key(f):
    """Canonical key of a map up to separate relabeling of src and tgt."""
    kx, perms_x = _canonical(f.src)
    ky, perms_y = _canonical(f.tgt)
    best = None
    for px in perms_x:
        for py in perms_y:
            relabeled = [0] * f.src.n
            for old, new in enumerate(px):
                relabeled[new] = py[f.assign[old]]
            t = tuple(relabeled)
            if best is None or t < best:
                best = t
    return (f.src.n, kx, f.tgt.n, ky, best)


def _one_point_extensions(P, posets_only):
    """The preorders on P.n + 1 points that restrict to P, in two kinds.

    (a) The new point n is a copy of some x: y <= n iff y <= x, and
    n <= z iff x <= z, so n lies in x's class (skipped when
    ``posets_only``).  (b) n lies strictly above a down-set D of P and
    below nothing else.  Every extension in which n lies in a maximal
    class is of one of these kinds.
    """
    n, up = P.n, P.up
    new = 1 << n
    if not posets_only:
        for x in range(n):
            yield FinPreorder(
                n + 1, tuple(r | new if r >> x & 1 else r for r in up) + (up[x] | new,)
            )
    # the enumeration is memoised without a carrier bound, so it reads none
    for D in _down_set_masks(P, DEFAULT_MAX_CARRIER):
        yield FinPreorder(
            n + 1, tuple(r | new if D >> i & 1 else r for i, r in enumerate(up)) + (new,)
        )


def enumerate_preorders(n, up_to_iso=True, posets_only=False, bound=DEFAULT_ENUM_BOUND):
    """All preorders on n elements, optionally one per isomorphism class.

    Output order is deterministic: ascending canonical key, or ascending
    ``up`` rows for the labeled enumeration.

    The size bound is tested on every call, before the memo in
    ``_enumeration``, which holds one tuple per (n, up_to_iso,
    posets_only) however the call spells its arguments, so equal
    requests share one result.
    """
    _guard("enumeration size", n, bound)
    return _enumeration(n, up_to_iso, posets_only)


@lru_cache(maxsize=64)
def _enumeration(n, up_to_iso, posets_only):
    """:func:`enumerate_preorders` once its bound has been checked.

    The classes on n >= 1 points are generated from the class
    representatives on n - 1 points by one-point extension: the new
    point is either a copy of an existing point, in its class, or a
    maximal point above a down-set (``_one_point_extensions``).  One
    candidate is kept per canonical key.  This finds every class: a
    finite preorder Q has a maximal class; removing one point m of it
    leaves a preorder P, and Q is P plus m, where m is a copy of another
    point of its class if the class has one, and otherwise lies strictly
    above the down-set {y : y < m}.  Extending any representative
    isomorphic to P gives a preorder isomorphic to Q.  A poset's maximal
    classes are single points, so the copies are not needed for posets.
    The representative kept is ``canonical_form``, which depends only on
    the class, and the classes are sorted by canonical key, so the result
    is the tuple a filter over all 2^(n(n-1)) relation matrices gives, at
    a cost that scales with the number of classes.

    The labeled enumeration is the union of the representatives' orbits
    under the n! relabelings, sorted by ``up``.
    """
    if n <= 0:
        # a negative n is rejected here, with FinPreorder's own message
        return (FinPreorder(n, ()),)
    classes = {}
    for P in _enumeration(n - 1, True, posets_only):
        for Q in _one_point_extensions(P, posets_only):
            key = canonical_key(Q)
            if key not in classes:
                classes[key] = canonical_form(Q)
    reps = [classes[k] for k in sorted(classes)]
    if up_to_iso:
        return tuple(reps)
    found = set()
    for perm in itertools.permutations(range(n)):
        bits = [1 << new for new in perm]
        for P in reps:
            rows = [0] * n
            for old, new in enumerate(perm):
                rows[new] = _union(bits, P.up[old])
            found.add(tuple(rows))
    return tuple(FinPreorder(n, rows) for rows in sorted(found))
