"""Finite preorders, monotone maps, squares, and the enumeration engine.

Elements are always the indices ``0..n-1``.  The relation is stored as
bitset rows: ``up[i]`` is the mask of ``{j : i <= j}``, which makes
reflexive-transitive closure, down-closure and pointwise comparison
word-parallel.  Only the up rows are stored; the down rows, ``down[j]``
the mask of ``{i : i <= j}``, are their transpose, computed by
``_transpose`` when first read.  Labels are presentation-only; equality
and hashing ignore them.  All values are immutable after construction
and every operation is a pure function, so shared values are safe to use
concurrently: the one slot written later, a preorder's down rows, is
filled on first read, and every writer, racing or not, writes an equal
tuple.
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

# the two bounds of the current thread or task, each set only by its block below
_bound = contextvars.ContextVar("lofs_carrier_bound", default=DEFAULT_MAX_CARRIER)
_max_size = contextvars.ContextVar("lofs_size_bound", default=DEFAULT_ENUM_BOUND)


@contextlib.contextmanager
def _setting(var, n):
    token = var.set(n)
    try:
        yield
    finally:
        var.reset(token)


def carrier_bound(n):
    """Bound every carrier, hom set and square set built inside the block by n.

    The one way to set the carrier bound, which is ``DEFAULT_MAX_CARRIER``
    outside every block: the size guards read it from the context, so no
    call below the block can drop it.  As with any ``ContextVar``, the
    value holds for the current thread or asyncio task, and the previous
    bound is restored when the block exits, also by an exception.
    """
    return _setting(_bound, n)


def size_bound(n):
    """Bound the size of every preorder enumerated inside the block by n.

    The one way to set the enumeration bound, which is
    ``DEFAULT_ENUM_BOUND`` outside every block, read from the context by
    ``enumerate_preorders`` as ``carrier_bound``'s is by the other guards.
    """
    return _setting(_max_size, n)


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


def _transpose(rows):
    """The transpose of the square bitset ``rows``: bit i of out[j] is bit j of rows[i].

    The one kernel for down rows: with ``up`` rows it gives the ``down``
    rows, and the other way round.  One step per set bit.
    """
    out = [0] * len(rows)
    bit = 1
    for row in rows:
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
        bit <<= 1
    return tuple(out)


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
    row's range and reflexivity.  The second checks transitivity: row i
    must hold the union of the rows of its members, and when it does not
    the violation named is its lowest j with up[j] outside up[i].  Rows
    are visited in ascending order, and the first violation met is the
    one reported.  Only the up rows are kept; ``down`` is their
    transpose, filled on first read.
    """

    __slots__ = ("n", "up", "_down", "labels", "_hash")

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
        for i, row in enumerate(up):
            if _union(up, row) & ~row:
                j = next(j for j in _bits(row) if up[j] & ~row)
                raise InvariantViolation(f"relation is not transitive through ({i},{j})")
        self._set(up, labels)

    @classmethod
    def _checked(cls, up, labels=None):
        """The preorder on up rows that already form one, with ``labels``.

        Trusted: only the labels are checked.  ``up`` is a tuple of rows
        from one of three sources: a validated preorder's rows (or its
        down rows, the opposite, or rows renumbered by ``_renumbered``
        for ``restrict`` and ``quotient``), the rows of a pointwise order
        on validated coordinates, from ``_pointwise_preorder``, or the
        factorisation carrier, the componentwise order built from its
        down-set blocks in ``downsets._carrier``, which is also every
        lattice of down-sets.  Anything else enters through the
        validating constructor.
        """
        self = object.__new__(cls)
        self._set(up, labels)
        return self

    def _set(self, up, labels):
        n = len(up)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n or len(set(labels)) != n:
                raise InvariantViolation("labels must be n distinct strings")
        self.n = n
        self.up = up
        self._down = None
        self.labels = labels
        self._hash = hash((n, up))

    @property
    def down(self):
        """``down[j]``, the mask of {i : i <= j}: the transpose of ``up``.

        Computed by ``_transpose`` on first read and kept; a race only
        writes the same tuple twice.
        """
        down = self._down
        if down is None:
            down = self._down = _transpose(self.up)
        return down

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def equiv(self, i, j):
        return bool((self.up[i] >> j) & (self.up[j] >> i) & 1)

    def classes(self):
        """Equivalence-class masks, ordered by least member.

        i and j are equivalent iff up[i] == up[j], so the classes are the
        groups of equal up rows, met in index order; no down row is read.
        """
        at = {}
        for i, row in enumerate(self.up):
            at[row] = at.get(row, 0) | 1 << i
        return list(at.values())

    @property
    def is_poset(self):
        """No two elements are equivalent: all up rows differ."""
        return len(set(self.up)) == self.n

    def label(self, i):
        if self.labels is not None:
            return self.labels[i]
        return f"x{i}"

    def pairs(self):
        """All non-reflexive related pairs (i, j) with i <= j."""
        return [(i, j) for i in range(self.n) for j in _bits(self.up[i]) if i != j]

    def _renumbered(self, bits, elems, labels=None):
        """The order on ``elems`` with element e renumbered to ``bits[e]``.

        Built trusted: row e is the union of ``bits`` over up[e], so with
        ``bits`` the new positions of a subset, 0 elsewhere, it is the
        restriction, and with ``bits`` the class of each element and one
        member per class, the poset reflection.  Either is a preorder
        when this one is.
        """
        return FinPreorder._checked(tuple(_union(bits, self.up[e]) for e in elems), labels)

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

    The hash is computed on first use, as ``hash((src, tgt, assign))``,
    and kept: most maps are never hashed, so neither constructor pays for
    it.  A race only writes the same value twice.
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
        self.src = src
        self.tgt = tgt
        self.assign = assign

    @classmethod
    def _checked(cls, src, tgt, assign):
        """The map with the assignment tuple ``assign``, unchecked.

        Trusted: only for an ``assign`` that is monotone src -> tgt by an
        argument stated where it is built (an enumerated hom set, a
        composite of monotone maps, a projection of a pointwise order, an
        adjoint read off the pointwise-minimum formula).
        """
        self = object.__new__(cls)
        self.src = src
        self.tgt = tgt
        self.assign = assign
        return self

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
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.src, self.tgt, self.assign))
            return h

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
    return _pointwise_leq(f.tgt, f.assign, g.assign)


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
        self.j = j
        self.g = g
        self.h = h
        self.k = k

    @classmethod
    def _checked(cls, j, g, h, k):
        """The square (h, k) : j -> g, unchecked: for sides known to commute."""
        self = object.__new__(cls)
        self.j = j
        self.g = g
        self.h = h
        self.k = k
        return self

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
    and a failing verdict comes with its witness.  The fibre of each value
    is built once; then for each element a, in order, the mask
    {b : assign[a] <= assign[b]} is the union of the fibres over the
    values above assign[a] that are hit, one word per value instead of a
    pass over every image.  It must lie in up[a], and b is the lowest bit
    outside it.  The scan stops at the first element that fails; most
    maps are not full, so most scans stop early.
    """
    fibre = [0] * len(tgt_up)
    image, bit = 0, 1
    for v in assign:
        fibre[v] |= bit
        image |= 1 << v
        bit <<= 1
    for a, v in enumerate(assign):
        bad = _union(fibre, tgt_up[v] & image) & ~src_up[a]
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
    down = Q.down
    topo = sorted(range(k), key=lambda c: (down[c].bit_count(), c))
    ideals = [0]
    for c in topo:
        below = down[c] & ~(1 << c)
        grown = [m | (1 << c) for m in ideals if not (below & ~m)]
        ideals += grown
        _guard(f"down-sets of a {X.n}-element preorder", len(ideals), bound)
    return tuple(sorted(_union(cls, m) for m in ideals))


# ---------------------------------------------------------------------------
# hom objects


def monotone_assignments(X, Y):
    """All monotone assignment vectors X -> Y, as a list, lexicographic.

    The raw candidate space |Y|^|X| is limited by the carrier bound
    before enumeration starts.  ``_monotone_within`` enumerates them
    level by level, one index of X at a time, with every value allowed.
    The enumeration is memoised in ``_monotone_assignments``, keyed by
    X, Y and the carrier bound, at most 256 hom sets: a sweep asks for
    few distinct (X, Y) pairs many times over.  Each call returns a fresh list of the cached tuple, so
    mutating one result changes no other, and a smaller bound is a
    different key, so its guard still raises.
    """
    return list(_monotone_assignments(X, Y, _bound.get()))


@lru_cache(maxsize=256)
def _monotone_assignments(X, Y, bound):
    """``monotone_assignments`` as a tuple, under the carrier bound ``bound``.

    The key ignores labels, as preorder equality does; the assignments
    are index tuples, which no label changes.  The guard reads the bound
    from the context, where ``monotone_assignments`` took it, so an entry
    holds at most ``bound`` assignments.
    """
    return tuple(_monotone_within(X, Y, ((1 << Y.n) - 1,) * X.n))


@lru_cache(maxsize=256)
def _hom_rows(X, Y, bound):
    """The up rows of the hom preorder X -> Y, under the carrier bound ``bound``.

    The elements are the assignments of ``_monotone_assignments`` under
    the same key, in its order, ordered pointwise by
    ``_pointwise_preorder``.  Memoised beside them, at most 256 hom
    preorders, so a sweep that meets one (X, Y) many times builds its
    order once: the rows are a tuple of masks, which no label changes,
    and a caller builds its preorder on them trusted.  A smaller bound is
    a different key, so the hom set's guard still raises.
    """
    return _pointwise_preorder(_monotone_assignments(X, Y, bound), (Y,) * X.n).up


def _monotone_within(X, Y, allowed, full=False):
    """The monotone assignments a with a[i] in ``allowed[i]`` for each i.

    The enumeration behind ``monotone_assignments``, which is the case
    where every mask is full, with its size guard called first.  It
    extends a list of prefixes one index at a time: the values left for
    a[i] are ``allowed[i]`` ANDed with one row per earlier j, read off a
    table indexed by a[j].  The table holds ``Y.up`` when j <= i only,
    ``Y.down`` when i <= j only, their AND when both, and nothing when
    neither.  Prefixes are extended in order and values in ascending
    order, so each level, and the output, is lexicographic.

    With ``full`` only the full assignments survive: where X lacks
    j <= i the table also takes the complement of ``Y.up``, and where it
    lacks i <= j the complement of ``Y.down``, so a[j] <= a[i] only if
    j <= i and a[i] <= a[j] only if i <= j, which is fullness on the
    pair (j, i).  A prefix that fails it has no values left and is
    dropped before it grows, and the survivors are the full ones among
    all monotone assignments, in the same order.
    """
    if X.n == 0:
        return [()]
    if Y.n == 0:
        return []
    _hom_guard(X, Y)
    anything = (1 << Y.n) - 1
    # the table of the pair (j, i) by its kind, 2 * [j <= i] + [i <= j],
    # each built on first use; without full a missing relation constrains
    # nothing, so kind 0 has no table and kinds 1 and 2 are Y's own rows
    tables = [None] * 4 if full else [None, Y.down, Y.up, None]
    level = [()]
    for i, row in enumerate(X.up):
        rows = []
        for j in range(i):
            kind = 2 * (X.up[j] >> i & 1) + (row >> j & 1)
            if not (kind or full):
                continue
            t = tables[kind]
            if t is None:
                # a relation that X lacks takes the complement of Y's row
                cu = 0 if kind & 2 else anything
                cd = 0 if kind & 1 else anything
                t = tables[kind] = tuple((u ^ cu) & (d ^ cd) for u, d in zip(Y.up, Y.down))
            rows.append((j, t))
        nxt = []
        for p in level:
            mask = allowed[i]
            for j, t in rows:
                mask &= t[p[j]]
            while mask:
                low = mask & -mask
                nxt.append(p + (low.bit_length() - 1,))
                mask ^= low
        level = nxt
    return level


def hom_maps(X, Y):
    """All monotone maps X -> Y, lexicographic.

    Built trusted: each assignment comes from ``monotone_assignments``,
    which keeps only the monotone ones.
    """
    return [MonotoneMap._checked(X, Y, a) for a in monotone_assignments(X, Y)]


def _pointwise_leq(Y, a, b):
    return all((Y.up[x] >> y) & 1 for x, y in zip(a, b))


def _least_vector(vectors, Y):
    """Index of the first of ``vectors`` pointwise below all of them, or None.

    One pass takes ``lower``, the pointwise meet of the down-sets of all
    the vectors; the vectors below every other one are those inside it.
    """
    if not vectors:
        return None
    down = Y.down
    lower = [(1 << Y.n) - 1] * len(vectors[0])
    for v in vectors:
        for y, x in enumerate(v):
            lower[y] &= down[x]
    for i, v in enumerate(vectors):
        if all(lower[y] >> x & 1 for y, x in enumerate(v)):
            return i
    return None


def _pointwise_preorder(vectors, coords):
    """The pointwise order on equal-length ``vectors``, built trusted.

    ``coords[c]`` is the validated preorder coordinate c lives in.  Row i
    is the mask of the vectors above vectors[i] in every coordinate, an
    AND of one column mask per coordinate (the preimage of an up row
    along that coordinate) instead of a comparison of all pairs.  Each
    column is grouped once, by one ``_preimage_masks`` call over the
    coordinate's up rows; the down rows are left to ``FinPreorder.down``.
    A pointwise order of preorders is a preorder, so nothing is validated
    again.
    """
    ups = [(1 << len(vectors)) - 1] * len(vectors)
    for col, Y in zip(zip(*vectors), coords):
        above = _preimage_masks(col, Y.up)
        for i, x in enumerate(col):
            ups[i] &= above[x]
    return FinPreorder._checked(tuple(ups))


def squares(j, g):
    """All commuting squares (h, k) : j -> g, lexicographic on (h, k).

    The squares are those of ``_square_pairs``, built on the caller's own
    j and g, in its order and with its errors.  Each h and each k map is
    built once, however many squares share it, and all are built
    trusted: h and k come from the enumerated hom sets, so they are
    monotone, and each pair has k∘j = g∘h, so each square commutes.
    Each call returns a fresh list, so mutating one result changes no
    other.
    """
    hmaps, kmaps, out = {}, {}, []
    for h, k in _square_pairs(j, g, _bound.get()):
        if h not in hmaps:
            hmaps[h] = MonotoneMap._checked(j.src, g.src, h)
        if k not in kmaps:
            kmaps[k] = MonotoneMap._checked(j.tgt, g.tgt, k)
        out.append(Square._checked(j, g, hmaps[h], kmaps[k]))
    return out


@lru_cache(maxsize=16)
def _square_pairs(j, g, bound):
    """The squares j -> g as (h, k) assignment pairs, lexicographic, under ``bound``.

    The k assignments are grouped by k∘j once, so each h meets only the
    k with k∘j = g∘h instead of testing every (h, k) pair; each group
    keeps the lexicographic order of the k, so the order is the one of
    the full scan.  The hom sets j.src -> g.src and j.tgt -> g.tgt are
    each limited by the carrier bound, read from the context where the
    caller took ``bound``; their product is limited by 64 times it and
    the squares found by it, in that order.

    Memoised, keyed by (j, g, the carrier bound), at most 16 square
    sets, so ``squares`` and ``lifting._comparison`` on one pair
    enumerate it once.  The value holds index tuples only, which no
    label changes, and a smaller bound is a different key, so its guards
    still raise.
    """
    hs = monotone_assignments(j.src, g.src)
    ks = monotone_assignments(j.tgt, g.tgt)
    _guard("square search space", len(hs) * len(ks), 64 * bound)
    ja, ga = j.assign, g.assign
    by_kj = {}
    for k in ks:
        by_kj.setdefault(tuple([k[v] for v in ja]), []).append(k)
    out = tuple([(h, k) for h in hs for k in by_kj.get(tuple([ga[v] for v in h]), ())])
    _guard("commuting squares", len(out), bound)
    return out


# ---------------------------------------------------------------------------
# enumeration and isomorphism


def _refinement(X):
    """Iterated degree refinement; an isomorphism-invariant color per element."""
    n, up, down = X.n, X.up, X.down
    inv = [(up[i].bit_count(), down[i].bit_count()) for i in range(n)]
    for _ in range(2):
        nxt = []
        for i in range(n):
            ups = tuple(sorted(inv[j] for j in _bits(up[i])))
            dns = tuple(sorted(inv[j] for j in _bits(down[i])))
            nxt.append((inv[i], ups, dns))
        codes = {v: c for c, v in enumerate(sorted(set(nxt)))}
        inv = [codes[v] for v in nxt]
    return tuple(inv)


_PERM_LIMIT = 40320  # 8!


@lru_cache(maxsize=1024)
def _canonical(X):
    """Minimal relabeling of X compatible with the refinement classes.

    Returns (canonical rows, sequences, columns) over the relabelings
    that achieve the rows, in the order met: each sequence maps a new
    index to its old element, and ``columns[v]`` holds v's new index
    under each relabeling.  ``arrow_canonical_key`` reads X as a source
    through the first and as a target through the second.  Any
    isomorphism preserves refinement colors, so the minimum over
    color-respecting permutations is a true canonical form.  Memoised,
    at most 1,024 preorders: the enumeration of size 6 canonicalises
    2,260, the battery and the benchmark's sweeps 430 each.
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
    best_seqs, best_perms = [], []
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        seq = tuple(e for block in combo for e in block)  # new index -> old element
        new_of_old = [0] * n
        new_bit = [0] * n
        for new, old in enumerate(seq):
            new_of_old[old] = new
            new_bit[old] = 1 << new
        rows = tuple(_union(new_bit, X.up[old]) for old in seq)
        if best_rows is None or rows < best_rows:
            best_rows = rows
            best_seqs, best_perms = [], []
        if rows == best_rows:
            best_seqs.append(seq)
            best_perms.append(new_of_old)
    return best_rows, tuple(best_seqs), tuple(zip(*best_perms))


def canonical_key(X):
    return (X.n, _canonical(X)[0])


def canonical_form(X):
    return FinPreorder(X.n, _canonical(X)[0])


def arrow_canonical_key(f):
    """Canonical key of a map up to separate relabeling of src and tgt.

    The key's map part is the least relabeled assignment over every pair
    of a source and a target relabeling from ``_canonical``.  For one
    source sequence s, the relabeled assignment under the target
    relabeling t is (t[f(s[0])], t[f(s[1])], ...), so zipping the target
    columns of f(s[0]), f(s[1]), ... yields those tuples for every t at
    once, and one ``min`` over the zip replaces the loop over t.  An
    empty source has the empty tuple as its only relabeled assignment.
    """
    X, Y = f.src, f.tgt
    rows_x, seqs, _ = _canonical(X)
    rows_y, _, cols = _canonical(Y)
    at = [cols[v] for v in f.assign]
    best = min(min(zip(*[at[o] for o in seq]), default=()) for seq in seqs)
    return (X.n, rows_x, Y.n, rows_y, best)


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


def enumerate_preorders(n, up_to_iso=True, posets_only=False):
    """All preorders on n elements, optionally one per isomorphism class.

    Output order is deterministic: ascending canonical key, or ascending
    ``up`` rows for the labeled enumeration.

    The size bound, set by ``size_bound``, is tested on every call,
    before the memo in ``_enumeration``, which holds one tuple per (n,
    up_to_iso, posets_only) however the call spells its arguments, so
    equal requests share one result.
    """
    _guard("enumeration size", n, _max_size.get())
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


def representatives(max_size, posets_only=False):
    """One preorder per isomorphism class, of every size <= max_size.

    By size, then canonical key.  A generator: each size is enumerated,
    and its size guard called, when the walk reaches it, so a caller that
    works through the classes as they come meets its guards in that order.
    """
    for n in range(max_size + 1):
        yield from enumerate_preorders(n, posets_only=posets_only)


def arrow_classes(max_size, posets_only=False, full=False):
    """One map per arrow-isomorphism class between preorders of size <= max_size.

    The maps run between the ``representatives``; with ``full`` only the
    full maps (the order-embeddings) are searched.  Ascending
    ``arrow_canonical_key``.  Memoised in ``_arrow_classes`` per
    (max_size, posets_only, full, the carrier bound, the size bound),
    however the call spells them, at most 16 families: a smaller bound is
    a different key, so its guards still raise.
    """
    return _arrow_classes(max_size, posets_only, full, _bound.get(), _max_size.get())


@lru_cache(maxsize=16)
def _arrow_classes(max_size, posets_only, full, carrier, size):
    """:func:`arrow_classes` as a tuple; both bounds are in the key only.

    Each class keeps the first of its maps met, walking the pairs of
    representatives in order and each hom set lexicographically.  With
    ``full`` the search of ``_monotone_within`` is pruned by fullness, so
    only the full assignments are ever completed.  Every assignment found
    is monotone (and full when asked), so each map is built trusted.
    """
    reps = list(representatives(max_size, posets_only))
    seen = {}
    for X in reps:
        for Y in reps:
            for assign in _monotone_within(X, Y, ((1 << Y.n) - 1,) * X.n, full):
                f = MonotoneMap._checked(X, Y, assign)
                seen.setdefault(arrow_canonical_key(f), f)
    return tuple(seen[k] for k in sorted(seen))
