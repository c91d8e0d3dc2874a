"""Finite spaces as specialization preorders, Scott topology, filter monad.

A finite space is identified with its specialization preorder; its opens
are exactly the up-closed subsets, so no open-set lists are stored.  On
finite posets the Scott topology collapses to the up-sets, the way-below
relation collapses to the order, and the continuous lattices are the
complete lattices.

Filters of the open-set lattice are taken in the inclusive sense: the
improper filter containing the empty open is one of them.  In a finite
lattice every filter is principal (a filter is a finite intersection-
closed upper set, so it contains the meet of its members), which keeps
the filter space the size of the open-set lattice.
"""

from __future__ import annotations

from .adjunction import find_right_adjoint
from .errors import NotAPoset, SizeLimitExceeded
from .order import (
    DEFAULT_MAX_CARRIER,
    FinPreorder,
    MonotoneMap,
    _bits,
    _inclusion_rows,
    _preimage_masks,
    _union,
    compose,
    down_set_masks,
    identity,
    is_complete_lattice,
    is_full,
    maps_equivalent,
    sup_mask,
)


class FiniteSpace:
    """A finite topological space given by its specialization preorder."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = points

    @property
    def is_t0(self):
        return self.points.is_poset

    def __eq__(self, other):
        return isinstance(other, FiniteSpace) and self.points == other.points

    def __hash__(self):
        return hash(("space", self.points))

    def __repr__(self):
        return f"FiniteSpace({self.points!r})"


class FilterSpace:
    """The space of filters of the open-set lattice, ordered by inclusion.

    ``sets[i]`` is the member mask of filter ``i`` over ``opens``;
    ``generators[i]`` is the least member (every filter here is
    principal).  The specialization order of the filter topology, whose
    sub-basic opens are {F : U in F}, is inclusion of filters.
    """

    __slots__ = ("base", "opens", "filters", "sets", "generators", "_index")

    def __init__(self, base, opens, filters, sets, generators):
        self.base = base
        self.opens = opens
        self.filters = filters
        self.sets = sets
        self.generators = generators
        self._index = {s: i for i, s in enumerate(sets)}

    def index_of_set(self, member_mask):
        return self._index[member_mask]


def _points(X):
    return X.points if isinstance(X, FiniteSpace) else X


def open_masks(X):
    """All open sets (up-closed subsets) as masks, ascending."""
    P = _points(X)
    opposite = FinPreorder(P.n, P.down)
    return down_set_masks(opposite)


def open_set_poset(X):
    """The opens of X ordered by inclusion, elements aligned with open_masks."""
    masks = open_masks(X)
    return FinPreorder(len(masks), _inclusion_rows(masks))


def _directed_sups(P):
    """(d, sup d) for every nonempty directed subset d of the poset P.

    Every nonempty finite directed set has a maximum, which is its
    supremum, so the sup always exists.
    """
    if P.n > 16:
        raise SizeLimitExceeded("too many subsets to quantify over")
    out = []
    for mask in range(1, 1 << P.n):
        elems = list(_bits(mask))
        if all(P.up[a] & P.up[b] & mask for a in elems for b in elems):
            out.append((mask, sup_mask(P, mask)))
    return out


def scott_opens(L):
    """Subsets that are up-closed and inaccessible by directed suprema.

    Quantifies over every directed subset; on finite posets the result
    is exactly the up-sets.
    """
    P = _points(L)
    if not P.is_poset:
        raise NotAPoset("Scott opens are defined over posets")
    directed = _directed_sups(P)
    return tuple(
        u
        for u in range(1 << P.n)
        if not (_union(P.up, u) & ~u)
        and all(not (u >> s) & 1 or d & u for d, s in directed)
    )


def way_below(L):
    """The way-below relation as bitmask rows: bit y of row x means x << y.

    Quantifies over all directed subsets.  Every nonempty finite directed
    set has a maximum, which is its supremum, so on finite posets the
    relation coincides with the order.
    """
    P = _points(L)
    if not P.is_poset:
        raise NotAPoset("way-below is defined over posets")
    directed = _directed_sups(P)
    rows = []
    for x in range(P.n):
        row = 0
        for y in range(P.n):
            if all(not ((P.up[y] >> s) & 1) or (d & P.up[x]) for d, s in directed):
                row |= 1 << y
        rows.append(row)
    return tuple(rows)


def is_continuous_lattice(L):
    """Complete, and every element is the sup of the elements way below it."""
    P = _points(L)
    if not P.is_poset or not is_complete_lattice(P):
        return False
    wb = way_below(P)
    below_of = [0] * P.n
    for x in range(P.n):
        for y in _bits(wb[x]):
            below_of[y] |= 1 << x
    return all(sup_mask(P, below_of[y]) == y for y in range(P.n))


def filter_space(X, max_carrier=DEFAULT_MAX_CARRIER):
    """The space of filters of the open-set lattice of X.

    Filters are listed by their generating open, in open order; the order
    on filters is inclusion of member sets.
    """
    P = _points(X)
    opens = open_masks(X)
    m = len(opens)
    if m > max_carrier:
        raise SizeLimitExceeded("open-set lattice exceeds the bound")
    # the filter generated by opens[u] is the set of opens above it: its
    # inclusion row among the opens
    sets = _inclusion_rows(opens)
    filters = FinPreorder(m, _inclusion_rows(sets))
    return FilterSpace(
        FiniteSpace(P), opens, filters, tuple(sets), tuple(range(m))
    )


def filter_unit(X, fs=None):
    """x ↦ its neighbourhood filter; monotone, in fact an order embedding."""
    P = _points(X)
    fs = fs or filter_space(X)
    open_index = {u: i for i, u in enumerate(fs.opens)}
    return MonotoneMap(P, fs.filters, [open_index[P.up[x]] for x in range(P.n)])


def filter_map(f, src_fs=None, tgt_fs=None):
    """Functor action: F ↦ {V : f⁻¹(V) in F}."""
    src_fs = src_fs or filter_space(f.src)
    tgt_fs = tgt_fs or filter_space(f.tgt)
    src_index = {u: i for i, u in enumerate(src_fs.opens)}
    pre = [src_index[m] for m in _preimage_masks(f.assign, tgt_fs.opens)]
    # the members of F's image: the opens V whose preimage is a member of F
    assign = [tgt_fs.index_of_set(m) for m in _preimage_masks(pre, src_fs.sets)]
    return MonotoneMap(src_fs.filters, tgt_fs.filters, assign)


def filter_mult(X, fs=None, ffs=None):
    """Kleisli-style multiplication: 𝔉 ↦ {U : {F : U in F} in 𝔉}."""
    fs = fs or filter_space(X)
    ffs = ffs or filter_space(FiniteSpace(fs.filters))
    ff_open_index = {u: i for i, u in enumerate(ffs.opens)}
    # {F : U in F} for U = opens[u]: the filters generated by an open
    # inside U, which is the up-row of u in the (reverse) filter order
    sharp = [ff_open_index[fs.filters.up[u]] for u in range(len(fs.opens))]
    # the members of the image: the opens U whose sharp is a member of big
    assign = [fs.index_of_set(m) for m in _preimage_masks(sharp, ffs.sets)]
    return MonotoneMap(ffs.filters, fs.filters, assign)


def filter_algebra(X, max_carrier=DEFAULT_MAX_CARRIER):
    """The algebra map FX -> X, or None.

    An algebra is a right adjoint of the unit sending each principal
    filter to the infimum of its generating open, so the adjoint search
    decides existence; unit and multiplication laws are then verified
    elementwise.  Exists exactly for the (finitely: complete) continuous
    lattices.
    """
    P = _points(X)
    fs = filter_space(X, max_carrier)
    eta = filter_unit(X, fs)
    alpha = find_right_adjoint(eta)
    if alpha is None:
        return None
    if not maps_equivalent(compose(eta, alpha), identity(P)):
        return None
    ffs = filter_space(FiniteSpace(fs.filters), max_carrier)
    m = filter_mult(X, fs, ffs)
    falpha = filter_map(alpha, ffs, fs)
    if not maps_equivalent(compose(m, alpha), compose(falpha, alpha)):
        return None
    return alpha


def f_lower_star(f):
    """Direct image of opens: U ↦ union of the opens whose preimage is inside U.

    That union is {y : f⁻¹(↑y) ⊆ U}: the up-set of y is the least open
    containing y, and preimages preserve unions.
    """
    tgt_index = {m: i for i, m in enumerate(open_masks(f.tgt))}
    pre = _preimage_masks(f.assign, f.tgt.up)
    assign = [
        tgt_index[sum(1 << y for y, p in enumerate(pre) if not (p & ~u))]
        for u in open_masks(f.src)
    ]
    return MonotoneMap(open_set_poset(f.src), open_set_poset(f.tgt), assign)


def is_top_coalgebra(f):
    """Whether the direct-image map on opens is full.

    On T0 spaces this picks out exactly the subspace embeddings.
    """
    return is_full(f_lower_star(f))


def is_embedding(f):
    """Subspace embedding of finite spaces: injective and order-reflecting."""
    return f.is_injective() and is_full(f)
