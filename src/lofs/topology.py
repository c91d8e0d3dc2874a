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

The open-set lattice is ``downsets`` of the opposite preorder, and the
filter monad is the down-set monad read through it: the unit is the
principal down-set, the functor the up-closure of images and the
multiplication the union.
"""

from __future__ import annotations

from .adjunction import find_right_adjoint
from .downsets import downsets
from .errors import NotAPoset
from .order import (
    FinPreorder,
    MonotoneMap,
    _bits,
    _guard,
    _preimage_masks,
    _union,
    compose,
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

    def __eq__(self, other):
        return isinstance(other, FiniteSpace) and self.points == other.points

    def __hash__(self):
        return hash(("space", self.points))

    def __repr__(self):
        return f"FiniteSpace({self.points!r})"


class FilterSpace:
    """The space of filters of the open-set lattice, ordered by inclusion.

    Every filter here is principal: filter ``i`` is generated by its least
    member ``opens[i]``, and ``sets[i]``, its member mask over ``opens``,
    is the up-row of ``i`` in the open-set lattice.  The specialization
    order of the filter topology, whose sub-basic opens are {F : U in F},
    is inclusion of filters, which reverses inclusion of their
    generators: ``filters`` is the opposite of the open-set lattice.
    """

    __slots__ = ("opens", "filters", "sets", "_lattice")

    def __init__(self, lattice):
        self._lattice = lattice
        self.opens = lattice.masks
        self.sets = lattice.carrier.up
        self.filters = FinPreorder._checked(lattice.carrier.down, lattice.carrier.up)


def _points(X):
    return X.points if isinstance(X, FiniteSpace) else X


def _open_lattice(X):
    """The opens of X by inclusion: the down-sets of the opposite preorder.

    The carrier bound limits the number of opens while they are built.
    """
    P = _points(X)
    return downsets(FinPreorder._checked(P.down, P.up))


def open_masks(X):
    """All open sets (up-closed subsets) as masks, ascending."""
    return _open_lattice(X).masks


def _directed_sups(P):
    """(d, sup d) for every nonempty directed subset d of the poset P.

    Every nonempty finite directed set has a maximum, which is its
    supremum, so the sup always exists.
    """
    _guard(f"subsets of a {P.n}-element poset", 1 << P.n, 1 << 16)
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


def filter_space(X):
    """The space of filters of the open-set lattice of X.

    Filters are listed by their generating open, in open order; the order
    on filters is inclusion of member sets.  There is one filter per
    open, so the carrier bound limits the opens while they are built.

    Every ``filter_*`` function below takes the filter spaces it needs
    from its own input through this function, which reads the open-set
    lattice from the memos of ``down_set_masks`` and
    ``downsets._carrier``: a space already built is looked up, not
    built again.
    """
    return FilterSpace(_open_lattice(X))


def filter_unit(X):
    """x ↦ its neighbourhood filter, generated by ↑x; an order embedding."""
    P = _points(X)
    fs = filter_space(X)
    return MonotoneMap(P, fs.filters, [fs._lattice.index(P.up[x]) for x in range(P.n)])


def filter_map(f):
    """Functor action: F ↦ {V : f⁻¹(V) in F}, from the filters of dom f.

    For F generated by U, f⁻¹(V) contains U exactly when V contains the
    up-closure of f[U], which therefore generates the image.
    """
    src_fs, tgt_fs = filter_space(f.src), filter_space(f.tgt)
    up = [f.tgt.up[v] for v in f.assign]
    assign = [tgt_fs._lattice.index(_union(up, u)) for u in src_fs.opens]
    return MonotoneMap(src_fs.filters, tgt_fs.filters, assign)


def filter_mult(X):
    """Kleisli-style multiplication FFX -> FX: 𝔉 ↦ {U : {F : U in F} in 𝔉}.

    𝔉 is generated by an open W of the filter space, a set of generating
    opens; {F : U in F} contains W exactly when U contains the union of W.
    """
    fs = filter_space(X)
    ffs = filter_space(fs.filters)
    assign = [fs._lattice.index(_union(fs.opens, w)) for w in ffs.opens]
    return MonotoneMap(ffs.filters, fs.filters, assign)


def filter_algebra(X):
    """The algebra map FX -> X, or None.

    An algebra is a right adjoint of the unit sending each principal
    filter to the infimum of its generating open, so the adjoint search
    decides existence; unit and multiplication laws are then verified
    elementwise.  Exists exactly for the (finitely: complete) continuous
    lattices.
    """
    P = _points(X)
    eta = filter_unit(X)
    alpha = find_right_adjoint(eta)
    if alpha is None:
        return None
    if not maps_equivalent(compose(eta, alpha), identity(P)):
        return None
    m = filter_mult(X)
    falpha = filter_map(alpha)
    if not maps_equivalent(compose(m, alpha), compose(falpha, alpha)):
        return None
    return alpha


def f_lower_star(f):
    """Direct image of opens: U ↦ union of the opens whose preimage is inside U.

    That union is {y : f⁻¹(↑y) ⊆ U}: the up-set of y is the least open
    containing y, and preimages preserve unions.  The map is built
    trusted, because it is monotone by construction: U ⊆ U′ gives
    {y : f⁻¹(↑y) ⊆ U} ⊆ {y : f⁻¹(↑y) ⊆ U′}.
    """
    src, tgt = _open_lattice(f.src), _open_lattice(f.tgt)
    pre = _preimage_masks(f.assign, f.tgt.up)
    assign = [
        tgt.index(sum(1 << y for y, p in enumerate(pre) if not (p & ~u)))
        for u in src.masks
    ]
    return MonotoneMap._checked(src.carrier, tgt.carrier, tuple(assign))


def is_top_coalgebra(f):
    """Whether the direct-image map on opens is full.

    On T0 spaces this picks out exactly the subspace embeddings.
    """
    return is_full(f_lower_star(f))


def is_embedding(f):
    """Subspace embedding of finite spaces: injective and order-reflecting."""
    return len(set(f.assign)) == f.src.n and is_full(f)
