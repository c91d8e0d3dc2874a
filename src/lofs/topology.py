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


def _directed_subsets(P):
    if P.n > 16:
        raise SizeLimitExceeded("too many subsets to quantify over")
    for mask in range(1, 1 << P.n):
        elems = list(_bits(mask))
        directed = True
        for a in elems:
            for b in elems:
                if not any((P.up[a] >> d) & (P.up[b] >> d) & (mask >> d) & 1 for d in elems):
                    directed = False
                    break
            if not directed:
                break
        if directed:
            yield mask


def scott_opens(L):
    """Subsets that are up-closed and inaccessible by directed suprema.

    Quantifies over every directed subset; on finite posets the result
    is exactly the up-sets.
    """
    P = _points(L)
    if not P.is_poset:
        raise NotAPoset("Scott opens are defined over posets")
    directed = list(_directed_subsets(P))
    sups = {}
    for d in directed:
        s = sup_mask(P, d)
        if s is None:
            raise SizeLimitExceeded  # pragma: no cover - finite directed sets have maxima
        sups[d] = s
    out = []
    for u in range(1 << P.n):
        ok = all(not ((u >> i) & 1) or not (P.up[i] & ~u) for i in _bits(u))
        if not ok:
            continue
        for d, s in sups.items():
            if (u >> s) & 1 and not (d & u):
                ok = False
                break
        if ok:
            out.append(u)
    return tuple(out)


def way_below(L):
    """The way-below relation as bitmask rows: bit y of row x means x << y.

    Quantifies over all directed subsets.  Every nonempty finite directed
    set has a maximum, which is its supremum, so on finite posets the
    relation coincides with the order.
    """
    P = _points(L)
    if not P.is_poset:
        raise NotAPoset("way-below is defined over posets")
    from .errors import MissingDirectedSup

    directed = []
    for d in _directed_subsets(P):
        s = sup_mask(P, d)
        if s is None:
            raise MissingDirectedSup(f"directed subset {bin(d)} has no supremum")
        directed.append((d, s))
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
    assign = []
    for s in src_fs.sets:
        members = 0
        for vi, ui in enumerate(pre):
            if (s >> ui) & 1:
                members |= 1 << vi
        assign.append(tgt_fs.index_of_set(members))
    return MonotoneMap(src_fs.filters, tgt_fs.filters, assign)


def filter_mult(X, fs=None, ffs=None):
    """Kleisli-style multiplication: 𝔉 ↦ {U : {F : U in F} in 𝔉}."""
    fs = fs or filter_space(X)
    ffs = ffs or filter_space(FiniteSpace(fs.filters))
    ff_open_index = {u: i for i, u in enumerate(ffs.opens)}
    sharp = []
    for u in range(len(fs.opens)):
        mask = 0
        for i, s in enumerate(fs.sets):
            if (s >> u) & 1:
                mask |= 1 << i
        sharp.append(ff_open_index[mask])
    assign = []
    for big in ffs.sets:
        members = 0
        for u, open_idx in enumerate(sharp):
            if (big >> open_idx) & 1:
                members |= 1 << u
        assign.append(fs.index_of_set(members))
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
    """Direct image of opens: U ↦ union of the opens whose preimage is inside U."""
    src_masks = open_masks(f.src)
    tgt_masks = open_masks(f.tgt)
    src_poset = open_set_poset(f.src)
    tgt_poset = open_set_poset(f.tgt)
    tgt_index = {m: i for i, m in enumerate(tgt_masks)}
    pres = list(zip(tgt_masks, _preimage_masks(f.assign, tgt_masks)))
    assign = []
    for u in src_masks:
        out = 0
        for v, pre in pres:
            if not (pre & ~u):
                out |= v
        assign.append(tgt_index[out])
    return MonotoneMap(src_poset, tgt_poset, assign)


def is_top_coalgebra(f):
    """Whether the direct-image map on opens is full.

    On T0 spaces this picks out exactly the subspace embeddings.
    """
    return is_full(f_lower_star(f))


def is_embedding(f):
    """Subspace embedding of finite spaces: injective and order-reflecting."""
    return f.is_injective() and is_full(f)
