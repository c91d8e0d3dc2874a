"""The down-set completion of a preorder.

``downsets(X)`` is the complete lattice of down-closed subsets ordered by
inclusion, and the unit sends an element to its principal down-set.  The
open-set lattice of a finite space is ``downsets`` of the opposite
preorder.  The rest of the monad is the factorisation at the point: on
X -> 1, ``factorisation.mult`` takes unions, ``k_on_square`` on the
square (f, id) is the functor, and ``factorisation.algebra_structure``
exists exactly on the complete lattices.
"""

from __future__ import annotations

from functools import lru_cache

from .order import (
    DEFAULT_MAX_CARRIER,
    FinPreorder,
    MonotoneMap,
    _union,
    down_set_masks,
)


class DownSetLattice:
    """All down-sets of a preorder, as a preorder ordered by inclusion.

    ``masks[i]`` is the subset represented by carrier element ``i``; the
    masks are listed in ascending numeric order, which is the canonical
    element order.
    """

    __slots__ = ("carrier", "masks", "_index")

    def __init__(self, carrier, masks):
        self.carrier = carrier
        self.masks = masks
        self._index = {m: i for i, m in enumerate(masks)}

    def index(self, mask):
        return self._index[mask]


def _inclusion_rows(masks):
    """Up-rows of the inclusion order on ``masks``.

    Row i is the mask of {i2 : masks[i] ⊆ masks[i2]}: an AND, over the
    members x of masks[i], of the column mask {i2 : x in masks[i2]}.
    """
    has = {}  # member bit -> mask of the masks containing it
    bit = 1
    for m in masks:
        while m:
            low = m & -m
            has[low] = has.get(low, 0) | bit
            m ^= low
        bit <<= 1
    rows = []
    full = bit - 1
    for m in masks:
        r = full
        while m:
            low = m & -m
            r &= has[low]
            m ^= low
        rows.append(r)
    return rows


@lru_cache(maxsize=64)
def _inclusion_order(masks):
    """(up rows, down rows) of the inclusion order on the down-sets ``masks``.

    ``masks`` ascend, so the last is the whole source; m ⊆ m2 iff the
    complement of m2 lies in that of m, so the down rows are the
    inclusion rows of the complements.  Inclusion is a partial order, so
    the rows form one by construction.  Many lattices share a source, so
    the rows are kept per down-set tuple, at most 64 of them, as tuples.
    ``downsets`` reads them; ``factorisation.factorise`` reads the covers
    of the same order instead (``_inclusion_covers``).
    """
    top = masks[-1]
    return tuple(_inclusion_rows(masks)), tuple(_inclusion_rows([top ^ m for m in masks]))


@lru_cache(maxsize=64)
def _inclusion_covers(masks):
    """(upper covers, lower covers) of each down-set in ``masks``, by index.

    ``masks`` are all the down-sets of one preorder, ascending, so the
    last is the whole source.  ↓x, the least down-set holding x, is the
    AND of the masks that contain x; x and y are equivalent iff ↓x = ↓y.
    The upper covers of m are the sets m ∪ ↓x, one for each class that
    is minimal outside m: x ∉ m and everything strictly below x lies in
    m, so m ∪ ↓x adds exactly the class of x.  Every strictly larger
    down-set contains such a class, so there are no others.  The lower
    covers are the same relation read backwards.  That is O(|masks| ·
    |source|) work, where a scan of the inclusion rows pair by pair
    would be O(|masks|²).  Many carriers share a source, so the covers
    are kept per down-set tuple, at most 64 of them, as tuples.
    """
    top = masks[-1]
    least = [top] * top.bit_length()  # least[x] = ↓x
    for m in masks:
        r = m
        while r:
            low = r & -r
            least[low.bit_length() - 1] &= m
            r ^= low
    classes = {}
    for x, d in enumerate(least):
        classes[d] = classes.get(d, 0) | 1 << x
    # one (x's bit, strictly below x, ↓x) per class
    steps = [(c & -c, d & ~c, d) for d, c in classes.items()]
    index = {m: i for i, m in enumerate(masks)}
    upper = []
    lower = [[] for _ in masks]
    for i, m in enumerate(masks):
        ups = []
        for bit, strict, d in steps:
            if not (m & bit or strict & ~m):
                c = index[m | d]
                ups.append(c)
                lower[c].append(i)
        upper.append(tuple(ups))
    return tuple(upper), tuple(tuple(c) for c in lower)


def downsets(X, max_carrier=DEFAULT_MAX_CARRIER):
    """The down-set lattice of X, its order built trusted (``_inclusion_order``)."""
    masks = down_set_masks(X, max_carrier)
    return DownSetLattice(FinPreorder._checked(*_inclusion_order(masks)), masks)


def unit(X, dl=None):
    """x ↦ its principal down-set; always monotone and full."""
    dl = dl or downsets(X)
    return MonotoneMap(X, dl.carrier, [dl.index(X.down[x]) for x in range(X.n)])


def check_lax_idempotent_P(X, max_carrier=DEFAULT_MAX_CARRIER):
    """Pointwise inequality (down-set functor of the unit) <= (unit of the down-set lattice).

    True for every X; the check evaluates both maps on every down-set.
    Both sides land in the down-sets of ``downsets(X)``, where the order
    is inclusion of index masks, so the second completion is not built:
    the principal down-set of a carrier element is its ``down`` row, and
    the left side on m is the union of those rows over the principal
    down-sets of the members of m.
    """
    dl = downsets(X, max_carrier)
    below = dl.carrier.down
    principal = [below[dl.index(X.down[x])] for x in range(X.n)]
    return not any(_union(principal, m) & ~below[i] for i, m in enumerate(dl.masks))
