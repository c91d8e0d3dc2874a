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

from .order import (
    DEFAULT_MAX_CARRIER,
    FinPreorder,
    MonotoneMap,
    _inclusion_rows,
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


def downsets(X, max_carrier=DEFAULT_MAX_CARRIER):
    masks = down_set_masks(X, max_carrier)
    return DownSetLattice(FinPreorder(len(masks), _inclusion_rows(masks)), masks)


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
