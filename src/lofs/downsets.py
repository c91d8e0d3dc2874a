"""The down-set completion of a preorder and its monad structure.

``downsets(X)`` is the complete lattice of down-closed subsets ordered by
inclusion; the unit sends an element to its principal down-set and the
multiplication takes unions.  Algebras are exactly the complete lattices,
with structure map a canonical supremum choice.
"""

from __future__ import annotations

from .order import (
    DEFAULT_MAX_CARRIER,
    FinPreorder,
    MonotoneMap,
    _inclusion_rows,
    _union,
    down_set_masks,
    is_complete_lattice,
    sup_mask,
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


def apply_to_map(f, src_dl=None, tgt_dl=None):
    """Functor action on a monotone map: φ ↦ down-closure of f[φ]."""
    src_dl = src_dl or downsets(f.src)
    tgt_dl = tgt_dl or downsets(f.tgt)
    down = [f.tgt.down[v] for v in f.assign]
    assign = [tgt_dl.index(_union(down, m)) for m in src_dl.masks]
    return MonotoneMap(src_dl.carrier, tgt_dl.carrier, assign)


def mult(X, max_carrier=DEFAULT_MAX_CARRIER):
    """Union of a down-set of down-sets; the monad multiplication."""
    dl = downsets(X, max_carrier)
    dl2 = downsets(dl.carrier, max_carrier)
    assign = [dl.index(_union(dl.masks, m2)) for m2 in dl2.masks]
    return MonotoneMap(dl2.carrier, dl.carrier, assign)


def algebra_structure(X):
    """The structure map ``downsets(X) -> X``, or None.

    Exists exactly when X is a complete lattice (up to equivalence); the
    value on a down-set is the canonical least upper bound.
    """
    if not is_complete_lattice(X):
        return None
    dl = downsets(X)
    return MonotoneMap(dl.carrier, X, [sup_mask(X, m) for m in dl.masks])


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
