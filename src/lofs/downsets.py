"""The down-set completion of a preorder.

``downsets(X)`` is the complete lattice of down-closed subsets ordered by
inclusion, and the unit sends an element to its principal down-set.  The
open-set lattice of a finite space is ``downsets`` of the opposite
preorder.  The monad is the factorisation at the point: the lattice is
the carrier of X -> 1, built by ``_carrier``, the one construction of
every factorisation carrier, so every lattice of down-sets is ordered by
the same recursion over the covers of inclusion (``_inclusion_covers``).
On X -> 1, ``factorisation.mult`` takes unions, ``k_on_square`` on the
square (f, id) is the functor, and ``factorisation.algebra_structure``
exists exactly on the complete lattices.
"""

from __future__ import annotations

from functools import lru_cache

from .order import (
    FinPreorder,
    MonotoneMap,
    _bits,
    _bound,
    _guard,
    _union,
    chain,
    down_set_masks,
)

_POINT = chain(1)


class DownSetLattice:
    """All down-sets of a preorder, as a preorder ordered by inclusion.

    ``masks[i]`` is the subset represented by carrier element ``i``; the
    masks are listed in ascending numeric order, which is the canonical
    element order.  ``_index`` is the pair index of the carrier of
    X -> 1, whose element i is the pair (masks[i], 0).
    """

    __slots__ = ("carrier", "masks", "_index")

    def __init__(self, carrier, masks, index):
        self.carrier = carrier
        self.masks = masks
        self._index = index

    def index(self, mask):
        return self._index[mask, 0]


@lru_cache(maxsize=64)
def _inclusion_covers(masks):
    """The upper covers of each down-set in ``masks``, by index.

    ``masks`` are all the down-sets of one preorder, ascending, so the
    last is the whole source.  ↓x, the least down-set holding x, is the
    first mask that holds x: it lies inside every mask holding x, so it
    is numerically the smallest.  x and y are equivalent iff ↓x = ↓y.
    The upper covers of m are the sets m ∪ ↓x, one for each class that
    is minimal outside m: x ∉ m and everything strictly below x lies in
    m, so m ∪ ↓x adds exactly the class of x.  Every strictly larger
    down-set contains such a class, so there are no others.  That is
    O(|masks| · |source|) work, where a scan of the inclusion rows pair
    by pair would be O(|masks|²).  ``_carrier`` reads them, so they
    order every lattice of down-sets and every factorisation carrier.
    Many carriers share a source, so the covers are kept per down-set
    tuple, at most 64 of them, as tuples.
    """
    least = [0] * masks[-1].bit_length()  # least[x] = ↓x
    seen = 0
    for m in masks:
        for x in _bits(m & ~seen):
            least[x] = m
        seen |= m
    classes = {}
    for x, d in enumerate(least):
        classes[d] = classes.get(d, 0) | 1 << x
    # one (x's bit, strictly below x, ↓x) per class
    steps = [(c & -c, d & ~c, d) for d, c in classes.items()]
    index = {m: i for i, m in enumerate(masks)}
    return tuple(
        tuple(index[m | d] for bit, strict, d in steps if not (m & bit or strict & ~m))
        for m in masks
    )


@lru_cache(maxsize=256)
def _carrier(masks, B, pre, bound):
    """(K, pairs, index, right part) for the maps into B with table ``pre``.

    Everything here is a function of the source's down-set ``masks``,
    the upper-bound table ``pre`` and the relation of the codomain B,
    not of the map itself.  The right part is held as its assignment
    tuple, which ``factorise`` builds into a map on the caller's own B,
    so no cached value holds a caller's preorder or map, and the key
    holds no labels.  ``bound`` is the carrier bound, taken from the
    context by the caller, so a smaller bound is a different key and its
    guard still raises.  At the point, with ``pre`` the whole source, K
    is the inclusion order of the down-sets: ``downsets`` reads it there.

    K is laid out in blocks.  The pairs (masks[i], b) with
    masks[i] ⊆ pre[b] are listed in ascending order, so the elements of
    down-set i are contiguous: ``blocks[i]`` is their mask, and
    ``cols[b]`` is the mask of the elements whose second coordinate is
    b.  The blocks are disjoint, so ORing the blocks of a set of
    down-sets spreads that set exactly onto K, and ORing ``cols`` over
    B.up[b] gives the elements whose bound lies above b.  The up row of
    (i, b) is therefore ``above[i] & b_up[b]``, where ``above[i]`` is
    the OR of the blocks of every down-set containing masks[i]: that is
    the componentwise order, the relation the pointwise rows of
    (inclusion, B) give, so K is unchanged.  ``above`` is built by cover
    recursion: masks ascend, so index order extends inclusion, and
    walking i downwards, ``above[i]`` is blocks[i] ORed with ``above``
    of each upper cover of i (``_inclusion_covers``).  Only the up rows
    are built; K's down rows are their transpose, left to
    ``FinPreorder.down``.

    K is built trusted: it is the componentwise order of two preorders
    on pairs that lie in both, so it is a preorder.  The right part is
    its second projection, which is monotone into B.
    """
    blocks = []
    cols = [0] * B.n
    pairs = []
    vectors = []
    bit = 1
    for i, m in enumerate(masks):
        start = bit
        for b in range(B.n):
            if not (m & ~pre[b]):
                cols[b] |= bit
                bit <<= 1
                pairs.append((m, b))
                vectors.append((i, b))
        blocks.append(bit - start)
    _guard("factorisation carrier", len(pairs), bound)
    upper = _inclusion_covers(masks)
    above = blocks[:]
    for i in range(len(masks) - 1, -1, -1):
        for c in upper[i]:
            above[i] |= above[c]
    b_up = [_union(cols, row) for row in B.up]
    K = FinPreorder._checked(tuple(above[i] & b_up[b] for i, b in vectors))
    pairs = tuple(pairs)
    index = {p: i for i, p in enumerate(pairs)}
    return K, pairs, index, tuple(b for _, b in vectors)


def downsets(X):
    """The down-set lattice of X: the carrier of X -> 1.

    Built by ``_carrier`` at the point, with the whole source as its one
    upper bound: the lattice is K of X -> 1, and shares its memo entry.
    ``down_set_masks`` guards the number of down-sets first, and K has
    one element per down-set, so the carrier's own guard never fires.
    """
    masks = down_set_masks(X)
    K, _, index, _ = _carrier(masks, _POINT, masks[-1:], _bound.get())
    return DownSetLattice(K, masks, index)


def unit(X):
    """x ↦ its principal down-set; always monotone and full.

    The lattice is ``downsets(X)``, looked up in the ``_carrier`` memo
    once it has been built.  Built trusted: x <= y gives ↓x ⊆ ↓y.
    """
    dl = downsets(X)
    assign = tuple(dl.index(d) for d in X.down)
    return MonotoneMap._checked(X, dl.carrier, assign)


def check_lax_idempotent_P(X):
    """Pointwise inequality (down-set functor of the unit) <= (unit of the down-set lattice).

    True for every X; the check evaluates both maps on every down-set.
    Both sides land in the down-sets of ``downsets(X)``, where the order
    is inclusion of index masks, so the second completion is not built:
    the principal down-set of a carrier element is its ``down`` row, and
    the left side on m is the union of those rows over the principal
    down-sets of the members of m.
    """
    dl = downsets(X)
    below = dl.carrier.down
    principal = [below[dl.index(d)] for d in X.down]
    return not any(_union(principal, m) & ~below[i] for i, m in enumerate(dl.masks))
