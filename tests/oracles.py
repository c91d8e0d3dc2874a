"""Brute-force oracles and helpers that only the tests use.

``is_isomorphic`` searches bijections, pruned by the refinement colors
that canonical forms use, and ``inf_mask`` is the dual of
``order.sup_mask``.  The library decides neither question itself.
``subset_without_sup_scan`` is the scan of every subset by size that the
``--witness`` of ``check complete-lattice`` replaced, and ``under``
runs one call under a carrier bound.  ``reps``, ``arrow_classes`` and
``bang`` are the small inputs that several test modules sweep.
"""

from lofs.order import (
    MonotoneMap,
    _bits,
    _least_member,
    _refinement,
    arrow_canonical_key,
    carrier_bound,
    chain,
    enumerate_preorders,
    hom_maps,
    sup_mask,
)


def reps(max_size, posets_only=False):
    """One preorder per isomorphism class, of every size <= max_size."""
    return [
        p
        for n in range(max_size + 1)
        for p in enumerate_preorders(n, posets_only=posets_only)
    ]


def arrow_classes(max_size):
    """One map per arrow-isomorphism class between preorders of size <= max_size."""
    seen = {}
    for X in reps(max_size):
        for Y in reps(max_size):
            for f in hom_maps(X, Y):
                seen.setdefault(arrow_canonical_key(f), f)
    return [seen[k] for k in sorted(seen)]


def bang(X):
    """The map from X to the point."""
    return MonotoneMap(X, chain(1), [0] * X.n)


def under(bound, call, *args):
    """``call(*args)`` under the carrier bound ``bound``."""
    with carrier_bound(bound):
        return call(*args)


def is_isomorphic(X, Y):
    """Brute force over bijections, pruned by refinement colors."""
    if X.n != Y.n:
        return False
    n = X.n
    inv_x, inv_y = _refinement(X), _refinement(Y)
    if sorted(inv_x) != sorted(inv_y):
        return False
    cands = [[j for j in range(n) if inv_y[j] == inv_x[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cands[i]))
    assign = {}

    def rec(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in cands[i]:
            if j in assign.values():
                continue
            ok = True
            for i2, j2 in assign.items():
                if X.leq(i, i2) != Y.leq(j, j2) or X.leq(i2, i) != Y.leq(j2, j):
                    ok = False
                    break
            if ok:
                assign[i] = j
                if rec(pos + 1):
                    return True
                del assign[i]
        return False

    return rec(0)


def inf_mask(X, mask):
    """Dual of ``order.sup_mask``: a greatest lower bound up to equivalence."""
    lb = (1 << X.n) - 1
    for i in _bits(mask):
        lb &= X.down[i]
    return _least_member(lb, X.down)


def subset_without_sup_scan(P):
    """The first subset of P without a sup, by size then mask, or None."""
    for size in range(P.n + 1):
        for mask in range(1 << P.n):
            if mask.bit_count() == size and sup_mask(P, mask) is None:
                return mask
    return None
