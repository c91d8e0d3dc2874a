"""Brute-force oracles and helpers that only the tests use.

``is_isomorphic`` searches bijections, pruned by the refinement colors
that canonical forms use, and ``inf_mask`` is the dual of
``order.sup_mask``.  The library decides neither question itself.
``subset_without_sup_scan`` is the scan of every subset by size that the
``--witness`` of ``check complete-lattice`` replaced,
``unreflected_pair_scan`` is the fullness scan over every image that the
fibre scan of ``order._unreflected_pair`` replaced,
``monotone_within_dfs`` is the recursive search that the level-by-level
enumeration of ``order._monotone_within`` replaced, and
``arrow_canonical_key_pairs`` is the loop over every pair of a source and
a target relabeling that the column minimum of
``order.arrow_canonical_key`` replaced.  ``under`` runs one call under a
carrier bound.  ``reps``, ``arrow_classes`` and ``bang`` are the small
inputs that several test modules sweep; ``arrow_classes`` is also the
loop the battery ran before ``order.arrow_classes``, its oracle, and it
keys the classes by ``arrow_canonical_key_pairs``, so it does not call
the key under test.
"""

from lofs.order import (
    MonotoneMap,
    _bits,
    _canonical,
    _hom_guard,
    _least_member,
    _refinement,
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
                seen.setdefault(arrow_canonical_key_pairs(f), f)
    return [seen[k] for k in sorted(seen)]


def arrow_canonical_key_pairs(f):
    """``order.arrow_canonical_key`` by one relabeled tuple per pair of relabelings.

    The relabelings are ``_canonical``'s sequences (new index -> old
    element), each inverted here to old element -> new index; its
    columns are not read.
    """
    kx, seqs_x, _ = _canonical(f.src)
    ky, seqs_y, _ = _canonical(f.tgt)
    perms_x, perms_y = [inverse(s) for s in seqs_x], [inverse(s) for s in seqs_y]
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


def inverse(seq):
    """The permutation ``seq`` inverted: out[seq[i]] = i."""
    out = [0] * len(seq)
    for i, x in enumerate(seq):
        out[x] = i
    return out


def monotone_within_dfs(X, Y, allowed, full=False):
    """``order._monotone_within`` by a depth-first search over the indices.

    Index i takes each value left in ``allowed[i]`` once every earlier j
    has cut it down to the values monotone (and, with ``full``, full) on
    the pair (j, i), in ascending order, so the output is lexicographic.
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


def unreflected_pair_scan(assign, src_up, tgt_up):
    """The first (a, b) with assign[a] <= assign[b] but not a <= b, or None.

    For each a, the mask {b : assign[a] <= assign[b]} is built by one pass
    over every image, |src|² steps in all.
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
