"""Left Kan extensions along generators and the Kan-injectivity classification.

An object A is Kan injective for j : X -> Y when every f : X -> A has a
least extension along j restricting back to f.  Equality of the
restriction is read up to pointwise equivalence, which is the only
sensible reading over preorders; on posets it is on-the-nose equality.
At finite scale the Kan injectives for order-embeddings are exactly the
complete lattices.
"""

from __future__ import annotations

from functools import lru_cache

from .order import (
    _bits,
    _hom_guard,
    _least_member,
    _least_vector,
    _monotone_within,
    _preimage_masks,
    arrow_classes,
    is_complete_lattice,
    monotone_assignments,
    representatives,
)


def _least_extension(j, assign, A):
    """The least monotone g with f <= g ∘ j, f = ``assign``, as a tuple, or None.

    For a monotone g, f <= g ∘ j says that g(y) lies in
    bounds[y] = ⋂ {↑f(x) : j(x) <= y}, the upper bounds of
    f[{x : j(x) <= y}].  When every bounds[y] has a least member, the
    pointwise choice g(y) = sup f[{x : j(x) <= y}] (the least member of
    bounds[y], lowest index in its class) is the answer, with no scan:

    - it is monotone, because y <= y' shrinks bounds[y'] inside
      bounds[y], so g(y) lies below every member of bounds[y'];
    - it lies within the bounds and below every candidate;
    - so the least candidates are exactly the product of the classes of
      its values, whose lexicographically first member is g itself, the
      tuple the scan below would pick.

    The hom-set guard on |A|^|cod j| is still called, under the same
    conditions as the scan's, so a bound that stops the scan also stops
    this path with the same message.  Over a complete A every bounds[y]
    has a least member, so the answer is the tuple of sups.  Only when
    some bounds[y] has no least member does the scan of ``_least_within``
    run.  The sets {x : j(x) <= y} come from the per-member memo
    ``_member``.
    """
    anything = (1 << A.n) - 1
    bounds = []
    for m in _member(j)[0]:
        b = anything
        for x in _bits(m):
            b &= A.up[assign[x]]
        bounds.append(b)
    least = [_least_member(b, A.up) for b in bounds]
    if None in least:
        return _least_within(j.tgt, A, bounds)
    _hom_guard(j.tgt, A)
    return tuple(least)


def _restricts(j, assign, ext, A):
    """Whether the extension ``ext`` restricts along j to ``assign``, up to ≡."""
    return all(A.equiv(ext[v], fx) for v, fx in zip(j.assign, assign))


def _least_within(Y, A, bounds):
    """The first monotone Y -> A within ``bounds`` below all others, or None.

    The fallback of ``_least_extension`` when some bound set has no
    least member, so that no pointwise sup exists there.  It enumerates
    only maps with g(y) in ``bounds[y]``: for a monotone g that is the
    same condition as f <= g ∘ j, so the candidate list and its
    lexicographic order are those of the full scan.  The least candidate
    is the first one inside ``lower``, the pointwise meet of the
    down-sets of all candidates, which is the first candidate below all
    of them.  The value is an assignment tuple (or None), which carries
    no labels, so the caller builds its extension on its own preorders.
    The scan's hom-set guard reads the carrier bound from the context.
    """
    cands = _monotone_within(Y, A, bounds)
    best = _least_vector(cands, A)
    return None if best is None else cands[best]


@lru_cache(maxsize=2048)
def _member(j):
    """The per-member value ``(below, pairs)`` that Kan injectivity reads.

    ``below[y]`` is the mask of {x : j(x) <= y}, and ``pairs`` lists the
    (x', x) with j(x') <= j(x) but x' ≰ x, the pairs that j fails to
    reflect; a full j has none.  Both depend only on the relations and
    on j's assignment, so labels are not part of the key.  At most 2,048
    members, more than the 1,589 classes of ``all_embeddings(4)``.
    """
    X = j.src
    below = tuple(_preimage_masks(j.assign, j.tgt.down))
    pairs = tuple(
        (a, x) for x, (y, d) in enumerate(zip(j.assign, X.down)) for a in _bits(below[y] & ~d)
    )
    return below, pairs


def kan_injective(A, generators):
    """Whether every map into A extends minimally along every generator.

    ``generators`` is a GeneratorFamily or any iterable of maps; only the
    members matter.  Equivalent to the comparison map of each generator
    against A -> point carrying a RALI witness.  Every map f is walked as
    an assignment tuple of the hom set, and no map is built.  Each
    member's sets {x : j(x) <= y} and pairs come from ``_member``.

    Completeness of A is decided once per call.  Over a complete A the
    least extension is the pointwise sup Lan_j f(y) = sup f[{x : j(x) <= y}],
    and it restricts back to f iff f(x) ≡ sup f[jb[x]] for each x, where
    jb[x] = {x' : j(x') <= j(x)}.  Since x lies in jb[x], that holds iff
    f(x) is an upper bound of f[jb[x]], so no sup is computed.  A
    monotone f already gives f(x') <= f(x) for x' <= x, so only the
    pairs (x', x) with x' in jb[x] and x' ≰ x are tested, one bit each.
    A full j has no such pairs, so every f passes and nothing is
    enumerated: only the hom-set guard on |A|^|X| is called, so the
    bound stops the same requests as before.  The test reads only the
    source X and the pairs, so each distinct (X, pairs) is checked once
    and later members with that key are skipped: the verdict is the
    conjunction over members, and skipped members would repeat a check
    that passed.

    Over any other A every f takes ``_least_extension``: the pointwise
    sups where every bound set has a least member, else the scan.  Its
    restriction is tested on the least tuple.  Either way the carrier
    bound limits every hom set into A, on the sup path as on the scan.
    """
    members = getattr(generators, "members", generators)
    complete = is_complete_lattice(A)
    passed = set()
    for j in members:
        X = j.src
        if not complete:
            for f in monotone_assignments(X, A):
                best = _least_extension(j, f, A)
                if best is None or not _restricts(j, f, best, A):
                    return False
            continue
        pairs = _member(j)[1]
        if (X, pairs) in passed:
            continue
        if not pairs:
            _hom_guard(X, A)
        else:
            for f in monotone_assignments(X, A):
                if not all(A.up[f[a]] >> f[x] & 1 for a, x in pairs):
                    return False
        passed.add((X, pairs))
    return True


def all_embeddings(max_size, posets_only=False):
    """All order-embeddings between preorders of size <= max_size.

    One representative per arrow-isomorphism class; Kan injectivity only
    depends on that class.  These are the full maps among the
    ``arrow_classes``, and their memo, so equal requests under equal
    bounds share one tuple.
    """
    return arrow_classes(max_size, posets_only, full=True)


def classify_injectives(max_size, generator_size=None, posets_only=False):
    """Pair every preorder of size <= max_size with its two predicates.

    Rows are (preorder, kan_injective, is_complete_lattice) over the
    family of all embeddings between preorders of size <= generator_size
    (default min(max(max_size, 1), 4)).  The two booleans agree on every
    row.  The default family reaches size 1 even at max_size 0: it then
    holds ∅ -> 1, which the empty preorder fails, as it fails to be
    complete, where the family of size 0, ∅ -> ∅ alone, would pass it.
    The carrier bound limits every hom set searched, for the family and
    for each row, and the size bound every size enumerated.
    """
    if generator_size is None:
        generator_size = min(max(max_size, 1), 4)
    family = all_embeddings(generator_size, posets_only)
    return [
        (A, kan_injective(A, family), is_complete_lattice(A))
        for A in representatives(max_size)
    ]
