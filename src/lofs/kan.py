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

from .errors import ShapeMismatch
from .order import (
    MonotoneMap,
    _bits,
    _bound,
    _hom_guard,
    _least_member,
    _least_vector,
    _monotone_within,
    _preimage_masks,
    _union,
    arrow_canonical_key,
    chain,
    enumerate_preorders,
    is_complete_lattice,
    monotone_assignments,
    sup_mask,
)


class ExtensionWitness:
    """The least monotone extension of f along j."""

    __slots__ = ("j", "f", "ext")

    def __init__(self, j, f, ext):
        self.j = j
        self.f = f
        self.ext = ext

    def __repr__(self):
        return f"ExtensionWitness(ext={list(self.ext.assign)})"


def lan_extension(j, f):
    """The least g with f <= g ∘ j, if it restricts back to f; else None.

    One search for every codomain, ``_least_extension``: the pointwise
    sups g(y) = sup f[{x : j(x) <= y}] where every bound set has a least
    member, which over a complete lattice is always, and the scan of the
    monotone maps where some has none.  Its guard rule is the one
    ``kan_injective`` follows: the hom-set guard on |A|^|cod j| is
    called on the sup path too, so a bound that stops the scan also
    stops the sups.
    """
    if j.src != f.src:
        raise ShapeMismatch("extension needs dom j = dom f")
    best = _least_extension(j, f.assign, f.tgt)
    if best is None:
        return None
    return _restricting(j, f, best)


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


def _restricting(j, f, assign):
    """The extension with ``assign`` as a witness, if it restricts back to f."""
    ext = MonotoneMap(j.tgt, f.tgt, assign)
    if not _restricts(j, f.assign, ext.assign, f.tgt):
        return None
    return ExtensionWitness(j, f, ext)


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
        (a, x) for x, y in enumerate(j.assign) for a in _bits(below[y] & ~X.down[x])
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

    Over any other A every f takes ``_least_extension``, the one search
    that ``lan_extension`` also makes: the pointwise sups where every
    bound set has a least member, else the scan.  Its restriction is
    tested on the least tuple.  Either way the carrier bound limits
    every hom set into A, on the sup path as on the scan.
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
    depends on that class.  Deterministic order.  Memoised in
    ``_embeddings`` per (max_size, posets_only, the carrier bound),
    however the call spells them, at most 16 families; a smaller bound
    is a different key, so the guard of each hom set still raises.
    """
    return _embeddings(max_size, posets_only, _bound.get())


@lru_cache(maxsize=16)
def _embeddings(max_size, posets_only, bound):
    """:func:`all_embeddings`, searching only the full assignments.

    Fullness (which decides being an order-embedding) prunes the search
    of ``_monotone_within`` itself, so only the full assignments, about
    one in twenty at max_size 4, are ever completed.  Each is a map by
    construction (monotone and full), so it is built trusted.  ``bound``
    is in the key only: the hom-set guards read it from the context.
    """
    reps = [
        p
        for n in range(max_size + 1)
        for p in enumerate_preorders(n, posets_only=posets_only)
    ]
    seen = {}
    for X in reps:
        for Y in reps:
            anything = ((1 << Y.n) - 1,) * X.n
            for assign in _monotone_within(X, Y, anything, full=True):
                f = MonotoneMap._checked(X, Y, assign)
                key = arrow_canonical_key(f)
                if key not in seen:
                    seen[key] = f
    return tuple(seen[k] for k in sorted(seen))


def classify_injectives(max_size, generator_size=None, posets_only=False):
    """Pair every preorder of size <= max_size with its two predicates.

    Rows are (preorder, kan_injective, is_complete_lattice) over the
    family of all embeddings between preorders of size <= generator_size
    (default min(max_size, 4)).  The two booleans agree on every row.
    The carrier bound limits every hom set searched, for the family and
    for each row.
    """
    if generator_size is None:
        generator_size = min(max_size, 4)
    family = all_embeddings(generator_size, posets_only)
    rows = []
    for n in range(max_size + 1):
        for A in enumerate_preorders(n):
            rows.append((A, kan_injective(A, family), is_complete_lattice(A)))
    return rows


def chain_stage_report():
    """Finite stages m <= 6 of the ascending-chain example.

    Each stage m is the (m+1)-element chain, a complete lattice; every
    inclusion of a shorter stage into a longer one preserves all
    suprema.  Returns (all_ok, detail) where detail states explicitly
    that the limit-stage failure is not finitely representable.
    """
    ok = True
    for m2 in range(1, 7):
        big = chain(m2 + 1)
        if not is_complete_lattice(big):
            ok = False
        for m1 in range(m2):
            small = chain(m1 + 1)
            inc = MonotoneMap(small, big, range(m1 + 1))
            images = [1 << v for v in inc.assign]
            for mask in range(1 << small.n):
                s = sup_mask(small, mask)
                t = sup_mask(big, _union(images, mask))
                if s is None or t is None or inc.assign[s] != t:
                    ok = False
    detail = (
        "stages m<m'<= 6: chains are complete lattices and the "
        "inclusions preserve all suprema; the failure at the limit stage "
        "(the union of all finite stages, which has no top) is not finitely "
        "representable and is out of scope here"
    )
    return ok, detail
