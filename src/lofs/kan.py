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
    DEFAULT_MAX_CARRIER,
    MonotoneMap,
    _bits,
    _least_vector,
    _monotone_within,
    _preimage_masks,
    _sup_table,
    _union,
    _unreflected_pair,
    arrow_canonical_key,
    chain,
    enumerate_preorders,
    hom_maps,
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


def lan_extension(j, f, max_carrier=DEFAULT_MAX_CARRIER):
    """The least g with f <= g ∘ j, if it restricts back to f; else None.

    When the codomain is a complete lattice the minimum is computed
    directly as g(y) = sup {f(x) : j(x) <= y}, which is below every
    candidate by the upper-bound argument; otherwise the monotone maps
    are scanned by :func:`_scanned_extension`.
    """
    if j.src != f.src:
        raise ShapeMismatch("extension needs dom j = dom f")
    A = f.tgt
    if not is_complete_lattice(A):
        return _scanned_extension(j, f, max_carrier)
    sups = _sup_table(A)
    fbits = [1 << v for v in f.assign]
    below = _preimage_masks(j.assign, j.tgt.down)
    return _restricting(j, f, [sups[_union(fbits, m)] for m in below])


def _scanned_extension(j, f, max_carrier=DEFAULT_MAX_CARRIER):
    """:func:`lan_extension` by a scan of the monotone maps, for any codomain.

    The scan only enumerates maps with g(y) an upper bound of
    f[{x : j(x) <= y}]: for a monotone g that is the same condition as
    f <= g ∘ j, so the candidate list and its lexicographic order are
    those of the full scan.  The least candidate is the first one inside
    ``lower``, the pointwise meet of the down-sets of all candidates,
    which is the first candidate below all of them.

    The scan is memoised in ``_least_within``, keyed by (cod j, A, the
    bounds, ``max_carrier``) and bounded at 1,024 scans: maps f with the
    same bounds share one scan, so ``kan_injective`` over a non-complete
    A scans each distinct key once.  The cached value is the least
    assignment tuple (or None), which carries no labels, so the
    extension is still built per call on the caller's own preorders and
    the restriction test still runs per call: results are unchanged.  A
    smaller ``max_carrier`` is a different key, so its guard still raises.
    """
    A = f.tgt
    bounds = [(1 << A.n) - 1] * j.tgt.n
    for x in range(j.src.n):
        for y in _bits(j.tgt.up[j.assign[x]]):
            bounds[y] &= A.up[f.assign[x]]
    best = _least_within(j.tgt, A, tuple(bounds), max_carrier)
    if best is None:
        return None
    return _restricting(j, f, best)


def _restricting(j, f, assign):
    """The extension with ``assign`` as a witness, if it restricts back to f."""
    A = f.tgt
    ext = MonotoneMap(j.tgt, A, assign)
    if not all(A.equiv(ext.assign[v], fx) for v, fx in zip(j.assign, f.assign)):
        return None
    return ExtensionWitness(j, f, ext)


@lru_cache(maxsize=1024)
def _least_within(Y, A, bounds, max_carrier):
    """The first monotone Y -> A within ``bounds`` below all others, or None."""
    cands = _monotone_within(Y, A, bounds, max_carrier)
    best = _least_vector(cands, A)
    return None if best is None else cands[best]


def kan_injective(A, generators, max_carrier=DEFAULT_MAX_CARRIER):
    """Whether every map into A extends minimally along every generator.

    ``generators`` is a GeneratorFamily or any iterable of maps; only the
    members matter.  Equivalent to the comparison map of each generator
    against A -> point carrying a RALI witness.

    Completeness of A is decided once per call.  Over a complete A a
    member's check reads only its source X and the masks
    jb[x] = {x' : j(x') <= j(x)}, so each distinct (X, jb) is checked
    once and later members with that key are skipped: the verdict is the
    conjunction over members, and skipped members would repeat a check
    that passed.  Over any other A every extension takes the scan of
    ``_scanned_extension``, which is what ``lan_extension`` would pick.
    Either way ``max_carrier`` bounds every hom set into A.
    """
    members = getattr(generators, "members", generators)
    complete = is_complete_lattice(A)
    sups = _sup_table(A) if complete else None
    passed = set()
    for j in members:
        if not complete:
            for f in hom_maps(j.src, A, max_carrier):
                if _scanned_extension(j, f, max_carrier) is None:
                    return False
            continue
        # complete codomain: the sup formula is monotone, minimal and an
        # extension candidate by construction, so only the restriction
        # condition needs evaluating per map
        X = j.src
        below = _preimage_masks(j.assign, j.tgt.down)
        jb = tuple(below[y] for y in j.assign)
        if (X, jb) in passed:
            continue
        for f in monotone_assignments(X, A, max_carrier):
            for x in range(X.n):
                mask = 0
                m = jb[x]
                while m:
                    low = m & -m
                    mask |= 1 << f[low.bit_length() - 1]
                    m ^= low
                if not A.equiv(sups[mask], f[x]):
                    return False
        passed.add((X, jb))
    return True


@lru_cache(maxsize=16)
def all_embeddings(max_size, posets_only=False):
    """All order-embeddings between preorders of size <= max_size.

    One representative per arrow-isomorphism class; Kan injectivity only
    depends on that class.  Deterministic order.  Cached per
    (max_size, posets_only), at most 16 families.

    Fullness (which decides being an order-embedding) is tested on each
    monotone assignment tuple, so only the full ones, about one in
    twenty at max_size 4, become validated maps.
    """
    reps = [
        p
        for n in range(max_size + 1)
        for p in enumerate_preorders(n, posets_only=posets_only)
    ]
    seen = {}
    for X in reps:
        for Y in reps:
            for assign in monotone_assignments(X, Y):
                if _unreflected_pair(assign, X.up, Y.up) is not None:
                    continue
                f = MonotoneMap(X, Y, assign)
                key = arrow_canonical_key(f)
                if key not in seen:
                    seen[key] = f
    return tuple(seen[k] for k in sorted(seen))


def classify_injectives(max_size, generator_size=None, posets_only=False):
    """Pair every preorder of size <= max_size with its two predicates.

    Rows are (preorder, kan_injective, is_complete_lattice) over the
    family of all embeddings between preorders of size <= generator_size
    (default min(max_size, 4)).  The two booleans agree on every row.
    """
    if generator_size is None:
        generator_size = min(max_size, 4)
    family = all_embeddings(generator_size, posets_only=posets_only)
    rows = []
    for n in range(max_size + 1):
        for A in enumerate_preorders(n):
            rows.append((A, kan_injective(A, family), is_complete_lattice(A)))
    return rows


def chain_stage_report(max_stage=6):
    """Finite stages of the ascending-chain example.

    Each stage m <= max_stage is the (m+1)-element chain, a complete
    lattice; every inclusion of a shorter stage into a longer one
    preserves all suprema.  Returns (all_ok, detail) where detail states
    explicitly that the limit-stage failure is not finitely representable.
    """
    ok = True
    for m2 in range(1, max_stage + 1):
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
        f"stages m<m'<= {max_stage}: chains are complete lattices and the "
        "inclusions preserve all suprema; the failure at the limit stage "
        "(the union of all finite stages, which has no top) is not finitely "
        "representable and is out of scope here"
    )
    return ok, detail
