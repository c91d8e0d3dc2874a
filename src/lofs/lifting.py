"""Lifting structures for generator families and KZ-lifting operations.

A lifting structure on g chooses, for every generator j and every
commuting square from j to g, a diagonal filler; the choices must be
monotone in the square and natural across the family's links.  Since the
hom objects here are preorders, generator families carry no composition
data: links are plain squares between members.

Fillers are the fibres of the comparison c : hom(cod j, dom g) -> Sq(j, g),
d ↦ (d ∘ j, g ∘ d): exactly over a square, up to pointwise equivalence
over its class.  A KZ-lifting operation is a RALI section of c.
``canonical_map`` and ``lifting_structure`` read c from ``_comparison``,
the one place that enumerates the hom set and the squares of a pair.
"""

from __future__ import annotations

from .adjunction import find_rali
from .errors import ShapeMismatch
from .order import (
    FinPreorder,
    MonotoneMap,
    Square,
    _bits,
    _bound,
    _hom_rows,
    _least_vector,
    _pointwise_leq,
    _pointwise_preorder,
    _preimage_masks,
    _square_pairs,
    monotone_assignments,
)


class GeneratorFamily:
    """A finite family of maps with optional commuting links between them.

    A link (src, tgt, u, v) is a square from member ``src`` to member
    ``tgt``: members[tgt] ∘ u = v ∘ members[src].
    """

    __slots__ = ("members", "links")

    def __init__(self, members, links=()):
        members = tuple(members)
        links = tuple(links)
        for src, tgt, u, v in links:
            if not (0 <= src < len(members) and 0 <= tgt < len(members)):
                raise ShapeMismatch("link references a missing member")
            Square(members[src], members[tgt], u, v)  # validates commutation
        self.members = members
        self.links = links

    def __add__(self, other):
        shift = len(self.members)
        shifted = tuple(
            (src + shift, tgt + shift, u, v) for src, tgt, u, v in other.links
        )
        return GeneratorFamily(self.members + other.members, self.links + shifted)


class LiftingStructure:
    """A coherent choice of fillers for one map against a family.

    ``fillers[(i, h, k)]`` is the chosen diagonal for the square
    (h, k) : members[i] -> g, keyed by assignment vectors.  ``canonical``
    records whether every square had a least filler; when False some
    choices were lexicographic-first among incomparable fillers.
    """

    __slots__ = ("g", "family", "fillers", "canonical")

    def __init__(self, g, family, fillers, canonical):
        self.g = g
        self.family = family
        self.fillers = fillers
        self.canonical = canonical


def _comparison(j, g):
    """(hom assignments, square pairs, c): the comparison map on assignment tuples.

    The hom set cod j -> dom g is enumerated first and the squares
    second, as the (h, k) pairs of ``order._square_pairs``, so every
    caller trips the same guard first and no ``Square`` is built.  c[d]
    is the index in the pairs of the boundary square (d ∘ j, g ∘ d); the
    pairs list every square j -> g, so every boundary has an index.
    """
    assigns = monotone_assignments(j.tgt, g.src)
    pairs = _square_pairs(j, g, _bound.get())
    index = dict(zip(pairs, range(len(pairs))))
    ja, ga = j.assign, g.assign
    c = tuple([index[tuple([d[v] for v in ja]), tuple([ga[v] for v in d])] for d in assigns])
    return assigns, pairs, c


def _square_preorder(j, g, pairs):
    """The squares j -> g, given as (h, k) ``pairs``, ordered by h and k pointwise."""
    vectors = [h + k for h, k in pairs]
    return _pointwise_preorder(vectors, (g.src,) * j.src.n + (g.tgt,) * j.tgt.n)


def canonical_map(j, g):
    """The comparison d ↦ (d ∘ j, g ∘ d) into the square preorder.

    Its source is the hom preorder cod j -> dom g and its target the
    square preorder, elements in the order of ``_comparison``, whose map
    c it is.  The hom preorder's rows come from ``order._hom_rows``,
    memoised by (cod j, dom g, the carrier bound) beside the hom set, so
    each pair of objects is ordered once while it stays cached.

    All three are built trusted.  Both preorders are pointwise orders on
    validated coordinates (``_pointwise_preorder``), and the map is
    monotone: d <= d2 gives d ∘ j <= d2 ∘ j and g ∘ d <= g ∘ d2.
    """
    assigns, pairs, c = _comparison(j, g)
    hom = FinPreorder._checked(_hom_rows(j.tgt, g.src, _bound.get()))
    return MonotoneMap._checked(hom, _square_preorder(j, g, pairs), c)


def lifting_structure(family, g):
    """A coherent lifting structure on g, or None.

    From the fibre of the comparison map over each square, the least
    filler is chosen when one exists, else the lexicographic-first
    (recorded by the ``canonical`` flag), and only that one is built as
    a map, trusted: it comes from the enumerated hom set.  The selection
    is then validated against the monotonicity and link-naturality
    invariants; KZ situations never hit the flag and always validate.
    Each member's ``_comparison`` is read once; its square pairs are
    shared with that check, which builds a member's square preorder only
    when it reaches the member.
    """
    fillers = {}
    canonical = True
    member_pairs = []
    for idx, j in enumerate(family.members):
        assigns, pairs, c = _comparison(j, g)
        member_pairs.append(pairs)
        fibres = _preimage_masks(c, [1 << i for i in range(len(pairs))])
        for (h, k), fibre in zip(pairs, fibres):
            if not fibre:
                return None
            cands = [assigns[d] for d in _bits(fibre)]
            best = _least_vector(cands, g.src)
            if best is None:
                canonical = False
                best = 0
            fillers[(idx, h, k)] = MonotoneMap._checked(j.tgt, g.src, cands[best])
    out = LiftingStructure(g, family, fillers, canonical)
    if not _coherent(out, member_pairs):
        return None
    return out


def _coherent(structure, member_pairs):
    """Monotone in the square, member by member, and natural across links.

    ``member_pairs[i]`` holds the squares members[i] -> g as the (h, k)
    pairs of ``order._square_pairs``.  The pairs of squares to compare
    are the related pairs of their preorder, built when the check
    reaches member i.  A link (u, v) into member t sends the square
    (h, k) of t to (h ∘ u, k ∘ v), and naturality asks the filler there
    to be d ∘ v, for d the filler of (h, k); both sides are composed on
    assignment tuples.
    """
    g, family, fillers = structure.g, structure.family, structure.fillers
    for idx, pairs in enumerate(member_pairs):
        fill = [fillers[(idx, h, k)].assign for h, k in pairs]
        order = _square_preorder(family.members[idx], g, pairs)
        for a, row in enumerate(order.up):
            for b in _bits(row):
                if not _pointwise_leq(g.src, fill[a], fill[b]):
                    return False
    for src, tgt, u, v in family.links:
        for h, k in member_pairs[tgt]:
            hu = tuple(h[x] for x in u.assign)
            kv = tuple(k[x] for x in v.assign)
            d = fillers[(tgt, h, k)].assign
            if fillers[(src, hu, kv)].assign != tuple(d[x] for x in v.assign):
                return False
    return True


def kz_orthogonal(j, g):
    """The RALI witness on the comparison map, or None.

    When it exists, the section picks the least filler of each square;
    any two witnesses agree up to pointwise equivalence.  The section
    equation is read up to equivalence of the square preorder, which is
    on-the-nose whenever that preorder is a poset.
    """
    return find_rali(canonical_map(j, g))


def coproduct_family_check(fam1, fam2, g):
    """Structures for a coproduct family are pairs of structures.

    True iff a structure for fam1 + fam2 exists exactly when structures
    for both parts exist, and in that case the combined fillers restrict
    to the two component structures.
    """
    both = lifting_structure(fam1 + fam2, g)
    s1 = lifting_structure(fam1, g)
    s2 = lifting_structure(fam2, g)
    if (both is not None) != (s1 is not None and s2 is not None):
        return False
    if both is None:
        return True
    shift = len(fam1.members)
    for (idx, h, k), d in both.fillers.items():
        if idx < shift:
            if s1.fillers[(idx, h, k)].assign != d.assign:
                return False
        elif s2.fillers[(idx - shift, h, k)].assign != d.assign:
            return False
    return True
