"""Adjoint computation, RALI/LARI detection, comma objects and collages.

Adjoints of monotone maps are found by the pointwise-minimum formula,
which is its own certificate: the search either returns a witness whose
inequalities hold by construction or proves absence by exhibiting an
element with no minimum.
"""

from __future__ import annotations

from .errors import InvariantViolation, ShapeMismatch
from .order import (
    FinPreorder,
    MonotoneMap,
    _bound,
    _guard,
    _least_member,
    _pointwise_preorder,
    _preimage_masks,
)


class RaliWitness:
    """A left adjoint section: f ∘ left_adjoint = id and left_adjoint ∘ f <= id.

    Validation reads the section equation up to pointwise equivalence so
    the comparison maps of KZ-lifting operations over genuine preorders
    fit; ``exact`` reports whether it holds on the nose, which it always
    does when the codomain is a poset.
    """

    __slots__ = ("f", "left_adjoint", "exact")

    def __init__(self, f, left_adjoint):
        A, B = f.src, f.tgt
        # the errors, in order, of the composites and 2-cells that define the check
        if left_adjoint.tgt != A:
            raise ShapeMismatch("compose: f.tgt differs from g.src")
        if left_adjoint.src != B:
            raise ShapeMismatch("two_cell: maps are not parallel")
        section = tuple(f.assign[a] for a in left_adjoint.assign)
        if not all(B.up[s] >> b & B.up[b] >> s & 1 for b, s in enumerate(section)):
            raise InvariantViolation("left adjoint is not a section of f")
        if not all(A.up[left_adjoint.assign[b]] >> a & 1 for a, b in enumerate(f.assign)):
            raise InvariantViolation("counit inequality fails")
        self.f = f
        self.left_adjoint = left_adjoint
        self.exact = section == tuple(range(B.n))

    def __repr__(self):
        return f"RaliWitness(section={list(self.left_adjoint.assign)})"


class LariWitness:
    """A right adjoint retraction: right_adjoint ∘ f = id and f ∘ right_adjoint <= id."""

    __slots__ = ("f", "right_adjoint", "exact")

    def __init__(self, f, right_adjoint):
        A, B = f.src, f.tgt
        # the errors, in order, of the composites and 2-cells that define the check
        if right_adjoint.src != B:
            raise ShapeMismatch("compose: f.tgt differs from g.src")
        if right_adjoint.tgt != A:
            raise ShapeMismatch("two_cell: maps are not parallel")
        retraction = tuple(right_adjoint.assign[b] for b in f.assign)
        if not all(A.up[r] >> a & A.up[a] >> r & 1 for a, r in enumerate(retraction)):
            raise InvariantViolation("right adjoint is not a retraction of f")
        if not all(B.up[f.assign[a]] >> b & 1 for b, a in enumerate(right_adjoint.assign)):
            raise InvariantViolation("counit inequality fails")
        self.f = f
        self.right_adjoint = right_adjoint
        self.exact = retraction == tuple(range(A.n))

    def __repr__(self):
        return f"LariWitness(retraction={list(self.right_adjoint.assign)})"


class CommaObject:
    """Pairs (a, b) with f(a) <= b, ordered componentwise."""

    __slots__ = ("f", "carrier", "proj_a", "proj_b", "pairs")

    def __init__(self, f, carrier, proj_a, proj_b, pairs):
        self.f = f
        self.carrier = carrier
        self.proj_a = proj_a
        self.proj_b = proj_b
        self.pairs = pairs


class Collage:
    """The disjoint union A ⊔ B with cross relation ι_B(b) <= ι_A(a) iff b <= f(a)."""

    __slots__ = ("f", "carrier", "copr_a", "copr_b")

    def __init__(self, f, carrier, copr_a, copr_b):
        self.f = f
        self.carrier = carrier
        self.copr_a = copr_a
        self.copr_b = copr_b


def find_left_adjoint(f):
    """The left adjoint of f, or None.

    g(b) is a minimum of {a : b <= f(a)}, picked at the least index among
    equivalent minima; when src/tgt are posets the result is unique.
    """
    assign = [_least_member(c, f.src.up) for c in _preimage_masks(f.assign, f.tgt.up)]
    if None in assign:
        return None
    return MonotoneMap(f.tgt, f.src, assign)


def find_right_adjoint(f):
    """Dual of :func:`find_left_adjoint`: g(b) a maximum of {a : f(a) <= b}."""
    assign = [
        _least_member(c, f.src.down) for c in _preimage_masks(f.assign, f.tgt.down)
    ]
    if None in assign:
        return None
    return MonotoneMap(f.tgt, f.src, assign)


def find_rali(f, exact=True):
    """A RALI witness on f, or None.

    For each b the section takes the lowest minimum of {a : b <= f(a)}
    that f sends back to b: on the nose when ``exact``, up to
    equivalence otherwise.  Any witness must take its values among
    those minima, and the minima of one set are pairwise equivalent,
    which is what makes RALI witnesses unique on posets and unique up to
    pointwise equivalence on preorders.  Mask form: the sets
    {a : b <= f(a)} for all b come from one ``_preimage_masks`` call, and
    ``least``, the least member of each, is its lowest minimum.

    With ``exact=False`` no second preimage is needed.  Every minimum of
    the set is equivalent to ``least``, and f, being monotone, sends each
    one into the class of f(least).  So some minimum goes to the class
    of b exactly when f(least) does, that is when f(least) <= b (b <=
    f(least) holds since ``least`` is in the set), and then the lowest
    such minimum is ``least`` itself.  With ``exact`` the minima sent to
    b itself are read off a second pass, the fibres of f, as the members
    of the set in the class of ``least`` that lie in the fibre of b.

    The section is built trusted: it is monotone because minima over
    shrinking sets only grow (b <= b2 shrinks {a : b <= f(a)} to
    {a : b2 <= f(a)}, and every value is a minimum of its set).
    ``RaliWitness`` still checks the section equation and the counit.
    With ``exact=False`` the section equation is only required up to
    pointwise equivalence, the right notion for comparison maps between
    preorder hom-objects; the two coincide when the codomain is a poset.
    """
    A, B = f.src, f.tgt
    fibres = _preimage_masks(f.assign, [1 << b for b in range(B.n)]) if exact else None
    section = []
    for b, above in enumerate(_preimage_masks(f.assign, B.up)):
        least = _least_member(above, A.up)
        if least is None:
            return None
        if exact:
            fits = above & A.class_mask(least) & fibres[b]
            if not fits:
                return None
            section.append((fits & -fits).bit_length() - 1)
        elif B.up[f.assign[least]] >> b & 1:
            section.append(least)
        else:
            return None
    return RaliWitness(f, MonotoneMap._checked(B, A, tuple(section)))


def find_lari(f):
    """A LARI witness on f, or None.

    Any right adjoint must send b to a maximum of {a : f(a) <= b}, and
    the strict retraction pins its value on the image of f.
    """
    A, B = f.src, f.tgt
    forced = {}
    for a in range(A.n):
        b = f.assign[a]
        if forced.setdefault(b, a) != a:
            return None
    assign = []
    for b, below in enumerate(_preimage_masks(f.assign, B.down)):
        # the maxima of {a : f(a) <= b} are its members equivalent to top;
        # a forced value lies in the set, so it is one exactly when it is
        # equivalent to top
        top = _least_member(below, A.down)
        if top is None:
            return None
        a = forced.get(b, top)
        if not A.equiv(a, top):
            return None
        assign.append(a)
    return LariWitness(f, MonotoneMap(B, A, assign))


def comma(f):
    """The lax limit of f: pairs (a, b) with f(a) <= b."""
    A, B = f.src, f.tgt
    _guard("comma candidate pairs", A.n * B.n, _bound.get())
    pairs = [
        (a, b) for a in range(A.n) for b in range(B.n) if (B.up[f.assign[a]] >> b) & 1
    ]
    # built trusted: a pointwise order on validated coordinates, and its projections
    carrier = _pointwise_preorder(pairs, (A, B))
    proj_a = MonotoneMap._checked(carrier, A, tuple(a for a, _ in pairs))
    proj_b = MonotoneMap._checked(carrier, B, tuple(b for _, b in pairs))
    return CommaObject(f, carrier, proj_a, proj_b, tuple(pairs))


def collage(f):
    """The lax colimit of f on A ⊔ B; A sits at indices 0..|A|-1."""
    A, B = f.src, f.tgt
    # no relations from A into B; b lies below a exactly when b <= f(a)
    rows = list(A.up) + [
        B.up[b] << A.n | above for b, above in enumerate(_preimage_masks(f.assign, B.up))
    ]
    carrier = FinPreorder(A.n + B.n, rows)
    copr_a = MonotoneMap(A, carrier, range(A.n))
    copr_b = MonotoneMap(B, carrier, (A.n + b for b in range(B.n)))
    return Collage(f, carrier, copr_a, copr_b)


def laxlimit_awfs(f):
    """Factor f through its lax limit: (left, right) with right ∘ left = f.

    The left part sends a to (a, f(a)) and always carries a LARI witness
    whose retraction is the first projection.
    """
    cm = comma(f)
    index = {p: i for i, p in enumerate(cm.pairs)}
    left = MonotoneMap(f.src, cm.carrier, [index[(a, f.assign[a])] for a in range(f.src.n)])
    return left, cm.proj_b


def laxcolimit_awfs(f):
    """Factor f through its lax colimit: (left, right) with right ∘ left = f.

    The right part always carries a RALI witness whose section is the
    B-coprojection.
    """
    col = collage(f)
    right = MonotoneMap(
        col.carrier,
        f.tgt,
        list(f.assign) + list(range(f.tgt.n)),
    )
    return col.copr_a, right
