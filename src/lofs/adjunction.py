"""Adjoint computation and RALI detection.

Adjoints of monotone maps are found by the pointwise-minimum formula,
which is its own certificate: the search either returns a witness whose
inequalities hold by construction or proves absence by exhibiting an
element with no minimum.
"""

from __future__ import annotations

from .errors import InvariantViolation, ShapeMismatch
from .order import MonotoneMap, _least_member, _preimage_masks


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
