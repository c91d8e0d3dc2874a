"""Adjoint computation and RALI detection.

Adjoints of monotone maps are found by the pointwise-minimum formula,
which is its own certificate: the search either returns a witness whose
inequalities hold by construction or proves absence by exhibiting an
element with no minimum.  A RALI (right adjoint left inverse) of f is
its left adjoint, when that is a section of f.
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

    Built trusted: g is monotone because b <= b2 shrinks
    {a : b <= f(a)} to {a : b2 <= f(a)}, so the minimum chosen for b
    lies below every member of the set for b2, g(b2) among them.
    """
    assign = tuple(_least_member(c, f.src.up) for c in _preimage_masks(f.assign, f.tgt.up))
    if None in assign:
        return None
    return MonotoneMap._checked(f.tgt, f.src, assign)


def find_right_adjoint(f):
    """Dual of :func:`find_left_adjoint`: g(b) a maximum of {a : f(a) <= b}.

    Built trusted by the dual argument: b <= b2 grows {a : f(a) <= b} to
    {a : f(a) <= b2}, so the maximum chosen for b2 lies above every
    member of the set for b, g(b) among them.
    """
    assign = tuple(_least_member(c, f.src.down) for c in _preimage_masks(f.assign, f.tgt.down))
    if None in assign:
        return None
    return MonotoneMap._checked(f.tgt, f.src, assign)


def find_rali(f):
    """A RALI witness on f: its left adjoint l, when l is a section; or None.

    The section equation f(l(b)) = b is read up to equivalence, the right
    notion for comparison maps between preorder hom-objects; it holds on
    the nose when the codomain is a poset, which ``RaliWitness.exact``
    reports.  b <= f(l(b)) holds by construction, so only f(l(b)) <= b is
    tested.  Any witness is a left adjoint of f and takes its values
    among the same minima, so witnesses are unique on posets and unique
    up to pointwise equivalence on preorders.  ``RaliWitness`` still
    checks the section equation and the counit.
    """
    left = find_left_adjoint(f)
    if left is None or not all(
        f.tgt.up[f.assign[a]] >> b & 1 for b, a in enumerate(left.assign)
    ):
        return None
    return RaliWitness(f, left)
