"""The upper-bound factorisation of a monotone map and its (co)monad.

A map ``f : A -> B`` factors through the preorder of pairs ``(φ, b)``
where ``φ`` is a down-set of ``A`` and ``b`` an upper bound of ``f[φ]``,
ordered componentwise.  The left part ``a ↦ (↓a, f(a))`` is always full;
the right part is the second projection.  Coalgebras for the left part
are exactly the full maps, algebras for the right part over the point
are exactly the complete lattices, and the canonical diagonal built from
a coalgebra and an algebra is the least filler of its square.

Witness equations are stated up to pointwise equivalence; on posets they
hold on the nose.
"""

from __future__ import annotations

from .adjunction import find_left_adjoint, find_right_adjoint
from .downsets import _carrier, downsets
from .errors import AdjointMissing, InvariantViolation, ShapeMismatch, SizeLimitExceeded
from .order import (
    MonotoneMap,
    _bound,
    _preimage_masks,
    _union,
    chain,
    compose,
    down_set_masks,
    identity,
    is_full,
    maps_equivalent,
)


class FactorisationData:
    """The factorisation triple of one map.

    ``pairs[i]`` is the pair (down-set mask over dom f, codomain index)
    that carrier element ``i`` stands for, listed ascending, and
    ``index`` maps each pair back to its element.
    """

    __slots__ = ("f", "K", "lam", "rho", "pairs", "_index")

    def __init__(self, f, K, lam, rho, pairs, index):
        self.f = f
        self.K = K
        self.lam = lam
        self.rho = rho
        self.pairs = pairs
        self._index = index

    def index(self, mask, b):
        return self._index[(mask, b)]

    def __repr__(self):
        return f"FactorisationData(|K|={self.K.n})"


class CoalgebraWitness:
    """A section s of the right part with s ∘ f equal to the left part."""

    __slots__ = ("fact", "s")

    def __init__(self, fact, s):
        if compose(s, fact.rho).assign != tuple(range(fact.f.tgt.n)):
            raise InvariantViolation("s is not a section of the right part")
        if compose(fact.f, s).assign != fact.lam.assign:
            raise InvariantViolation("s does not extend the left part")
        self.fact = fact
        self.s = s

    @property
    def f(self):
        return self.fact.f


class AlgebraWitness:
    """A retraction p of the left part with g ∘ p equal to the right part.

    Equations hold up to pointwise equivalence (strictly on posets); the
    multiplication law is verified separately where carriers permit.
    """

    __slots__ = ("fact", "p")

    def __init__(self, fact, p):
        g = fact.f
        if not maps_equivalent(compose(fact.lam, p), identity(g.src)):
            raise InvariantViolation("p is not a retraction of the left part")
        if not maps_equivalent(compose(p, g), fact.rho):
            raise InvariantViolation("g ∘ p differs from the right part")
        self.fact = fact
        self.p = p

    @property
    def g(self):
        return self.fact.f


def _upper_bound_table(f):
    """pre[b] = mask of {a : f(a) <= b}; membership is mask ⊆ pre[b]."""
    return _preimage_masks(f.assign, f.tgt.down)


def factorise(f):
    """Factor f as (right part) ∘ (left part) through the pair preorder.

    The carrier K is ordered componentwise: (φ, b) <= (φ2, b2) iff φ ⊆ φ2
    and b <= b2.  ``downsets._carrier`` lists the pairs ascending, so the
    pairs of one down-set form a block, and builds each up row as one
    AND of two masks: the blocks of the down-sets above φ, gathered by
    recursion over the upper covers of the inclusion order, and the
    elements whose bound lies above b.  No pair of elements is compared
    and no inclusion row is scanned.  That is the componentwise relation
    on the same ascending pair list, so K, both parts and every error are
    the same as a pairwise build would give.  K's down rows are built
    only when read, as the transpose of its up rows.

    K, its pair list and index and the right part's assignment are
    memoised in ``_carrier``, keyed by (the down-sets of A, B, the
    upper-bound table, the carrier bound) and bounded at 256 entries; the
    lattices of ``downsets`` are entries of the same memo, at the point.
    Many maps of a sweep share one key, so each distinct K is built once
    while it stays cached.  The cached values are immutable and built by
    the same code from the same key, so results and their order are
    unchanged.  An exception is not cached, and a smaller carrier bound
    is a different key, so the guard still raises.  Both parts and the
    returned object are built per call, on the caller's own f and B.

    Nothing here is validated again: f was validated where it entered,
    and K and both parts are valid by construction.  The left part
    a ↦ (↓a, f(a)) lands in K, since f(a) bounds f[↓a] for a monotone f,
    and it is monotone, since a <= a2 gives ↓a ⊆ ↓a2 and f(a) <= f(a2);
    the right part is the second projection of K, which is monotone.
    """
    A, B = f.src, f.tgt
    pre = tuple(_upper_bound_table(f))
    K, pairs, index, rho = _carrier(down_set_masks(A), B, pre, _bound.get())
    lam = tuple([index[d, v] for d, v in zip(A.down, f.assign)])
    return FactorisationData(
        f, K, MonotoneMap._checked(A, K, lam), MonotoneMap._checked(K, B, rho), pairs, index
    )


def _k_at(source, target, h, k, points, then):
    """``then`` after the carrier map (φ, b) ↦ (down-closure of h[φ], k(b)), at ``points``.

    ``points`` are elements of the source carrier; the result is the
    tuple of ``then`` read at their images in the target carrier, in the
    same order, so a caller that composes with a map reads it in the
    same pass.  The map lands in the target carrier whenever the square
    commutes up to pointwise equivalence.  The down-closure of h[φ] is
    one union of the rows down[h(x)] over the members x of φ, with those
    rows gathered once per call.
    """
    rows = h.tgt.down
    down = [rows[v] for v in h.assign]
    index, ka = target._index, k.assign
    try:
        return tuple(
            [then[index[_union(down, m), ka[b]]] for m, b in map(source.pairs.__getitem__, points)]
        )
    except KeyError:
        raise InvariantViolation("functor action leaves the carrier") from None


def _k_action(source, target, h, k):
    """The carrier map of :func:`_k_at`, at every point, validated."""
    assign = _k_at(source, target, h, k, range(source.K.n), range(target.K.n))
    return MonotoneMap(source.K, target.K, assign)


def k_on_square(sq):
    """Functor action on a commuting square (h, k) : f -> g.

    Sends (φ, b) to (down-closure of h[φ], k(b)); natural on both sides
    and functorial in the square.  The two factorisations are
    ``factorise`` of the square's own sides, whose carriers a second
    call finds in the ``_carrier`` memo.
    """
    return _k_action(factorise(sq.j), factorise(sq.g), sq.h, sq.k)


def mult(f):
    """The multiplication component on f: K(right part) -> Kf.

    Defined by the left adjoint of the unit component of the right-part
    factorisation, which exists by lax idempotency.  The closed form
    (union of all first components, same bound) is asserted equivalent to
    the computed adjoint and returned, being the representative that also
    satisfies the naturality square on the nose.
    """
    Ff = factorise(f)
    Frho = factorise(Ff.rho)
    adjoint = find_left_adjoint(Frho.lam)
    if adjoint is None:
        raise AdjointMissing("multiplication adjoint missing: this is a bug")
    firsts = [m for m, _ in Ff.pairs]
    assign = []
    for i, (m2, b) in enumerate(Frho.pairs):
        target = Ff.index(_union(firsts, m2), b)
        if not Ff.K.equiv(adjoint.assign[i], target):
            raise AdjointMissing("multiplication differs from its closed form")
        assign.append(target)
    return MonotoneMap(Frho.K, Ff.K, assign)


def comult(f):
    """The comultiplication component on f: Kf -> K(left part).

    Defined dually by the right adjoint of the counit component of the
    left-part factorisation; the closed form (φ, b) ↦ (φ, (φ, b)) is
    asserted equivalent to it and returned.
    """
    Ff = factorise(f)
    Flam = factorise(Ff.lam)
    adjoint = find_right_adjoint(Flam.rho)
    if adjoint is None:
        raise AdjointMissing("comultiplication adjoint missing: this is a bug")
    assign = []
    for i, (m, b) in enumerate(Ff.pairs):
        target = Flam.index(m, i)
        if not Flam.K.equiv(adjoint.assign[i], target):
            raise AdjointMissing("comultiplication differs from its closed form")
        assign.append(target)
    return MonotoneMap(Ff.K, Flam.K, assign)


def coalgebra_structure(f):
    """The coalgebra witness on f, or None.

    A witness forces fullness (apply the section to a pair with related
    images), and for full maps the section b ↦ ({a : f(a) <= b}, b) is
    one, so existence reduces to :func:`lofs.order.is_full`.
    """
    if not is_full(f):
        return None
    fact = factorise(f)
    pre = _upper_bound_table(f)
    s = MonotoneMap(
        f.tgt, fact.K, [fact.index(pre[b], b) for b in range(f.tgt.n)]
    )
    return CoalgebraWitness(fact, s)


def algebra_structure(g):
    """The algebra witness on g, or None.

    The structure map, when it exists, is the left adjoint of the left
    part (algebra structure is adjoint to the unit for a lax idempotent
    monad), so the adjoint search decides existence; the candidate is then
    validated against the witness equations.  The multiplication law is
    checked elementwise whenever the double factorisation fits the
    carrier bound.
    """
    fact = factorise(g)
    p = find_left_adjoint(fact.lam)
    if p is None:
        return None
    if not maps_equivalent(compose(p, g), fact.rho):
        return None
    witness = AlgebraWitness(fact, p)
    try:
        _check_multiplication_law(witness)
    except SizeLimitExceeded:
        pass
    return witness


def _check_multiplication_law(witness):
    """p ∘ (multiplication) = p ∘ K(p, id) elementwise, up to equivalence.

    The square (p, id) only commutes up to equivalence on preorders, so
    the functor action is applied directly.
    """
    fact = witness.fact
    g = fact.f
    pi = mult(g)
    Frho = factorise(fact.rho)
    kp = _k_action(Frho, fact, witness.p, identity(g.tgt))
    lhs = compose(pi, witness.p)
    rhs = compose(kp, witness.p)
    if not maps_equivalent(lhs, rhs):
        raise InvariantViolation("multiplication law fails for the algebra")


def canonical_diag(sq, s, p):
    """The diagonal p ∘ K(h, k) ∘ s for a square from a coalgebra to an algebra.

    Fills the square (up to pointwise equivalence over genuine preorders)
    and is least: every filler sits pointwise above it.  The composite is
    computed on assignment tuples and built trusted, as one map: s and p
    are validated witnesses and the middle map K(h, k) is monotone by
    construction, so the composite is monotone.  The middle map is
    neither built nor evaluated on the whole source carrier: only the
    |cod j| points where the section s lands are read, and ``_k_at``
    evaluates K(h, k) there and reads the retraction p at each image in
    one pass.  For a commuting square, and a ``Square`` is exact,
    K(h, k) lands in the carrier at every point, so evaluating fewer
    points skips no error that could be raised.
    """
    if s.fact.f != sq.j or p.fact.f != sq.g:
        raise ShapeMismatch("witnesses do not match the square")
    assign = _k_at(s.fact, p.fact, sq.h, sq.k, s.s.assign, p.p.assign)
    return MonotoneMap._checked(s.s.src, p.p.tgt, assign)


def fibrant_replacement(A):
    """Factor A -> point and exhibit the middle object as the down-set lattice.

    Returns (carrier, left part, iso) where iso is an order-isomorphism
    onto ``downsets(A).carrier`` carrying the left part to the principal
    down-set unit.  The iso (φ, pt) ↦ φ is the identity, built trusted:
    K(A -> point) and ``downsets(A)`` are the carrier ``_carrier`` builds
    from the same ascending down-set masks of A, with the whole of A as
    the one upper bound, so element i of both stands for the i-th
    down-set and both are ordered by inclusion.
    """
    fact = factorise(MonotoneMap(A, chain(1), [0] * A.n))
    iso = MonotoneMap._checked(fact.K, downsets(A).carrier, tuple(range(fact.K.n)))
    return fact.K, fact.lam, iso
