from lofs.downsets import _inclusion_covers, check_lax_idempotent_P, downsets, unit
from lofs.factorisation import algebra_structure, k_on_square, mult
from lofs.order import (
    MonotoneMap,
    Square,
    _union,
    antichain,
    chain,
    compose,
    diamond,
    down_set_masks,
    identity,
    indiscrete,
    is_complete_lattice,
    is_full,
    sup_mask,
)
from oracles import bang, is_isomorphic, reps

# The down-set monad is the factorisation at the point: its multiplication
# and algebras are those of X -> 1, and its functor is the factorisation's
# action on the square (f, id_1) between X -> 1 and Y -> 1.


def naive_covers(masks):
    """The upper covers by index, from the definition, pairwise.

    c covers i when masks[i] ⊊ masks[c] and no mask lies strictly
    between; each mask is compared only with the masks above it.
    """
    above = [
        [c for c, m2 in enumerate(masks) if m != m2 and not (m & ~m2)] for m in masks
    ]
    return [
        {c for c in up if not any(d != c and not (masks[d] & ~masks[c]) for d in up)}
        for up in above
    ]


def down_map(f):
    """φ ↦ down-closure of f[φ], between the down-set lattices."""
    return k_on_square(Square(bang(f.src), bang(f.tgt), f, identity(chain(1))))


def down_mult(X):
    return mult(bang(X))


def down_algebra(X):
    w = algebra_structure(bang(X))
    return None if w is None else w.p


class TestCompletion:
    def test_chain(self):
        assert is_isomorphic(downsets(chain(2)).carrier, chain(3))

    def test_antichain(self):
        assert is_isomorphic(downsets(antichain(2)).carrier, diamond())

    def test_empty(self):
        assert is_isomorphic(downsets(chain(0)).carrier, chain(1))

    def test_always_complete(self):
        for X in reps(4):
            assert is_complete_lattice(downsets(X).carrier)


class TestUnit:
    def test_principal_downsets(self):
        dl = downsets(chain(2))
        u = unit(chain(2))
        assert dl.masks[u(1)] == 0b11
        dl = downsets(antichain(2))
        u = unit(antichain(2))
        assert dl.masks[u(0)] == 0b01

    def test_unit_full_up_to_size_5(self):
        for X in reps(5):
            assert is_full(unit(X))

    def test_functor_of_unit_full(self):
        for X in reps(3):
            dl = downsets(X)
            u = unit(X)
            assert is_full(down_map(u))


class TestMonadLaws:
    def test_examples(self):
        dl = downsets(chain(2))
        m = down_mult(chain(2))
        dl2 = downsets(dl.carrier)
        # empty family of down-sets unions to the empty down-set
        assert dl.masks[m(dl2.index(0))] == 0

    def test_laws_up_to_size_3(self):
        for X in reps(3):
            dl = downsets(X)
            dl2 = downsets(dl.carrier)
            u = unit(X)
            m = down_mult(X)
            assert compose(unit(dl.carrier), m) == identity(dl.carrier)
            assert compose(down_map(u), m) == identity(dl.carrier)
            assert compose(down_map(m), m) == compose(down_mult(dl.carrier), m)

    def test_mult_is_union_up_to_size_3(self):
        for X in reps(3):
            dl = downsets(X)
            dl2 = downsets(dl.carrier)
            assert down_mult(X) == MonotoneMap(
                dl2.carrier, dl.carrier, [dl.index(_union(dl.masks, m)) for m in dl2.masks]
            )


class TestAlgebras:
    def test_examples(self):
        alpha = down_algebra(diamond())
        dl = downsets(diamond())
        assert alpha is not None
        for i, mask in enumerate(dl.masks):
            assert alpha(i) == sup_mask(diamond(), mask)
        assert down_algebra(antichain(2)) is None
        assert down_algebra(chain(1)) is not None

    def test_exists_iff_complete_up_to_size_4(self):
        for X in reps(4):
            alpha = down_algebra(X)
            assert (alpha is not None) == is_complete_lattice(X)
            if alpha is not None:
                assert alpha.assign == tuple(sup_mask(X, m) for m in downsets(X).masks)

    def test_laws_up_to_equivalence(self):
        for X in [diamond(), chain(3), indiscrete(2)]:
            alpha = down_algebra(X)
            dl = downsets(X)
            u = unit(X)
            for x in range(X.n):
                assert X.equiv(alpha(u(x)), x)
            dl2 = downsets(dl.carrier)
            lhs = compose(down_map(alpha), alpha)
            rhs = compose(down_mult(X), alpha)
            for i in range(dl2.carrier.n):
                assert X.equiv(lhs(i), rhs(i))


class TestLaxIdempotency:
    def test_examples(self):
        assert check_lax_idempotent_P(antichain(2))
        assert check_lax_idempotent_P(chain(3))
        assert check_lax_idempotent_P(chain(0))

    def test_all_up_to_size_4(self):
        for X in reps(4):
            assert check_lax_idempotent_P(X)


class TestInclusionCovers:
    def check(self, X):
        masks = down_set_masks(X)
        upper = _inclusion_covers(masks)
        assert [set(c) for c in upper] == naive_covers(masks)
        assert all(len(set(c)) == len(c) for c in upper)

    def test_every_preorder_up_to_size_4(self):
        for X in reps(4):
            self.check(X)

    def test_non_posets_and_a_large_antichain(self):
        for X in [indiscrete(3), indiscrete(1), antichain(8)]:
            self.check(X)
