import pytest

from lofs.downsets import unit
from lofs.factorisation import (
    algebra_structure,
    canonical_diag,
    coalgebra_structure,
    comult,
    factorise,
    fibrant_replacement,
    k_on_square,
    mult,
)
from lofs.order import (
    MonotoneMap,
    Square,
    antichain,
    carrier_bound,
    chain,
    compose,
    diamond,
    hom_maps,
    identity,
    is_full,
    maps_equivalent,
    monotone_assignments,
    squares,
)
from oracles import bang, is_isomorphic, reps

ONE = chain(1)


def small_maps(max_size):
    pool = reps(max_size)
    for X in pool:
        for Y in pool:
            yield from hom_maps(X, Y)


class TestFactorise:
    def test_antichain_to_point(self):
        fact = factorise(bang(antichain(2)))
        assert fact.K.n == 4
        assert is_isomorphic(fact.K, diamond())

    def test_identity_of_point(self):
        fact = factorise(identity(ONE))
        assert fact.pairs == ((0, 0), (1, 0))
        assert is_isomorphic(fact.K, chain(2))

    def test_point_into_chain(self):
        f = MonotoneMap(ONE, chain(2), [1])
        fact = factorise(f)
        assert fact.pairs == ((0, 0), (0, 1), (1, 1))
        assert fact.pairs[fact.lam(0)] == (1, 1)

    def test_factorisation_equation(self):
        for f in small_maps(2):
            fact = factorise(f)
            assert compose(fact.lam, fact.rho) == f
            assert is_full(fact.lam)


class TestFunctorAction:
    def test_identity_square(self):
        f = MonotoneMap(chain(2), diamond(), [0, 3])
        sq = Square(f, f, identity(f.src), identity(f.tgt))
        fact = factorise(f)
        assert k_on_square(sq) == identity(fact.K)

    def test_composite_squares(self):
        # functoriality along horizontally composable squares f -> g -> e
        f = MonotoneMap(antichain(2), diamond(), [1, 2])
        g = bang(diamond())
        e = identity(ONE)
        checked = 0
        for sq1 in squares(f, g):
            for sq2 in squares(g, e):
                composite = Square(
                    f,
                    e,
                    compose(sq1.h, sq2.h),
                    compose(sq1.k, sq2.k),
                )
                lhs = k_on_square(composite)
                rhs = compose(k_on_square(sq1), k_on_square(sq2))
                assert lhs == rhs
                checked += 1
        assert checked

    def test_naturality_both_legs(self):
        pool = reps(2)
        for X in pool:
            for Y in pool:
                for f in hom_maps(X, Y):
                    fact_f = factorise(f)
                    for Z in pool[:4]:
                        for g in hom_maps(Y, Z):
                            gf = compose(f, g)
                            fact_g = factorise(gf)
                            sq = Square(f, gf, identity(X), g)
                            mid = k_on_square(sq)
                            assert compose(mid, fact_g.rho) == compose(fact_f.rho, g)
                            assert compose(fact_f.lam, mid) == compose(
                                identity(X), fact_g.lam
                            )


class TestComultMult:
    def test_unit_laws(self):
        f = MonotoneMap(ONE, chain(2), [1])
        fact = factorise(f)
        frho = factorise(fact.rho)
        pi = mult(f)
        assert compose(frho.lam, pi) == identity(fact.K)
        klam = k_on_square(Square(f, fact.rho, fact.lam, identity(f.tgt)))
        assert maps_equivalent(compose(klam, pi), identity(fact.K))

    def test_counit_laws(self):
        f = bang(chain(2))
        fact = factorise(f)
        flam = factorise(fact.lam)
        sigma = comult(f)
        assert compose(sigma, flam.rho) == identity(fact.K)
        krho = k_on_square(Square(fact.lam, f, identity(f.src), fact.rho))
        assert maps_equivalent(compose(sigma, krho), identity(fact.K))

    def test_mixed_law(self):
        for f in [bang(chain(2)), bang(antichain(2)), identity(chain(2))]:
            fact = factorise(f)
            sigma = comult(f)
            pi = mult(f)
            lhs = compose(sigma, factorise(fact.lam).rho)
            rhs = compose(factorise(fact.rho).lam, pi)
            assert maps_equivalent(lhs, rhs)

    def test_monad_and_comonad_associativity_sweep(self):
        # all arrow classes of size <= 3 whose triple factorisation fits
        # the carrier guard; the handful that blow past it are skipped
        from lofs.errors import SizeLimitExceeded
        from lofs.order import arrow_canonical_key

        pool = reps(3)
        classes = {}
        for X in pool:
            for Y in pool:
                for f in hom_maps(X, Y):
                    classes.setdefault(arrow_canonical_key(f), f)
        checked = skipped = 0
        for f in classes.values():
            fact = factorise(f)
            frho = factorise(fact.rho)
            try:
                with carrier_bound(1024):
                    factorise(frho.rho)
                    pi_rho = mult(fact.rho)
            except SizeLimitExceeded:
                skipped += 1
                continue
            pi = mult(f)
            k_pi = k_on_square(Square(frho.rho, fact.rho, pi, identity(f.tgt)))
            assert maps_equivalent(compose(pi_rho, pi), compose(k_pi, pi))
            flam = factorise(fact.lam)
            sigma = comult(f)
            sigma_lam = comult(fact.lam)
            k_sigma = k_on_square(Square(fact.lam, flam.lam, identity(f.src), sigma))
            assert maps_equivalent(compose(sigma, sigma_lam), compose(sigma, k_sigma))
            checked += 1
        assert checked > 500 and skipped < checked // 8


def _coalgebra_bruteforce(f):
    fact = factorise(f)
    with carrier_bound(1 << 20):
        candidates = monotone_assignments(f.tgt, fact.K)
    for s in candidates:
        if tuple(fact.rho.assign[v] for v in s) != tuple(range(f.tgt.n)):
            continue
        if tuple(s[v] for v in f.assign) == fact.lam.assign:
            return MonotoneMap(f.tgt, fact.K, s)
    return None


def _algebra_bruteforce(g):
    """Oracle: monotone retractions satisfying all laws up to equivalence."""
    fact = factorise(g)
    A = g.src
    with carrier_bound(1 << 20):
        candidates = monotone_assignments(fact.K, A)
    for p in candidates:
        pm = MonotoneMap(fact.K, A, p)
        if not maps_equivalent(compose(fact.lam, pm), identity(A)):
            continue
        if not maps_equivalent(compose(pm, g), fact.rho):
            continue
        return pm
    return None


class TestCoalgebras:
    def test_full_inclusion_has_witness(self):
        f = MonotoneMap(chain(2), chain(3), [0, 2])
        assert coalgebra_structure(f) is not None

    def test_non_full_has_none(self):
        assert coalgebra_structure(MonotoneMap(antichain(2), chain(2), [0, 1])) is None

    def test_identity_witness_is_left_part(self):
        f = identity(chain(2))
        w = coalgebra_structure(f)
        assert w.s == w.fact.lam

    def test_matches_bruteforce_up_to_size_2(self):
        for f in small_maps(2):
            assert (coalgebra_structure(f) is not None) == (
                _coalgebra_bruteforce(f) is not None
            )
            assert (coalgebra_structure(f) is not None) == is_full(f)


class TestAlgebras:
    def test_sup_structure_on_lattice(self):
        from lofs.order import sup_mask

        w = algebra_structure(bang(diamond()))
        assert w is not None
        for i, (mask, _) in enumerate(w.fact.pairs):
            assert w.p(i) == sup_mask(diamond(), mask)

    def test_absent_without_sups(self):
        assert algebra_structure(bang(antichain(2))) is None

    def test_identity_case(self):
        g = identity(antichain(2))
        w = algebra_structure(g)
        assert w is not None
        for i, (_, b) in enumerate(w.fact.pairs):
            assert g.src.equiv(w.p(i), b)

    def test_matches_bruteforce_up_to_size_2(self):
        for g in small_maps(2):
            assert (algebra_structure(g) is not None) == (
                _algebra_bruteforce(g) is not None
            )


class TestCanonicalDiag:
    def test_boundaries_and_leastness(self):
        from lofs.order import two_cell

        f = MonotoneMap(antichain(2), diamond(), [1, 2])
        g = bang(diamond())
        s = coalgebra_structure(f)
        p = algebra_structure(g)
        for sq in squares(f, g):
            d = canonical_diag(sq, s, p)
            assert compose(f, d) == sq.h
            assert compose(d, g) == sq.k
            for w in hom_maps(f.tgt, g.src):
                if compose(f, w) == sq.h and compose(w, g) == sq.k:
                    assert two_cell(d, w)

    def test_matches_composite_definition(self):
        fulls = [(f, coalgebra_structure(f)) for f in small_maps(2) if is_full(f)]
        algebras = [(g, algebra_structure(g)) for g in small_maps(2)]
        for f, s in fulls:
            for g, p in algebras:
                if p is None:
                    continue
                for sq in squares(f, g):
                    middle = k_on_square(sq)
                    expected = compose(compose(s.s, middle), p.p)
                    d = canonical_diag(sq, s, p)
                    assert d == expected
                    assert d.src is expected.src and d.tgt is expected.tgt

    def test_extension_along_identity_target(self):
        f = MonotoneMap(chain(2), chain(3), [0, 2])
        g = identity(chain(3))
        s = coalgebra_structure(f)
        p = algebra_structure(g)
        for sq in squares(f, g):
            d = canonical_diag(sq, s, p)
            assert compose(f, d) == sq.h


class TestFibrantReplacement:
    @pytest.mark.parametrize(
        "base,expected",
        [
            (antichain(2), diamond()),
            (ONE, chain(2)),
            (chain(2), chain(3)),
        ],
    )
    def test_examples(self, base, expected):
        K, lam, iso = fibrant_replacement(base)
        assert is_isomorphic(K, expected)

    def test_unit_under_iso(self):
        for A in reps(3):
            K, lam, iso = fibrant_replacement(A)
            assert compose(lam, iso) == unit(A)
            assert sorted(iso.assign) == list(range(K.n))
