import pytest

from lofs.adjunction import (
    collage,
    comma,
    find_lari,
    find_left_adjoint,
    find_rali,
    find_right_adjoint,
    laxcolimit_awfs,
    laxlimit_awfs,
)
from lofs.order import (
    MonotoneMap,
    antichain,
    chain,
    compose,
    diamond,
    enumerate_preorders,
    hom_maps,
    identity,
    is_full,
    two_cell,
)
from oracles import is_isomorphic


def small_maps(max_size=3):
    pool = [p for n in range(max_size + 1) for p in enumerate_preorders(n)]
    for X in pool:
        for Y in pool:
            yield from hom_maps(X, Y)


def brute_left_adjoints(f):
    """Oracle: scan all monotone maps for the adjunction inequalities."""
    out = []
    for g in hom_maps(f.tgt, f.src):
        if all(
            f.src.leq(g(b), a) == f.tgt.leq(b, f(a))
            for a in range(f.src.n)
            for b in range(f.tgt.n)
        ):
            out.append(g)
    return out


class TestLeftAdjoint:
    def test_identity(self):
        assert find_left_adjoint(identity(chain(2))) == identity(chain(2))

    def test_terminal_from_chain_picks_bottom(self):
        bang = MonotoneMap(chain(2), chain(1), [0, 0])
        assert find_left_adjoint(bang).assign == (0,)

    def test_terminal_from_antichain_absent(self):
        assert find_left_adjoint(MonotoneMap(antichain(2), chain(1), [0, 0])) is None

    def test_matches_bruteforce(self):
        for f in small_maps(3):
            mine = find_left_adjoint(f)
            brute = brute_left_adjoints(f)
            if mine is None:
                assert not brute
            else:
                assert any(
                    all(f.src.equiv(x, y) for x, y in zip(mine.assign, g.assign))
                    for g in brute
                )

    def test_right_adjoint_dual(self):
        bang = MonotoneMap(chain(2), chain(1), [0, 0])
        assert find_right_adjoint(bang).assign == (1,)


class TestRaliLari:
    def test_identity(self):
        w = find_rali(identity(antichain(2)))
        assert w.left_adjoint == identity(antichain(2)) and w.exact

    def test_chain_to_point(self):
        w = find_rali(MonotoneMap(chain(2), chain(1), [0, 0]))
        assert w.left_adjoint.assign == (0,)

    def test_antichain_to_point_absent(self):
        assert find_rali(MonotoneMap(antichain(2), chain(1), [0, 0])) is None

    def test_matches_definition_expansion(self):
        # a RALI exists iff some section with the two displayed conditions does
        for f in small_maps(2):
            brute = [
                s
                for s in hom_maps(f.tgt, f.src)
                if compose(s, f) == identity(f.tgt)
                and two_cell(compose(f, s), identity(f.src))
            ]
            mine = find_rali(f)
            assert (mine is not None) == bool(brute)
            if brute:
                # uniqueness: all witnesses pointwise equivalent
                for s in brute:
                    assert all(
                        f.src.equiv(x, y)
                        for x, y in zip(s.assign, mine.left_adjoint.assign)
                    )

    def test_lari_dual_bruteforce(self):
        for f in small_maps(2):
            brute = [
                r
                for r in hom_maps(f.tgt, f.src)
                if compose(f, r) == identity(f.src)
                and two_cell(compose(r, f), identity(f.tgt))
            ]
            assert (find_lari(f) is not None) == bool(brute)


class TestCommaCollage:
    def test_comma_of_identity_chain(self):
        cm = comma(identity(chain(2)))
        assert set(cm.pairs) == {(0, 0), (0, 1), (1, 1)}

    def test_comma_vacuous_condition(self):
        cm = comma(MonotoneMap(antichain(2), chain(1), [0, 0]))
        assert is_isomorphic(cm.carrier, antichain(2))

    def test_collage_of_identity_point(self):
        col = collage(identity(chain(1)))
        assert is_isomorphic(col.carrier, chain(2))
        assert col.carrier.leq(1, 0) and not col.carrier.leq(0, 1)

    def test_collage_cross_relation(self):
        f = MonotoneMap(chain(2), chain(2), [0, 1])
        col = collage(f)
        # iota_B(b) <= iota_A(a) iff b <= f(a); no A-to-B relations
        for a in range(2):
            for b in range(2):
                assert col.carrier.leq(2 + b, a) == f.tgt.leq(b, f(a))
                assert not col.carrier.leq(a, 2 + b)


class TestLaxFactorisations:
    def test_laxlimit_posts(self):
        for f in small_maps(2):
            left, right = laxlimit_awfs(f)
            assert compose(left, right) == f
            w = find_lari(left)
            assert w is not None

    def test_laxcolimit_posts(self):
        for f in small_maps(2):
            left, right = laxcolimit_awfs(f)
            assert compose(left, right) == f
            w = find_rali(right)
            assert w is not None
            # the section is the B-side coprojection
            assert w.left_adjoint.assign == tuple(
                f.src.n + b for b in range(f.tgt.n)
            )

    def test_coprojection_always_full(self):
        for f in small_maps(3):
            left, _ = laxcolimit_awfs(f)
            assert is_full(left)

    def test_antichain_section_sits_below(self):
        f = MonotoneMap(antichain(2), chain(1), [0, 0])
        _, right = laxcolimit_awfs(f)
        col = right.src
        assert col.n == 3
        assert col.leq(2, 0) and col.leq(2, 1)
