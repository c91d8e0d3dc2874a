from lofs.adjunction import find_left_adjoint, find_rali, find_right_adjoint
from lofs.order import (
    MonotoneMap,
    antichain,
    chain,
    compose,
    enumerate_preorders,
    hom_maps,
    identity,
    maps_equivalent,
    two_cell,
)


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
        # a RALI exists iff some section with the two displayed conditions
        # does, the section equation read up to equivalence; on the nose
        # when the codomain is a poset; every map of size <= 3
        for f in small_maps(3):
            brute = [
                s
                for s in hom_maps(f.tgt, f.src)
                if maps_equivalent(compose(s, f), identity(f.tgt))
                and two_cell(compose(f, s), identity(f.src))
            ]
            mine = find_rali(f)
            assert (mine is not None) == bool(brute)
            if brute:
                assert mine.exact or not f.tgt.is_poset
                # uniqueness: all witnesses pointwise equivalent
                for s in brute:
                    assert all(
                        f.src.equiv(x, y)
                        for x, y in zip(s.assign, mine.left_adjoint.assign)
                    )
