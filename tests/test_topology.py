import pytest

import lofs
from lofs import cli, formats
from lofs.errors import NotAPoset, SizeLimitExceeded
from lofs.downsets import unit
from lofs.order import (
    FinPreorder,
    MonotoneMap,
    antichain,
    carrier_bound,
    chain,
    compose,
    diamond,
    enumerate_preorders,
    hom_maps,
    identity,
    indiscrete,
    is_complete_lattice,
    vee,
)
from lofs.topology import (
    FiniteSpace,
    f_lower_star,
    filter_algebra,
    filter_map,
    filter_mult,
    filter_space,
    filter_unit,
    is_continuous_lattice,
    is_embedding,
    is_top_coalgebra,
    open_masks,
    scott_opens,
    way_below,
)
from oracles import inf_mask, is_isomorphic, under

ONE = chain(1)
DIA = diamond()


def posets(max_size):
    return [
        p
        for n in range(max_size + 1)
        for p in enumerate_preorders(n, posets_only=True)
    ]


class TestScott:
    def test_chain(self):
        assert scott_opens(chain(2)) == (0, 0b10, 0b11)

    def test_antichain_all_subsets(self):
        assert scott_opens(antichain(2)) == (0, 1, 2, 3)

    def test_equals_up_sets_up_to_size_4(self):
        for P in posets(4):
            assert scott_opens(P) == open_masks(P)

    def test_requires_poset(self):
        with pytest.raises(NotAPoset):
            scott_opens(indiscrete(2))


class TestWayBelow:
    def test_chain_three(self):
        wb = way_below(chain(3))
        assert (wb[0] >> 2) & 1

    def test_diamond(self):
        wb = way_below(DIA)
        assert (wb[1] >> 3) & 1 and (wb[3] >> 3) & 1

    def test_contained_in_order(self):
        for P in posets(4):
            wb = way_below(P)
            for x in range(P.n):
                assert not (wb[x] & ~P.up[x])

    def test_equals_order_on_finite_posets(self):
        for P in posets(4):
            assert way_below(P) == P.up


class TestContinuity:
    def test_examples(self):
        assert is_continuous_lattice(DIA)
        assert not is_continuous_lattice(vee())
        assert is_continuous_lattice(ONE)

    def test_equals_completeness(self):
        for P in posets(4):
            assert is_continuous_lattice(P) == is_complete_lattice(P)


class TestFilterSpace:
    def test_point(self):
        fs = filter_space(FiniteSpace(ONE))
        assert is_isomorphic(fs.filters, chain(2))
        # the proper filter {X} sits below the improper one {X, empty}
        proper = fs.sets.index(
            min(fs.sets, key=lambda s: bin(s).count("1"))
        )
        assert fs.filters.leq(proper, 1 - proper)

    def test_chain_space(self):
        fs = filter_space(FiniteSpace(chain(2)))
        assert is_isomorphic(fs.filters, chain(3))

    def test_bound_below_the_lattice_raises_while_building(self, monkeypatch):
        # 2^13 opens; the guard fires before the lattice is ordered
        def never(*key):
            raise AssertionError("the open-set lattice was built")

        monkeypatch.setattr(lofs.downsets, "_carrier", never)
        with pytest.raises(SizeLimitExceeded) as info:
            under(100, filter_space, FiniteSpace(antichain(13)))
        assert str(info.value) == "down-sets of a 13-element preorder: 128 exceeds the bound 100"

    def test_bound_above_the_default_is_honoured(self):
        # twelve incomparable points below a top: 2^12 + 1 = 4097 opens
        X = FiniteSpace(FinPreorder(13, [1 << i | 1 << 12 for i in range(12)] + [1 << 12]))
        with pytest.raises(SizeLimitExceeded, match=r"^down-sets of a 13-element preorder: 4097 exceeds the bound 4096$"):
            filter_space(X)
        assert under(4097, filter_space, X).filters.n == 4097

    def test_calls_without_a_lattice_inherit_the_bound(self):
        # the 3-point discrete space has 8 opens, and its order 8 down-sets
        X = antichain(3)
        calls = {
            "unit": lambda: unit(X),
            "open_masks": lambda: open_masks(FiniteSpace(X)),
            "filter_unit": lambda: filter_unit(FiniteSpace(X)),
            "filter_map": lambda: filter_map(identity(X)),
            "filter_mult": lambda: filter_mult(FiniteSpace(X)),
        }
        for name, call in calls.items():
            call()  # fills every memo at the default bound
            with carrier_bound(7), pytest.raises(SizeLimitExceeded) as info:
                call()
            assert str(info.value) == "down-sets of a 3-element preorder: 8 exceeds the bound 7", name

    def test_cli_bound_names_itself(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(formats.dumps(formats.preorder_to_obj(antichain(13), "space")))
        assert cli.main(["--max-carrier", "100", "filter-space", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "lofs: down-sets of a 13-element preorder: 128 exceeds the bound 100\n"

    def test_unit_values(self):
        X = FiniteSpace(chain(2))
        fs = filter_space(X)
        eta = filter_unit(X)
        members = fs.sets[eta(1)]
        got = {fs.opens[i] for i in range(len(fs.opens)) if (members >> i) & 1}
        assert got == {0b10, 0b11}

    def test_specialization_is_inclusion(self):
        # sub-basic opens {F : U in F} generate a topology whose
        # specialization order is inclusion of filters
        for P in posets(3):
            fs = filter_space(FiniteSpace(P))
            n = fs.filters.n
            for i in range(n):
                for j in range(n):
                    finer = all(
                        not ((fs.sets[i] >> u) & 1) or (fs.sets[j] >> u) & 1
                        for u in range(len(fs.opens))
                    )
                    assert finer == fs.filters.leq(i, j)

    def test_opens_closed_under_union_and_intersection(self):
        for P in posets(3):
            masks = set(open_masks(P))
            assert 0 in masks and ((1 << P.n) - 1) in masks
            for a in masks:
                for b in masks:
                    assert (a | b) in masks and (a & b) in masks


class TestFilterMonad:
    def test_unit_laws_small(self):
        for P in posets(2) + [indiscrete(2)]:
            X = FiniteSpace(P)
            fs = filter_space(X)
            m = filter_mult(X)
            assert compose(filter_unit(FiniteSpace(fs.filters)), m) == identity(fs.filters)
            assert compose(filter_map(filter_unit(X)), m) == identity(fs.filters)

    def test_algebra_examples(self):
        assert filter_algebra(FiniteSpace(DIA)) is not None
        assert filter_algebra(FiniteSpace(antichain(2))) is None
        alpha = filter_algebra(FiniteSpace(ONE))
        assert alpha is not None and set(alpha.assign) == {0}

    def test_algebra_iff_complete_up_to_size_3(self):
        for n in range(4):
            for P in enumerate_preorders(n):
                assert (filter_algebra(FiniteSpace(P)) is not None) == (
                    is_complete_lattice(P)
                )

    def test_algebra_is_infimum_of_generating_open(self):
        X = FiniteSpace(DIA)
        fs = filter_space(X)
        alpha = filter_algebra(X)
        for i in range(fs.filters.n):
            assert alpha(i) == inf_mask(DIA, fs.opens[i])


class TestDirectImage:
    def test_identity(self):
        assert f_lower_star(identity(DIA)) == identity(
            f_lower_star(identity(DIA)).src
        )

    def test_embedding_example(self):
        j = MonotoneMap(antichain(2), DIA, [1, 2])
        fst = f_lower_star(j)
        src = open_masks(antichain(2))
        tgt = open_masks(DIA)
        assert tgt[fst(src.index(0b01))] == 0b1010  # {a} goes to {a, top}

    def test_constant_to_top(self):
        f = MonotoneMap(ONE, DIA, [3])
        fst = f_lower_star(f)
        assert open_masks(DIA)[fst(0)] == 0

    def test_top_coalgebra_examples(self):
        j = MonotoneMap(antichain(2), DIA, [1, 2])
        assert is_top_coalgebra(j)
        assert is_top_coalgebra(identity(DIA))
        assert not is_top_coalgebra(MonotoneMap(DIA, chain(2), [0, 0, 1, 1]))

    def test_embedding_iff_top_coalgebra_t0_size_3(self):
        for X in posets(3):
            for Y in posets(3):
                for f in hom_maps(X, Y):
                    assert is_top_coalgebra(f) == is_embedding(f)
