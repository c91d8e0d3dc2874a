import pytest

from lofs import kan
from lofs.errors import ShapeMismatch, SizeLimitExceeded
from lofs.kan import (
    _least_extension,
    _least_within,
    all_embeddings,
    chain_stage_report,
    classify_injectives,
    kan_injective,
    lan_extension,
)
from lofs.lifting import GeneratorFamily, kz_orthogonal
from lofs.order import (
    DEFAULT_MAX_CARRIER,
    MonotoneMap,
    _monotone_within,
    _unreflected_pair,
    antichain,
    arrow_canonical_key,
    carrier_bound,
    chain,
    diamond,
    enumerate_preorders,
    hom_maps,
    identity,
    is_complete_lattice,
    is_full,
    monotone_assignments,
    two_cell,
)
from oracles import arrow_classes, reps

ONE = chain(1)
DIA = diamond()
J_EMB = MonotoneMap(antichain(2), DIA, [1, 2])


def naive_least(j, f, maps):
    """The first g in ``maps`` with f <= g ∘ j below all such g, by
    comparing all pairs; else None."""
    leq = f.tgt.leq
    cands = [
        g
        for g in maps
        if all(leq(f.assign[x], g[j.assign[x]]) for x in range(j.src.n))
    ]
    for g in cands:
        if all(all(leq(a, b) for a, b in zip(g, g2)) for g2 in cands):
            return g
    return None


def naive_restricting(j, f, g):
    """``g`` if it is not None and restricts along j to f up to equivalence."""
    if g is not None and all(
        f.tgt.equiv(g[j.assign[x]], f.assign[x]) for x in range(j.src.n)
    ):
        return g
    return None


def naive_extension(j, f, maps):
    """The least g in ``maps`` with f <= g ∘ j, by comparing all pairs,
    if it restricts to f up to equivalence; else None."""
    return naive_restricting(j, f, naive_least(j, f, maps))


def naive_bounds(j, fa, A):
    """For each y of cod j, the mask of the upper bounds of f[{x : j(x) <= y}]."""
    return tuple(
        sum(
            1 << a
            for a in range(A.n)
            if all(A.leq(fa[x], a) for x in range(j.src.n) if j.tgt.leq(j.assign[x], y))
        )
        for y in range(j.tgt.n)
    )


def has_least(mask, A):
    """Whether the subset ``mask`` of A has a member below all its members."""
    members = [a for a in range(A.n) if mask >> a & 1]
    return any(all(A.leq(a, b) for b in members) for a in members)


def limit_or_value(call):
    """``call()``, or the (what, requested, bound) of the limit it raises."""
    try:
        return call()
    except SizeLimitExceeded as exc:
        return (exc.what, exc.requested, exc.bound)


def naive_kan_injective(A, members):
    """Kan injectivity member by member, every map checked by the naive scan."""
    return all(
        naive_extension(j, f, monotone_assignments(j.tgt, A)) is not None
        for j in members
        for f in hom_maps(j.src, A)
    )


class TestLanExtension:
    def test_along_identity(self):
        f = MonotoneMap(antichain(2), chain(2), [0, 1])
        w = lan_extension(identity(antichain(2)), f)
        assert w.ext == f

    def test_into_chain(self):
        f = MonotoneMap(antichain(2), chain(2), [0, 1])
        w = lan_extension(J_EMB, f)
        assert w is not None
        assert w.ext.assign[0] == 0 and w.ext.assign[3] == 1

    def test_no_extension_into_antichain(self):
        f = identity(antichain(2))
        assert lan_extension(J_EMB, f) is None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            lan_extension(J_EMB, MonotoneMap(chain(2), chain(2), [0, 1]))

    def test_fast_path_matches_bruteforce(self):
        pool = [p for n in range(3) for p in enumerate_preorders(n)]
        for A in pool:
            for X in pool[:8]:
                for Y in pool[:8]:
                    for ja in monotone_assignments(X, Y):
                        j = MonotoneMap(X, Y, ja)
                        maps = monotone_assignments(Y, A)
                        for f in hom_maps(X, A):
                            fast = lan_extension(j, f)
                            brute = naive_extension(j, f, maps)
                            assert (fast is None) == (brute is None)
                            if fast is not None:
                                assert all(
                                    A.equiv(x, y) for x, y in zip(fast.ext.assign, brute)
                                )

    def test_minimum_unique_up_to_equivalence(self):
        j = J_EMB
        for f in hom_maps(antichain(2), DIA):
            w = lan_extension(j, f)
            if w is None:
                continue
            candidates = [
                g
                for g in hom_maps(DIA, DIA)
                if all(
                    DIA.leq(f.assign[x], g.assign[j.assign[x]]) for x in range(2)
                )
            ]
            minima = [
                g for g in candidates if all(two_cell(g, h) for h in candidates)
            ]
            for m in minima:
                assert all(DIA.equiv(a, b) for a, b in zip(m.assign, w.ext.assign))


class TestPrunedScan:
    def test_matches_naive_scan(self, monkeypatch):
        # every arrow class j and every f, all carriers of size <= 3: the
        # least extension is the naive least tuple, and the scan runs
        # exactly when some bound set has no least member, so no sup
        calls = []

        def counted(*args):
            calls.append(args)
            return _least_within(*args)

        monkeypatch.setattr(kan, "_least_within", counted)
        objects = reps(3)
        scans = sups = 0
        for j in arrow_classes(3):
            for A in objects:
                maps = monotone_assignments(j.tgt, A)
                for fa in monotone_assignments(j.src, A):
                    f = MonotoneMap(j.src, A, fa)
                    least = naive_least(j, f, maps)
                    w = lan_extension(j, f)
                    assert (None if w is None else w.ext.assign) == naive_restricting(
                        j, f, least
                    )
                    missing = not all(has_least(b, A) for b in naive_bounds(j, fa, A))
                    before = len(calls)
                    assert _least_extension(j, fa, A) == least
                    assert len(calls) - before == missing
                    scans += missing
                    sups += not missing
        assert scans and sups

    def test_both_paths_raise_the_scans_limit(self):
        # at every small bound, the sup path and the scan give the value
        # or the limit (what, requested, bound) of the scan over the bounds
        objects = reps(3)
        for j in arrow_classes(2):
            for A in objects:
                for fa in monotone_assignments(j.src, A):
                    bounds = naive_bounds(j, fa, A)
                    for bound in (1, 2, 3, 4, 7, 8, 9):
                        with carrier_bound(bound):
                            got = limit_or_value(lambda: _least_extension(j, fa, A))
                            want = limit_or_value(lambda: _least_within(j.tgt, A, bounds))
                        assert got == want

    def test_size_guard_unchanged(self):
        j = identity(antichain(3))
        f = MonotoneMap(antichain(3), DIA, [0, 0, 0])
        with carrier_bound(63), pytest.raises(SizeLimitExceeded):
            lan_extension(j, f)
        with carrier_bound(64):
            assert lan_extension(j, f) is not None

    def test_the_sup_path_keeps_the_hom_set_guard(self):
        # a complete codomain takes the sups, and still meets the guard on
        # the 2^13 maps of cod j that the scan would have searched
        j = MonotoneMap(antichain(1), antichain(13), [0])
        f = MonotoneMap(antichain(1), chain(2), [1])
        with pytest.raises(SizeLimitExceeded) as info:
            lan_extension(j, f)
        assert str(info.value) == "2^13 candidate maps: 8192 exceeds the bound 4096"
        with carrier_bound(8192):
            assert lan_extension(j, f).ext.assign == (1,) + (0,) * 12


class TestGroupedKanInjectivity:
    # every map between preorders of size <= 2 and <= 3: most share a source
    # with another member whose masks jb differ, full or not
    POOL = [f for X in reps(2) for Y in reps(3) for f in hom_maps(X, Y)]

    def test_single_members(self):
        for A in reps(3):
            for j in self.POOL:
                assert kan_injective(A, [j]) == naive_kan_injective(A, [j])

    def test_pairs_sharing_a_source(self):
        # grouping applies over complete objects only
        seen_key_split = False
        for A in [A for A in reps(3) if is_complete_lattice(A)] + [DIA]:
            verdict = {j: naive_kan_injective(A, [j]) for j in self.POOL}
            for j1 in self.POOL:
                for j2 in self.POOL:
                    if j1.src != j2.src:
                        continue
                    expected = verdict[j1] and verdict[j2]
                    assert kan_injective(A, [j1, j2]) == expected
                    seen_key_split |= verdict[j1] and not verdict[j2]
            assert kan_injective(A, self.POOL) == all(verdict.values())
        # a passing member must not excuse a failing one with the same source
        assert seen_key_split


class TestKanInjectivity:
    def test_lattice_is_injective(self):
        assert kan_injective(DIA, all_embeddings(3))

    def test_antichain_is_not(self):
        assert not kan_injective(antichain(2), all_embeddings(3))

    def test_identity_generators_accept_everything(self):
        fam = GeneratorFamily([identity(antichain(2)), identity(chain(3))])
        for n in range(4):
            for A in enumerate_preorders(n):
                assert kan_injective(A, fam)

    def test_bound_over_a_complete_object_is_the_callers(self):
        j = identity(antichain(5))  # 6^5 = 7776 maps into chain(6)
        with pytest.raises(SizeLimitExceeded) as info:
            kan_injective(chain(6), [j])
        assert (info.value.requested, info.value.bound) == (7776, 4096)
        with carrier_bound(10**6):
            assert kan_injective(chain(6), [j])
        # one bound whether A is complete or not
        for A in (DIA, antichain(2)):
            with carrier_bound(1), pytest.raises(SizeLimitExceeded) as info:
                kan_injective(A, [identity(chain(1))])
            assert (info.value.requested, info.value.bound) == (A.n, 1)

    def test_enumeration_free_paths_keep_the_hom_set_guard(self):
        # a full member over a complete object enumerates nothing, and the
        # pointwise sup over a non-complete one scans nothing: each still
        # raises the limit of the hom set it no longer walks
        full = [identity(chain(2))]
        with carrier_bound(8):
            assert limit_or_value(lambda: kan_injective(chain(3), full)) == (
                "3^2 candidate maps", 9, 8
            )
        with carrier_bound(9):
            assert kan_injective(chain(3), full)
        j = [MonotoneMap(chain(1), chain(3), [0])]
        with carrier_bound(7):
            assert limit_or_value(lambda: kan_injective(antichain(2), j)) == (
                "2^3 candidate maps", 8, 7
            )
        with carrier_bound(8):
            assert kan_injective(antichain(2), j)
        # the source's hom set is still guarded first
        with carrier_bound(1):
            assert limit_or_value(lambda: kan_injective(antichain(2), j)) == (
                "2^1 candidate maps", 2, 1
            )

    def test_long_complete_chain(self):
        # the verdict reads no sup of a subset, so no 2^22 sups are built
        assert kan_injective(chain(22), [identity(chain(1))])
        assert kan_injective(chain(22), [MonotoneMap(chain(2), chain(3), [0, 2])])

    def test_agrees_with_kz_route(self):
        pool = [p for n in range(4) for p in enumerate_preorders(n)]
        generators = all_embeddings(2)
        for A in pool:
            bang = MonotoneMap(A, ONE, [0] * A.n)
            for j in generators:
                assert kan_injective(A, [j]) == (kz_orthogonal(j, bang) is not None)


class TestAllEmbeddings:
    def test_matches_building_every_map(self):
        for m in range(4):
            for posets_only in (False, True):
                pool = [
                    p for n in range(m + 1) for p in enumerate_preorders(n, posets_only=posets_only)
                ]
                seen = {}
                for X in pool:
                    for Y in pool:
                        for f in hom_maps(X, Y):
                            if is_full(f):
                                seen.setdefault(arrow_canonical_key(f), f)
                expected = [seen[k] for k in sorted(seen)]
                got = all_embeddings(m, posets_only)
                assert [(f.src, f.tgt, f.assign) for f in got] == [
                    (f.src, f.tgt, f.assign) for f in expected
                ]

    def test_full_search_keeps_exactly_the_full_assignments(self):
        pool = reps(4)
        for X in pool:
            for Y in pool:
                expected = [
                    a for a in monotone_assignments(X, Y)
                    if _unreflected_pair(a, X.up, Y.up) is None
                ]
                anything = ((1 << Y.n) - 1,) * X.n
                found = _monotone_within(X, Y, anything, full=True)
                assert found == expected

    def test_bound_reaches_the_search(self):
        with carrier_bound(1), pytest.raises(SizeLimitExceeded) as info:
            all_embeddings(3)
        assert (info.value.requested, info.value.bound) == (2, 1)
        family = all_embeddings(3)
        with carrier_bound(DEFAULT_MAX_CARRIER):
            assert family is all_embeddings(3, False)


class TestClassification:
    def test_size_two_rows(self):
        rows = classify_injectives(2, generator_size=2)
        by_witness = {(A.n, A.up): (inj, comp) for A, inj, comp in rows}
        assert all(inj == comp for inj, comp in by_witness.values())
        # of the three two-element classes only the chain and the
        # two-element equivalence are complete
        two = [(inj, comp) for (n, _), (inj, comp) in by_witness.items() if n == 2]
        assert sorted(two) == [(False, False), (True, True), (True, True)]

    def test_diamond_and_antichain_rows(self):
        rows = classify_injectives(4, generator_size=3)
        for A, inj, comp in rows:
            assert inj == comp
            if A == DIA:
                assert inj
            if A == antichain(2):
                assert not inj

    def test_bound_reaches_the_family_and_every_row(self):
        with carrier_bound(1), pytest.raises(SizeLimitExceeded) as info:
            classify_injectives(3)
        assert (info.value.requested, info.value.bound) == (2, 1)
        # rows of size <= 1 have hom sets of at most one map, so only the
        # family's search meets the bound here
        with carrier_bound(1), pytest.raises(SizeLimitExceeded) as info:
            classify_injectives(1, generator_size=2)
        assert (info.value.requested, info.value.bound) == (2, 1)
        family = all_embeddings(3)  # its largest hom set has 3^3 = 27 candidates
        with carrier_bound(27), pytest.raises(SizeLimitExceeded) as info:
            classify_injectives(4, generator_size=3)
        assert info.value.requested == 4 ** 3
        with carrier_bound(DEFAULT_MAX_CARRIER):
            rows = classify_injectives(3)
        assert rows == classify_injectives(3)
        assert [kan_injective(A, family) for A, _, _ in rows] == [r[1] for r in rows]


class TestChainStages:
    def test_report(self):
        ok, detail = chain_stage_report()
        assert ok
        assert "not finitely representable" in detail

    def test_stages_are_lattices(self):
        for m in range(7):
            assert is_complete_lattice(chain(m + 1))
