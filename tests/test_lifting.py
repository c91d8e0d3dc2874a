import contextlib
import hashlib
import io
import json
import os
import tempfile

from lofs import cli, formats
from lofs.factorisation import algebra_structure, canonical_diag, coalgebra_structure
from lofs.lifting import (
    GeneratorFamily,
    canonical_map,
    coproduct_family_check,
    kz_orthogonal,
    lifting_structure,
)
from lofs.order import (
    MonotoneMap,
    antichain,
    carrier_bound,
    chain,
    compose,
    diamond,
    enumerate_preorders,
    hom_maps,
    identity,
    is_full,
    maps_equivalent,
    monotone_assignments,
    squares,
    two_cell,
    vee,
)
from oracles import arrow_classes, bang

ONE = chain(1)
DIA = diamond()
J_EMB = MonotoneMap(antichain(2), DIA, [1, 2])


class TestCanonicalMap:
    def test_identity_generator_is_iso(self):
        g = MonotoneMap(DIA, chain(2), [0, 0, 1, 1])
        cm = canonical_map(identity(DIA), g)
        assert sorted(cm.assign) == list(range(cm.tgt.n))
        assert cm.src.n == cm.tgt.n

    def test_identity_target_is_iso(self):
        cm = canonical_map(J_EMB, identity(ONE))
        assert cm.tgt.n == 1 and cm.src.n == 1

    def test_evaluates_commutation(self):
        g = bang(chain(2))
        cm = canonical_map(J_EMB, g)
        homs = hom_maps(DIA, chain(2))
        assert cm.src.n == len(homs)
        sqs = squares(J_EMB, g)
        for i, d in enumerate(homs):
            s = sqs[cm(i)]
            assert compose(J_EMB, d) == s.h and compose(d, g) == s.k


class TestLiftingStructures:
    def test_identity_family_accepts_everything(self):
        for g in hom_maps(chain(2), chain(2)) + hom_maps(antichain(2), chain(2)):
            fam = GeneratorFamily([identity(chain(3))])
            st = lifting_structure(fam, g)
            assert st is not None

    def test_vee_has_no_filler(self):
        g = bang(vee())
        assert lifting_structure(GeneratorFamily([J_EMB]), g) is None

    def test_diamond_has_structure(self):
        g = bang(DIA)
        st = lifting_structure(GeneratorFamily([J_EMB]), g)
        assert st is not None and st.canonical
        h = MonotoneMap(antichain(2), DIA, [1, 2])
        k = MonotoneMap(DIA, ONE, [0] * 4)
        assert st.fillers[(0, h.assign, k.assign)].assign == (0, 1, 2, 3)

    def test_monotone_in_the_square(self):
        g = bang(DIA)
        st = lifting_structure(GeneratorFamily([J_EMB]), g)
        sqs = squares(J_EMB, g)
        for a in sqs:
            for b in sqs:
                if two_cell(a.h, b.h) and two_cell(a.k, b.k):
                    assert two_cell(
                        st.fillers[(0, a.h.assign, a.k.assign)],
                        st.fillers[(0, b.h.assign, b.k.assign)],
                    )

    def test_no_square_means_an_empty_hom_set(self):
        # with no square, dom g is empty and cod j is not, so the hom set
        # cod j -> dom g is empty before its size guard is read
        small = [p for n in range(3) for p in enumerate_preorders(n)]
        maps = [f for X in small for Y in small for f in hom_maps(X, Y)]
        assert len(maps) == 44
        pairs = [(j, g) for j in maps for g in maps if not squares(j, g)]
        assert len(pairs) == 199
        for j, g in pairs:
            assert g.src.n == 0 < j.tgt.n
            with carrier_bound(0):
                assert monotone_assignments(j.tgt, g.src) == []
            assert lifting_structure(GeneratorFamily([j]), g).fillers == {}


class TestKz:
    def test_identity_generator(self):
        g = MonotoneMap(DIA, chain(2), [0, 0, 1, 1])
        assert kz_orthogonal(identity(DIA), g) is not None

    def test_diamond_target(self):
        w = kz_orthogonal(J_EMB, bang(DIA))
        assert w is not None
        # the section picks the least filler of each square
        homs = hom_maps(DIA, DIA)
        sqs = squares(J_EMB, bang(DIA))
        for i, sq in enumerate(sqs):
            picked = homs[w.left_adjoint(i)]
            fillers = [
                d for d in homs
                if compose(J_EMB, d) == sq.h and compose(d, bang(DIA)) == sq.k
            ]
            assert picked in fillers
            for other in fillers:
                assert two_cell(picked, other)

    def test_vee_target_absent(self):
        assert kz_orthogonal(J_EMB, bang(vee())) is None

    def test_kz_implies_lifting(self):
        # a KZ-lifting operation gives every square a filler, up to
        # pointwise equivalence: found by testing every map cod j -> dom g
        pool = [p for n in range(3) for p in enumerate_preorders(n)]
        checked = 0
        for X in pool:
            for Y in pool:
                for j in hom_maps(X, Y):
                    for g in hom_maps(Y, ONE):
                        if kz_orthogonal(j, g) is None:
                            continue
                        homs = hom_maps(j.tgt, g.src)
                        for sq in squares(j, g):
                            assert any(
                                maps_equivalent(compose(j, d), sq.h)
                                and maps_equivalent(compose(d, g), sq.k)
                                for d in homs
                            )
                            checked += 1
        assert checked

    def test_witness_unique_up_to_equivalence(self):
        g = bang(chain(2))
        cm = canonical_map(J_EMB, g)
        w = kz_orthogonal(J_EMB, g)
        assert w is not None
        # brute force: every section that is a left adjoint agrees
        found = 0
        for s in hom_maps(cm.tgt, cm.src):
            if compose(s, cm) != identity(cm.tgt):
                continue
            if not two_cell(compose(cm, s), identity(cm.src)):
                continue
            assert maps_equivalent(s, w.left_adjoint)
            found += 1
        assert found >= 1

    def test_the_answers_on_the_classes_of_size_2_are_unchanged(self):
        # (section, exact) or None on every pair of the 31 arrow classes of
        # size <= 2, pinned so that no change to the section search moves them
        small = arrow_classes(2)
        rows = []
        for j in small:
            for g in small:
                w = kz_orthogonal(j, g)
                rows.append(None if w is None else (w.left_adjoint.assign, w.exact))
        assert len(rows) == 961
        assert rows.count(None) == 273
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "05d77817908f7d248cefdb977bbd29d91a8b08edca90b3c49cf8b046a80dc4aa"
        )


class TestLinkedFamily:
    def test_a_link_that_the_lexicographic_choice_breaks(self):
        # j1 is the point into antichain(2) at 0, j2 the identity of the
        # point, g is antichain(2) -> the point.  Alone, each square of j1
        # has two incomparable fillers, so the choice is lexicographic;
        # the link 0 -> 1 with u = [0] and v = [0, 0] then asks the filler
        # of j1 on (h, k ∘ v) to be the filler of j2 on (h, k) after v,
        # which the first choice on h = [1] is not.  Run through
        # ``lofs --witness lift`` in process, without the link and with it;
        # no fixture is taken, so tests/test_mutants.py can call it
        point, a2 = chain(1), antichain(2)
        members = [
            formats.map_to_obj(MonotoneMap(point, a2, [0])),
            formats.map_to_obj(identity(point)),
        ]
        link = {"from": 0, "to": 1, "u": {"x0": "x0"}, "v": {"x0": "x0", "x1": "x0"}}
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            g = os.path.join(tmp, "g.json")
            with open(g, "w") as out:
                out.write(formats.dumps(formats.map_to_obj(bang(a2))))
            for links in ([], [link]):
                family = os.path.join(tmp, "family.json")
                with open(family, "w") as out:
                    out.write(formats.dumps({"type": "family", "members": members, "links": links}))
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(["--witness", "lift", family, g])
                runs.append((code, json.loads(stdout.getvalue())))
        (free_code, free), linked = runs
        assert free_code == 0 and (free["exists"], free["canonical"]) == (True, False)
        assert [(d["member"], d["h"], d["k"], d["diagonal"]) for d in free["fillers"]] == [
            (0, [0], [0, 0], [0, 0]),
            (0, [1], [0, 0], [1, 0]),
            (1, [0], [0], [0]),
            (1, [1], [0], [1]),
        ]
        assert linked == (1, {"exists": False})


class TestCoproducts:
    def test_empty_side(self):
        fam = GeneratorFamily([J_EMB])
        assert coproduct_family_check(GeneratorFamily([]), fam, bang(DIA))

    def test_identity_generators(self):
        fam = GeneratorFamily([identity(chain(2))])
        assert coproduct_family_check(fam, fam, bang(DIA))

    def test_mixed_absence(self):
        fam = GeneratorFamily([J_EMB])
        fam_id = GeneratorFamily([identity(antichain(2))])
        assert coproduct_family_check(fam, fam_id, bang(vee()))


class TestCoalgebraAlgebraOrthogonality:
    def test_coalgebra_algebra_pairs_are_kz(self):
        pool = [p for n in range(3) for p in enumerate_preorders(n)]
        fulls = []
        algebras = []
        for X in pool:
            for Y in pool:
                for m in hom_maps(X, Y):
                    if is_full(m):
                        fulls.append(m)
                    if algebra_structure(m) is not None:
                        algebras.append(m)
        # spot check a slice of the full battery (the acceptance suite
        # runs the exhaustive version)
        for f in fulls[:12]:
            s = coalgebra_structure(f)
            for g in algebras[:12]:
                p = algebra_structure(g)
                w = kz_orthogonal(f, g)
                assert w is not None
                homs = hom_maps(f.tgt, g.src)
                for i, sq in enumerate(squares(f, g)):
                    assert maps_equivalent(
                        homs[w.left_adjoint(i)], canonical_diag(sq, s, p)
                    )
