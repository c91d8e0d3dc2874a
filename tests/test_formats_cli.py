import json

import pytest

from lofs import cli, factorisation, formats, suite, topology
from lofs.errors import FormatError, InvariantViolation, SizeLimitExceeded
from lofs.factorisation import factorise, fibrant_replacement
from lofs.lifting import GeneratorFamily
from lofs.order import (
    FinPreorder,
    MonotoneMap,
    antichain,
    carrier_bound,
    chain,
    closure,
    diamond,
    enumerate_preorders,
    identity,
    monotone_assignments,
    squares,
)
from lofs.topology import FiniteSpace, f_lower_star

DIAMOND_OBJ = {
    "type": "preorder",
    "elements": ["bot", "a", "b", "top"],
    "le": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestFormats:
    def test_reader_applies_closure(self):
        p = formats.preorder_from_obj(DIAMOND_OBJ)
        assert p.leq(0, 3)
        assert p == diamond()

    def test_roundtrip(self):
        for n in range(4):
            for p in enumerate_preorders(n):
                again = formats.preorder_from_obj(formats.preorder_to_obj(p))
                assert again == p

    def test_map_roundtrip(self):
        f = MonotoneMap(antichain(2), diamond(), [1, 2])
        again = formats.map_from_obj(formats.map_to_obj(f))
        assert again.assign == f.assign
        assert again.src == f.src and again.tgt == f.tgt

    def test_space_type(self):
        obj = dict(DIAMOND_OBJ, type="space")
        sp = formats.space_from_obj(obj)
        assert isinstance(sp, FiniteSpace) and sp.points == diamond()

    def test_rejects_bad_documents(self):
        with pytest.raises(FormatError):
            formats.preorder_from_obj({"type": "preorder", "elements": ["a", "a"]})
        with pytest.raises(FormatError):
            formats.document_from_obj({"type": "mystery"})
        with pytest.raises(FormatError):
            formats.map_from_obj(
                {
                    "type": "map",
                    "source": {"type": "preorder", "elements": ["a"], "le": []},
                    "target": {"type": "preorder", "elements": ["b"], "le": []},
                    "assign": {},
                }
            )

    def test_family_from_array(self):
        f_obj = formats.map_to_obj(identity(chain(2)))
        fam = formats.family_from_obj([f_obj, f_obj])
        assert isinstance(fam, GeneratorFamily) and len(fam.members) == 2

    def test_map_source_by_path(self, tmp_path):
        src = write(tmp_path, "src.json", formats.preorder_to_obj(chain(2)))
        obj = {
            "type": "map",
            "source": "src.json",
            "target": formats.preorder_to_obj(chain(2)),
            "assign": {"x0": "x0", "x1": "x1"},
        }
        path = write(tmp_path, "map.json", obj)
        f = formats.load_document(path)
        assert f == identity(chain(2))

    def test_dot_output(self):
        text = formats.hasse_dot(formats.preorder_from_obj(DIAMOND_OBJ))
        assert text.startswith("digraph hasse {")
        assert 'n0 [label="bot"];' in text
        assert "n0 -> n1;" in text and "n0 -> n3;" not in text
        # stable across calls
        assert text == formats.hasse_dot(formats.preorder_from_obj(DIAMOND_OBJ))

    def test_dot_classes(self):
        p = closure(3, [(0, 1), (1, 0), (1, 2)])
        text = formats.hasse_dot(p)
        assert 'label="x0,x1"' in text


class TestCli:
    def test_check_exit_codes(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", DIAMOND_OBJ)
        a2 = write(
            tmp_path,
            "a2.json",
            {"type": "preorder", "elements": ["a", "b"], "le": []},
        )
        assert cli.main(["check", "complete-lattice", d]) == 0
        assert cli.main(["check", "complete-lattice", a2]) == 1
        out = capsys.readouterr().out
        assert '"result": true' in out and '"result": false' in out

    def test_witness_flag(self, tmp_path, capsys):
        v = write(
            tmp_path,
            "vee.json",
            {
                "type": "preorder",
                "elements": ["a", "b", "t"],
                "le": [["a", "t"], ["b", "t"]],
            },
        )
        assert cli.main(["--witness", "check", "complete-lattice", v]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"] == {"subset-without-sup": []}

    def test_top_coalgebra_witness_builds_the_direct_image_once(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def counted(f):
            calls.append(f)
            return f_lower_star(f)

        monkeypatch.setattr(topology, "f_lower_star", counted)
        monkeypatch.setattr(cli, "f_lower_star", counted)
        f = MonotoneMap(chain(2), chain(1), [0, 0])  # not an embedding
        path = write(tmp_path, "f.json", formats.map_to_obj(f))
        assert cli.main(["--witness", "check", "top-coalgebra", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"] == {"images-related": ["x1", "x0"], "sources-unrelated": True}
        assert len(calls) == 1

    def test_factor_matches_library(self, tmp_path, capsys):
        f = MonotoneMap(chain(1), chain(2), [1])
        path = write(tmp_path, "f.json", formats.map_to_obj(f))
        assert cli.main(["factor", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        fact = factorise(f)
        K = formats.preorder_from_obj(payload["K"])
        assert K == fact.K
        lam = formats.map_from_obj(payload["lambda"])
        assert lam.assign == fact.lam.assign
        rho = formats.map_from_obj(payload["rho"])
        assert rho.assign == fact.rho.assign

    def test_fibrant(self, tmp_path, capsys):
        a2 = write(
            tmp_path,
            "a2.json",
            {"type": "preorder", "elements": ["a", "b"], "le": []},
        )
        assert cli.main(["fibrant", a2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["object"]["elements"]) == 4

    def test_lift_and_kz(self, tmp_path, capsys):
        j = MonotoneMap(antichain(2), diamond(), [1, 2])
        jp = write(tmp_path, "j.json", formats.map_to_obj(j))
        fam = write(tmp_path, "fam.json", [formats.map_to_obj(j)])
        good = write(
            tmp_path,
            "good.json",
            formats.map_to_obj(MonotoneMap(diamond(), chain(1), [0] * 4)),
        )
        bad_target = closure(3, [(0, 2), (1, 2)])
        bad = write(
            tmp_path,
            "bad.json",
            formats.map_to_obj(MonotoneMap(bad_target, chain(1), [0] * 3)),
        )
        assert cli.main(["lift", fam, good]) == 0
        assert cli.main(["lift", fam, bad]) == 1
        assert cli.main(["kz", jp, good]) == 0
        assert cli.main(["kz", jp, bad]) == 1
        capsys.readouterr()

    def test_kan_injective_and_classify(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", DIAMOND_OBJ)
        a2 = write(
            tmp_path,
            "a2.json",
            {"type": "preorder", "elements": ["a", "b"], "le": []},
        )
        j = MonotoneMap(antichain(2), diamond(), [1, 2])
        fam = write(tmp_path, "fam.json", [formats.map_to_obj(j)])
        assert cli.main(["kan-injective", d, fam]) == 0
        assert cli.main(["kan-injective", a2, fam]) == 1
        capsys.readouterr()
        assert cli.main(["classify", "--max-size", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 5  # classes of size <= 2
        assert all(r["kan-injective"] == r["complete-lattice"] for r in payload)
        # the empty preorder alone: not complete, and not Kan injective
        # for the default family, which holds ∅ -> 1
        assert cli.main(["classify", "--max-size", "0"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["preorder"]["elements"] == []
        assert (row["kan-injective"], row["complete-lattice"]) == (False, False)

    def test_kan_injective_honours_max_carrier(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", DIAMOND_OBJ)
        a2 = write(tmp_path, "a2.json", formats.preorder_to_obj(antichain(2)))
        fam = write(tmp_path, "fam.json", [formats.map_to_obj(identity(chain(1)))])
        # the bound holds over the complete diamond as over the antichain
        for obj in (d, a2):
            assert cli.main(["--max-carrier", "1", "kan-injective", obj, fam]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("lofs: ") and out.err.endswith(" exceeds the bound 1\n")
        c6 = write(tmp_path, "c6.json", formats.preorder_to_obj(chain(6)))
        a5 = write(tmp_path, "a5.json", [formats.map_to_obj(identity(antichain(5)))])
        assert cli.main(["kan-injective", c6, a5]) == 2
        assert capsys.readouterr().err == "lofs: 6^5 candidate maps: 7776 exceeds the bound 4096\n"
        assert cli.main(["--max-carrier", "7776", "kan-injective", c6, a5]) == 0
        assert json.loads(capsys.readouterr().out) == {"kan-injective": True}

    def test_top_coalgebra_honours_a_smaller_max_carrier(self, tmp_path, capsys):
        # the opens of the 5-point discrete space are its 32 subsets
        path = write(tmp_path, "f.json", formats.map_to_obj(identity(antichain(5))))
        assert cli.main(["--max-carrier", "8", "check", "top-coalgebra", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "lofs: down-sets of a 5-element preorder: 16 exceeds the bound 8\n"
        assert cli.main(["check", "top-coalgebra", path]) == 0

    def test_top_coalgebra_honours_a_larger_max_carrier(self, tmp_path, capsys):
        # 2^13 = 8192 opens: above the default bound, within 10000
        f = MonotoneMap(antichain(13), chain(1), [0] * 13)
        path = write(tmp_path, "f.json", formats.map_to_obj(f))
        assert cli.main(["check", "top-coalgebra", path]) == 2
        assert capsys.readouterr().err == (
            "lofs: down-sets of a 13-element preorder: 8192 exceeds the bound 4096\n"
        )
        assert cli.main(["--max-carrier", "10000", "check", "top-coalgebra", path]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out) == {"predicate": "top-coalgebra", "result": False}
        assert out.err == ""

    def test_the_bound_of_one_command_ends_with_it(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", formats.map_to_obj(identity(chain(3))))
        assert cli.main(["--max-carrier", "1", "factor", path]) == 2
        capsys.readouterr()
        assert factorise(identity(chain(3))).K.n == 9
        assert len(monotone_assignments(chain(5), chain(5))) == 126

    def test_lift_and_kz_trip_the_hom_set_guard_first(self, tmp_path, capsys):
        # at the bound 8 the hom set cod j -> dom g has 3^3 candidates and
        # the pair has 12 commuting squares, so both guards would fire;
        # every lifting command enumerates the hom set first
        j = MonotoneMap(antichain(1), antichain(3), [0])
        g = MonotoneMap(antichain(3), antichain(2), [0, 0, 1])
        jp = write(tmp_path, "j.json", formats.map_to_obj(j))
        gp = write(tmp_path, "g.json", formats.map_to_obj(g))
        fam = write(tmp_path, "fam.json", [formats.map_to_obj(j)])
        with carrier_bound(8), pytest.raises(
            SizeLimitExceeded, match=r"^commuting squares: 12 exceeds the bound 8$"
        ):
            squares(j, g)
        for argv in (["lift", fam, gp], ["--witness", "lift", fam, gp], ["kz", jp, gp]):
            assert cli.main(["--max-carrier", "8"] + argv) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "lofs: 3^3 candidate maps: 27 exceeds the bound 8\n"

    def test_classify_honours_max_carrier(self, capsys):
        assert cli.main(["--max-carrier", "1", "classify", "--max-size", "3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "lofs: 2^1 candidate maps: 2 exceeds the bound 1\n"
        assert cli.main(["classify", "--max-size", "3"]) == 0
        default = capsys.readouterr().out
        assert cli.main(["--max-carrier", "4096", "classify", "--max-size", "3"]) == 0
        assert capsys.readouterr().out == default

    def test_filter_space(self, tmp_path, capsys):
        sp = write(
            tmp_path,
            "sp.json",
            {"type": "space", "elements": ["x"], "le": []},
        )
        assert cli.main(["filter-space", sp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["filters"]["elements"]) == 2

    def test_enumerate_and_dot(self, tmp_path, capsys):
        assert cli.main(["enumerate", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3
        d = write(tmp_path, "d.json", DIAMOND_OBJ)
        assert cli.main(["dot", d]) == 0
        first = capsys.readouterr().out
        cli.main(["dot", d])
        assert capsys.readouterr().out == first

    def test_validate(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", DIAMOND_OBJ)
        assert cli.main(["validate", d]) == 0
        bad = write(tmp_path, "bad.json", {"type": "nope"})
        assert cli.main(["validate", bad]) == 3
        capsys.readouterr()

    def test_io_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert cli.main(["check", "poset", missing]) == 2
        capsys.readouterr()

    def test_suite_single_criterion(self, capsys):
        assert cli.main(["suite", "--criteria", "11"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS  11 enumeration-counts")

    @pytest.mark.parametrize(
        "criteria, named",
        [("99", "'99'"), (",", "''"), ("1,99", "'99'"), ("", "''"), ("99,x,99", "'99', 'x'")],
    )
    def test_suite_rejects_unknown_criteria_before_running_any(
        self, criteria, named, monkeypatch, capsys
    ):
        def never():
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(suite, "CRITERIA", [(name, never) for name, _ in suite.CRITERIA])
        assert cli.main(["suite", "--criteria", criteria]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"lofs: unknown criteria: {named}\n"

    def test_an_adjoint_missing_exits_2(self, monkeypatch, capsys):
        # the multiplication of criterion 6 finds no left adjoint
        monkeypatch.setattr(factorisation, "find_left_adjoint", lambda f: None)
        assert cli.main(["suite", "--criteria", "6"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "lofs: multiplication adjoint missing: this is a bug\n"


def labelled_preorders(max_n, names):
    """Every labeled preorder of size <= max_n, its elements named from ``names``."""
    return [
        FinPreorder(P.n, P.up, names[: P.n])
        for n in range(max_n + 1)
        for P in enumerate_preorders(n, up_to_iso=False)
    ]


def carrier_dot_reference(fact):
    """The carrier's DOT text through a JSON round trip of the factorisation."""
    return formats.hasse_dot(formats.preorder_from_obj(formats.factorisation_to_obj(fact)["K"]))


class TestCliRendering:
    """``factor`` and ``fibrant`` print what the JSON round trip gives."""

    POINT = FinPreorder(1, (1,), ("pt",))

    def test_factor_dot(self, tmp_path, capsys):
        maps = 0
        for X in labelled_preorders(2, "ab"):
            for Y in labelled_preorders(2, "uv"):
                for assign in monotone_assignments(X, Y):
                    f = MonotoneMap(X, Y, assign)
                    path = write(tmp_path, "f.json", formats.map_to_obj(f))
                    assert cli.main(["--format", "dot", "factor", path]) == 0
                    assert capsys.readouterr().out == carrier_dot_reference(factorise(f))
                    maps += 1
        assert maps == 69  # every monotone map between labeled preorders of size <= 2

    def test_fibrant_dot(self, tmp_path, capsys):
        for A in labelled_preorders(2, "ab"):
            path = write(tmp_path, "a.json", formats.preorder_to_obj(A))
            fact = factorise(MonotoneMap(A, self.POINT, [0] * A.n))
            assert cli.main(["--format", "dot", "fibrant", path]) == 0
            assert capsys.readouterr().out == carrier_dot_reference(fact)

    def test_fibrant_iso_is_the_library_iso(self, tmp_path, capsys):
        for A in labelled_preorders(4, "abcd"):
            path = write(tmp_path, "a.json", formats.preorder_to_obj(A))
            assert cli.main(["fibrant", path]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["downset-iso"]["assign"] == list(fibrant_replacement(A)[2].assign)
            fact = factorise(MonotoneMap(A, self.POINT, [0] * A.n))
            obj = formats.factorisation_to_obj(fact)
            assert payload["object"] == obj["K"] and payload["unit"] == obj["lambda"]

    def test_factor_renders_the_carrier_once(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "f.json", {
            "type": "map", "source": DIAMOND_OBJ, "target": formats.preorder_to_obj(self.POINT),
            "assign": {e: "pt" for e in DIAMOND_OBJ["elements"]},
        })
        expected = formats.dumps(formats.factorisation_to_obj(factorise(formats.load_document(f))))
        sizes = []
        render = formats.preorder_to_obj

        def counted(P, type_name="preorder"):
            sizes.append(P.n)
            return render(P, type_name)

        monkeypatch.setattr(formats, "preorder_to_obj", counted)
        assert cli.main(["factor", f]) == 0
        assert capsys.readouterr().out == expected
        assert sizes == [6, 4, 1]  # K once, then dom f and cod f

    def test_factorisation_legs_are_rendered_without_validation(self, monkeypatch):
        facts = [
            factorise(MonotoneMap(X, Y, assign))
            for X in labelled_preorders(2, "ab")
            for Y in labelled_preorders(2, "uv")
            for assign in monotone_assignments(X, Y)
        ]
        expected = []
        for fact in facts:
            K = formats.labelled_carrier(fact)
            expected.append({
                "K": formats.preorder_to_obj(K),
                "lambda": formats.map_to_obj(MonotoneMap(fact.f.src, K, fact.lam.assign)),
                "rho": formats.map_to_obj(MonotoneMap(K, fact.f.tgt, fact.rho.assign)),
            })
        # the legs were validated by factorise; building a map again would fail here
        monkeypatch.setattr(formats, "MonotoneMap", None)
        assert [formats.factorisation_to_obj(fact) for fact in facts] == expected

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", DIAMOND_OBJ)
        a2 = write(tmp_path, "a2.json", formats.preorder_to_obj(antichain(2)))
        f = write(tmp_path, "f.json", formats.map_to_obj(MonotoneMap(antichain(2), chain(2), [0, 1])))
        argvs = [
            ["--witness", "check", "complete-lattice", a2],
            ["check", "complete-lattice", a2],
            ["--witness", "check", "full", f],
            ["check", "full", f],
            ["--format", "dot", "factor", f],
            ["factor", f],
            ["--witness", "--format", "dot", "fibrant", d],
            ["fibrant", d],
            ["classify", "--max-size", "2"],
            ["--max-size", "1", "classify"],
            ["enumerate", "2", "--posets-only", "--labeled"],
            ["enumerate", "2"],
            ["dot", d],
        ]
        expected = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            expected.append((cli.main(argv), capsys.readouterr().out))
        cli.build_parser.cache_clear()
        got = [(cli.main(argv), capsys.readouterr().out) for argv in argvs + argvs[::-1]]
        assert got == expected + expected[::-1]
        assert cli.build_parser.cache_info().misses == 1


class TestCliContract:
    """Malformed documents end in exit 3 with nothing on stdout."""

    POINT = {"type": "preorder", "elements": ["a"], "le": []}

    def assert_invalid(self, path, capsys):
        assert cli.main(["validate", path]) == 3
        assert capsys.readouterr().out == ""

    def test_map_whose_source_is_itself(self, tmp_path, capsys):
        obj = {"type": "map", "source": "m.json", "target": self.POINT, "assign": {"a": "a"}}
        self.assert_invalid(write(tmp_path, "m.json", obj), capsys)

    def test_reference_cycle_through_two_files(self, tmp_path, capsys):
        for name, other in (("a.json", "b.json"), ("b.json", "a.json")):
            obj = {"type": "map", "source": other, "target": self.POINT, "assign": {"a": "a"}}
            write(tmp_path, name, obj)
        self.assert_invalid(str(tmp_path / "a.json"), capsys)

    def test_file_named_twice_is_not_a_cycle(self, tmp_path, capsys):
        write(tmp_path, "p.json", self.POINT)
        obj = {"type": "map", "source": "p.json", "target": "p.json", "assign": {"a": "a"}}
        path = write(tmp_path, "m.json", obj)
        assert cli.main(["validate", path]) == 0
        capsys.readouterr()

    def test_non_string_le_entry(self, tmp_path, capsys):
        obj = {"type": "preorder", "elements": ["a", "b"], "le": [[["a"], "b"]]}
        self.assert_invalid(write(tmp_path, "p.json", obj), capsys)

    def test_non_string_assign_value(self, tmp_path, capsys):
        obj = {
            "type": "map",
            "source": self.POINT,
            "target": {"type": "preorder", "elements": ["b"], "le": []},
            "assign": {"a": ["b"]},
        }
        self.assert_invalid(write(tmp_path, "m.json", obj), capsys)

    def test_family_members_not_a_list(self, tmp_path, capsys):
        obj = {"type": "family", "members": 5}
        self.assert_invalid(write(tmp_path, "fam.json", obj), capsys)

    def test_boolean_link_endpoint(self, tmp_path, capsys):
        two = {"type": "preorder", "elements": ["a", "b"], "le": [["a", "b"]]}
        ident = {"type": "map", "source": two, "target": two, "assign": {"a": "a", "b": "b"}}
        legs = {"a": "a", "b": "b"}
        obj = {
            "type": "family",
            "members": [ident, ident],
            "links": [{"from": 1, "to": 0, "u": legs, "v": legs}],
        }
        assert cli.main(["validate", write(tmp_path, "ok.json", obj)]) == 0
        capsys.readouterr()
        obj["links"][0].update({"from": True, "to": False})
        self.assert_invalid(write(tmp_path, "fam.json", obj), capsys)

    def test_kan_injective_family_of_the_wrong_kind(self, tmp_path, capsys):
        obj = write(tmp_path, "d.json", DIAMOND_OBJ)
        j = MonotoneMap(antichain(2), diamond(), [1, 2])
        for name, doc in (
            ("two.json", {"type": "preorder", "elements": ["a", "b"], "le": []}),
            ("map.json", formats.map_to_obj(j)),
        ):
            assert cli.main(["kan-injective", obj, write(tmp_path, name, doc)]) == 3
            assert capsys.readouterr().out == ""

    def test_every_file_command_with_every_document_kind(self, tmp_path, capsys):
        j = MonotoneMap(antichain(2), diamond(), [1, 2])
        docs = [
            write(tmp_path, name, doc)
            for name, doc in (
                ("preorder.json", DIAMOND_OBJ),
                ("space.json", formats.preorder_to_obj(chain(2), "space")),
                ("map.json", formats.map_to_obj(j)),
                ("family.json", [formats.map_to_obj(j)]),
            )
        ]
        one_file = [["validate"], ["factor"], ["fibrant"], ["filter-space"], ["dot"]]
        one_file += [["check", predicate] for predicate in sorted(cli._CHECKS)]
        argvs = [command + [a] for command in one_file for a in docs]
        argvs += [
            [command, a, b]
            for command in ("lift", "kz", "kan-injective")
            for a in docs
            for b in docs
        ]
        runs = 0
        for flags in ([], ["--witness"], ["--format", "dot"]):
            for argv in argvs:
                try:
                    code = cli.main(flags + argv)
                except Exception as exc:  # the contract allows none
                    pytest.fail(f"{flags + argv} raised {exc!r}")
                out = capsys.readouterr().out
                assert code in (0, 1, 2, 3), flags + argv
                assert code < 2 or out == "", flags + argv
                runs += 1
        assert runs == 3 * (11 * 4 + 3 * 16)

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_bytes(b'\xff\xfe{"type": "preorder"}')
        self.assert_invalid(str(path), capsys)

    def test_enumerate_negative_size_and_bound(self, capsys):
        for up_to_iso in (True, False):
            for posets_only in (False, True):
                with pytest.raises(InvariantViolation, match=r"^need -1 relation rows, got 0$"):
                    enumerate_preorders(-1, up_to_iso, posets_only)
                with pytest.raises(SizeLimitExceeded, match=r"^enumeration size: 6 exceeds the bound 5$"):
                    enumerate_preorders(6, up_to_iso, posets_only)
        assert cli.main(["enumerate", "--", "-1"]) == 3
        assert capsys.readouterr().out == ""
        assert cli.main(["enumerate", "6"]) == 2
        assert capsys.readouterr().out == ""

    def test_classify_honours_global_max_size(self, capsys):
        counts = []
        for argv in (
            ["--max-size", "3", "classify"],
            ["classify"],
            ["classify", "--max-size", "3"],
        ):
            assert cli.main(argv) == 0
            counts.append(len(json.loads(capsys.readouterr().out)))
        assert counts == [14, 47, 14]  # preorder classes of size <= 3, <= 4, <= 3
        # the global bound is the enumeration bound of every size classify meets
        for argv in (
            ["--max-size", "2", "classify", "--max-size", "4"],
            ["--max-size", "2", "classify", "--max-size", "4", "--generator-size", "1"],
        ):
            assert cli.main(argv) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "lofs: enumeration size: 3 exceeds the bound 2\n"
        # at size 0 the default family still reaches size 1
        assert cli.main(["--max-size", "0", "classify"]) == 2
        assert capsys.readouterr().err == "lofs: enumeration size: 1 exceeds the bound 0\n"
        assert cli.main(["--max-size", "6", "classify"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 904  # preorder classes of size <= 6
        assert all(r["kan-injective"] == r["complete-lattice"] for r in rows)
        assert cli.main(["classify", "--max-size", "8"]) == 2
        assert capsys.readouterr().err == "lofs: enumeration size: 6 exceeds the bound 5\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--max-carrier", "30", "suite", "--criteria", "2,3,4"],
                "down-sets of a 5-element preorder: 32 exceeds the bound 30",
            ),
            (
                ["--max-size", "4", "suite", "--criteria", "2,3"],
                "enumeration size: 5 exceeds the bound 4",
            ),
        ],
    )
    def test_suite_stopped_by_a_later_guard_prints_nothing(self, argv, message, capsys):
        # criterion 2 passes first; its line is held back, as every exit 2 prints none
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"lofs: {message}\n"
