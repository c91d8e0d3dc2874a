import ast
import importlib
import itertools
import pathlib
import pickle
import pkgutil
import random
from operator import itemgetter

import pytest

import lofs
from lofs import cli, formats
from lofs.adjunction import find_left_adjoint, find_right_adjoint
from lofs.downsets import downsets, unit
from lofs.errors import (
    IndexOutOfRange,
    InvariantViolation,
    ShapeMismatch,
    SizeLimitExceeded,
)
from lofs.factorisation import (
    algebra_structure,
    canonical_diag,
    coalgebra_structure,
    factorise,
)
from lofs.lifting import GeneratorFamily, canonical_map, kz_orthogonal, lifting_structure
from lofs.order import (
    DEFAULT_MAX_CARRIER,
    FinPreorder,
    MonotoneMap,
    Square,
    _hom_rows,
    _transpose,
    antichain,
    canonical_form,
    canonical_key,
    carrier_bound,
    chain,
    closure,
    compose,
    diamond,
    down_set_masks,
    enumerate_preorders,
    hom_maps,
    identity,
    indiscrete,
    is_complete_lattice,
    is_full,
    monotone_assignments,
    size_bound,
    squares,
    sup_mask,
    two_cell,
    vee,
)
from lofs.topology import (
    FiniteSpace,
    _open_lattice,
    f_lower_star,
    filter_map,
    filter_mult,
    filter_unit,
    scott_opens,
)
from oracles import arrow_classes, is_isomorphic, reps, under


def naive_labeled_preorders(n, posets_only):
    """The brute-force generator: every relation matrix that is a preorder.

    All 2^(n(n-1)) choices of off-diagonal bits, rows ascending, kept when
    transitive (and antisymmetric with ``posets_only``).
    """
    row_choices = []
    for i in range(n):
        rest = [1 << j for j in range(n) if j != i]
        opts = []
        for picks in itertools.product([0, 1], repeat=n - 1):
            row = 1 << i
            for bit, on in zip(rest, picks):
                if on:
                    row |= bit
            opts.append(row)
        opts.sort()
        row_choices.append(opts)
    for rows in itertools.product(*row_choices):
        if any(
            (rows[i] >> j) & 1 and rows[j] & ~rows[i]
            for i in range(n)
            for j in range(n)
        ):
            continue
        if posets_only and any(
            (rows[i] >> j) & (rows[j] >> i) & 1
            for i in range(n)
            for j in range(i + 1, n)
        ):
            continue
        yield FinPreorder(n, rows)


def naive_enumerate(n, up_to_iso, posets_only):
    """Filter every matrix, then keep one canonical form per canonical key."""
    found = list(naive_labeled_preorders(n, posets_only))
    if not up_to_iso:
        found.sort(key=lambda p: p.up)
        return tuple(found)
    classes = {}
    for p in found:
        classes.setdefault(canonical_key(p), canonical_form(p))
    return tuple(classes[k] for k in sorted(classes))


def hom_preorder(X, Y):
    """The maps X -> Y ordered pointwise: the comparison map's source for id X, id Y."""
    return canonical_map(identity(X), identity(Y)).src


def square_preorder(j, g):
    """The preorder of the squares j -> g: the comparison map's target."""
    return canonical_map(j, g).tgt


def pairwise_rows(vectors, leqs):
    """The pointwise order by comparing every pair, coordinate by coordinate."""
    rows = []
    for a in vectors:
        r = 0
        for idx, b in enumerate(vectors):
            if all(leq(x, y) for leq, x, y in zip(leqs, a, b)):
                r |= 1 << idx
        rows.append(r)
    return rows


class TestClosure:
    def test_empty_pairs_gives_antichain(self):
        assert closure(2, []) == antichain(2)

    def test_single_pair_gives_chain(self):
        assert closure(2, [(0, 1)]) == chain(2)

    def test_transitivity_forced(self):
        p = closure(3, [(0, 1), (1, 2)])
        assert p.leq(0, 2)
        assert p == chain(3)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            closure(2, [(0, 5)])

    def test_idempotent(self):
        for pairs in [[], [(0, 1)], [(0, 1), (1, 2), (2, 0)], [(2, 0), (1, 1)]]:
            once = closure(3, pairs)
            again = closure(3, once.pairs())
            assert once == again


class TestMaps:
    def test_identity_laws(self):
        f = MonotoneMap(chain(2), chain(3), [0, 2])
        assert compose(identity(chain(2)), f) == f
        assert compose(f, identity(chain(3))) == f

    def test_through_singleton(self):
        one = chain(1)
        up = MonotoneMap(one, chain(2), [1])
        down = MonotoneMap(chain(2), one, [0, 0])
        assert compose(up, down) == identity(one)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compose(identity(chain(2)), identity(chain(3)))

    def test_not_monotone_rejected(self):
        with pytest.raises(InvariantViolation):
            MonotoneMap(chain(2), chain(2), [1, 0])

    def test_non_integer_value_rejected(self):
        for assign, index in (([0.5, 1], 0), ([1.0, 1], 0), ([0, "b"], 1)):
            with pytest.raises(InvariantViolation, match=rf"assign\[{index}\]=.* is not an integer"):
                MonotoneMap(chain(2), chain(2), assign)

    def test_the_hash_is_the_hash_of_the_fields(self):
        # computed on first use, for a validated and a trusted map alike
        for X in reps(2):
            for Y in reps(2):
                for a in monotone_assignments(X, Y):
                    valid, trusted = MonotoneMap(X, Y, a), MonotoneMap._checked(X, Y, a)
                    for m in (valid, trusted):
                        assert hash(m) == hash((m.src, m.tgt, m.assign))
                    assert valid == trusted and hash(valid) == hash(trusted)

    def test_two_cell(self):
        one = chain(1)
        c0 = MonotoneMap(one, chain(2), [0])
        c1 = MonotoneMap(one, chain(2), [1])
        assert two_cell(c0, c0)
        assert two_cell(c0, c1) and not two_cell(c1, c0)
        a0 = MonotoneMap(one, antichain(2), [0])
        a1 = MonotoneMap(one, antichain(2), [1])
        assert not two_cell(a0, a1)
        with pytest.raises(ShapeMismatch):
            two_cell(c0, a0)


class TestHomPoset:
    def test_from_point(self):
        assert is_isomorphic(hom_preorder(chain(1), chain(2)), chain(2))

    def test_chain_to_chain(self):
        # brute-force oracle: 3 of the 4 assignments are monotone
        c2 = chain(2)
        naive = [
            a
            for a in itertools.product(range(2), repeat=2)
            if not (a[0] > a[1])
        ]
        assert len(naive) == 3
        assert monotone_assignments(c2, c2) == [(0, 0), (0, 1), (1, 1)]
        assert is_isomorphic(hom_preorder(c2, c2), chain(3))

    def test_to_terminal(self):
        assert is_isomorphic(hom_preorder(antichain(2), chain(1)), chain(1))

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded, match=r"^4\^3 candidate maps: 64 exceeds the bound 8$"):
            under(8, hom_preorder, antichain(3), diamond())

    def test_point_hom_recovers_object(self):
        for Y in reps(4):
            assert is_isomorphic(hom_preorder(chain(1), Y), Y)

    def test_two_cell_agrees_with_hom_order(self):
        for X in reps(2):
            for Y in reps(2):
                maps = hom_maps(X, Y)
                hp = hom_preorder(X, Y)
                for i, f in enumerate(maps):
                    for j, g in enumerate(maps):
                        assert hp.leq(i, j) == two_cell(f, g)


class TestSquares:
    def test_identity_j_matches_hom(self):
        g = MonotoneMap(diamond(), chain(2), [0, 0, 1, 1])
        sq = square_preorder(identity(diamond()), g)
        assert sq.n == len(hom_maps(diamond(), diamond()))

    def test_membership_by_evaluation(self):
        j = MonotoneMap(antichain(2), diamond(), [1, 2])
        g = MonotoneMap(vee(), chain(1), [0, 0, 0])
        h = MonotoneMap(antichain(2), vee(), [0, 1])
        k = MonotoneMap(diamond(), chain(1), [0] * 4)
        found = squares(j, g)
        assert any(s.h == h and s.k == k for s in found)
        for s in found:
            assert compose(s.h, g) == compose(j, s.k)

    def test_terminal_g(self):
        j = MonotoneMap(antichain(2), diamond(), [1, 2])
        assert square_preorder(j, identity(chain(1))).n == 1


def reversed_leq(Y):
    """Y's relation read backwards, whose pointwise rows are the down rows."""
    return lambda a, b: Y.leq(b, a)


class TestPointwiseRows:
    def test_hom_poset_matches_pairwise(self):
        for X in reps(3):
            for Y in reps(3):
                assigns = monotone_assignments(X, Y)
                order = hom_preorder(X, Y)
                # the rows come from the hom-rows memo, built once per key
                assert order.up is _hom_rows(X, Y, DEFAULT_MAX_CARRIER)
                assert list(order.up) == pairwise_rows(assigns, [Y.leq] * X.n)
                assert list(order.down) == pairwise_rows(assigns, [reversed_leq(Y)] * X.n)

    def test_sq_hom_poset_matches_pairwise(self):
        # every class of size <= 3 meets a quarter of the classes of size
        # <= 2 on each side, and every 29th class of size <= 3 meets every 29th
        small, large = arrow_classes(2), arrow_classes(3)
        mixed = [(a, b) for a in large for b in small]
        pairs = mixed[::4] + [(b, a) for a, b in mixed[2::4]]
        pairs += [(j, g) for j in large[::29] for g in large[::29]]
        for j, g in pairs:
            sqs = squares(j, g)
            vectors = [s.h.assign + s.k.assign for s in sqs]
            coords = [g.src] * j.src.n + [g.tgt] * j.tgt.n
            order = square_preorder(j, g)
            assert list(order.up) == pairwise_rows(vectors, [Y.leq for Y in coords])
            assert list(order.down) == pairwise_rows(vectors, [reversed_leq(Y) for Y in coords])


def cli_check(tmp_path, capsys, predicate, obj):
    """The exit code of ``lofs check`` on ``obj``, whose verdict it prints."""
    path = tmp_path / "doc.json"
    path.write_text(formats.dumps(obj))
    code = cli.main(["check", predicate, str(path)])
    out = capsys.readouterr().out
    assert out == formats.dumps({"predicate": predicate, "result": code == 0})
    return code


class TestPredicates:
    def test_complete_lattice_examples(self):
        assert is_complete_lattice(diamond())
        assert not is_complete_lattice(antichain(2))
        assert not is_complete_lattice(vee())
        assert not is_complete_lattice(chain(0))
        assert is_complete_lattice(indiscrete(2))  # sups up to equivalence

    def test_full_examples(self):
        assert not is_full(MonotoneMap(antichain(2), chain(2), [0, 1]))
        assert is_full(MonotoneMap(chain(2), chain(3), [0, 2]))
        assert is_full(identity(vee()))

    def test_full_class_closure(self):
        # closed under composition; left-cancellable on the first factor
        pool = reps(2)
        for X in pool:
            for Y in pool:
                for f in hom_maps(X, Y):
                    for Z in pool:
                        for g in hom_maps(Y, Z):
                            gf = compose(f, g)
                            if is_full(f) and is_full(g):
                                assert is_full(gf)
                            if is_full(gf):
                                assert is_full(f)

    def test_order_embedding_examples(self, tmp_path, capsys):
        for assign, Y, code in (([1, 2], diamond(), 0), ([0, 1], chain(2), 1)):
            obj = formats.map_to_obj(MonotoneMap(antichain(2), Y, assign))
            assert cli_check(tmp_path, capsys, "order-embedding", obj) == code

    def test_poset(self, tmp_path, capsys):
        for P, code in ((diamond(), 0), (indiscrete(2), 1)):
            obj = formats.preorder_to_obj(P)
            assert cli_check(tmp_path, capsys, "poset", obj) == code

    def test_sup_mask(self):
        d = diamond()
        assert sup_mask(d, 0b0110) == 3
        assert sup_mask(d, 0) == 0
        assert sup_mask(antichain(2), 0b11) is None


class TestDownSets:
    def test_masks_match_naive_filter(self):
        for X in reps(4):
            naive = []
            for mask in range(1 << X.n):
                if all(
                    not ((mask >> j) & 1) or all(
                        (mask >> i) & 1 for i in range(X.n) if X.leq(i, j)
                    )
                    for j in range(X.n)
                ):
                    naive.append(mask)
            assert list(down_set_masks(X)) == naive


class TestEnumeration:
    def test_published_counts(self):
        def counts(top, **kw):
            return [len(enumerate_preorders(n, **kw)) for n in range(top + 1)]

        with size_bound(6):
            assert counts(6) == [1, 1, 3, 9, 33, 139, 718]  # A001930
            assert counts(6, posets_only=True) == [1, 1, 2, 5, 16, 63, 318]  # A000112
        assert counts(5, up_to_iso=False) == [1, 1, 4, 29, 355, 6942]  # A000798
        assert counts(5, up_to_iso=False, posets_only=True) == [
            1, 1, 3, 19, 219, 4231,
        ]  # A001035

    def test_matches_brute_force_oracle(self):
        for n in range(5):
            for up_to_iso in (True, False):
                for posets_only in (False, True):
                    got = enumerate_preorders(n, up_to_iso, posets_only)
                    expected = naive_enumerate(n, up_to_iso, posets_only)
                    assert [(p.n, p.up, p.labels) for p in got] == [
                        (p.n, p.up, p.labels) for p in expected
                    ]

    def test_empty_case(self):
        assert len(enumerate_preorders(0)) == 1

    def test_bound(self):
        with pytest.raises(SizeLimitExceeded):
            enumerate_preorders(6)

    def test_bound_is_checked_on_every_call(self):
        with size_bound(6):
            assert len(enumerate_preorders(6)) == 718
        with pytest.raises(SizeLimitExceeded, match=r"^enumeration size: 6 exceeds the bound 5$"):
            enumerate_preorders(6)
        with size_bound(3), pytest.raises(
            SizeLimitExceeded, match=r"^enumeration size: 4 exceeds the bound 3$"
        ):
            enumerate_preorders(4)
        assert len(enumerate_preorders(4)) == 33

    def test_equal_requests_share_one_result(self):
        # one memo entry per (n, up_to_iso, posets_only), however spelled
        first = enumerate_preorders(4)
        assert enumerate_preorders(4, posets_only=False) is first
        assert enumerate_preorders(4, True, False) is first
        with size_bound(6):
            assert enumerate_preorders(4, up_to_iso=True) is first
        labeled = enumerate_preorders(3, up_to_iso=False)
        assert enumerate_preorders(3, False, False) is labeled

    def test_labeled_vs_classes(self):
        labeled = enumerate_preorders(3, up_to_iso=False)
        assert len(labeled) == 29
        keys = {canonical_form(p) for p in labeled}
        assert len(keys) == 9

    def test_labeled_counts_divided_by_iso_oracle(self):
        # group the labeled enumeration by pairwise is_isomorphic and
        # compare with the class enumeration
        for n in range(4):
            labeled = enumerate_preorders(n, up_to_iso=False)
            groups = []
            for p in labeled:
                for g in groups:
                    if is_isomorphic(p, g[0]):
                        g.append(p)
                        break
                else:
                    groups.append([p])
            assert len(groups) == len(enumerate_preorders(n))


class TestIsomorphism:
    def test_reflexive(self):
        assert is_isomorphic(diamond(), diamond())

    def test_chain_vs_antichain(self):
        assert not is_isomorphic(chain(2), antichain(2))

    def test_downsets_of_antichain(self):
        masks = down_set_masks(antichain(2))
        rows = []
        for m in masks:
            rows.append(sum(1 << i for i, m2 in enumerate(masks) if not (m & ~m2)))
        assert is_isomorphic(FinPreorder(4, rows), diamond())

    def test_labels_ignored(self):
        a = FinPreorder(2, (0b11, 0b10), labels=("lo", "hi"))
        assert a == chain(2)
        with pytest.raises(InvariantViolation):
            FinPreorder(2, (0b11, 0b10), labels=("x", "x"))


class TestSizeGuards:
    # one call per guard: (call, what, requested, bound)
    CASES = {
        "down_set_masks": (
            lambda: under(100, down_set_masks, antichain(13)),
            "down-sets of a 13-element preorder", 128, 100,
        ),
        "_monotone_within": (
            lambda: monotone_assignments(chain(5), chain(6)), "6^5 candidate maps", 7776, 4096,
        ),
        "_squares search space": (
            lambda: under(256, squares, identity(antichain(4)), identity(antichain(4))),
            "square search space", 256 * 256, 64 * 256,
        ),
        "_squares result": (
            # 3 h times 4 free k per h, while each hom set has at most 2^3 candidates
            lambda: under(
                8,
                squares,
                MonotoneMap(antichain(1), antichain(3), [0]),
                MonotoneMap(antichain(3), antichain(2), [0, 0, 1]),
            ),
            "commuting squares", 12, 8,
        ),
        "_canonical": (
            lambda: canonical_key(antichain(9)),
            "relabelings of a 9-element preorder", 362880, 40320,
        ),
        "enumerate_preorders": (lambda: enumerate_preorders(6), "enumeration size", 6, 5),
        "factorisation._carrier": (
            lambda: under(8, factorise, identity(chain(3))), "factorisation carrier", 9, 8,
        ),
        "topology._directed_sups": (
            lambda: scott_opens(chain(17)), "subsets of a 17-element poset", 1 << 17, 1 << 16,
        ),
    }

    @pytest.mark.parametrize("guard", sorted(CASES))
    def test_each_guard_names_itself_and_its_numbers(self, guard):
        call, what, requested, bound = self.CASES[guard]
        with pytest.raises(SizeLimitExceeded) as info:
            call()
        exc = info.value
        assert (exc.what, exc.requested, exc.bound) == (what, requested, bound)
        assert exc.requested > exc.bound
        assert str(exc) == f"{what}: {requested} exceeds the bound {bound}"
        again = pickle.loads(pickle.dumps(exc))
        assert (again.what, again.requested, again.bound, str(again)) == (
            what, requested, bound, str(exc)
        )

    def test_no_function_takes_the_carrier_bound_as_a_parameter(self):
        # each bound is set once, by carrier_bound or size_bound, and read
        # from the context: no parameter is named max_carrier, and none
        # defaults to either bound's default
        defaults = {"DEFAULT_MAX_CARRIER", "DEFAULT_ENUM_BOUND"}
        takers = []
        for path in sorted(pathlib.Path(lofs.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                    named = {n.id for d in a.defaults + a.kw_defaults if d is not None
                             for n in ast.walk(d) if isinstance(n, ast.Name)}
                    if "max_carrier" in {p.arg for p in params if p is not None} or (
                        named & defaults
                    ):
                        takers.append((path.name, getattr(node, "name", "<lambda>")))
        assert takers == []

    def test_the_bound_is_restored_after_its_block(self):
        f = identity(chain(3))  # 9 carrier elements
        with carrier_bound(8):
            with carrier_bound(9):
                assert factorise(f).K.n == 9
            with pytest.raises(SizeLimitExceeded):
                factorise(f)
        assert factorise(f).K.n == 9
        with pytest.raises(SizeLimitExceeded), carrier_bound(8):
            factorise(f)
        assert factorise(f).K.n == 9
        with pytest.raises(ZeroDivisionError), carrier_bound(1):
            1 / 0
        assert len(monotone_assignments(chain(5), chain(5))) == 126

    def test_size_limit_is_raised_only_by_the_guard(self):
        raises = []
        for path in sorted(pathlib.Path(lofs.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            in_guard = {
                id(node)
                for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and func.name == "_guard"
                for node in ast.walk(func)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and "SizeLimitExceeded" in {
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                }:
                    raises.append((path.name, id(node) in in_guard))
        assert raises == [("order.py", True)]

    def test_every_export_is_read_inside_the_package(self):
        # a name that lofs/__init__.py exports is read by some other module
        # of the package, or is an example constructor
        keep = {"antichain", "diamond", "indiscrete", "vee"}
        package = pathlib.Path(lofs.__file__).parent
        init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
        exported = {
            alias.asname or alias.name
            for node in ast.walk(init)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        read = set()
        for path in package.glob("*.py"):
            if path.name != "__init__.py":
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Name):
                        read.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        read.add(node.attr)
        assert keep <= exported
        assert sorted(exported - read - keep) == []

    def test_every_module_is_an_attribute_of_the_package(self):
        # no name that lofs/__init__.py exports hides a submodule, so
        # lofs.m, import lofs.m as m and from lofs import m give the module
        for info in pkgutil.iter_modules(lofs.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            assert getattr(lofs, info.name) is importlib.import_module(f"lofs.{info.name}")

    def test_every_option_is_set_inside_the_package(self):
        # a parameter with a default is set, by position or by keyword, to
        # something other than its default by some call inside lofs: an
        # option that only ever takes one value is a constant.  And no
        # such parameter is read as ``p or ...``, a fallback to a value the
        # code works out from the other inputs, which is then no option
        set_outside = {
            ("cli", "main", "argv"): "set by the tests and the benchmark",
            ("formats", "preorder_to_obj", "type_name"):
                "set by the tests and CI when they write spaces",
            ("suite", "run_suite", "fail_fast"):
                "set by the benchmark's battery report, which runs every criterion",
        }
        options = []  # (module, callee, position, name, default) per parameter with a default
        calls = []  # (callee, positional arguments, keyword arguments) per call
        filled = set()  # (module, callee, name) of each parameter read as ``p or ...``

        def callee_of(func, cls):
            if isinstance(func, ast.Name):
                return func.id
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner = func.value.id
                return f"{cls if owner in ('self', 'cls') else owner}.{func.attr}"
            return None

        def visit(node, module, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, module, child.name)
                    continue
                if isinstance(child, ast.FunctionDef):
                    a = child.args
                    params = a.posonlyargs + a.args
                    skip = 0 if cls is None else 1  # a method is called without self or cls
                    callee = child.name if cls is None else f"{cls}.{child.name}"
                    if child.name == "__init__":
                        callee = cls
                    first = len(params) - len(a.defaults)
                    for i, d in enumerate(a.defaults, first):
                        options.append((module, callee, i - skip, params[i].arg, d))
                    for p, d in zip(a.kwonlyargs, a.kw_defaults):
                        if d is not None:
                            options.append((module, callee, None, p.arg, d))
                    names = {p.arg for p in params[first:]} | {p.arg for p in a.kwonlyargs}
                    for n in ast.walk(child):
                        if isinstance(n, ast.BoolOp) and isinstance(n.op, ast.Or):
                            left = n.values[0]
                            if isinstance(left, ast.Name) and left.id in names:
                                filled.add((module, callee, left.id))
                elif isinstance(child, ast.Call):
                    keywords = {k.arg: k.value for k in child.keywords}
                    calls.append((callee_of(child.func, cls), child.args, keywords))
                visit(child, module, cls)

        def differs(arg, default):
            # an argument spelt as the default's own constant does not set it
            return not (
                isinstance(arg, ast.Constant)
                and isinstance(default, ast.Constant)
                and arg.value == default.value
            )

        package = pathlib.Path(lofs.__file__).parent
        for path in sorted(package.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
        unset = set()
        for module, callee, position, name, default in options:
            values = [
                args[position]
                if position is not None and position < len(args)
                else keywords.get(name)
                for c, args, keywords in calls
                if c in (callee, f"{module}.{callee}")
            ]
            if not any(v is not None and differs(v, default) for v in values):
                unset.add((module, callee, name))
        assert sorted(filled) == []
        assert sorted(unset - set(set_outside)) == []
        assert set(set_outside) <= unset


def pairwise_transpose(rows):
    """The transpose of square bitset rows, pair by pair.

    Row i is written as a bit string whose character j is bit j, and
    column j reads character j of every string, so bit i of column j is
    bit j of row i.
    """
    n = len(rows)
    bits = [format(row, f"0{n}b")[::-1] for row in rows]
    return tuple(int("".join(map(itemgetter(j), bits))[::-1], 2) for j in range(n))


def assert_rebuilds(P):
    """A preorder built trusted equals its validating rebuild, down rows included.

    Both sides read their down rows from ``_transpose``, so they are also
    compared with the pairwise transpose of the up rows.
    """
    rebuilt = FinPreorder(P.n, P.up)
    assert (P.n, P.up, P.down, hash(P)) == (
        rebuilt.n, rebuilt.up, rebuilt.down, hash(rebuilt)
    )
    assert P.down == pairwise_transpose(P.up)


def assert_map_rebuilds(f):
    """A map built trusted equals its validating rebuild; returns the rebuild."""
    rebuilt = MonotoneMap(f.src, f.tgt, f.assign)
    assert (f.src, f.tgt, f.assign, hash(f)) == (
        rebuilt.src, rebuilt.tgt, rebuilt.assign, hash(rebuilt)
    )
    return rebuilt


class TestTranspose:
    def test_the_carrier_of_a_large_antichain_to_the_point(self):
        # 4,096 down-sets, far wider than the rows of relation_rows()
        K = factorise(MonotoneMap(antichain(12), chain(1), [0] * 12)).K
        assert K.n == 4096
        assert _transpose(K.up) == pairwise_transpose(K.up)

    def test_random_wide_rows(self):
        rng = random.Random(20)
        for n in (64, 65, 127, 200):
            for density in (0.05, 0.5, 0.95):
                rows = tuple(
                    sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
                )
                assert _transpose(rows) == pairwise_transpose(rows)
                assert _transpose(_transpose(rows)) == rows


class TestCheckedRows:
    def test_opposite_and_labels_match_the_validated_constructor(self):
        for n in range(5):
            labels = [f"e{i}" for i in range(n)]
            for P in enumerate_preorders(n, up_to_iso=False):
                op = FinPreorder._checked(P.down)
                expected = FinPreorder(P.n, P.down)
                assert (op.n, op.up, op.down, op.labels) == (
                    expected.n, expected.up, expected.down, expected.labels
                )
                assert op == expected and hash(op) == hash(expected)
                named = FinPreorder._checked(P.up, labels)
                expected = FinPreorder(P.n, P.up, labels)
                assert (named.n, named.up, named.down, named.labels) == (
                    expected.n, expected.up, expected.down, expected.labels
                )

    def test_factorisation_matches_its_validating_rebuild(self):
        # every map between representatives of size <= 3, and every 7th
        # map with an end of size 4
        seen = 0
        for X in reps(4):
            for Y in reps(4):
                for a in monotone_assignments(X, Y):
                    if max(X.n, Y.n) == 4:
                        seen += 1
                        if seen % 7:
                            continue
                    fact = factorise(MonotoneMap(X, Y, a))
                    assert_rebuilds(fact.K)
                    assert_map_rebuilds(fact.lam)
                    assert_map_rebuilds(fact.rho)
                    assert [fact.pairs[i] for i in fact.lam.assign] == [
                        (X.down[x], a[x]) for x in range(X.n)
                    ]
                    assert fact.rho.assign == tuple(b for _, b in fact.pairs)

    def test_adjoints_match_their_validating_rebuild(self):
        # both adjoints of every map between representatives of size <= 3,
        # the left one read off up rows and the right one off down rows
        for X in reps(3):
            for Y in reps(3):
                for a in monotone_assignments(X, Y):
                    f = MonotoneMap(X, Y, a)
                    for adjoint in (find_left_adjoint(f), find_right_adjoint(f)):
                        if adjoint is not None:
                            assert_map_rebuilds(adjoint)

    def test_lifting_values_match_their_validating_rebuild(self):
        # arrow classes of size <= 2 against arrow classes of size <= 3
        large = arrow_classes(3)
        algebras = {g: algebra_structure(g) for g in large}
        for j in arrow_classes(2):
            s = coalgebra_structure(j)
            for g in large:
                c = canonical_map(j, g)
                assert_rebuilds(c.src)
                assert_rebuilds(c.tgt)
                assert_map_rebuilds(c)
                sqs = squares(j, g)
                sides = {}
                for sq in sqs:
                    for side in (sq.h, sq.k):
                        if id(side) not in sides:
                            sides[id(side)] = assert_map_rebuilds(side)
                    rebuilt = Square(j, g, sides[id(sq.h)], sides[id(sq.k)])
                    assert (sq.j, sq.g, sq.h, sq.k) == (rebuilt.j, rebuilt.g, rebuilt.h, rebuilt.k)
                p = algebras[g]
                if s is not None and p is not None:
                    for sq in sqs:
                        assert_map_rebuilds(canonical_diag(sq, s, p))
                w = kz_orthogonal(j, g)
                if w is not None:
                    assert_map_rebuilds(w.left_adjoint)
                st = lifting_structure(GeneratorFamily([j]), g)
                if st is not None:
                    for d in st.fillers.values():
                        assert_map_rebuilds(d)

    def test_down_set_lattices_match_their_validating_rebuild(self):
        for n in range(5):
            for P in enumerate_preorders(n, up_to_iso=False):
                assert_rebuilds(downsets(P).carrier)
                assert_rebuilds(_open_lattice(P).carrier)

    def test_quotient_and_restrict_match_their_validating_rebuild(self):
        # every labelled preorder of size <= 4, restricted to every subset
        for n in range(5):
            for P in enumerate_preorders(n, up_to_iso=False):
                Q, cls = P.quotient()
                firsts = [(c & -c).bit_length() - 1 for c in cls]
                expected = FinPreorder(len(cls), [
                    sum(1 << d for d, y in enumerate(firsts) if P.leq(x, y)) for x in firsts
                ])
                assert (Q.n, Q.up, Q.down, Q.labels, hash(Q)) == (
                    expected.n, expected.up, expected.down, None, hash(expected)
                )
                named = FinPreorder(n, P.up, [f"e{i}" for i in range(n)])
                for mask in range(1 << n):
                    R = named.restrict(mask)
                    elems = [e for e in range(n) if mask >> e & 1]
                    expected = FinPreorder(len(elems), [
                        sum(1 << q for q, y in enumerate(elems) if P.leq(x, y)) for x in elems
                    ], [f"e{e}" for e in elems])
                    assert (R.n, R.up, R.down, R.labels, hash(R)) == (
                        expected.n, expected.up, expected.down, expected.labels, hash(expected)
                    )

    def test_direct_image_matches_its_validating_rebuild(self):
        for f in arrow_classes(3):
            assert_map_rebuilds(f_lower_star(f))

    def test_units_filter_maps_and_hom_sets_match_their_validating_rebuild(self):
        # every labelled preorder and space of size <= 3, and every map
        # between representatives of size <= 3
        for n in range(4):
            for P in enumerate_preorders(n, up_to_iso=False):
                assert_map_rebuilds(unit(P))
                assert_map_rebuilds(filter_unit(FiniteSpace(P)))
                assert_map_rebuilds(filter_mult(FiniteSpace(P)))
        for X in reps(3):
            for Y in reps(3):
                for f in hom_maps(X, Y):
                    assert_map_rebuilds(f)
                    assert_map_rebuilds(filter_map(f))

    def test_labels_are_still_checked(self):
        P = chain(2)
        for labels in (["a"], ["a", "a"], ["a", "b", "c"]):
            with pytest.raises(InvariantViolation, match=r"^labels must be n distinct strings$"):
                FinPreorder(P.n, P.up, labels)
            with pytest.raises(InvariantViolation, match=r"^labels must be n distinct strings$"):
                FinPreorder._checked(P.up, labels)
