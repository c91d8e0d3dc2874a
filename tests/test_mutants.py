"""Mutants: each row breaks one kernel and names the check that must catch it.

A row is (the kernel, its mutant, the tier-1 check, the error that check
must raise).  The kernel is named as ``module.attribute`` where its
caller reads it: ``kz_orthogonal`` reads ``find_rali`` from ``lifting``,
for one.  The mutant is patched in with ``monkeypatch`` and every
lofs memo is cleared before and after, so no result computed under the
mutant outlives it and none computed without it hides it.  A row passes
when its check fails, which shows that the check can fail.
"""

import importlib
import pkgutil

import pytest

import lofs
from lofs import suite
from lofs.adjunction import RaliWitness, find_left_adjoint, find_right_adjoint
from lofs.downsets import _inclusion_covers
from lofs.errors import InvariantViolation, ShapeMismatch
from lofs.factorisation import _k_at
from lofs.lifting import GeneratorFamily, LiftingStructure, _coherent
from lofs.order import (
    MonotoneMap,
    _bits,
    _canonical,
    _monotone_within,
    _square_pairs,
    _transpose,
)
import test_acceptance
import test_factorisation
import test_kan
import test_lifting


def clear_memos():
    """Empty every functools memo of lofs, so no result outlives a patch."""
    for info in pkgutil.iter_modules(lofs.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"lofs.{info.name}")
        for obj in vars(module).values():
            inner = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_clear") and getattr(inner, "__module__", None) == module.__name__:
                obj.cache_clear()


def highest_least_member(mask, rows):
    """``_least_member`` picking the highest least member, not the lowest."""
    least = [a for a in _bits(mask) if not mask & ~rows[a]]
    return least[-1] if least else None


def rali_without_section_test(f):
    """``find_rali`` returning the left adjoint whether or not it is a section."""
    left = find_left_adjoint(f)
    return None if left is None else RaliWitness(f, left)


def covers_without_the_last_upper(masks):
    """``_inclusion_covers`` dropping the last upper cover where there are two or more."""
    return tuple(u[:-1] if len(u) > 1 else u for u in _inclusion_covers(masks))


def transpose_without_the_last_row(rows):
    """``_transpose`` forgetting the last row: no down row holds the last element."""
    return _transpose(tuple(rows[:-1]) + (0,))


def nothing_strictly_between(rows, mask):
    """``_union`` as ``hasse_dot`` reads it, always empty: every strict pair is an edge."""
    return 0


def square_pairs_without_the_last_of_each_group(j, g, bound):
    """``_square_pairs`` dropping the last k of each k∘j group: the last square of each h."""
    pairs = _square_pairs(j, g, bound)
    return tuple(p for p, q in zip(pairs, pairs[1:]) if p[0] == q[0])


def canonical_with_one_source_relabeling(X):
    """``_canonical`` keeping only the first sequence, as the arrow key reads a source."""
    rows, seqs, cols = _canonical(X)
    return rows, seqs[:1], cols


def coherent_without_links(structure, member_pairs):
    """``_coherent`` on the structure with its family's links dropped."""
    unlinked = GeneratorFamily(structure.family.members)
    return _coherent(
        LiftingStructure(structure.g, unlinked, structure.fillers, structure.canonical),
        member_pairs,
    )


def diag_refusing_only_two_wrong_witnesses(sq, s, p):
    """``canonical_diag`` with its guard's ``or`` turned into ``and``."""
    if s.fact.f != sq.j and p.fact.f != sq.g:
        raise ShapeMismatch("witnesses do not match the square")
    assign = _k_at(s.fact, p.fact, sq.h, sq.k, s.s.assign, p.p.assign)
    return MonotoneMap._checked(s.s.src, p.p.tgt, assign)


def monotone_within_ignoring_full(X, Y, allowed, full=False):
    """``_monotone_within`` enumerating every monotone assignment, full or not."""
    return _monotone_within(X, Y, allowed)


def kz_pin():
    test_lifting.TestKz().test_the_answers_on_the_classes_of_size_2_are_unchanged()


def hasse_scan():
    import test_properties  # needs hypothesis, so imported only by this row

    test_properties.test_hasse_edges_match_between_scan()


def squares_scan():
    import test_properties  # needs hypothesis, so imported only by this row

    test_properties.test_squares_match_full_scan()


def pruned_scan():
    with pytest.MonkeyPatch.context() as patch:
        test_kan.TestPrunedScan().test_matches_naive_scan(patch)


def arrow_classes_pin():
    test_kan.TestAllEmbeddings().test_arrow_classes_keep_the_representatives_of_the_map_loop()


def embeddings_pin():
    test_kan.TestAllEmbeddings().test_the_family_of_size_4_is_unchanged()


def linked_family():
    test_lifting.TestLinkedFamily().test_a_link_that_the_lexicographic_choice_breaks()


def foreign_coalgebra():
    test_factorisation.TestCanonicalDiag().test_a_coalgebra_witness_of_another_map_is_refused()


def criterion(number):
    """The acceptance test of one criterion: it passes, with its pinned line."""
    name, run = suite.CRITERIA[number - 1]
    return lambda: test_acceptance.test_criterion(name, run)


MUTANTS = [
    pytest.param(
        "adjunction._least_member", highest_least_member, kz_pin, AssertionError, None,
        id="least-member-highest",
    ),
    # the pointwise sups take the highest of equivalent least members, so
    # over a preorder that is not a poset the tuple is not the naive least
    pytest.param(
        "kan._least_member", highest_least_member, pruned_scan, AssertionError, None,
        id="least-extension-highest",
    ),
    pytest.param(
        "lifting.find_rali", rali_without_section_test, kz_pin,
        InvariantViolation, "left adjoint is not a section of f",
        id="rali-without-section-test",
    ),
    pytest.param(
        "downsets._inclusion_covers", covers_without_the_last_upper, criterion(4),
        AssertionError, "not an order-isomorphism",
        id="covers-without-the-last-upper",
    ),
    pytest.param(
        "downsets._inclusion_covers", covers_without_the_last_upper, criterion(1),
        AssertionError, "order oracle mismatch",
        id="covers-without-the-last-upper-in-the-carrier",
    ),
    pytest.param(
        "order._transpose", transpose_without_the_last_row, criterion(4),
        AssertionError, "not a bijection",
        id="transpose-without-the-last-row",
    ),
    pytest.param(
        "formats._union", nothing_strictly_between, hasse_scan, AssertionError, None,
        id="hasse-keeps-every-strict-pair",
    ),
    pytest.param(
        "order._square_pairs", square_pairs_without_the_last_of_each_group, squares_scan,
        AssertionError, None,
        id="square-pairs-without-the-last-of-each-group",
    ),
    # arrow_classes(2) then finds 32 classes against the oracle's 31, and
    # arrow_classes(3) 816 against the pinned 661
    pytest.param(
        "order._canonical", canonical_with_one_source_relabeling, arrow_classes_pin,
        AssertionError, None,
        id="arrow-key-over-one-source-relabeling",
    ),
    pytest.param(
        "lifting._coherent", coherent_without_links, linked_family, AssertionError, None,
        id="coherent-without-links",
    ),
    # _arrow_classes reads the kernel from order; the oracle test imports its own name
    pytest.param(
        "order._monotone_within", monotone_within_ignoring_full, embeddings_pin,
        AssertionError, None,
        id="level-builder-ignoring-full",
    ),
    # the guard lets a coalgebra witness of another map through when the
    # algebra witness is right: canonical_diag returns a map, not an error
    pytest.param(
        "factorisation.canonical_diag", diag_refusing_only_two_wrong_witnesses,
        foreign_coalgebra, pytest.fail.Exception, "DID NOT RAISE",
        id="diag-guard-with-and",
    ),
    # criterion 5 still passes, but on 146 pairs instead of 11680
    pytest.param(
        "factorisation.find_left_adjoint", find_right_adjoint, criterion(5),
        AssertionError, None,
        id="algebras-taken-as-right-adjoints",
    ),
]


@pytest.mark.parametrize("kernel, mutant, check, error, message", MUTANTS)
def test_mutant_fails_its_check(kernel, mutant, check, error, message, monkeypatch):
    module, name = kernel.split(".")
    clear_memos()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module(f"lofs.{module}"), name, mutant)
            with pytest.raises(error, match=message):
                check()
    finally:
        clear_memos()
