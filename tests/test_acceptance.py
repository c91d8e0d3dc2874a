"""The acceptance gate: one test per criterion, each at its stated bound.

Criteria with runtime targets enforce them; every criterion prints its
PASS/FAIL line so `pytest -s tests/test_acceptance.py` mirrors the
`lofs suite` command.  Each detail line must match its pin, timings
masked, so a criterion that passes on less work than it should fails
here.  The battery's own helpers and its runner are tested at the end.
"""

import random
import re

import pytest

from lofs import cli, suite
from lofs.order import antichain, chain

TIMING = re.compile(r"\d+\.\ds")

# the detail line of each criterion, with every timing written #.#s
PINNED = {
    "1 factorisation-soundness": "87436 maps factored and replayed in #.#s",
    "2 coalgebra-iff-full": "1476 exhaustive + 500 sampled maps, zero mismatches",
    "3 fibrant-iff-complete-lattice": "186 isomorphism classes agree in #.#s",
    "4 fibrant-replacement": "replacement matches the down-set lattice for all 186 classes",
    "5 least-diagonal": "11680 (coalgebra, algebra) pairs, zero violations",
    "6 lax-idempotency": "unit comparisons, adjoint mult and mixed law hold through size 3",
    "7 kan-injectivity-classification":
        "186 objects against 1589 embedding classes agree, poset-only rerun identical, in #.#s",
    "8 generator-family-laws": "identity families pass, 100 random coproduct pairs split",
    "9 finite-topology-collapse":
        "collapse laws, filter monad and 19727 T0 embedding checks agree",
    "10 chain-stage-demos": (
        "stages m<m'<= 6: chains are complete lattices and the inclusions preserve all "
        "suprema; the failure at the limit stage (the union of all finite stages, which "
        "has no top) is not finitely representable and is out of scope here"
    ),
    "11 enumeration-counts":
        "unlabeled counts [1, 1, 3, 9, 33] and [1, 1, 2, 5, 16] reproduced in #.#s",
}


def masked(detail):
    return TIMING.sub("#.#s", detail)


@pytest.mark.parametrize(
    "name,criterion",
    suite.CRITERIA,
    ids=[name.replace(" ", "-") for name, _ in suite.CRITERIA],
)
def test_criterion(name, criterion):
    passed, detail = criterion()
    print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")
    assert passed, f"{name}: {detail}"
    assert masked(detail) == PINNED[name]


def test_random_monotone_rejects_only_non_monotone_draws(monkeypatch):
    rnd = random.Random(0)
    for _ in range(20):
        f = suite._random_monotone(rnd, chain(2), antichain(2))
        assert f.assign[0] == f.assign[1]

    def broken(X, Y, assign):
        raise TypeError("a fault in map construction")

    monkeypatch.setattr(suite, "MonotoneMap", broken)
    with pytest.raises(TypeError, match="a fault in map construction"):
        suite._random_monotone(rnd, chain(2), chain(2))


def test_the_runner_stops_at_the_first_fail(monkeypatch, capsys):
    def never():
        raise AssertionError("a criterion after the first FAIL ran")

    monkeypatch.setattr(suite, "CRITERIA", [
        ("1 passes", lambda: (True, "fine")),
        ("2 fails", lambda: (False, "the witness")),
        ("3 never-runs", never),
    ])
    lines = []
    assert suite.run_suite(emit=lines.append) is False
    assert [line.split("  ")[:2] for line in lines] == [["PASS", "1 passes"], ["FAIL", "2 fails"]]
    assert lines[1].endswith("  the witness")
    assert cli.main(["suite"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[:2] for line in out] == [["PASS", "1 passes"], ["FAIL", "2 fails"]]
