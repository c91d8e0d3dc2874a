"""The acceptance gate: one test per criterion, each at its stated bound.

Criteria with runtime targets enforce them; every criterion prints its
PASS/FAIL line so `pytest -s tests/test_acceptance.py` mirrors the
`lofs suite` command.  The battery's own helpers and its runner are
tested at the end.
"""

import random

import pytest

from lofs import cli, suite
from lofs.order import antichain, chain


@pytest.mark.parametrize(
    "name,criterion",
    suite.CRITERIA,
    ids=[name.replace(" ", "-") for name, _ in suite.CRITERIA],
)
def test_criterion(name, criterion):
    passed, detail = criterion()
    print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")
    assert passed, f"{name}: {detail}"


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
