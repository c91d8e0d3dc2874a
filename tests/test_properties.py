"""Randomized property tests: each mask-form fast path against a pairwise reference.

The references below are the plain pairwise loops the fast paths
replaced, kept here as oracles.  Inputs are random relation rows and
assignment vectors, valid and invalid alike; for the constructors the
accept/reject verdict, the exception class and the exact message must
agree.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lofs.adjunction import LariWitness, RaliWitness, _section_choices, comma  # noqa: E402
from lofs.downsets import downsets  # noqa: E402
from lofs.errors import IndexOutOfRange, InvariantViolation, ShapeMismatch  # noqa: E402
from lofs.factorisation import factorise  # noqa: E402
from lofs.order import (  # noqa: E402
    FinPreorder,
    MonotoneMap,
    closure,
    compose,
    identity,
    monotone_assignments,
    squares,
    two_cell,
)
from lofs.topology import filter_space, open_masks, open_set_poset  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, database=None)


def _outcome(build):
    """(exception class, message) raised by ``build()``, or None."""
    try:
        build()
    except (IndexOutOfRange, InvariantViolation, ShapeMismatch) as exc:
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# pairwise references


def naive_preorder(n, up):
    """The checks of ``FinPreorder`` one pair at a time: (outcome, down rows)."""
    up = tuple(up)
    if n < 0 or len(up) != n:
        return (InvariantViolation, f"need {n} relation rows, got {len(up)}"), None
    for i, row in enumerate(up):
        if row >> n:
            return (InvariantViolation, f"row {i} mentions elements >= {n}"), None
        if not (row >> i) & 1:
            return (InvariantViolation, f"relation is not reflexive at {i}"), None
    for i in range(n):
        for j in range(n):
            if (up[i] >> j) & 1:
                for k in range(n):
                    if (up[j] >> k) & 1 and not (up[i] >> k) & 1:
                        return (
                            (InvariantViolation, f"relation is not transitive through ({i},{j})"),
                            None,
                        )
    down = tuple(
        sum(1 << i for i in range(n) if (up[i] >> j) & 1) for j in range(n)
    )
    return None, down


def naive_map(src, tgt, assign):
    """The checks of ``MonotoneMap`` one related pair at a time."""
    assign = tuple(assign)
    if len(assign) != src.n:
        return InvariantViolation, f"assignment has {len(assign)} entries for {src.n} elements"
    for i, v in enumerate(assign):
        if not 0 <= v < tgt.n:
            return IndexOutOfRange, f"assign[{i}]={v} outside 0..{tgt.n - 1}"
    for i in range(src.n):
        for j in range(src.n):
            if (src.up[i] >> j) & 1 and not (tgt.up[assign[i]] >> assign[j]) & 1:
                return InvariantViolation, f"not monotone: {i}<={j} but images are unrelated"
    return None


def naive_factor_rows(f):
    """Pairs (down-set, upper bound) and their componentwise rows, pairwise."""
    A, B = f.src, f.tgt
    downsets = [
        m
        for m in range(1 << A.n)
        if all(not (m >> y) & 1 or all((m >> x) & 1 for x in range(A.n) if (A.up[x] >> y) & 1)
               for y in range(A.n))
    ]
    pairs = [
        (m, b)
        for m in downsets
        for b in range(B.n)
        if all((B.up[f.assign[a]] >> b) & 1 for a in range(A.n) if (m >> a) & 1)
    ]
    rows = []
    for m, b in pairs:
        r = 0
        for idx, (m2, b2) in enumerate(pairs):
            if not (m & ~m2) and (B.up[b] >> b2) & 1:
                r |= 1 << idx
        rows.append(r)
    return pairs, tuple(rows)


def naive_inclusion_rows(masks):
    """Row i: the masks containing masks[i], one pair at a time."""
    return tuple(
        sum(1 << i2 for i2, m2 in enumerate(masks) if not (m & ~m2)) for m in masks
    )


def naive_squares(j, g):
    """Every (h, k) pair of the full scan that commutes, in scan order."""
    out = []
    for h in monotone_assignments(j.src, g.src):
        for k in monotone_assignments(j.tgt, g.tgt):
            if tuple(g.assign[v] for v in h) == tuple(k[v] for v in j.assign):
                out.append((h, k))
    return out


def naive_section_choices(f, exact):
    """Minima of {a : b <= f(a)} sent back to b, with the pairwise check."""
    A, B = f.src, f.tgt
    choices = []
    for b in range(B.n):
        above = [a for a in range(A.n) if (B.up[b] >> f.assign[a]) & 1]
        minima = [a for a in above if all(A.leq(a, x) for x in above)]
        if exact:
            fitting = [a for a in minima if f.assign[a] == b]
        else:
            fitting = [a for a in minima if B.equiv(f.assign[a], b)]
        for x in fitting:
            for y in fitting:
                if not A.equiv(x, y):
                    raise InvariantViolation("inequivalent minima found")
        choices.append(fitting)
    return choices


def naive_rali(f, left):
    """``RaliWitness`` through composite maps and 2-cells: (outcome, exact)."""
    try:
        section = compose(left, f)
        ident = identity(f.tgt)
        if not (two_cell(section, ident) and two_cell(ident, section)):
            raise InvariantViolation("left adjoint is not a section of f")
        if not two_cell(compose(f, left), identity(f.src)):
            raise InvariantViolation("counit inequality fails")
    except (InvariantViolation, ShapeMismatch) as exc:
        return (type(exc), str(exc)), None
    return None, section.assign == ident.assign


def naive_lari(f, right):
    """``LariWitness`` through composite maps and 2-cells: (outcome, exact)."""
    try:
        retraction = compose(f, right)
        ident = identity(f.src)
        if not (two_cell(retraction, ident) and two_cell(ident, retraction)):
            raise InvariantViolation("right adjoint is not a retraction of f")
        if not two_cell(compose(right, f), identity(f.tgt)):
            raise InvariantViolation("counit inequality fails")
    except (InvariantViolation, ShapeMismatch) as exc:
        return (type(exc), str(exc)), None
    return None, retraction.assign == ident.assign


# ---------------------------------------------------------------------------
# strategies


@st.composite
def preorders(draw, max_n=4):
    n = draw(st.integers(0, max_n))
    if n == 0:
        return closure(0, [])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return closure(n, draw(st.lists(pair, max_size=n * n)))


@st.composite
def relation_rows(draw, max_n=5):
    """(n, rows): closed relations, perturbed ones and raw random rows."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["closed", "flipped", "raw", "length"]))
    if kind == "raw":
        rows = draw(st.lists(st.integers(0, (2 << n) - 1), min_size=n, max_size=n))
    else:
        rows = list(draw(preorders(max_n=n)).up) if n else []
        rows += [0] * (n - len(rows))
        rows = [r | (1 << i) for i, r in enumerate(rows)]
        if kind == "flipped" and n:
            for _ in range(draw(st.integers(1, 3))):
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                rows[i] ^= 1 << j
        if kind == "length":
            rows = rows[:-1] if n and draw(st.booleans()) else rows + [1]
    return n, rows


@st.composite
def maps(draw, max_n=3):
    """A monotone map between random preorders (None when the hom set is empty)."""
    X, Y = draw(preorders(max_n)), draw(preorders(max_n))
    assigns = monotone_assignments(X, Y)
    if not assigns:
        return None
    return MonotoneMap(X, Y, draw(st.sampled_from(assigns)))


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(relation_rows())
def test_preorder_matches_pairwise_checks(case):
    n, rows = case
    expected, down = naive_preorder(n, rows)
    got = _outcome(lambda: FinPreorder(n, rows))
    assert got == expected
    if expected is None:
        assert FinPreorder(n, rows).down == down


@PROPERTY
@given(preorders(), preorders(), st.data())
def test_map_matches_pairwise_checks(X, Y, data):
    length = data.draw(st.sampled_from([X.n, X.n, X.n, X.n + 1, max(X.n - 1, 0)]))
    value = st.integers(-1, Y.n) if data.draw(st.booleans()) else st.integers(0, max(Y.n - 1, 0))
    assign = data.draw(st.lists(value, min_size=length, max_size=length))
    assert _outcome(lambda: MonotoneMap(X, Y, assign)) == naive_map(X, Y, assign)


@PROPERTY
@given(maps(max_n=4))
def test_factorise_carrier_matches_pairwise_rows(f):
    if f is None:
        return
    fact = factorise(f)
    pairs, rows = naive_factor_rows(f)
    assert list(fact.pairs) == pairs
    assert fact.K.up == rows


@PROPERTY
@given(maps(max_n=4))
def test_comma_and_inclusion_rows_match_pairwise(f):
    if f is None:
        return
    A, B = f.src, f.tgt
    cm = comma(f)
    assert cm.carrier.up == tuple(
        sum(
            1 << idx
            for idx, (a2, b2) in enumerate(cm.pairs)
            if (A.up[a] >> a2) & (B.up[b] >> b2) & 1
        )
        for a, b in cm.pairs
    )
    dl = downsets(A)
    assert dl.carrier.up == naive_inclusion_rows(dl.masks)
    assert open_set_poset(B).up == naive_inclusion_rows(open_masks(B))
    fs = filter_space(B)
    assert fs.sets == naive_inclusion_rows(fs.opens)
    assert fs.filters.up == naive_inclusion_rows(fs.sets)


@PROPERTY
@given(maps(), maps())
def test_squares_match_full_scan(j, g):
    if j is None or g is None:
        return
    got = squares(j, g)
    assert [(s.h.assign, s.k.assign) for s in got] == naive_squares(j, g)
    for s in got:
        assert (s.h.src, s.h.tgt, s.k.src, s.k.tgt) == (j.src, g.src, j.tgt, g.tgt)


@PROPERTY
@given(maps(max_n=4), st.booleans())
def test_section_choices_match_pairwise(f, exact):
    if f is None:
        return
    assert _section_choices(f, exact) == naive_section_choices(f, exact)


@PROPERTY
@given(maps(), st.data())
def test_witness_checks_match_composites(f, data):
    if f is None:
        return
    # candidates from the codomain back to the domain, or with a wrong shape
    src = data.draw(st.sampled_from([f.tgt, f.src]))
    tgt = data.draw(st.sampled_from([f.src, f.tgt]))
    assigns = monotone_assignments(src, tgt)
    if not assigns:
        return
    back = MonotoneMap(src, tgt, data.draw(st.sampled_from(assigns)))
    expected, exact = naive_rali(f, back)
    assert _outcome(lambda: RaliWitness(f, back)) == expected
    if expected is None:
        assert RaliWitness(f, back).exact == exact
    expected, exact = naive_lari(f, back)
    assert _outcome(lambda: LariWitness(f, back)) == expected
    if expected is None:
        assert LariWitness(f, back).exact == exact
