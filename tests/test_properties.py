"""Randomized property tests: each mask-form fast path against a pairwise reference.

The references below are the plain pairwise loops the fast paths
replaced, kept here as oracles.  Inputs are random relation rows and
assignment vectors, valid and invalid alike; for the constructors the
accept/reject verdict, the exception class and the exact message must
agree.  The bounded per-pass memos are compared with their uncached
``__wrapped__`` computations, and checked against the size guards they
must respect and the labels of each caller, which no memo key holds.
"""

import importlib
import pkgutil
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import lofs  # noqa: E402
from lofs import formats  # noqa: E402
from lofs.adjunction import (  # noqa: E402
    RaliWitness,
    find_left_adjoint,
    find_rali,
    find_right_adjoint,
)
from lofs.cli import _complete_lattice_witness, _fullness_witness  # noqa: E402
from lofs.downsets import _carrier, check_lax_idempotent_P, downsets  # noqa: E402
from lofs.errors import (  # noqa: E402
    IndexOutOfRange,
    InvariantViolation,
    ShapeMismatch,
    SizeLimitExceeded,
)
from lofs.factorisation import (  # noqa: E402
    _k_action,
    _upper_bound_table,
    factorise,
    k_on_square,
)
from lofs.kan import _least_extension, _least_within, _restricts  # noqa: E402
from lofs.lifting import (  # noqa: E402
    GeneratorFamily,
    _comparison,
    canonical_map,
    lifting_structure,
)
from lofs.order import (  # noqa: E402
    DEFAULT_MAX_CARRIER,
    FinPreorder,
    MonotoneMap,
    Square,
    _bits,
    _down_set_masks,
    _hom_rows,
    _least_member,
    _monotone_assignments,
    _monotone_within,
    _preimage_masks,
    _arrow_classes,
    _square_pairs,
    _union,
    _unreflected_pair,
    antichain,
    arrow_canonical_key,
    arrow_classes,
    chain,
    closure,
    compose,
    down_set_masks,
    enumerate_preorders,
    hom_maps,
    identity,
    is_full,
    maps_equivalent,
    monotone_assignments,
    size_bound,
    squares,
    sup_mask,
    two_cell,
)
from lofs.topology import (  # noqa: E402
    _open_lattice,
    f_lower_star,
    filter_map,
    filter_mult,
    filter_space,
    open_masks,
)
from oracles import (  # noqa: E402
    arrow_canonical_key_pairs,
    monotone_within_dfs,
    subset_without_sup_scan,
    under,
    unreflected_pair_scan,
)

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


def naive_section_choices(f):
    """Minima of {a : b <= f(a)} sent back to the class of b, with the pairwise check."""
    A, B = f.src, f.tgt
    choices = []
    for b in range(B.n):
        above = [a for a in range(A.n) if (B.up[b] >> f.assign[a]) & 1]
        minima = [a for a in above if all(A.leq(a, x) for x in above)]
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


def naive_union(rows, mask):
    out = 0
    for i, row in enumerate(rows):
        if (mask >> i) & 1:
            out |= row
    return out


def naive_least_member(mask, rows):
    for a in range(len(rows)):
        if (mask >> a) & 1 and all(
            (rows[a] >> x) & 1 for x in range(len(rows)) if (mask >> x) & 1
        ):
            return a
    return None


def naive_unreflected_pair(f):
    X, Y = f.src, f.tgt
    for a in range(X.n):
        for b in range(X.n):
            if (Y.up[f.assign[a]] >> f.assign[b]) & 1 and not (X.up[a] >> b) & 1:
                return a, b
    return None


def naive_is_full(f):
    return naive_unreflected_pair(f) is None


def naive_fullness_witness(f):
    pair = naive_unreflected_pair(f)
    if pair is None:
        return None
    a, b = pair
    return {"images-related": [f.src.label(a), f.src.label(b)], "sources-unrelated": True}


def naive_restrict_rows(X, mask):
    elems = [e for e in range(X.n) if (mask >> e) & 1]
    return tuple(
        sum(1 << q for q, e2 in enumerate(elems) if X.leq(e, e2)) for e in elems
    )


def naive_quotient_rows(X):
    reps = [i for i in range(X.n) if all(not X.equiv(i, j) for j in range(i))]
    return tuple(
        sum(1 << b for b, r2 in enumerate(reps) if X.leq(r, r2)) for r in reps
    )


def naive_sup(X, mask):
    """Least index among the least upper bounds of ``mask``, or None."""
    ub = [u for u in range(X.n) if all(X.leq(i, u) for i in range(X.n) if (mask >> i) & 1)]
    for u in ub:
        if all(X.leq(u, v) for v in ub):
            return u
    return None


def naive_adjoint(f, left):
    """Left (right) adjoint by minima (maxima) of {a : b <= f(a)} ({a : f(a) <= b})."""
    A, B = f.src, f.tgt
    assign = []
    for b in range(B.n):
        if left:
            cands = [a for a in range(A.n) if B.leq(b, f.assign[a])]
            best = [a for a in cands if all(A.leq(a, x) for x in cands)]
        else:
            cands = [a for a in range(A.n) if B.leq(f.assign[a], b)]
            best = [a for a in cands if all(A.leq(x, a) for x in cands)]
        if not best:
            return None
        assign.append(best[0])
    return tuple(assign)


def naive_lax_idempotent(X):
    """The down-set check, rescanning every down-set per member."""
    dl = downsets(X)
    for m in dl.masks:
        pointwise = 0
        for x in range(X.n):
            if (m >> x) & 1:
                for idx, m2 in enumerate(dl.masks):
                    if not (m2 & ~X.down[x]):
                        pointwise |= 1 << idx
        principal_of_m = 0
        for idx, m2 in enumerate(dl.masks):
            if not (m2 & ~m):
                principal_of_m |= 1 << idx
        if pointwise & ~principal_of_m:
            return False
    return True


def naive_down_image(h, m):
    """The down-closure of h[m], one target element at a time."""
    return sum(
        1 << y
        for y in range(h.tgt.n)
        if any((m >> x) & 1 and h.tgt.leq(y, h.assign[x]) for x in range(h.src.n))
    )


def naive_filter_map(f, src_fs, tgt_fs):
    src_index = {u: i for i, u in enumerate(src_fs.opens)}
    pre = []
    for v in tgt_fs.opens:
        pre.append(src_index[sum(1 << a for a in range(f.src.n) if (v >> f.assign[a]) & 1)])
    assign = []
    for s in src_fs.sets:
        members = 0
        for vi, ui in enumerate(pre):
            if (s >> ui) & 1:
                members |= 1 << vi
        assign.append(tgt_fs.sets.index(members))
    return tuple(assign)


def naive_filter_mult(fs, ffs):
    ff_open_index = {u: i for i, u in enumerate(ffs.opens)}
    sharp = []
    for u in range(len(fs.opens)):
        mask = 0
        for i, s in enumerate(fs.sets):
            if (s >> u) & 1:
                mask |= 1 << i
        sharp.append(ff_open_index[mask])
    assign = []
    for big in ffs.sets:
        members = 0
        for u, open_idx in enumerate(sharp):
            if (big >> open_idx) & 1:
                members |= 1 << u
        assign.append(fs.sets.index(members))
    return tuple(assign)


def naive_f_lower_star(f):
    tgt_masks = open_masks(f.tgt)
    tgt_index = {m: i for i, m in enumerate(tgt_masks)}
    assign = []
    for u in open_masks(f.src):
        out = 0
        for v in tgt_masks:
            pre = sum(1 << a for a in range(f.src.n) if (v >> f.assign[a]) & 1)
            if not (pre & ~u):
                out |= v
        assign.append(tgt_index[out])
    return tuple(assign)


def naive_square_fillers(sq, up_to_equiv):
    """Per-square filler enumeration: every monotone d, tested by composites."""
    out = []
    for d in hom_maps(sq.j.tgt, sq.g.src):
        left, right = compose(sq.j, d), compose(d, sq.g)
        if up_to_equiv:
            fits = maps_equivalent(left, sq.h) and maps_equivalent(right, sq.k)
        else:
            fits = left == sq.h and right == sq.k
        if fits:
            out.append(d.assign)
    return out


def naive_lifting_structure(family, g):
    """``lifting_structure`` with pairwise least fillers and monotonicity."""

    def leq(Y, a, b):
        return all(Y.leq(x, y) for x, y in zip(a, b))

    fillers = {}
    canonical = True
    for idx, j in enumerate(family.members):
        for sq in squares(j, g):
            cands = naive_square_fillers(sq, False)
            if not cands:
                return None
            least = [d for d in cands if all(leq(g.src, d, e) for e in cands)]
            if not least:
                canonical = False
            fillers[(idx, sq.h.assign, sq.k.assign)] = (least or cands)[0]
    for idx, j in enumerate(family.members):
        sqs = squares(j, g)
        for a in sqs:
            for b in sqs:
                if (
                    leq(g.src, a.h.assign, b.h.assign)
                    and leq(g.tgt, a.k.assign, b.k.assign)
                    and not leq(
                        g.src,
                        fillers[(idx, a.h.assign, a.k.assign)],
                        fillers[(idx, b.h.assign, b.k.assign)],
                    )
                ):
                    return None
    for src, tgt, u, v in family.links:
        for sq in squares(family.members[tgt], g):
            h = tuple(sq.h.assign[x] for x in u.assign)
            k = tuple(sq.k.assign[y] for y in v.assign)
            d = fillers[(tgt, sq.h.assign, sq.k.assign)]
            right = tuple(d[y] for y in v.assign)
            if fillers[(src, h, k)] != right:
                return None
    return fillers, canonical


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


@lru_cache(maxsize=None)
def all_maps(max_n):
    """Every monotone map between representative preorders of size <= max_n."""
    reps = [P for n in range(max_n + 1) for P in enumerate_preorders(n)]
    return [f for X in reps for Y in reps for f in hom_maps(X, Y)]


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


@pytest.mark.parametrize(
    "f",
    [
        MonotoneMap(antichain(7), chain(1), [0] * 7),
        MonotoneMap(antichain(7), chain(2), [0] * 7),
        MonotoneMap(antichain(7), chain(2), [1] * 7),
        MonotoneMap(antichain(7), chain(2), [0, 1, 0, 1, 1, 0, 1]),
    ],
    ids=["to-point", "to-bottom", "to-top", "mixed"],
)
def test_large_carrier_matches_pairwise_rows(f):
    fact = factorise(f)
    pairs, rows = naive_factor_rows(f)
    assert list(fact.pairs) == pairs
    assert fact.K.up == rows
    assert fact.K.down == tuple(
        sum(1 << i for i, r in enumerate(rows) if r >> k & 1) for k in range(len(rows))
    )


@PROPERTY
@given(maps(max_n=4))
def test_comma_and_inclusion_rows_match_pairwise(f):
    if f is None:
        return
    A, B = f.src, f.tgt
    dl = downsets(A)
    assert dl.carrier.up == naive_inclusion_rows(dl.masks)
    assert _open_lattice(B).carrier.up == naive_inclusion_rows(open_masks(B))
    fs = filter_space(B)
    assert fs.sets == naive_inclusion_rows(fs.opens)
    assert fs.filters.up == naive_inclusion_rows(fs.sets)


@PROPERTY
@given(maps(), maps())
@example(identity(chain(2)), identity(chain(2)))  # three squares, one per h
def test_squares_match_full_scan(j, g):
    if j is None or g is None:
        return
    got = squares(j, g)
    assert [(s.h.assign, s.k.assign) for s in got] == naive_squares(j, g)
    for s in got:
        assert (s.h.src, s.h.tgt, s.k.src, s.k.tgt) == (j.src, g.src, j.tgt, g.tgt)


def assert_section_matches_choices(f):
    # the section takes the first of the pairwise choices at every b
    choices = naive_section_choices(f)
    w = find_rali(f)
    if all(choices):
        assert w.left_adjoint.assign == tuple(c[0] for c in choices)
    else:
        assert w is None


@PROPERTY
@given(maps(max_n=4))
def test_section_choices_match_pairwise(f):
    if f is not None:
        assert_section_matches_choices(f)


def test_section_choices_match_pairwise_on_every_comparison_map():
    # exhaustively, on the comparison maps of every pair of arrow classes
    # of size <= 2
    small = arrow_classes(2)
    for j in small:
        for g in small:
            assert_section_matches_choices(canonical_map(j, g))


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


@PROPERTY
@given(st.lists(st.integers(0, 63), max_size=6), st.integers(0, 127))
def test_union_and_least_member_match_loops(rows, mask):
    mask &= (1 << len(rows)) - 1
    assert _union(rows, mask) == naive_union(rows, mask)
    assert _least_member(mask, rows) == naive_least_member(mask, rows)


@PROPERTY
@given(maps(max_n=4))
@example(MonotoneMap(chain(2), chain(3), [0, 2]))  # full
def test_fullness_matches_pairwise(f):
    if f is None:
        return
    assert _unreflected_pair(f.assign, f.src.up, f.tgt.up) == naive_unreflected_pair(f)
    assert is_full(f) == naive_is_full(f)
    assert _fullness_witness(f) == naive_fullness_witness(f)


def test_first_unreflected_pair_on_every_small_map():
    for f in all_maps(3):
        assert _unreflected_pair(f.assign, f.src.up, f.tgt.up) == naive_unreflected_pair(f)


def test_fibre_scan_matches_the_image_scan_on_every_map_of_size_4():
    reps = [P for n in range(5) for P in enumerate_preorders(n)]
    for X in reps:
        for Y in reps:
            for a in monotone_assignments(X, Y):
                assert _unreflected_pair(a, X.up, Y.up) == unreflected_pair_scan(a, X.up, Y.up)


@PROPERTY
@given(preorders(max_n=6), preorders(max_n=6), st.data())
def test_fibre_scan_matches_the_image_scan_on_any_assignment(X, Y, data):
    # any assignment, monotone or not: the scan reads only the values
    if Y.n == 0 and X.n:
        return
    assign = data.draw(st.lists(st.integers(0, max(Y.n - 1, 0)), min_size=X.n, max_size=X.n))
    args = (tuple(assign), X.up, Y.up)
    assert _unreflected_pair(*args) == unreflected_pair_scan(*args)


def test_level_enumeration_matches_the_search_on_every_pair_of_size_4():
    reps = [P for n in range(5) for P in enumerate_preorders(n)]
    for full in (False, True):
        for X in reps:
            for Y in reps:
                anything = ((1 << Y.n) - 1,) * X.n
                assert _monotone_within(X, Y, anything, full) == monotone_within_dfs(
                    X, Y, anything, full
                )


@PROPERTY
@given(preorders(max_n=6), preorders(max_n=6), st.booleans(), st.data())
def test_level_enumeration_matches_the_search_within_any_masks(X, Y, full, data):
    # masks of any values, such as the bound sets kan._least_within passes
    allowed = tuple(
        data.draw(st.lists(st.integers(0, (1 << Y.n) - 1), min_size=X.n, max_size=X.n))
    )
    if X.n and Y.n ** X.n > DEFAULT_MAX_CARRIER:
        assert _limit_message(lambda: _monotone_within(X, Y, allowed, full)) == _limit_message(
            lambda: monotone_within_dfs(X, Y, allowed, full)
        )
        return
    cands = monotone_within_dfs(X, Y, allowed, full)
    assert _monotone_within(X, Y, allowed, full) == cands
    if not full:
        # the first candidate pointwise below every candidate, pair by pair
        least = [c for c in cands if all(all(map(Y.leq, c, d)) for d in cands)]
        assert _least_within(X, Y, allowed) == (least[0] if least else None)


def test_column_key_matches_the_pair_loop_on_every_map_of_size_4():
    # every map between the representatives, among them the 24 x 24
    # relabelings of the maps between antichain(4) and indiscrete(4)
    reps = [P for n in range(5) for P in enumerate_preorders(n)]
    for X in reps:
        for Y in reps:
            for a in monotone_assignments(X, Y):
                f = MonotoneMap._checked(X, Y, a)
                assert arrow_canonical_key(f) == arrow_canonical_key_pairs(f)


@PROPERTY
@given(maps(max_n=5))
def test_column_key_matches_the_pair_loop(f):
    if f is None:
        return
    assert arrow_canonical_key(f) == arrow_canonical_key_pairs(f)


@PROPERTY
@given(preorders(max_n=5), st.integers(0, 31))
def test_restrict_quotient_sup_match_loops(X, mask):
    mask &= (1 << X.n) - 1
    assert X.restrict(mask).up == naive_restrict_rows(X, mask)
    Q, cls = X.quotient()
    assert Q.up == naive_quotient_rows(X)
    assert sup_mask(X, mask) == naive_sup(X, mask)


@PROPERTY
@given(maps(max_n=4))
def test_adjoint_searches_match_loops(f):
    if f is None:
        return
    left, right = find_left_adjoint(f), find_right_adjoint(f)
    assert (left and left.assign) == naive_adjoint(f, left=True)
    assert (right and right.assign) == naive_adjoint(f, left=False)


@PROPERTY
@given(maps(max_n=4))
def test_downset_actions_match_loops(f):
    if f is None:
        return
    assert check_lax_idempotent_P(f.src) == naive_lax_idempotent(f.src)
    src_dl, tgt_dl = downsets(f.src), downsets(f.tgt)
    # the down-set functor: the factorisation's action on (f, id) at the point
    point = chain(1)
    at_point = Square(
        MonotoneMap(f.src, point, [0] * f.src.n),
        MonotoneMap(f.tgt, point, [0] * f.tgt.n),
        f,
        identity(point),
    )
    assert k_on_square(at_point).assign == tuple(
        tgt_dl.index(naive_down_image(f, m)) for m in src_dl.masks
    )


@PROPERTY
@given(maps(), maps(), st.data())
def test_k_action_matches_loop(j, g, data):
    if j is None or g is None:
        return
    sqs = squares(j, g)
    if not sqs:
        return
    sq = data.draw(st.sampled_from(sqs))
    source, target = factorise(j), factorise(g)
    assert _k_action(source, target, sq.h, sq.k).assign == tuple(
        target.index(naive_down_image(sq.h, m), sq.k.assign[b]) for m, b in source.pairs
    )


@PROPERTY
@given(maps())
def test_filter_and_open_actions_match_loops(f):
    if f is None:
        return
    src_fs, tgt_fs = filter_space(f.src), filter_space(f.tgt)
    assert filter_map(f).assign == naive_filter_map(f, src_fs, tgt_fs)
    ffs = filter_space(src_fs.filters)
    assert filter_mult(f.src).assign == naive_filter_mult(src_fs, ffs)
    assert f_lower_star(f).assign == naive_f_lower_star(f)


@PROPERTY
@given(preorders(max_n=4))
@example(chain(3))
def test_hasse_edges_match_between_scan(P):
    Q, _ = P.quotient()
    expected = [
        f"  n{a} -> n{b};"
        for a in range(Q.n)
        for b in range(Q.n)
        if a != b
        and Q.leq(a, b)
        and not any(x not in (a, b) and Q.leq(a, x) and Q.leq(x, b) for x in range(Q.n))
    ]
    assert [line for line in formats.hasse_dot(P).splitlines() if "->" in line] == expected


@PROPERTY
@given(
    st.lists(st.sampled_from(all_maps(2)), min_size=1, max_size=2),
    st.sampled_from(all_maps(3)),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 99)), max_size=2),
)
@example(  # two comparable fillers of one square: least and greatest differ
    [MonotoneMap(chain(1), chain(2), [0])], MonotoneMap(chain(2), chain(1), [0, 0]), []
)
@example(  # incomparable fillers: the lexicographic choice breaks a link
    [MonotoneMap(chain(0), chain(1), []), identity(chain(1))],
    MonotoneMap(antichain(2), chain(1), [0, 0]),
    [(0, 1, 0)],
)
def test_lifting_structure_matches_pairwise(members, g, picks):
    links = []
    for src, tgt, pick in picks:
        src, tgt = src % len(members), tgt % len(members)
        sqs = squares(members[src], members[tgt])
        if sqs:
            sq = sqs[pick % len(sqs)]
            links.append((src, tgt, sq.h, sq.k))
    family = GeneratorFamily(members, links)
    got = lifting_structure(family, g)
    expected = naive_lifting_structure(family, g)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert {key: d.assign for key, d in got.fillers.items()} == expected[0]
        assert got.canonical == expected[1]


@PROPERTY
@given(maps(), maps())
def test_shared_hom_set_fillers_match_per_square_enumeration(j, g):
    """The fibres of the comparison map are the per-square fillers.

    Exactly: the fibre over square i; up to equivalence: the fibre over
    the class of i in the square preorder.
    """
    if j is None or g is None:
        return
    assigns, pairs, c = _comparison(j, g)
    sqs = squares(j, g)
    assert assigns == monotone_assignments(j.tgt, g.src)
    assert pairs == tuple((s.h.assign, s.k.assign) for s in sqs)
    classes = canonical_map(j, g).tgt.classes()
    class_of = [next(m for m in classes if m >> i & 1) for i in range(len(sqs))]
    exact = _preimage_masks(c, [1 << i for i in range(len(sqs))])
    up_to_equiv = _preimage_masks(c, class_of)
    for i, sq in enumerate(sqs):
        assert [assigns[d] for d in _bits(exact[i])] == naive_square_fillers(sq, False)
        assert [assigns[d] for d in _bits(up_to_equiv[i])] == naive_square_fillers(sq, True)


def _scanned_sup_witness(P):
    mask = subset_without_sup_scan(P)
    return None if mask is None else {"subset-without-sup": [P.label(i) for i in _bits(mask)]}


def test_subset_without_sup_matches_the_scan_on_small_preorders():
    labelled = [P for n in range(5) for P in enumerate_preorders(n, up_to_iso=False)]
    for P in labelled + list(enumerate_preorders(5)):
        assert _complete_lattice_witness(P) == _scanned_sup_witness(P)


@PROPERTY
@given(preorders(max_n=12))
def test_subset_without_sup_matches_the_scan(P):
    assert _complete_lattice_witness(P) == _scanned_sup_witness(P)


# ---------------------------------------------------------------------------
# bounded per-pass memos


def _limit_message(call):
    with pytest.raises(SizeLimitExceeded) as info:
        call()
    return str(info.value)


def _carrier_key(f, bound=DEFAULT_MAX_CARRIER):
    masks = under(bound, down_set_masks, f.src)
    return (masks, f.tgt, tuple(_upper_bound_table(f)), bound)


@PROPERTY
@given(maps(max_n=4))
def test_carrier_memo_matches_uncached(f):
    if f is None:
        return
    first, again = factorise(f), factorise(f)
    key = _carrier_key(f)
    assert _carrier(*key) == _carrier.__wrapped__(*key)
    for fact in (first, again):
        assert fact.f is f and fact.lam.src is f.src
        assert (fact.K, fact.pairs, fact.lam, fact.rho) == (
            first.K, first.pairs, first.lam, first.rho
        )
        assert all(fact.index(m, b) == i for i, (m, b) in enumerate(fact.pairs))


@PROPERTY
@given(maps(), maps())
def test_squares_memo_matches_uncached(j, g):
    if j is None or g is None:
        return
    first, again = squares(j, g), squares(j, g)
    expected = _square_pairs.__wrapped__(j, g, DEFAULT_MAX_CARRIER)
    sides = [[(s.j, s.g, s.h, s.k) for s in sqs] for sqs in (first, again)]
    assert sides[0] == sides[1] and [(s.h.assign, s.k.assign) for s in first] == list(expected)
    assert first is not again


def test_memos_still_raise_under_a_smaller_bound():
    X = antichain(3)  # 8 down-sets
    assert len(down_set_masks(X)) == 8
    assert _limit_message(lambda: under(7, down_set_masks, X)) == _limit_message(
        lambda: _down_set_masks.__wrapped__(X, 7)
    )

    f = identity(chain(3))  # 9 carrier elements over 4 down-sets
    assert factorise(f).K.n == 9
    assert _limit_message(lambda: under(8, factorise, f)) == _limit_message(
        lambda: _carrier.__wrapped__(*_carrier_key(f, 8))
    )

    j, A = MonotoneMap(chain(1), chain(2), [0]), antichain(2)
    assert _least_extension(j, (1,), A) == (1, 1) and _restricts(j, (1,), (1, 1), A)
    bounds = (A.up[1], A.up[1])
    assert _limit_message(lambda: under(3, _least_extension, j, (1,), A)) == _limit_message(
        lambda: under(3, _least_within, chain(2), A, bounds)
    )

    X, Y = chain(5), chain(6)  # 6^5 = 7,776 candidate maps
    assert len(under(7776, monotone_assignments, X, Y)) == 252
    assert _limit_message(lambda: under(4096, monotone_assignments, X, Y)) == _limit_message(
        lambda: under(4096, _monotone_assignments.__wrapped__, X, Y, 4096)
    ) == "6^5 candidate maps: 7776 exceeds the bound 4096"

    # a hom preorder cached under the default bound, then the hom-rows memo
    # under a smaller one: 3^2 candidate maps, 6 of them monotone
    X, Y = chain(2), chain(3)
    assert canonical_map(identity(X), identity(Y)).src.n == 6
    assert _limit_message(lambda: under(8, _hom_rows, X, Y, 8)) == _limit_message(
        lambda: under(8, _hom_rows.__wrapped__, X, Y, 8)
    ) == "3^2 candidate maps: 9 exceeds the bound 8"

    j = g = identity(chain(2))
    assert len(squares(j, g)) == 3
    for bound in (2, 3):
        assert _limit_message(lambda: under(bound, squares, j, g)) == _limit_message(
            lambda: under(bound, _square_pairs.__wrapped__, j, g, bound)
        )

    # the arrow-class memo keys the size bound as it keys the carrier bound
    assert len(arrow_classes(3)) == 661
    with size_bound(2):
        assert _limit_message(lambda: arrow_classes(3)) == _limit_message(
            lambda: _arrow_classes.__wrapped__(3, False, False, DEFAULT_MAX_CARRIER, 2)
        ) == "enumeration size: 3 exceeds the bound 2"
    assert len(arrow_classes(3)) == 661


def test_mutating_a_square_list_leaves_the_next_call_alone():
    j, g = identity(chain(2)), MonotoneMap(chain(2), chain(1), [0, 0])
    first = squares(j, g)
    expected = [(s.h.assign, s.k.assign) for s in first]
    first.clear()
    squares(j, g).append(None)
    assert [(s.h.assign, s.k.assign) for s in squares(j, g)] == expected


def test_mutating_a_hom_set_list_leaves_the_next_call_alone():
    X, Y = chain(2), chain(3)
    first = monotone_assignments(X, Y)
    expected = list(first)
    first.clear()
    monotone_assignments(X, Y).append(None)
    assert monotone_assignments(X, Y) == expected
    assert monotone_assignments(X, Y) is not monotone_assignments(X, Y)


def test_memos_never_hand_out_another_callers_labels():
    plain = MonotoneMap(chain(2), chain(3), [0, 2])
    named = MonotoneMap(
        FinPreorder(2, chain(2).up, labels="xy"),
        FinPreorder(3, chain(3).up, labels="abc"),
        [0, 2],
    )
    assert plain == named
    for f in (plain, named, plain):
        fact = factorise(f)
        assert fact.rho.tgt.labels == f.tgt.labels
        assert fact.lam.src is f.src
    assert factorise(named).rho.tgt is named.tgt

    g = MonotoneMap(chain(3), chain(1), [0, 0, 0])
    for j in (plain, named, plain):
        sqs = squares(j, g)
        assert sqs
        for sq in sqs:
            assert sq.j.src.labels == j.src.labels and sq.j.tgt.labels == j.tgt.labels
            assert sq.h.src.labels == j.src.labels and sq.k.src.labels == j.tgt.labels
    assert all(sq.j is named and sq.g is g for sq in squares(named, g))


UNBOUNDED = {"order._canonical"}


def test_only_the_canonical_forms_are_memoised_without_a_bound():
    found = {}
    for info in pkgutil.iter_modules(lofs.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"lofs.{info.name}")
        for attr, obj in vars(module).items():
            inner = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_info") and getattr(inner, "__module__", None) == module.__name__:
                found[f"{info.name}.{attr}"] = obj.cache_info().maxsize
    bounded = {
        "cli.build_parser", "downsets._carrier", "downsets._inclusion_covers",
        "kan._member", "order._arrow_classes", "order._enumeration",
        "order._hom_rows", "order._monotone_assignments", "order._square_pairs",
    }
    assert bounded <= set(found)
    assert {name for name, size in found.items() if size is None} == UNBOUNDED
    assert found["cli.build_parser"] == 1
