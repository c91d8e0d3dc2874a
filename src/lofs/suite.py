"""The acceptance battery: eleven exhaustive property checks.

Each criterion returns (passed, detail) and reads no clock.  The runner,
``run_suite``, is the one place that knows how a criterion runs: it
refuses unknown criterion numbers before any criterion runs, times each
criterion once, appends the time to the detail lines of the criteria in
``TIMED`` and fails one that misses its gate there, prints one line per
criterion and stops at the first failure, quoting the smallest witness
found.  Checks that state a brute-force oracle recompute the expected
value from first principles (naive loops over elements and subsets)
rather than through the code paths under test.
"""

from __future__ import annotations

import random
import time

from .adjunction import find_left_adjoint
from .downsets import check_lax_idempotent_P
from .errors import InvariantViolation, LofsError, SizeLimitExceeded
from .factorisation import (
    algebra_structure,
    canonical_diag,
    coalgebra_structure,
    comult,
    factorise,
    fibrant_replacement,
    k_on_square,
    mult,
)
from .kan import all_embeddings, classify_injectives
from .lifting import (
    GeneratorFamily,
    coproduct_family_check,
    kz_orthogonal,
    lifting_structure,
)
from .order import (
    MonotoneMap,
    Square,
    _bits,
    arrow_classes,
    chain,
    closure,
    compose,
    enumerate_preorders,
    hom_maps,
    identity,
    is_complete_lattice,
    is_full,
    maps_equivalent,
    monotone_assignments,
    representatives,
    squares,
    sup_mask,
)
from .topology import (
    FiniteSpace,
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

SEED = 20260808


def _naive_down_closed(P, mask):
    for j in _bits(mask):
        for i in range(P.n):
            if P.leq(i, j) and not (mask >> i) & 1:
                return False
    return True


def criterion_factorisation_soundness():
    """Factor every map of size <= 4 and replay the membership definition.

    The replay reads assignment tuples and ``le`` tables built once per
    codomain.  Row i of K must be the mask of the pairs (m2, b2) above
    pair i = (m, b) by definition: the AND of the column of pairs whose
    down-set contains m and the column of pairs whose bound lies above b.
    """
    count = 0
    codomains = [(Y, _order_tables(Y)[0]) for Y in representatives(4)]
    for X in representatives(4):
        downsets_of_x = [
            m for m in range(1 << X.n) if _naive_down_closed(X, m)
        ]
        for Y, le in codomains:
            for f in hom_maps(X, Y):
                fact = factorise(f)
                fa = f.assign
                if tuple(fact.rho.assign[v] for v in fact.lam.assign) != fa:
                    return False, f"composite differs from f for {f!r}"
                if not is_full(fact.lam):
                    return False, f"left part not full for {f!r}"
                expected = [
                    (m, b)
                    for m in downsets_of_x
                    for b in range(Y.n)
                    if all(le[fa[a]][b] for a in _bits(m))
                ]
                pairs = fact.pairs
                if sorted(expected) != list(pairs):
                    return False, f"membership oracle mismatch for {f!r}"
                above_col = [
                    sum(1 << i2 for i2, (_, b2) in enumerate(pairs) if le[b][b2])
                    for b in range(Y.n)
                ]
                superset_col = {
                    m: sum(1 << i2 for i2, (m2, _) in enumerate(pairs) if m | m2 == m2)
                    for m in {m for m, _ in pairs}
                }
                for i, (m, b) in enumerate(pairs):
                    if superset_col[m] & above_col[b] != fact.K.up[i]:
                        return False, f"order oracle mismatch for {f!r}"
                count += 1
    return True, f"{count} maps factored and replayed"


def _random_preorder(rnd, max_size):
    n = rnd.randint(1, max_size)
    pairs = [
        (rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randint(0, 2 * n))
    ]
    return closure(n, pairs)


def _random_monotone(rnd, X, Y):
    """A random monotone map X -> Y by rejection, or None after 300 draws.

    Only a draw that is not monotone is rejected; any other error is a
    fault of the code under test and propagates.
    """
    if X.n == 0:
        return MonotoneMap(X, Y, [])
    if Y.n == 0:
        return None
    for _ in range(300):
        assign = [rnd.randrange(Y.n) for _ in range(X.n)]
        try:
            return MonotoneMap(X, Y, assign)
        except InvariantViolation:
            continue
    return None


def criterion_coalgebra_iff_full():
    """Coalgebras are the full maps: exhaustively <= 3, sampled at 4."""
    checked = 0
    for X in representatives(3):
        for Y in representatives(3):
            for f in hom_maps(X, Y):
                if (coalgebra_structure(f) is not None) != is_full(f):
                    return False, f"mismatch at {f!r}"
                checked += 1
    rnd = random.Random(SEED)
    sampled = 0
    while sampled < 500:
        X = _random_preorder(rnd, 4)
        Y = _random_preorder(rnd, 4)
        if sampled % 2:
            f = _random_monotone(rnd, X, Y)
            if f is None:
                continue
        else:
            mask = rnd.randrange(1, 1 << Y.n)
            sub = Y.restrict(mask)
            elems = list(_bits(mask))
            f = MonotoneMap(sub, Y, elems)
        if (coalgebra_structure(f) is not None) != is_full(f):
            return False, f"mismatch at sampled {f!r}"
        sampled += 1
    return True, f"{checked} exhaustive + {sampled} sampled maps, zero mismatches"


def criterion_fibrant_iff_complete():
    """Algebras over the point are exactly the complete lattices, size <= 5."""
    point = chain(1)
    rows = 0
    for A in representatives(5):
        bang = MonotoneMap(A, point, [0] * A.n)
        has_algebra = algebra_structure(bang) is not None
        if has_algebra != is_complete_lattice(A):
            return False, f"mismatch at {A!r}"
        rows += 1
    return True, f"{rows} isomorphism classes agree"


def criterion_fibrant_replacement():
    """K(A -> point) is the down-set lattice, with the left part the unit.

    ``downsets`` is built by the same code as K, so the lattice is
    recomputed by loops: the down-closed subsets of A, ascending, which
    is the element order of ``downsets(A)`` that the iso lands in,
    ordered by subset test, and the unit by principal down-sets.
    """
    for A in representatives(5):
        K, lam, iso = fibrant_replacement(A)
        subsets = [m for m in range(1 << A.n) if _naive_down_closed(A, m)]
        if sorted(iso.assign) != list(range(len(subsets))):
            return False, f"not a bijection for {A!r}"
        image = [subsets[v] for v in iso.assign]
        for i in range(K.n):
            for j in range(K.n):
                if K.leq(i, j) != (not image[i] & ~image[j]):
                    return False, f"not an order-isomorphism for {A!r}"
        principal = [sum(1 << b for b in range(A.n) if A.leq(b, a)) for a in range(A.n)]
        if [image[v] for v in lam.assign] != principal:
            return False, f"left part is not the principal-down-set unit for {A!r}"
    return True, "replacement matches the down-set lattice for all 186 classes"


def _order_tables(P):
    """(le, rep): le[a][b] says a <= b in P; rep[a] is the least b equivalent to a."""
    le = [[P.leq(a, b) for b in range(P.n)] for a in range(P.n)]
    return le, [next(b for b in range(P.n) if le[a][b] and le[b][a]) for a in range(P.n)]


def criterion_least_diagonal():
    """Canonical diagonals are least fillers and agree with the KZ section.

    Boundary equations and filler membership are read up to pointwise
    equivalence (on posets that is equality); the minimality check runs
    against every monotone map filling the square in that sense.  Maps
    are composed and compared as assignment tuples, against order tables
    built once per algebra.
    """
    classes = arrow_classes(3)
    fulls = [(f, coalgebra_structure(f)) for f in classes if is_full(f)]
    algebras = []
    for g in classes:
        w = algebra_structure(g)
        if w is not None:
            algebras.append((g, w, _order_tables(g.src), _order_tables(g.tgt)))

    def leq(le, a, b):
        return all(le[x][y] for x, y in zip(a, b))

    def equiv(le, a, b):
        return leq(le, a, b) and leq(le, b, a)

    def norm(rep, assign):
        return tuple(rep[v] for v in assign)

    pairs = 0
    for f, s in fulls:
        for g, p, (le_c, rep_c), (le_d, rep_d) in algebras:
            sqs = squares(f, g)
            fillers_of = {}
            all_maps = monotone_assignments(f.tgt, g.src)
            by_boundary = {}
            for w in all_maps:
                h, k = [w[x] for x in f.assign], [g.assign[y] for y in w]
                by_boundary.setdefault((norm(rep_c, h), norm(rep_d, k)), []).append(w)
            for sq in sqs:
                d = canonical_diag(sq, s, p).assign
                if not equiv(le_c, [d[x] for x in f.assign], sq.h.assign):
                    return False, f"diagonal misses h on {sq!r}"
                if not equiv(le_d, [g.assign[y] for y in d], sq.k.assign):
                    return False, f"diagonal misses k on {sq!r}"
                fillers_of[(sq.h.assign, sq.k.assign)] = d
                key = (norm(rep_c, sq.h.assign), norm(rep_d, sq.k.assign))
                for w in by_boundary.get(key, ()):
                    if not leq(le_c, d, w):
                        return False, f"diagonal not least on {sq!r}"
            w = kz_orthogonal(f, g)
            if w is None:
                return False, f"KZ witness missing for full {f!r} vs algebra {g!r}"
            for i, sq in enumerate(sqs):
                picked = all_maps[w.left_adjoint(i)]
                if not equiv(le_c, picked, fillers_of[(sq.h.assign, sq.k.assign)]):
                    return False, f"section disagrees with the diagonal on {sq!r}"
            pairs += 1
    return True, f"{pairs} (coalgebra, algebra) pairs, zero violations"


def criterion_lax_idempotency():
    """Unit comparisons, adjoint multiplications and the mixed law."""
    for X in representatives(4):
        if not check_lax_idempotent_P(X):
            return False, f"down-set unit comparison fails at {X!r}"
    skipped = 0
    for f in arrow_classes(3):
        try:
            fact = factorise(f)
            frho = factorise(fact.rho)
            flam = factorise(fact.lam)
            # unit comparison for the right-part construction on arrows
            klam = k_on_square(_unit_square(f, fact))
            for i in range(fact.K.n):
                if not frho.K.leq(klam.assign[i], frho.lam.assign[i]):
                    return False, f"arrow unit comparison fails at {f!r}"
            pi = mult(f)
            adjoint = find_left_adjoint(frho.lam)
            if adjoint is None or not maps_equivalent(pi, adjoint):
                return False, f"multiplication is not the unit's left adjoint at {f!r}"
            sigma = comult(f)
            lhs = compose(sigma, flam.rho)
            rhs = compose(frho.lam, pi)
            if not maps_equivalent(lhs, rhs):
                return False, f"mixed law fails at {f!r}"
        except SizeLimitExceeded:
            skipped += 1
    if skipped:
        return False, f"{skipped} maps exceeded the carrier bound"
    return True, "unit comparisons, adjoint mult and mixed law hold through size 3"


def _unit_square(f, fact):
    return Square(f, fact.rho, fact.lam, identity(f.tgt))


def criterion_kan_classification():
    """Kan injectives for embeddings of size <= 4 = complete lattices, size <= 5."""
    rows = classify_injectives(5, generator_size=4)
    for A, injective, complete in rows:
        if injective != complete:
            return False, f"row disagrees at {A!r}"
    rows_posets = classify_injectives(5, generator_size=4, posets_only=True)
    for (A, injective, _), (_, injective2, _) in zip(rows, rows_posets):
        if injective != injective2:
            return False, f"poset-only generators change the row of {A!r}"
    n_emb = len(all_embeddings(4))
    return True, (
        f"{len(rows)} objects against {n_emb} embedding classes agree, "
        "poset-only rerun identical,"
    )


def criterion_family_laws():
    """Identity generators impose nothing; coproduct families split."""
    rnd = random.Random(SEED + 1)
    small = list(representatives(2))
    mid = list(representatives(3))
    for _ in range(40):
        Z = small[rnd.randrange(len(small))]
        X = mid[rnd.randrange(len(mid))]
        Y = mid[rnd.randrange(len(mid))]
        g = _random_monotone(rnd, X, Y)
        if g is None:
            continue
        st = lifting_structure(GeneratorFamily([identity(Z)]), g)
        if st is None:
            return False, f"identity family rejected {g!r}"
    def random_family():
        members = []
        for _ in range(rnd.randint(1, 2)):
            X = small[rnd.randrange(len(small))]
            Y = small[rnd.randrange(len(small))]
            j = _random_monotone(rnd, X, Y)
            if j is not None:
                members.append(j)
        if not members:
            members = [identity(small[1])]
        links = []
        if len(members) == 2 and rnd.random() < 0.3:
            sqs = squares(members[0], members[1])
            if sqs:
                sq = sqs[rnd.randrange(len(sqs))]
                links.append((0, 1, sq.h, sq.k))
        return GeneratorFamily(members, links)

    done = 0
    while done < 100:
        fam1 = random_family()
        fam2 = random_family()
        X = mid[rnd.randrange(len(mid))]
        Y = mid[rnd.randrange(len(mid))]
        g = _random_monotone(rnd, X, Y)
        if g is None:
            continue
        if not coproduct_family_check(fam1, fam2, g):
            return False, f"coproduct check fails for {g!r}"
        done += 1
    return True, f"identity families pass, {done} random coproduct pairs split"


def criterion_topology_collapse():
    """Scott opens, way-below, continuity, filter algebras and embeddings."""
    for P in representatives(5, posets_only=True):
        if scott_opens(P) != open_masks(P):
            return False, f"Scott opens differ from up-sets on {P!r}"
        if way_below(P) != P.up:
            return False, f"way-below differs from the order on {P!r}"
        if is_continuous_lattice(P) != is_complete_lattice(P):
            return False, f"continuity differs from completeness on {P!r}"
    for P in representatives(4):
        if (filter_algebra(FiniteSpace(P)) is not None) != is_complete_lattice(P):
            return False, f"filter algebra mismatch on {P!r}"
    for P in representatives(3):
        X = FiniteSpace(P)
        fs = filter_space(X)
        eta = filter_unit(X)
        m = filter_mult(X)
        eta_f = filter_unit(FiniteSpace(fs.filters))
        f_eta = filter_map(eta)
        n = fs.filters.n
        if compose(eta_f, m).assign != tuple(range(n)):
            return False, f"filter left unit law fails on {P!r}"
        if compose(f_eta, m).assign != tuple(range(n)):
            return False, f"filter right unit law fails on {P!r}"
        m_f = filter_mult(FiniteSpace(fs.filters))
        f_m = filter_map(m)
        if compose(f_m, m).assign != compose(m_f, m).assign:
            return False, f"filter associativity fails on {P!r}"
    maps = 0
    for X in representatives(4, posets_only=True):
        for Y in representatives(4, posets_only=True):
            for f in hom_maps(X, Y):
                if is_top_coalgebra(f) != is_embedding(f):
                    return False, f"embedding mismatch at {f!r}"
                maps += 1
    return True, f"collapse laws, filter monad and {maps} T0 embedding checks agree"


def criterion_chain_stages():
    """Finite stages m <= 6 of the ascending-chain example, in one walk.

    Each stage m is the (m+1)-element chain, a complete lattice, and every
    inclusion of a shorter stage into a longer one preserves all suprema,
    is an embedding and is Scott-continuous.  The detail line states that
    the failure at the limit stage is not finitely representable.
    """
    for m2 in range(1, 7):
        big = chain(m2 + 1)
        if not is_complete_lattice(big):
            return False, "a finite chain stage failed"
        big_opens = set(scott_opens(big))
        for m1 in range(m2):
            small = chain(m1 + 1)
            inc = MonotoneMap(small, big, range(m1 + 1))
            for mask in range(1 << small.n):
                s = sup_mask(small, mask)
                t = sup_mask(big, sum(1 << inc.assign[x] for x in _bits(mask)))
                if s is None or t is None or inc.assign[s] != t:
                    return False, "a finite chain stage failed"
            if not is_embedding(inc):
                return False, f"stage inclusion {m1}<{m2} is not an embedding"
            small_opens = set(scott_opens(small))
            for u in big_opens:
                pre = sum(1 << x for x in range(small.n) if u >> inc.assign[x] & 1)
                if pre not in small_opens:
                    return False, f"stage inclusion {m1}<{m2} is not Scott-continuous"
    return True, (
        "stages m<m'<= 6: chains are complete lattices and the "
        "inclusions preserve all suprema; the failure at the limit stage "
        "(the union of all finite stages, which has no top) is not finitely "
        "representable and is out of scope here"
    )


def criterion_enumeration_counts():
    preorder_counts = [1, 1, 3, 9, 33]
    poset_counts = [1, 1, 2, 5, 16]
    for n, expect in enumerate(preorder_counts):
        got = len(enumerate_preorders(n))
        if got != expect:
            return False, f"preorders({n}) = {got}, published {expect}"
    for n, expect in enumerate(poset_counts):
        got = len(enumerate_preorders(n, posets_only=True))
        if got != expect:
            return False, f"posets({n}) = {got}, published {expect}"
    return True, f"unlabeled counts {preorder_counts} and {poset_counts} reproduced"


CRITERIA = [
    ("1 factorisation-soundness", criterion_factorisation_soundness),
    ("2 coalgebra-iff-full", criterion_coalgebra_iff_full),
    ("3 fibrant-iff-complete-lattice", criterion_fibrant_iff_complete),
    ("4 fibrant-replacement", criterion_fibrant_replacement),
    ("5 least-diagonal", criterion_least_diagonal),
    ("6 lax-idempotency", criterion_lax_idempotency),
    ("7 kan-injectivity-classification", criterion_kan_classification),
    ("8 generator-family-laws", criterion_family_laws),
    ("9 finite-topology-collapse", criterion_topology_collapse),
    ("10 chain-stage-demos", criterion_chain_stages),
    ("11 enumeration-counts", criterion_enumeration_counts),
]


# criterion number -> its wall-clock gate in seconds, or None for no gate:
# the PASS lines of these criteria end with the criterion's time
TIMED = {"1": 60, "3": 120, "7": None, "11": 30}


def run_suite(names=None, emit=print, fail_fast=True):
    """Run the battery, printing one PASS/FAIL line per criterion; whether all passed.

    ``names`` holds criterion numbers as strings; a number the battery
    does not have raises ``LofsError`` before any criterion runs.  The
    runner times each criterion once.  A criterion in ``TIMED`` that
    passes gets " in X.Xs" on its detail line, and one that took its
    gate or longer fails with "runtime target missed".  The run stops at
    the first FAIL line unless ``fail_fast`` is false, which the
    benchmark's battery report sets to time every criterion.
    """
    numbers = {name.split()[0] for name, _ in CRITERIA}
    unknown = [] if names is None else sorted(set(names) - numbers)
    if unknown:
        raise LofsError(f"unknown criteria: {', '.join(map(repr, unknown))}")
    all_ok = True
    for name, fn in CRITERIA:
        number = name.split()[0]
        if names and number not in names:
            continue
        start = time.perf_counter()
        passed, detail = fn()
        elapsed = time.perf_counter() - start
        gate = TIMED.get(number)
        if passed and gate is not None and elapsed >= gate:
            passed, detail = False, f"runtime target missed: {elapsed:.1f}s >= {gate}s"
        elif passed and number in TIMED:
            detail += f" in {elapsed:.1f}s"
        status = "PASS" if passed else "FAIL"
        emit(f"{status}  {name}  ({elapsed:.1f}s)  {detail}")
        if not passed:
            all_ok = False
            if fail_fast:
                break
    return all_ok
