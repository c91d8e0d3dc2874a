"""Seeded request generator for the ``cli-mixed`` workload.

Pure Python with no lofs imports, so the program under test never helps
build its own inputs.  ``generate(seed, count)`` returns ``count`` timed
requests plus one known-defect probe per hundred requests; the same seed
always yields the same requests, in the same order, with the same file
contents.

Each request carries the exit codes it may end with, decided by small
oracles written here from the definitions (antisymmetry, bottom plus
binary joins up to equivalence, fullness).  One request in ten is
malformed.  Eleven malformed classes have a defined exit code (3 for an
invalid object, 2 for usage or I/O).  Two more classes hit defects that
raise out of ``lofs.cli.main`` instead of exiting; they are returned
separately as probes so that the timed stream holds only requests that
complete.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

MALFORMED_SHARE = 0.1

# class name -> exit codes a correct CLI returns for it
MALFORMED = {
    "bad-json": frozenset({3}),
    "unknown-type": frozenset({3}),
    "unknown-element": frozenset({3}),
    "bad-pair": frozenset({3}),
    "non-string-element": frozenset({3}),
    "duplicate-element": frozenset({3}),
    "non-monotone": frozenset({3}),
    "missing-assign": frozenset({3}),
    "wrong-kind": frozenset({3}),
    "missing-file": frozenset({2}),
    "usage": frozenset({2}),
}

# known defects: class name -> (exception they raise today, exit codes once fixed)
DEFECTS = {
    "self-source": ("RecursionError", frozenset({2, 3})),
    "unhashable-le": ("TypeError", frozenset({3})),
}

VALID_KINDS = (
    "check-poset",
    "check-complete-lattice",
    "check-continuous-lattice",
    "check-full",
    "check-order-embedding",
    "check-top-coalgebra",
    "factor-json",
    "factor-dot",
    "fibrant",
    "filter-space",
    "kz",
    "kan-injective",
    "lift",
    "dot",
    "validate",
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Request:
    """One CLI call: its argv, the files it reads, and its allowed exit codes."""

    index: int
    kind: str
    argv: list
    files: dict = field(default_factory=dict)
    expect: frozenset = frozenset({0, 1})
    defect: str | None = None


# ---------------------------------------------------------------------------
# order-theoretic oracles on bitmask rows (row i = mask of {j : i <= j})


def closure(n, pairs):
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        rows[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if (rows[i] >> k) & 1:
                rows[i] |= rows[k]
    return rows


def is_poset(rows):
    n = len(rows)
    return not any(
        (rows[i] >> j) & (rows[j] >> i) & 1 for i in range(n) for j in range(i + 1, n)
    )


def _has_sup(rows, mask):
    ub = (1 << len(rows)) - 1
    for i in range(len(rows)):
        if (mask >> i) & 1:
            ub &= rows[i]
    return any((ub >> u) & 1 and not (ub & ~rows[u]) for u in range(len(rows)))


def is_complete_lattice(rows):
    n = len(rows)
    if n == 0 or not _has_sup(rows, 0):
        return False
    return all(
        _has_sup(rows, (1 << i) | (1 << j)) for i in range(n) for j in range(i + 1, n)
    )


def is_full(rows_x, rows_y, assign):
    n = len(rows_x)
    return all(
        (rows_x[a] >> b) & 1 or not (rows_y[assign[a]] >> assign[b]) & 1
        for a in range(n)
        for b in range(n)
    )


# ---------------------------------------------------------------------------
# random objects


class _Preorder:
    __slots__ = ("names", "pairs", "rows")

    def __init__(self, names, pairs):
        self.names = names
        self.pairs = pairs
        self.rows = closure(len(names), pairs)

    def obj(self, type_name="preorder"):
        return {
            "type": type_name,
            "elements": list(self.names),
            "le": [[self.names[a], self.names[b]] for a, b in self.pairs],
        }


_LEVELS = 3  # relation densities: few, some, many generating pairs


class _Rng(random.Random):
    """Seeded randomness that deals object shapes from shuffled decks.

    A shape is a size and a density level.  A deck holds every shape of its
    range once and is reshuffled when empty, so each seed gets nearly the
    same mix of sizes and densities and only structure and order vary.  That
    keeps the slowest requests, which set the tail, alike from seed to seed.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.decks = {}

    def deal(self, key, cards):
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = list(cards)
            self.shuffle(deck)
        return deck.pop()


def _shapes(lo, hi):
    return [(n, level) for n in range(lo, hi + 1) for level in range(_LEVELS)]


def _preorder(rng, deck, lo, hi, shape=None):
    n, level = shape or rng.deal((deck, lo, hi), _shapes(lo, hi))
    names = rng.sample(_LETTERS, n)
    k = rng.randint(level * 2 * n // _LEVELS, (level + 1) * 2 * n // _LEVELS)
    pairs = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(k)})
    return _Preorder(names, [(a, b) for a, b in pairs if a != b])


def _pair(rng, deck, lo, hi):
    """Source and target preorders whose shapes are dealt together."""
    shapes = _shapes(lo, hi)
    a, b = rng.deal((deck, lo, hi, "pair"), [(x, y) for x in shapes for y in shapes])
    return _preorder(rng, deck, lo, hi, a), _preorder(rng, deck, lo, hi, b)


def _monotone(rng, X, Y):
    """A random monotone assignment X -> Y by randomised backtracking."""
    n, m = len(X.rows), len(Y.rows)
    assign = [0] * n

    def rec(i):
        if i == n:
            return True
        choices = list(range(m))
        rng.shuffle(choices)
        for v in choices:
            if all(
                (not (X.rows[j] >> i) & 1 or (Y.rows[assign[j]] >> v) & 1)
                and (not (X.rows[i] >> j) & 1 or (Y.rows[v] >> assign[j]) & 1)
                for j in range(i)
            ):
                assign[i] = v
                if rec(i + 1):
                    return True
        return False

    rec(0)  # always succeeds: a constant map is monotone
    return assign


def _map_obj(X, Y, assign, source=None):
    return {
        "type": "map",
        "source": source if source is not None else X.obj(),
        "target": Y.obj(),
        "assign": {X.names[a]: Y.names[v] for a, v in enumerate(assign)},
    }


def _embedding(rng, deck, lo, hi):
    """An order-embedding: a random subset of Y with the induced order."""
    Y = _preorder(rng, deck, lo, hi)
    m = len(Y.rows)
    elems = sorted(rng.sample(range(m), rng.randint(1, m)))
    pos = {e: p for p, e in enumerate(elems)}
    pairs = [
        (pos[a], pos[b])
        for a in elems
        for b in elems
        if a != b and (Y.rows[a] >> b) & 1
    ]
    X = _Preorder(rng.sample(_LETTERS, len(elems)), pairs)
    return X, Y, elems


def _dumps(obj):
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# requests


def _valid(rng, kind, tag):
    """(argv, files, expect) for one well-formed request."""
    name = f"{tag}.json"
    if kind.startswith("check-"):
        pred = kind[len("check-"):]
        flags = ["--witness"] if rng.random() < 0.5 else []
        if pred in ("poset", "complete-lattice", "continuous-lattice"):
            P = _preorder(rng, kind, 1, 5)
            if pred == "poset":
                ok = is_poset(P.rows)
            elif pred == "complete-lattice":
                ok = is_complete_lattice(P.rows)
            else:
                ok = is_poset(P.rows) and is_complete_lattice(P.rows)
            expect = frozenset({0 if ok else 1})
            return flags + ["check", pred, name], {name: _dumps(P.obj())}, expect
        X, Y = _pair(rng, "check-map", 1, 5)
        assign = _monotone(rng, X, Y)
        if pred in ("full", "order-embedding"):
            expect = frozenset({0 if is_full(X.rows, Y.rows, assign) else 1})
        else:
            expect = frozenset({0, 1})
        return flags + ["check", pred, name], {name: _dumps(_map_obj(X, Y, assign))}, expect
    if kind in ("factor-json", "factor-dot"):
        X, Y = _pair(rng, "factor", 1, 5)
        files = {}
        source = None
        if rng.random() < 0.3:  # endpoint given by relative path
            source = f"{tag}_src.json"
            files[source] = _dumps(X.obj())
        files[name] = _dumps(_map_obj(X, Y, _monotone(rng, X, Y), source))
        flags = ["--format", "dot"] if kind == "factor-dot" else []
        return flags + ["factor", name], files, frozenset({0})
    if kind in ("fibrant", "dot"):
        P = _preorder(rng, kind, 1, 5)
        flags = ["--format", "dot"] if kind == "fibrant" and rng.random() < 0.3 else []
        return flags + [kind, name], {name: _dumps(P.obj())}, frozenset({0})
    if kind == "filter-space":
        P = _preorder(rng, kind, 1, 5)
        return ["filter-space", name], {name: _dumps(P.obj("space"))}, frozenset({0})
    if kind == "kz":
        X, Y, elems = _embedding(rng, "kz-j", 1, 3) if rng.random() < 0.5 else (None, None, None)
        if X is None:
            X, Y = _preorder(rng, "kz-j", 1, 2), _preorder(rng, "kz-j", 1, 3)
            elems = _monotone(rng, X, Y)
        C, D = _pair(rng, "kz", 1, 3)
        jname, gname = f"{tag}_j.json", f"{tag}_g.json"
        files = {
            jname: _dumps(_map_obj(X, Y, elems)),
            gname: _dumps(_map_obj(C, D, _monotone(rng, C, D))),
        }
        return ["kz", jname, gname], files, frozenset({0, 1})
    if kind == "kan-injective":
        A = _preorder(rng, kind, 1, 5)
        family = [_map_obj(*_embedding(rng, "kan-family", 1, 3)) for _ in range(rng.randint(1, 2))]
        fname = f"{tag}_fam.json"
        files = {name: _dumps(A.obj()), fname: _dumps(family)}
        return ["kan-injective", name, fname], files, frozenset({0, 1})
    if kind == "lift":
        members = []
        for _ in range(rng.randint(1, 2)):
            X, Y = _pair(rng, "lift-member", 1, 2)
            members.append(_map_obj(X, Y, _monotone(rng, X, Y)))
        C, D = _pair(rng, "lift", 1, 3)
        fname = f"{tag}_fam.json"
        files = {
            fname: _dumps({"type": "family", "members": members}),
            name: _dumps(_map_obj(C, D, _monotone(rng, C, D))),
        }
        return ["lift", fname, name], files, frozenset({0, 1})
    if kind == "validate":
        files = {}
        for k in range(rng.randint(1, 3)):
            fname = f"{tag}_{k}.json"
            roll = rng.random()
            if roll < 0.4:
                files[fname] = _dumps(_preorder(rng, kind, 1, 5).obj())
            elif roll < 0.6:
                files[fname] = _dumps(_preorder(rng, kind, 1, 5).obj("space"))
            else:
                X, Y = _pair(rng, kind, 1, 4)
                files[fname] = _dumps(_map_obj(X, Y, _monotone(rng, X, Y)))
        return ["validate", *files], files, frozenset({0})
    raise ValueError(f"unknown request kind {kind!r}")


def _malformed(rng, cls, tag):
    """(argv, files) for one malformed request of class ``cls``."""
    name = f"{tag}.json"
    P = _preorder(rng, "malformed", 2, 5)
    obj = P.obj()
    command = [rng.choice(["dot", "fibrant"])]
    if cls == "bad-json":
        text = _dumps(obj)
        return command + [name], {name: text[: rng.randrange(1, len(text) - 1)]}
    if cls == "unknown-type":
        obj["type"] = rng.choice(["lattice", "poset", "graph"])
    elif cls == "unknown-element":
        obj["le"].append([P.names[0], "zz"])
    elif cls == "bad-pair":
        obj["le"].append(list(P.names[:3]) if len(P.names) > 2 else [P.names[0]])
    elif cls == "non-string-element":
        obj["elements"][rng.randrange(len(P.names))] = rng.randint(0, 9)
    elif cls == "duplicate-element":
        obj["elements"][1] = obj["elements"][0]
    elif cls == "unhashable-le":
        obj["le"].append([[P.names[0]], P.names[1]])
    elif cls == "wrong-kind":
        command = ["factor"]
    elif cls == "missing-file":
        return command + [f"{tag}_absent.json"], {}
    elif cls == "usage":
        return ["check", "not-a-predicate", name], {name: _dumps(obj)}
    elif cls in ("non-monotone", "missing-assign", "self-source"):
        if cls == "non-monotone":
            # a strict pair a < b sent to unrelated points of an antichain
            X = _Preorder(rng.sample(_LETTERS, 2), [(0, 1)])
            Y = _Preorder(rng.sample(_LETTERS, 2), [])
            mobj = _map_obj(X, Y, [0, 1])
        else:
            Y = _preorder(rng, "malformed", 1, 4)
            mobj = _map_obj(P, Y, _monotone(rng, P, Y))
            if cls == "missing-assign":
                del mobj["assign"][rng.choice(P.names)]
            else:
                mobj["source"] = name
        return [rng.choice(["factor", "validate"]), name], {name: _dumps(mobj)}
    return command + [name], {name: _dumps(obj)}


def _largest_factorisation(rng, tag):
    """The 5-antichain into a 5-element indiscrete preorder: 160 carrier elements.

    No map of size <= 5 has a larger carrier or a longer JSON answer.  Every
    seed gets one, so the request that sets peak memory is in every mix.
    """
    X = _Preorder(rng.sample(_LETTERS, 5), [])
    Y = _Preorder(rng.sample(_LETTERS, 5), [(i, (i + 1) % 5) for i in range(5)])
    name = f"{tag}.json"
    return ["factor", name], {name: _dumps(_map_obj(X, Y, [0] * 5))}


def generate(seed, count):
    """(timed requests, defect probes) for one seed; both deterministic.

    The mix is fixed and only its order and documents vary with the seed:
    one request in ten is malformed, the classes and the valid kinds each
    appear equally often, and one probe per hundred requests goes to each
    known defect in turn.  The first ``factor`` request is the largest one.
    """
    rng = _Rng(seed)
    n_bad = round(count * MALFORMED_SHARE)
    bad = sorted(MALFORMED)
    schedule = [bad[i % len(bad)] for i in range(n_bad)]
    schedule += [VALID_KINDS[i % len(VALID_KINDS)] for i in range(count - n_bad)]
    rng.shuffle(schedule)
    requests, seen = [], set()
    largest_placed = False
    for serial, kind in enumerate(schedule):
        tag = f"r{serial}"
        if kind == "factor-json" and not largest_placed:
            largest_placed = True
            argv, files = _largest_factorisation(rng, tag)
            requests.append(Request(len(requests), kind, argv, files, frozenset({0})))
            continue
        while True:
            if kind in MALFORMED:
                (argv, files), expect = _malformed(rng, kind, tag), MALFORMED[kind]
            else:
                argv, files, expect = _valid(rng, kind, tag)
            # distinct documents, so no cache inside lofs can serve a repeat
            key = tuple(files.values())
            if not files or key not in seen:
                break
        seen.add(key)
        requests.append(Request(len(requests), kind, argv, files, expect))
    defects = sorted(DEFECTS)
    probes = []
    for i in range(max(len(defects), count // 100)):
        cls = defects[i % len(defects)]
        argv, files = _malformed(rng, cls, f"p{i}")
        probes.append(Request(i, cls, argv, files, DEFECTS[cls][1], defect=cls))
    return requests, probes
