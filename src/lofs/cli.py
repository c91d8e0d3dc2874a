"""Command-line front end.

Exit codes: 0 success or predicate true, 1 predicate false or suite
failure, 2 usage or I/O error, 3 invalid object (schema or invariant
violation).  Output is deterministic for fixed inputs and flags;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import formats, suite
from .errors import FormatError, IndexOutOfRange, InvariantViolation, LofsError
from .factorisation import factorise
from .kan import kan_injective, classify_injectives
from .lifting import GeneratorFamily, kz_orthogonal, lifting_structure
from .order import (
    DEFAULT_ENUM_BOUND,
    DEFAULT_MAX_CARRIER,
    FinPreorder,
    MonotoneMap,
    _bits,
    _subset_without_sup,
    _unreflected_pair,
    carrier_bound,
    enumerate_preorders,
    is_complete_lattice,
    is_full,
    size_bound,
)
from .topology import (
    FiniteSpace,
    f_lower_star,
    filter_space,
    filter_unit,
    is_continuous_lattice,
)

_INVALID = (FormatError, InvariantViolation, IndexOutOfRange)


def _load(path, want):
    doc = formats.load_document(path)
    if not isinstance(doc, want):
        raise FormatError(f"{path}: expected {want.__name__}, got {type(doc).__name__}")
    return doc


def _load_map(path):
    return _load(path, MonotoneMap)


def _emit(text):
    sys.stdout.write(text)


def _names(P, mask):
    return [P.label(i) for i in _bits(mask)]


def _equivalent_pair(P):
    """The first element with another in its class, and the least such other.

    Both are the two lowest members of the first class with two or more,
    since ``classes`` lists the classes by least member.
    """
    i, j = list(_bits(next(c for c in P.classes() if c & (c - 1))))[:2]
    return {"equivalent-pair": [P.label(i), P.label(j)]}


def _complete_lattice_witness(P):
    """The first subset without a least upper bound, by name, or None.

    The subset is the one ``order._subset_without_sup`` finds: the
    smallest, by size and then mask.
    """
    mask = _subset_without_sup(P)
    return None if mask is None else {"subset-without-sup": _names(P, mask)}


def _fullness_witness(f):
    """The first (a, b) with f(a) <= f(b) but not a <= b, by name, or None."""
    pair = _unreflected_pair(f.assign, f.src.up, f.tgt.up)
    if pair is None:
        return None
    return {"images-related": [f.src.label(a) for a in pair], "sources-unrelated": True}


# predicate name -> (reader of the file, predicate, witness of a false
# verdict); top-coalgebra reads f_* of the map, so that the verdict and
# its witness share one direct-image map.  An order embedding is a full
# map: f(a) ~ f(b) gives a <= b and b <= a by reflection, so a full map
# is already injective on classes.
_CHECKS = {
    "poset": (formats.load_preorder, lambda P: P.is_poset, _equivalent_pair),
    "complete-lattice": (formats.load_preorder, is_complete_lattice, _complete_lattice_witness),
    "continuous-lattice": (
        formats.load_preorder, is_continuous_lattice, _complete_lattice_witness
    ),
    "full": (_load_map, is_full, _fullness_witness),
    "order-embedding": (_load_map, is_full, _fullness_witness),
    "top-coalgebra": (lambda path: f_lower_star(_load_map(path)), is_full, _fullness_witness),
}


def _cmd_validate(args):
    for path in args.files:
        formats.load_document(path)
    _emit(formats.dumps({"valid": args.files}))
    return 0


def _cmd_check(args):
    read, predicate, witness = _CHECKS[args.predicate]
    value = read(args.file)
    result = bool(predicate(value))
    payload = {"predicate": args.predicate, "result": result}
    if args.witness and not result:
        payload["witness"] = witness(value)
    _emit(formats.dumps(payload))
    return 0 if result else 1


def _cmd_factor(args):
    fact = factorise(_load_map(args.file))
    if args.format == "dot":
        _emit(formats.hasse_dot(formats.labelled_carrier(fact)))
    else:
        _emit(formats.dumps(formats.factorisation_to_obj(fact)))
    return 0


def _cmd_fibrant(args):
    """K(A -> point), its unit and the iso onto the down-set lattice.

    The iso is the identity: K(A -> point) and ``downsets(A)`` are the
    carrier that ``downsets._carrier`` builds from the same ascending
    down-sets of A, so element i of both is the i-th down-set (see
    ``factorisation.fibrant_replacement``).
    """
    A = formats.load_preorder(args.file)
    point = FinPreorder(1, (1,), ("pt",))
    fact = factorise(MonotoneMap(A, point, [0] * A.n))
    if args.format == "dot":
        _emit(formats.hasse_dot(formats.labelled_carrier(fact)))
        return 0
    obj = formats.factorisation_to_obj(fact)
    payload = {
        "object": obj["K"],
        "unit": obj["lambda"],
        "downset-iso": {"assign": list(range(fact.K.n))},
    }
    _emit(formats.dumps(payload))
    return 0


def _cmd_lift(args):
    family = _load(args.family, GeneratorFamily)
    g = _load_map(args.map)
    st = lifting_structure(family, g)
    payload = {"exists": st is not None}
    if st is not None:
        payload["canonical"] = st.canonical
        if args.witness:
            payload["fillers"] = [
                {
                    "member": idx,
                    "h": list(h),
                    "k": list(k),
                    "diagonal": list(d.assign),
                }
                for (idx, h, k), d in sorted(st.fillers.items())
            ]
    _emit(formats.dumps(payload))
    return 0 if st is not None else 1


def _cmd_kz(args):
    j = _load_map(args.j)
    g = _load_map(args.g)
    w = kz_orthogonal(j, g)
    payload = {"exists": w is not None}
    if w is not None:
        payload["exact"] = w.exact
        payload["section"] = list(w.left_adjoint.assign)
    _emit(formats.dumps(payload))
    return 0 if w is not None else 1


def _cmd_kan_injective(args):
    A = formats.load_preorder(args.object)
    family = _load(args.family, GeneratorFamily)
    result = kan_injective(A, family)
    _emit(formats.dumps({"kan-injective": result}))
    return 0 if result else 1


def _cmd_classify(args):
    max_size = args.classify_max_size
    if max_size is None:
        max_size = 4 if args.max_size is None else args.max_size
    rows = classify_injectives(
        max_size, generator_size=args.generator_size, posets_only=args.posets_only
    )
    payload = [
        {
            "preorder": formats.preorder_to_obj(A),
            "kan-injective": injective,
            "complete-lattice": complete,
        }
        for A, injective, complete in rows
    ]
    _emit(formats.dumps(payload))
    return 0 if all(r["kan-injective"] == r["complete-lattice"] for r in payload) else 1


def _cmd_filter_space(args):
    X = _load(args.file, FiniteSpace)
    fs = filter_space(X)
    labels = ["{" + ",".join(_names(X.points, u)) + "}^" for u in fs.opens]
    filters = FinPreorder._checked(fs.filters.up, labels)
    if args.format == "dot":
        _emit(formats.hasse_dot(filters))
        return 0
    unit = filter_unit(X)
    payload = {
        "filters": formats.preorder_to_obj(filters),
        "unit": {
            X.points.label(x): labels[unit.assign[x]] for x in range(X.points.n)
        },
    }
    _emit(formats.dumps(payload))
    return 0


def _cmd_enumerate(args):
    items = enumerate_preorders(
        args.size, up_to_iso=not args.labeled, posets_only=args.posets_only
    )
    if args.format == "dot":
        _emit("".join(formats.hasse_dot(P) for P in items))
        return 0
    payload = [formats.preorder_to_obj(P) for P in items]
    _emit(formats.dumps({"count": len(items), "preorders": payload}))
    return 0


def _cmd_dot(args):
    _emit(formats.hasse_dot(formats.load_preorder(args.file)))
    return 0


def _cmd_suite(args):
    names = None
    if args.criteria is not None:
        names = set(args.criteria.split(","))
        unknown = sorted(names - {name.split()[0] for name, _ in suite.CRITERIA})
        if unknown:
            print(f"lofs: unknown criteria: {', '.join(map(repr, unknown))}", file=sys.stderr)
            return 2
    # the lines are written once the run returns, so a guard that fires in
    # a later criterion leaves stdout empty, as on every exit 2
    lines = []
    ok = suite.run_suite(names=names, emit=lambda line: lines.append(line + "\n"))
    _emit("".join(lines))
    return 0 if ok else 1


@lru_cache(maxsize=1)
def build_parser():
    """The ``lofs`` argument parser, built on first use and then shared.

    Building it is most of the cost of a small request, and parsing
    leaves it unchanged, so one parser serves every ``main`` call of a
    process.
    """
    parser = argparse.ArgumentParser(
        prog="lofs",
        description="Finite order-theoretic factorisations, lifting operations and topology.",
    )
    parser.add_argument("--max-carrier", type=int, default=DEFAULT_MAX_CARRIER, metavar="N",
                        help=f"bound on intermediate carriers (default {DEFAULT_MAX_CARRIER})")
    # default None so that a subcommand can tell an explicit bound apart
    parser.add_argument("--max-size", type=int, default=None, metavar="N",
                        help=f"bound on enumerated object size (default {DEFAULT_ENUM_BOUND})")
    parser.add_argument("--witness", action="store_true",
                        help="report a minimal counterexample on predicate failure")
    parser.add_argument("--format", choices=["json", "dot"], default="json",
                        help="output format where both make sense (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse files and check invariants")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("check", help="evaluate a predicate on one object")
    p.add_argument("predicate", choices=sorted(_CHECKS))
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("factor", help="factor a map through its pair preorder")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("fibrant", help="fibrant replacement of a preorder")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_fibrant)

    p = sub.add_parser("lift", help="search a lifting structure for a family")
    p.add_argument("family")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("kz", help="KZ-lifting operation between two maps")
    p.add_argument("j")
    p.add_argument("g")
    p.set_defaults(fn=_cmd_kz)

    p = sub.add_parser("kan-injective", help="Kan injectivity of an object")
    p.add_argument("object")
    p.add_argument("family")
    p.set_defaults(fn=_cmd_kan_injective)

    p = sub.add_parser("classify", help="Kan injectives vs complete lattices")
    p.add_argument("--max-size", dest="classify_max_size", type=int, default=None,
                   metavar="N", help="largest object size (default: the global "
                   "--max-size if given, else 4)")
    p.add_argument("--generator-size", type=int, default=None)
    p.add_argument("--posets-only", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("filter-space", help="the space of filters of a finite space")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_filter_space)

    p = sub.add_parser("enumerate", help="enumerate preorders of one size")
    p.add_argument("size", type=int)
    p.add_argument("--posets-only", action="store_true")
    p.add_argument("--labeled", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("dot", help="Hasse diagram of the poset reflection")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--criteria", default=None, metavar="LIST",
                   help="comma-separated criterion numbers to run")
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None):
    """Run one ``lofs`` command under its two bounds; the exit code.

    ``--max-carrier`` and ``--max-size`` are entered here, once, and every
    guard the command reaches reads them from the context.
    """
    args = build_parser().parse_args(argv)
    max_size = DEFAULT_ENUM_BOUND if args.max_size is None else args.max_size
    try:
        with carrier_bound(args.max_carrier), size_bound(max_size):
            return args.fn(args)
    except _INVALID as exc:
        print(f"lofs: invalid object: {exc}", file=sys.stderr)
        return 3
    except (LofsError, OSError) as exc:
        print(f"lofs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
