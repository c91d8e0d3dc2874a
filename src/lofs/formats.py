"""Shared JSON object formats and DOT export.

Preorders travel as ``{"type": "preorder", "elements": [...], "le": [[a, b], ...]}``;
the reader applies reflexive-transitive closure, so generators suffice.
Maps carry their endpoints inline or as a path relative to the referencing
file.  Spaces use the same shape as preorders under ``"type": "space"``.
Families are either a bare JSON array of maps or an object with
``members`` and optional ``links``.
"""

from __future__ import annotations

import contextvars
import json
import os

from .errors import FormatError
from .lifting import GeneratorFamily
from .order import FinPreorder, MonotoneMap, _bits, _closure_rows, _union
from .topology import FiniteSpace


# real paths of the files whose documents are being built; an endpoint
# naming one of them again would recurse without end
_reading = contextvars.ContextVar("lofs_formats_reading", default=frozenset())


def _expect(cond, message):
    if not cond:
        raise FormatError(message)


def preorder_from_obj(obj):
    """The labelled preorder of a ``preorder`` or ``space`` object.

    The generating pairs are closed reflexively and transitively, and the
    result is validated once, with its labels.
    """
    _expect(isinstance(obj, dict), "preorder must be a JSON object")
    _expect(obj.get("type") in ("preorder", "space"), "expected a preorder object")
    elements = obj.get("elements")
    _expect(
        isinstance(elements, list) and all(isinstance(e, str) for e in elements),
        "elements must be a list of strings",
    )
    _expect(len(set(elements)) == len(elements), "element names must be distinct")
    index = {e: i for i, e in enumerate(elements)}
    le = obj.get("le", [])
    _expect(isinstance(le, list), "le must be a list of pairs")
    pairs = []
    for entry in le:
        _expect(
            isinstance(entry, list) and len(entry) == 2,
            "each le entry must be a two-element list",
        )
        a, b = entry
        _expect(
            isinstance(a, str) and isinstance(b, str), f"le pair {entry} names non-strings"
        )
        _expect(a in index and b in index, f"unknown element in le pair {entry}")
        pairs.append((index[a], index[b]))
    return FinPreorder(len(elements), _closure_rows(len(elements), pairs), elements)


def preorder_to_obj(P, type_name="preorder"):
    return {
        "type": type_name,
        "elements": [P.label(i) for i in range(P.n)],
        "le": [[P.label(i), P.label(j)] for i, j in P.pairs()],
    }


def space_from_obj(obj):
    _expect(obj.get("type") == "space", "expected a space object")
    return FiniteSpace(preorder_from_obj(obj))


def load_preorder(path):
    """The preorder in the file at ``path``, or the points of its space.

    The one reader for a command argument or a map endpoint that may
    name either kind of file.
    """
    doc = load_document(path)
    if isinstance(doc, FiniteSpace):
        return doc.points
    _expect(isinstance(doc, FinPreorder), f"{path}: expected a preorder or space")
    return doc


def _resolve_endpoint(value, base_dir):
    """A map endpoint: a path relative to the map's file, or an inline object."""
    if isinstance(value, str):
        return load_preorder(os.path.join(base_dir, value))
    return preorder_from_obj(value)


def _named_assign(obj, src, tgt, what):
    """The map src -> tgt that the name-to-name object ``obj`` describes.

    The one reader for a map's ``assign`` and for the legs of a family
    link; ``what`` names the field in messages.  Every source element
    must be named, and the map is validated as monotone.
    """
    _expect(isinstance(obj, dict), f"{what} must be an object")
    src_index = {src.label(i): i for i in range(src.n)}
    tgt_index = {tgt.label(i): i for i in range(tgt.n)}
    assign = [None] * src.n
    for a, b in obj.items():
        _expect(a in src_index, f"unknown source element {a!r}")
        _expect(isinstance(b, str), f"target element {b!r} is not a string")
        _expect(b in tgt_index, f"unknown target element {b!r}")
        assign[src_index[a]] = tgt_index[b]
    _expect(None not in assign, f"{what} must cover every source element")
    return MonotoneMap(src, tgt, assign)


def map_from_obj(obj, base_dir="."):
    _expect(isinstance(obj, dict), "map must be a JSON object")
    _expect(obj.get("type") == "map", "expected a map object")
    src = _resolve_endpoint(obj.get("source"), base_dir)
    tgt = _resolve_endpoint(obj.get("target"), base_dir)
    return _named_assign(obj.get("assign"), src, tgt, "assign")


def _map_obj(src, tgt, assign, src_obj, tgt_obj):
    """The CLI shape for src -> tgt; ``src_obj``, ``tgt_obj`` are their renderings."""
    return {
        "type": "map",
        "source": src_obj,
        "target": tgt_obj,
        "assign": {src.label(i): tgt.label(v) for i, v in enumerate(assign)},
    }


def map_to_obj(f):
    return _map_obj(f.src, f.tgt, f.assign, preorder_to_obj(f.src), preorder_to_obj(f.tgt))


def family_from_obj(obj, base_dir="."):
    if isinstance(obj, list):
        return GeneratorFamily([map_from_obj(m, base_dir) for m in obj])
    _expect(isinstance(obj, dict), "family must be an array or object")
    _expect(obj.get("type") == "family", "expected a family object")
    members_obj = obj.get("members", [])
    links_obj = obj.get("links", [])
    _expect(isinstance(members_obj, list), "members must be a list of maps")
    _expect(isinstance(links_obj, list), "links must be a list")
    members = [map_from_obj(m, base_dir) for m in members_obj]
    links = []
    for link in links_obj:
        _expect(isinstance(link, dict), "each link must be an object")
        src = link.get("from")
        tgt = link.get("to")
        # a JSON true/false is a Python bool, which isinstance accepts as an int
        _expect(type(src) is int and type(tgt) is int, "link endpoints are indices")
        _expect(0 <= src < len(members) and 0 <= tgt < len(members), "link index range")
        u = _named_assign(link.get("u"), members[src].src, members[tgt].src, "link leg u")
        v = _named_assign(link.get("v"), members[src].tgt, members[tgt].tgt, "link leg v")
        links.append((src, tgt, u, v))
    return GeneratorFamily(members, links)


def labelled_carrier(fact):
    """The carrier K of a factorisation, each element named by its pair.

    Pair (φ, b) is named ``({a1,a2,...},b)`` from the labels of dom f and
    cod f; ``factor`` and ``fibrant`` print this preorder as JSON or DOT.
    """
    A, B = fact.f.src, fact.f.tgt
    labels = [
        "({" + ",".join(A.label(i) for i in _bits(m)) + "}," + B.label(b) + ")"
        for m, b in fact.pairs
    ]
    return FinPreorder._checked(fact.K.up, labels)


def factorisation_to_obj(fact):
    """The CLI shape for a factorisation: middle object plus both legs.

    The legs, validated by ``factorise``, are rendered from their
    assignments.  K is rendered once: the ``K`` entry, the target of
    lambda and the source of rho are one object.
    """
    A, B = fact.f.src, fact.f.tgt
    K = labelled_carrier(fact)
    k_obj = preorder_to_obj(K)
    return {
        "K": k_obj,
        "lambda": _map_obj(A, K, fact.lam.assign, preorder_to_obj(A), k_obj),
        "rho": _map_obj(K, B, fact.rho.assign, k_obj, preorder_to_obj(B)),
    }


def load_document(path):
    """Read one JSON file into the value its ``type`` field names."""
    real = os.path.realpath(path)
    reading = _reading.get()
    _expect(real not in reading, f"{path}: refers back to a file still being read")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))
    token = _reading.set(reading | {real})
    try:
        return document_from_obj(obj, base_dir)
    finally:
        _reading.reset(token)


def document_from_obj(obj, base_dir="."):
    if isinstance(obj, list):
        return family_from_obj(obj, base_dir)
    _expect(isinstance(obj, dict), "document must be a JSON object or array")
    kind = obj.get("type")
    if kind == "preorder":
        return preorder_from_obj(obj)
    if kind == "space":
        return space_from_obj(obj)
    if kind == "map":
        return map_from_obj(obj, base_dir)
    if kind == "family":
        return family_from_obj(obj, base_dir)
    raise FormatError(f"unknown document type {kind!r}")


def dumps(obj):
    """Deterministic JSON text: fixed key order, two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def hasse_dot(P):
    """DOT source for the Hasse diagram of the poset reflection.

    One node per equivalence class, labeled by its member list; edges are
    the cover relation of the quotient, read off its up rows alone: with
    strict[a] the elements strictly above a, the covers of a are
    strict[a] less everything strictly above one of them, so no down
    row is built.
    """
    Q, cls = P.quotient()
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for c, mask in enumerate(cls):
        label = ",".join(P.label(i) for i in _bits(mask))
        lines.append(f'  n{c} [label="{label}"];')
    strict = [row & ~(1 << a) for a, row in enumerate(Q.up)]
    for a, above in enumerate(strict):
        for b in _bits(above & ~_union(strict, above)):
            lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
