"""JSON wire formats for complexes, families, labellings, and reports.

Formats:
    complex    {"n_vertices": int, "cells": [{"id", "dim", "vertices",
                "boundary": [[cell_id, sign]]}]}   (sign 0 = unset)
    family     {"n": int, "sets": [[int]]}
    labelling  {"n_variables": int, "labels": [[int exponents]]}

Serialization is canonical: keys sorted, vertex lists ascending, cells in id
order, so identical objects always produce identical bytes.
"""

from __future__ import annotations

import json

from .complexes import Cell, CellComplex, validate_complex
from .monomials import (
    UNION_LIMIT,
    GuardExceeded,
    Monomial,
    MonomialLabelling,
    VertexFamily,
)


class SerializationError(ValueError):
    """Malformed document for one of the wire formats."""


def _require(cond: bool, message: str, *args):
    """Raise SerializationError unless cond; the message is formatted with
    args only then, so checks on valid input build no text."""
    if not cond:
        raise SerializationError(message.format(*args))


def _is_int(value) -> bool:
    """JSON integers only: true and false are not 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value, what: str, *args) -> list:
    """value itself, once it is a list of JSON integers.  type(v) is int
    passes those without a call; anything else falls back to _is_int."""
    _require(isinstance(value, list)
             and (not [v for v in value if type(v) is not int]
                  or all(map(_is_int, value))),
             what + " must be a list of integers", *args)
    return value


# ---------------------------------------------------------------------------
# complexes


def complex_to_dict(X: CellComplex) -> dict:
    return {
        "n_vertices": X.n_vertices,
        "cells": [
            {
                "id": c.id,
                "dim": c.dim,
                "vertices": sorted(c.vertices),
                "boundary": [[b, s] for b, s in c.boundary],
            }
            for c in X.cells
        ],
    }


_CELL_KEYS = {"id", "dim", "vertices", "boundary"}


def complex_from_dict(doc) -> CellComplex:
    _require(isinstance(doc, dict), "complex document must be an object")
    _require(set(doc) == {"n_vertices", "cells"},
             "complex document needs exactly the keys n_vertices and cells")
    n = doc["n_vertices"]
    _require(_is_int(n) and n >= 0, "n_vertices must be a count")
    _require(isinstance(doc["cells"], list), "cells must be a list")
    # every record is checked inline, as _int_list checks its list: a JSON
    # integer passes type(v) is int, and any other value goes to _is_int
    cells = []
    for i, rec in enumerate(doc["cells"]):
        if not (isinstance(rec, dict) and rec.keys() == _CELL_KEYS):
            raise SerializationError(
                f"cell #{i} needs exactly the keys id, dim, vertices, boundary")
        cid = rec["id"]
        if not ((type(cid) is int or _is_int(cid)) and cid == i):
            raise SerializationError(
                f"cell ids must be dense and ordered; cell #{i} has id {cid}")
        dim = rec["dim"]
        if not ((type(dim) is int or _is_int(dim)) and dim >= 0):
            raise SerializationError(
                f"cell {i}: dim must be a non-negative integer")
        verts = rec["vertices"]
        if not (isinstance(verts, list)
                and (not [v for v in verts if type(v) is not int]
                     or all(map(_is_int, verts)))):
            raise SerializationError(
                f"cell {i}: vertices must be a list of integers")
        pairs = rec["boundary"]
        if not isinstance(pairs, list):
            raise SerializationError(f"cell {i}: boundary must be a list")
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and (type(pair[0]) is int or _is_int(pair[0]))
                    and (type(pair[1]) is int or _is_int(pair[1]))
                    and pair[1] in (-1, 0, 1)):
                raise SerializationError(
                    f"cell {i}: boundary entries are [cell_id, sign] "
                    "with sign in -1/0/+1")
        cells.append(Cell(i, dim, frozenset(verts), tuple(map(tuple, pairs))))
    X = CellComplex(n, tuple(cells))
    problems = validate_complex(X)
    if problems:
        raise SerializationError("not a valid complex: " + "; ".join(problems))
    return X


# ---------------------------------------------------------------------------
# families and labellings


def family_to_dict(F: VertexFamily) -> dict:
    return {"n": F.n, "sets": [sorted(s) for s in F.sets]}


def family_from_dict(doc) -> VertexFamily:
    _require(isinstance(doc, dict) and set(doc) == {"n", "sets"},
             "family document needs exactly the keys n and sets")
    _require(_is_int(doc["n"]), "n must be an integer")
    if doc["n"] > UNION_LIMIT:
        raise GuardExceeded(f"a family on {doc['n']} vertices, more than "
                            f"{UNION_LIMIT}; its vertex masks are too large")
    _require(isinstance(doc["sets"], list), "sets must be a list")
    members = tuple(frozenset(_int_list(s, "family member"))
                    for s in doc["sets"])
    try:
        return VertexFamily(doc["n"], members)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def labelling_to_dict(L: MonomialLabelling) -> dict:
    return {
        "n_variables": L.n_variables,
        "labels": [list(m.exponents) for m in L.labels],
    }


def labelling_from_dict(doc) -> MonomialLabelling:
    _require(isinstance(doc, dict) and set(doc) == {"n_variables", "labels"},
             "labelling document needs exactly the keys n_variables and labels")
    _require(_is_int(doc["n_variables"]), "n_variables must be an integer")
    _require(isinstance(doc["labels"], list), "labels must be a list")
    rows = [tuple(_int_list(row, "label exponent row")) for row in doc["labels"]]
    try:
        return MonomialLabelling(
            doc["n_variables"], tuple(Monomial(r) for r in rows))
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# reports (one-way: library objects to plain JSON data)


def report_to_dict(rep) -> dict:
    """Every field and every property of a report record, by name."""
    names = list(rep._fields)
    names += [k for k, v in vars(type(rep)).items() if isinstance(v, property)]
    return {k: _plain(getattr(rep, k)) for k in names}


def _plain(value):
    """Plain-JSON view of a report value: frozensets become sorted lists,
    tuples lists, and dict keys strings."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    raise SerializationError(f"cannot serialize value {value!r}")


# ---------------------------------------------------------------------------
# canonical JSON text


def canonical_json(obj) -> str:
    """Stable text rendering: sorted keys, two-space indent, newline at end."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_json(text: str):
    """The document in text.  Malformed JSON, nesting past the recursion
    limit and integers past the interpreter's digit limit all raise
    SerializationError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
