"""Reference loaders of the wire formats: one `_require` call per check.

These are the document loaders as they stood before `complex_from_dict`
checked its cell records inline and `_int_list` stopped copying its list.
The library loaders must return equal objects on every document, and
raise `SerializationError` with the same message wherever these do; both
refuse a family on more than UNION_LIMIT vertices with `GuardExceeded`.
"""

from cellres.complexes import Cell, CellComplex, validate_complex
from cellres.monomials import (UNION_LIMIT, GuardExceeded, Monomial,
                                MonomialLabelling, VertexFamily)
from cellres.serialize import SerializationError


def _require(cond: bool, message: str, *args):
    if not cond:
        raise SerializationError(message.format(*args))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value, what: str, *args) -> list:
    _require(isinstance(value, list) and all(map(_is_int, value)),
             what + " must be a list of integers", *args)
    return list(value)


def complex_from_dict(doc) -> CellComplex:
    _require(isinstance(doc, dict), "complex document must be an object")
    _require(set(doc) == {"n_vertices", "cells"},
             "complex document needs exactly the keys n_vertices and cells")
    n = doc["n_vertices"]
    _require(_is_int(n) and n >= 0, "n_vertices must be a count")
    _require(isinstance(doc["cells"], list), "cells must be a list")
    cells = []
    for i, rec in enumerate(doc["cells"]):
        _require(isinstance(rec, dict) and
                 set(rec) == {"id", "dim", "vertices", "boundary"},
                 "cell #{} needs exactly the keys id, dim, vertices, boundary",
                 i)
        _require(_is_int(rec["id"]) and rec["id"] == i,
                 "cell ids must be dense and ordered; cell #{} has id {}",
                 i, rec["id"])
        _require(_is_int(rec["dim"]) and rec["dim"] >= 0,
                 "cell {}: dim must be a non-negative integer", i)
        verts = _int_list(rec["vertices"], "cell {}: vertices", i)
        _require(isinstance(rec["boundary"], list),
                 "cell {}: boundary must be a list", i)
        boundary = []
        for pair in rec["boundary"]:
            _require(isinstance(pair, list) and len(pair) == 2
                     and _is_int(pair[0]) and _is_int(pair[1])
                     and pair[1] in (-1, 0, 1),
                     "cell {}: boundary entries are [cell_id, sign] "
                     "with sign in -1/0/+1", i)
            boundary.append((pair[0], pair[1]))
        cells.append(Cell(i, rec["dim"], frozenset(verts), tuple(boundary)))
    X = CellComplex(n, tuple(cells))
    problems = validate_complex(X)
    if problems:
        raise SerializationError("not a valid complex: " + "; ".join(problems))
    return X


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
