"""The document loaders against the reference loaders, on mutated documents.

Each example takes the document of a fixture, polygon, pyramid, family or
labelling and mutates it up to three times: a wrong value in an integer
slot (bool, float, string, null, 10^20, a sign of +-2, or an int subclass),
a missing or extra key, a non-list container, or a dict subclass.  Both
loaders must return equal objects or raise `SerializationError` with the
same message; `ComplexError` is the one other error either may raise.
"""

import copy
import functools
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_serialize as ref
from cellres import serialize as ser
from cellres.complexes import ComplexError
from cellres.constructions import (
    chord_families,
    fixture,
    fixture_catalogue,
    polygon_complex,
    polygon_family,
    pyramid,
    wheel_family,
)
from cellres.monomials import GuardExceeded

LOADERS = {
    "complex": (ser.complex_from_dict, ref.complex_from_dict),
    "family": (ser.family_from_dict, ref.family_from_dict),
    "labelling": (ser.labelling_from_dict, ref.labelling_from_dict),
}


class _Int(int):
    """An int subclass other than bool: both loaders accept it."""


class _Dict(dict):
    pass


WRONG_INTS = (True, False, 1.5, 0.0, "1", None, 10**20, 2, -2)
WRONG_CONTAINERS = ({}, {"0": 1}, (), "x", 0, None)


@functools.cache
def _documents() -> tuple:
    docs = []
    for fid in fixture_catalogue():
        X, L = fixture(fid)
        docs += [("complex", ser.complex_to_dict(X)),
                 ("labelling", ser.labelling_to_dict(L))]
    for n in range(3, 8):
        docs += [("complex", ser.complex_to_dict(polygon_complex(n))),
                 ("complex", ser.complex_to_dict(pyramid(polygon_complex(n))))]
    docs += [("family", ser.family_to_dict(polygon_family(n)))
             for n in (3, 5, 7)]
    docs += [("family", ser.family_to_dict(F)) for F in chord_families(6, 2)]
    docs.append(("family", ser.family_to_dict(wheel_family())))
    return tuple(docs)


def _slots(doc, path=()):
    """(path, value) of the document and of everything inside it."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _slots(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _slots(value, path + (i,))


def _subclassed(doc):
    """The document with every dict and int replaced by a subclass."""
    if isinstance(doc, dict):
        return _Dict({k: _subclassed(v) for k, v in doc.items()})
    if isinstance(doc, list):
        return [_subclassed(v) for v in doc]
    if type(doc) is int:
        return _Int(doc)
    return doc


def _replacements(data, value):
    """A strategy for what replaces value."""
    if type(value) is int:
        return st.sampled_from(WRONG_INTS + (_Int(value), value + 1))
    if isinstance(value, list):
        options = list(WRONG_CONTAINERS) + [tuple(value), value + value]
        if value:
            i = data.draw(st.integers(0, len(value) - 1))
            options.append(value[:i] + value[i + 1:])
        return st.sampled_from(options)
    if isinstance(value, dict):
        dropped = [{k: v for k, v in value.items() if k != key}
                   for key in value]
        return st.sampled_from(dropped + [{**value, "extra": 0}, _Dict(value),
                                          list(value.values())])
    return st.sampled_from(WRONG_INTS)


def _mutate(doc, data):
    if data.draw(st.integers(0, 9)) == 0:
        return _subclassed(doc)
    path, value = data.draw(st.sampled_from(list(_slots(doc))))
    new = data.draw(_replacements(data, value))
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def _outcome(load, doc):
    try:
        return load(doc)
    except (ser.SerializationError, ComplexError, GuardExceeded) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_loaders_agree_with_the_reference_on_mutated_documents(data):
    kind, doc = data.draw(st.sampled_from(_documents()))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate(doc, data)
    new, old = LOADERS[kind]
    assert _outcome(new, doc) == _outcome(old, doc)


def test_a_report_value_with_no_json_form_is_refused():
    class Report(NamedTuple):
        ratio: float

    with pytest.raises(ser.SerializationError,
                       match=r"^cannot serialize value 0\.5$"):
        ser.report_to_dict(Report(0.5))


def test_a_subclassed_document_loads_as_the_plain_one():
    for kind, doc in _documents():
        new, old = LOADERS[kind]
        assert new(_subclassed(doc)) == new(doc) == old(_subclassed(doc))
