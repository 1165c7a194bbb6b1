"""The immutable classes' contract: frozen fields, value equality and hash
for the records, identity equality for objectives, and the repr text."""

import pytest

from bfre import BipolarSystem, TNormSpec
from bfre.intervals import IntervalUnion
from bfre.optimize import objective_catalog


def _instances():
    return [
        IntervalUnion(((0.0, 1.0),)),
        TNormSpec("frank", 2.0),
        BipolarSystem([[0.5, 1.0]], [[0.0, 0.25]], [0.5], TNormSpec("product")),
        objective_catalog("max", 2, None),
    ]


@pytest.mark.parametrize("record", _instances(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    name = record.__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


def test_equal_data_make_equal_records_with_equal_hashes():
    t = TNormSpec("frank", 2)
    assert t == TNormSpec("frank", 2.0)
    assert hash(t) == hash(TNormSpec("frank", 2.0))
    from_lists = BipolarSystem([[0.5, 1]], [[0, 0.25]], [0.5], TNormSpec("frank", 2.0))
    from_tuples = BipolarSystem(((0.5, 1.0),), ((0.0, 0.25),), (0.5,), t)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    pieces = ((0.0, 0.25), (0.5, 0.5))
    assert IntervalUnion(pieces) == IntervalUnion.from_pairs([[0.5, 0.5], [0.0, 0.25]])
    assert hash(IntervalUnion(pieces)) == hash((pieces,))
    # equality reads kind and param, not the generator: sugeno_weber at 0
    # has lukasiewicz's
    assert TNormSpec("sugeno_weber", 0.0) != TNormSpec("lukasiewicz")
    assert TNormSpec("frank", 2.0) != TNormSpec("frank", 3.0)


def test_records_of_different_classes_are_unequal():
    union = IntervalUnion(((0.0, 1.0),))
    assert union != union.pieces
    assert union != (union.pieces,)
    assert TNormSpec("minimum") != ("minimum", None)
    system = BipolarSystem([[1.0]], [[0.0]], [1.0], TNormSpec("minimum"))
    assert system != TNormSpec("minimum")
    assert system != (system.a_plus, system.a_minus, system.b, system.tnorm)
    first, second = objective_catalog("max", 2, None), objective_catalog("max", 2, None)
    assert first == first
    assert first != second


def test_repr_text():
    assert repr(TNormSpec("frank", 2.0)) == "TNormSpec(kind='frank', param=2.0)"
    assert repr(TNormSpec("minimum")) == "TNormSpec(kind='minimum', param=None)"
    assert repr(IntervalUnion(((0.0, 1.0),))) == "IntervalUnion(pieces=((0.0, 1.0),))"
    assert repr(IntervalUnion()) == "IntervalUnion(pieces=())"
    system = BipolarSystem([[0.5, 1]], [[0, 0.25]], [0.5], TNormSpec("product"))
    assert repr(system) == (
        "BipolarSystem(a_plus=((0.5, 1.0),), a_minus=((0.0, 0.25),), b=(0.5,), "
        "tnorm=TNormSpec(kind='product', param=None))"
    )
