"""The record types: immutable tuples of their fields.

Every set and dict that holds records iterates in the order of their
hashes, so a record must hash as the plain tuple of its field values, and
it prints as ``Name(field=value, ...)``.  The records that check their
fields on construction keep checking them.
"""
import pytest

from fdcalc.algebra import AlgebraSpec
from fdcalc.colours import ColourEntry
from fdcalc.coverings import covering_report, numbering_covering
from fdcalc.diagram import (Diagram, DiagramError, EdgeColouring,
                            TypedDiagram, Vertex, symmetric_star)
from fdcalc.gaussian import frt_check, taylor_stars
from fdcalc.generate import DiagramClass, enumerate_closed
from fdcalc.iso import canonical_code
from fdcalc.poly import Poly
from fdcalc.series import VariableKey
from fdcalc.verify import CheckResult

from util import figure_eight, quartic_table, theta


def _records():
    """One record of each type, with the constructions its type must
    refuse and the error each raises."""
    star = symmetric_star("phi3", 3)
    cover = numbering_covering(star, 1)
    frt = frt_check(symmetric_star("PHI4", 4, special=True),
                    AlgebraSpec(1, [[1]], quartic_table(), {"phi4": [1]}))
    return [
        (ColourEntry("phi4", "symmetric", 4, bold="PHI4"), []),
        (Vertex("cyclic", "psi3", (2, 0, 1)),
         [(DiagramError, lambda: Vertex("symmetric", "x", (1, 1))),
          (DiagramError, lambda: Vertex("coupon", "t", (0, 1), n_in=3))]),
        (theta(),
         [(DiagramError, lambda: Diagram(
             (Vertex("symmetric", "x", (0, 1)),
              Vertex("symmetric", "x", (1, 2)))))]),
        (TypedDiagram(star, (2,), (0, 1)),
         [(DiagramError, lambda: TypedDiagram(star, (0,), (1,))),
          (DiagramError, lambda: TypedDiagram(star, (0, 1), (1, 2)))]),
        (EdgeColouring(figure_eight(), (((1, 0), 1), ((2, 3), 0))),
         [(DiagramError,
           lambda: EdgeColouring(figure_eight(), (((0, 1), 0),)))]),
        (canonical_code(theta()), []),
        (enumerate_closed(quartic_table(), max_degree=4)[1], []),
        (VariableKey("phi4", 4),
         [(ValueError, lambda: VariableKey("phi4", 0))]),
        (CheckResult("taylor", True, ("ok",)), []),
        (frt, []),
        (taylor_stars(Poly(1, {(2,): 3}), (2,)), []),
        (cover.classes[0], []),
        (cover, []),
        (covering_report(cover), []),
    ]


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:  # a field holds an unhashable value
        return str(exc)


RECORDS = _records()


@pytest.mark.parametrize("record,refused", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_frozen_tuples_of_their_fields(record, refused):
    names = type(record)._fields
    values = tuple(getattr(record, f) for f in names)
    assert _hash(record) == _hash(values)
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
    if isinstance(record, DiagramClass):
        fields = f"degree={record.degree}, aut={record.aut}"
    assert repr(record) == f"{type(record).__name__}({fields})"
    for f, v in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, f, v)
    for error, make in refused:
        with pytest.raises(error):
            make()


def test_variable_keys_order_by_name_then_grade():
    keys = [VariableKey("b"), VariableKey("a", 4), VariableKey("a", 3)]
    assert sorted(keys) == [keys[2], keys[1], keys[0]]
    assert max(keys) == VariableKey("b", 1)
