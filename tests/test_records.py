"""Record semantics of the package's value types.

The plain records are named tuples: equal fields make equal records,
unequal fields unequal ones, and no field can be assigned.  The classes
that validate, cache or index are immutable too, and compare by
identity, since nothing compares them by value.
"""

import pytest

from multishift.genfun import GenFunSolution, build_system
from multishift.langmodel import LanguageSlice, validate_spec
from multishift.measures import Cylinder, EscapeReport, MeasureReport, StochMat
from multishift.ratfield import RootCertificate
from multishift.spectral import (EigenData, EntropyReport, NormalizationReport, PerronResult,
                                 PowerResult, Witness, adjacency_matrix)
from multishift.verify import CheckResult, VerificationReport

RECORDS = (LanguageSlice, GenFunSolution, StochMat, MeasureReport, EscapeReport,
           RootCertificate, PowerResult, PerronResult, EigenData, Witness,
           NormalizationReport, EntropyReport, CheckResult, VerificationReport)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_equal_by_fields_and_immutable(cls):
    def fields():
        return [(k, str(k)) for k in range(len(cls._fields))]

    a, b = cls(*fields()), cls(*fields())
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != cls(*fields()[:-1], (-1,))
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], None)


def _validated_objects():
    spec = validate_spec("01", ["11"], [("00", 3)])
    system = build_system(spec)
    return {"ShiftSpec": spec, "AdjMatrix": adjacency_matrix(spec),
            "Cylinder": Cylinder.from_vertex_word("000", spec.p),
            "GenFunSystem": system, "RatMat": system.matrix}


@pytest.mark.parametrize("name", _validated_objects())
def test_validated_objects_refuse_assignment(name):
    obj = _validated_objects()[name]
    field = next(iter(vars(obj)))
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match="cannot assign"):
        obj.new_field = 1
    assert obj == obj and obj != _validated_objects()[name]
