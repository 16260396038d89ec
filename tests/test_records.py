"""The frozen record contract of every result type (``core._Record``):
construction, equality and hashing, freezing, and repr."""

from functools import cached_property

import pytest

import permemc
from permemc import (
    ApproximationResult,
    Family,
    SpreadReport,
    ZeroOneMatrix,
    coset_certificate,
    family,
    is_r_spread,
    symmetric_group,
)
from permemc.core import _Record
from permemc.spread import RestrictedSpreadReport

#: Every public name; reading them loads each module that defines a record.
EXPORTED = [getattr(permemc, name) for name in permemc.__all__]
RECORDS = sorted(_Record.__subclasses__(), key=lambda cls: cls.__name__)

#: Valid field values for the records whose ``__post_init__`` checks them;
#: any other record takes any values.
VALID = {
    Family: (2, ((1, 2), (2, 1))),
    ZeroOneMatrix: (((1, 0), (0, 1)),),
}


def _values(cls, shift=0):
    """One value per field: ``VALID``'s, or distinct ints moved by ``shift``."""
    return VALID.get(cls, tuple(range(shift, shift + len(cls._fields))))


def test_every_result_type_is_a_record():
    exported = {cls for cls in EXPORTED if isinstance(cls, type) and issubclass(cls, _Record)}
    assert {cls.__name__ for cls in exported} == {
        "ApproximationResult",
        "Family",
        "SpreadReport",
        "StarUnion",
        "ZeroOneMatrix",
    }
    assert exported <= set(RECORDS) and len(RECORDS) == 14


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_construction(cls):
    values = _values(cls)
    built = cls(*values)
    assert tuple(getattr(built, name) for name in cls._fields) == values
    assert cls(**dict(zip(cls._fields, values))) == built
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == built
    required = [name for name in cls._fields if name not in cls._defaults]
    assert required and cls._fields[: len(required)] == tuple(required)
    defaulted = cls(*values[: len(required)])
    for name in cls._fields[len(required) :]:
        assert getattr(defaulted, name) == cls._defaults[name] == vars(cls)[name], name
    with pytest.raises(TypeError, match="missing"):
        cls(*values[: len(required) - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError, match="arguments but"):
        cls(*values, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_equality_hash_and_freezing(cls):
    values = _values(cls)
    a, b = cls(*values), cls(*values)
    assert a == b and a is not b and not (a != b)
    if "load_histogram" not in cls._fields:  # a dict field is unhashable, as in a dataclass
        assert hash(a) == hash(b)
    assert a.__eq__(values) is NotImplemented and a != values
    if cls not in VALID:
        assert a != cls(*_values(cls, 1))
    for name in (cls._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_no_record_hooks_attribute_lookup():
    # a __getattr__ on a record would send every failed attribute lookup on
    # it through Python code and cost each read the interpreter's specialisation
    assert not any("__getattr__" in vars(cls) for cls in (_Record, *RECORDS))


def test_a_descriptor_in_a_record_body_is_no_default():
    # Family.members is a cached_property in the class body, for slices,
    # yet stays a required field
    assert isinstance(vars(Family)["members"], cached_property)
    assert Family._fields == ("n", "members") and Family._defaults == {}
    with pytest.raises(TypeError, match="missing required arguments: 'members'"):
        Family(2)
    with pytest.raises(TypeError, match="missing required arguments: 'members'"):
        Family(n=2)


def test_records_of_different_classes_never_compare():
    a, b = SpreadReport(True), RestrictedSpreadReport(True)
    assert a.__eq__(b) is NotImplemented and a != b


def test_approximation_result_ignores_branches():
    fam = symmetric_group(3)
    a = ApproximationResult((), fam, {frozenset(): fam})
    b = ApproximationResult((), fam, {})
    assert a == b and hash(a) == hash(b)
    assert a != ApproximationResult((), fam, {}, frozenset({(1, 1)}))


def test_zero_one_matrix_normalises_its_rows():
    m = ZeroOneMatrix([[True, 0], [0, 1]])
    assert m.rows == ((1, 0), (0, 1)) and type(m.rows[0][0]) is int
    assert m == ZeroOneMatrix(((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="square"):
        ZeroOneMatrix([[1, 0]])


def test_record_reprs():
    assert repr(is_r_spread(symmetric_group(3), 2)) == (
        "SpreadReport(is_spread=False, witness=((1, 1), (2, 2), (3, 3)), "
        "witness_ratio=Fraction(1, 6), exact_spreadness=None)"
    )
    assert repr(coset_certificate(symmetric_group(3), 2)) == (
        "CosetCertificate(n=3, s=2, class_count=2, max_load=3, load_histogram={3: 2}, "
        "classes_pairwise_disjoint=True, family_size=6, bound=2, certified=False)"
    )
    assert repr(family(3, [(2, 1, 3), (1, 2, 3)])) == "Family(n=3, members=((1, 2, 3), (2, 1, 3)))"
    assert repr(SpreadReport(True)) == (
        "SpreadReport(is_spread=True, witness=None, witness_ratio=None, exact_spreadness=None)"
    )
