"""qk's result records (qk.base.Record): construction, defaults and
validation, immutability, field-wise equality and hashing, repr and
pickling, for every record type the package defines."""

import math
import pickle

import pytest

import qk.checks
import qk.digraph
import qk.kernels
import qk.kings
import qk.qt
from qk.base import Record
from qk.checks import CheckResult, Violation
from qk.digraph import Condensation, build, strong_components
from qk.kernels import Counterexample, HuntLedger, KernelCertificate
from qk.kings import AuditRow, KingReport
from qk.qt import QtViolation

SAMPLES = [
    Violation("distance-dichotomy", "back<=k+1", 2, (0, 3), "detail", 4),
    CheckResult("king-theorems", 3, 10, 4, ()),
    strong_components(build(3, [(0, 1), (1, 0), (1, 2)])),
    KernelCertificate((0, 2), 3, 2, True, False, 1),
    Counterexample(2, (5, 1), 3, ((0, 1),), 7, 99),
    HuntLedger(2, (3, 2), 5, 9, 0, 5, {1: 4, 2: 1}, ()),
    AuditRow("tag", "expected", 3, None),
    KingReport(2, (0.0, math.inf), {3: (0,)}, True, (0,), 0, 1, (0,)),
    QtViolation((0, 1, 2)),
]


def test_samples_cover_every_record_type():
    defined = {
        value
        for module in (qk.checks, qk.digraph, qk.kernels, qk.kings, qk.qt)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    }
    assert {type(r) for r in SAMPLES} == defined


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
class TestEveryRecord:
    def test_positional_and_keyword_construction_agree(self, record):
        cls = type(record)
        values = [getattr(record, name) for name in cls.__slots__]
        by_keyword = cls(**dict(zip(cls.__slots__, values)))
        mixed = cls(*values[:1], **dict(zip(cls.__slots__[1:], values[1:])))
        assert cls(*values) == by_keyword == mixed == record

    def test_fields_cannot_change(self, record):
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_field_by_field(self, record):
        cls = type(record)
        values = [getattr(record, name) for name in cls.__slots__]
        assert cls(*values) == record and not cls(*values) != record
        changed = cls("other", *values[1:])
        assert changed != record
        assert record != tuple(values)

    def test_hash_is_that_of_the_field_tuple(self, record):
        values = tuple(getattr(record, name) for name in type(record).__slots__)
        try:
            expected = hash(values)
        except TypeError:  # a dict field: unhashable, as the tuple is
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_repr_names_every_field(self, record):
        cls = type(record)
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls.__slots__)
        assert repr(record) == f"{cls.__name__}({fields})"

    def test_pickles_by_value(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record
        assert repr(back) == repr(record)


class TestConstruction:
    def test_defaults(self):
        assert KingReport(2, (), {}, False, None, None, 0, ()).counting_audit == ()

    def test_missing_field(self):
        with pytest.raises(TypeError, match="missing field 'seed'"):
            Counterexample(2, (5, 1), 3, ((0, 1),), 7)
        with pytest.raises(TypeError, match="missing field 'path'"):
            QtViolation()

    def test_too_many_or_unknown_fields(self):
        with pytest.raises(TypeError, match="takes 1 fields, got 2"):
            QtViolation((0, 1), (1, 2))
        with pytest.raises(TypeError, match="unexpected or repeated"):
            QtViolation(path=(0, 1), paths=(0, 1))
        with pytest.raises(TypeError, match="unexpected or repeated"):
            QtViolation((0, 1), path=(0, 1))

    def test_records_have_no_instance_dict(self):
        assert all(not hasattr(r, "__dict__") for r in SAMPLES)

    def test_properties_still_read_the_fields(self):
        v = QtViolation((4, 1, 7))
        assert (v.u, v.v) == (4, 7)
        assert CheckResult("c", 2, 4, 1, ()).fire_fraction == 0.25
        assert isinstance(SAMPLES[2], Condensation)
        assert SAMPLES[2].initial_component == (0, 1)
