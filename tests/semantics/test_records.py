"""What the trace record types promise: repr, str, hash, immutability,
pickling and field access.

``PortId``, ``ExternalEvent``, ``LatchRecord`` and ``ConflictRecord``
are compared, hashed, printed and digested all over the library (trace
equality, the trace-digest pin, job payloads, conflict messages).  The
strings below were generated from the frozen-dataclass versions of
these types; any other representation must reproduce them exactly.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.events import ExternalEvent
from repro.datapath.ports import PortId
from repro.semantics.trace import ConflictRecord, LatchRecord
from repro.semantics.values import UNDEF

#: case -> (type, constructor arguments, field names, repr, str)
EXPECTED = {
    "port": (PortId, ("r", "q"), ("vertex", "port"),
             "PortId(vertex='r', port='q')", "r.q"),
    "undef_event": (
        ExternalEvent, ("a_out", UNDEF, 2, "s3", 4, 1, 5),
        ("arc", "value", "index", "state", "activation", "start", "end"),
        "ExternalEvent(arc='a_out', value=UNDEF, index=2, state='s3', "
        "activation=4, start=1, end=5)",
        "(a_out[2]=UNDEF @ s3)"),
    "event": (
        ExternalEvent, ("a_in", -7, 0, "s0", 1, 0, 1),
        ("arc", "value", "index", "state", "activation", "start", "end"),
        "ExternalEvent(arc='a_in', value=-7, index=0, state='s0', "
        "activation=1, start=0, end=1)",
        "(a_in[0]=-7 @ s0)"),
    "latch": (
        LatchRecord, (3, PortId("r", "q"), UNDEF, 9, "s1"),
        ("step", "port", "old", "new", "state"),
        "LatchRecord(step=3, port=PortId(vertex='r', port='q'), old=UNDEF, "
        "new=9, state='s1')",
        "LatchRecord(step=3, port=PortId(vertex='r', port='q'), old=UNDEF, "
        "new=9, state='s1')"),
    "conflict": (
        ConflictRecord, (1, "drive", "input port y.in driven by ['a.o', 'b.o']"),
        ("step", "kind", "detail"),
        "ConflictRecord(step=1, kind='drive', "
        "detail=\"input port y.in driven by ['a.o', 'b.o']\")",
        "ConflictRecord(step=1, kind='drive', "
        "detail=\"input port y.in driven by ['a.o', 'b.o']\")"),
}

CASES = sorted(EXPECTED)


def _build(case):
    cls, args, names, _repr, _str = EXPECTED[case]
    return cls(*args), args, names


@pytest.mark.parametrize("case", CASES)
def test_repr_and_str(case):
    record, _args, _names = _build(case)
    assert repr(record) == EXPECTED[case][3]
    assert str(record) == EXPECTED[case][4]


@pytest.mark.parametrize("case", CASES)
def test_hash_is_the_hash_of_the_field_tuple(case):
    record, args, _names = _build(case)
    assert hash(record) == hash(args)


@pytest.mark.parametrize("case", CASES)
def test_fields_by_name(case):
    record, args, names = _build(case)
    assert tuple(getattr(record, name) for name in names) == args
    assert type(record)(**dict(zip(names, args))) == record


@pytest.mark.parametrize("case", CASES)
def test_assignment_raises(case):
    record, _args, names = _build(case)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("case", CASES)
def test_pickle_round_trip(case):
    record, args, names = _build(case)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert type(copy) is type(record)
    assert repr(copy) == repr(record)
    for name, value in zip(names, args):
        if value is UNDEF:
            assert getattr(copy, name) is UNDEF


def test_port_parse_inverts_str():
    assert PortId.parse("r.q") == PortId("r", "q")
    with pytest.raises(ValueError, match="malformed port reference"):
        PortId.parse("noport")


def test_event_key_is_arc_and_index():
    assert _build("undef_event")[0].key == ("a_out", 2)
    assert _build("event")[0].key == ("a_in", 0)


def test_records_equal_only_on_equal_fields():
    latch = _build("latch")[0]
    assert LatchRecord(3, PortId("r", "q"), UNDEF, 9, "s1") == latch
    assert LatchRecord(3, PortId("r", "q"), UNDEF, 8, "s1") != latch
    assert len({PortId("r", "q"), PortId("r", "q"), PortId("r", "d")}) == 2
