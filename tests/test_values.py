"""The contract of nsq's value and record types: equality and hashing
over their fields, no assignment after construction, pickling, and the
validation messages.  The validated types are __slots__ classes (core's
_Value) and the plain records NamedTuples."""

import pickle

import numpy as np
import pytest

from nsq._engine import TrackSpec, ns_tracks
from nsq.core import BaseQuadruple, BinarySeq, NormalQuadruple, NpafTable, SequenceError
from nsq.equivalence import Transform
from nsq.golay import GolayError, GolayPair
from nsq.group import GroupElement, RelationCheck
from nsq.quadcodec import CodeError, QuadCode
from nsq.search import ClassRecord
from nsq.tables import CountRow, DiffReport, Finding, ReferenceTables, RepRow, TableReport


def seq(text):
    return BinarySeq.parse(text)


# Each builder makes a fresh instance from the same field values on every
# call; the name beside it is one of the fields.
BUILDERS = {
    "BinarySeq": ("terms", lambda: BinarySeq((1, -1, 1))),
    "NpafTable": ("values", lambda: NpafTable((3, -2, 1), 3)),
    "NormalQuadruple": ("c", lambda: NormalQuadruple(seq("++-+"), seq("+++-"), seq("+++-"))),
    "BaseQuadruple": (
        "b", lambda: BaseQuadruple(seq("++-++"), seq("++-+-"), seq("+++-"), seq("+++-"))
    ),
    "QuadCode": ("central", lambda: QuadCode((1, 6), 3, "aa")),
    "GolayPair": ("a", lambda: GolayPair(seq("++"), seq("+-"))),
    "GroupElement": ("word", lambda: GroupElement((Transform.SWAP_CD, Transform.NEGATE_C))),
    "RelationCheck": (
        "status", lambda: RelationCheck("swap_cd commutes with negate_aa", 4, "PASS")
    ),
    "ClassRecord": ("golay_type", lambda: ClassRecord(4, 1, "16", "61", True)),
    "CountRow": ("equ", lambda: CountRow(4, 1, 1, 0)),
    "RepRow": ("tag", lambda: RepRow(4, 1, "16", "61", "G")),
    "ReferenceTables": ("reps", lambda: ReferenceTables(
        {4: CountRow(4, 1, 1, 0)}, (RepRow(4, 1, "16", "61", "G"),)
    )),
    "Finding": ("detail", lambda: Finding(2, 1, "canonical", "(i) at p_1", True)),
    "DiffReport": ("missing", lambda: DiffReport(4, (("16", "61"),), (), False)),
}
# A dict field makes the record unhashable, as a frozen dataclass was.
UNHASHABLE = {"ReferenceTables"}


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_fields_make_equal_values(name):
    _, build = BUILDERS[name]
    first, second = build(), build()
    assert first is not second and first == second
    assert not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
    assert repr(first) == repr(second)
    assert repr(first).startswith(f"{name}(")


@pytest.mark.parametrize("name", BUILDERS)
def test_no_assignment_after_construction(name):
    field, build = BUILDERS[name]
    value = build()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", BUILDERS)
def test_pickle_round_trip(name):
    value = BUILDERS[name][1]()
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)


def test_values_of_different_types_differ():
    assert BinarySeq((1,)) != NpafTable((1,), 1)
    assert BinarySeq((1, -1)) != (1, -1)
    assert NormalQuadruple.from_raw(((1,), (1,), (1,))) != BaseQuadruple(
        seq("+"), seq("+"), seq("+"), seq("+")
    )


def test_group_element_equality_ignores_its_appliers():
    element = GroupElement((Transform.ALTERNATE_ALL,))
    copy = pickle.loads(pickle.dumps(element))
    assert copy.act_raw(((1, 1), (1, 1), (1, -1))) == ((1, -1), (1, -1), (1, 1))
    assert repr(element) == "GroupElement(word=(<Transform.ALTERNATE_ALL: 'alternate_all'>,))"


def test_relation_check_detail_defaults_to_empty():
    assert RelationCheck("r", 4, "PASS").detail == ""


def test_sequence_and_table_iterate_and_index():
    s = BinarySeq((1, -1, -1))
    assert list(s) == [1, -1, -1] and len(s) == 3 and s.n == 3
    assert s[0] == 1 and s[-1] == -1 and s[1:] == (-1, -1)
    table = NpafTable((3, -2, 1), 3)
    assert list(table) == [3, -2, 1] and len(table) == 3 and table.n == 3
    assert table[1] == -2 and table[-1] == 1


def test_table_report_accumulates():
    report = TableReport()
    assert report.findings == [] and report.checked_rows == 0
    report.checked_rows += 1
    report.add(2, 1, "canonical", "(i) at p_1", {(2, 1, "canonical")})
    assert report == TableReport([Finding(2, 1, "canonical", "(i) at p_1", True)], 1)
    assert report != TableReport()
    assert report.ok and not report.unexpected
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(AttributeError):
        report.extra = 1
    assert TableReport().findings is not TableReport().findings
    assert pickle.loads(pickle.dumps(report)) == report


def test_track_spec_is_a_record_of_arrays():
    aa, _ = ns_tracks(5)
    copy = TrackSpec(*aa)
    assert copy == aa  # the same array objects
    with pytest.raises(AttributeError):
        aa.allow = aa.trans
    restored = pickle.loads(pickle.dumps(aa))
    for field in TrackSpec._fields:
        assert np.array_equal(getattr(restored, field), getattr(aa, field)), field


@pytest.mark.parametrize("build, error, message", [
    (lambda: BinarySeq(()), SequenceError, "a sequence needs at least one term"),
    (lambda: BinarySeq((1, 0)), SequenceError, "sequence terms must be +1 or -1"),
    (lambda: NormalQuadruple(seq("++"), seq("+"), seq("++")), SequenceError,
     "A, C and D must share one length"),
    (lambda: BaseQuadruple(seq("++"), seq("+"), seq("+"), seq("+")), SequenceError,
     "A,B must share one length and C,D another"),
    (lambda: BaseQuadruple(seq("+"), seq("+"), seq("++"), seq("+")), SequenceError,
     "A,B must share one length and C,D another"),
    (lambda: QuadCode((1,), None, "ab"), CodeError, "unknown code kind 'ab'"),
    (lambda: QuadCode((9,), None, "cd"), CodeError, "9 is not a quad label"),
    (lambda: QuadCode((2,), None, "aa"), CodeError, "2 is not a quad of a repeated pair"),
    (lambda: QuadCode((1,), 4, "cd"), CodeError, "4 is not a central-column label"),
    (lambda: QuadCode((1,), 1, "aa"), CodeError, "1 is not a central of a repeated pair"),
    (lambda: QuadCode((), None, "cd"), CodeError, "empty code"),
    (lambda: GolayPair(seq("++"), seq("+")), GolayError,
     "the two sequences must share one length"),
    (lambda: GolayPair(seq("++"), seq("++")), GolayError,
     "autocorrelations do not cancel; not a Golay pair"),
])
def test_bad_input_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
