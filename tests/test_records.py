"""The frozen value records: construction, validation, equality, hashing,
immutability, repr and copying, for every report and spec class."""

import copy
import pickle

import pytest

from pdocong import (
    CongruenceReport,
    CongruenceSpec,
    DivisibilitySpec,
    EtaQuotientSpec,
    PdoTable,
    ProfileReport,
    ScanResult,
    expand,
)

INF = float("inf")

# one record per class, with the repr the package printed when these classes
# were frozen dataclasses, less the two reports' stored verdicts (a report now
# derives its verdict from its evidence); the reprs must not change
PINNED = [
    (
        CongruenceSpec(8, 2, 8, (0, 5)),
        "CongruenceSpec(lhs_stride=8, rhs_stride=2, modulus=8, n_range=(0, 5))",
    ),
    (
        DivisibilitySpec(4, 3, 4, (0, 5)),
        "DivisibilitySpec(stride=4, offset=3, modulus=4, n_range=(0, 5))",
    ),
    (
        CongruenceReport(CongruenceSpec(8, 2, 8, (0, 4)), (1, 22, 2), 2, 100),
        "CongruenceReport(spec=CongruenceSpec(lhs_stride=8, rhs_stride=2, modulus=8,"
        " n_range=(0, 4)), counterexample=(1, 22, 2), checked_count=2,"
        " truncation_order=100)",
    ),
    (
        ScanResult((8, 2), 2, (0, 8), 64),
        "ScanResult(pair=(8, 2), exponent=2, n_range=(0, 8), truncation_order=64)",
    ),
    (
        EtaQuotientSpec(((4, 1), (6, 2), (1, -1), (3, -1), (12, -1))),
        "EtaQuotientSpec(factors=((1, -1), (3, -1), (4, 1), (6, 2), (12, -1)))",
    ),
    (PdoTable((1, 1, 2, 4, 5)), "PdoTable(values=(1, 1, 2, 4, 5))"),
    (
        ProfileReport("F", None, None, 5, 26, (6, 1, INF), ("offset 2: nu 3 < 4",)),
        "ProfileReport(family='F', i=None, j=None, k=5, base_degree=26, vals=(6, 1, inf),"
        " failures=('offset 2: nu 3 < 4',))",
    ),
]
RECORDS = [record for record, _ in PINNED]
IDS = [type(record).__name__ for record in RECORDS]


def _rebuilt(record):
    """An equal record built separately, from keyword arguments."""
    return type(record)(**{name: getattr(record, name) for name in record.__slots__})


@pytest.mark.parametrize("record, text", PINNED, ids=IDS)
def test_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equality_and_hash(record):
    twin = _rebuilt(record)
    assert twin == record and not twin != record
    assert twin is not record
    assert hash(twin) == hash(record) == hash(record._fields())
    assert record != record._fields()
    assert record != object()


def test_records_of_different_classes_never_compare_equal():
    fields = (8, 2, 8, (0, 5))
    assert CongruenceSpec(*fields) != DivisibilitySpec(*fields)
    assert CongruenceSpec(*fields) == CongruenceSpec(*fields)
    assert CongruenceSpec.__eq__(CongruenceSpec(*fields), DivisibilitySpec(*fields)) is NotImplemented
    assert len({CongruenceSpec(*fields), DivisibilitySpec(*fields)}) == 2


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_are_frozen(record):
    name = record.__slots__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is value
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_deepcopy_copies_mutable_fields():
    table = PdoTable([1, 1, 2])  # records do not check field types
    twin = copy.deepcopy(table)
    assert twin.values == table.values and twin.values is not table.values


def test_keyword_construction_needs_every_field():
    spec = CongruenceSpec(n_range=(0, 3), modulus=4, rhs_stride=1, lhs_stride=2)
    assert spec == CongruenceSpec(2, 1, 4, (0, 3))
    report = ProfileReport(family="Z", i=4, j=1, k=None, base_degree=7, vals=(0, 1), failures=())
    assert report == ProfileReport("Z", 4, 1, None, 7, (0, 1), ())
    assert repr(report).endswith("vals=(0, 1), failures=())")
    with pytest.raises(TypeError, match="missing field 'failures'"):
        ProfileReport(family="Z", i=4, j=1, k=None, base_degree=7, vals=(0, 1))


def test_reports_derive_their_verdict_and_refuse_a_stored_one():
    spec = CongruenceSpec(8, 2, 8, (0, 4))
    reports = {
        "fail": [
            CongruenceReport(spec, (1, 22, 2), 2, 100),
            ProfileReport("F", None, None, 5, 26, (6,), ("nu at tau = 6, expected >= 7",)),
        ],
        "pass": [
            CongruenceReport(spec, None, 4, 100),
            ProfileReport("F", None, None, 5, 26, (7,), ()),
        ],
    }
    for verdict, group in reports.items():
        for report in group:
            assert report.verdict == verdict and report.passed == (verdict == "pass")
            assert report.to_record()["verdict"] == verdict
            assert "verdict" not in report.__slots__
            fields = {name: getattr(report, name) for name in report.__slots__}
            with pytest.raises(TypeError, match="unexpected field 'verdict'"):
                type(report)(**fields, verdict=verdict)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CongruenceSpec(8, 2, 8),  # missing n_range
        lambda: CongruenceSpec(8, 2, 8, (0, 5), 1),  # one field too many
        lambda: CongruenceSpec(8, 2, 8, (0, 5), extra=1),  # unknown field
        lambda: CongruenceSpec(8, 2, 8, (0, 5), lhs_stride=8),  # repeated field
        lambda: ProfileReport("Z", 4, 1, None, 7, (0, 1)),  # failures has no default
        lambda: PdoTable(),
        lambda: ProfileReport("Z", 4, 1, None, 7, (0, 1), (), "pass"),  # no verdict field
    ],
)
def test_missing_unknown_or_repeated_fields_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CongruenceSpec(0, 1, 2, (0, 1)), "strides must be >= 1: 0, 1"),
        (lambda: CongruenceSpec(1, 1, 1, (0, 1)), "modulus must be >= 2, got 1"),
        (lambda: DivisibilitySpec(1, -1, 2, (0, 1)), "bad progression: stride 1, offset -1"),
        (lambda: DivisibilitySpec(1, 1, 1, (0, 1)), "modulus must be >= 2, got 1"),
        (lambda: EtaQuotientSpec(((0, 1),)), "dilations must be positive: [0]"),
        (lambda: EtaQuotientSpec(((1, 1), (1, 2))), "dilations must be pairwise distinct: [1, 1]"),
        (lambda: EtaQuotientSpec(((1, 0),)), "zero exponents are not allowed in a spec"),
    ],
)
def test_post_init_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_eta_quotient_spec_is_canonical_and_expands_alike():
    first = EtaQuotientSpec(((2, 5), (1, -2)))
    second = EtaQuotientSpec([(1, -2), (2, 5)])
    assert first.factors == second.factors == ((1, -2), (2, 5))
    assert first == second and hash(first) == hash(second) and first is not second
    order = 37
    assert expand(second, order) == expand(first, order)


def test_positional_pattern_matching_follows_the_field_order():
    match CongruenceSpec(8, 2, 8, (0, 5)):
        case CongruenceSpec(lhs, rhs, modulus, window):
            assert (lhs, rhs, modulus, window) == (8, 2, 8, (0, 5))
        case _:
            pytest.fail("no match")
