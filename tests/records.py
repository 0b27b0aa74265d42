"""Readers for the JSON records the CLI writes, kept as round-trip oracles.

The package only writes records (``CongruenceReport.to_record`` and
``ProfileReport.to_record``); these rebuild the reports so the tests can check
that a record keeps every field they compare.  A report derives its verdict
from its evidence, so each reader checks the record's ``"verdict"`` against
the rebuilt report's.
"""

from pdocong import INFINITY, CongruenceReport, CongruenceSpec, DivisibilitySpec, ProfileReport


def congruence_from_record(record: dict) -> CongruenceReport:
    window = (int(record["window"][0]), int(record["window"][1]))
    if "lhs_stride" in record:
        spec = CongruenceSpec(
            int(record["lhs_stride"]), int(record["rhs_stride"]), int(record["modulus"]), window
        )
    else:
        spec = DivisibilitySpec(
            int(record["stride"]), int(record["offset"]), int(record["modulus"]), window
        )
    ce = record.get("counterexample")
    counterexample = (int(ce["n"]), int(ce["lhs"]), int(ce["rhs"])) if ce else None
    report = CongruenceReport(
        spec=spec,
        counterexample=counterexample,
        checked_count=int(record["checked_count"]),
        truncation_order=int(record["truncation_order"]),
    )
    assert record["verdict"] == report.verdict, record
    return report


def profile_from_record(record: dict) -> ProfileReport:
    vals = tuple(INFINITY if v == "inf" else int(v) for v in record["vals"])
    report = ProfileReport(
        family=record["family"],
        i=record.get("i"),
        j=record.get("j"),
        k=record.get("k"),
        base_degree=int(record["base_degree"]),
        vals=vals,
        failures=tuple(record["failures"]),
    )
    assert record["verdict"] == report.verdict, record
    return report
