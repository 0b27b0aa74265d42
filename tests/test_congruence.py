import pytest

from pdocong import (
    CongruenceSpec,
    DivisibilitySpec,
    main_family_spec,
    pdo_bruteforce,
    pdo_series,
    scan,
    verify,
    verify_corollary,
    verify_main,
    verify_ramanujan,
    verify_strengthened,
)
from records import congruence_from_record


@pytest.fixture(scope="module")
def table():
    return pdo_series(2000)


def test_negative_control_fails_at_n1(table):
    report = verify(CongruenceSpec(4, 1, 8, (0, 10)), table)
    assert report.verdict == "fail"
    assert report.counterexample == (1, 5, 1)
    assert report.checked_count == 2  # n=0 passed, n=1 is the least failure


def test_reflexive_pair_passes(table):
    report = verify(CongruenceSpec(1, 1, 2, (0, 300)), table)
    assert report.passed
    assert report.checked_count == 300
    assert report.counterexample is None


def test_printed_family_k0_fails_at_n1(table):
    # the k=0 member of the printed family does not hold at odd n:
    # PDO(8) - PDO(2) = 20, which 8 does not divide
    assert pdo_bruteforce(8) == 22 and pdo_bruteforce(2) == 2
    report = verify(main_family_spec(0, 200), table)
    assert report.verdict == "fail"
    assert report.counterexample == (1, 22, 2)


def test_printed_family_k0_holds_mod_4(table):
    report = verify(CongruenceSpec(8, 2, 4, (0, 250)), table)
    assert report.passed


def test_main_family_k1_passes(table):
    assert verify_main(1, 59, table).passed


def test_corollary_passes(table):
    assert verify_corollary(0, 100, table).passed
    assert verify_corollary(1, 20, table).passed


def test_corollary_includes_n0(table):
    report = verify_corollary(0, 0, table)
    assert report.passed
    assert report.checked_count == 1


def test_strengthened(table):
    first, second = verify_strengthened(15, table)
    assert first.passed and second.passed
    assert first.spec.modulus == 64 and second.spec.modulus == 128
    trivial = verify_strengthened(0, table)
    assert trivial[0].checked_count == 1 and trivial[1].passed


def test_ramanujan_families(table):
    reports = verify_ramanujan(1, 50, table)
    # the CLI prints the reports in this order
    assert [(r.spec.stride, r.spec.offset, r.spec.modulus) for r in reports] == [
        (4, 3, 4), (8, 7, 8), (8, 6, 4), (16, 14, 8)
    ]
    assert all(r.passed for r in reports)
    # spot values behind the alpha = 0 cases
    assert pdo_bruteforce(3) == 4
    assert pdo_bruteforce(7) % 8 == 0


def test_ramanujan_window_is_half_open(table):
    [r1, r2] = verify_ramanujan(0, 10, table)
    assert r1.checked_count == 10 and r2.checked_count == 10


def test_table_too_short_raises(table):
    with pytest.raises(ValueError, match="truncation order 16001"):
        verify(CongruenceSpec(16, 4, 8, (0, 1001)), table)


def test_monotone_in_modulus(table):
    # pass at 2^e implies pass at 2^{e-1}
    window = (0, 120)
    assert verify(CongruenceSpec(16, 4, 8, window), table).passed
    assert verify(CongruenceSpec(16, 4, 4, window), table).passed
    assert verify(CongruenceSpec(16, 4, 2, window), table).passed


def test_scan_results(table):
    results = scan(table, [(8, 2), (32, 8), (1, 1)], 10)
    by_pair = {r.pair: r for r in results}
    assert by_pair[(8, 2)].exponent == 2
    assert by_pair[(32, 8)].exponent >= 6
    assert by_pair[(1, 1)].exponent == 10
    assert by_pair[(32, 8)].n_range == (0, table.max_n // 32 + 1)


def test_scan_agrees_with_verify(table):
    for pair in ((8, 2), (16, 4), (32, 8)):
        [result] = scan(table, [pair], 9)
        for exp in range(1, 10):
            report = verify(CongruenceSpec(pair[0], pair[1], 2**exp, result.n_range), table)
            assert report.passed == (result.exponent >= exp)


def test_reports_are_deterministic(table):
    spec = CongruenceSpec(4, 1, 4, (0, 400))
    assert verify(spec, table) == verify(spec, table)


def test_spec_validation():
    with pytest.raises(ValueError):
        CongruenceSpec(0, 1, 4, (0, 10))
    with pytest.raises(ValueError):
        CongruenceSpec(1, 1, 1, (0, 10))
    with pytest.raises(ValueError):
        DivisibilitySpec(4, -3, 4, (0, 10))
    with pytest.raises(ValueError):
        verify_ramanujan(-1, 5, pdo_series(100))
    with pytest.raises(ValueError):
        main_family_spec(-1, 10)


def test_report_record_round_trip(table):
    reports = [
        verify(CongruenceSpec(4, 1, 8, (0, 10)), table),
        verify(CongruenceSpec(16, 4, 8, (0, 50)), table),
        verify_ramanujan(0, 20, table)[0],
    ]
    for report in reports:
        assert congruence_from_record(report.to_record()) == report


def test_fail_verdict_carries_counterexample(table):
    report = verify(CongruenceSpec(4, 1, 8, (0, 10)), table)
    n, lhs, rhs = report.counterexample
    assert (lhs - rhs) % report.spec.modulus != 0
    assert n == 1
