import json
import random
from functools import cache
from itertools import islice

import pytest

from pdocong import (
    INFINITY,
    XiPoly,
    check_f_profile,
    check_z_profile,
    d_min,
    nu2,
    phi_poly,
    phi_poly_direct,
    profile,
    tau,
    zeta,
)
import pdocong
from pdocong import padic, xipoly
from pdocong.padic import ProfileReport
from records import profile_from_record


def test_nu2_values():
    assert nu2(0) == INFINITY
    assert nu2(12) == 2
    assert nu2(34012224) == 6
    assert nu2(1) == 0
    assert nu2(-8) == 3
    assert nu2(2**100) == 100


def test_nu2_additivity_lemma():
    rng = random.Random(20260810)
    for _ in range(1000):
        a = rng.randint(-(2**40), 2**40) or 1
        b = rng.randint(-(2**40), 2**40) or 1
        va, vb, vs = nu2(a), nu2(b), nu2(a + b)
        if va != vb:
            assert vs == min(va, vb)
        else:
            # equal valuations gain at least one factor of 2 (a+b=0 gives inf)
            assert vs >= va + 1


def test_d_min_cases():
    # one formula, kept in xipoly (the walk needs it) and re-exported
    assert padic.d_min is xipoly.d_min is pdocong.d_min
    assert d_min(0, 0) == 0
    assert d_min(1, 0) == 3
    assert d_min(2, 0) == 5
    assert d_min(0, 1) == 1
    assert d_min(1, 1) == 3
    assert d_min(2, 5) == 8
    assert d_min(4, 6) == 13
    with pytest.raises(ValueError):
        d_min(-1, 0)


def test_d_min_matches_zeta_with_odd_lead():
    for i in range(9):
        for j in range(9):
            p = zeta(i, j)
            d = d_min(i, j)
            assert p.min_degree() == d
            assert p.coeff(d) % 2 == 1


def test_tau_values_and_parity():
    assert tau(3) == 14
    assert tau(4) == 27
    assert tau(5) == 54
    for big_k in range(2, 9):
        assert tau(2 * big_k - 1) % 4 == 2
        assert tau(2 * big_k) % 4 == 3
    with pytest.raises(ValueError):
        tau(2)


def test_degree_shift_laws():
    # d(2^{2K-1}, tau'' + M'') = tau' + floor((M''+1)/2)
    # d(2^{2K},   tau'  + M')  = tau  + floor(M'/2)
    for big_k in (2, 3):
        t2, t1, t0 = tau(2 * big_k - 1), tau(2 * big_k), tau(2 * big_k + 1)
        for off in range(7):
            assert d_min(2 ** (2 * big_k - 1), t2 + off) == t1 + (off + 1) // 2
            assert d_min(2 ** (2 * big_k), t1 + off) == t0 + off // 2


def test_degree_shift_laws_on_actual_zeta():
    for off in range(7):
        assert zeta(8, tau(3) + off).min_degree() == d_min(8, tau(3) + off)
        assert zeta(16, tau(4) + off).min_degree() == d_min(16, tau(4) + off)


def test_profile_phi3_window():
    assert profile(phi_poly(3), 14, 3) == (6, 6, 7)


def test_profile_zeta_leading():
    assert profile(zeta(1, 0), 3, 1) == (0,)


def test_profile_zero_polynomial():
    assert profile(XiPoly(), 0, 4) == (INFINITY,) * 4


def test_profile_rejects_empty_window():
    with pytest.raises(ValueError):
        profile(XiPoly({1: 1}), 0, 0)


def test_check_z_profile_passes():
    report = check_z_profile(6, 0)
    assert report.passed
    assert report.vals[0] == 0
    assert report.vals[1] == 1  # 6 == 2 mod 4: sharp offset-1 slot
    report = check_z_profile(4, 2)
    assert report.passed
    assert report.vals[1] == 1  # j == 2 mod 4
    assert check_z_profile(0, 0).passed
    assert check_z_profile(13, 1).passed
    # zeta's own index check is the one negative indices meet
    with pytest.raises(ValueError, match=r"^indices must be nonnegative, got \(-1, 0\)$"):
        check_z_profile(-1, 0)


def test_check_z_profile_non_sharp_classes():
    report = check_z_profile(4, 0)  # 4 != 2 mod 4: offset-1 must be >= 2
    assert report.passed
    assert report.vals[1] >= 2


@pytest.mark.parametrize("i, j", [(3, 2), (6, 5), (2, 2), (6, 0), (13, 1), (4, 2)])
def test_check_z_profile_reports_its_basis(i, j):
    # the floor lemma proves the one rule for every cell, inside the paper's
    # claim (j < 2, or i a power of two >= 4) or not
    report = check_z_profile(i, j)
    assert report.passed
    assert report.basis == "proven"


def test_check_z_profile_passes_every_small_cell():
    for i in range(24):
        for j in range(24):
            assert check_z_profile(i, j).passed, (i, j)


def _sharp_rule(i, j):
    return (i + j) % 4 == 2


@cache
def _walk_sharp_cells():
    """The cells i, j < 64 whose offset-1 valuation is exactly 1, read from
    the floored walk, which holds entry M divided by 2^(2M - 1 + stay): nu at
    offset 1 is f(1) + nu(floored entry 1), with f(1) = 2 on a stay row and 1
    otherwise, and the odd entry 0 of a row that is not a stay row is held
    doubled."""
    sharp = set()
    for i in range(64):
        for j, (_, row) in enumerate(islice(xipoly._floored_rows(i, 0), 64)):
            stay = (5 * i + j) % 2
            assert nu2(row[0]) == 1 - stay, (i, j)
            if len(row) > 1 and 1 + stay + nu2(row[1]) == 1:
                sharp.add((i, j))
    return frozenset(sharp)


def _rule_misses(rule):
    return [(i, j) for i in range(64) for j in range(64)
            if rule(i, j) != ((i, j) in _walk_sharp_cells())]


def test_offset_one_rule_holds_on_the_floored_walk():
    assert _rule_misses(_sharp_rule) == []


@pytest.mark.parametrize(
    "mutant",
    [
        lambda i, j: (i + j) % 4 == 0,
        lambda i, j: j % 4 == 2,
        lambda i, j: not _sharp_rule(i, j),
    ],
    ids=["sum-0-mod-4", "j-2-mod-4", "swapped"],
)
def test_offset_one_rule_mutants_miss_walk_cells(mutant):
    assert _rule_misses(mutant)


def test_check_f_profile():
    report = check_f_profile(3)
    assert report.passed
    assert report.base_degree == 14
    assert report.vals[:3] == (6, 6, 7)
    report = check_f_profile(5)
    assert report.passed
    assert report.base_degree == 54
    assert report.vals[:3] == (7, 7, 9)


def test_check_f_profile_range_errors():
    with pytest.raises(ValueError):
        check_f_profile(4)
    with pytest.raises(ValueError):
        check_f_profile(7)  # beyond default computable range
    with pytest.raises(ValueError):
        check_f_profile(1)


def test_check_f_profile_extended_range():
    # the guard is adjustable; the k=7 instance meets its bound sharply
    report = check_f_profile(7, max_k=7)
    assert report.passed
    assert report.base_degree == tau(7) == 214
    assert report.vals[:3] == (9, 9, 10)  # 2K+3 with K=3 at tau
    assert phi_poly(7) == phi_poly_direct(7)


def test_check_f_profile_k9():
    # about a second cold: the phi tower streams through unitize
    report = check_f_profile(9, max_k=9)
    assert report.passed
    assert report.base_degree == tau(9) == 854
    assert report.vals[:3] == (11, 11, 12)  # 2K+3 with K=4 at tau


# zeta(6, 0) = -xi^15 + 450 xi^16 - 33600 xi^17 + 990080 xi^18 - ..., d_min 15
@pytest.mark.parametrize(
    "extra, failures",
    [
        ({15: 3}, ("nu(coeff at 15) = 1, expected 0",)),  # even leading coefficient
        ({14: 1}, ("minimal degree 14 != d_min 15",)),  # a term below d_min
        ({18: 1}, ("offset-3 valuation 0, expected >= 4",)),  # an offset under its bound
        # the leading term cancelled: the read at d_min lies below the stored row
        ({15: 1}, ("minimal degree 16 != d_min 15", "nu(coeff at 15) = inf, expected 0")),
    ],
)
def test_check_z_profile_reports_perturbed_rows(monkeypatch, extra, failures):
    perturbed = zeta(6, 0) + XiPoly(extra)
    monkeypatch.setattr(padic, "zeta", lambda i, j: perturbed)
    report = check_z_profile(6, 0)
    assert report.verdict == "fail" and not report.passed
    assert report.failures == failures
    assert profile_from_record(json.loads(json.dumps(report.to_record()))) == report


# phi_poly(3) = 34012224 xi^14 - 396809280 xi^15 + 2061728640 xi^16 - ... + 2^26 xi^24, tau 14
@pytest.mark.parametrize(
    "extra, failures",
    [
        ({13: 2**10}, ("nonzero coefficient at degree 13 < tau 14",)),  # a term below tau
        ({14: 2}, ("nu at tau = 1, expected >= 5",)),  # leading valuation under 2K+3
        ({16: 8}, ("offset-2 valuation 3, expected >= 6",)),  # an offset under its bound
        # a term past the degree: the reads between lie inside the row, as zeros
        ({26: 2**5}, ("offset-12 valuation 5, expected >= 16",)),
    ],
)
def test_check_f_profile_reports_perturbed_polynomials(monkeypatch, extra, failures):
    perturbed = phi_poly(3) + XiPoly(extra)
    monkeypatch.setattr(padic, "phi_poly", lambda k: perturbed)
    report = check_f_profile(3)
    assert report.verdict == "fail" and not report.passed
    assert report.failures == failures
    assert profile_from_record(json.loads(json.dumps(report.to_record()))) == report


def test_report_record_round_trip():
    for report in (check_z_profile(5, 1), check_f_profile(3)):
        record = report.to_record()
        back = profile_from_record(record)
        assert back.family == report.family
        assert back.base_degree == report.base_degree
        assert back.vals == report.vals
        assert back.verdict == report.verdict
        assert back == report


def test_report_record_serializes_infinity():
    report = ProfileReport(
        family="Z", i=0, j=0, k=None, base_degree=0, vals=(0, INFINITY), failures=()
    )
    record = report.to_record()
    assert record["vals"] == [0, "inf"]
    assert profile_from_record(record).vals == (0, INFINITY)


def test_profile_report_shape():
    # basis is derived from the family and indices, never recorded
    assert check_f_profile(3).basis == "paper"
    z = check_z_profile(2, 1).to_record()
    assert set(z) == {"family", "i", "j", "base_degree", "vals", "verdict", "failures"}
    f = check_f_profile(3).to_record()
    assert set(f) == {"family", "k", "base_degree", "vals", "verdict", "failures"}
    assert z["failures"] == f["failures"] == []
