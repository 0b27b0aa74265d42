"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All checks are exact (zero tolerance); windows and
truncation orders are pinned here.
"""

import time

import pytest

from pdocong import (
    CongruenceSpec,
    Series,
    XiPoly,
    check_z_profile,
    d_min,
    delta_series,
    gamma6_poly,
    gamma_series,
    kappa_series,
    lambda_poly,
    main_family_spec,
    nu2,
    pdo_bruteforce,
    pdo_series,
    phi_poly,
    phi_poly_direct,
    poly_to_series,
    profile,
    tau,
    verify,
    verify_ramanujan,
    xi_series,
    zeta,
    zeta_initial,
)

SWEEP_ORDER = 8000  # covers every window below: largest index is 16*499 = 7984


@pytest.fixture(scope="module")
def sweep_table():
    return pdo_series(SWEEP_ORDER)


class Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description
        self.failures = []
        self.started = time.perf_counter()

    def check(self, ok, label):
        if not ok:
            self.failures.append(label)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if not self.failures else "FAIL"
        print(f"\nACCEPTANCE {self.number}: {status} ({elapsed:.1f}s) {self.description}")
        for label in self.failures:
            print(f"    failed: {label}")
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_1_identity_suite():
    crit = Criterion(1, "initial unitization identities at order 300, exact")
    order = 600
    half = order // 2
    kappa = kappa_series(order)
    xi = xi_series(order)
    initial = zeta_initial()
    cases = {
        "U(kappa)": (kappa.u2(), initial[(1, 0)]),
        "U(xi)": (xi.u2(), initial[(0, 1)]),
        "U(kappa^2)": ((kappa * kappa).u2(), initial[(2, 0)]),
        "U(kappa*xi)": ((kappa * xi).u2(), initial[(1, 1)]),
        "U(xi^2)": ((xi * xi).u2(), initial[(0, 2)]),
    }
    for label, (series, poly) in cases.items():
        crit.check(series == poly_to_series(poly, half), label)
    delta = delta_series(order)
    gamma_q2 = gamma_series(order).dilate(2)
    lhs = (gamma_q2 * delta * delta).u2()
    crit.check(lhs == poly_to_series(XiPoly({2: 3, 3: -2}), half), "U(gamma(q^2) delta^2)")
    gamma = gamma_series(half)
    crit.check(gamma**6 == poly_to_series(gamma6_poly(), half), "gamma^6")
    crit.finish()


def test_criterion_2_zeta_cross_validation():
    crit = Criterion(2, "zeta grid 0<=i,j<=6 vs direct unitization at order 150")
    order = 300
    kappa = kappa_series(order)
    xi = xi_series(order)
    kappa_pow = [Series.one(order)]
    xi_pow = [Series.one(order)]
    for _ in range(6):
        kappa_pow.append(kappa_pow[-1] * kappa)
        xi_pow.append(xi_pow[-1] * xi)
    for i in range(7):
        for j in range(7):
            direct = (kappa_pow[i] * xi_pow[j]).u2()
            crit.check(direct == poly_to_series(zeta(i, j), order // 2), f"zeta({i},{j})")
    printed = {
        (1, 2): XiPoly({4: -15, 5: 16}),
        (1, 3): XiPoly({4: -27, 5: 36, 6: -8}),
        (2, 4): XiPoly({7: -81, 8: 594, 9: -1024, 10: 512}),
        (2, 5): XiPoly({8: 405, 9: -900, 10: 496}),
        (2, 6): XiPoly({8: 729, 9: -1944, 10: 1728, 11: -640, 12: 128}),
    }
    for (i, j), expected in printed.items():
        crit.check(zeta(i, j) == expected, f"printed zeta({i},{j})")
    crit.finish()


def test_criterion_3_lambda_tower():
    crit = Criterion(3, "lambda tower: printed polynomials and q-level identity")
    printed = {
        2: XiPoly({2: 3, 3: -2}),
        3: XiPoly({4: 9, 5: -24, 6: 16}),
        4: XiPoly({7: -729, 8: 7290, 9: -18720, 10: 20352, 11: -10240, 12: 2048}),
        5: XiPoly(
            {
                14: 34543665,
                15: -400588416,
                16: 2073171024,
                17: -6214952448,
                18: 11906611200,
                19: -15261990912,
                20: 13313703936,
                21: -7841251328,
                22: 2994733056,
                23: -671088640,
                24: 67108864,
            }
        ),
    }
    for k, expected in printed.items():
        crit.check(lambda_poly(k) == expected, f"lambda_{k} printed form")
    order = 150
    for k in (2, 3, 4):
        stride = 2**k
        sliced = Series(pdo_series(order * stride).values[::stride])
        lhs = gamma_series(order) ** (2 ** (k - 2)) * sliced
        crit.check(lhs == poly_to_series(lambda_poly(k), order), f"lambda_{k} at q-level")
    crit.finish()


def test_criterion_4_phi_tower():
    crit = Criterion(4, "phi tower: printed phi_3, recursive vs direct, 43 terms at k=5")
    phi3 = phi_poly(3)
    expected_phi3 = XiPoly(
        {
            14: 34012224,
            15: -396809280,
            16: 2061728640,
            17: -6195823488,
            18: 11887534080,
            19: -15250636800,
            20: 13309968384,
            21: -7840727040,
            22: 2994733056,
            23: -671088640,
            24: 67108864,
        }
    )
    crit.check(phi3 == expected_phi3, "phi_3 printed form")
    crit.check(phi3.term_count() == 11, "phi_3 has 11 terms")
    crit.check(phi_poly(4) == phi_poly_direct(4), "phi_4 recursive == direct")
    crit.check(phi_poly(5) == phi_poly_direct(5), "phi_5 recursive == direct")
    crit.check(phi_poly(5).term_count() == 43, "phi_5 has exactly 43 terms")
    crit.finish()


def test_criterion_5_minimal_degrees_and_parity():
    crit = Criterion(5, "minimal degrees d(i,j) with odd leads; tau values and parity")
    for i in range(13):
        for j in range(13):
            p = zeta(i, j)
            d = d_min(i, j)
            crit.check(p.min_degree() == d, f"min degree of zeta({i},{j})")
            crit.check(p.coeff(d) % 2 == 1, f"odd lead of zeta({i},{j})")
    crit.check(tau(3) == 14 and tau(4) == 27 and tau(5) == 54, "tau(3..5) values")
    for k in (3, 4, 5):
        low = phi_poly(k).min_degree()
        crit.check(low is not None and low >= tau(k), f"phi_{k} vanishes below tau")
    for big_k in range(2, 9):
        crit.check(tau(2 * big_k - 1) % 4 == 2, f"tau({2 * big_k - 1}) parity")
        crit.check(tau(2 * big_k) % 4 == 3, f"tau({2 * big_k}) parity")
    crit.finish()


def test_criterion_6_valuation_tables():
    crit = Criterion(6, "valuation tables for phi_3/phi_5 and the zeta profile families")
    phi3 = phi_poly(3)
    span3 = phi3.degree() - 14
    vals3 = profile(phi3, 14, span3 + 1)
    crit.check(vals3[:3] == (6, 6, 7), "phi_3 head valuations 6,6,7")
    crit.check(
        all(vals3[m] >= m + 4 for m in range(3, span3 + 1)), "phi_3 tail >= M+4"
    )
    phi5 = phi_poly(5)
    span5 = phi5.degree() - 54
    vals5 = profile(phi5, 54, span5 + 1)
    crit.check(vals5[:3] == (7, 7, 9), "phi_5 head valuations 7,7,9")
    crit.check(
        all(vals5[m] >= m + 8 for m in range(3, span5 + 1)), "phi_5 tail >= M+8"
    )
    for i in range(14):
        for j in (0, 1):
            crit.check(check_z_profile(i, j).passed, f"Z profile ({i},{j})")
    for i in (4, 8, 16):
        for j in range(11):
            crit.check(check_z_profile(i, j).passed, f"Z profile ({i},{j})")
    crit.finish()


def test_criterion_7_congruence_sweeps(sweep_table):
    crit = Criterion(7, "congruence sweeps at their stated windows and moduli")
    # The k=0 member of the stated family, PDO(8n) == PDO(2n) (mod 8), is false
    # at n=1: PDO(8)=22, PDO(2)=2, difference 20.  It is asserted as a refuted
    # instance with exactly that least counterexample, and the pair is asserted
    # to survive mod 4 on the same window; the family is checked from k=1 on.
    k0 = verify(main_family_spec(0, 500), sweep_table)
    crit.check(
        k0.verdict == "fail" and k0.counterexample == (1, 22, 2) and k0.checked_count == 2,
        "family k=0 (mod 8, n<500) refuted at n=1 by counterexample (1, 22, 2);"
        f" got {k0.verdict} {k0.counterexample} after {k0.checked_count} n",
    )
    reports = {
        "PDO(8n)==PDO(2n) mod 4, n<500": verify(
            CongruenceSpec(8, 2, 4, (0, 500)), sweep_table
        ),
        "family k=1 (mod 32, n<60)": verify(main_family_spec(1, 60), sweep_table),
        "PDO(4n)==PDO(n) mod 4, n<500": verify(
            CongruenceSpec(4, 1, 4, (0, 500)), sweep_table
        ),
        "PDO(16n)==PDO(4n) mod 8, n<500": verify(
            CongruenceSpec(16, 4, 8, (0, 500)), sweep_table
        ),
        "PDO(32n)==PDO(8n) mod 64, n<40": verify(
            CongruenceSpec(32, 8, 64, (0, 40)), sweep_table
        ),
        "PDO(128n)==PDO(32n) mod 128, n<40": verify(
            CongruenceSpec(128, 32, 128, (0, 40)), sweep_table
        ),
    }
    for idx, report in enumerate(verify_ramanujan(3, 100, sweep_table)):
        reports[f"ramanujan #{idx} ({report.spec.describe()}, n<100)"] = report
    for label, report in reports.items():
        note = "" if report.passed else f" counterexample {report.counterexample}"
        crit.check(report.passed, f"{label}{note}")
    crit.finish()


def test_criterion_8_oracle_equivalence(sweep_table):
    crit = Criterion(8, "series values equal the combinatorial oracle; even slice is delta^2")
    for n in range(41):
        crit.check(sweep_table[n] == pdo_bruteforce(n), f"PDO({n}) vs oracle")
    d = delta_series(200)
    square = d * d
    crit.check(
        all(sweep_table[2 * n] == square.coeff(n) for n in range(100)),
        "PDO(2n) equals delta^2 coefficients to order 100",
    )
    crit.finish()


def test_criterion_9_negative_control(sweep_table):
    crit = Criterion(9, "verifier rejects a false congruence with the least counterexample")
    report = verify(CongruenceSpec(4, 1, 8, (0, 10)), sweep_table)
    crit.check(report.verdict == "fail", "verdict is fail")
    crit.check(report.counterexample == (1, 5, 1), "counterexample (n,lhs,rhs)=(1,5,1)")
    crit.finish()


def test_valuation_bound_checks_for_completeness():
    # the F-profile checks behind criterion 6's table rows
    from pdocong import check_f_profile

    assert check_f_profile(3).passed
    assert check_f_profile(5).passed
    assert nu2(phi_poly(3).coeff(14)) == 6
    assert nu2(phi_poly(5).coeff(54)) == 7
