import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pdocong
from pdocong import series, xipoly
from pdocong import (
    XI,
    Series,
    XiPoly,
    delta_series,
    gamma6_poly,
    gamma_series,
    kappa_series,
    lambda_poly,
    pdo_series,
    phi_poly,
    phi_poly_direct,
    poly_to_series,
    xi_series,
    zeta,
    zeta_initial,
)
from pdocong.xipoly import ONE, ZERO
from naive_series import expand_quotient, poly_mul
from zeta_oracle import sigma_pairs, zeta_combined

LAMBDA_2 = XiPoly({2: 3, 3: -2})
LAMBDA_3 = XiPoly({4: 9, 5: -24, 6: 16})
LAMBDA_4 = XiPoly({7: -729, 8: 7290, 9: -18720, 10: 20352, 11: -10240, 12: 2048})
LAMBDA_5 = XiPoly(
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
)
PHI_3 = XiPoly(
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


def test_poly_add_prunes_cancellation():
    assert XiPoly({2: 3, 3: -2}) + XiPoly({3: 2}) == XiPoly({2: 3})
    assert (XiPoly({1: 1}) - XiPoly({1: 1})).is_zero


def test_poly_mul_monomials():
    xi = XiPoly.monomial(1)
    assert xi * xi == XiPoly.monomial(2)


def test_poly_mul_convolution():
    # hand convolution: (10x - 8x^2)(5x - 4x^2) = 50x^2 - 80x^3 + 32x^4
    assert XiPoly({1: 10, 2: -8}) * XiPoly({1: 5, 2: -4}) == XiPoly({2: 50, 3: -80, 4: 32})


def test_poly_scalar_and_pow():
    p = XiPoly({1: 2, 4: -3})
    assert 2 * p == XiPoly({1: 4, 4: -6})
    assert p * 0 == ZERO
    assert p**0 == ONE
    assert p**2 == p * p
    assert ZERO**0 == ONE and ZERO**1 == ZERO and ZERO**7 == ZERO


def test_poly_never_stores_zeros():
    p = XiPoly({0: 1, 5: 0}) + XiPoly({0: -1})
    assert p.terms() == ()
    assert p.degree() is None and p.min_degree() is None


def test_poly_row_keeps_interior_zeros_out_of_terms():
    p = XiPoly({0: 1, 5: 1})
    assert p.terms() == ((0, 1), (5, 1))
    assert p.term_count() == 2
    assert (p.min_degree(), p.degree()) == (0, 5)
    assert [p.coeff(d) for d in range(-2, 8)] == [0, 0, 1, 0, 0, 0, 0, 1, 0, 0]
    q = XiPoly([(9, 4), (3, -1), (9, -4), (6, 2)])  # pairs, with a cancelled top term
    assert q.terms() == ((3, -1), (6, 2))
    assert q.term_count() == 2 and q.degree() == 6
    assert XiPoly([(4, 1), (4, -1)]) == ZERO and ZERO.term_count() == 0


def test_poly_rejects_negative_degree():
    with pytest.raises(ValueError):
        XiPoly({-1: 2})


def test_poly_records_round_trip():
    p = lambda_poly(5)
    assert XiPoly.from_records(p.to_records()) == p
    records = p.to_records()
    assert records[0] == {"degree": 14, "coefficient": "34543665"}
    assert all(isinstance(r["coefficient"], str) for r in records)


def test_zeta_initial_values():
    initial = zeta_initial()
    assert initial[(0, 0)] == ONE
    assert initial[(0, 1)] == XiPoly({1: 5, 2: -4})
    assert initial[(0, 2)] == XiPoly({1: -9, 2: 58, 3: -80, 4: 32})
    assert initial[(1, 0)] == XiPoly({3: 5, 4: -20, 5: 16})
    assert initial[(1, 1)] == XiPoly({3: 3, 4: -18, 5: 16})
    assert initial[(2, 0)] == XiPoly({5: -1, 6: 50, 7: -400, 8: 1120, 9: -1280, 10: 512})


def test_initial_values_consistent_with_recurrences():
    initial = zeta_initial()
    pairs = sigma_pairs()
    (k1, k2), (x1, x2) = pairs["kappa"], pairs["xi"]
    assert k1 * initial[(1, 0)] - k2 * initial[(0, 0)] == initial[(2, 0)]
    assert x1 * initial[(0, 1)] - x2 * initial[(0, 0)] == initial[(0, 2)]
    # the package's floored xi step takes the same two rows to the same value:
    # zeta_{0,1} is a stay row at degree 1, zeta_{0,0} and zeta_{0,2} are not,
    # so their entry 0 is held doubled; the head j - d_min(0, j) is 0, 0 and 1,
    # so only -9 xi carries a 3-floor
    floored = {
        j: xipoly._floored(initial[(0, j)], xipoly.d_min(0, j), j == 1, j - xipoly.d_min(0, j))
        for j in range(3)
    }
    assert floored == {0: [2], 1: [5, -1], 2: [-2, 29, -10, 1]}
    assert xipoly._next_row(floored[1], floored[0], True, 0) == floored[2]


def test_zeta_printed_examples():
    assert zeta(0, 0) == ONE
    assert zeta(1, 2) == XiPoly({4: -15, 5: 16})
    assert zeta(1, 3) == XiPoly({4: -27, 5: 36, 6: -8})
    assert zeta(2, 4) == XiPoly({7: -81, 8: 594, 9: -1024, 10: 512})
    assert zeta(2, 5) == XiPoly({8: 405, 9: -900, 10: 496})
    assert zeta(2, 6) == XiPoly({8: 729, 9: -1944, 10: 1728, 11: -640, 12: 128})


def test_zeta_rejects_negative_indices():
    with pytest.raises(ValueError):
        zeta(-1, 0)


def test_zeta_combined_recurrence_agrees():
    for i in range(2, 6):
        for j in range(2, 6):
            assert zeta_combined(i, j) == zeta(i, j)
    with pytest.raises(ValueError):
        zeta_combined(1, 4)


def test_sigma_pairs():
    pairs = sigma_pairs()
    assert pairs["kappa"] == (XiPoly({3: 10, 4: -40, 5: 32}), XiPoly({5: 1}))
    assert pairs["xi"] == (XiPoly({1: 10, 2: -8}), XiPoly({1: 9, 2: -8}))


def test_sigma_pairs_derive_from_initial_unitizations():
    # sigma1 = alpha(q) + alpha(-q) and sigma2 = alpha(q) alpha(-q) at q-level,
    # both even in q, so U of each is the polynomial evaluated at xi
    order = 60
    pairs = sigma_pairs()
    for name, alpha in (("kappa", kappa_series(order)), ("xi", xi_series(order))):
        sigma1, sigma2 = pairs[name]
        assert (alpha + alpha.alternate()).u2() == poly_to_series(sigma1, order // 2), name
        assert (alpha * alpha.alternate()).u2() == poly_to_series(sigma2, order // 2), name


def test_gamma6_poly_coefficients():
    g6 = gamma6_poly()
    assert g6.coeff(10) == 59049
    assert g6.coeff(15) == -32768
    assert g6.coeff(9) == 0
    assert g6.min_degree() == 10 and g6.degree() == 15


def test_lambda_tower_printed_polynomials():
    assert lambda_poly(2) == LAMBDA_2
    assert lambda_poly(3) == LAMBDA_3
    assert lambda_poly(4) == LAMBDA_4
    assert lambda_poly(5) == LAMBDA_5
    with pytest.raises(ValueError):
        lambda_poly(1)


def test_phi3_printed_polynomial():
    p = phi_poly(3)
    assert p == PHI_3
    assert p.term_count() == 11
    assert p.coeff(13) == 0
    with pytest.raises(ValueError):
        phi_poly(2)


# two independent routes to each level the tower workload digests; their
# unitize steps accumulate in one band up to i = 16 and in up to 12 (phi) and
# 15 (lambda) bands at i = 256
@pytest.mark.parametrize("k", range(3, 10))
def test_phi_recursive_equals_direct(k):
    assert phi_poly(k) == phi_poly_direct(k)


def _assert_phi9_digest():
    # checked before any phi_10 is built: a wrong walk stops cancelling at the
    # levels below, and phi_10 then grows for minutes instead of failing
    digest = hashlib.sha256(repr(phi_poly(9).terms()).encode()).hexdigest()
    assert digest == "18b4ae0a4cf4aa9b4019d1e456000d7a00e7c0ccfdb3235bfc60c2a0b9d7aafe"


def test_phi10_digest_is_pinned():
    # phi_10, the CLI's top phi level, where unitize's two accumulators carry
    # most of the work; the digest was taken before the 3-adic floors were used
    _assert_phi9_digest()
    digest = hashlib.sha256(repr(phi_poly(10).terms()).encode()).hexdigest()
    assert digest == "1017f7f8b9fa2d583c189a5faa90f8ae8521ca571737ee4f16f1ebdd0b45047c"


def test_phi10_recursive_equals_direct():
    # the top level on both routes: the unitize step against kappa^512 and
    # the difference of lambda_12 and gamma^768 lambda_10
    _assert_phi9_digest()
    assert phi_poly(10) == phi_poly_direct(10)


def test_poly_to_series_constant():
    assert poly_to_series(ONE, 5) == Series.one(5)
    assert poly_to_series(ZERO, 5) == Series.zero(5)


def test_poly_to_series_gamma6_identity():
    assert poly_to_series(gamma6_poly(), 200) == gamma_series(200) ** 6


def test_poly_to_series_lambda2_identity():
    d = delta_series(300)
    g2 = gamma_series(300).dilate(2)
    assert (g2 * d * d).u2() == poly_to_series(lambda_poly(2), 150)


def test_zeta_cross_validation_small_grid():
    order = 120
    k = kappa_series(order)
    x = xi_series(order)
    kpow = [Series.one(order)]
    for _ in range(3):
        kpow.append(kpow[-1] * k)
    xpow = [Series.one(order)]
    for _ in range(3):
        xpow.append(xpow[-1] * x)
    for i in range(4):
        for j in range(4):
            assert (kpow[i] * xpow[j]).u2() == poly_to_series(zeta(i, j), order // 2)


def test_lambda_tower_q_level():
    # gamma^{2^{k-2}} * sum PDO(2^k n) q^n as a series, k = 2 and 3
    for k in (2, 3):
        order = 100
        sliced = Series(pdo_series(order * 2**k).values[:: 2**k])
        g = gamma_series(order) ** (2 ** (k - 2))
        assert g * sliced == poly_to_series(lambda_poly(k), order)


def test_phi3_q_level():
    # gamma^8 * (sum PDO(32n) q^n - sum PDO(8n) q^n) against the polynomial route
    order = 80
    values = pdo_series(order * 32).values
    diff = Series(values[::32]) - Series(values[::8]).truncate(order)
    lhs = gamma_series(order) ** 8 * diff
    assert lhs == poly_to_series(phi_poly(3), order)


def test_zeta_table_is_safe_under_concurrent_access():
    # the zeta grid and a phi level from several threads, racing on the shared
    # pair cache, must agree with the values computed serially
    import sys
    import threading

    from pdocong.xipoly import _pair

    grid = [(i, j) for i in range(10) for j in range(10)]
    serial = {key: zeta(*key) for key in grid}
    serial["phi 7"] = phi_poly(7)
    results = {}

    def worker(chunk, with_phi):
        for key in chunk:
            results[key] = zeta(*key)
        if with_phi:
            # the uncached last level, so it builds a pair for i = 64
            results["phi 7"] = phi_poly.__wrapped__(7)

    _pair.cache_clear()
    threads = [threading.Thread(target=worker, args=(grid[k::4], k == 0)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


def test_str_rendering():
    assert str(LAMBDA_3) == "9*xi^4 - 24*xi^5 + 16*xi^6"
    assert str(ZERO) == "0"
    assert str(XiPoly({0: -3, 1: 1})) == "- 3 + xi"


poly_terms = st.dictionaries(st.integers(0, 12), st.integers(-50, 50), max_size=8)


@given(poly_terms, poly_terms, poly_terms)
def test_poly_ring_laws(a, b, c):
    pa, pb, pc = XiPoly(a), XiPoly(b), XiPoly(c)
    assert pa * pb == pb * pa
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa + pb == pb + pa


def dense(p, size):
    """Coefficients of p at degrees 0 .. size - 1, read one by one."""
    return [p.coeff(d) for d in range(size)]


gappy_terms = st.dictionaries(st.integers(0, 40), st.integers(-3, 3), max_size=10)


@given(gappy_terms, gappy_terms)
def test_poly_row_matches_naive_arithmetic(a, b):
    pa, pb = XiPoly(a), XiPoly(b)
    assert pa.terms() == tuple(sorted((d, c) for d, c in a.items() if c))
    assert pa.term_count() == sum(1 for c in a.values() if c)
    assert dense(pa * pb, 81) == poly_mul(dense(pa, 41), dense(pb, 41), 81)
    assert dense(pa + pb, 41) == [x + y for x, y in zip(dense(pa, 41), dense(pb, 41))]
    # equal values built by different routes are equal and hash alike
    rebuilt = XiPoly([*a.items(), (50, 1), (50, -1)])
    assert rebuilt == pa and hash(rebuilt) == hash(pa)
    assert (pa + pb) - pb == pa and hash((pa + pb) - pb) == hash(pa)
    assert (pa == pb) == (dense(pa, 41) == dense(pb, 41))


@given(st.lists(st.integers(-2, 2), max_size=12), st.integers(0, 9))
def test_row_trims_to_first_and_last_nonzero(coeffs, low):
    # zero rows, rows with zeros at either end and interior zeros alike
    nonzero = [t for t, c in enumerate(coeffs) if c]
    row = XiPoly._row(low, coeffs)
    if nonzero:
        assert row.low == low + nonzero[0]
        assert row.coeffs == tuple(coeffs[nonzero[0] : nonzero[-1] + 1])
    else:
        assert (row.low, row.coeffs) == (0, ())
    assert row == XiPoly({low + t: c for t, c in enumerate(coeffs)})


def unfloored(row, base, stay, head):
    """Twice the polynomial whose coefficient at offset M above base is
    row[M] * 2^(2M - 1 + stay) * 9^max(0, head - M), M = 0 included: doubled,
    so that entry 0 of a row that is not a stay row, held doubled, scales back
    to an integer whatever it is."""
    scales = [9 ** max(head - m, 0) << (2 * m + stay) for m in range(len(row))]
    return XiPoly({base + m: c * scale for m, (c, scale) in enumerate(zip(row, scales))})


floored_rows = st.lists(st.integers(-(2**70), 2**70) | st.integers(-3, 3), max_size=12)


@given(floored_rows, floored_rows, st.booleans(), st.integers(1, 90), st.integers(-1, 14))
def test_step_is_the_xi_recurrence(alpha, beta, stay, base, head):
    # arbitrary integer rows, the empty row and rows with zeros at either end,
    # against the sigma pair that the oracle derives from the base values: row
    # j sits at base, row j - 1 one degree lower exactly when row j is a stay
    # row, and row j + 1 one degree higher exactly when it is not; the 3-adic
    # top T = base + head rises by one per row, so the heads run head - 1 + stay,
    # head and head + stay, from none to past the longest row
    sigma1, sigma2 = sigma_pairs()["xi"]
    a = unfloored(alpha, base, stay, head)
    b = unfloored(beta, base - stay, not stay, head - 1 + stay)
    step = xipoly._next_row(alpha, beta, stay, head)
    assert unfloored(step, base + (not stay), not stay, head + stay) == sigma1 * a - sigma2 * b
    assert not step or step[-1]


def test_tower_memos_are_bounded():
    assert not hasattr(lambda_poly, "cache_info")
    assert phi_poly.cache_info().maxsize == 8
    assert xipoly._pair.cache_info().maxsize == xipoly._xi_power.cache_info().maxsize == 32
    src = Path(pdocong.__file__).parent
    assert not [f.name for f in src.glob("*.py") if "lru_cache(maxsize=None)" in f.read_text()]


@given(gappy_terms, st.sampled_from([0, 1, 7]))
def test_poly_pow_is_repeated_multiplication(a, e):
    p = XiPoly(a)
    power = ONE
    for _ in range(e):
        power = power * p
    assert p**e == power


def test_dense_poly_products_take_the_kernel(monkeypatch):
    calls = []

    def spy(a, b, order):
        calls.append((len(a), len(b), order, a is b))
        return kronecker(a, b, order)

    kronecker = series._kronecker
    monkeypatch.setattr(series, "_kronecker", spy)
    # 70 nonzero terms with gaps at every fifth degree, times a gap-free row
    a = XiPoly({3 + d: (-1) ** d * (d + 1) for d in range(88) if d % 5})
    b = XiPoly({d: d % 11 - 5 or 7 for d in range(1, 100)})
    assert a.term_count() == 70 and b.term_count() == 99
    assert dense(a * b, 190) == poly_mul(dense(a, 91), dense(b, 100), 190)
    assert dense(a**2, 180) == poly_mul(dense(a, 91), dense(a, 91), 180)
    assert a * a == a**2
    # rows of 87 and 99 slots go in unpadded, cut at the product's length
    # 87 + 99 - 1; the square packs its one row, padded to 2 * 86 + 1 and cut
    # back to its 87 slots inside the kernel; a row times itself hands the
    # kernel the same tuple twice, so it too is packed once
    square = (173, 173, 173, True)
    assert calls == [(87, 99, 185, False), square, (87, 87, 173, True), square]


def test_xi_power_cache_is_bounded():
    xipoly._xi_power.cache_clear()
    p = XiPoly({d: 1 for d in range(40)})
    x = xi_series(30)
    assert poly_to_series(p, 30) == sum((x**d for d in range(1, 40)), Series.one(30))
    info = xipoly._xi_power.cache_info()
    assert info.currsize == info.maxsize == 32


def test_xi_powers_expand_xi_once_per_order(monkeypatch):
    # every odd degree reads the cached power of degree 1, so it stays cached
    # past the 32 powers a walk up the degrees passes
    calls = []

    def spy(order):
        calls.append(order)
        return xi_series(order)

    monkeypatch.setattr(xipoly, "xi_series", spy)
    xipoly._xi_power.cache_clear()
    order = 97
    x = xi_series(order)
    for degree in range(1, 22):
        assert poly_to_series(XiPoly({degree: 1}), order) == x**degree
    assert calls == [order]
    assert poly_to_series(XiPoly({d: 1 for d in range(22, 61)}), order) == sum(
        (x**d for d in range(22, 61)), Series.zero(order)
    )
    assert calls == [order]


def test_constant_polynomial_expands_no_xi(monkeypatch):
    # degree 0 is the series 1: no xi is expanded for it and nothing is kept
    calls = []
    monkeypatch.setattr(xipoly, "xi_series", lambda order: calls.append(order) or xi_series(order))
    xipoly._xi_power.cache_clear()
    assert poly_to_series(XiPoly({0: 3}), 1200) == Series([3] + [0] * 1199)
    assert calls == [] and xipoly._xi_power.cache_info().currsize == 0


@pytest.mark.parametrize("degree", [1200, 3000])
def test_xi_power_of_high_degree_on_a_cold_cache(degree):
    # a cold power takes one call per halving and per odd step, not one per degree
    xipoly._xi_power.cache_clear()
    order = 6
    x = expand_quotient(XI.factors, order)
    power = [1] + [0] * (order - 1)
    for _ in range(degree):
        power = poly_mul(power, x, order)
    assert list(poly_to_series(XiPoly({degree: 1}), order)) == power
    misses = xipoly._xi_power.cache_info().misses
    assert misses <= 2 * degree.bit_length()
    # on a warm cache the next odd degree is one product of two cached powers
    nxt = poly_to_series(XiPoly({degree + 1: 1}), order)
    assert list(nxt) == poly_mul(power, x, order)
    assert xipoly._xi_power.cache_info().misses == misses + 1


def test_even_xi_powers_squared_from_their_halves_match_repeated_powers(monkeypatch):
    # on a cold cache xi^12 is (xi^6)^2, xi^6 is (xi^3)^2, xi^3 is xi^2 * xi
    # and xi^2 is xi squared; each square multiplies one Series by itself
    order = 300
    x = xi_series(order)
    powers = {d: x**d for d in range(1, 13)}
    products = []
    mul = Series.__mul__

    def spy(a, b):
        product = mul(a, b)
        products.append((b is a, product))
        return product

    monkeypatch.setattr(Series, "__mul__", spy)
    monkeypatch.setattr(xipoly, "xi_series", lambda n: x)
    xipoly._xi_power.cache_clear()
    assert poly_to_series(XiPoly({12: 1}), order) == powers[12]
    assert products == [(True, powers[2]), (False, powers[3]), (True, powers[6]), (True, powers[12])]
    for degree in (1, 2, 3, 6, 12):
        assert xipoly._xi_power(order, degree) == powers[degree]
    assert xipoly._xi_power.cache_info().misses == 5
    for degree in range(2, 13, 2):
        assert xipoly._xi_power(order, degree) == powers[degree]


def test_xi_powers_are_safe_under_concurrent_access():
    # threads at different orders and degrees share and evict the 32 kept powers
    import threading

    polys = [XiPoly({d: k + 1, d + 3: -1}) for k, d in enumerate((0, 7, 20, 40, 45, 60, 90, 99))]
    orders = (2, 3, 4)
    serial = [(k, n, poly_to_series(p, n)) for k, p in enumerate(polys) for n in orders]
    results = []

    def worker(k):
        for _ in range(40):
            for n in orders:
                results.append((k, n, poly_to_series(polys[k], n)))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(polys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # every call returned, with the serial value
    assert sorted(results, key=repr) == sorted(serial * 40, key=repr)
    assert xipoly._xi_power.cache_info().currsize <= 32


def test_import_loads_no_decimal():
    # dense products load decimal on first use; importing the package must not
    env = {**os.environ, "PYTHONPATH": str(Path(pdocong.__file__).parents[1])}
    code = "import sys, pdocong; print('decimal' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout.strip()) == (0, "False")


def test_star_import_binds_public_names_only():
    namespace = {}
    exec("from pdocong import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert names == set(pdocong.__all__)
    assert all(getattr(pdocong, name) is namespace[name] for name in names)
    assert not [name for name in names if isinstance(namespace[name], type(pdocong))]
    assert {"XiPoly", "phi_poly", "zeta", "FAMILIES", "Series"} <= names
    assert not names & {"SigmaPair", "sigma_pair", "xipoly", "cli"}


@given(poly_terms)
def test_poly_to_series_is_ring_homomorphism(a):
    p = XiPoly(a)
    order = 20
    xi = xi_series(order)
    direct = Series.zero(order)
    for deg, c in p.terms():
        direct = direct + xi**deg * c
    assert poly_to_series(p, order) == direct


def test_gamma6_is_a_sigma_power():
    # gamma^6 = xi^5 sigma_{xi,2}^5 = xi^10 (9 - 8 xi)^5
    assert gamma6_poly() == xipoly._sigma_power(10, 5)


@pytest.mark.parametrize("k", range(3, 10))
def test_gamma6_powers_in_closed_form(k):
    # phi_poly_direct(k) forms (gamma^6)^(2^(k-3)) as _sigma_power(10 e, 5 e)
    e = 2 ** (k - 3)
    assert gamma6_poly() ** e == xipoly._sigma_power(10 * e, 5 * e)
