import math

import pytest

from pdocong import (
    DELTA,
    GAMMA,
    KAPPA,
    XI,
    EtaQuotientSpec,
    Series,
    delta_series,
    euler_series,
    expand,
    gamma_series,
    kappa_series,
    pdo_bruteforce,
    pdo_series,
    xi_series,
)
from pdocong.etaq import phi_minus_series, psi_series
from pdocong.xipoly import poly_to_series, zeta_initial

from naive_series import eta_factor, expand_quotient, pdo_count


def test_euler_series_low_order():
    # oracle: multiply the binomials out directly
    assert list(euler_series(8)) == eta_factor(1, 8)
    assert euler_series(8) == Series([1, -1, -1, 0, 0, 1, 0, 1])


def test_euler_constant_term():
    assert euler_series(1).coeff(0) == 1


def test_euler_times_inverse():
    e = euler_series(50)
    assert e * e.invert() == Series.one(50)


def test_euler_supported_on_pentagonal_numbers():
    e = euler_series(1000)
    pentagonal = {k * (3 * k - 1) // 2 for k in range(-30, 31)}
    for n, c in enumerate(e):
        assert (c != 0) == (n in pentagonal)
        assert c in (-1, 0, 1)


def test_expand_delta_matches_oracle():
    # PDO(3) = 4, not the Fibonacci-looking 3; see the enumeration oracle
    assert list(delta_series(12)) == expand_quotient(DELTA.factors, 12)
    assert delta_series(5) == Series([1, 1, 2, 4, 5])


def test_expand_empty_spec_is_one():
    assert expand(EtaQuotientSpec(()), 6) == Series.one(6)


def test_expand_xi_matches_oracle():
    assert list(xi_series(12)) == expand_quotient(XI.factors, 12)
    assert xi_series(5) == Series([1, 1, -3, 3, 5])


def test_expand_all_named_specs_match_oracle():
    for spec in (DELTA, GAMMA, XI, KAPPA):
        assert list(expand(spec, 30)) == expand_quotient(spec.factors, 30)


def test_expand_rejects_bad_order():
    with pytest.raises(ValueError):
        expand(DELTA, 0)


@pytest.mark.parametrize("order", [0, -1, -40])
def test_delta_series_rejects_bad_order(order):
    with pytest.raises(ValueError, match=f"order must be >= 1, got {order}"):
        delta_series(order)


def test_delta_theta_route_matches_expand_at_every_small_order():
    # the theta quotient and the generic eta quotient are independent routes
    for order in range(1, 401):
        assert delta_series(order) == expand(DELTA, order), order


def test_delta_theta_route_matches_expand_at_8000():
    assert delta_series(8000) == expand(DELTA, 8000)


@pytest.mark.parametrize("m", [1, 2, 3, 12])
def test_theta_series_match_their_eta_quotients(m):
    order = 500
    psi_spec = EtaQuotientSpec(((2 * m, 2), (m, -1)))
    phi_spec = EtaQuotientSpec(((m, 2), (2 * m, -1)))
    psi, phi = psi_series(order, m), phi_minus_series(order, m)
    assert psi == expand(psi_spec, order)
    assert phi == expand(phi_spec, order)
    assert list(psi) == expand_quotient(psi_spec.factors, order)
    assert list(phi) == expand_quotient(phi_spec.factors, order)


def test_expand_is_multiplicative():
    left = EtaQuotientSpec(((4, 1), (6, 2)))
    right = EtaQuotientSpec(((1, -1), (3, -1), (12, -1)))
    combined = EtaQuotientSpec(left.factors + right.factors)
    assert expand(combined, 60) == expand(left, 60) * expand(right, 60)
    assert combined == DELTA


def test_constant_terms_are_one():
    for series in (delta_series(4), gamma_series(4), xi_series(4), kappa_series(4)):
        assert series.coeff(0) == 1


def test_kappa_psi_route_matches_expand_at_every_small_order():
    # the psi quotient to the fifth power and the generic eta quotient are independent routes
    for order in range(1, 301):
        assert kappa_series(order) == expand(KAPPA, order), order


@pytest.mark.parametrize("order", [1200, 2400])
def test_kappa_psi_route_matches_expand_at_large_orders(order):
    assert kappa_series(order) == expand(KAPPA, order)


def test_kappa_matches_its_eta_quotient_form():
    # a third route: kappa(q) = gamma(q^2)^2 / gamma(q), a division by dense gamma
    for order in (1, 2, 80, 1200):
        g = gamma_series(order)
        g2 = g.dilate(2)
        assert kappa_series(order) == (g2 * g2).div(g)


def test_expansions_divide_only_by_sparse_factors(monkeypatch):
    divisors = []
    div = Series.div

    def spy(self, other):
        divisors.append((sum(1 for c in other.coeffs if c), other.order))
        return div(self, other)

    monkeypatch.setattr(Series, "div", spy)
    expand.cache_clear()
    kappa_series(1200)
    pdo_series(8000)
    expand(XI, 1200)
    assert {order for _, order in divisors} == {1200, 8000}
    for terms, order in divisors:
        assert terms <= 2 * math.isqrt(order) + 1


def test_kappa_unitizations_match_polynomials():
    initial = zeta_initial()
    k = kappa_series(300)
    assert k.u2() == poly_to_series(initial[(1, 0)], 150)
    assert (k * k).u2() == poly_to_series(initial[(2, 0)], 150)


def test_pdo_series_values():
    table = pdo_series(10)
    assert table[0] == 1
    assert table[2] == 2
    assert table[4] == 5
    assert table.max_n == 9
    assert len(table) == 10


def test_pdo_bruteforce_examples():
    assert pdo_bruteforce(0) == 1
    assert pdo_bruteforce(1) == 1
    assert pdo_bruteforce(3) == 4
    assert pdo_bruteforce(4) == 5


def test_pdo_bruteforce_matches_enumeration_oracle():
    for n in range(20):
        assert pdo_bruteforce(n) == pdo_count(n)


def test_pdo_bruteforce_range_errors():
    with pytest.raises(ValueError):
        pdo_bruteforce(61)
    with pytest.raises(ValueError):
        pdo_bruteforce(-1)
    # the bound is a guard, not a hard limit
    assert pdo_bruteforce(61, bound=61) == pdo_series(62)[61]


def test_pdo_series_agrees_with_bruteforce():
    table = pdo_series(41)
    for n in range(41):
        assert table[n] == pdo_bruteforce(n)


def test_pdo_even_slice_is_delta_squared():
    d = delta_series(200)
    table = pdo_series(200)
    square = d * d
    for n in range(100):
        assert table[2 * n] == square.coeff(n)


def test_expansion_caches_are_bounded():
    expand.cache_clear()
    for order in range(100, 1300, 100):
        expand(XI, order)
    kappa_series(40)
    kappa_series(50)
    info = expand.cache_info()
    assert info.maxsize == 4 and info.currsize == 4
    # expand is the only memo: E(q) and kappa are rebuilt on every call
    assert not hasattr(euler_series, "cache_info")
    assert not hasattr(kappa_series, "cache_info")


def test_spec_text_round_trip():
    for spec in (DELTA, GAMMA, XI, KAPPA):
        assert EtaQuotientSpec.parse(spec.spec_text()) == spec
    assert EtaQuotientSpec.parse("4^1;6^2;1^-1;3^-1;12^-1") == DELTA


def test_spec_canonical_ordering():
    spec = EtaQuotientSpec(((12, -1), (1, -1), (4, 1), (6, 2), (3, -1)))
    assert spec == DELTA
    assert spec.spec_text() == "1^-1;3^-1;4^1;6^2;12^-1"


def test_spec_validation():
    with pytest.raises(ValueError):
        EtaQuotientSpec(((2, 1), (2, 3)))  # duplicate dilation
    with pytest.raises(ValueError):
        EtaQuotientSpec(((0, 1),))  # nonpositive dilation
    with pytest.raises(ValueError):
        EtaQuotientSpec(((2, 0),))  # zero exponent
    with pytest.raises(ValueError):
        EtaQuotientSpec.parse("4^1;oops")
