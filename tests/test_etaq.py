import math
from functools import lru_cache

import pytest

from pdocong import (
    DELTA,
    GAMMA,
    KAPPA,
    XI,
    EtaQuotientSpec,
    Series,
    cli,
    delta_series,
    etaq,
    euler_series,
    expand,
    gamma_series,
    kappa_series,
    pdo_bruteforce,
    pdo_series,
    series,
    xi_series,
)
from pdocong.etaq import (
    _OVERPARTITION_GROWTH,
    _PARTITION_GROWTH,
    _UNPACK_CHUNK,
    _lane_quotient,
    _lane_width,
    _log2_decayed,
    _pack,
    _unpack,
    phi_minus_series,
    psi_series,
)
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


def test_expand_runs_its_passes_in_the_order_of_the_pass_plan(monkeypatch):
    # products by ascending m, then divisions by descending m: each factor's
    # dilation of E(q), then its |e| passes; cli._expand_price prices the
    # same plan
    spec = EtaQuotientSpec.parse("2^3;1^-2;4^1;3^-1")
    assert list(etaq._passes(spec)) == [(2, 3), (4, 1), (3, -1), (1, -2)]
    planned = []
    monkeypatch.setattr(cli, "_passes", lambda spec: planned.append(spec) or etaq._passes(spec))
    cli._expand_price(spec, 30)
    assert planned == [spec]
    ran = []
    dilate, mul, div = Series.dilate, Series.__mul__, Series.div
    monkeypatch.setattr(Series, "dilate", lambda self, m: ran.append(m) or dilate(self, m))
    monkeypatch.setattr(Series, "__mul__", lambda self, other: ran.append("*") or mul(self, other))
    monkeypatch.setattr(Series, "div", lambda self, other: ran.append("/") or div(self, other))
    got = list(expand(spec, 30))
    assert ran == [step for m, e in etaq._passes(spec) for step in [m] + ["*" if e > 0 else "/"] * abs(e)]
    assert got == expand_quotient(spec.factors, 30)


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


LANE_LENGTHS = [1, 2, 11, 13, 25]
# around _unpack's chunk boundary for d = 2 and 12: one value short of a full
# chunk, a full chunk, one value into the next, and two chunks plus a partial step
CHUNK_LENGTHS = [
    _UNPACK_CHUNK * d + e for d in (2, 12) for e in (-1, 0, 1, _UNPACK_CHUNK * d + d // 2)
]


@pytest.mark.parametrize("d", [2, 12])
@pytest.mark.parametrize("length", LANE_LENGTHS + CHUNK_LENGTHS)
def test_pack_round_trips_every_lane_at_zero_and_at_its_top(d, length):
    width = 9
    top = 2**width - 1
    distinct = [(37 * n + 5) % 2**width for n in range(length)]
    for values in ([0] * length, [top] * length, [n % 2 * top for n in range(length)], distinct):
        packed = _pack(values, d, width)
        assert len(packed) == -(-length // d)
        for n, v in enumerate(values):
            assert (packed[n // d] >> (n % d * width)) & top == v
        assert _unpack(packed, d, width) == values + [0] * (-length % d)
        assert packed == []  # unpacking releases the packed steps


def _lane_passes(order):
    """(numerator, d, divisor of order n, growth) for delta's two passes; u by the plain route."""
    theta = (psi_series(order) * psi_series(order, 3)).coeffs
    u = Series(theta).div(euler_series(order).dilate(12)).coeffs
    return (
        (theta, 12, euler_series, _PARTITION_GROWTH),
        (u, 2, phi_minus_series, _OVERPARTITION_GROWTH),
    )


def _plain_width(values, d, growth):
    """The width from the numerator's plain sum instead of its lanes' weighted sums."""
    last = len(_pack(values, d, 1)) - 1  # the last step, padded lanes and all
    return sum(values).bit_length() + math.ceil(growth * math.sqrt(last) / math.log(2)) + 2


# delta's two passes, 12 lanes then 2; the plain-sum widths at 32000 are [209, 768]
PINNED_WIDTHS = {
    1: [3, 3],
    2: [4, 4],
    11: [6, 15],
    13: [7, 16],
    25: [10, 20],
    1201: [45, 123],
    8000: [104, 309],
    32000: [201, 612],
}


@pytest.mark.parametrize("order", LANE_LENGTHS + [1201, 8000, 32000])
def test_lane_widths_cover_the_last_packed_step(order):
    # V_r(e^-t) <= V_r(1), so the weighted width is never wider than the plain
    # one, and with a single step (no t) it is the plain one
    widths = []
    for values, d, _, growth in _lane_passes(order):
        width = _lane_width(values, d, growth)
        plain = _plain_width(values, d, growth)
        assert width <= plain
        if len(values) <= d:
            assert width == plain
        widths.append(width)
    assert widths == PINNED_WIDTHS[order]


def _log2_weighted_lanes(values, d, t):
    """log2 max_r V_r(e^-t) with one term per entry, no blocks."""
    best = 0.0
    for r in range(d):
        logs = [math.log2(v) - m * t / math.log(2) for m, v in enumerate(values[r::d]) if v]
        if logs:
            top = max(logs)
            best = max(best, top + math.log2(sum(2 ** (x - top) for x in logs)))
    return best


@pytest.mark.parametrize("order", [25, 1201, 8000])
def test_lane_width_block_sums_bound_the_weighted_lanes(order):
    # each block's sum is weighted at its first step, the largest weight in
    # it, so the blocked bound is at least the entry-by-entry one
    for values, d, _, growth in _lane_passes(order):
        last = len(_pack(values, d, 1)) - 1
        t = growth / (2 * math.sqrt(last))
        numerator = _lane_width(values, d, growth) - math.ceil(growth * math.sqrt(last) / math.log(2)) - 2
        assert numerator >= math.ceil(_log2_weighted_lanes(values, d, t) - 1e-9)


def test_log2_decayed_weights_each_block():
    assert _log2_decayed([8, 0, 4], 1.0) == math.log2(9)
    assert _log2_decayed([2**2000, 2**2000], 1000.0) == 2000 + math.log2(1 + 2**-1000)
    assert _log2_decayed([0, 0], 1.0) == 0.0


@lru_cache(maxsize=1)
def _reciprocals():
    """(p(0..2666), c) and (pbar(0..15999), c): 1/E(q) and 1/phi(-q) with their growth."""
    p = Series.one(2667).div(euler_series(2667))
    pbar = Series.one(16000).div(phi_minus_series(16000))
    return (p, _PARTITION_GROWTH), (pbar, _OVERPARTITION_GROWTH)


def test_partition_growth_bounds_hold():
    # log p(m) <= pi sqrt(2m/3) and log pbar(m) <= pi sqrt(m), the width bound at V_r = 1
    for coeffs, growth in _reciprocals():
        assert all(c >= 1 for c in coeffs)
        assert all(a <= b for a, b in zip(coeffs, coeffs.coeffs[1:]))
        assert all(math.log(c) <= growth * math.sqrt(m) + 1e-9 for m, c in enumerate(coeffs))


@pytest.mark.parametrize("t", [0.025, 0.05, 0.2, 1.0, 3.0])
def test_reciprocal_generating_functions_obey_the_width_bound(t):
    # log R(e^-t) <= c^2 / (4t) for R = 1/E(q) and 1/phi(-q), the bound behind
    # the widths, on prefixes that hold each sum's peak near k = (c / 2t)^2
    for coeffs, growth in _reciprocals():
        logs = [math.log(c) - k * t for k, c in enumerate(coeffs)]
        top = max(logs)
        assert top + math.log(sum(math.exp(x - top) for x in logs)) <= growth**2 / (4 * t)


@pytest.mark.parametrize("order", LANE_LENGTHS + [1201, 8000, 31999, 32000])
def test_lane_widths_bound_every_lane_of_both_passes(order):
    # each pass against the plain dilated division of the zero-padded numerator
    for values, d, divisor, growth in _lane_passes(order):
        width = _lane_width(values, d, growth)
        padded = list(values) + [0] * (-order % d)
        true = Series(padded).div(divisor(len(padded)).dilate(d)).coeffs
        assert all(0 <= c < 2**width for c in true)
        packed = list(Series(_pack(values, d, width)).div(divisor(len(padded) // d)).coeffs)
        assert _unpack(packed, d, width) == list(true)


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
    # Series.div and the PDO lane passes both divide with series._divide
    divisors = []
    divide = series._divide

    def spy(num, divisor, order):
        divisors.append(tuple(divisor))
        return divide(num, divisor, order)

    monkeypatch.setattr(series, "_divide", spy)
    monkeypatch.setattr(etaq, "_divide", spy)
    kappa_series(1200)
    pdo_series(8000)
    expand(XI, 1200)
    # pdo_series(8000) divides by E(q) to ceil(8000/12) and by phi(-q) to 8000/2 terms
    assert {len(d) for d in divisors} == {1200, 667, 4000}
    for d in divisors:
        assert len(d) - d.count(0) <= 2 * math.isqrt(len(d)) + 1
    # xi and gamma's fifth root divide by psi(q^3), phi(-q^3) and E(q^3) alone
    divisors.clear()
    xi_series(1200)
    gamma_series(1200)
    thetas = (psi_series(1200, 3), phi_minus_series(1200, 3), euler_series(1200).dilate(3))
    assert set(divisors) == {t.coeffs for t in thetas}


def test_lane_passes_match_expand_at_every_last_chunk_length(monkeypatch):
    # with chunks of 3 steps, each pass's last chunk is full, short or one step long
    monkeypatch.setattr(etaq, "_UNPACK_CHUNK", 3)
    orders = range(1, 121)
    for d in (12, 2):
        assert {-(-n // d) % 3 for n in orders} == {0, 1, 2}
    for n in orders:
        assert pdo_series(n).values == expand(DELTA, n).coeffs, n


def test_lane_pass_takes_its_numerator_off_as_the_division_reads_it(monkeypatch):
    # chunks of 4 steps of 12 lanes: each is taken off values when the division
    # reads its first step, so values shrinks by 48 every fourth step
    monkeypatch.setattr(etaq, "_UNPACK_CHUNK", 4)
    order = 200
    values = list((psi_series(order) * psi_series(order, 3)).coeffs)
    want = list(Series(values).div(euler_series(order).dilate(12)))
    lengths = []
    divide = etaq._divide

    def spy(num, divisor, steps):
        def reading():
            for step in num:
                lengths.append(len(values))
                yield step

        return divide(reading(), divisor, steps)

    monkeypatch.setattr(etaq, "_divide", spy)
    assert _lane_quotient(values, 12, euler_series, _PARTITION_GROWTH) == want
    assert values == []
    assert lengths == [max(0, order - 48 * (s // 4 + 1)) for s in range(-(-order // 12))]


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


def test_etaq_series_functions_keep_no_memo():
    # every expansion is rebuilt on every call: equal, but a new object
    functions = (
        expand, euler_series, psi_series, phi_minus_series, delta_series,
        gamma_series, xi_series, kappa_series, pdo_series,
    )
    for function in functions:
        assert not hasattr(function, "cache_info"), function.__name__
    assert expand(XI, 40) == expand(XI, 40) and expand(XI, 40) is not expand(XI, 40)


@pytest.mark.parametrize("order", [1, 2, 3, 600, 1201])
def test_gamma_fifth_root_route_matches_expand(order):
    # gamma as the fifth power of phi(-q) psi(q) / (E(q^3) phi(-q^3)) against
    # the generic route's 30 eta passes
    assert gamma_series(order) == expand(GAMMA, order)


@pytest.mark.parametrize("order", [1, 2, 3, 600, 1201])
def test_xi_theta_route_matches_expand(order):
    # xi as psi(q)^3 phi(-q) / (psi(q^3) phi(-q^3)^3) against the generic
    # route's 12 eta passes
    assert xi_series(order) == expand(XI, order)


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
