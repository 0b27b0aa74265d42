import decimal
import sys
import threading
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from pdocong import DELTA, XI, NonUnitError, Series, series
from pdocong.etaq import delta_series, euler_series, expand, kappa_series, pdo_series, xi_series
from pdocong.series import KRONECKER_MIN_TERMS, KRONECKER_SPARSITY, _BLOCK, _kronecker, _slot_bounds

from naive_series import partition_count, poly_mul, series_div

coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=24)
unit_lists = st.tuples(st.sampled_from([1, -1]), st.lists(st.integers(-9, 9), max_size=20)).map(
    lambda t: [t[0]] + t[1]
)


def divisors(tail):
    """Unit-constant divisors whose other coefficients come from ``tail``."""
    return st.tuples(st.sampled_from([1, -1]), tail).map(lambda t: [t[0]] + t[1])


# every nonzero value repeats, so Series.div forms groups
two_value_divisors = divisors(st.lists(st.sampled_from([0, 0, 2, -2]), max_size=30))
# no nonzero value repeats, so every group holds one offset
distinct_divisors = divisors(
    st.lists(st.integers(-40, 40), max_size=30, unique=True).map(lambda xs: [x for x in xs if x])
)
# mostly a few repeated values, with occasional one-off ones
mixed_divisors = divisors(
    st.lists(st.one_of(st.sampled_from([0, 0, 1, -1, 3]), st.integers(-1000, 1000)), max_size=30)
)
# sparse operands: mostly zeros, as in theta and eta factors
sparse_lists = st.lists(st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-5, 5)), max_size=40)
# dense operands of lengths around the order where products switch to the kernel
dense_lengths = st.integers(KRONECKER_MIN_TERMS - 2, KRONECKER_MIN_TERMS + 2)


def dense_lists(coeffs):
    return dense_lengths.flatmap(lambda n: st.lists(coeffs, min_size=n, max_size=n))


# lengths around the kernel's block of _BLOCK indices and two of them
block_lengths = st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1])
signs = st.sampled_from([1, -1])


@st.composite
def growth_shaped(draw):
    """Signed coefficients with |c_i| about 2^(3 sqrt(i)), the growth of kappa,
    xi and the PDO slices, so the largest ones sit at the top."""
    return [draw(signs) * draw(st.integers(1 << isqrt(9 * i) >> 1, 1 << isqrt(9 * i)))
            for i in range(draw(block_lengths))]


@st.composite
def block_maxima(draw):
    """Each block filled with one sign's largest value of its bit length, so
    every product term meets its slot bound; the top coefficient may be negative."""
    sign, bits = draw(signs), draw(st.lists(st.integers(0, 300), min_size=3, max_size=3))
    return [sign * ((1 << bits[i // _BLOCK]) - 1) for i in range(draw(block_lengths))]


kernel_operands = st.one_of(
    dense_lists(st.integers(-(2**600), 2**600)),
    dense_lists(st.sampled_from([1, -1])),
    st.tuples(st.sampled_from([0, 1, -1]), dense_lengths).map(lambda t: [t[0]] * t[1]),
    growth_shaped(),
    growth_shaped().map(lambda c: c[:-1] + [-abs(c[-1])]),
    block_maxima(),
)


def test_add_cancellation():
    assert Series([1, 1]) + Series([1, -1]) == Series([2, 0])


def test_add_zero_truncates_to_min_order():
    s = Series([3, 1, 4, 1])
    assert Series.zero(2) + s == Series([3, 1])


def test_add_inverse_gives_zero():
    e = euler_series(10)
    assert e + (-e) == Series.zero(10)


def test_mul_binomials():
    assert Series([1, 1, 0]) * Series([1, -1, 0]) == Series([1, 0, -1])


def test_mul_euler_inverse_pair():
    e = euler_series(50)
    assert e * e.invert() == Series.one(50)


def test_mul_truncates_to_min_order():
    assert (Series([1, 2, 3]) * Series([1, 1])).order == 2


def test_mul_scalar():
    assert Series([1, -2, 3]) * 2 == Series([2, -4, 6])
    assert 0 * Series([1, 1]) == Series.zero(2)


def test_zero_order_series_absorbs():
    empty = Series(())
    assert (empty * Series([1, 2, 3])).order == 0
    assert empty == Series.zero(0)


def test_invert_geometric():
    assert Series([1, -1, 0, 0, 0]).invert() == Series([1, 1, 1, 1, 1])


def test_invert_one():
    assert Series.one(7).invert() == Series.one(7)


def test_invert_euler_gives_partition_numbers():
    # expected values computed by the enumeration oracle
    expected = [partition_count(n) for n in range(6)]
    assert expected == [1, 1, 2, 3, 5, 7]
    assert euler_series(6).invert() == Series(expected)


def test_invert_rejects_non_unit():
    with pytest.raises(NonUnitError):
        Series([2, 1]).invert()
    with pytest.raises(NonUnitError):
        Series([0, 1]).invert()
    with pytest.raises(NonUnitError):
        Series(()).invert()


def test_div_matches_mul_by_invert():
    a = euler_series(40).dilate(2)
    b = Series([1, -3, 5, 7] * 10)
    assert a.div(b) == a * b.invert()


def check_div_against_naive(num, den):
    order = min(len(num), len(den))
    assert list(Series(num).div(Series(den))) == series_div(num, den, order)


@given(coeff_lists, two_value_divisors)
def test_div_matches_naive_with_grouped_values(num, den):
    check_div_against_naive(num, den)


@given(coeff_lists, distinct_divisors)
def test_div_matches_naive_with_distinct_values(num, den):
    check_div_against_naive(num, den)


@given(coeff_lists, mixed_divisors)
def test_div_matches_naive_with_mixed_values(num, den):
    check_div_against_naive(num, den)


@given(coeff_lists, st.one_of(two_value_divisors, distinct_divisors, mixed_divisors))
def test_divide_reads_a_one_shot_iterator_once_in_order(num, den):
    # a generator gives Series.div's quotient, and the terms past the order
    # are left unread in it
    order = min(len(num), len(den))
    terms = (c for c in num)
    assert series._divide(terms, tuple(den), order) == list(Series(num).div(Series(den)))
    assert list(terms) == num[order:]


@given(st.one_of(two_value_divisors, distinct_divisors, mixed_divisors), coeff_lists)
def test_div_undoes_mul(den, coeffs):
    a, b = Series(coeffs), Series(den)
    order = min(a.order, b.order)
    assert (a * b).div(b) == a.truncate(order)


@given(sparse_lists, sparse_lists)
def test_mul_matches_naive_product_on_sparse_operands(a, b):
    order = min(len(a), len(b))
    assert list(Series(a) * Series(b)) == poly_mul(a, b, order)


@settings(max_examples=120, deadline=None)
@given(kernel_operands, kernel_operands)
def test_kronecker_matches_naive_product(a, b):
    order = min(len(a), len(b))
    want = poly_mul(a, b, order)
    assert _kronecker(tuple(a[:order]), tuple(b[:order]), order) == want
    assert list(Series(a) * Series(b)) == want
    square = tuple(a)
    assert _kronecker(square, square, len(a)) == poly_mul(a, a, len(a))


@settings(max_examples=120, deadline=None)
@given(kernel_operands, kernel_operands, st.integers(0, 8), st.integers(1, 300))
def test_kronecker_takes_unequal_lengths_and_any_order(a, b, zeros, order):
    # operands of different lengths, one with trailing zeros, cut at any order
    # up to past the full product length
    a = a + [0] * zeros
    want = poly_mul(a + [0] * order, b + [0] * order, order)
    assert _kronecker(tuple(a), tuple(b), order) == want
    assert _kronecker(tuple(b), tuple(a), order) == want
    square = tuple(a)
    assert _kronecker(square, square, order) == poly_mul(a + [0] * order, a + [0] * order, order)


@settings(max_examples=120, deadline=None)
@given(kernel_operands, kernel_operands, st.integers(1, 300))
def test_block_bounds_hold_twice_every_coefficient_read(a, b, order):
    # the slot bound of _kronecker's docstring, block by block, on operands
    # whose top coefficient is nonzero, as the kernel's cut leaves them; past
    # the blocks it bounds, the product is zero
    a, b = a + [1], b + [-1]
    product = poly_mul(a + [0] * order, b + [0] * order, order)
    bounds = _slot_bounds(tuple(a), tuple(b), order)
    reached = product[: _BLOCK * len(bounds)]
    assert all(2 * abs(c) < 2 ** bounds[k // _BLOCK] for k, c in enumerate(reached))
    assert not any(product[_BLOCK * len(bounds) :])
    assert 2 * max(map(abs, product)) < 2 ** max(bounds)


def test_slots_follow_the_coefficients_of_growing_operands():
    # kappa^3 xi^3 at order 1200: 619 bits sized by max |a| max |b| length,
    # 449 bits from the block maxima
    order = 1200
    a, b = (kappa_series(order) ** 3).coeffs, (xi_series(order) ** 3).coeffs
    flat = (4 * max(map(abs, a)) * max(map(abs, b)) * order).bit_length()
    assert max(_slot_bounds(a, b, order)) <= 0.8 * flat


def test_products_switch_to_the_kernel_at_the_threshold(monkeypatch):
    calls = []

    def spy(a, b, order):
        calls.append((len(a), sum(1 for c in a if c)))
        return _kronecker(a, b, order)

    monkeypatch.setattr(series, "_kronecker", spy)
    dense = [(-1) ** n * (n + 1) for n in range(KRONECKER_MIN_TERMS)]
    for a in (dense[:-1], dense):
        assert list(Series(a) * Series(a[::-1])) == poly_mul(a, a[::-1], len(a))
    # at order 1000 a sparse operand needs isqrt(10 * 1000) = 100 terms
    order = 1000
    assert KRONECKER_SPARSITY * order == 100**2
    for terms in (99, 100):
        sparse = [3 if n % 10 == 0 and n < 10 * terms else 0 for n in range(order)]
        wide = [n % 7 - 3 for n in range(order)]
        assert list(Series(sparse) * Series(wide)) == poly_mul(sparse, wide, order)
    assert calls == [(KRONECKER_MIN_TERMS, KRONECKER_MIN_TERMS), (order, 100)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str conversion limit")
def test_products_of_huge_coefficients_fall_back_to_the_walk():
    # slots need about 12000 digits, past the default int/str conversion limit
    order = KRONECKER_MIN_TERMS
    a = [(-1) ** n * (2**20000 - n) for n in range(order)]
    b = [2**20000 + 7 * n for n in range(order)]
    want = poly_mul(a, b, order)
    assert list(Series(a) * Series(b)) == want
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _kronecker(tuple(a), tuple(b), order) == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_sparse_products_stay_on_the_walk(monkeypatch):
    def refuse(a, b, order):
        raise AssertionError(f"sparse product sent to the kernel at order {order}")

    monkeypatch.setattr(series, "_kronecker", refuse)
    assert pdo_series(8000)[8] == 22
    assert expand(XI, 1200).order == 1200
    assert expand(DELTA, 400) == delta_series(400)


def test_dense_products_are_thread_safe():
    xi, kappa = xi_series(600), kappa_series(600)
    pairs = [(xi, xi), (kappa, xi), (kappa, kappa), (xi * xi, kappa), (kappa * kappa, xi * xi)]
    serial = [a * b for a, b in pairs]
    results = {}
    untouched = {}

    def worker(k):
        # a context that would raise on the first digit rounded, if it were used
        hostile = decimal.Context(prec=1, Emax=1, Emin=-1, traps=[decimal.Inexact, decimal.Rounded])
        decimal.setcontext(hostile)
        for n in range(len(pairs)):
            m = (n + k) % len(pairs)
            results[k, m] = pairs[m][0] * pairs[m][1]
        untouched[k] = decimal.getcontext() is hostile and not any(hostile.flags.values())

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
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
    assert results == {(k, m): serial[m] for k in range(4) for m in range(len(pairs))}
    assert untouched == {k: True for k in range(4)}


def test_pow_square():
    assert Series([1, 1, 0]) ** 2 == Series([1, 2, 1])


def test_pow_identity_exponent():
    s = Series([4, 0, -1, 2])
    assert s**1 == s


def test_pow_zero_exponent():
    assert Series([5, 1, 1]) ** 0 == Series.one(3)


def test_pow_negative_exponent():
    s = Series([1, 2, 3, 4, 5])
    assert s**-2 == (s * s).invert()


def test_dilate_basic():
    assert Series([1, 1]).dilate(2) == Series([1, 0])
    assert Series([1, 1, 2, 3]).dilate(2) == Series([1, 0, 1, 0])


def test_dilate_identity():
    s = Series([1, 2, 3])
    assert s.dilate(1) == s


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        Series([1]).dilate(0)


def test_u2_definition():
    assert Series([1, 2, 3, 4]).u2() == Series([1, 3])
    assert Series([1, 2, 3, 4, 5]).u2() == Series([1, 3, 5])


def test_alternate_basic():
    assert Series([1, 1, 1]).alternate() == Series([1, -1, 1])


def test_coeff_access_is_strict():
    s = Series([1, 2])
    assert s.coeff(1) == 2 and s[0] == 1
    with pytest.raises(IndexError):
        s.coeff(2)


@given(coeff_lists, coeff_lists)
def test_mul_commutative(a, b):
    assert Series(a) * Series(b) == Series(b) * Series(a)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_associative_to_shared_order(a, b, c):
    sa, sb, sc = Series(a), Series(b), Series(c)
    assert (sa * sb) * sc == sa * (sb * sc)


@given(unit_lists)
def test_invert_is_two_sided(coeffs):
    s = Series(coeffs)
    order = s.order
    assert s * s.invert() == Series.one(order)
    assert s.invert() * s == Series.one(order)


@given(coeff_lists)
def test_u2_after_dilate_is_identity(coeffs):
    s = Series(coeffs)
    assert s.dilate(2).u2() == s.truncate((s.order + 1) // 2)


@given(coeff_lists)
def test_even_part_identity(coeffs):
    # a(q) + a(-q) = 2 * dilate(u2(a), 2): the identity behind sigma_1 = 2 U(a)
    s = Series(coeffs)
    half = (s.order + 1) // 2
    assert (s + s.alternate()).truncate(half) == s.u2().dilate(2) * 2


@given(coeff_lists)
def test_alternate_is_involution(coeffs):
    s = Series(coeffs)
    assert s.alternate().alternate() == s


def test_pipeline_is_deterministic():
    def pipeline():
        e = euler_series(80)
        return ((e.dilate(3) * e) ** 2).div(e.alternate()).u2().coeffs

    assert pipeline() == pipeline()
