"""The streaming unitize and its doubling ladder against the memoized sparse
builder in zeta_oracle."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from pdocong import XiPoly, d_min, lambda_poly, nu2, phi_poly, series, xipoly, zeta, zeta_initial
from pdocong.xipoly import ONE, ZERO, unitize
from zeta_oracle import SparseZeta

GRID = [(i, j) for i in range(12) for j in range(12)]
GRID += [(i, j) for i in (64, 128, 256) for j in range(12)]


@pytest.fixture(scope="module")
def oracle():
    return SparseZeta()


def test_zeta_matches_sparse_builder(oracle):
    for i, j in GRID:
        assert zeta(i, j) == oracle(i, j), (i, j)


@pytest.mark.parametrize("k", range(2, 10))
def test_lambda_tower_matches_sparse_sums(oracle, k):
    assert lambda_poly(k) == oracle.lambda_poly(k)


@pytest.mark.parametrize("k", range(3, 9))
def test_phi_tower_matches_sparse_sums(oracle, k):
    assert phi_poly(k) == oracle.phi_poly(k)


def test_unitize_zero_is_zero():
    for i in (0, 1, 5, 64):
        assert unitize(ZERO, i) == ZERO


def test_unitize_constant_is_scaled_column(oracle):
    for i in (0, 1, 2, 7, 64):
        assert unitize(XiPoly({0: -7}), i) == -7 * oracle(i, 0)


def test_unitize_low_rows_come_from_initial_table():
    # i = 0 and i = 1 take no kappa step: the columns are the initial values
    initial = zeta_initial()
    xi = XiPoly.monomial(1)
    for i in (0, 1):
        assert unitize(ONE, i) == initial[i, 0]
        assert unitize(xi, i) == initial[i, 1]
    assert unitize(XiPoly.monomial(2), 0) == initial[0, 2]
    assert unitize(XiPoly({0: 3, 1: -2}), 1) == 3 * initial[1, 0] - 2 * initial[1, 1]


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(0, 10), st.integers(-50, 50), max_size=6), st.integers(0, 6))
def test_unitize_matches_sparse_sum(oracle, terms, i):
    p = XiPoly(terms)
    assert unitize(p, i) == oracle.unitize(p, i)


# +-2^e u with u odd, or +-2^e alone, as the tower's coefficients are: unitize
# shifts u left by the row's weight e_j = e - j + const above the live band's
# base, so exponents up to 600 put the rows of one p in bands far apart,
# above and below each other
two_adic = st.builds(
    lambda sign, e, u: sign * (u << e),
    st.sampled_from((1, -1)),
    st.integers(0, 600),
    st.one_of(st.just(1), st.integers(0, 2**80).map(lambda u: 2 * u + 1)),
)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(0, 40), two_adic, min_size=1, max_size=6), st.sampled_from((0, 1, 3, 64)))
def test_unitize_matches_sparse_sum_on_two_adic_coefficients(oracle, terms, i):
    p = XiPoly(terms)
    assert unitize(p, i) == oracle.unitize(p, i)


@st.composite
def floored_terms(draw):
    """(terms, i): coefficients +-2^e 3^t u with u prime to 6, each either on
    the towers' floor, t >= 5i - 2j, or off it, t < 5i - 2j."""
    i = draw(st.sampled_from((0, 1, 3, 6, 64)))
    terms = {}
    for j in draw(st.sets(st.integers(0, 40), min_size=1, max_size=6)):
        floor3 = max(5 * i - 2 * j, 0)
        if floor3 and not draw(st.booleans()):
            t = draw(st.integers(0, floor3 - 1))
        else:
            t = floor3 + draw(st.integers(0, 3))
        u = 6 * draw(st.integers(0, 2**60)) + draw(st.sampled_from((1, 5)))
        terms[j] = draw(st.sampled_from((1, -1))) * (3**t * u << draw(st.integers(0, 300)))
    return terms, i


@settings(max_examples=60, deadline=None)
@given(floored_terms())
def test_unitize_matches_sparse_sum_on_and_off_the_three_adic_floor(oracle, case):
    terms, i = case
    p = XiPoly(terms)
    assert unitize(p, i) == oracle.unitize(p, i)


# the ladder's cells: small i and j, odd and even i around powers of two, and
# the rows at which the top phi and lambda levels start (phi_8 and lambda_10
# start at degree 427, so their walks at row 416)
PAIR_I = [*range(18), 31, 33, 127, 128, 255, 256]
PAIR_J = [*range(14), 100, 208, 213, 416, 427, 428]


@pytest.mark.parametrize("i", PAIR_I)
def test_pair_matches_sparse_builder(i):
    # a fresh oracle per i, so its memo holds one row of cells at a time
    rows = SparseZeta()
    for j in PAIR_J:
        assert xipoly._pair(i, j) == (rows(i, j), rows(i, j + 1)), (i, j)


@pytest.mark.parametrize("low", [15, 16, 17, 30, 31, 32, 33, 64])
def test_unitize_across_the_pair_stride(oracle, low):
    # p starts just below, at and just above a start row: 16, 30, 32 and 64
    # have no bit below their four leading ones
    p = XiPoly({low: 3, low + 1: -5, low + 4: 7})
    for i in (0, 1, 3, 64):
        assert unitize(p, i) == oracle.unitize(p, i), (low, i)


# p.low -> the start row j0: p.low with all but its four leading bits
# cleared, 0 below 16; the tower's lowest degrees 27, 54, 107, 214, 427 start
# at 26, 52, 104, 208, 416, each twice the one below
START_ROWS = {0: 0, 5: 0, 15: 0, 17: 16, 27: 26, 31: 30, 32: 32, 33: 32, 54: 52, 64: 64, 107: 104, 214: 208,
              427: 416, 1535: 1408}


@pytest.mark.parametrize(
    "low, size",
    [(0, 1), (5, 3), (31, 1), (32, 1), (33, 4), (64, 40), (427, 6), (15, 2), (17, 1), (27, 2), (54, 1), (107, 4),
     (214, 3), (1535, 1)],
)
def test_unitize_walks_from_the_stride_below_p(monkeypatch, low, size):
    starts, steps = [], []
    pair, step = xipoly._pair, xipoly._next_row
    monkeypatch.setattr(xipoly, "_pair", lambda i, j: starts.append((i, j)) or pair(i, j))
    monkeypatch.setattr(xipoly, "_next_row", lambda *rows: steps.append(1) or step(*rows))
    pair.cache_clear()
    p = XiPoly({low + t: t + 1 for t in range(size)})
    unitize(p, 5)
    j0 = START_ROWS[low]
    # one walk, from (5, j0); every later call is the ladder's recursion into
    # the halves (2, j0 >> 1) and (3, j0 >> 1) and below
    assert starts[0] == (5, j0)
    assert all(i < 5 and j <= j0 >> 1 for i, j in starts[1:])
    assert {(2, j0 >> 1), (3, j0 >> 1)} <= set(starts)
    # the rows j0 .. low + size - 1, the first two from the pair
    assert len(steps) == max(0, low + size - 1 - j0 - 1)


def test_pair_cache_is_bounded():
    xipoly._pair.cache_clear()
    for i in range(40):
        zeta(i, 40)
    info = xipoly._pair.cache_info()
    assert info.maxsize == 32 and info.currsize == 32
    assert info.misses > 32


def test_direct_route_reuses_the_phi_walk_pairs(monkeypatch):
    # phi_4 .. phi_9 and the lambda walk to lambda_11 share six ladder pairs;
    # after the phi tower the direct route builds no pair at all
    shared = {(8, 0), (16, 26), (32, 52), (64, 104), (128, 208), (256, 416)}
    xipoly._pair.cache_clear()
    phi_poly.cache_clear()
    for k in range(3, 10):
        phi_poly(k)
    pair, asked, missed = xipoly._pair, [], []

    def spy(i, j):
        misses = pair.cache_info().misses
        result = pair(i, j)
        asked.append((i, j))
        if pair.cache_info().misses > misses:
            missed.append((i, j))
        return result

    monkeypatch.setattr(xipoly, "_pair", spy)
    xipoly.phi_poly_direct(9)
    assert shared <= set(asked)
    assert not missed


# the cells of the ladder to (256, 416): each halves the one before, and
# (1, 1) reads both initial pairs
LADDER_256_416 = [(256, 416), (128, 208), (64, 104), (32, 52), (16, 26), (8, 13), (4, 6), (2, 3), (1, 1), (0, 0), (1, 0)]


def test_top_phi_and_lambda_levels_share_one_pair():
    # phi_9 and lambda_11 both unitize against kappa^256 from degree 427, so
    # both start at row 416; the first builds its ladder, one miss per level,
    # and the second takes the pair from the cache
    top_phi, top_lambda = phi_poly(8), lambda_poly(10)
    assert top_phi.low == top_lambda.low == 427
    xipoly._pair.cache_clear()
    unitize(top_phi, 256)
    info = xipoly._pair.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(LADDER_256_416), 0, len(LADDER_256_416))
    unitize(top_lambda, 256)
    info = xipoly._pair.cache_info()
    assert (info.misses, info.hits) == (len(LADDER_256_416), 1)


def test_ladder_recurses_through_the_halves(monkeypatch):
    cells = []
    pair = xipoly._pair
    monkeypatch.setattr(xipoly, "_pair", lambda i, j: cells.append((i, j)) or pair(i, j))
    pair.cache_clear()
    pair(256, 416)
    assert cells == LADDER_256_416[1:]


def test_ladder_takes_one_step_from_the_cached_half(monkeypatch):
    # with (128, 208) cached, (256, 416) is one doubling step: two rows, each
    # 2 zeta zeta minus a sigma term, so four ladder products
    xipoly._pair.cache_clear()
    xipoly._pair(128, 208)
    misses = xipoly._pair.cache_info().misses
    calls = []
    product = xipoly._ladder_product
    monkeypatch.setattr(xipoly, "_ladder_product", lambda *args: calls.append(1) or product(*args))
    xipoly._pair(256, 416)
    assert len(calls) == 4
    assert xipoly._pair.cache_info().misses == misses + 1


def tower_cells():
    """The tower workload's traffic: phi_3 .. phi_9, the direct route at 9 and
    the Z-profile cells i in (64, 128, 256), j < 12."""
    ops = [lambda k=k: phi_poly(k) for k in range(3, 10)]
    ops.append(lambda: xipoly.phi_poly_direct(9))
    ops += [lambda i=i, j=j: zeta(i, j) for i in (64, 128, 256) for j in range(12)]
    return ops


@pytest.mark.parametrize("seed", range(4))
def test_tower_traffic_builds_each_pair_once(monkeypatch, seed):
    # in any order the 32-entry cache holds every level of every ladder the
    # tower reads, so no pair is built twice
    ops = tower_cells()
    random.Random(seed).shuffle(ops)
    pair, missed = xipoly._pair, []

    def spy(i, j):
        misses = pair.cache_info().misses
        result = pair(i, j)
        if pair.cache_info().misses > misses:
            missed.append((i, j))
        return result

    monkeypatch.setattr(xipoly, "_pair", spy)
    pair.cache_clear()
    phi_poly.cache_clear()
    for op in ops:
        op()
    assert len(missed) == len(set(missed)) == 19
    assert set(LADDER_256_416) | {(m, 0) for m in (2, 4, 8, 16, 32, 64, 128, 256)} == set(missed)


def test_ladder_squares_pack_their_row_once(monkeypatch):
    # for even i the ladder multiplies a row by itself; the kernel must get the
    # same tuple twice, so it packs that operand once
    calls = []
    kronecker = series._kronecker

    def spy(a, b, order):
        calls.append((a is b, a == b))
        return kronecker(a, b, order)

    monkeypatch.setattr(series, "_kronecker", spy)
    xipoly._pair.cache_clear()
    xipoly._pair(256, 416)
    squares = [same for same, equal in calls if equal]
    assert squares and all(squares)


def floor(m, stay):
    """f(M): the 2-adic floor of offset M above d_min on a stay row or any other."""
    return 2 * m if stay else max(2 * m - 1, 0)


def head(i, j):
    """T - d_min(i, j) for the 3-adic top T = j + floor(5i/2): offset M carries
    9^(head - M) while M < head."""
    return j + 5 * i // 2 - d_min(i, j)


def nu3(c):
    v = 0
    while c % 3 ** (v + 1) == 0:
        v += 1
    return v


def assert_floors_hold(p, i, j):
    # zeta_{i,j} starts at d_min(i, j), and offset M carries at least f(M)
    # trailing zero bits, f(M) = 2M exactly when d_min(i, j + 1) = d_min(i, j),
    # and the coefficient of xi^D is divisible by 9^(j + floor(5i/2) - D)
    base, stay = d_min(i, j), d_min(i, j + 1) == d_min(i, j)
    assert p.low == base, (i, j)
    for m, c in enumerate(p.coeffs):
        assert nu2(c) >= floor(m, stay), (i, j, m)
        assert not c or nu3(c) >= 2 * (head(i, j) - m), (i, j, m)


def test_floors_hold_on_the_small_grid():
    # the sparse builder's rows against both floors, and the floored walk from
    # j = 0 against the same rows, entry by entry once scaled back
    rows = SparseZeta()
    for i in range(41):
        walk = islice(xipoly._floored_rows(i, 0), 81)
        for j, (base, row) in enumerate(walk):
            p = rows(i, j)
            assert_floors_hold(p, i, j)
            stay = (5 * i + j) % 2 == 1
            assert (base, stay) == (d_min(i, j), d_min(i, j + 1) == base)
            # entry M is held divided by 2^(2M - 1 + stay), M = 0 included, so
            # entry 0 of a row that is not a stay row is held doubled
            scales = [9 ** max(head(i, j) - m, 0) << (2 * m + stay) for m in range(len(p.coeffs))]
            assert row == [2 * c // scale for c, scale in zip(p.coeffs, scales)], (i, j)
        for j in range(2, 81):
            del rows.memo[i, j]


@pytest.mark.parametrize("i", [127, 128, 255, 256])
def test_floors_hold_on_the_ladder_cells(i):
    # the pairs are checked against the sparse builder in test_pair_matches_sparse_builder
    for j in (0, 213, 427, 428):
        low, high = xipoly._pair(i, j)
        assert_floors_hold(low, i, j)
        assert_floors_hold(high, i, j + 1)


def test_floors_hold_on_the_pairs_the_towers_build(monkeypatch):
    # every ladder pair that phi_3 .. phi_9 and the lambda walk to lambda_11
    # start from, and every level below them
    cells = set()
    pair = xipoly._pair
    monkeypatch.setattr(xipoly, "_pair", lambda i, j: cells.add((i, j)) or pair(i, j))
    pair.cache_clear()
    phi_poly.cache_clear()
    phi_poly(9)
    xipoly.phi_poly_direct(9)
    assert set(LADDER_256_416) | {(m, 0) for m in (2, 4, 8)} == cells
    for i, j in sorted(cells):
        low, high = pair(i, j)
        assert_floors_hold(low, i, j)
        assert_floors_hold(high, i, j + 1)


@pytest.mark.parametrize("offset", [1, 2, 5])
def test_a_pair_off_by_one_bit_raises(monkeypatch, offset):
    # one coefficient of the pair's first row loses the top bit of its floor:
    # unitize must refuse, not walk a wrong polynomial
    i, j = 6, 32
    low, high = xipoly._pair(i, j)
    stay = d_min(i, j + 1) == d_min(i, j)
    coeffs = list(low.coeffs)
    coeffs[offset] ^= 1 << (floor(offset, stay) - 1)
    broken = XiPoly._row(low.low, coeffs)
    monkeypatch.setattr(xipoly, "_pair", lambda *cell: (broken, high))
    with pytest.raises(ArithmeticError, match=f"offset {offset} above degree {d_min(i, j)}"):
        unitize(XiPoly({j: 1, j + 5: 3}), i)


@pytest.mark.parametrize("offset", [0, 1, 5])
def test_a_pair_one_power_of_three_short_raises(monkeypatch, offset):
    # one coefficient of the pair's first row keeps its 2-floor but holds one
    # factor of 3 fewer than its 3-floor 9^(head - M) asks for
    i, j = 6, 32
    low, high = xipoly._pair(i, j)
    stay = d_min(i, j + 1) == d_min(i, j)
    g = head(i, j) - offset
    assert g > 0
    coeffs = list(low.coeffs)
    coeffs[offset] += 3 ** (2 * g - 1) << floor(offset, stay)
    broken = XiPoly._row(low.low, coeffs)
    assert nu3(broken.coeffs[offset]) == 2 * g - 1
    monkeypatch.setattr(xipoly, "_pair", lambda *cell: (broken, high))
    message = f"offset {offset} above degree {d_min(i, j)}: 3-adic valuation {2 * g - 1} below floor {2 * g}"
    with pytest.raises(ArithmeticError, match=message):
        unitize(XiPoly({j: 1, j + 5: 3}), i)


def test_a_pair_below_its_base_raises(monkeypatch):
    low, high = xipoly._pair(3, 0)
    monkeypatch.setattr(xipoly, "_pair", lambda *cell: (XiPoly({low.low - 1: 1}) + low, high))
    with pytest.raises(ArithmeticError, match="offset -1"):
        zeta(3, 0)


def test_floored_row_rejects_the_other_rule():
    # zeta_{0,2} has an offset-1 coefficient of valuation 1: the floor of a
    # row that is not a stay row, too low for a stay row; entry 0, -9 xi under
    # its head, is held divided by 9 and doubled
    assert xipoly._floored(zeta(0, 2), 1, False, 1) == [-2, 29, -10, 1]
    with pytest.raises(ArithmeticError, match="offset 1 above degree 1"):
        xipoly._floored(zeta(0, 2), 1, True, 1)
    # and -9 xi, the one entry under its head, meets 9^1 but not 9^2
    with pytest.raises(ArithmeticError, match="offset 0 above degree 1: 3-adic valuation 2 below floor 4"):
        xipoly._floored(zeta(0, 2), 1, False, 2)


# integer polynomials: small odd coefficients give s < 0, 2-adic ones s > 0
ladder_terms = st.dictionaries(
    st.integers(0, 30),
    st.integers(-9, 9) | two_adic,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(ladder_terms, ladder_terms, st.integers(0, 3))
def test_ladder_product_is_the_ring_product(a, b, e):
    pa, pb = XiPoly(a), XiPoly(b)
    assert xipoly._ladder_product(pa, pb, e) == (pa * pb) * 2**e
    # the squaring path hands one scaled row to the kernel twice
    assert xipoly._ladder_product(pa, pa, e) == (pa * pa) * 2**e


def test_ladder_product_scales_below_zero():
    # 3 + 2 xi: nu_2 - 2M is 0 at M = 0 and -1 at M = 1, so s = -1
    p = XiPoly({0: 3, 1: 2})
    assert xipoly._four_adic(p) == (-1, [6, 1])
    assert xipoly._ladder_product(p, p) == p * p


def test_unitize_accumulates_from_the_first_row_base(monkeypatch):
    # the accumulator spans d_min(i, p.low) .. the top degree, not 0 .. the top
    p = phi_poly(6)
    calls = []
    row = XiPoly._row.__func__
    spy = classmethod(lambda cls, low, c: calls.append((low, len(c))) or row(cls, low, c))
    monkeypatch.setattr(XiPoly, "_row", spy)
    out = unitize(p, 32)
    base = d_min(32, p.low)
    assert base > 0 and out.low == base
    assert calls[-1] == (base, out.degree() - base + 1)


# the banded accumulators: slot t of unitize(p, i) is held in units of
# 2^(2t + E), and row j of p = sum c_j xi^j carries 2^(e_j - E) there


def weight(i, low, j, c):
    """e_j of the term c xi^j in unitize(p, i) with p.low = low:
    nu_2(c) - 1 + stay_j - 2 (d_min(i, j) - d_min(i, low))."""
    stay = d_min(i, j + 1) == d_min(i, j)
    return nu2(c) - 1 + stay - 2 * (d_min(i, j) - d_min(i, low))


def weighted(i, low, j, e, u):
    """u 2^v for odd u, with v such that u 2^v xi^j has weight e."""
    v = e - weight(i, low, j, 1)
    assert v >= 0
    return u << v


def test_weight_drops_by_one_per_row_less_the_valuation():
    # 2 d_min(i, j) - stay_j grows by one per row, so e_j + j - nu_2(c_j) is
    # the same on every row, which unitize uses to find the least e_j up front
    for i in range(40):
        for low in range(12):
            lift = low - 1 + ((i + low) & 1)
            assert all(weight(i, low, j, 1) == lift - j for j in range(low, low + 30)), (i, low)


@pytest.fixture
def bands(monkeypatch):
    """The number of times unitize opens a band after its first, from the
    calls to _merge: two per band opened, and two at the end."""
    calls = []
    merge = xipoly._merge
    monkeypatch.setattr(xipoly, "_merge", lambda total, live, e: calls.append(e) or merge(total, live, e))
    return lambda: len(calls) // 2 - 1


@pytest.mark.parametrize("i", [3, 64, 65])
@pytest.mark.parametrize("gap, opened", [(xipoly._BAND - 1, 0), (xipoly._BAND, 1)])
def test_a_row_at_the_band_edge(oracle, bands, i, gap, opened):
    # the first band opens at the least weight e0, here the first row's; a row
    # at e0 + _BAND - 1 still adds into it, one at e0 + _BAND opens the next
    low = 10
    e0 = weight(i, low, low, 5)
    terms = {low: 5, low + 1: weighted(i, low, low + 1, e0 + 1, -3), low + 3: weighted(i, low, low + 3, e0 + gap, 7)}
    p = XiPoly(terms)
    assert weight(i, low, low + 3, p.coeff(low + 3)) - e0 == gap
    assert unitize(p, i) == oracle.unitize(p, i)
    assert bands() == opened


@pytest.mark.parametrize("i", [3, 64, 65])
def test_a_row_below_the_live_band(oracle, bands, i):
    # weights e0 + 100, e0 + 70, e0 on three rows: the first lies above the
    # first band, which opens at e0, and each later row falls below the band
    # the one before opened, so each row opens its own
    low = 12
    e0 = weight(i, low, low + 5, 1)
    rows = {low: 100, low + 2: 70, low + 5: 0}
    p = XiPoly({j: weighted(i, low, j, e0 + g, 3 + 2 * j) for j, g in rows.items()})
    assert unitize(p, i) == oracle.unitize(p, i)
    assert bands() == 3


@pytest.mark.parametrize("i", [3, 64, 65])
def test_a_jump_of_several_bands(oracle, bands, i):
    # e0, then e0 + 5 _BAND + 7 and back to e0 + 1: the far row opens a band of
    # its own, and so does the row after it
    low = 8
    e0 = weight(i, low, low, 9)
    far = 5 * xipoly._BAND + 7
    terms = {low: 9, low + 1: weighted(i, low, low + 1, e0 + far, -1), low + 2: weighted(i, low, low + 2, e0 + 1, 5)}
    p = XiPoly(terms)
    assert unitize(p, i) == oracle.unitize(p, i)
    assert bands() == 2


@pytest.mark.parametrize("i", [64, 65])
def test_odd_coefficients_over_many_rows_shift_right_at_the_end(oracle, i):
    # with every c_j odd the weight drops by one per row, so after 40 rows
    # e0 < -38 and the low slots t, with 2t + e0 < 0, are scaled back by an
    # exact right shift; the first row's weight is above e0 by the row count
    low, size = 20, 40
    p = XiPoly({j: (-1) ** j * (2 * j + 1) for j in range(low, low + size)})
    e0 = min(weight(i, low, j, c) for j, c in p.terms())
    assert e0 < -38 and weight(i, low, low, p.coeff(low)) - e0 == size - 1
    assert unitize(p, i) == oracle.unitize(p, i)


@pytest.mark.parametrize("size", [200, 400])
def test_falling_weights_open_one_band_per_band_width(oracle, bands, size):
    # with every c_j odd the weight drops by one per row: the first row opens
    # a band at its own weight, and each row below the live band opens the
    # next with itself at the top, so the walk opens about one band per
    # _BAND rows rather than one per row
    low, i = 20, 64
    p = XiPoly({j: 2 * j + 1 for j in range(low, low + size)})
    assert unitize(p, i) == oracle.unitize(p, i)
    assert bands() <= -(-size // xipoly._BAND) + 1


@pytest.mark.parametrize("i", [3, 64, 65])
def test_a_dip_in_climbing_weights_opens_at_the_row(oracle, bands, i):
    # weights e0, e0 + 100, e0 + 70, e0 + 120 climb from the first row to the
    # last, so the dip to e0 + 70 opens its band at its own weight, and the
    # last row still fits in it
    low = 12
    e0 = weight(i, low, low, 3)
    rows = {low: 0, low + 2: 100, low + 3: 70, low + 5: 120}
    p = XiPoly({j: weighted(i, low, j, e0 + g, 3 + 2 * j) for j, g in rows.items()})
    assert unitize(p, i) == oracle.unitize(p, i)
    assert bands() == 2


def test_the_top_tower_steps_keep_their_bands(bands):
    # the towers' weights climb about two a row; anchoring the bands below a
    # dip at their top would open 16 and 26 here.  Each call adds the bands it
    # opens plus one, its final merge, to the count
    for p, opened in ((phi_poly(8), 11), (lambda_poly(10), 14)):
        start = bands()
        unitize(p, 256)
        assert bands() - start == opened + 1
