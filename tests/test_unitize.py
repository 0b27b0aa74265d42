"""The streaming unitize and its doubling ladder against the memoized sparse
builder in zeta_oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from pdocong import XiPoly, lambda_poly, phi_poly, series, xipoly, zeta, zeta_initial
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
# multiplies each row by the odd part and shifts the products back by e
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


# the ladder's cells: small i and j, odd and even i around powers of two, and
# the j at which the top phi and lambda levels start (427 for phi_8, lambda_10)
PAIR_I = [*range(18), 31, 33, 127, 128, 255, 256]
PAIR_J = [*range(14), 100, 213, 427, 428]


@pytest.mark.parametrize("i", PAIR_I)
def test_pair_matches_sparse_builder(i):
    # a fresh oracle per i, so its memo holds one row of cells at a time
    rows = SparseZeta()
    for j in PAIR_J:
        assert xipoly._pair(i, j) == (rows(i, j), rows(i, j + 1)), (i, j)


@pytest.mark.parametrize("low", [30, 31, 32, 33, 64])
def test_unitize_across_the_pair_stride(oracle, low):
    # p starts just below, at and just above a multiple of 32
    p = XiPoly({low: 3, low + 1: -5, low + 4: 7})
    for i in (0, 1, 3, 64):
        assert unitize(p, i) == oracle.unitize(p, i), (low, i)


@pytest.mark.parametrize("low, size", [(0, 1), (5, 3), (31, 1), (32, 1), (33, 4), (64, 40), (427, 6)])
def test_unitize_walks_from_the_stride_below_p(monkeypatch, low, size):
    starts, steps = [], []
    pair, step = xipoly._pair, xipoly._step
    monkeypatch.setattr(xipoly, "_pair", lambda i, j: starts.append(j) or pair(i, j))
    monkeypatch.setattr(xipoly, "_step", lambda *rows: steps.append(1) or step(*rows))
    p = XiPoly({low + t: t + 1 for t in range(size)})
    unitize(p, 5)
    j0 = low - low % 32
    assert starts == [j0]
    # the rows j0 .. low + size - 1, the first two from the pair
    assert len(steps) == max(0, low + size - 1 - j0 - 1)


def test_pair_cache_is_bounded():
    xipoly._pair.cache_clear()
    for i in range(20):
        zeta(i, 40)
    info = xipoly._pair.cache_info()
    assert info.maxsize == 16 and info.currsize == 16


def test_direct_route_reuses_the_phi_walk_pairs(monkeypatch):
    # phi_4 .. phi_9 and the lambda walk to lambda_11 share six ladder pairs;
    # after the phi tower none of them may be built again
    shared = {(8, 0), (16, 0), (32, 32), (64, 96), (128, 192), (256, 416)}
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
    assert not shared & set(missed)


def test_top_phi_and_lambda_levels_share_one_pair():
    # phi_9 and lambda_11 both unitize against kappa^256 from degree 427
    top_phi, top_lambda = phi_poly(8), lambda_poly(10)
    assert top_phi.low == top_lambda.low == 427
    xipoly._pair.cache_clear()
    unitize(top_phi, 256)
    unitize(top_lambda, 256)
    info = xipoly._pair.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
