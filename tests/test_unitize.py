"""The streaming unitize against the memoized sparse builder in zeta_oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from pdocong import XiPoly, lambda_poly, phi_poly, zeta, zeta_initial
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
