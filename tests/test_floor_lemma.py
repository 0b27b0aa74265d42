"""The floor lemma of pdocong.xipoly's module docstring, case by case.

The lemma: zeta_{i,j} vanishes below d_min(i, j) and is odd there, its entry
at offset M carries 2^f(M) and its coefficient of xi^D 9^max(0, T - D), and on
a row that is not a stay row the offset-1 entry carries 2^1 exactly iff
i + j == 2 mod 4.  The proof is an induction from the four cells i, j <= 1 on
two recurrences, each a sum of polynomial multiples of earlier cells.  Every
quantity a step reads (the offset shift and the 3-adic gap of each term, the
stay pattern, the floors and the rule) depends on the target cell only
through i mod 4 and j mod 4, so each step is decided by the 16 targets with
4 <= i, j < 8, and the whole induction by 4 + 2 * 16 finite cases.
"""

from functools import cache
from itertools import product

import pytest

from pdocong import XiPoly, d_min, nu2, tau, zeta, zeta_initial
from zeta_oracle import sigma_pairs

XI_5 = XiPoly.monomial(5)
BASE_CELLS = [(0, 0), (1, 0), (0, 1), (1, 1)]
CLASSES = list(product(range(4, 8), repeat=2))


def i_step(i, j):
    """zeta_{i,j} = 2 zeta_{1,0} zeta_{i-1,j} - xi^5 zeta_{i-2,j}: the kappa
    recurrence, whose sigma_2 is xi^5 (the doubling identity at c = 1, d = 0)."""
    sigma1, _ = sigma_pairs()["kappa"]
    return [((i - 1, j), sigma1), ((i - 2, j), -XI_5)]


def j_step(i, j):
    """zeta_{i,j} = sigma_1 zeta_{i,j-1} - sigma_2 zeta_{i,j-2}, the xi recurrence."""
    sigma1, sigma2 = sigma_pairs()["xi"]
    return [((i, j - 1), sigma1), ((i, j - 2), -sigma2)]


STEPS = {"i": i_step, "j": j_step}
# the least target (i, j) each step reaches
LOWEST = {"i": (2, 0), "j": (0, 2)}


def stay(i, j):
    return (5 * i + j) % 2 == 1


def top(i, j):
    """The 3-adic top T of zeta_{i,j}."""
    return j + 5 * i // 2


def lemma_floor(i, j, m):
    """f(M): 0 at M = 0, 2M - 1 + stay from M = 1 on."""
    return 2 * m - 1 + stay(i, j) if m else 0


def lemma_rule(i, j):
    return (i + j) % 4 == 2


def cell_failures(i, j, row, floor=lemma_floor, rule=lemma_rule):
    """Where the exact row zeta_{i,j} breaks the lemma read with floor and rule."""
    d, fails = d_min(i, j), []
    if row.min_degree() != d:
        return [f"lowest degree {row.min_degree()}, not {d}"]
    for m, c in enumerate(row.coeffs):
        if m == 0 and c % 2 == 0:
            fails.append("even at d_min")
        if nu2(c) < floor(i, j, m):
            fails.append(f"offset {m}: nu_2 {nu2(c)} below {floor(i, j, m)}")
        if c % 9 ** max(0, top(i, j) - d - m):
            fails.append(f"offset {m}: below the 3-floor")
    if (nu2(row.coeff(d + 1)) == 1) != rule(i, j):
        fails.append("offset-1 rule")
    return fails


def parity(i, j, m, floor, rule):
    """Floored entry m of zeta_{i,j} mod 2 as the lemma gives it, or None."""
    if m == 0:
        return 1
    if m == 1 and floor(i, j, 1) == 1:
        return int(rule(i, j))
    return None


def step_failures(step, i, j, floor=lemma_floor, rule=lemma_rule):
    """The induction step into zeta_{i,j}: what it does not prove, given the
    lemma (with floor and rule) on its source cells.

    A term c xi^s of a source's multiplier takes the source's offset M to the
    target's M + shift, shift = s + d_min(source) - d_min(target), with slack
    nu_2(c) + f_source(M) - f_target(M + shift).  Both floors grow by 2 per
    step of M from M = 1 on, so M < 3 decides every M.  Mod 2, the target's
    floored entries at offsets 0 and 1 are the sums of the source parities
    over the terms of slack 0; offset 1 counts only where f_target(1) = 1.
    """
    fails, sums = [], {0: [], 1: []}
    for (a, b), multiplier in step(i, j):
        for s, c in multiplier.terms():
            shift = s + d_min(a, b) - d_min(i, j)
            if shift < 0:
                fails.append(f"{c} xi^{s} from {(a, b)} lands below d_min")
            gap = top(i, j) - top(a, b) - s
            if gap > 0 and c % 9**gap:
                fails.append(f"{c} xi^{s} from {(a, b)} misses the 3-floor by 9^{gap}")
            for m in range(3):
                slack = nu2(c) + floor(a, b, m) - floor(i, j, m + shift)
                if slack < 0:
                    fails.append(f"{c} xi^{s} from {(a, b)} misses f({m + shift}) at offset {m}")
                elif slack == 0 and m + shift in sums:
                    sums[m + shift].append(parity(a, b, m, floor, rule))
    wanted = {0: 1, 1: int(rule(i, j)) if floor(i, j, 1) == 1 else None}
    if rule(i, j) and floor(i, j, 1) != 1:
        fails.append(f"the rule asks nu_2 = 1 at offset 1 under the floor {floor(i, j, 1)}")
    for m, want in wanted.items():
        if want is None:
            continue
        if None in sums[m]:
            fails.append(f"offset {m} reads a parity the lemma does not give")
        elif sum(sums[m]) % 2 != want:
            fails.append(f"floored offset {m} has parity {sum(sums[m]) % 2}, not {want}")
    return fails


def all_case_failures(floor=lemma_floor, rule=lemma_rule):
    init = zeta_initial()
    fails = [f for i, j in BASE_CELLS for f in cell_failures(i, j, init[i, j], floor, rule)]
    for step, (i, j) in product(STEPS.values(), CLASSES):
        fails += step_failures(step, i, j, floor, rule)
    return fails


def _old_d_min(i, j):
    """The case form that the closed form replaced."""
    (big_i, r), (big_j, s) = divmod(i, 2), divmod(j, 2)
    return 5 * big_i + big_j + (3 if r else s)


def test_closed_forms():
    for i, j in product(range(300), repeat=2):
        n, d = 5 * i + j, d_min(i, j)
        assert d == _old_d_min(i, j) == -(-n // 2), (i, j)
        is_stay = d_min(i, j + 1) == d
        assert is_stay == (n % 2 == 1) == ((i + j) % 2 == 1), (i, j)
        assert 2 * d - is_stay == n, (i, j)
        assert top(i, j) - d == (j - (i & 1)) // 2, (i, j)
        # unitize's lift: p.low - 1 + stay at p.low, as it was, is 2 base - 1 - 5i
        assert j - 1 + is_stay == 2 * d - 1 - 5 * i, (i, j)


def test_tau_follows_d_min():
    # phi_k = unitize(phi_{k-1}, 2^(k-1)) starts at d_min(2^(k-1), tau(k-1))
    for k in range(4, 80):
        assert tau(k) == d_min(2 ** (k - 1), tau(k - 1)), k


@cache
def _exact(i, j):
    return zeta(i, j)


@pytest.mark.parametrize("name", STEPS)
def test_steps_hold_on_exact_rows(name):
    # kappa's sigma_2 from the base values is xi^5, so both steps are exact
    # identities; the i step on i + 2, j < 24 is 528 of them
    assert sigma_pairs()["kappa"][1] == XI_5
    low_i, low_j = LOWEST[name]
    for i, j in product(range(low_i, 24), range(low_j, 24)):
        terms = STEPS[name](i, j)
        assert _exact(i, j) == sum((m * _exact(*cell) for cell, m in terms), XiPoly()), (i, j)


@pytest.mark.parametrize("i, j", BASE_CELLS)
def test_base_cell(i, j):
    assert cell_failures(i, j, zeta_initial()[i, j]) == []


@pytest.mark.parametrize("i, j", CLASSES)
@pytest.mark.parametrize("name", STEPS)
def test_induction_step(name, i, j):
    assert step_failures(STEPS[name], i, j) == []


def _signature(step, i, j):
    """What step_failures reads of the target (i, j) and its sources."""
    return [(5 * i + j) % 2, (i + j) % 4] + [
        (d_min(a, b) - d_min(i, j), top(i, j) - top(a, b), (5 * a + b) % 2, (a + b) % 4)
        for (a, b), _ in step(i, j)
    ]


@pytest.mark.parametrize("name", STEPS)
def test_step_cases_repeat_mod_four(name):
    step, (low_i, low_j) = STEPS[name], LOWEST[name]
    for i, j in product(range(low_i, 64), range(low_j, 64)):
        assert _signature(step, i, j) == _signature(step, i % 4 + 4, j % 4 + 4), (i, j)


@pytest.mark.parametrize(
    "floor, rule",
    [
        (lambda i, j, m: 2 * m, lemma_rule),
        (lemma_floor, lambda i, j: (i + j) % 4 == 0),
    ],
    ids=["floor-2M-on-every-row", "rule-sum-0-mod-4"],
)
def test_mutants_fail_a_case(floor, rule):
    assert all_case_failures(floor, rule)

