"""Independent routes to zeta, kept as oracles for unitize.

``zeta_combined`` composes both step recurrences into one four-term
recurrence.  ``SparseZeta`` is the memoized sparse builder.

Both share only the ring ``XiPoly`` and the six base values
``zeta_initial()`` with the package.  The recurrence coefficients come from
those base values here (``sigma_pairs``), not from the package's hard-wired
xi step.  Each ``SparseZeta`` fills its own dict the way the recurrences are
derived: the columns j = 0, 1 grow in i by the kappa recurrence, then row i
extends in j by the xi recurrence.  Every entry is kept, so memory grows with
every row asked for; use a fresh instance per test module.
"""

from pdocong import XiPoly, zeta, zeta_initial


def sigma_pairs():
    """{"kappa": (sigma1, sigma2), "xi": (sigma1, sigma2)} for alpha = kappa, xi.

    sigma1 = alpha(q) + alpha(-q) = 2 U(alpha) and
    sigma2 = alpha(q) alpha(-q) = 2 U(alpha)^2 - U(alpha^2), from the base values.
    """
    initial = zeta_initial()
    pairs = {}
    for name, u1, u2 in (
        ("kappa", initial[1, 0], initial[2, 0]),
        ("xi", initial[0, 1], initial[0, 2]),
    ):
        pairs[name] = (2 * u1, 2 * u1 * u1 - u2)
    return pairs


def zeta_combined(i, j):
    """The four-term recurrence obtained by composing both step recurrences.

    Only valid for i, j >= 2.
    """
    if i < 2 or j < 2:
        raise ValueError(f"combined recurrence needs i, j >= 2, got ({i}, {j})")
    pairs = sigma_pairs()
    (k1, k2), (x1, x2) = pairs["kappa"], pairs["xi"]
    return (
        (x1 * k1) * zeta(i - 1, j - 1)
        - (x2 * k1) * zeta(i - 1, j - 2)
        - (x1 * k2) * zeta(i - 2, j - 1)
        + (x2 * k2) * zeta(i - 2, j - 2)
    )


class SparseZeta:
    def __init__(self):
        self.memo = zeta_initial()
        pairs = sigma_pairs()
        self.kappa, self.xi = pairs["kappa"], pairs["xi"]

    def __call__(self, i, j):
        memo = self.memo
        if (i, j) in memo:
            return memo[i, j]
        (k1, k2), (x1, x2) = self.kappa, self.xi
        for jj in (0, 1):
            for ii in range(2, i + 1):
                if (ii, jj) not in memo:
                    memo[ii, jj] = k1 * memo[ii - 1, jj] - k2 * memo[ii - 2, jj]
        for jj in range(2, j + 1):
            if (i, jj) not in memo:
                memo[i, jj] = x1 * memo[i, jj - 1] - x2 * memo[i, jj - 2]
        return memo[i, j]

    def unitize(self, p, i):
        """sum_j c_j zeta_{i,j}, one sparse polynomial at a time."""
        acc = XiPoly()
        for deg, c in p.terms():
            acc = acc + c * self(i, deg)
        return acc

    def lambda_poly(self, k):
        p = XiPoly({2: 3, 3: -2})
        for level in range(3, k + 1):
            p = self.unitize(p, 2 ** (level - 3))
        return p

    def phi_poly(self, k):
        # base case phi_3 = lambda_5 - gamma^6 lambda_3, gamma^6 written out here
        gamma6 = XiPoly({10: 59049, 11: -262440, 12: 466560, 13: -414720, 14: 184320, 15: -32768})
        p = self.lambda_poly(5) - gamma6 * self.lambda_poly(3)
        for level in range(4, k + 1):
            p = self.unitize(p, 2 ** (level - 1))
        return p
