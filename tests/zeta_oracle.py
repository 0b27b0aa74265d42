"""Independent routes to zeta, kept as oracles for unitize.

``zeta_combined`` composes both step recurrences into one four-term
recurrence.  ``SparseZeta`` is the memoized sparse builder.

The sparse builder shares only the ring ``XiPoly``, the six base values
``zeta_initial()`` and the recurrence coefficients ``sigma_pair()`` with the
package.  Each instance fills its own dict the way the recurrences are derived: the columns j = 0, 1
grow in i by the kappa recurrence, then row i extends in j by the xi
recurrence.  Every entry is kept, so memory grows with every row asked for;
use a fresh instance per test module.
"""

from pdocong import XiPoly, sigma_pair, zeta, zeta_initial


def zeta_combined(i, j):
    """The four-term recurrence obtained by composing both step recurrences.

    Only valid for i, j >= 2.
    """
    if i < 2 or j < 2:
        raise ValueError(f"combined recurrence needs i, j >= 2, got ({i}, {j})")
    sk, sx = sigma_pair("kappa"), sigma_pair("xi")
    return (
        (sx.sigma1 * sk.sigma1) * zeta(i - 1, j - 1)
        - (sx.sigma2 * sk.sigma1) * zeta(i - 1, j - 2)
        - (sx.sigma1 * sk.sigma2) * zeta(i - 2, j - 1)
        + (sx.sigma2 * sk.sigma2) * zeta(i - 2, j - 2)
    )


class SparseZeta:
    def __init__(self):
        self.memo = zeta_initial()
        self.kappa = sigma_pair("kappa")
        self.xi = sigma_pair("xi")

    def __call__(self, i, j):
        memo = self.memo
        if (i, j) in memo:
            return memo[i, j]
        for jj in (0, 1):
            for ii in range(2, i + 1):
                if (ii, jj) not in memo:
                    memo[ii, jj] = (
                        self.kappa.sigma1 * memo[ii - 1, jj] - self.kappa.sigma2 * memo[ii - 2, jj]
                    )
        for jj in range(2, j + 1):
            if (i, jj) not in memo:
                memo[i, jj] = self.xi.sigma1 * memo[i, jj - 1] - self.xi.sigma2 * memo[i, jj - 2]
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
