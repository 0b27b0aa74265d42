"""Eta-quotient expansions and the PDO counting function.

PDO(n) counts partitions of n into odd parts with designated summands: one
occurrence of each distinct part is marked, so a part repeated m times
contributes a factor m.  Its generating function is the eta quotient

    delta(q) = E(q^4) E(q^6)^2 / (E(q) E(q^3) E(q^12)),

with E(q) = prod (1 - q^n).  With the theta functions

    psi(q) = sum_{n>=0} q^{n(n+1)/2} = E(q^2)^2 / E(q),
    phi(-q) = sum_{n in Z} (-1)^n q^{n^2} = E(q)^2 / E(q^2),

the same series is the theta quotient

    delta(q) = psi(q) psi(q^3) / (phi(-q^2) E(q^12)),

because

    1/E(q) = psi(q) / E(q^2)^2,
    1/E(q^3) = psi(q^3) / E(q^6)^2, which cancels the E(q^6)^2 above,
    E(q^4) / E(q^2)^2 = 1 / phi(-q^2).

``delta_series`` builds the table this way: the two psi factors are sparse and
have unit coefficients, so their product is cheap, and only two sparse
divisions remain.  ``expand`` is the generic eta-quotient route; it serves
arbitrary specs and is the independent second route for delta and kappa.  The
module also expands the companion functions gamma, xi and kappa used by the
polynomial tower, and provides a brute-force combinatorial oracle for PDO(n).

kappa(q) = gamma(q^2)^2 / gamma(q) is the eta quotient

    kappa(q) = E(q^2)^5 E(q^3)^15 E(q^4)^10 E(q^12)^10 / (E(q)^5 E(q^6)^35),

whose exponents are all multiples of five.  It is the fifth power of

    T(q) = psi(q) psi(q^2) psi(q^6) / psi(q^3)^3
         = E(q^2) E(q^3)^3 E(q^4)^2 E(q^12)^2 / (E(q) E(q^6)^7),

because psi(q^m) = E(q^{2m})^2 / E(q^m) gives

    psi(q) psi(q^2) psi(q^6) = E(q^2) E(q^4)^2 E(q^12)^2 / (E(q) E(q^6)),
    psi(q^3)^3 = E(q^6)^6 / E(q^3)^3.

``kappa_series`` builds T from two sparse unit-coefficient products and three
divisions by psi(q^3), then takes its fifth power with three dense products,
where ``expand(KAPPA, order)`` makes 80 eta passes.  Every expansion here
divides only by sparse Euler and theta factors.

``EtaQuotientSpec`` and ``PdoTable`` are frozen records (``_record.Record``).
A spec canonicalizes its factors on construction, so two specs built from the
same factors in any order are equal, hash alike and share one ``expand``
cache entry.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, count
from typing import Iterable, Iterator

from ._record import Record
from .series import Series

ORACLE_BOUND = 60


class EtaQuotientSpec(Record):
    """A formal product prod E(q^m)^e, canonicalized by ascending dilation."""

    __slots__ = ("factors",)
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        factors = tuple(sorted((int(m), int(e)) for m, e in self.factors))
        dilations = [m for m, _ in factors]
        if any(m < 1 for m in dilations):
            raise ValueError(f"dilations must be positive: {dilations}")
        if len(set(dilations)) != len(dilations):
            raise ValueError(f"dilations must be pairwise distinct: {dilations}")
        if any(e == 0 for _, e in factors):
            raise ValueError("zero exponents are not allowed in a spec")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def parse(cls, text: str) -> "EtaQuotientSpec":
        """Parse the semicolon format, e.g. ``4^1;6^2;1^-1;3^-1;12^-1``."""
        factors = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                m_text, e_text = chunk.split("^")
                factors.append((int(m_text), int(e_text)))
            except ValueError:
                raise ValueError(f"malformed eta-quotient factor {chunk!r}") from None
        if not factors:
            raise ValueError(f"empty eta-quotient spec {text!r}")
        return cls(tuple(factors))

    def spec_text(self) -> str:
        """Canonical text form; ``parse(spec_text())`` round-trips exactly."""
        return ";".join(f"{m}^{e}" for m, e in self.factors)


# The four named quotients of the tower.  kappa(q) = gamma(q^2)^2 / gamma(q)
# is itself the eta quotient KAPPA below; kappa_series builds it as a psi
# quotient to the fifth power, and the tests check it against expand(KAPPA)
# and the defining quotient.
DELTA = EtaQuotientSpec(((4, 1), (6, 2), (1, -1), (3, -1), (12, -1)))
GAMMA = EtaQuotientSpec(((1, 5), (2, 5), (6, 5), (3, -15)))
XI = EtaQuotientSpec(((2, 5), (6, 1), (1, -1), (3, -5)))
KAPPA = EtaQuotientSpec(((1, -5), (2, 5), (3, 15), (4, 10), (6, -35), (12, 10)))

NAMED_SPECS = {"delta": DELTA, "gamma": GAMMA, "xi": XI, "kappa": KAPPA}


class PdoTable(Record):
    """values[n] = PDO(n) for 0 <= n <= max_n."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    @property
    def max_n(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")


def _sparse(order: int, m: int, terms: Iterable[tuple[int, int]]) -> Series:
    """The series sum c q^(m e) over ``terms`` (e, c), given in ascending e."""
    _check_order(order)
    coeffs = [0] * order
    for e, c in terms:
        if m * e >= order:
            break
        coeffs[m * e] = c
    return Series(coeffs)


def _pentagonal_terms() -> Iterator[tuple[int, int]]:
    """(m, (-1)^k) for m = k(3k-1)/2 and k(3k+1)/2, k >= 0, ascending in m."""
    yield 0, 1
    for k in count(1):
        sign = -1 if k % 2 else 1
        yield k * (3 * k - 1) // 2, sign
        yield k * (3 * k + 1) // 2, sign


def euler_series(order: int) -> Series:
    """E(q) = prod (1 - q^n), via the pentagonal-number expansion.

    Coefficient of q^m is (-1)^k exactly when m = k(3k-1)/2 or k(3k+1)/2.
    """
    return _sparse(order, 1, _pentagonal_terms())


def psi_series(order: int, m: int = 1) -> Series:
    """psi(q^m) = sum_{n>=0} q^{m n(n+1)/2} = E(q^{2m})^2 / E(q^m)."""
    return _sparse(order, m, ((n * (n + 1) // 2, 1) for n in count()))


def phi_minus_series(order: int, m: int = 1) -> Series:
    """phi(-q^m) = 1 + 2 sum_{n>=1} (-1)^n q^{m n^2} = E(q^m)^2 / E(q^{2m})."""
    tail = ((n * n, -2 if n % 2 else 2) for n in count(1))
    return _sparse(order, m, chain([(0, 1)], tail))


# The expansion cache is bounded: a computation reuses a handful of entries
# (the xi and kappa cross-checks need them at two orders).  Without a bound a
# long-running process would keep every expansion it ever made alive.
@lru_cache(maxsize=4)
def expand(spec: EtaQuotientSpec, order: int) -> Series:
    """Expand an eta quotient to the requested order, exactly.

    Each factor is applied as |e| sparse multiplication or division passes,
    which keeps the cost near O(order^{3/2}) per factor instead of the dense
    O(order^2) of a generic product.  All multiplications come first, while
    the product is still sparse with small coefficients; the divisions then
    make it dense.  The truncated ring is commutative, so the order of the
    passes does not change the result.
    """
    _check_order(order)
    euler = euler_series(order)
    result = Series.one(order)
    for m, e in sorted(spec.factors, key=lambda factor: factor[1] < 0):
        factor = euler.dilate(m)
        if e > 0:
            for _ in range(e):
                result = result * factor
        else:
            for _ in range(-e):
                result = result.div(factor)
    return result


def delta_series(order: int) -> Series:
    """The PDO generating function, as psi(q) psi(q^3) / (phi(-q^2) E(q^12)).

    Equal to ``expand(DELTA, order)``; see the module docstring.  Nothing is
    memoized: each call builds its table afresh.
    """
    theta = psi_series(order) * psi_series(order, 3)
    return theta.div(phi_minus_series(order, 2)).div(_sparse(order, 12, _pentagonal_terms()))


def gamma_series(order: int) -> Series:
    return expand(GAMMA, order)


def xi_series(order: int) -> Series:
    """The degree-one Hauptmodul the polynomial tower is written in."""
    return expand(XI, order)


def kappa_series(order: int) -> Series:
    """kappa(q) = gamma(q^2)^2 / gamma(q), as (psi(q) psi(q^2) psi(q^6) / psi(q^3)^3)^5.

    Equal to ``expand(KAPPA, order)``; see the module docstring.  Nothing is
    memoized: each call builds its series afresh.
    """
    base = psi_series(order) * psi_series(order, 2) * psi_series(order, 6)
    psi3 = psi_series(order, 3)
    for _ in range(3):
        base = base.div(psi3)
    return base**5


def pdo_series(order: int) -> PdoTable:
    """PDO(0..order-1) read off the delta expansion."""
    return PdoTable(delta_series(order).coeffs)


def pdo_bruteforce(n: int, bound: int = ORACLE_BOUND) -> int:
    """PDO(n) by direct enumeration of odd-part partitions with designations.

    Each partition contributes the product of its part multiplicities (one
    designated occurrence per distinct part).  Exponential; guarded by
    ``bound`` since it only exists to cross-check the series route.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > bound:
        raise ValueError(f"oracle range exceeded: n={n} > bound={bound}")

    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        part = min(largest, remaining)
        if part % 2 == 0:
            part -= 1
        while part >= 1:
            for mult in range(1, remaining // part + 1):
                total += mult * count(remaining - mult * part, part - 2)
            part -= 2
        return total

    return count(n, n)
