"""Polynomial algebra in the Hauptmodul xi.

The degree-two unitization zeta_{i,j} = U(kappa^i xi^j) lands in Z[xi] for all
i, j >= 0.  Six initial unitizations are known exactly; everything else follows
from two linear recurrences built on the symmetric functions of alpha(q) and
alpha(-q) for alpha in {kappa, xi}:

    zeta_{i,j} = sigma_{kappa,1} * zeta_{i-1,j} - sigma_{kappa,2} * zeta_{i-2,j}   (i >= 2)
    zeta_{i,j} = sigma_{xi,1}    * zeta_{i,j-1} - sigma_{xi,2}    * zeta_{i,j-2}   (j >= 2)

An XiPoly is one dense row, since every polynomial the towers build fills its
whole degree span; its products and powers are Series products of the rows,
zero-padded so that truncation drops nothing.

unitize(p, i) = U(kappa^i p(xi)) walks the rows zeta_{i,j} in j, two live at a
time, from the columns zeta_{i,0}, zeta_{i,1}.  On top of it sit two towers:
lambda_poly(k) represents the slice gamma^{2^{k-2}} * sum PDO(2^k n) q^n, and
phi_poly(k) the internal difference gamma^{2^k} * sum (PDO(2^{k+2} n) - PDO(2^k n))
q^n.  Every polynomial here converts back to a q-series through poly_to_series
for cross-validation against direct unitization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .etaq import xi_series
from .series import Series

TermSource = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def _pad(start: int, coeffs: tuple[int, ...], low: int, high: int) -> tuple[int, ...]:
    """coeffs placed from degree start on, zero-filled to cover degrees low .. high - 1."""
    return (0,) * (start - low) + coeffs + (0,) * (high - start - len(coeffs))


class XiPoly:
    """Polynomial in xi over exact integers, stored as one dense row.

    ``coeffs`` holds the coefficients of xi^low, xi^(low+1), ... and is trimmed
    to its first and last nonzero entries; the zero polynomial is low 0 and
    coeffs ().  Values are immutable after construction.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, terms: TermSource = ()):
        dense: list[int] = []
        for deg, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if deg < 0:
                raise ValueError(f"negative degree {deg}")
            dense += [0] * (deg + 1 - len(dense))
            dense[deg] += coeff
        row = self._row(0, dense)
        self.low, self.coeffs = row.low, row.coeffs

    @classmethod
    def _row(cls, low: int, coeffs: Sequence[int]) -> "XiPoly":
        """sum_t coeffs[t] xi^(low + t), trimmed to its first and last nonzero entries."""
        nonzero = [t for t, c in enumerate(coeffs) if c]
        out = cls.__new__(cls)
        if nonzero:
            out.low, out.coeffs = low + nonzero[0], tuple(coeffs[nonzero[0] : nonzero[-1] + 1])
        else:
            out.low, out.coeffs = 0, ()
        return out

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "XiPoly":
        return cls({degree: coeff})

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Nonzero (degree, coefficient) pairs, ascending in degree."""
        return tuple((self.low + t, c) for t, c in enumerate(self.coeffs) if c)

    def coeff(self, degree: int) -> int:
        t = degree - self.low
        return self.coeffs[t] if 0 <= t < len(self.coeffs) else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Largest degree with a nonzero coefficient; None for the zero polynomial."""
        return self.low + len(self.coeffs) - 1 if self.coeffs else None

    def min_degree(self) -> int | None:
        """Smallest degree with a nonzero coefficient; None for the zero polynomial."""
        return self.low if self.coeffs else None

    def term_count(self) -> int:
        """Number of nonzero coefficients."""
        return len(self.coeffs) - self.coeffs.count(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "XiPoly") -> "XiPoly":
        if not isinstance(other, XiPoly):
            return NotImplemented
        if not (self.coeffs and other.coeffs):
            return self if self.coeffs else other
        low = min(self.low, other.low)
        high = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        a = _pad(self.low, self.coeffs, low, high)
        b = _pad(other.low, other.coeffs, low, high)
        return XiPoly._row(low, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "XiPoly") -> "XiPoly":
        if not isinstance(other, XiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "XiPoly":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return XiPoly._row(self.low, [c * other for c in self.coeffs])
        if not isinstance(other, XiPoly):
            return NotImplemented
        n = len(self.coeffs) + len(other.coeffs) - 1
        product = Series(_pad(0, self.coeffs, 0, n)) * Series(_pad(0, other.coeffs, 0, n))
        return XiPoly._row(self.low + other.low, product.coeffs)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "XiPoly":
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        n = e * (len(self.coeffs) - 1) + 1
        return XiPoly._row(self.low * e, (Series(_pad(0, self.coeffs, 0, n)) ** e).coeffs)

    # -- serialization -------------------------------------------------------

    def to_records(self) -> list[dict]:
        """Degree-ascending records; coefficients as decimal strings (they
        routinely exceed 64-bit range)."""
        return [{"degree": d, "coefficient": str(c)} for d, c in self.terms()]

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "XiPoly":
        return cls((int(r["degree"]), int(r["coefficient"])) for r in records)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, XiPoly) and (self.low, self.coeffs) == (other.low, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.low, self.coeffs))

    def __repr__(self) -> str:
        return f"XiPoly({dict(self.terms())!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for deg, coeff in self.terms():
            mag = str(abs(coeff)) if deg == 0 else (
                f"{abs(coeff)}*" if abs(coeff) != 1 else ""
            ) + (f"xi^{deg}" if deg > 1 else "xi")
            parts.append(("- " if coeff < 0 else "+ " if parts else "") + mag)
        return " ".join(parts)


ZERO = XiPoly()
ONE = XiPoly({0: 1})


@dataclass(frozen=True)
class SigmaPair:
    """sigma1 = alpha(q) + alpha(-q) and sigma2 = alpha(q) alpha(-q), as
    polynomials in xi; equivalently sigma1 = 2 U(alpha) and
    sigma2 = 2 U(alpha)^2 - U(alpha^2)."""

    sigma1: XiPoly
    sigma2: XiPoly


_SIGMA = {
    "kappa": SigmaPair(XiPoly({3: 10, 4: -40, 5: 32}), XiPoly({5: 1})),
    "xi": SigmaPair(XiPoly({1: 10, 2: -8}), XiPoly({1: 9, 2: -8})),
}


def sigma_pair(which: str) -> SigmaPair:
    try:
        return _SIGMA[which]
    except KeyError:
        raise ValueError(f"unknown sigma pair {which!r}; expected 'kappa' or 'xi'") from None


def zeta_initial() -> dict[tuple[int, int], XiPoly]:
    """The six known base unitizations U(kappa^i xi^j), (i,j) with i+j <= 2."""
    return {
        (0, 0): ONE,
        (1, 0): XiPoly({3: 5, 4: -20, 5: 16}),
        (0, 1): XiPoly({1: 5, 2: -4}),
        (2, 0): XiPoly({5: -1, 6: 50, 7: -400, 8: 1120, 9: -1280, 10: 512}),
        (1, 1): XiPoly({3: 3, 4: -18, 5: 16}),
        (0, 2): XiPoly({1: -9, 2: 58, 3: -80, 4: 32}),
    }


def _step(pair: SigmaPair, a: XiPoly, b: XiPoly) -> XiPoly:
    """sigma1 * a - sigma2 * b, in one pass over the four shifted rows."""
    shifted = [(c, a.low + e, a.coeffs) for e, c in pair.sigma1.terms()]
    shifted += [(-c, b.low + e, b.coeffs) for e, c in pair.sigma2.terms()]
    low = min(s for _, s, _ in shifted)
    high = max(s + len(r) for _, s, r in shifted)
    pad = [_pad(s, r, low, high) for _, s, r in shifted]
    # both sigma pairs have four terms in all, so one fused pass makes the step
    c0, c1, c2, c3 = [c for c, _, _ in shifted]
    return XiPoly._row(low, [c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3 for x0, x1, x2, x3 in zip(*pad)])


def _walk(pair: SigmaPair, first: XiPoly, second: XiPoly) -> Iterator[XiPoly]:
    """Rows 0, 1, 2, ... of sigma1 * row_{n-1} - sigma2 * row_{n-2}, built on demand."""
    b, a = first, second
    yield b
    while True:
        yield a
        b, a = a, _step(pair, a, b)


@lru_cache(maxsize=4)
def _columns(i: int) -> tuple[XiPoly, XiPoly]:
    """zeta_{i,0} and zeta_{i,1}, walked up the kappa recurrence."""
    init, kappa = zeta_initial(), _SIGMA["kappa"]
    walks = (_walk(kappa, init[0, j], init[1, j]) for j in (0, 1))
    return tuple(next(islice(walk, i, None)) for walk in walks)


def unitize(p: XiPoly, i: int) -> XiPoly:
    """U(kappa^i p(xi)) = sum_j c_j zeta_{i,j} for p = sum_j c_j xi^j.

    Walks the xi recurrence in j up from the cached columns zeta_{i,0} and
    zeta_{i,1}, two rows live, adding each c_j * zeta_{i,j} into one dense list.
    """
    if p.is_zero:
        return ZERO
    acc: list[int] = []  # indexed by degree; the zeros below the lowest row cost no arithmetic
    rows = islice(_walk(_SIGMA["xi"], *_columns(i)), p.low, None)
    for c, row in zip(p.coeffs, rows):
        if c:
            s, r = row.low, row.coeffs
            acc += [0] * (s + len(r) - len(acc))
            acc[s : s + len(r)] = [x + c * y for x, y in zip(acc[s : s + len(r)], r)]
    return XiPoly._row(0, acc)


def zeta(i: int, j: int) -> XiPoly:
    """U(kappa^i xi^j) as an exact polynomial in xi."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be nonnegative, got ({i}, {j})")
    return unitize(XiPoly.monomial(j), i)


def gamma6_poly() -> XiPoly:
    """gamma^6 as a degree-15 polynomial in xi (cross-checked at q-level by
    the identity suite)."""
    return XiPoly({10: 59049, 11: -262440, 12: 466560, 13: -414720, 14: 184320, 15: -32768})


@lru_cache(maxsize=None)
def lambda_poly(k: int) -> XiPoly:
    """The k-th dissection slice gamma^{2^{k-2}} sum PDO(2^k n) q^n in Z[xi].

    lambda_poly(2) = 3 xi^2 - 2 xi^3; each further level unitizes against
    kappa^{2^{k-3}}, i.e. pushes the whole polynomial through unitize.
    """
    if k < 2:
        raise ValueError(f"lambda tower starts at k=2, got {k}")
    if k == 2:
        return XiPoly({2: 3, 3: -2})
    return unitize(lambda_poly(k - 1), 2 ** (k - 3))


@lru_cache(maxsize=None)
def phi_poly(k: int) -> XiPoly:
    """The internal-difference slice gamma^{2^k} sum (PDO(2^{k+2}n) - PDO(2^k n)) q^n.

    Computed from the recurrences: the base case as lambda_poly(5) - gamma^6 *
    lambda_poly(3), and each further level by unitizing against
    kappa^{2^{k-1}}.  :func:`phi_poly_direct` gives the independent route used
    by the consistency tests.
    """
    if k < 3:
        raise ValueError(f"phi tower starts at k=3, got {k}")
    if k == 3:
        return lambda_poly(5) - gamma6_poly() * lambda_poly(3)
    return unitize(phi_poly(k - 1), 2 ** (k - 1))


def phi_poly_direct(k: int) -> XiPoly:
    """phi via the defining difference lambda_{k+2} - (gamma^6)^{2^{k-3}} lambda_k."""
    if k < 3:
        raise ValueError(f"phi tower starts at k=3, got {k}")
    return lambda_poly(k + 2) - gamma6_poly() ** (2 ** (k - 3)) * lambda_poly(k)


@lru_cache(maxsize=32)
def _xi_power(order: int, degree: int) -> Series:
    if degree == 0:
        return Series.one(order)
    if degree == 1:
        return xi_series(order)
    return _xi_power(order, degree - 1) * xi_series(order)


def poly_to_series(p: XiPoly, order: int) -> Series:
    """Substitute the q-expansion of xi into p, exactly, truncated to order.

    The last 32 powers of xi are cached (the zeta cross-validation grid at one
    order uses 16), so a family of polynomials evaluated in ascending degree
    costs one series product per distinct degree.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    acc = Series.zero(order)
    for deg, c in p.terms():
        acc = acc + _xi_power(order, deg) * c
    return acc
