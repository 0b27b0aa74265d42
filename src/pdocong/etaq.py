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
have unit coefficients, so their product theta = psi(q) psi(q^3) is cheap, and
two sparse divisions remain, u = theta / E(q^12) first and delta = u / phi(-q^2)
second.  1/E(q^12) = sum p(m) q^(12m) grows slowest, so the pass with E(q^12)
runs on values of at most a few hundred bits instead of the table's full size.
``expand`` is the generic eta-quotient route; it serves arbitrary specs and is
the independent second route for delta, gamma, xi and kappa.  The module also
expands the companion functions gamma, xi and kappa used by the polynomial
tower, and provides a brute-force combinatorial oracle for PDO(n).

Both divisors are series in q^d (d = 12, then 2), so the d residue classes of
the exponent mod d are d independent recurrences.  Each pass packs the d
coefficients of step s, values[s d + r] for 0 <= r < d, into one integer with
lane r at bits r W .. (r + 1) W, a chunk of steps at a time as the division
by the undilated divisor (E(q), then phi(-q)) reads them, and cuts the
quotient back into lanes, one lane of a chunk of steps at a time into its
slice of the output.  The division is the loop of the plain ``Series.div``,
``series._divide``.  The last step's lanes past the order are padded
with zeros.  This is exact: packing is additive and the division forms only
integer combinations of its entries, so the packed quotient is
sum_r 2^(r W) q_r, with q_r the true quotient of lane r, and masking returns
each q_r as long as every one of them, padded lanes included, lies in
[0, 2^W).  They are nonnegative because theta, 1/E(q) = sum p(m) q^m and
1/phi(-q) = sum pbar(m) q^m (pbar counts overpartitions) all are.

For the upper end write R(x) = sum P(k) x^k for the reciprocal (P = p or
pbar) and V_r(x) = sum_m values[m d + r] x^m for lane r of the numerator.
Lane r's quotient at step s is q_r[s] = sum_(m <= s) values[m d + r]
P(s - m), a sum of nonnegative terms, so for 0 < x < 1

    q_r[s] <= x^(-s) V_r(x) R(x).

Put x = e^(-t).  For a decreasing f >= 0, sum_{k>=1} f(k t) <= (1/t)
int_0^inf f.  R(x) = prod 1/(1 - x^k) = exp(sum f(k t)) for p, with
f(u) = -log(1 - e^(-u)), whose integral is pi^2/6; R(x) = prod
(1 + x^k)/(1 - x^k) for pbar, with f(u) = log((1 + e^(-u))/(1 - e^(-u))),
whose integral is pi^2/6 + pi^2/12 = pi^2/4.  Both are

    log R(e^(-t)) <= c^2 / (4t),    c = pi sqrt(2/3) for p, c = pi for pbar.

With M the last step, s <= M and t = c / (2 sqrt(M)) this gives
log q_r[s] <= M t + c^2/(4t) + log V_r(e^(-t)) = c sqrt(M) + log V_r(e^(-t)),
so the width is

    W = ceil(log2 max_r V_r(e^(-t))) + ceil(c sqrt(M) / ln 2) + 2.

(The same step with V_r = 1 gives p(m) <= exp(pi sqrt(2m/3)) and
pbar(m) <= exp(pi sqrt(m)).)  ``_lane_width`` bounds V_r(e^(-t)) from above
by exact integer sums over blocks of at most 1/t steps, each block's sum
times e^(-t (its first step)), so the bound overstates V_r by less than a
factor e; the blocks are combined in the log domain with
``math.log2`` on the ints, which holds for values past the float range.
Since V_r(e^(-t)) <= sum of the numerator, W is never wider than the same
formula with the plain sum in place of V_r.  At M = 0 there is one step
and W is the plain sum's bits plus 2.  The two extra bits absorb the
rounding of the floating-point logarithms.  At order 32000 the widths are
201 and 612 bits, against 209 and 768 from the plain sum; the table's
largest entry has 591.

gamma(q) = E(q)^5 E(q^2)^5 E(q^6)^5 / E(q^3)^15 has exponents that are all
multiples of five, so it is the fifth power of

    G(q) = E(q) E(q^2) E(q^6) / E(q^3)^3 = phi(-q) psi(q) / (E(q^3) phi(-q^3)),

because phi(-q^m) = E(q^m)^2 / E(q^{2m}) and psi(q^m) = E(q^{2m})^2 / E(q^m)
give

    phi(-q) psi(q) = E(q) E(q^2),
    E(q^3) phi(-q^3) = E(q^3)^3 / E(q^6).

``gamma_series`` builds G from one sparse product and two sparse divisions
and takes its fifth power with three dense products, where
``expand(GAMMA, order)`` makes 30 eta passes.  The Hauptmodul

    xi(q) = E(q^2)^5 E(q^6) / (E(q) E(q^3)^5)
          = psi(q)^3 phi(-q) / (psi(q^3) phi(-q^3)^3),

because

    psi(q)^3 phi(-q) = E(q^2)^6 / E(q)^3 * E(q)^2 / E(q^2) = E(q^2)^5 / E(q),
    psi(q^3) phi(-q^3)^3 = E(q^6)^2 / E(q^3) * E(q^3)^6 / E(q^6)^3 = E(q^3)^5 / E(q^6).

``xi_series`` multiplies the sparse products psi(q) phi(-q) and psi(q)^2 and
divides once by psi(q^3) and three times by phi(-q^3), where
``expand(XI, order)`` makes 12 eta passes.  kappa(q) = gamma(q^2)^2 /
gamma(q) is the eta quotient

    kappa(q) = E(q^2)^5 E(q^3)^15 E(q^4)^10 E(q^12)^10 / (E(q)^5 E(q^6)^35),

whose exponents are all multiples of five too.  It is the fifth power of

    T(q) = psi(q) psi(q^2) psi(q^6) / psi(q^3)^3
         = E(q^2) E(q^3)^3 E(q^4)^2 E(q^12)^2 / (E(q) E(q^6)^7),

because psi(q^m) = E(q^{2m})^2 / E(q^m) gives

    psi(q) psi(q^2) psi(q^6) = E(q^2) E(q^4)^2 E(q^12)^2 / (E(q) E(q^6)),
    psi(q^3)^3 = E(q^6)^6 / E(q^3)^3.

``kappa_series`` builds T from two sparse unit-coefficient products and three
divisions by psi(q^3), then takes its fifth power with three dense products,
where ``expand(KAPPA, order)`` makes 80 eta passes.  All four named
quotients come from sparse theta and Euler factors, and every expansion here
divides only by such factors.

``EtaQuotientSpec`` and ``PdoTable`` are frozen records (``_record.Record``).
A spec canonicalizes its factors on construction, so two specs built from the
same factors in any order are equal and hash alike.  Nothing in this module
is memoized: every call builds its series afresh.
"""

from __future__ import annotations

import math
from itertools import chain, count, repeat
from operator import add, lshift
from typing import Callable, Iterable, Iterator, Sequence

from ._record import Record
from .series import Series, _divide

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
# is itself the eta quotient KAPPA below.  gamma_series, xi_series and
# kappa_series build them from theta factors, and the tests check them
# against expand(GAMMA), expand(XI), expand(KAPPA) and kappa's defining
# quotient.
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


def _passes(spec: EtaQuotientSpec) -> Iterator[tuple[int, int]]:
    """The factors (m, e) of spec in the order expand runs their |e| passes:
    the products by ascending m, then the divisions by descending m."""
    yield from ((m, e) for m, e in spec.factors if e > 0)
    yield from ((m, e) for m, e in reversed(spec.factors) if e < 0)


def expand(spec: EtaQuotientSpec, order: int) -> Series:
    """Expand an eta quotient to the requested order, exactly.

    Each factor is applied as |e| sparse multiplication or division passes,
    which keeps the cost near O(order^{3/2}) per factor instead of the dense
    O(order^2) of a generic product.  All multiplications come first, while
    the product is still sparse with small coefficients; the divisions then
    make it dense.  They run from the largest dilation down, E(q^12) before
    E(q^3) before E(q): the reciprocal 1/E(q^m) = sum p(n) q^(m n) grows
    least for the largest m, so the early passes leave the coefficients small
    and only the last ones carry their full size.  This is the rule that also
    orders ``delta_series``' two passes: least growth per divisor term first.
    """
    _check_order(order)
    euler = euler_series(order)
    result = Series.one(order)
    for m, e in _passes(spec):
        factor = euler.dilate(m)
        if e > 0:
            for _ in range(e):
                result = result * factor
        else:
            for _ in range(-e):
                result = result.div(factor)
    return result


# log R(e^-t) <= c^2 / (4t) for R = 1/E(q) with c = pi sqrt(2/3) and for
# R = 1/phi(-q) with c = pi; see the module docstring.
_PARTITION_GROWTH = math.pi * math.sqrt(2 / 3)
_OVERPARTITION_GROWTH = math.pi


def _log2_decayed(sums: list[int], decay: float) -> float:
    """log2 of sum_b sums[b] 2^(-b decay), 0 when every sum is zero."""
    logs = [math.log2(s) - b * decay for b, s in enumerate(sums) if s]
    if not logs:
        return 0.0
    top = max(logs)
    return top + math.log2(sum(2 ** (x - top) for x in logs))


def _lane_width(values: Sequence[int], d: int, growth: float) -> int:
    """Bits that hold every lane of values / divisor(q^d), padded lanes included.

    ``values`` are nonnegative and ``growth`` is the c of the bound
    log R(e^-t) <= c^2 / (4t) on the reciprocal's generating function.  With
    M = (len(values) - 1) // d the last packed step, the one that holds the
    padded lanes, and t = c / (2 sqrt M), the width is
    ceil(log2 max_r V_r(e^-t)) + ceil(c sqrt(M) / ln 2) + 2, V_r(x) the
    generating function of lane r (module docstring).  V_r(e^-t) is bounded
    by the exact sums of blocks of ``block`` steps, each times e^-t to the
    power of its first step.  Two bits of slack absorb the rounding of the
    floating-point logarithms.
    """
    last = (len(values) - 1) // d
    if not last:
        return sum(values).bit_length() + 2
    t = growth / (2 * math.sqrt(last))
    block = max(1, int(1 / t))
    sums = [
        [sum(values[s * d + r : (s + block) * d + r : d]) for s in range(0, last + 1, block)]
        for r in range(d)
    ]
    decay = t * block / math.log(2)
    numerator = max(_log2_decayed(lane, decay) for lane in sums)
    return math.ceil(numerator) + math.ceil(growth * math.sqrt(last) / math.log(2)) + 2


def _pack(values: Sequence[int], d: int, width: int) -> list[int]:
    """Step s holds values[s d + r] at bits r width .. (r + 1) width, 0 <= r < d.

    The last step's lanes past the end of ``values`` are zero.  Lane r is
    added into every step at once, one lane after the other.
    """
    packed = [0] * -(-len(values) // d)
    for r in range(d):
        lane = values[r::d]
        packed[: len(lane)] = map(add, packed, map(lshift, lane, repeat(r * width)))
    return packed


# _lane_quotient packs, and _unpack cuts, this many steps at a time
_UNPACK_CHUNK = 2048


def _unpack(packed: list[int], d: int, width: int) -> list[int]:
    """The d lanes of every step, in order; empties ``packed`` as it goes.

    Steps are taken from the end of ``packed`` in chunks of _UNPACK_CHUNK,
    and each lane of a chunk is read by one list comprehension into its slice
    of the output, so the packed and the unpacked sequence are never both
    alive in full.  The top lane needs no mask: every lane lies in
    [0, 2^width), so nothing is stored above it.
    """
    mask = (1 << width) - 1
    top = (d - 1) * width
    out = [0] * (len(packed) * d)
    while packed:
        start = max(0, len(packed) - _UNPACK_CHUNK)
        chunk = packed[start:]
        del packed[start:]
        stop = (start + len(chunk)) * d
        for r in range(d - 1):
            shift = r * width
            out[start * d + r : stop : d] = [x >> shift & mask for x in chunk]
        out[start * d + d - 1 : stop : d] = [x >> top for x in chunk]
    return out


def _lane_quotient(
    values: list[int], d: int, divisor: Callable[[int], Series], growth: float
) -> list[int]:
    """values / divisor(q^d) to len(values) terms, exactly; empties ``values``.

    ``values`` are nonnegative and ``divisor(n)`` gives the first n
    coefficients of a series whose reciprocal R has nonnegative coefficients
    and log R(e^-t) <= growth^2 / (4t) for t > 0.  The d residue classes mod d
    are independent recurrences, so they run as the d lanes of one packed
    sequence through ``_divide`` against the undilated divisor.  The steps
    are packed _UNPACK_CHUNK at a time, taken off the front of ``values`` as
    the division reads them, so the numerator is held once, in one form or
    the other, beside the quotient.
    """
    order = len(values)
    width = _lane_width(values, d, growth)
    steps = -(-order // d)

    def packed() -> Iterator[int]:
        while values:
            chunk = values[: _UNPACK_CHUNK * d]
            del values[: _UNPACK_CHUNK * d]
            yield from _pack(chunk, d, width)

    out = _unpack(_divide(packed(), divisor(steps).coeffs, steps), d, width)
    del out[order:]
    return out


def delta_series(order: int) -> Series:
    """The PDO generating function, as psi(q) psi(q^3) / E(q^12) / phi(-q^2).

    Equal to ``expand(DELTA, order)``.  theta = psi(q) psi(q^3) is divided
    by E(q^12) in 12 lanes of W1 bits, then by phi(-q^2) in 2 lanes of W2
    bits, each pass one division over the packed steps against the
    undilated divisor.  It is exact because every lane's true quotient,
    padded lanes included, lies in [0, 2^W): theta, 1/E(q) and 1/phi(-q) are
    nonnegative, and each lane's quotient is bounded at x = e^-t by its
    numerator's lane V_r(x) times 1/E(x) or 1/phi(-x), whose logarithms are
    at most pi^2/(6t) and pi^2/(4t); the module docstring proves the bounds.
    Nothing is memoized: each call builds its table afresh.
    """
    _check_order(order)
    theta = list((psi_series(order) * psi_series(order, 3)).coeffs)
    u = _lane_quotient(theta, 12, euler_series, _PARTITION_GROWTH)
    return Series(_lane_quotient(u, 2, phi_minus_series, _OVERPARTITION_GROWTH))


def gamma_series(order: int) -> Series:
    """gamma(q) = G(q)^5, G = phi(-q) psi(q) / (E(q^3) phi(-q^3)).

    G = E(q) E(q^2) E(q^6) / E(q^3)^3 is one sparse product and two sparse
    divisions, by E(q^3) first and by phi(-q^3) second; its fifth power takes
    three dense products.  Equal to ``expand(GAMMA, order)``; see the module
    docstring.  Nothing is memoized: each call builds its series afresh.
    """
    root = phi_minus_series(order) * psi_series(order)
    root = root.div(euler_series(order).dilate(3)).div(phi_minus_series(order, 3))
    return root**5


def xi_series(order: int) -> Series:
    """xi(q) = psi(q)^3 phi(-q) / (psi(q^3) phi(-q^3)^3), the degree-one
    Hauptmodul the polynomial tower is written in.

    The numerator is the product of the sparse products psi(q) phi(-q) and
    psi(q)^2; one division by psi(q^3) and three by phi(-q^3) follow.  Equal
    to ``expand(XI, order)``; see the module docstring.  Nothing is memoized:
    each call builds its series afresh.
    """
    psi, phi = psi_series(order), phi_minus_series(order)
    xi = ((psi * phi) * (psi * psi)).div(psi_series(order, 3))
    phi3 = phi_minus_series(order, 3)
    for _ in range(3):
        xi = xi.div(phi3)
    return xi


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
