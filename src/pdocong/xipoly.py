"""Polynomial algebra in the Hauptmodul xi.

The degree-two unitization zeta_{i,j} = U(kappa^i xi^j) lands in Z[xi] for all
i, j >= 0.  Six initial unitizations are known exactly.  Since

    zeta_{i,j}(xi(q^2)) = (kappa(q)^i xi(q)^j + kappa(-q)^i xi(-q)^j) / 2,

with kappa(q) kappa(-q) = xi(q^2)^5 and xi(q) xi(-q) = 9 xi(q^2) - 8 xi(q^2)^2,
everything else follows from two exact rules: the linear recurrence in j built
on the symmetric functions sigma_{xi,1} = xi(q) + xi(-q) = 10 xi - 8 xi^2 and
sigma_{xi,2} = xi(q) xi(-q) = 9 xi - 8 xi^2,

    zeta_{i,j} = sigma_{xi,1} * zeta_{i,j-1} - sigma_{xi,2} * zeta_{i,j-2}   (j >= 2),

and the doubling identity, for a >= c and b >= d,

    zeta_{a+c,b+d} = 2 zeta_{a,b} zeta_{c,d} - xi^{5c} sigma_{xi,2}^d zeta_{a-c,b-d}.

An XiPoly is one dense row, since every polynomial the towers build fills its
whole degree span.  A product of two rows runs, unpadded, on the walk or the
Kronecker kernel that Series products use; a power is the Series power of the
row.

unitize(p, i) = U(kappa^i p(xi)) walks the rows zeta_{i,j} in j, two live at a
time, from the pair zeta_{i,j0}, zeta_{i,j0+1}, where j0 is p's lowest degree
with all but its four leading bits cleared (0 below 16), so fewer than
max(16, p.low / 8) rows below p.low are walked.  The pair takes one step of
the doubling identity from the cached pair at (floor(i/2), floor(j0/2)),
built the same way down to the initial table, so no recurrence runs through
every smaller i or through the rows below j0.  From one tower level to the
next i doubles and the lowest degree about doubles (427 = 2 * 214 - 1), so
the start row doubles too (416 = 2 * 208) and the ladder finds the pair below
cached: from phi_6 and lambda_8 on, each level's pair is one step.

The walk runs on the rows' 2-adic and 3-adic floors.  With n = 5i + j, the
row zeta_{i,j} starts at d_min(i, j) = (n + 1) // 2, it is a stay row,
d_min(i, j+1) = d_min(i, j), iff n is odd (so stay rows and other rows
alternate, and 2 d_min(i, j) - stay = n), and its 3-adic top is
T = j + floor(5i/2), whose head T - d_min(i, j) is (j - (i & 1)) // 2.

Floor lemma.  For all i, j >= 0, zeta_{i,j} vanishes below d_min(i, j) and is
odd there; its coefficient at offset M above d_min(i, j) is divisible by
2^f(M), with f(0) = 0 and f(M) = 2M - 1 + stay for M >= 1, and its
coefficient of xi^D by 9^max(0, T - D); on a row that is not a stay row the
offset-1 coefficient carries 2^1 exactly iff i + j == 2 mod 4 (the Z-profile
rule in padic; on a stay row f(1) = 2 already).  Proof: the four cells
i, j <= 1 of zeta_initial satisfy it, and every other cell is a sum of
monomial multiples c xi^s of cells before it,

    in i (j <= 1):  zeta_{i+2,j} = 2 zeta_{1,0} zeta_{i+1,j} - xi^5 zeta_{i,j},
    in j (j >= 2):  zeta_{i,j} = (10 xi - 8 xi^2) zeta_{i,j-1} - (9 xi - 8 xi^2) zeta_{i,j-2},

the doubling identity at c = 1, d = 0, with 2 zeta_{1,0} = 10 xi^3 - 40 xi^4
+ 32 xi^5, and the sigma recurrence.  A term takes offset M of its source to
offset M + s + d_min(source) - d_min(target), never below 0, and keeps both
floors term by term: nu_2(c) + f_source(M) is at least f_target at that
offset, both sides growing by 2 per step of M from M = 1 on, and
nu_3(c) >= 2 (T_target - T_source - s) wherever that is positive (the one
such term is -9 xi, from row j-2).  Mod 2 only the terms that meet a floor
exactly count: the target's offset-0 entry is an odd entry times -1 or -9,
plus an even term, so it is odd, and on a row that is not a stay row its
floored offset-1 entry is 1 plus the floored offset-1 entry of the cell two
steps back, with i + j two less, which is not a stay row either: it flips as
i + j == 2 mod 4 does.
Every quantity in these cases depends on (i, j) only through i mod 4 and
j mod 4, so finitely many cases decide every cell (tests/test_floor_lemma.py
runs each, and both recurrences on exact rows).

The walk stores each entry divided by both floors (the storage rule is
_floored's); the entries below T are the row's head.  On the rows of the
phi_9 step the powers of 2 are 29% of the bits and the powers of 3 another
38% of what is left.  The recurrence maps floored rows to floored rows with
small integer coefficients (_next_row): in the head a factor 9 moves from a
term of row j-1 to a term of row j, so the walk never divides; the one
division is the checked one that floors the pair, which raises
ArithmeticError naming the offset if a floor fails.

unitize adds c_j times row j into accumulators kept in 4-adic slot
coordinates: slot t, the coefficient of xi^(d_min(i, p.low) + t), is held in
units of 2^(2t + E).  Entry M of row j lands in slot t, and times c_j it is
an integer times 2^(2t + e_j), with e_j the same for the whole row, so the
row takes one multiplier, the odd part of c_j times 2^(e_j - E), and each
entry costs one multiply and one add: the tower's coefficients carry
hundreds of trailing zero bits, which never go through a product or a shift
per entry.
E is the base of the live band: while e_j - E stays in [0, 60) the rows add
into it, and a row outside merges it into running totals, held in units of
2^(2t + e0) for the least e_j, and opens the next band at its own e_j.  One
shift per coefficient at the end scales the totals back.  The tower's
coefficients carry powers of 3 too: at every step of the lambda and phi
towers against kappa^i, 3^(5i - 2j) divides c_j (by induction from lambda_3
and phi_3, since a step with i even takes that floor to 3^(10i - 2D)).  So
each head goes into a second accumulator, in the same units and bands, that
holds coefficient D times 3^(2D - A*), and row j's whole head takes one
multiplier, (c_j / 3^a_j) 3^(A_j - A*) shifted like the tail's, with
a_j = 5i - 2j checked by one divisibility test (0 if it fails),
A_j = 2 T_j + a_j and A* the least A_j.  Each head coefficient is restored
once by 3^(A* - 2D).  Where that divides, it
divides exactly: every row j in the sum has D < T_j, so its term carries
3^(A_j - 2D) with A_j - 2D = 2 (T_j - D) + a_j > 0, and the powers of 2 of
the slot units leave the powers of 3 alone.  The tails add into the first
accumulator as they are.

The ladder multiplies zeta rows in the walk's format too: _ladder_product
floors both operands through _floored (head 0, so by their powers of 2
only), which checks every entry against the lemma, and multiplies the
floored rows, whose entries are about half as wide as the row's.
On top of it sit two towers:
lambda_poly(k) represents the slice gamma^{2^{k-2}} * sum PDO(2^k n) q^n, and
phi_poly(k) the internal difference gamma^{2^k} * sum (PDO(2^{k+2} n) - PDO(2^k n))
q^n.  lambda_poly walks up from lambda_2 on every call and keeps no level;
phi_poly keeps the last eight levels asked for.  Every polynomial here converts
back to a q-series through poly_to_series for cross-validation against direct
unitization.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, count, islice
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .etaq import xi_series
from .series import Series, _product

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
        start, stop = 0, len(coeffs)
        while start < stop and not coeffs[start]:
            start += 1
        while stop > start and not coeffs[stop - 1]:
            stop -= 1
        out = cls.__new__(cls)
        if start < stop:
            out.low, out.coeffs = low + start, tuple(coeffs[start:stop])
        else:
            out.low, out.coeffs = 0, ()
        return out

    @classmethod
    def monomial(cls, degree: int) -> "XiPoly":
        return cls({degree: 1})

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
        return XiPoly._row(self.low + other.low, _product(self.coeffs, other.coeffs, n))

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
        return "".join(self.str_pieces())

    def str_pieces(self) -> Iterator[str]:
        """The text of str(self), one piece per term, so that a large
        polynomial can be written out without its whole text in memory."""
        if not self.coeffs:
            yield "0"
        sep = ""
        for deg, coeff in self.terms():
            mag = str(abs(coeff)) if deg == 0 else (
                f"{abs(coeff)}*" if abs(coeff) != 1 else ""
            ) + (f"xi^{deg}" if deg > 1 else "xi")
            yield sep + ("- " if coeff < 0 else "+ " if sep else "") + mag
            sep = " "


ZERO = XiPoly()
ONE = XiPoly({0: 1})


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


def d_min(i: int, j: int) -> int:
    """Minimal xi-degree of zeta_{i,j}, ceil((5i + j)/2), where the coefficient
    is odd (the floor lemma, module docstring)."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be nonnegative, got ({i}, {j})")
    return (5 * i + j + 1) // 2


def _floored(row: XiPoly, base: int, stay: bool, head: int) -> list[int]:
    """The coefficients of row at offsets M = 0, 1, ... above base, each divided
    by 2^(2M - 1 + stay) * 9^max(0, head - M) (the floor lemma, module
    docstring; ``head`` is T - base).

    The one storage rule of the walk: M = 0 included, so entry 0 of a row
    that is not a stay row, whose 2-floor is f(0) = 0, is held doubled.  A
    guard on the lemma: raises ArithmeticError naming the offset if a
    coefficient sits below base or is not divisible by either floor.
    """
    if row.coeffs and row.low < base:
        raise ArithmeticError(f"offset {row.low - base}: nonzero coefficient below base degree {base}")
    out = [0] * (row.low - base) + list(row.coeffs)
    for m in range(1, len(out)):
        f = 2 * m - 1 + stay
        if out[m] & ((1 << f) - 1):
            v = (out[m] & -out[m]).bit_length() - 1
            raise ArithmeticError(f"offset {m} above degree {base}: valuation {v} below floor {f}")
        out[m] >>= f
    for m in range(min(head, len(out))):
        out[m], rest = divmod(out[m], 9 ** (head - m))
        if rest:
            v = next(v for v in count() if rest % 3 ** (v + 1))
            floor = 2 * (head - m)
            raise ArithmeticError(f"offset {m} above degree {base}: 3-adic valuation {v} below floor {floor}")
    if not stay:
        out[0] <<= 1
    return out


def _next_row(alpha: list[int], beta: list[int], stay: bool, head: int) -> list[int]:
    """Floored row j+1 of the xi recurrence from floored rows j (alpha) and j-1 (beta).

    ``stay`` says whether row j is a stay row and ``head`` is row j's head
    (see _floored); the rows alternate, so row j+1 is a stay row exactly when
    row j is not, and its head h is head + stay.  Take q = beta, and
    p_M = alpha_{M-1} after a stay row (row j+1 starts where row j does, row
    j-1 one degree lower) or p = alpha after any other row.  Past the head,
    M > h, entry M of the new row is 5 p_M - p_{M-1} - 9 q_M + 2 q_{M-1},
    formed as 5 w_M + q_M - w_{M-1} with w_M = p_M - 2 q_M.  Below it, M < h,
    the 3-floors move the 9 from q_M to p_{M-1}: a_M - 2 a_{M-1} + p_{M-1}
    with a_M = 5 p_M - q_M; at M = h both carry it.  Every entry is a
    small-integer combination: the walk never divides.
    """
    p = [0] * stay + alpha
    n = max(len(p), len(beta)) + 1
    p += [0] * (n - len(p))
    q = beta + [0] * (n - len(beta))
    h = max(head + stay, -1)
    a = [5 * x - y for x, y in zip(p[: h + 1], q)]
    row = [z - (w << 1) + x for z, w, x in zip(a[:h], [0, *a], [0, *p])]
    edge = 0 <= h < n
    if edge:
        row.append(a[h] - (q[h] << 3) - ((a[h - 1] << 1) - p[h - 1] if h else 0))
    w = [x - (y << 1) for x, y in zip(p[h + 1 :], q[h + 1 :])]
    row += [5 * x + y - z for x, y, z in zip(w, q[h + 1 :], [p[h] - (q[h] << 1) if edge else 0, *w])]
    while row and not row[-1]:
        row.pop()
    return row


def _floored_rows(i: int, j: int) -> Iterator[tuple[int, list[int]]]:
    """(d_min, floored row) for zeta_{i,j}, zeta_{i,j+1}, ..., built on demand
    from the ladder's pair at (i, j)."""
    # the row geometry of the module docstring; the head grows by one after
    # each stay row
    base, stay, head = d_min(i, j), (5 * i + j) & 1 == 1, (j - (i & 1)) // 2
    first, second = _pair(i, j)
    beta = _floored(first, base, stay, head)
    yield base, beta
    base, head, stay = base + (not stay), head + stay, not stay
    alpha = _floored(second, base, stay, head)
    while True:
        yield base, alpha
        alpha, beta = _next_row(alpha, beta, stay, head), alpha
        base, head, stay = base + (not stay), head + stay, not stay


def _sigma_power(shift: int, d: int) -> XiPoly:
    """xi^shift * (9 - 8 xi)^d, each binomial term from the one before:
    term k is comb(d, k) 9^(d - k) (-8)^k, and term k + 1 is term k times
    -8 (d - k), which 9 (k + 1) then divides exactly."""
    terms = accumulate(range(d), lambda t, k: t * (-8 * (d - k)) // (9 * (k + 1)), initial=9**d)
    return XiPoly._row(shift, list(terms))


def _times_power_of_two(c: int, e: int, slot: int = 0) -> int:
    """c * 2^e, checked: for e < 0 raises ArithmeticError naming ``slot`` and
    e unless 2^-e divides c."""
    if e < 0 and c & ((1 << -e) - 1):
        raise ArithmeticError(f"slot {slot}: valuation {(c & -c).bit_length() - 1} too low to scale by 2^{e}")
    return c << e if e >= 0 else c >> -e


def _ladder_product(a: XiPoly, cell_a: tuple[int, int], b: XiPoly, cell_b: tuple[int, int]) -> XiPoly:
    """2 a b for the zeta rows a at cell_a = (i, j) and b at cell_b, multiplied
    on their floored rows.

    _floored(row, d_min(i, j), stay, 0) holds entry M of a row in units of
    2^(2M - 1 + stay), entry 0 included, so entry n of 2 a b above
    d_min(cell_a) + d_min(cell_b) is 2^(stay_a + stay_b - 1 + 2n) times entry
    n of the floored rows' product (at n = 0 on two rows that are not stay
    rows that entry holds 4 a_0 b_0, and the shift of -1 halves it).  Both
    operands pass _floored's check, so a broken ladder level raises
    ArithmeticError naming the offset and base there.  When ``b is a`` the
    one floored row goes to the kernel twice, so it is packed once.
    """
    (i_a, j_a), (i_b, j_b) = cell_a, cell_b
    stay_a, stay_b = (5 * i_a + j_a) & 1 == 1, (5 * i_b + j_b) & 1 == 1
    big_a = _floored(a, d_min(i_a, j_a), stay_a, 0)
    big_b = big_a if b is a else _floored(b, d_min(i_b, j_b), stay_b, 0)
    product = _product(big_a, big_b, len(big_a) + len(big_b) - 1)
    e = stay_a + stay_b - 1
    back = [_times_power_of_two(x, e + 2 * n, n) for n, x in enumerate(product)]
    return XiPoly._row(d_min(i_a, j_a) + d_min(i_b, j_b), back)


# every level of every ladder is kept: one tower iteration (phi_3 .. phi_9,
# phi_poly_direct(9) and the Z-profile cells) reads 19 pairs, 0.65 MB in all
@lru_cache(maxsize=32)
def _pair(i: int, j: int) -> tuple[XiPoly, XiPoly]:
    """zeta_{i,j} and zeta_{i,j+1}, one doubling step from the cached pairs
    at half (i, j).

    Multiplying out the halves of zeta_{a,b} zeta_{c,d} (module docstring),
    the cross terms are (kappa(q) kappa(-q))^c (xi(q) xi(-q))^d times the halves
    of zeta_{a-c,b-d}, with kappa(q) kappa(-q) = xi^5 and
    xi(q) xi(-q) = sigma_{xi,2} = 9 xi - 8 xi^2 in the variable xi(q^2).  So for
    a >= c and b >= d

        zeta_{a+c,b+d} = 2 zeta_{a,b} zeta_{c,d} - xi^{5c} sigma_{xi,2}^d zeta_{a-c,b-d}.

    Take c = floor(i/2), r = i mod 2 and g = floor(j/2).  Each cell n of the
    pair, n in {j, j+1}, splits as n = b + d with d = floor(n/2) and
    b = n - d in {d, d + 1}: it is zeta_{c+r,b} zeta_{c,d} doubled less
    xi^{5c} sigma_{xi,2}^d zeta_{r,b-d}, the last factor an initial value.
    Both b and d lie in {g, g + 1}, so the pair at (i, j) needs only
    _pair(c, g) and, for odd i, _pair(c + 1, g).  The recursion ends at
    i <= 1, j = 0, in the initial table.  unitize's start rows halve with i,
    so a tower level's ladder finds the one below it in the cache and takes
    one step.  Both zeta factors of each cell go through _ladder_product,
    which multiplies their floored rows and so checks each against the
    floor lemma; for even i both factors of a square are the same cached
    row, so it is floored and packed once.  The cross term's right factor
    has at most three terms, so it is a plain product.
    """
    init = zeta_initial()
    if i <= 1 and not j:
        return init[i, 0], init[i, 1]
    c, r = i >> 1, i & 1
    g = j >> 1
    lows = _pair(c, g)  # zeta_{c,g}, zeta_{c,g+1}
    highs = _pair(c + 1, g) if r else lows  # zeta_{c+r,g}, zeta_{c+r,g+1}

    def cell(n: int) -> XiPoly:
        d = n >> 1
        b = n - d
        cross = _sigma_power(5 * c + d, d) * init[r, b - d]
        return _ladder_product(highs[b - g], (c + r, b), lows[d - g], (c, d)) - cross

    return cell(j), cell(j + 1)


# a row's multiplier is shifted left by at most _BAND - 1 bits; a row further
# from the live band opens a new one.  unitize(phi_poly(8), 256) with its pair
# cached, 21 interleaved calls on one Xeon core: 0.141-0.145 s best for bands
# of 45, 60, 90 and 120 bits against 0.157 s with a shift per entry; in a
# second run one band from the least e_j, whose multipliers widen by up to
# 670 bits, took 0.177 s against 0.157 s for 60 bits
_BAND = 60


def _merge(total: list[int], live: list[int], e: int) -> None:
    """total += live * 2^e entry by entry (e >= 0), total grown to cover live;
    live is emptied."""
    total += [0] * (len(live) - len(total))
    total[: len(live)] = [x + (y << e) for x, y in zip(total, live)]
    live.clear()


def _start_row(low: int) -> int:
    """The row where unitize's walk starts for a polynomial of lowest degree
    low: low with all but its four leading bits cleared, 0 below 16.  The
    tower's lowest degree about halves from one level to the next (427, 214,
    107, ...), and so do these start rows (416, 208, 104, ...), so each
    level's ladder finds the pair below it cached."""
    shift = low.bit_length() - 4
    return low >> shift << shift if shift > 0 else 0


def unitize(p: XiPoly, i: int) -> XiPoly:
    """U(kappa^i p(xi)) = sum_j c_j zeta_{i,j} for p = sum_j c_j xi^j.

    Walks the floored rows of zeta_{i,j} in j up from the pair at
    j0 = _start_row(p.low), two rows live.  Slot t of each accumulator is
    the coefficient of xi^(base + t), base = d_min(i, p.low), held in units
    of 2^(2t + E) for the live band's base E: entry M of row j lands in slot
    t = s_j + M, s_j = d_min(i, j) - base, and _floored holds it in units of
    2^(2M - 1 + stay_j), so times c_j it is an integer times 2^(2t + e_j)
    with e_j = nu_2(c_j) - 1 + stay_j - 2 s_j = nu_2(c_j) - j + 2 base - 1
    - 5i (as 2 d_min(i, j) - stay_j = 5i + j).  So the whole row takes one
    multiplier, c * 2^(e_j - E) past the head and
    m_j * 2^(e_j - E) in it, with c the odd part of c_j and
    m_j = (c / 3^a_j) 3^(A_j - A*) (module docstring), and each entry costs
    one multiply and one add.  A row with e_j outside [E, E + _BAND) merges
    the live band into running totals held in units of 2^(2t + e0), e0 the
    least e_j, and opens a new band at E = e_j; the first band opens at e0.

    Exact: every contribution to slot t carries 2^(2t + e_j) and
    e0 <= E <= e_j, so every stored value is an integer, and the final shift
    by 2t + e0 is exact where it divides, since it yields an integer
    coefficient.  Scaling by powers of 2 leaves the powers of 3 alone, so the
    heads' restoration by 3^(A* - 2D) still divides exactly.  Both divisions
    are checked: one that leaves a remainder raises ArithmeticError naming
    the slot and the exponent.
    """
    if p.is_zero:
        return ZERO
    j0 = _start_row(p.low)
    base = d_min(i, p.low)
    top = 5 * i // 2
    # a_j = 5i - 2j where that 3-floor holds, else 0 (one test per row), and
    # A* the least A_j = 2 (j + top) + a_j over the nonzero c_j
    tower_floors = count(5 * i - 2 * p.low, -2)
    floors = [a if a > 0 and not c % 3**a else 0 for a, c in zip(tower_floors, p.coeffs)]
    a_star = min(2 * (j + top) + a for j, a, c in zip(count(p.low), floors, p.coeffs) if c)
    # e_j = nu_2(c_j) - j + lift, and e0 the least e_j
    lift = 2 * base - 1 - 5 * i
    e0 = band = min((c & -c).bit_length() - 1 - j + lift for j, c in zip(count(p.low), p.coeffs) if c)
    acc: list[int] = []  # the live band's tails: acc[t] in units of 2^(2t + band)
    heads: list[int] = []  # its heads, each times 3^(2(base + t) - A*)
    tail_total: list[int] = []  # the closed bands, in units of 2^(2t + e0)
    head_total: list[int] = []
    rows = islice(_floored_rows(i, j0), p.low - j0, None)
    for j, c, a, (low, row) in zip(count(p.low), p.coeffs, floors, rows):
        if c:
            v = (c & -c).bit_length() - 1
            e = v - j + lift
            if not band <= e < band + _BAND:
                _merge(tail_total, acc, band - e0)
                _merge(head_total, heads, band - e0)
                band = e
            c >>= v
            s, n = low - base, len(row)
            h = min(max(j + top - low, 0), n)
            acc += [0] * (s + n - len(acc))
            m = c << (e - band)
            if h:
                heads += [0] * (s + h - len(heads))
                m_head = c // 3**a * 3 ** (2 * (j + top) + a - a_star) << (e - band)
                heads[s : s + h] = [x + m_head * y for x, y in zip(heads[s : s + h], row)]
            acc[s + h : s + n] = [x + m * y for x, y in zip(acc[s + h : s + n], row[h:])]
    _merge(tail_total, acc, band - e0)
    _merge(head_total, heads, band - e0)
    # coefficient t is tail_total[t] + head_total[t] 3^(A* - 2(base + t)), a
    # multiply or a checked exact division, then times 2^(2t + e0); in place,
    # so no second list of coefficients is alive (the phi_9 step's traced peak
    # is 0.56 MB this way, 0.77 MB with the live band and a scaled copy kept)
    e = a_star - 2 * base
    for t, x in enumerate(head_total):
        if x:
            if e < 0 and x % 3**-e:
                v = next(v for v in count() if x % 3 ** (v + 1))
                raise ArithmeticError(f"slot {t}: 3-adic valuation {v} too low to scale by 3^{e}")
            tail_total[t] += x * 3**e if e >= 0 else x // 3**-e
        e -= 2
    head_total.clear()
    for t, x in enumerate(tail_total):
        tail_total[t] = _times_power_of_two(x, 2 * t + e0, t)
    return XiPoly._row(base, tail_total)


def zeta(i: int, j: int) -> XiPoly:
    """U(kappa^i xi^j) as an exact polynomial in xi."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be nonnegative, got ({i}, {j})")
    return unitize(XiPoly.monomial(j), i)


def gamma6_poly() -> XiPoly:
    """gamma^6 as a degree-15 polynomial in xi (cross-checked at q-level by
    the identity suite)."""
    return XiPoly({10: 59049, 11: -262440, 12: 466560, 13: -414720, 14: 184320, 15: -32768})


# lambda_2 = 3 xi^2 - 2 xi^3, the foot of the lambda tower
_LAMBDA_2 = XiPoly({2: 3, 3: -2})


def _lambda_tower() -> Iterator[XiPoly]:
    """lambda_2, lambda_3, ...: each level k after _LAMBDA_2 unitizes the one
    below against kappa^{2^{k-3}}."""
    p = _LAMBDA_2
    for k in count(3):
        yield p
        p = unitize(p, 2 ** (k - 3))


def lambda_poly(k: int) -> XiPoly:
    """The k-th dissection slice gamma^{2^{k-2}} sum PDO(2^k n) q^n in Z[xi].

    No level is cached: each call walks the tower up from lambda_2.
    """
    if k < 2:
        raise ValueError(f"lambda tower starts at k=2, got {k}")
    return next(islice(_lambda_tower(), k - 2, None))


# eight levels cover phi_3 .. phi_10, every level the CLI builds
@lru_cache(maxsize=8)
def phi_poly(k: int) -> XiPoly:
    """The internal-difference slice gamma^{2^k} sum (PDO(2^{k+2}n) - PDO(2^k n)) q^n.

    Computed from the recurrences: the base case as phi_poly_direct(3), that is
    lambda_5 - gamma^6 lambda_3 from one walk up the lambda tower, and each
    further level by unitizing against kappa^{2^{k-1}}.  :func:`phi_poly_direct`
    at k >= 4 gives the independent route used by the consistency tests.  The
    last eight levels asked for are kept.
    """
    if k < 3:
        raise ValueError(f"phi tower starts at k=3, got {k}")
    if k == 3:
        return phi_poly_direct(3)
    return unitize(phi_poly(k - 1), 2 ** (k - 1))


def phi_poly_direct(k: int) -> XiPoly:
    """phi via the defining difference lambda_{k+2} - (gamma^6)^{2^{k-3}} lambda_k,
    both levels from one walk up the lambda tower.

    gamma^6 = xi^5 sigma_{xi,2}^5 = xi^10 (9 - 8 xi)^5, so its power e is
    _sigma_power(10 e, 5 e), one binomial row.
    """
    if k < 3:
        raise ValueError(f"phi tower starts at k=3, got {k}")
    low, _, high = islice(_lambda_tower(), k - 2, k + 1)
    e = 2 ** (k - 3)
    return high - _sigma_power(10 * e, 5 * e) * low


@lru_cache(maxsize=32)
def _xi_power(order: int, degree: int) -> Series:
    """xi(q)^degree truncated to order, for degree >= 1.

    An even degree is the square of its half, the same object twice, so the
    Kronecker kernel packs it once; an odd one is that square times xi.  A
    cold degree d takes at most 2 log2(d) products and nested calls, and the
    products do not depend on what is cached.
    """
    if degree == 1:
        return xi_series(order)
    if degree % 2:
        return _xi_power(order, degree - 1) * _xi_power(order, 1)
    half = _xi_power(order, degree // 2)
    return half * half


def poly_to_series(p: XiPoly, order: int) -> Series:
    """Substitute the q-expansion of xi into p, exactly, truncated to order.

    Each term c xi^d is added into one list of ``order`` coefficients in one
    pass, and the list becomes a ``Series`` once at the end; a constant term
    goes straight into entry 0 and expands no xi.  The last 32 powers of xi
    are cached (the zeta cross-validation grid at one order uses degrees 1 to
    15), so a family of polynomials evaluated in ascending degree costs one
    series product per distinct degree, and a cold degree d at most 2 log2(d).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    acc = [0] * order
    for deg, c in p.terms():
        if deg:
            acc = [a + c * x for a, x in zip(acc, _xi_power(order, deg).coeffs)]
        else:
            acc[0] += c
    return Series(acc)
