"""Exact arithmetic on truncated formal power series in q.

A :class:`Series` stores the first ``order`` coefficients (of q^0 .. q^{order-1})
as plain Python integers.  Every operation is exact; binary operations truncate
to the shorter operand, so no coefficient is ever fabricated beyond known data.
Values are immutable after construction and safe to share across threads.

A product takes one of two paths, chosen from the operands' nonzero counts.
Sparse operands (eta and theta factors) are multiplied by a walk over the
nonzero terms.  Dense operands go to ``_kronecker``: both coefficient lists
are packed into one decimal number each, multiplied once by libmpdec (CPython's
decimal library, whose multiply uses a number-theoretic transform for large
operands) in a private context that traps any rounding, and cut back into
coefficients.  The module loads ``decimal`` on the first dense product only.
The slots are sized from where the coefficients are: with the bit lengths of
the largest |a_i| and |b_j| in each block of 32 indices, a product
coefficient c_k with k < order is bounded by the blocks whose indices sum to
k // 32 or one less, so only the ``order`` low slots that are read have to
hold 2 |c_k|, and operands that grow like e^(c sqrt(n)) get narrower slots
than max|a| max|b| would give.  Signed coefficients are packed exactly (the
top one made positive, then a borrow pass) and the low slots are read back as
balanced digits by one carry pass; ``_kronecker`` proves both.
Division runs one loop over the quotient that sums the divisor's nonzero terms
grouped by value; the package divides only by sparse eta and theta factors.
"""

from __future__ import annotations

import sys
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator


class NonUnitError(ValueError):
    """Inversion/division requested for a series whose constant term is not +-1."""


def _nonzero_count(coeffs: tuple[int, ...]) -> int:
    return len(coeffs) - coeffs.count(0)


# A product goes to the Kronecker kernel when its sparser operand has at least
# KRONECKER_MIN_TERMS nonzero terms and at least sqrt(KRONECKER_SPARSITY * order)
# of them.  The walk costs one big-integer multiply-add per pair of nonzero
# terms, the kernel a number of digit operations near order times the slot
# width.  Measured against a dense xi(q) (CPython 3.11.7, one shared Xeon
# core, the walk and the block-bounded kernel alternating in one process), the
# kernel wins once the sparser operand has about 48-64 nonzero terms at order
# 300, 96-128 at order 1200 and 192-256 at order 8000; dense operands with
# uniform 4-, 64- and 600-bit coefficients cross over near orders 40-48,
# 64-128 and 96-128, the ratio wobbling in between with libmpdec's multiply
# thresholds.  Slots sized by max|a| max|b| crossed at the same points within
# noise: when one operand's coefficients are all of one size, the block bound
# gives those slots.  Eta and theta factors hold at most 2 sqrt(order) + 1
# nonzero terms, so the eta passes of ``etaq.expand`` and the sparse PDO
# products always stay on the walk.
KRONECKER_MIN_TERMS = 64
KRONECKER_SPARSITY = 10


def _walk(a: tuple[int, ...], b: tuple[int, ...], order: int) -> list[int]:
    """Coefficients 0 .. order - 1 of the product of two coefficient tuples, a the sparser.

    Both walks visit only nonzero terms, picked out by ``compress`` in C:
    a's on the outside and b's inside, in ascending offset.
    """
    inner = list(compress(enumerate(b), b))
    out = [0] * order
    for i, c in compress(enumerate(a), a):
        room = order - i
        for j, d in inner:
            if j >= room:
                break
            out[i + j] += c * d
    return out


def _trim(a: tuple[int, ...], order: int) -> tuple[int, ...]:
    """a cut to its first ``order`` entries, then to its last nonzero one."""
    n = min(len(a), order)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


# _kronecker bounds its slots from the largest coefficient of each block of
# this many consecutive indices
_BLOCK = 32


def _slot_bounds(a: tuple[int, ...], b: tuple[int, ...], order: int) -> list[int]:
    """For each block t of _BLOCK indices below ``order`` that the product of
    a and b reaches, a number of bits with 2 |c_k| < 2^bits for every k < order
    in block t; ``_kronecker`` proves the bound."""
    bits_a, bits_b = (
        [max(map(int.bit_length, c[s : s + _BLOCK])) for s in range(0, len(c), _BLOCK)] for c in (a, b)
    )
    terms = min(len(a), len(b))
    bounds = []
    previous = 0
    for t in range(min((order - 1) // _BLOCK, len(bits_a) + len(bits_b) - 1) + 1):
        pairs = range(max(0, t - len(bits_b) + 1), min(t, len(bits_a) - 1) + 1)
        current = max([bits_a[p] + bits_b[t - p] for p in pairs], default=0)
        count = min(_BLOCK * (t + 1), order, terms)
        bounds.append(max(current, previous) + 1 + count.bit_length())
        previous = current
    return bounds


def _packed(a: tuple[int, ...], slot: str, base: int) -> str:
    """The digits of |sum a_i base^i|, highest first, in slots of the format
    ``slot``: a is negated if its top coefficient is negative, then one borrow
    pass runs from the lowest coefficient.  Needs 2 |a_i| < base, so every
    digit is in [0, base)."""
    if a[-1] < 0:
        a = tuple(-c for c in a)
    digits = []
    borrow = 0
    for c in a:
        c -= borrow
        if c < 0:
            digits.append(slot % (c + base))
            borrow = 1
        else:
            digits.append(slot % c)
            borrow = 0
    digits.reverse()
    return "".join(digits)


def _kronecker(a: tuple[int, ...], b: tuple[int, ...], order: int) -> list[int]:
    """Coefficients 0 .. order - 1 of the product of two coefficient tuples, by
    one big-number multiplication (Kronecker substitution).

    Each tuple is cut to its last nonzero coefficient below ``order`` minus
    the other's lowest nonzero index, since a_i b_j with i + j >= order is
    never read; zero padding costs nothing.  Each is negated if its top
    coefficient is negative and packed exactly, signs and all, as the decimal
    digits of X = sum a_i 10^(width i), highest slot first.  The multiply runs
    in libmpdec, CPython's decimal library, which switches to a
    number-theoretic transform for large operands.  Its private context has
    the largest precision and exponent range and traps rounding, so a product
    that does not fit raises instead of losing digits; the thread's current
    decimal context is never read.

    Slot bound.  Let A_p be the bit length of the largest |a_i| over the block
    i // 32 = p, so |a_i| < 2^A_p, B_r the same for b, and M_q the largest
    A_p + B_r over p + r = q (0 if there is no such pair).  A term a_i b_j of
    c_k, i + j = k, has 32 (p + r) <= k < 32 (p + r + 2) for its blocks p and
    r, so p + r is t - 1 or t with t = k // 32, and
    |a_i b_j| < 2^max(M_(t-1), M_t).  c_k sums at most
    n_k = min(k + 1, len(a), len(b)) terms and n_k < 2^bit_length(n_k), so

        2 |c_k| < 2^(1 + bit_length(n_k) + max(M_(t-1), M_t)).

    ``_slot_bounds`` gives that exponent block by block (n_k grows with k, so
    the last k < order of each block decides it); bits is the largest over
    the blocks below ``order`` and 10^width > 2^bits.  In operands that grow
    like e^(c sqrt(i)), such as kappa, xi and the PDO slices, the largest
    |a_i| and |b_j| never meet below ``order``, so these slots are narrower
    than ones sized by max|a| max|b|.  The packed coefficients fit too: every
    kept a_i has i + j0 < order for b's lowest nonzero index j0, and
    |b_j0| >= 1 puts A_p + 1 under the bound of c_(i + j0), so
    2 |a_i| < 10^width, and likewise for b.  Hence X > 0, since its positive
    top coefficient outweighs the rest, and a borrow pass gives its digits
    (``_packed``).

    Balanced decode.  The product Z = X Y = sum c_k 10^(width k) is exact, and
    its terms with k >= order are multiples of 10^(width order), so the low
    ``order`` slots s_k of Z hold sum_(k < order) c_k 10^(width k) modulo
    10^(width order).  From the lowest slot, with carry_0 = 0,

        c_k = s_k + carry_k - 10^width carry_(k+1),

    where carry_(k+1) is 1 exactly when s_k + carry_k >= 10^width / 2: c_k is
    the residue of s_k + carry_k modulo 10^width that lies within
    10^width / 2 of zero, the only one there since 2 |c_k| < 10^width.  So one
    carry pass reads the coefficients, with no bias to take off, and the sign
    taken off the operands goes back on at the end.  Slots wider than the
    interpreter allows for int/str conversion go to the walk instead.  When
    ``b is a`` the operand is packed once.
    """
    import decimal  # only dense products load it; `import pdocong` stays without

    same = b is a
    low_a = min(next((i for i, c in enumerate(a) if c), order), order)
    low_b = low_a if same else min(next((j for j, c in enumerate(b) if c), order), order)
    a = _trim(a, order - low_b)
    b = a if same else _trim(b, order - low_a)
    if not (a and b):
        return [0] * order
    # 30103/100000 > log10(2), so 10^width > 2^bits for the widest block's bits
    width = max(_slot_bounds(a, b, order)) * 30103 // 100000 + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and width > limit:
        return _walk(a, b, order)
    context = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.Overflow, decimal.Inexact, decimal.Rounded],
    )
    base = 10**width
    half = base // 2
    slot = f"%0{width}d"
    negate = (a[-1] < 0) != (b[-1] < 0)
    x = context.create_decimal(_packed(a, slot, base))
    y = x if same else context.create_decimal(_packed(b, slot, base))
    size = order * width
    digits = context.to_sci_string(context.multiply(x, y))[-size:].zfill(size)
    out = []
    carry = 0
    for i in range(size, 0, -width):
        c = int(digits[i - width : i]) + carry
        if c >= half:
            out.append(c - base)
            carry = 1
        else:
            out.append(c)
            carry = 0
    return [-c for c in out] if negate else out


def _product(a: tuple[int, ...], b: tuple[int, ...], order: int) -> list[int]:
    """Coefficients 0 .. order - 1 of the product of two coefficient tuples, on
    the walk or the Kronecker kernel by the sparser operand's nonzero count."""
    terms_a = _nonzero_count(a)
    terms_b = _nonzero_count(b)
    if terms_b < terms_a:
        a, b, terms_a = b, a, terms_b
    if terms_a >= KRONECKER_MIN_TERMS and terms_a * terms_a >= KRONECKER_SPARSITY * order:
        return _kronecker(a, b, order)
    return _walk(a, b, order)


def _divide(num: Iterable[int], divisor: tuple[int, ...], order: int) -> list[int]:
    """The first ``order`` coefficients of num / divisor, exactly (divisor a
    unit with at least ``order`` terms).

    ``num`` is read once, in order, and no further than its term ``order - 1``,
    so it may be an iterator that builds its terms as the loop asks for them.

    The divisor's nonzero offsets are grouped by coefficient value.  Each
    group costs one C-level sum of the out[n - k] over its offsets k and at
    most one multiply per n: theta and eta factors carry only the values
    +-1 or +-2, so a division costs about one big-integer addition per
    term.  A dense divisor with distinct values still works, one group per
    offset, but the package divides only by sparse factors.
    """
    if not divisor or divisor[0] not in (1, -1):
        head = divisor[0] if divisor else None
        raise NonUnitError(f"series is not invertible: constant term {head!r}")
    c0 = divisor[0]
    # out is a zero sentinel followed by the quotient so far, so out[-k] is
    # the coefficient at n - k.  A group's getter reads the sentinel and the
    # group's offsets k <= n, so it returns a tuple even for one offset; it
    # grows as n reaches each further offset.  arrivals is highest offset
    # first, so the next one to arrive is at its end.
    arrivals = [(k, divisor[k]) for k in range(order - 1, 0, -1) if divisor[k]]
    live: dict[int, list[int]] = {}
    getters: dict[int, itemgetter] = {}
    groups: list[tuple[int, itemgetter]] = []
    out = [0]
    for n, acc in zip(range(order), num):
        if arrivals and arrivals[-1][0] == n:
            _, d = arrivals.pop()
            reads = live.setdefault(d, [0])
            reads.append(-n)
            getters[d] = itemgetter(*reads)
            groups = list(getters.items())
        for d, terms in groups:
            if d == 1:
                acc -= sum(terms(out))
            elif d == -1:
                acc += sum(terms(out))
            else:
                acc -= d * sum(terms(out))
        out.append(acc if c0 == 1 else -acc)
    del out[0]
    return out


class Series:
    """Truncated integer power series; ``order`` = number of known coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs: tuple[int, ...] = tuple(coeffs)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0] * order)

    @classmethod
    def one(cls, order: int) -> "Series":
        if order == 0:
            return cls(())
        return cls([1] + [0] * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff(self, n: int) -> int:
        """Coefficient of q^n; raises IndexError past the truncation order."""
        if n < 0 or n >= len(self.coeffs):
            raise IndexError(f"coefficient {n} beyond truncation order {len(self.coeffs)}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "Series":
        if order >= len(self.coeffs):
            return self
        return Series(self.coeffs[:order])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return Series(x + y for x, y in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return Series(x - y for x, y in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "Series":
        return Series(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return Series(c * other for c in self.coeffs)
        if not isinstance(other, Series):
            return NotImplemented
        order = min(len(self.coeffs), len(other.coeffs))
        return Series(_product(self.coeffs[:order], other.coeffs[:order], order))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Series":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.invert() ** (-e)
        result = Series.one(len(self.coeffs))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def invert(self) -> "Series":
        """Multiplicative inverse to the same order; constant term must be +-1."""
        return Series.one(len(self.coeffs)).div(self)

    def div(self, other: "Series") -> "Series":
        """Exact quotient self/other to the shared order (other a unit).

        Identical coefficients to ``self * other.invert()`` but runs in
        O(order * nonzeros(other)), which matters for sparse eta factors;
        ``_divide`` runs the loop.
        """
        order = min(len(self.coeffs), len(other.coeffs))
        return Series(_divide(self.coeffs, other.coeffs, order))

    # -- coefficient rearrangements -----------------------------------------

    def dilate(self, k: int) -> "Series":
        """Substitute q -> q^k; result keeps this series' order."""
        if k < 1:
            raise ValueError(f"dilation factor must be >= 1, got {k}")
        if k == 1:
            return self
        order = len(self.coeffs)
        out = [0] * order
        for n, c in enumerate(self.coeffs):
            m = k * n
            if m >= order:
                break
            out[m] = c
        return Series(out)

    def u2(self) -> "Series":
        """Degree-two unitizing operator: keep coefficients of even powers.

        Sends sum a_n q^n to sum a_{2n} q^n; the result knows ceil(order/2)
        coefficients.
        """
        return Series(self.coeffs[::2])

    def alternate(self) -> "Series":
        """Substitute q -> -q."""
        return Series(-c if n & 1 else c for n, c in enumerate(self.coeffs))

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coeff(n)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"Series([{shown}{tail}], order={len(self.coeffs)})"
