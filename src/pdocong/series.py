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
Division runs one loop over the quotient that sums the divisor's nonzero terms
grouped by value; the package divides only by sparse eta and theta factors.
"""

from __future__ import annotations

import sys
from itertools import accumulate, chain, repeat
from operator import itemgetter, sub
from typing import Iterable, Iterator, Sequence


class NonUnitError(ValueError):
    """Inversion/division requested for a series whose constant term is not +-1."""


def _nonzero_count(coeffs) -> int:
    return sum(1 for c in coeffs if c)


# A product goes to the Kronecker kernel when its sparser operand has at least
# KRONECKER_MIN_TERMS nonzero terms and at least sqrt(KRONECKER_SPARSITY * order)
# of them.  The walk costs one big-integer multiply-add per pair of nonzero
# terms, the kernel a number of digit operations near order times the slot
# width.  Measured against a dense xi(q) (CPython 3.11, one Xeon core), the
# kernel wins once the sparser operand has about 64 nonzero terms at order 300,
# 128 at order 1200 and 256 at order 8000; dense operands with 4-, 64- and
# 600-bit coefficients cross over near orders 30, 64 and 96.  Eta and theta
# factors hold at most 2 sqrt(order) + 1 nonzero terms, so the eta passes of
# ``etaq.expand`` and the sparse PDO products always stay on the walk.
KRONECKER_MIN_TERMS = 64
KRONECKER_SPARSITY = 10


def _walk(a: tuple[int, ...], b: tuple[int, ...], order: int) -> list[int]:
    """Coefficients 0 .. order - 1 of the product of two coefficient tuples, a the sparser.

    ``a`` runs on the outside and the inner walk visits only b's nonzero
    terms, in ascending offset; +-1 coefficients of ``a`` skip the multiply.
    """
    inner = [(j, d) for j, d in enumerate(b) if d]
    out = [0] * order
    for i, c in enumerate(a[:order]):
        if not c:
            continue
        room = order - i
        if c == 1:
            for j, d in inner:
                if j >= room:
                    break
                out[i + j] += d
        elif c == -1:
            for j, d in inner:
                if j >= room:
                    break
                out[i + j] -= d
        else:
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


def _windows(values: Sequence[int], order: int, span: int) -> Iterator[int]:
    """w_k = the sum of values[i] over k - span < i <= k, for 0 <= k < order."""
    prefix = list(accumulate(chain(values, repeat(0, order - len(values)))))
    if span >= order:
        return iter(prefix)
    return map(sub, prefix, chain(repeat(0, span), prefix))


def _kronecker(a: tuple[int, ...], b: tuple[int, ...], order: int) -> list[int]:
    """Coefficients 0 .. order - 1 of the product of two coefficient tuples, by
    one big-number multiplication (Kronecker substitution).

    Each tuple is cut to its last nonzero coefficient below ``order``, so zero
    padding costs nothing, biased by its own largest |c|, so every coefficient
    is nonnegative, and packed into one decimal string with slots of ``width``
    digits, highest power first.  A slot of the biased product is a sum of at
    most min(len(a), len(b)) terms, each below 4 |a|max |b|max, so
    10^width > 4 |a|max |b|max min(len(a), len(b)) keeps the slots from
    carrying into each other.  The multiply runs in libmpdec, CPython's decimal
    library, which switches to a number-theoretic transform for large
    operands.  Its private context has the largest precision and exponent range
    and traps rounding, so a product that does not fit raises instead of losing
    digits; the thread's current decimal context is never read.  The bias comes
    off exactly with window sums:

        c_k = slot_k - |b|max A_k - |a|max B_k,

    with A_k the sum of the biased a_i and B_k the sum of the b_j over the
    pairs i + j = k.  Slots wider than the interpreter allows for int/str
    conversion go to the walk instead.  When ``b is a`` the operand is packed
    once.
    """
    import decimal  # only dense products load it; `import pdocong` stays without

    same = b is a
    a = _trim(a, order)
    b = a if same else _trim(b, order)
    if not (a and b):
        return [0] * order
    max_a = max(map(abs, a))
    max_b = max(map(abs, b))
    # 30103/100000 > log10(2), so 10^width > 2^bits > 4 max_a max_b min(len(a), len(b))
    width = (4 * max_a * max_b * min(len(a), len(b))).bit_length() * 30103 // 100000 + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and width > limit:
        return _walk(a, b, order)
    context = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.Overflow, decimal.Inexact, decimal.Rounded],
    )
    slot = f"%0{width}d"
    biased_a = [c + max_a for c in a]
    x = context.create_decimal("".join([slot % c for c in reversed(biased_a)]))
    y = x if same else context.create_decimal("".join([slot % (c + max_b) for c in reversed(b)]))
    size = order * width
    digits = context.to_sci_string(context.multiply(x, y))[-size:].zfill(size)
    slots = [int(digits[i - width : i]) for i in range(size, 0, -width)]
    return [
        s - max_b * wa - max_a * wb
        for s, wa, wb in zip(slots, _windows(biased_a, order, len(b)), _windows(b, order, len(a)))
    ]


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
        O(order * nonzeros(other)), which matters for sparse eta factors.

        The divisor's nonzero offsets are grouped by coefficient value.  Each
        group costs one C-level sum of the out[n - k] over its offsets k and at
        most one multiply per n: theta and eta factors carry only the values
        +-1 or +-2, so a division costs about one big-integer addition per
        term.  A dense divisor with distinct values still works, one group per
        offset, but the package divides only by sparse factors.
        """
        order = min(len(self.coeffs), len(other.coeffs))
        if other.order == 0 or other.coeffs[0] not in (1, -1):
            head = other.coeffs[0] if other.order else None
            raise NonUnitError(f"series is not invertible: constant term {head!r}")
        c0 = other.coeffs[0]
        # out is a zero sentinel followed by the quotient so far, so out[-k] is
        # the coefficient at n - k.  A group's getter reads the sentinel and the
        # group's offsets k <= n, so it returns a tuple even for one offset; it
        # grows as n reaches each further offset.  arrivals is highest offset
        # first, so the next one to arrive is at its end.
        arrivals = [(k, other.coeffs[k]) for k in range(order - 1, 0, -1) if other.coeffs[k]]
        live: dict[int, list[int]] = {}
        getters: dict[int, itemgetter] = {}
        groups: list[tuple[int, itemgetter]] = []
        num = self.coeffs
        out = [0]
        for n in range(order):
            if arrivals and arrivals[-1][0] == n:
                _, d = arrivals.pop()
                reads = live.setdefault(d, [0])
                reads.append(-n)
                getters[d] = itemgetter(*reads)
                groups = list(getters.items())
            acc = num[n]
            for d, terms in groups:
                if d == 1:
                    acc -= sum(terms(out))
                elif d == -1:
                    acc += sum(terms(out))
                else:
                    acc -= d * sum(terms(out))
            out.append(acc if c0 == 1 else -acc)
        return Series(out[1:])

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
