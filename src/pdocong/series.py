"""Exact arithmetic on truncated formal power series in q.

A :class:`Series` stores the first ``order`` coefficients (of q^0 .. q^{order-1})
as plain Python integers.  Every operation is exact; binary operations truncate
to the shorter operand, so no coefficient is ever fabricated beyond known data.
Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator


class NonUnitError(ValueError):
    """Inversion/division requested for a series whose constant term is not +-1."""


def _nonzero_count(coeffs) -> int:
    return sum(1 for c in coeffs if c)


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
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: int, order: int) -> "Series":
        if order == 0:
            return cls(())
        return cls([value] + [0] * (order - 1))

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
        a = self.coeffs[:order]
        b = other.coeffs[:order]
        # run the sparser operand on the outside; +-1 coefficients skip the multiply
        if _nonzero_count(b) < _nonzero_count(a):
            a, b = b, a
        # the inner walk visits only b's nonzero terms, in ascending offset
        inner = [(j, d) for j, d in enumerate(b) if d]
        out = [0] * order
        for i, c in enumerate(a):
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
        return Series(out)

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

        The divisor's nonzero offsets are grouped by coefficient value.  A
        value held at two or more offsets k costs one C-level sum of the
        out[n - k] and at most one multiply per n: theta and eta factors carry
        only the values +-1 or +-2, so a division costs about one big-integer
        addition per term.  A value held at a single offset keeps the plain
        per-term loop, so a dense divisor with distinct values costs what it
        did before grouping.
        """
        order = min(len(self.coeffs), len(other.coeffs))
        if other.order == 0 or other.coeffs[0] not in (1, -1):
            head = other.coeffs[0] if other.order else None
            raise NonUnitError(f"series is not invertible: constant term {head!r}")
        c0 = other.coeffs[0]
        offsets: dict[int, list[int]] = {}
        for k in range(1, order):
            d = other.coeffs[k]
            if d:
                offsets.setdefault(d, []).append(k)
        singles = sorted((ks[0], d) for d, ks in offsets.items() if len(ks) == 1)
        # out is a zero sentinel followed by the quotient so far, so out[-k] is
        # the coefficient at n - k.  A group's getter reads the sentinel and the
        # group's offsets k <= n; it grows as n reaches each further offset.
        live = {d: [0] for d, ks in offsets.items() if len(ks) > 1}
        arrivals = sorted(((k, d) for d in live for k in offsets[d]), reverse=True)
        getters: dict[int, itemgetter] = {}
        groups: list[tuple[int, itemgetter]] = []
        num = self.coeffs
        out = [0]
        for n in range(order):
            if arrivals and arrivals[-1][0] == n:
                _, d = arrivals.pop()
                live[d].append(-n)
                getters[d] = itemgetter(*live[d])
                groups = list(getters.items())
            acc = num[n]
            for d, terms in groups:
                if d == 1:
                    acc -= sum(terms(out))
                elif d == -1:
                    acc += sum(terms(out))
                else:
                    acc -= d * sum(terms(out))
            for k, d in singles:
                if k > n:
                    break
                prev = out[-k]
                if prev:
                    acc -= d * prev
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
