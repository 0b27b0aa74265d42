"""Naive reference arithmetic used as an independent oracle by the tests.

Everything here is deliberately the dumbest possible implementation: dense
list convolution, term-by-term product expansion, direct partition
enumeration.  No code is shared with the package.
"""


def poly_mul(a, b, order):
    out = [0] * order
    for i, x in enumerate(a[:order]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order - i]):
            out[i + j] += x * y
    return out


def series_div(num, den, order):
    assert den[0] in (1, -1)
    out = [0] * order
    for n in range(order):
        acc = num[n] if n < len(num) else 0
        for k in range(1, n + 1):
            if k < len(den) and den[k]:
                acc -= den[k] * out[n - k]
        out[n] = acc * den[0]
    return out


def eta_factor(m, order):
    """E(q^m) by multiplying out (1 - q^{mn}) one binomial at a time."""
    out = [1] + [0] * (order - 1)
    n = 1
    while m * n < order:
        k = m * n
        # times (1 - q^k), from the top down so each out[j - k] is still the old one
        for j in range(order - 1, k - 1, -1):
            out[j] -= out[j - k]
        n += 1
    return out


def expand_quotient(factors, order):
    out = [1] + [0] * (order - 1)
    for m, e in factors:
        f = eta_factor(m, order)
        if e > 0:
            for _ in range(e):
                out = poly_mul(out, f, order)
        else:
            for _ in range(-e):
                out = series_div(out, f, order)
    return out


def partition_count(n):
    """p(n) by enumerating partitions with nonincreasing parts."""

    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(count(remaining - part, part) for part in range(min(largest, remaining), 0, -1))

    return count(n, n)


def odd_partitions(n, largest=None):
    """Yield every partition of n into odd parts as a nonincreasing tuple."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    part = min(largest, n)
    if part % 2 == 0:
        part -= 1
    while part >= 1:
        for rest in odd_partitions(n - part, part):
            yield (part,) + rest
        part -= 2


def pdo_count(n):
    """PDO(n) by listing odd-part partitions and multiplying multiplicities."""
    from collections import Counter
    from math import prod

    return sum(prod(Counter(p).values()) for p in odd_partitions(n))
