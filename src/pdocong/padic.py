"""2-adic valuations and valuation profiles of the zeta/phi coefficient families.

``nu2(n)`` is the largest a with 2^a | n, with nu2(0) = INFINITY.  INFINITY is
IEEE infinity: a distinguished non-integer value under which min, comparisons
and offset addition stay total; never an integer sentinel.

The profile checkers pin the shape each coefficient family has around its
minimal degree.  For zeta_{i,j} that is one rule for every i, j >= 0, proven
by the floor lemma in xipoly's docstring: an odd leading coefficient, an
offset-1 valuation that is exactly 1 when i + j == 2 mod 4 and >= 2
otherwise, and valuation >= M+1 from offset M >= 2 on.  Each checker reads
the valuations from its base degree up to the degree of the polynomial in one
``profile`` walk; its leading checks, the offset floors of
``_offset_failures`` and the report's leading window (at most DEFAULT_WINDOW
entries) all read that one tuple.  ``ProfileReport`` is a
frozen record (``_record.Record``); it stores its ``failures`` only, and
``passed`` and ``verdict`` are read from them.
"""

from __future__ import annotations

import math

from ._record import Record
from .xipoly import XiPoly, d_min, phi_poly, zeta

INFINITY = math.inf

#: valuation of an integer: exact nonnegative int, or INFINITY for zero
Valuation = int | float


def nu2(n: int) -> Valuation:
    """2-adic valuation; INFINITY for 0."""
    if n == 0:
        return INFINITY
    n = abs(n)
    return (n & -n).bit_length() - 1


def tau(k: int) -> int:
    """Minimal xi-degree of phi_poly(k); defined for k >= 3 and always integral.

    tau(2K-1) = 7*2^{2K-3} - (2/3)(4^{K-2}-1) and
    tau(2K)   = 7*2^{2K-2} - (1/3)(4^{K-1}-1).
    """
    if k < 3:
        raise ValueError(f"tau is defined for k >= 3, got {k}")
    if k % 2 == 1:
        big_k = (k + 1) // 2
        return 7 * 2 ** (2 * big_k - 3) - 2 * (4 ** (big_k - 2) - 1) // 3
    big_k = k // 2
    return 7 * 2 ** (2 * big_k - 2) - (4 ** (big_k - 1) - 1) // 3


def profile(p: XiPoly, base: int, window: int) -> tuple[Valuation, ...]:
    """nu2 of ``window`` consecutive coefficients of p, starting at degree ``base``."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return tuple(nu2(p.coeff(base + m)) for m in range(window))


class ProfileReport(Record):
    """Outcome of a family profile check; vals shows the leading window only,
    while failures cover every offset up to the polynomial degree."""

    __slots__ = ("family", "i", "j", "k", "base_degree", "vals", "failures")
    family: str  # "Z" or "F"
    i: int | None
    j: int | None
    k: int | None
    base_degree: int
    vals: tuple[Valuation, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def basis(self) -> str:
        """What the checked shape rests on: "paper" for F, and "proven" for
        every Z cell (the floor lemma in xipoly's docstring)."""
        return "paper" if self.family == "F" else "proven"

    def to_record(self) -> dict:
        record = {"family": self.family}
        if self.family == "Z":
            record["i"] = self.i
            record["j"] = self.j
        else:
            record["k"] = self.k
        record["base_degree"] = self.base_degree
        record["vals"] = [v if v != INFINITY else "inf" for v in self.vals]
        record["verdict"] = self.verdict
        record["failures"] = list(self.failures)
        return record


DEFAULT_WINDOW = 10


def _offset_failures(vals: tuple[Valuation, ...], floor: int, first: int) -> list[str]:
    """One message per offset m >= first where vals[m] falls below floor + m."""
    return [
        f"offset-{m} valuation {v}, expected >= {floor + m}"
        for m, v in enumerate(vals[first:], first)
        if v < floor + m
    ]


def check_z_profile(i: int, j: int) -> ProfileReport:
    """Check the valuation profile of zeta_{i,j}, for any i, j >= 0.

    The offset-1 slot is sharp, valuation exactly 1, when i + j == 2 mod 4 and
    >= 2 otherwise.  The floor lemma in xipoly's docstring proves this shape
    for every cell, so the report's ``basis`` is "proven", and a fail refutes
    the lemma or the code that built zeta_{i,j}.
    """
    p = zeta(i, j)
    d = d_min(i, j)
    span = max((p.degree() or 0) - d, 0)
    vals = profile(p, d, span + 1)
    failures: list[str] = []
    if p.min_degree() != d:
        failures.append(f"minimal degree {p.min_degree()} != d_min {d}")
    if vals[0] != 0:
        failures.append(f"nu(coeff at {d}) = {vals[0]}, expected 0")
    v1 = vals[1] if span else INFINITY
    if (i + j) % 4 == 2:
        if v1 != 1:
            failures.append(f"offset-1 valuation {v1}, expected exactly 1")
    elif v1 < 2:
        failures.append(f"offset-1 valuation {v1}, expected >= 2")
    failures += _offset_failures(vals, 1, 2)
    return ProfileReport("Z", i, j, None, d, vals[:DEFAULT_WINDOW], tuple(failures))


def check_f_profile(k: int, max_k: int = 5) -> ProfileReport:
    """Check the valuation bounds of phi_poly(k) for odd k = 2K+1.

    Verifies vanishing below tau(k), nu(F_k(tau_k)) >= 2K+3, and
    nu(F_k(tau_k + M)) >= 2K+M+2 for every further coefficient.  Measured
    cold on one shared Xeon core with CPython 3.11: about 0.02 s at k = 7,
    0.4-0.5 s at k = 9 and 29 s at k = 11 (phi_poly(10) alone takes 1.5-2.9 s
    and 19 MB), in under 30 MB; each level costs roughly 10x the previous
    one.  max_k guards library callers; the CLI prices a request with its work
    budget (cli._price, as phi at the highest k) and then passes max_k=k.
    """
    if k % 2 == 0 or k < 3:
        raise ValueError(f"profile bounds cover odd k >= 3 only, got {k}")
    if k > max_k:
        raise ValueError(f"k={k} beyond computable range (max_k={max_k})")
    big_k = (k - 1) // 2
    p = phi_poly(k)
    t = tau(k)
    vals = profile(p, t, max((p.degree() or 0) - t, 0) + 1)
    failures: list[str] = []
    low = p.min_degree()
    if low is not None and low < t:
        failures.append(f"nonzero coefficient at degree {low} < tau {t}")
    if vals[0] < 2 * big_k + 3:
        failures.append(f"nu at tau = {vals[0]}, expected >= {2 * big_k + 3}")
    failures += _offset_failures(vals, 2 * big_k + 2, 1)
    return ProfileReport("F", None, None, k, t, vals[:DEFAULT_WINDOW], tuple(failures))
