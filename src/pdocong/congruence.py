"""Window verification of PDO congruence families.

A congruence here is verified over an explicit finite window of n and the
report always carries that window plus the truncation order of the table it
was checked against: a pass is evidence at that order, never a proof.

Two spec shapes exist: the internal families PDO(a n) == PDO(b n) (mod 2^e)
as :class:`CongruenceSpec`, and the Ramanujan-type divisibility families
PDO(a n + c) == 0 (mod m) as :class:`DivisibilitySpec`.  Each named family is
defined once, as a spec builder in :data:`FAMILIES`.  Specs, reports and scan
results are frozen records (``_record.Record``): validated on construction,
hashable, equal only within their class, and free to define at import.  A
report stores its evidence only: ``passed`` and ``verdict`` are read from its
counterexample, so the two can never disagree.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from ._record import Record
from .etaq import PdoTable
from .padic import nu2


class CongruenceSpec(Record):
    """PDO(lhs_stride * n) == PDO(rhs_stride * n) (mod modulus) over n_range."""

    __slots__ = ("lhs_stride", "rhs_stride", "modulus", "n_range")
    lhs_stride: int
    rhs_stride: int
    modulus: int
    n_range: tuple[int, int]  # half-open

    def __post_init__(self):
        if self.lhs_stride < 1 or self.rhs_stride < 1:
            raise ValueError(f"strides must be >= 1: {self.lhs_stride}, {self.rhs_stride}")
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    def describe(self) -> str:
        return (
            f"PDO({self.lhs_stride}*n) == PDO({self.rhs_stride}*n)"
            f" (mod {self.modulus})"
        )

    def values_at(self, table: PdoTable, n: int) -> tuple[int, int]:
        return table[self.lhs_stride * n], table[self.rhs_stride * n]

    def max_index(self, n: int) -> int:
        return max(self.lhs_stride, self.rhs_stride) * n


class DivisibilitySpec(Record):
    """PDO(stride * n + offset) == 0 (mod modulus) over n_range."""

    __slots__ = ("stride", "offset", "modulus", "n_range")
    stride: int
    offset: int
    modulus: int
    n_range: tuple[int, int]

    def __post_init__(self):
        if self.stride < 1 or self.offset < 0:
            raise ValueError(f"bad progression: stride {self.stride}, offset {self.offset}")
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    def describe(self) -> str:
        return f"PDO({self.stride}*n + {self.offset}) == 0 (mod {self.modulus})"

    def values_at(self, table: PdoTable, n: int) -> tuple[int, int]:
        return table[self.stride * n + self.offset], 0

    def max_index(self, n: int) -> int:
        return self.stride * n + self.offset


AnySpec = Union[CongruenceSpec, DivisibilitySpec]


class CongruenceReport(Record):
    """Outcome of ``verify``: it passed exactly when it carries no counterexample."""

    __slots__ = ("spec", "counterexample", "checked_count", "truncation_order")
    spec: AnySpec
    counterexample: tuple[int, int, int] | None  # (n, lhs, rhs)
    checked_count: int
    truncation_order: int

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_record(self) -> dict:
        if isinstance(self.spec, CongruenceSpec):
            record = {
                "lhs_stride": self.spec.lhs_stride,
                "rhs_stride": self.spec.rhs_stride,
            }
        else:
            record = {"stride": self.spec.stride, "offset": self.spec.offset}
        record["modulus"] = self.spec.modulus
        record["window"] = list(self.spec.n_range)
        record["verdict"] = self.verdict
        if self.counterexample is not None:
            n, lhs, rhs = self.counterexample
            record["counterexample"] = {"n": n, "lhs": str(lhs), "rhs": str(rhs)}
        else:
            record["counterexample"] = None
        record["truncation_order"] = self.truncation_order
        record["checked_count"] = self.checked_count
        return record


def verify(spec: AnySpec, table: PdoTable) -> CongruenceReport:
    """Check a spec over its window; the least counterexample is reported."""
    start, stop = spec.n_range
    if stop > start:
        needed = spec.max_index(stop - 1)
        if needed > table.max_n:
            raise ValueError(
                f"table covers n <= {table.max_n}; {spec.describe()} over "
                f"[{start}, {stop}) needs truncation order {needed + 1}"
            )
    counterexample = None
    checked = 0
    for n in range(start, stop):
        lhs, rhs = spec.values_at(table, n)
        checked += 1
        if (lhs - rhs) % spec.modulus:
            counterexample = (n, lhs, rhs)
            break
    return CongruenceReport(spec, counterexample, checked, table.max_n + 1)


def _check_level(name: str, level: int) -> None:
    if level < 0:
        raise ValueError(f"{name} must be >= 0, got {level}")


def main_family_spec(k: int, n_stop: int) -> CongruenceSpec:
    """Level-k member of the main family over 0 <= n < n_stop:
    PDO(2^{2k+3} n) == PDO(2^{2k+1} n) (mod 2^{2k+3}).

    The k=0 member, PDO(8n) == PDO(2n) (mod 8), is false at n=1
    (PDO(8)=22, PDO(2)=2, difference 20); the pair does hold mod 4.  The
    phi tower (``phi_poly(k)`` encodes PDO(2^{k+2} n) - PDO(2^k n) from k=3)
    covers members k >= 1 only.  Whether the paper restricts the family to
    k >= 1 or the abstract misprints it is not settled here, so k=0 is still
    built as stated and verifying it reports the counterexample."""
    return _main_specs(k, (0, n_stop))[0]


def _main_specs(k: int, window: tuple[int, int]) -> list[AnySpec]:
    """PDO(2^{2k+3} n) == PDO(2^{2k+1} n) (mod 2^{2k+3})."""
    _check_level("k", k)
    m = 2 ** (2 * k + 3)
    return [CongruenceSpec(m, 2 ** (2 * k + 1), m, window)]


def _corollary_specs(k: int, window: tuple[int, int]) -> list[AnySpec]:
    """PDO(2^{2k+4} n) == PDO(2^{2k+2} n) (mod 2^{2k+3})."""
    _check_level("k", k)
    return [CongruenceSpec(2 ** (2 * k + 4), 2 ** (2 * k + 2), 2 ** (2 * k + 3), window)]


def _strengthened_specs(k: int, window: tuple[int, int]) -> list[AnySpec]:
    """PDO(32n) == PDO(8n) (mod 64) and PDO(128n) == PDO(32n) (mod 128).

    The pair has no level; k is only range-checked like the other families'."""
    _check_level("k", k)
    return [CongruenceSpec(32, 8, 64, window), CongruenceSpec(128, 32, 128, window)]


def _ramanujan_specs(alpha_max: int, window: tuple[int, int]) -> list[AnySpec]:
    """PDO(2^alpha (4n+3)) == 0 (mod 4) and PDO(2^alpha (8n+7)) == 0 (mod 8)
    for 0 <= alpha <= alpha_max."""
    _check_level("alpha_max", alpha_max)
    return [
        DivisibilitySpec(modulus * 2**alpha, residue * 2**alpha, modulus, window)
        for alpha in range(alpha_max + 1)
        for modulus, residue in ((4, 3), (8, 7))
    ]


#: family name -> builder (level, half-open window) -> specs.  The level is k
#: for every family but ``ramanujan``, whose level is alpha_max.
FAMILIES: dict[str, Callable[[int, tuple[int, int]], list[AnySpec]]] = {
    "main": _main_specs,
    "corollary": _corollary_specs,
    "strengthened": _strengthened_specs,
    "ramanujan": _ramanujan_specs,
}


def verify_main(k: int, n_max: int, table: PdoTable) -> CongruenceReport:
    """Main family at level k over 0 <= n <= n_max.

    For k=0 the report is a fail with counterexample (1, 22, 2) whenever
    n_max >= 1 (see :func:`main_family_spec`); from k=1 on the family is
    expected to pass."""
    return verify(*FAMILIES["main"](k, (0, n_max + 1)), table)


def verify_corollary(k: int, n_max: int, table: PdoTable) -> CongruenceReport:
    """Corollary family PDO(2^{2k+4} n) == PDO(2^{2k+2} n) (mod 2^{2k+3})
    over 0 <= n <= n_max (n = 0 included)."""
    return verify(*FAMILIES["corollary"](k, (0, n_max + 1)), table)


def verify_strengthened(n_max: int, table: PdoTable) -> tuple[CongruenceReport, CongruenceReport]:
    """The two sharpened low cases, over 0 <= n <= n_max:
    PDO(32n) == PDO(8n) (mod 64) and PDO(128n) == PDO(32n) (mod 128)."""
    return tuple(verify(spec, table) for spec in FAMILIES["strengthened"](0, (0, n_max + 1)))


def verify_ramanujan(alpha_max: int, n_max: int, table: PdoTable) -> list[CongruenceReport]:
    """Ramanujan-type divisibilities for 0 <= alpha <= alpha_max over n < n_max:
    PDO(2^alpha (4n+3)) == 0 (mod 4) and PDO(2^alpha (8n+7)) == 0 (mod 8)."""
    return [verify(spec, table) for spec in FAMILIES["ramanujan"](alpha_max, (0, n_max))]


class ScanResult(Record):
    """Largest exponent e <= cap with PDO(a n) == PDO(b n) (mod 2^e) on the window."""

    __slots__ = ("pair", "exponent", "n_range", "truncation_order")
    pair: tuple[int, int]
    exponent: int
    n_range: tuple[int, int]
    truncation_order: int

    def to_record(self) -> dict:
        return {
            "lhs_stride": self.pair[0],
            "rhs_stride": self.pair[1],
            "max_exponent": self.exponent,
            "window": list(self.n_range),
            "truncation_order": self.truncation_order,
        }


def scan(
    table: PdoTable,
    stride_pairs: Sequence[tuple[int, int]],
    max_modulus_exponent: int,
) -> list[ScanResult]:
    """For each stride pair, the largest 2-power modulus surviving the window
    the table supports (all n with both indices covered)."""
    if max_modulus_exponent < 0:
        raise ValueError(f"max exponent must be >= 0, got {max_modulus_exponent}")
    results = []
    for a, b in stride_pairs:
        if a < 1 or b < 1:
            raise ValueError(f"strides must be >= 1: ({a}, {b})")
        n_top = table.max_n // max(a, b)
        exponent = max_modulus_exponent
        for n in range(n_top + 1):
            diff = table[a * n] - table[b * n]
            if diff:
                v = nu2(diff)
                if v < exponent:
                    exponent = int(v)
                if exponent == 0:
                    break
        results.append(ScanResult((a, b), exponent, (0, n_top + 1), table.max_n + 1))
    return results
