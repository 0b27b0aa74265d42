"""Command-line surface: expansions, tower polynomials, valuation tables,
congruence verification and scanning, with plain/json/csv output.

Each subcommand binds its handler with ``set_defaults``.  A handler reads the
parsed ``argparse.Namespace``, computes its result and returns its exit status
and the result's forms; one writer, ``_write``, writes only the form that
``--format`` names, piece by piece, straight to stdout or the ``--out`` file:
a polynomial one term at a time, a table of values 512 values at a time, csv
one row at a time.  Each call is a cold process, so start-up counts:
importing this module loads the package and argparse, none of the heavier
standard modules; ``json`` and ``csv`` load only when their format is asked
for.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from math import gcd, isqrt, log, sqrt

from .congruence import FAMILIES, CongruenceReport, CongruenceSpec, scan, verify
from .etaq import _PARTITION_GROWTH, NAMED_SPECS, EtaQuotientSpec, _passes, expand, pdo_series
from .padic import check_f_profile, tau
from .xipoly import _LAMBDA_2, XiPoly, _start_row, d_min, lambda_poly, phi_poly, zeta

# Input ranges.  MAX_ORDER bounds every table's size and text.  verify
# --family pair builds the modulus 2**mod_exp: PDO(n) < 2^1208 for every n
# below MAX_ORDER, so any exponent from 1208 on already asks for equality, and
# 2^4096 has 1234 decimal digits, inside the interpreter's int-to-str limit
# that the report's text meets.
MAX_ORDER = 2**17
MAX_MOD_EXP = 4096

# _price's unit costs, in word operations: _READ for the interpreter's work
# around one coefficient read or multiply-add, _PASS to set up one eta pass,
# _ROW per word of a walked row entry, _KERNEL per word and doubling of a
# Kronecker product and _TEXT per squared word of a coefficient written as
# decimal text.  Fitted to the cold calls tabulated in tests/test_cli.py.
_READ, _PASS, _ROW, _KERNEL, _TEXT = 24, 1500, 8, 12, 4
# log2 of the q^n coefficient of 1/E(q)^w is below _GROWTH sqrt(w n) (etaq's
# module docstring)
_GROWTH = _PARTITION_GROWTH / log(2)


def _words(bits: float) -> int:
    return 1 + int(bits) // 64


def _expand_price(spec: EtaQuotientSpec, order: int) -> int:
    """expand's passes in the order it runs them (etaq._passes).  A product
    pass walks the product's live terms against E(q^m)'s nonzero ones, and
    the live terms multiply until the product is dense on its dilations; a
    division pass reads, for each coefficient, E(q^m)'s terms below it, each
    as wide as the quotient so far, whose growth w rises by |e|/m."""
    price, live, dilation, w = 0, 1, 0, 0.0
    for m, e in _passes(spec):
        terms = isqrt(8 * ((order - 1) // m) // 3) + 1  # E(q^m)'s below q^order
        price += abs(e) * _PASS
        if e < 0:
            w += -e / m  # priced at the growth halfway through the factor's passes
            price += -e * order * (2 * terms // 3 + 1) * (_READ + _words(_GROWTH * sqrt((w + e / m / 2) * order)))
            continue
        dilation = gcd(dilation, m)
        growing = min(e, MAX_ORDER.bit_length())  # live is dense after this many passes
        for _ in range(growing):
            price += live * terms * (_READ + 1)
            live = min(order // dilation, live * terms)
        price += (e - growing) * live * terms * (_READ + 1)
    return price


def _span(i: int, j: int) -> int:
    """The entries of the row zeta_{i,j}: degrees d_min(i, j) .. max(5i, 2j)."""
    return max(5 * i, 2 * j) - d_min(i, j) + 1


def _bits(i: int, j: int) -> int:
    """About the widest coefficient of zeta_{i,j}: 3 bits per entry and one
    per unit of j, since near 5i = 2j the row is short but its coefficients
    are not (zeta(1537, 4000): 2158 entries of up to 9154 bits)."""
    return 3 * _span(i, j) + j


def _walk_price(i: int, rows: int, high: int, width: int) -> int:
    """rows of unitize's walk against kappa^i up to row high, each built at
    the span of row high, the widest, and its entries multiplied by a
    coefficient of about 3 bits per degree of a polynomial ``width`` degrees
    wide (one word for a row that is built and not multiplied)."""
    top = _span(i, high)
    return rows * top * (_READ + _words(3 * top) * (_ROW + _words(3 * width)))


def _tower_price(k: int, level: int, low: int, high: int, lift: int) -> int:
    """Levels level + 1 .. k of a tower whose level spans degrees low .. high,
    each unitized against kappa^(2^(level - lift)) from the one below: its
    walk builds rows _start_row(low) .. low - 1 and multiplies rows
    low .. high (its ladder pair is one step from the last one's, a few
    percent of the walk).  Levels more than 64 above the start, where i
    passes 2^64, are not priced: the sum is far over BUDGET long before."""
    price = 0
    for level in range(level + 1, min(k, level + 64) + 1):
        i = 1 << (level - lift)
        price += _walk_price(i, low - _start_row(low), high, 0) + _walk_price(i, high - low + 1, high, high - low + 1)
        low, high = d_min(i, low), max(5 * i, 2 * high)
    return price


def _zeta_price(i: int, j: int) -> int:
    """zeta(i, j) = unitize(xi^j, i): the ladder from the pair at
    (i, start), start = _start_row(j) (0 for j below 16), down to the
    initial table, each level's pair multiplying two pairs of rows in the
    kernel, n log n for products of n words, and a level below an odd bit of
    i building two pairs; then the walk's rows start .. j, and the text of
    row j's coefficients, whose conversion is quadratic in their words.  So
    the price is not monotone in either index: it jumps at each odd bit of i
    and falls where j reaches a new start row."""
    start = _start_row(j)
    price = _walk_price(i, j - start + 1, j, 0) + _span(i, j) * _words(_bits(i, j)) ** 2 * _TEXT
    for s in range(max(i.bit_length() - 1, start.bit_length())):
        n = 2 * _span(i >> s, start >> s) * _words(_bits(i >> s, start >> s))
        price += (4 if i % (1 << s) else 2) * n * n.bit_length() * _KERNEL
    return price


def _spec(args: argparse.Namespace) -> EtaQuotientSpec:
    return NAMED_SPECS[args.name] if args.name else EtaQuotientSpec.parse(args.spec)


def _price(args: argparse.Namespace) -> int:
    """The predicted big-integer work of a request, in word operations of its
    dominant loops, from closed forms and before anything runs; main refuses a
    request over BUDGET.  valuations is priced as phi at its highest --k.  The
    table commands (pdo, verify, scan) are held to MAX_ORDER alone: the
    widest table, pdo --max 131071, takes under half of delta's time."""
    if args.command == "expand":
        return _expand_price(_spec(args), _limited(args.order or 10))
    if args.command == "zeta":
        return _zeta_price(args.i, args.j)
    if args.command == "lambda":
        return _tower_price(args.k, 2, _LAMBDA_2.low, _LAMBDA_2.degree(), 3)
    if args.command in ("phi", "valuations"):  # phi_3 spans tau(3) .. 3 * 2^3
        return _tower_price(max(args.k) if args.command == "valuations" else args.k, 3, tau(3), 3 * 2**3, 1)
    return 0


# the one work budget: what expand --name delta --order 131072 costs
BUDGET = _expand_price(NAMED_SPECS["delta"], MAX_ORDER)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")
    ordered = argparse.ArgumentParser(add_help=False)
    ordered.add_argument("--order", type=int, default=None, help="truncation order override")

    parser = argparse.ArgumentParser(
        prog="pdocong",
        description="Exact PDO series expansions, xi-polynomial towers, "
        "2-adic valuation profiles and congruence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdo", parents=[common, ordered], help="print PDO(0..max)")
    p.set_defaults(handler=_cmd_pdo)
    p.add_argument("--max", type=int, required=True, dest="max_n")

    p = sub.add_parser("expand", parents=[common, ordered], help="expand an eta quotient")
    p.set_defaults(handler=_cmd_expand)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", choices=sorted(NAMED_SPECS))
    group.add_argument("--spec", help="semicolon factors, e.g. 4^1;6^2;1^-1;3^-1;12^-1")

    p = sub.add_parser("zeta", parents=[common], help="zeta_{i,j} = U(kappa^i xi^j) in Z[xi]")
    p.set_defaults(handler=_cmd_zeta)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser("lambda", parents=[common], help="dissection-slice polynomial")
    p.set_defaults(handler=_cmd_lambda)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("phi", parents=[common], help="internal-difference polynomial")
    p.set_defaults(handler=_cmd_phi)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("valuations", parents=[common], help="2-adic valuation table of phi coefficients")
    p.set_defaults(handler=_cmd_valuations)
    p.add_argument("--k", type=int, nargs="+", required=True, help="odd levels, e.g. --k 3 5")

    p = sub.add_parser(
        "verify", parents=[common, ordered], help="verify a congruence family over a window"
    )
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--family", choices=(*FAMILIES, "pair"), required=True)
    p.add_argument("--k", type=int, help="family level (main/corollary/strengthened), default 0")
    p.add_argument("--nmax", type=int, required=True, help="check all n with 0 <= n < nmax")
    p.add_argument("--alpha-max", type=int, dest="alpha_max", help="top alpha (ramanujan), default 0")
    p.add_argument("--lhs", type=int, help="lhs stride (family=pair)")
    p.add_argument("--rhs", type=int, help="rhs stride (family=pair)")
    p.add_argument("--mod-exp", type=int, dest="mod_exp", help="modulus exponent (family=pair)")

    p = sub.add_parser(
        "scan", parents=[common, ordered], help="largest surviving 2-power modulus per stride pair"
    )
    p.set_defaults(handler=_cmd_scan)
    p.add_argument("--pairs", required=True, help="comma list of a:b pairs, e.g. 8:2,32:8")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--max-exp", type=int, default=12, dest="max_exp")

    return parser


def _write(handle, fmt: str, value, header: list[str], rows, plain) -> None:
    """Write a handler's form in fmt to handle: json dumps value() unless that
    is already an iterator over the json text's pieces, csv writes header and
    rows(), and plain writes the pieces plain() gives; a newline ends json and
    plain, and csv rows end in their own.  Only fmt's thunk is called, and no
    form is built whole before it is written: each piece is one term, one
    block of report lines or _VALUES_CHUNK values.  The interpreter's
    int-to-str limit (4300 digits) is lifted while writing: the budget, not
    the limit, bounds the accepted outputs, whose widest coefficients pass it
    at the dearest zeta cells (4463 digits at zeta --i 2390 --j 2390)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # CPython 3.10.7 on
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        if fmt == "csv":
            import csv  # each output module loads only in its own branch

            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows())
            return
        if fmt == "json":
            import json

            value = value()
            if isinstance(value, Iterator):
                handle.writelines(value)
            else:
                json.dump(value, handle)
        else:
            handle.writelines(plain())
        handle.write("\n")
    finally:
        set_limit(limit)


def _poly_json(p: XiPoly) -> Iterator[str]:
    """Byte for byte json.dumps(p.to_records()), one record per piece."""
    yield "["
    sep = ""
    for deg, coeff in p.terms():
        yield f'{sep}{{"degree": {deg}, "coefficient": "{coeff}"}}'
        sep = ", "
    yield "]"


def _poly_forms(p: XiPoly):
    # zeta --i 1535 --j 0 prints 8.9 MB of plain text (9.0 MB of json),
    # streamed one term at a time
    return lambda: _poly_json(p), ["degree", "coefficient"], p.terms, p.str_pieces


# _values_forms formats this many values per piece of output
_VALUES_CHUNK = 512


def _values_forms(values, order: int):
    # the json text is byte for byte json.dumps({"order": order, "values":
    # [str(v), ...]}); both texts go out _VALUES_CHUNK values at a time, so
    # pdo --max 131071 never holds its 32 MB of text beside the table
    def pieces(head: str, form, sep: str, tail: str) -> Iterator[str]:
        yield head
        for start in range(0, len(values), _VALUES_CHUNK):
            chunk = values[start : start + _VALUES_CHUNK]
            yield (sep if start else "") + sep.join(map(form, chunk))
        yield tail

    return (
        lambda: pieces('{"order": %d, "values": [' % order, '"{}"'.format, ", ", "]}"),
        ["n", "value"],
        lambda: enumerate(values),
        lambda: pieces("", str, "\n", ""),
    )


def _report_line(report: CongruenceReport) -> str:
    start, stop = report.spec.n_range
    line = (
        f"{report.verdict.upper()}  {report.spec.describe()}  "
        f"n in [{start}, {stop})  checked={report.checked_count}  "
        f"order={report.truncation_order}"
    )
    if report.counterexample is not None:
        n, lhs, rhs = report.counterexample
        line += f"  counterexample n={n}: lhs={lhs}, rhs={rhs}"
    return line


def _limited(order: int) -> int:
    if order > MAX_ORDER:
        raise ValueError(f"truncation order {order} is over the limit {MAX_ORDER}")
    return order


def _required_order(args: argparse.Namespace, minimum: int) -> int:
    return _limited(max(minimum, args.order or 1))


def _cmd_pdo(args: argparse.Namespace) -> tuple:
    if args.max_n < 0:
        raise ValueError(f"--max must be >= 0, got {args.max_n}")
    order = _required_order(args, args.max_n + 1)
    return 0, *_values_forms(pdo_series(order).values[: args.max_n + 1], order)


def _cmd_expand(args: argparse.Namespace) -> tuple:
    order = _limited(args.order or 10)
    return 0, *_values_forms(expand(_spec(args), order).coeffs, order)


def _cmd_zeta(args: argparse.Namespace) -> tuple:
    return 0, *_poly_forms(zeta(args.i, args.j))


def _cmd_lambda(args: argparse.Namespace) -> tuple:
    return 0, *_poly_forms(lambda_poly(args.k))


def _cmd_phi(args: argparse.Namespace) -> tuple:
    return 0, *_poly_forms(phi_poly(args.k))


def _cmd_valuations(args: argparse.Namespace) -> tuple:
    """Rows nu(F_k(tau_k + M)) for each requested odd k; exit 1 on any fail."""
    reports = [check_f_profile(k, max_k=k) for k in args.k]
    return (
        0 if all(r.passed for r in reports) else 1,
        lambda: [r.to_record() for r in reports],
        ["k", "tau", "offset", "valuation"],
        lambda: ([r.k, r.base_degree, m, v] for r in reports for m, v in enumerate(r.vals)),
        lambda: ["\n".join(
            f"F_{r.k}  tau={r.base_degree}  nu=[{', '.join(map(str, r.vals))}]  "
            f"verdict={r.verdict}"
            for r in reports
        )],
    )


# the verify flags each family reads; any other one given is refused
_FAMILY_FLAGS = {family: ("k",) for family in FAMILIES}
_FAMILY_FLAGS.update(ramanujan=("alpha_max",), pair=("lhs", "rhs", "mod_exp"))


def _check_family_level(family: str, flag: str, level: int) -> None:
    """Refuse a level at which n = 1 already needs a table past MAX_ORDER,
    before its specs are built: they can be huge there (--alpha-max 30000
    for ramanujan took 5.4-6.8 s and 253 MB to build them).  A family's n = 1
    index is at least 2^level or does not depend on the level, so one probe
    at a level of MAX_ORDER's bit length or below decides every level."""
    specs = FAMILIES[family](min(level, MAX_ORDER.bit_length()), (0, 2))
    if max(spec.max_index(1) for spec in specs) >= MAX_ORDER:
        raise ValueError(
            f"--{flag.replace('_', '-')} {level} is too large for --family {family}: "
            f"n >= 1 needs a truncation order over the limit {MAX_ORDER}"
        )


def _cmd_verify(args: argparse.Namespace) -> tuple:
    family, nmax = args.family, args.nmax
    ignored = [
        "--" + key.replace("_", "-")
        for key in ("k", "alpha_max", "lhs", "rhs", "mod_exp")
        if getattr(args, key) is not None and key not in _FAMILY_FLAGS[family]
    ]
    if ignored:
        raise ValueError(f"--family {family} takes no {', '.join(ignored)}")
    if nmax < 1:
        raise ValueError(f"--nmax must be >= 1, got {nmax}")
    window = (0, nmax)
    if family == "pair":
        if args.lhs is None or args.rhs is None or args.mod_exp is None:
            raise ValueError("family=pair needs --lhs, --rhs and --mod-exp")
        if args.mod_exp < 1:
            raise ValueError(f"--mod-exp must be >= 1, got {args.mod_exp}")
        if args.mod_exp > MAX_MOD_EXP:
            raise ValueError(f"--mod-exp {args.mod_exp} is over the limit {MAX_MOD_EXP}")
        specs = [CongruenceSpec(args.lhs, args.rhs, 2**args.mod_exp, window)]
    else:
        [flag] = _FAMILY_FLAGS[family]
        level = getattr(args, flag) or 0
        _check_family_level(family, flag, level)
        specs = FAMILIES[family](level, window)
    needed = max(spec.max_index(nmax - 1) for spec in specs) + 1
    table = pdo_series(_required_order(args, needed))
    reports = [verify(spec, table) for spec in specs]
    return (
        0 if all(r.passed for r in reports) else 1,
        lambda: [r.to_record() for r in reports],
        ["description", "modulus", "n_start", "n_stop", "verdict", "counterexample_n"],
        lambda: ([r.spec.describe(), r.spec.modulus, *r.spec.n_range, r.verdict,
                  r.counterexample[0] if r.counterexample else ""] for r in reports),
        lambda: ["\n".join(map(_report_line, reports))],
    )


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a_text, b_text = chunk.split(":")
            pairs.append((int(a_text), int(b_text)))
        except ValueError:
            raise ValueError(f"malformed stride pair {chunk!r}; expected a:b") from None
    if not pairs:
        raise ValueError(f"no stride pairs in {text!r}")
    return pairs


def _cmd_scan(args: argparse.Namespace) -> tuple:
    pairs = _parse_pairs(args.pairs)
    if args.nmax < 1:
        raise ValueError(f"--nmax must be >= 1, got {args.nmax}")
    biggest = max(max(a, b) for a, b in pairs)
    table = pdo_series(_required_order(args, biggest * (args.nmax - 1) + 1))
    results = scan(table, pairs, args.max_exp)
    return (
        0,
        lambda: [r.to_record() for r in results],
        ["lhs_stride", "rhs_stride", "max_exponent", "n_stop"],
        lambda: ([*r.pair, r.exponent, r.n_range[1]] for r in results),
        lambda: ["\n".join(
            f"PDO({r.pair[0]}*n) == PDO({r.pair[1]}*n) holds mod 2^{r.exponent} "
            f"for n in [0, {r.n_range[1]})"
            for r in results
        )],
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        order = getattr(args, "order", None)
        if order is not None and order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        price = _price(args)
        if price > BUDGET:
            flag = {"expand": "--order", "zeta": "--i or --j"}.get(args.command, "--k")
            raise ValueError(f"{args.command} is predicted at {price:.3g} work units, over the budget of"
                             f" {BUDGET:.3g} (expand --name delta --order {MAX_ORDER}); lower {flag}")
        code, *forms = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                _write(handle, args.format, *forms)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        try:
            _write(sys.stdout, args.format, *forms)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe early (``| head``): the output is
            # incomplete, so exit 2, and point stdout at the null device so
            # that the interpreter's final flush stays silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
