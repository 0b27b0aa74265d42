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
from math import isqrt

from .congruence import FAMILIES, CongruenceReport, CongruenceSpec, scan, verify
from .etaq import NAMED_SPECS, EtaQuotientSpec, expand, pdo_series
from .padic import check_f_profile
from .xipoly import XiPoly, lambda_poly, phi_poly, zeta

# Requests past these limits are refused up front with exit 2, before any table
# or polynomial is built.  pdo_series(2**17) takes 1.6-1.8 s and 44 MB in one
# process (a cold pdo --max 131071 1.9-3.1 s of CPU and 43 MB in every
# format); each top tower level costs about 10 times the one below; phi --k 10
# and lambda --k 12, which unitizes at phi_poly(10)'s i, take 1.7-3.0 and
# 1.6-3.0 s cold (CPU time of ten cold runs each), and 19 MB in plain text.
# The zeta limit holds for --i and --j alike: the dearest cells at or below
# it, zeta --i 1535 with a small --j, take 1.7-2.7 s and 46 MB cold in every
# format (the Kronecker products at the top of the ladder set the peak; every
# level of the ladder, 5.7 MB, stays in the pair cache), zeta --i 1536
# --j 1536 1.5-1.8 s and 42 MB (six cold runs each on a shared Xeon core,
# CPython 3.11), and zeta(2048, 0) took 3.6 s and 77 MB in one cold run.  The
# limits were set when the dearest of these calls took about 6 s, and are kept.
# ``expand`` runs |e| sparse passes over each factor E(q^m)^e and is held to
# two budgets, each delta's at the order limit.  A pass costs at least its
# order, so order times sum |e| is held to 6 * MAX_ORDER, which bounds the
# passes at small orders, where each costs microseconds whatever it reads
# (--name kappa, 80 passes, took 9.4-10.9 s at order 16384, which this
# refuses).  A pass also reads about sqrt(order / m) terms of E(q^m) per
# coefficient, so order times sum |e| isqrt(order // m) (_expansion_terms) is
# held to MAX_EXPANSION_PRICE: --spec "1^-6" --order 131072, within the first
# budget but 57 s and 361 MB (81 MB of JSON), is refused at about twice this
# one, and so is "1^6" at that order (19 s).  The price counts terms, not
# digits, so the dearest accepted calls are specs whose coefficients grow
# fast: 1^-6 at order 85848 takes 17-19 s and 175 MB, 1^-24 at 32768 16 s and
# 93 MB, 1^-48 at 16384 11 s and 53 MB, against 8 s and 45 MB for delta at
# the order limit when those were measured.  The dearest accepted call for
# each named quotient now takes, cold (two runs each on a shared Xeon core,
# CPython 3.11): --name delta --order 131072 4.9-5.0 s and 44 MB, gamma
# --order 26214 3.6-3.8 s and 22 MB, xi --order 65536 4.1 s and 34 MB, kappa
# --order 9830 2.5-2.6 s and 17 MB.
# ``verify --family pair`` builds the modulus 2**mod_exp, so --mod-exp is held
# to MAX_MOD_EXP.  PDO(n) < 2^1208 for every n below MAX_ORDER, so any exponent
# from 1208 on already asks for equality, and 2^4096 has 1234 decimal digits,
# inside the interpreter's int-to-str limit that the report's text meets.
MAX_ORDER = 2**17
MAX_LEVEL = {"lambda": 12, "phi": 10, "zeta": 1536}
MAX_MOD_EXP = 4096


def _expansion_terms(spec: EtaQuotientSpec, order: int) -> int:
    """The terms of E(q^m) that the sparse passes of spec read per coefficient, about."""
    return sum(abs(e) * isqrt(order // m) for m, e in spec.factors)


MAX_EXPANSION_PRICE = MAX_ORDER * _expansion_terms(NAMED_SPECS["delta"], MAX_ORDER)


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
    block of report lines or _VALUES_CHUNK values."""
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
    # streamed one term at a time; the dearest cells' widest coefficients have
    # under 3000 digits (2936 there), so no term meets the interpreter's
    # int-to-str limit (4300) halfway through the output
    return lambda: _poly_json(p), ["degree", "coefficient"], p.terms, p.str_pieces


# _values_forms formats this many values per piece of output
_VALUES_CHUNK = 512


def _values_forms(values, order: int):
    # the json text is byte for byte json.dumps({"order": order, "values":
    # [str(v), ...]}); both texts go out _VALUES_CHUNK values at a time, so
    # pdo --max 131071 never holds its 32 MB of text beside the table.  No
    # value meets the int-to-str limit (4300) halfway through the output:
    # PDO(n) < 2^1208 below MAX_ORDER, and every factor E(q^m)^e is majorized
    # coefficientwise by 1/E(q)^|e|, so by the saddle-point step of the etaq
    # module docstring an accepted expand's coefficients are below
    # exp(pi sqrt(2/3 * order * sum |e|)) <= exp(pi sqrt(4 * MAX_ORDER)),
    # under 1000 digits
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
    spec = NAMED_SPECS[args.name] if args.name else EtaQuotientSpec.parse(args.spec)
    order = _limited(args.order or 10)
    passes = sum(abs(e) for _, e in spec.factors)
    if order * passes > 6 * MAX_ORDER:
        raise ValueError(
            f"order {order} times {passes} expansion passes is over the limit {6 * MAX_ORDER}"
        )
    terms = _expansion_terms(spec, order)
    if order * terms > MAX_EXPANSION_PRICE:
        raise ValueError(
            f"order {order} times {terms} E(q^m) terms per coefficient"
            f" is over the limit {MAX_EXPANSION_PRICE}"
        )
    return 0, *_values_forms(expand(spec, order).coeffs, order)


def _level(args: argparse.Namespace, flag: str = "k") -> int:
    value, limit = getattr(args, flag), MAX_LEVEL[args.command]
    if value > limit:
        raise ValueError(f"--{flag} {value} is over the limit {limit} for {args.command}")
    return value


def _cmd_zeta(args: argparse.Namespace) -> tuple:
    return 0, *_poly_forms(zeta(_level(args, "i"), _level(args, "j")))


def _cmd_lambda(args: argparse.Namespace) -> tuple:
    return 0, *_poly_forms(lambda_poly(_level(args)))


def _cmd_phi(args: argparse.Namespace) -> tuple:
    return 0, *_poly_forms(phi_poly(_level(args)))


def _cmd_valuations(args: argparse.Namespace) -> tuple:
    """Rows nu(F_k(tau_k + M)) for each requested odd k; exit 1 on any fail."""
    reports = [check_f_profile(k) for k in args.k]
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
