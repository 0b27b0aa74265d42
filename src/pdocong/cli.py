"""Command-line surface: expansions, tower polynomials, valuation tables,
congruence verification and scanning, with plain/json/csv output.

Each call is a cold process, so start-up counts: importing this module loads
the package and argparse but none of the heavier standard modules (the
records, ``RunConfig`` among them, are ``_record.Record`` classes, which need
no code generation at import).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from ._record import Record
from .congruence import FAMILIES, CongruenceReport, CongruenceSpec, scan, verify
from .etaq import NAMED_SPECS, EtaQuotientSpec, expand, pdo_series
from .padic import INFINITY, check_f_profile
from .xipoly import XiPoly, lambda_poly, phi_poly, zeta

# Requests past these limits are refused up front with exit 2, before any table
# or polynomial is built.  pdo_series(2**17) takes about 5 s and 55 MB; each
# tower level costs about 8.5 times the one below, phi_poly(10) about 6 s cold,
# and lambda_poly(12), which unitizes at phi_poly(10)'s i, about the same.  The
# zeta limit holds for --i and --j alike: the dearest cells at or below it,
# zeta --i 1535 with a small --j, take about 5.5 s and 75 MB cold, and
# --i 2048 --j 0 takes 9.4 s and 107 MB (one Xeon core, CPython 3.11).
MAX_ORDER = 2**17
MAX_LEVEL = {"lambda": 12, "phi": 10, "zeta": 1536}


class RunConfig(Record):
    __slots__ = ("command", "output_format", "out_path", "order", "params")
    command: str
    output_format: str  # plain | json | csv
    out_path: str | None
    order: int | None
    params: dict


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
    p.add_argument("--max", type=int, required=True, dest="max_n")

    p = sub.add_parser("expand", parents=[common, ordered], help="expand an eta quotient")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", choices=sorted(NAMED_SPECS))
    group.add_argument("--spec", help="semicolon factors, e.g. 4^1;6^2;1^-1;3^-1;12^-1")

    p = sub.add_parser("zeta", parents=[common], help="zeta_{i,j} = U(kappa^i xi^j) in Z[xi]")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser("lambda", parents=[common], help="dissection-slice polynomial")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("phi", parents=[common], help="internal-difference polynomial")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("valuations", parents=[common], help="2-adic valuation table of phi coefficients")
    p.add_argument("--k", type=int, nargs="+", required=True, help="odd levels, e.g. --k 3 5")

    p = sub.add_parser(
        "verify", parents=[common, ordered], help="verify a congruence family over a window"
    )
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
    p.add_argument("--pairs", required=True, help="comma list of a:b pairs, e.g. 8:2,32:8")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--max-exp", type=int, default=12, dest="max_exp")

    return parser


def parse_config(argv) -> RunConfig:
    args = _build_parser().parse_args(argv)
    params = dict(vars(args))
    command = params.pop("command")
    output_format = params.pop("format")
    out_path = params.pop("out")
    order = params.pop("order", None)
    if order is not None and order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return RunConfig(command, output_format, out_path, order, params)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _poly_text(p: XiPoly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(p.to_records())
    if fmt == "csv":
        return _csv_text(["degree", "coefficient"], ((deg, str(c)) for deg, c in p.terms()))
    return str(p)


def _values_text(values, fmt: str, order: int) -> str:
    if fmt == "json":
        return json.dumps({"order": order, "values": [str(v) for v in values]})
    if fmt == "csv":
        return _csv_text(["n", "value"], ((n, str(v)) for n, v in enumerate(values)))
    return "\n".join(str(v) for v in values)


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


def _reports_text(reports: list[CongruenceReport], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_record() for r in reports])
    if fmt == "csv":
        return _csv_text(
            ["description", "modulus", "n_start", "n_stop", "verdict", "counterexample_n"],
            (
                [r.spec.describe(), r.spec.modulus, *r.spec.n_range, r.verdict,
                 r.counterexample[0] if r.counterexample else ""]
                for r in reports
            ),
        )
    return "\n".join(_report_line(r) for r in reports)


def _limited(order: int) -> int:
    if order > MAX_ORDER:
        raise ValueError(f"truncation order {order} is over the limit {MAX_ORDER}")
    return order


def _required_order(config: RunConfig, minimum: int) -> int:
    return _limited(max(minimum, config.order or 1))


def _cmd_pdo(config: RunConfig) -> tuple[int, str]:
    max_n = config.params["max_n"]
    if max_n < 0:
        raise ValueError(f"--max must be >= 0, got {max_n}")
    order = _required_order(config, max_n + 1)
    table = pdo_series(order)
    return 0, _values_text(table.values[: max_n + 1], config.output_format, order)


def _cmd_expand(config: RunConfig) -> tuple[int, str]:
    if config.params["name"]:
        spec = NAMED_SPECS[config.params["name"]]
    else:
        spec = EtaQuotientSpec.parse(config.params["spec"])
    order = _limited(config.order or 10)
    series = expand(spec, order)
    return 0, _values_text(series.coeffs, config.output_format, order)


def _level(config: RunConfig, flag: str = "k") -> int:
    value, limit = config.params[flag], MAX_LEVEL[config.command]
    if value > limit:
        raise ValueError(f"--{flag} {value} is over the limit {limit} for {config.command}")
    return value


def _cmd_zeta(config: RunConfig) -> tuple[int, str]:
    return 0, _poly_text(zeta(_level(config, "i"), _level(config, "j")), config.output_format)


def _cmd_lambda(config: RunConfig) -> tuple[int, str]:
    return 0, _poly_text(lambda_poly(_level(config)), config.output_format)


def _cmd_phi(config: RunConfig) -> tuple[int, str]:
    return 0, _poly_text(phi_poly(_level(config)), config.output_format)


def _cmd_valuations(config: RunConfig) -> tuple[int, str]:
    """Rows nu(F_k(tau_k + M)) for each requested odd k; exit 1 on any fail."""
    reports = [check_f_profile(k) for k in config.params["k"]]
    code = 0 if all(r.passed for r in reports) else 1
    fmt = config.output_format
    if fmt == "json":
        return code, json.dumps([r.to_record() for r in reports])
    if fmt == "csv":
        return code, _csv_text(
            ["k", "tau", "offset", "valuation"],
            (
                [r.k, r.base_degree, m, "inf" if v == INFINITY else v]
                for r in reports
                for m, v in enumerate(r.vals)
            ),
        )
    lines = []
    for r in reports:
        vals = ", ".join("inf" if v == INFINITY else str(v) for v in r.vals)
        lines.append(f"F_{r.k}  tau={r.base_degree}  nu=[{vals}]  verdict={r.verdict}")
    return code, "\n".join(lines)


# the verify flags each family reads; any other one given is refused
_FAMILY_FLAGS = {family: ("k",) for family in FAMILIES}
_FAMILY_FLAGS.update(ramanujan=("alpha_max",), pair=("lhs", "rhs", "mod_exp"))


def _cmd_verify(config: RunConfig) -> tuple[int, str]:
    family = config.params["family"]
    nmax = config.params["nmax"]
    ignored = [
        "--" + key.replace("_", "-")
        for key in ("k", "alpha_max", "lhs", "rhs", "mod_exp")
        if config.params[key] is not None and key not in _FAMILY_FLAGS[family]
    ]
    if ignored:
        raise ValueError(f"--family {family} takes no {', '.join(ignored)}")
    if nmax < 1:
        raise ValueError(f"--nmax must be >= 1, got {nmax}")
    window = (0, nmax)
    if family == "pair":
        lhs, rhs, mod_exp = (config.params[key] for key in ("lhs", "rhs", "mod_exp"))
        if lhs is None or rhs is None or mod_exp is None:
            raise ValueError("family=pair needs --lhs, --rhs and --mod-exp")
        if mod_exp < 1:
            raise ValueError(f"--mod-exp must be >= 1, got {mod_exp}")
        specs = [CongruenceSpec(lhs, rhs, 2**mod_exp, window)]
    else:
        [flag] = _FAMILY_FLAGS[family]
        level = config.params[flag]
        specs = FAMILIES[family](0 if level is None else level, window)
    needed = max(spec.max_index(nmax - 1) for spec in specs) + 1
    table = pdo_series(_required_order(config, needed))
    reports = [verify(spec, table) for spec in specs]
    code = 0 if all(r.passed for r in reports) else 1
    return code, _reports_text(reports, config.output_format)


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


def _cmd_scan(config: RunConfig) -> tuple[int, str]:
    pairs = _parse_pairs(config.params["pairs"])
    nmax = config.params["nmax"]
    if nmax < 1:
        raise ValueError(f"--nmax must be >= 1, got {nmax}")
    biggest = max(max(a, b) for a, b in pairs)
    table = pdo_series(_required_order(config, biggest * (nmax - 1) + 1))
    results = scan(table, pairs, config.params["max_exp"])
    fmt = config.output_format
    if fmt == "json":
        return 0, json.dumps([r.to_record() for r in results])
    if fmt == "csv":
        return 0, _csv_text(
            ["lhs_stride", "rhs_stride", "max_exponent", "n_stop"],
            ([*r.pair, r.exponent, r.n_range[1]] for r in results),
        )
    lines = [
        f"PDO({r.pair[0]}*n) == PDO({r.pair[1]}*n) holds mod 2^{r.exponent} "
        f"for n in [0, {r.n_range[1]})"
        for r in results
    ]
    return 0, "\n".join(lines)


_HANDLERS = {
    "pdo": _cmd_pdo,
    "expand": _cmd_expand,
    "zeta": _cmd_zeta,
    "lambda": _cmd_lambda,
    "phi": _cmd_phi,
    "valuations": _cmd_valuations,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit status, rendered report)."""
    return _HANDLERS[config.command](config)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        code, text = run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.out_path:
        try:
            with open(config.out_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out {config.out_path}: {exc.strerror}", file=sys.stderr)
            return 2
    elif text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
