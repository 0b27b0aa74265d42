import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

import pytest

from pdocong import (
    FAMILIES,
    EtaQuotientSpec,
    XiPoly,
    check_f_profile,
    expand,
    lambda_poly,
    pdo_series,
    phi_poly,
    verify_corollary,
    verify_main,
    verify_ramanujan,
    verify_strengthened,
    zeta,
)
from pdocong import cli, xipoly
from pdocong.cli import _build_parser, main
from records import congruence_from_record, profile_from_record


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pdo_values(capsys):
    code, out, _ = run_cli(capsys, "pdo", "--max", "4")
    assert code == 0
    assert out.split() == ["1", "1", "2", "4", "5"]


def test_pdo_json(capsys):
    code, out, _ = run_cli(capsys, "pdo", "--max", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["1", "1", "2", "4", "5", "8", "12"]


@pytest.mark.parametrize("max_n", [0, 2, 3, 6, 7, 20])
def test_values_written_in_pieces_are_the_joined_text(capsys, monkeypatch, max_n):
    # pieces of 3 values: one piece, a full last piece and a short last piece
    # all give json.dumps' bytes and the plain lines
    monkeypatch.setattr(cli, "_VALUES_CHUNK", 3)
    values = pdo_series(max_n + 1).values
    strings = [str(v) for v in values]
    payload = {"order": max_n + 1, "values": strings}
    for fmt, want in (("json", json.dumps(payload)), ("plain", "\n".join(strings))):
        code, out, _ = run_cli(capsys, "pdo", "--max", str(max_n), "--format", fmt)
        assert (code, out) == (0, want + "\n")


# each polynomial is built in the test, so that a fault in zeta fails this
# test and not the collection of the module
@pytest.mark.parametrize(
    "build",
    [XiPoly, lambda: XiPoly({0: -7}), lambda: XiPoly({3: 5, 4: -20, 5: 16}), lambda: zeta(37, 100)],
    ids=["p0", "p1", "p2", "p3"],
)
def test_poly_json_pieces_are_json_dumps_of_the_records(build):
    p = build()
    assert "".join(cli._poly_json(p)) == json.dumps(p.to_records())


def test_pdo_csv(capsys):
    code, out, _ = run_cli(capsys, "pdo", "--max", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2"]


def test_expand_named_and_spec_agree(capsys):
    code, by_name, _ = run_cli(capsys, "expand", "--name", "delta", "--order", "8")
    assert code == 0
    code, by_spec, _ = run_cli(
        capsys, "expand", "--spec", "4^1;6^2;1^-1;3^-1;12^-1", "--order", "8"
    )
    assert code == 0
    assert by_name == by_spec
    assert by_name.split()[:5] == ["1", "1", "2", "4", "5"]


def test_expand_malformed_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "expand", "--spec", "4^x", "--order", "5")
    assert code == 2
    assert "malformed" in err


def test_lambda_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--k", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records == [
        {"degree": 4, "coefficient": "9"},
        {"degree": 5, "coefficient": "-24"},
        {"degree": 6, "coefficient": "16"},
    ]
    assert XiPoly.from_records(records) == lambda_poly(3)


def test_zeta_output(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--i", "1", "--j", "2")
    assert code == 0
    assert out.strip() == "- 15*xi^4 + 16*xi^5"
    code, out, _ = run_cli(capsys, "zeta", "--i", "1", "--j", "2", "--format", "json")
    assert XiPoly.from_records(json.loads(out)) == zeta(1, 2)


def test_phi_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "phi", "--k", "3", "--format", "json")
    assert code == 0
    assert XiPoly.from_records(json.loads(out)) == phi_poly(3)


def test_phi_csv(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--k", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["degree,coefficient", "2,3", "3,-2"]


def test_valuations_table(capsys):
    code, out, _ = run_cli(capsys, "valuations", "--k", "3", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("F_3  tau=14")
    assert "6, 6, 7" in lines[0]
    assert lines[1].startswith("F_5  tau=54")
    assert "7, 7, 9" in lines[1]
    assert all(line.endswith("verdict=pass") for line in lines)


def test_valuations_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "valuations", "--k", "3", "--format", "json")
    assert code == 0
    [record] = json.loads(out)
    assert record["failures"] == []
    report = profile_from_record(record)
    assert report.passed and report.base_degree == 14


def test_valuations_empty_list(capsys):
    # argparse refuses an empty level list
    for argv in (["valuations"], ["valuations", "--k"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err


def test_valuations_out_of_range_exits_2(monkeypatch, capsys):
    # valuations is priced as phi at its highest level: --k 11 is over the
    # budget, and nothing is built
    _refuse_tables(monkeypatch)
    code, _, err = run_cli(capsys, "valuations", "--k", "3", "11")
    assert code == 2
    assert err == _refusal(["valuations", "--k", "3", "11"])


def test_verify_corollary_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "corollary", "--k", "0", "--nmax", "100")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_pair_negative_control(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--family", "pair", "--lhs", "4", "--rhs", "1", "--mod-exp", "3",
        "--nmax", "10", "--format", "json",
    )
    assert code == 1
    [record] = json.loads(out)
    report = congruence_from_record(record)
    assert report.counterexample == (1, 5, 1)


def test_verify_strengthened_and_ramanujan(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "strengthened", "--nmax", "20")
    assert code == 0
    assert out.count("PASS") == 2
    code, out, _ = run_cli(
        capsys, "verify", "--family", "ramanujan", "--alpha-max", "1", "--nmax", "30"
    )
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_main_k0_reports_honest_failure(capsys):
    # the k=0 family member is false at n=1; the CLI must surface it, not hide it
    code, out, _ = run_cli(capsys, "verify", "--family", "main", "--k", "0", "--nmax", "100")
    assert code == 1
    assert "counterexample n=1: lhs=22, rhs=2" in out


@pytest.mark.parametrize(
    "family, flag, message",
    [
        ("corollary", "--k", "k must be >= 0, got -1"),
        ("strengthened", "--k", "k must be >= 0, got -1"),
        ("ramanujan", "--alpha-max", "alpha_max must be >= 0, got -1"),
    ],
)
def test_verify_negative_level_exits_2(capsys, family, flag, message):
    code, out, err = run_cli(capsys, "verify", "--family", family, flag, "-1", "--nmax", "10")
    assert code == 2
    assert out == ""
    assert message in err


# each registered family at one level, through the library on an order-8000 table
LIBRARY_CALLS = {
    "main": (1, lambda table: [verify_main(1, 29, table)]),
    "corollary": (1, lambda table: [verify_corollary(1, 29, table)]),
    "strengthened": (0, lambda table: list(verify_strengthened(29, table))),
    "ramanujan": (2, lambda table: verify_ramanujan(2, 30, table)),
}


def test_verify_family_choices_are_the_library_table():
    [commands] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    [family] = [a for a in commands.choices["verify"]._actions if a.dest == "family"]
    assert tuple(family.choices) == (*FAMILIES, "pair")
    assert set(FAMILIES) == set(LIBRARY_CALLS)


@pytest.fixture(scope="module")
def table_8000():
    return pdo_series(8000)


@pytest.mark.parametrize("family", sorted(LIBRARY_CALLS))
def test_verify_json_matches_library(capsys, table_8000, family):
    level, library_call = LIBRARY_CALLS[family]
    flag = "--alpha-max" if family == "ramanujan" else "--k"
    code, out, _ = run_cli(
        capsys, "verify", "--family", family, flag, str(level), "--nmax", "30", "--format", "json"
    )
    assert code == 0
    reports = library_call(table_8000)
    # same specs and verdicts; the CLI sizes its own table to the window
    order = max(r.spec.max_index(29) for r in reports) + 1
    assert json.loads(out) == [{**r.to_record(), "truncation_order": order} for r in reports]


@pytest.mark.parametrize(
    "family, flags, named",
    [
        ("ramanujan", ["--k", "5"], "--k"),
        ("pair", ["--lhs", "4", "--rhs", "1", "--mod-exp", "2", "--k", "1"], "--k"),
        ("main", ["--alpha-max", "2"], "--alpha-max"),
        ("corollary", ["--k", "1", "--alpha-max", "0"], "--alpha-max"),
        ("strengthened", ["--alpha-max", "1"], "--alpha-max"),
        ("pair", ["--lhs", "4", "--rhs", "1", "--mod-exp", "2", "--alpha-max", "0"], "--alpha-max"),
        ("main", ["--k", "1", "--lhs", "4"], "--lhs"),
        ("strengthened", ["--rhs", "1"], "--rhs"),
        ("ramanujan", ["--mod-exp", "3"], "--mod-exp"),
        ("corollary", ["--lhs", "4", "--rhs", "1", "--mod-exp", "3"], "--lhs, --rhs, --mod-exp"),
    ],
)
def test_verify_refuses_flags_the_family_ignores(capsys, family, flags, named):
    code, out, err = run_cli(capsys, "verify", "--family", family, *flags, "--nmax", "10")
    assert (code, out) == (2, "")
    assert err == f"error: --family {family} takes no {named}\n"


def test_verify_levels_default_to_zero(capsys):
    for family, flag in (("corollary", "--k"), ("strengthened", "--k"), ("ramanujan", "--alpha-max")):
        given = run_cli(capsys, "verify", "--family", family, flag, "0", "--nmax", "20")
        assert run_cli(capsys, "verify", "--family", family, "--nmax", "20") == given


def test_verify_pair_missing_args_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "pair", "--nmax", "10")
    assert code == 2
    assert "needs --lhs" in err


def test_scan_output(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--pairs", "16:4,1:1", "--nmax", "50", "--max-exp", "8",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    by_pair = {(r["lhs_stride"], r["rhs_stride"]): r for r in records}
    assert by_pair[(16, 4)]["max_exponent"] >= 3
    assert by_pair[(1, 1)]["max_exponent"] == 8


def test_scan_malformed_pairs_exits_2(capsys):
    code, _, err = run_cli(capsys, "scan", "--pairs", "16-4", "--nmax", "10")
    assert code == 2
    assert "stride pair" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["lambda", "--k", "2", "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert XiPoly.from_records(json.loads(target.read_text())) == lambda_poly(2)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_output_written_in_slices_is_byte_identical(tmp_path, capsys, fmt):
    # each form goes out in pieces, one term at a time (csv a row at a time);
    # the bytes on stdout and in --out are the whole form and a newline
    argv = ["phi", "--k", "4", "--format", fmt]
    p = phi_poly(4)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["degree", "coefficient"])
        writer.writerows(p.terms())
        form = buf.getvalue().rstrip("\n")
    else:
        form = "".join(cli._poly_json(p) if fmt == "json" else p.str_pieces())
    whole = form + "\n"
    assert len(p.terms()) > 3
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, whole)
    target = tmp_path / "out.txt"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == whole.encode()


@pytest.mark.parametrize("where", ["missing/dir/report.txt", "."])
def test_out_write_error_exits_2(tmp_path, capsys, where):
    # 1 would mean "counterexample found"; a file that cannot be written is a usage error
    target = tmp_path / where
    code, out, err = run_cli(capsys, "pdo", "--max", "3", "--out", str(target))
    assert (code, out) == (2, "")
    reason = "No such file or directory" if where != "." else "Is a directory"
    assert err == f"error: cannot write --out {target}: {reason}\n"


def _refuse_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"a table was built for a refused request: {args}")

    for name in ("pdo_series", "expand", "lambda_poly", "phi_poly", "zeta", "check_f_profile"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "argv, order",
    [
        (["verify", "--family", "main", "--k", "1", "--nmax", str(2**78 + 1)], 2**83 + 1),
        (["expand", "--spec", "1^1", "--order", "99999999999999999999"], 99999999999999999999),
        (["expand", "--name", "xi", "--order", "131073"], 131073),
        (["pdo", "--max", "131072"], 131073),
        (["pdo", "--max", "3", "--order", "131073"], 131073),
        (["scan", "--pairs", "8:2", "--nmax", "16385"], 131073),
        (["verify", "--family", "pair", "--lhs", "65537", "--rhs", "1", "--mod-exp", "1",
          "--nmax", "3"], 131075),
    ],
)
def test_oversize_orders_are_refused_up_front(monkeypatch, capsys, argv, order):
    _refuse_tables(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: truncation order {order} is over the limit 131072\n"


def test_the_order_limit_is_inclusive(monkeypatch, capsys):
    orders = []
    monkeypatch.setattr(cli, "pdo_series", lambda order: orders.append(order) or pdo_series(8))
    monkeypatch.setattr(cli, "expand", lambda spec, order: orders.append(order) or expand(spec, 8))
    assert cli.MAX_ORDER == 2**17
    for argv in (["pdo", "--max", "3", "--order", "131072"], ["pdo", "--max", "131071"],
                 ["expand", "--name", "delta", "--order", "131072"],
                 ["scan", "--pairs", "131071:1", "--nmax", "2"]):
        assert main(argv) == 0  # on a short stand-in table: only the order matters here
        capsys.readouterr()
    assert orders == [131072] * 4


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "ramanujan", "--alpha-max", "30000"],
         "--alpha-max 30000 is too large for --family ramanujan"),
        (["--family", "main", "--k", "50000000"], "--k 50000000 is too large for --family main"),
        (["--family", "main", "--k", "40", "--nmax", "2"], "--k 40 is too large for --family main"),
        # the levels that leave no n >= 1 to check: n = 0 alone is refused with them
        (["--family", "main", "--k", "7"], "--k 7 is too large for --family main"),
        (["--family", "corollary", "--k", "7"], "--k 7 is too large for --family corollary"),
        (["--family", "ramanujan", "--alpha-max", "14"],
         "--alpha-max 14 is too large for --family ramanujan"),
        (["--family", "main", "--k", "1000000000000"],
         "--k 1000000000000 is too large for --family main"),
        (["--family", "ramanujan", "--alpha-max", "1000000000000"],
         "--alpha-max 1000000000000 is too large for --family ramanujan"),
    ],
)
def test_oversize_family_levels_are_refused_before_any_spec(monkeypatch, capsys, argv, message):
    _refuse_tables(monkeypatch)
    argv = ["verify", *argv] + ([] if "--nmax" in argv else ["--nmax", "1"])
    start = time.process_time()
    code, out, err = run_cli(capsys, *argv)
    assert time.process_time() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: {message}: n >= 1 needs a truncation order over the limit 131072\n"


def test_the_family_level_limits_are_inclusive():
    # n = 1 at the top accepted level: PDO(2^15) for main, PDO(2^16) for the
    # corollary, PDO(15 * 2^13) for ramanujan; strengthened has no level to grow
    for family, flag, top in (("main", "k", 6), ("corollary", "k", 6),
                              ("ramanujan", "alpha_max", 13), ("strengthened", "k", 10**9)):
        for level in (0, 1, 2, 5, top):
            cli._check_family_level(family, flag, level)
        if family != "strengthened":
            with pytest.raises(ValueError, match="over the limit 131072"):
                cli._check_family_level(family, flag, top + 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_level_reaches_its_power_of_two_or_stays_put(family):
    # _check_family_level probes one level, min(level, MAX_ORDER's bit length),
    # which decides every level only while this holds
    base = FAMILIES[family](0, (0, 2))
    for level in range(cli.MAX_ORDER.bit_length() + 1):
        specs = FAMILIES[family](level, (0, 2))
        assert max(spec.max_index(1) for spec in specs) >= 2**level or specs == base, level


def _refusal(argv):
    """The budget refusal main prints for argv, from the price that _price gives."""
    price = cli._price(_build_parser().parse_args(argv))
    assert price > cli.BUDGET
    flag = {"expand": "--order", "zeta": "--i or --j"}.get(argv[0], "--k")
    return (
        f"error: {argv[0]} is predicted at {price:.3g} work units, over the budget of"
        f" {cli.BUDGET:.3g} (expand --name delta --order 131072); lower {flag}\n"
    )


def _stand_ins(monkeypatch):
    """Cheap stand-ins for the builders, recording what each is asked for."""
    asked = []
    monkeypatch.setattr(cli, "expand", lambda spec, order: asked.append(order) or expand(EtaQuotientSpec(((1, 1),)), 8))
    monkeypatch.setattr(cli, "zeta", lambda i, j: asked.append((i, j)) or zeta(1, 2))
    monkeypatch.setattr(cli, "phi_poly", lambda k: asked.append(k) or phi_poly(3))
    monkeypatch.setattr(cli, "lambda_poly", lambda k: asked.append(k) or lambda_poly(3))
    monkeypatch.setattr(cli, "check_f_profile", lambda k, max_k: asked.append((k, max_k)) or check_f_profile(3))
    return asked


def test_the_budget_is_the_price_of_delta_at_the_order_limit():
    args = _build_parser().parse_args(["expand", "--name", "delta", "--order", "131072"])
    assert cli.BUDGET == cli._price(args) == cli._expand_price(EtaQuotientSpec.parse("4^1;6^2;1^-1;3^-1;12^-1"), 2**17)
    # the table commands are held to MAX_ORDER alone
    for argv in (["pdo", "--max", "131071"], ["scan", "--pairs", "8:2", "--nmax", "100"]):
        assert cli._price(_build_parser().parse_args(argv)) == 0


# The calls that the pass budget refused (order times the passes over the
# limit 786432).  kappa at 2^17 is still over the one budget; the other four
# are accepted now (each takes under 5 s cold, see PRICE_TABLE), so their
# expand is a stand-in here.
@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["--name", "kappa", "--order", "131072"], 2, id="argv0-131072-80"),
        pytest.param(["--name", "kappa", "--order", "9831"], 0, id="argv1-9831-80"),
        pytest.param(["--name", "gamma", "--order", "26215"], 0, id="argv2-26215-30"),
        pytest.param(["--name", "xi", "--order", "65537"], 0, id="argv3-65537-12"),
        pytest.param(["--spec", "1^-100000"], 0, id="argv4-10-100000"),
    ],
)
def test_oversize_expansions_are_refused_up_front(monkeypatch, capsys, argv, code):
    asked = _stand_ins(monkeypatch)
    start = time.process_time()
    assert run_cli(capsys, "expand", *argv)[0] == code
    assert time.process_time() - start < 0.5
    if code:
        assert asked == []
        assert run_cli(capsys, "expand", *argv) == (2, "", _refusal(["expand", *argv]))
    else:
        assert asked == [int(argv[argv.index("--order") + 1]) if "--order" in argv else 10]


@pytest.mark.parametrize(
    "spec, order, terms",
    [("1^-6", 131072, 2172), ("1^6", 131072, 2172), ("1^-6", 85849, 1758), ("2^-3;1^-3", 100000, 1617)],
)
def test_expansions_over_the_term_budget_are_refused_up_front(monkeypatch, capsys, spec, order, terms):
    # the calls that the term budget refused (order times terms read per
    # coefficient over 150732800) are all still over the one budget
    _refuse_tables(monkeypatch)
    argv = ["expand", "--spec", spec, "--order", str(order)]
    assert run_cli(capsys, *argv) == (2, "", _refusal(argv))


def test_the_expansion_term_limit_is_inclusive(monkeypatch, capsys):
    # delta by its spec text costs the budget exactly and is accepted; 1^-6 at
    # 85848, the term budget's dearest accepted call (17-19 s cold), is now
    # refused
    asked = _stand_ins(monkeypatch)
    assert main(["expand", "--spec", "4^1;6^2;1^-1;3^-1;12^-1", "--order", "131072"]) == 0
    assert main(["expand", "--spec", "1^-6", "--order", "85848"]) == 2
    assert asked == [131072]
    assert capsys.readouterr().err == _refusal(["expand", "--spec", "1^-6", "--order", "85848"])


def test_the_expansion_pass_limit_is_inclusive(monkeypatch, capsys):
    orders = []
    monkeypatch.setattr(cli, "expand", lambda spec, order: orders.append(order) or expand(spec, 8))
    for name, order in (("delta", 131072), ("gamma", 26214), ("xi", 65536), ("kappa", 9830)):
        assert main(["expand", "--name", name, "--order", str(order)]) == 0
        capsys.readouterr()
    assert orders == [131072, 26214, 65536, 9830]


@pytest.mark.parametrize("command, k, limit", [("phi", 11, 10), ("lambda", 13, 12)])
def test_oversize_tower_levels_are_refused_up_front(monkeypatch, capsys, command, k, limit):
    # the levels that MAX_LEVEL refused: the one above each top level costs
    # more than four budgets, the top level under half of one
    _refuse_tables(monkeypatch)
    parser = _build_parser()
    assert cli._price(parser.parse_args([command, "--k", str(limit)])) < cli.BUDGET / 2
    assert cli._price(parser.parse_args([command, "--k", str(k)])) > 4 * cli.BUDGET
    assert run_cli(capsys, command, "--k", str(k)) == (2, "", _refusal([command, "--k", str(k)]))


def test_the_tower_refusal_names_the_prediction_the_budget_and_the_flag(monkeypatch, capsys):
    _refuse_tables(monkeypatch)
    assert run_cli(capsys, "phi", "--k", "11") == (2, "", (
        "error: phi is predicted at 2.15e+10 work units, over the budget of 4.22e+09"
        " (expand --name delta --order 131072); lower --k\n"
    ))
    # a level far past the top is refused as fast
    start = time.process_time()
    assert run_cli(capsys, "lambda", "--k", "1000000000")[0] == 2
    assert time.process_time() - start < 0.5


# The cells that MAX_LEVEL refused (an index over 1536) cost at most two
# fifths of the budget and are accepted now: (1537, 4000) has a short row,
# 5843 .. 8000, and took 2.9 s cold (PRICE_TABLE).
@pytest.mark.parametrize(
    "i, j, code",
    [
        pytest.param(1537, 0, 0, id="1537-0-i-1537"),
        pytest.param(0, 1537, 0, id="0-1537-j-1537"),
        pytest.param(1537, 4000, 0, id="1537-4000-i-1537"),
    ],
)
def test_oversize_zeta_indices_are_refused_up_front(monkeypatch, capsys, i, j, code):
    asked = _stand_ins(monkeypatch)
    argv = ["zeta", "--i", str(i), "--j", str(j)]
    code_, out, err = run_cli(capsys, *argv)
    assert code_ == code
    if code:
        assert (asked, out, err) == ([], "", _refusal(argv))
    else:
        assert asked == [(i, j)]


def test_the_zeta_limit_is_inclusive(monkeypatch, capsys):
    cells = []
    monkeypatch.setattr(cli, "zeta", lambda i, j: cells.append((i, j)) or zeta(1, 2))
    # a stand-in cell: only the indices matter here
    assert main(["zeta", "--i", "1536", "--j", "1536"]) == 0
    assert cells == [(1536, 1536)]
    assert capsys.readouterr().out == f"{zeta(1, 2)}\n"


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_coefficients_past_the_int_to_str_limit_are_written(monkeypatch, capsys, fmt):
    # the budget admits zeta cells whose widest coefficients pass the
    # interpreter's 4300-digit limit (4366 digits at zeta --i 2282 --j 0);
    # the writer lifts it while it writes and restores it after
    wide = XiPoly({3: 10**5000, 4: -1})
    monkeypatch.setattr(cli, "zeta", lambda i, j: wide)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(capsys, "zeta", "--i", "2", "--j", "5", "--format", fmt)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    assert (code, err) == (0, "")
    assert "1" + "0" * 5000 in out


# Cold cost of CLI calls beside their price: CPU seconds (user + system of the
# child) and peak RSS in MB, each the median of three rounds of one fresh
# process per call, output to /dev/null.  Host: one shared "Intel(R) Xeon(R)
# Processor" core of a 2-vCPU Linux 6.18 guest, CPython 3.11.7, no gmpy2.  The
# last three expand calls are over the budget and were run with it lifted.
PRICE_TABLE = [
    ("expand --name delta --order 131072", 5.508, 44.2),
    ("expand --name delta --order 32768", 0.681, 20.5),
    ("expand --name gamma --order 26214", 4.507, 23.1),
    ("expand --name gamma --order 8192", 0.775, 17.2),
    ("expand --name xi --order 65536", 4.830, 34.5),
    ("expand --name xi --order 16384", 0.573, 18.6),
    ("expand --name kappa --order 9830", 3.160, 17.7),
    ("expand --name kappa --order 4096", 0.921, 16.6),
    ("expand --spec 1^-1 --order 131072", 3.957, 38.9),
    ("expand --spec 1^-6 --order 32768", 2.457, 26.8),
    ("expand --spec 1^6 --order 65536", 3.016, 27.7),
    ("expand --spec 1^-24 --order 8192", 1.180, 18.6),
    ("expand --spec 2^-3;1^-3 --order 50000", 3.407, 33.7),
    ("expand --spec 1^-48 --order 16384", 8.689, 26.5),
    ("expand --spec 1^-24 --order 32768", 12.676, 36.7),
    ("expand --spec 1^-6 --order 85848", 13.830, 59.8),
    ("phi --k 3", 0.077, 15.4),
    ("phi --k 7", 0.090, 15.4),
    ("phi --k 8", 0.112, 16.1),
    ("phi --k 9", 0.273, 17.0),
    ("phi --k 10", 1.548, 19.9),
    ("lambda --k 3", 0.072, 15.4),
    ("lambda --k 9", 0.075, 15.4),
    ("lambda --k 11", 0.259, 17.0),
    ("lambda --k 12", 1.668, 19.8),
    ("valuations --k 3", 0.077, 15.4),
    ("valuations --k 5", 0.077, 15.4),
    ("valuations --k 7", 0.084, 15.5),
    ("valuations --k 9", 0.240, 16.9),
    ("zeta --i 2 --j 5", 0.065, 15.4),
    ("zeta --i 256 --j 427", 0.091, 16.3),
    ("zeta --i 512 --j 0", 0.171, 19.3),
    ("zeta --i 1024 --j 0", 0.577, 30.9),
    ("zeta --i 1535 --j 0", 1.724, 46.4),
    ("zeta --i 1536 --j 1536", 1.344, 41.6),
    ("zeta --i 768 --j 768", 0.315, 23.9),
    ("zeta --i 0 --j 1536", 0.729, 30.7),
    ("zeta --i 0 --j 3000", 4.075, 68.1),
    ("zeta --i 2048 --j 0", 2.811, 77.5),
    ("zeta --i 100 --j 2000", 1.085, 39.2),
    ("zeta --i 2047 --j 0", 3.569, 86.2),
    # one run each, the int-to-str limit lifted as the CLI's writer does; all
    # but the last two are over the budget
    ("zeta --i 2400 --j 0", 4.860, 82.6),
    ("zeta --i 2472 --j 0", 5.170, 100.6),
    ("zeta --i 2898 --j 0", 8.639, 127.5),
    ("zeta --i 0 --j 3505", 9.107, 96.0),
    ("zeta --i 0 --j 3600", 6.177, 100.9),
    ("zeta --i 0 --j 4277", 14.051, 129.8),
    ("zeta --i 2874 --j 2874", 12.751, 121.4),
    ("zeta --i 3188 --j 3188", 13.503, 155.5),
    ("zeta --i 2560 --j 2560", 5.713, 94.6),
    ("zeta --i 1537 --j 4000", 2.888, 39.7),
]
# a cold start alone (phi --k 3 and the like) takes about this much CPU
START_S = 0.07
# measured (CPU past the start) over predicted, across every row of at least
# 0.25 s, stays within this factor: 0.94-2.82 ns a unit on the host above,
# the least for zeta --i 1024 --j 0 and the most for zeta --i 1537 --j 4000
PRICE_FACTOR = 3


def test_the_price_tracks_the_measured_cost_within_one_factor():
    parser = _build_parser()
    rates = []
    for call, cpu_s, peak_mb in PRICE_TABLE:
        price = cli._price(parser.parse_args(call.split()))
        assert peak_mb < 100 or price > cli.BUDGET, call
        if cpu_s >= 0.25:
            rates.append((cpu_s - START_S) / price)
        else:
            # a call that the interpreter's start dominates is priced small too
            assert price < cli.BUDGET / 25, call
    assert len(rates) >= 20
    assert max(rates) / min(rates) < PRICE_FACTOR


@pytest.mark.parametrize("spec, order", [("1^-6", 85848), ("1^-24", 32768), ("1^-48", 16384)])
def test_fast_growing_specs_are_refused_before_any_work(monkeypatch, capsys, spec, order):
    # each took 9-14 s cold (PRICE_TABLE) and was accepted by the budgets on
    # passes and terms read, which do not see the coefficients grow
    _refuse_tables(monkeypatch)
    argv = ["expand", "--spec", spec, "--order", str(order)]
    start = time.process_time()
    assert run_cli(capsys, *argv) == (2, "", _refusal(argv))
    assert time.process_time() - start < 0.5


def _accepted(parser, template, n):
    """Whether template.format(n) is priced within the budget; an order over
    MAX_ORDER counts as over it."""
    try:
        return cli._price(parser.parse_args(template.format(n).split())) <= cli.BUDGET
    except ValueError:
        return False


def _dearest(template, low, high):
    """The largest n in [low, high) whose call template.format(n) is priced
    within the budget, its successor being over it, by bisection on _price;
    for the commands whose price rises with n."""
    parser = _build_parser()
    assert _accepted(parser, template, low) and not _accepted(parser, template, high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if _accepted(parser, template, mid) else (low, mid)
    return low


def _scan(template, low):
    """(largest n, n of the dearest call) among the calls template.format(n)
    priced within the budget, n from low to twice the first refused one.  The
    zeta price is not monotone in the indices, so bisection misses both: an
    odd bit of i doubles a ladder level's products, and the walk from the
    start row makes the price a sawtooth in j."""
    parser = _build_parser()
    first = next(n for n in count(low) if not _accepted(parser, template, n))
    prices = {n: cli._price(parser.parse_args(template.format(n).split())) for n in range(low, 2 * first + 1)}
    accepted = [n for n, price in prices.items() if price <= cli.BUDGET]
    return max(accepted), max(accepted, key=prices.get)


# each command's largest accepted n and dearest accepted call, as _dearest
# finds them (one n: the price rises with n) or, for zeta, _scan; CI runs each
# call cold under CPU-time and address-space limits
DEAREST = [
    ("expand --name delta --order {}", 1, 131072, 131072),
    ("expand --name gamma --order {}", 1, 31866, 31866),
    ("expand --name xi --order {}", 1, 70346, 70346),
    ("expand --name kappa --order {}", 1, 19264, 19264),
    ("expand --spec 1^-{} --order 10", 1, 636823, 636823),
    ("zeta --i {} --j 0", 0, 2392, 2281),
    ("zeta --i 0 --j {}", 0, 3376, 3006),
    ("zeta --i {0} --j {0}", 0, 2600, 2406),
    ("phi --k {}", 3, 10, 10),
    ("lambda --k {}", 2, 12, 12),
    ("valuations --k {}", 3, 10, 10),
]


@pytest.mark.parametrize("template, low, top, dearest", DEAREST)
def test_each_commands_dearest_accepted_call_is_accepted_and_the_next_refused(
    monkeypatch, capsys, template, low, top, dearest
):
    if template.startswith("zeta"):
        assert _scan(template, low) == (top, dearest)
    else:
        assert _dearest(template, low, 10**9) == top == dearest
    asked = _stand_ins(monkeypatch)
    for n in (top, dearest):
        assert main(template.format(n).split()) == 0
    capsys.readouterr()
    built = len(asked)
    assert main(template.format(top + 1).split()) == 2
    assert len(asked) == built
    err = capsys.readouterr().err
    assert "over the budget" in err or "over the limit 131072" in err


def test_a_zeta_cell_is_priced_from_the_row_its_walk_starts_at(monkeypatch, capsys):
    # below j = 16 the walk starts at row 0, not at row j: zeta --i 2281 --j 0
    # is the dearest accepted cell with j = 0, and j = 1 adds a row to its walk
    asked = _stand_ins(monkeypatch)
    assert main(["zeta", "--i", "2281", "--j", "0"]) == 0
    assert asked == [(2281, 0)]
    capsys.readouterr()
    argv = ["zeta", "--i", "2281", "--j", "1"]
    assert run_cli(capsys, *argv) == (2, "", _refusal(argv))
    assert asked == [(2281, 0)]


def test_the_walk_is_priced_from_the_row_unitize_starts_at(monkeypatch):
    # unitize opens its walk with _floored_rows(i, j0); the price reads j0
    # from the same _start_row, for every p.low of 0..40 and for a tower step
    walked, priced = [], []
    floored_rows = xipoly._floored_rows
    monkeypatch.setattr(xipoly, "_floored_rows", lambda i, j: walked.append(j) or floored_rows(i, j))
    monkeypatch.setattr(cli, "_start_row", lambda low: priced.append(xipoly._start_row(low)) or priced[-1])
    parser = _build_parser()
    for low in range(41):
        zeta(3, low)
        cli._price(parser.parse_args(["zeta", "--i", "3", "--j", str(low)]))
    assert walked == priced == [xipoly._start_row(low) for low in range(41)]
    # row 0 below 16, then all but the four leading bits of low cleared
    assert [walked[low] for low in (1, 15, 16, 17, 31, 32, 35, 36, 40)] == [0, 0, 16, 16, 30, 32, 32, 36, 40]
    # phi_6 = unitize(phi_5, 32), the last of the levels 4, 5, 6 that phi
    # --k 6 prices
    p = phi_poly(5)
    walked.clear()
    priced.clear()
    xipoly.unitize(p, 32)
    cli._price(parser.parse_args(["phi", "--k", "6"]))
    assert len(priced) == 3
    assert walked == priced[-1:] == [xipoly._start_row(p.low)]


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_order_exits_2(capsys):
    code, _, err = run_cli(capsys, "pdo", "--max", "3", "--order", "0")
    assert code == 2
    assert "order" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pdo", "--max", "3"],
        ["expand", "--name", "xi"],
        ["verify", "--family", "main", "--k", "1", "--nmax", "5"],
        ["scan", "--pairs", "8:2", "--nmax", "5"],
    ],
)
def test_order_applies_to_table_commands(argv):
    assert _build_parser().parse_args([*argv, "--order", "700"]).order == 700


@pytest.mark.parametrize(
    "argv", [["zeta", "--i", "1", "--j", "2"], ["lambda", "--k", "3"], ["phi", "--k", "3"],
             ["valuations", "--k", "3"]],
)
def test_order_is_refused_by_polynomial_commands(capsys, argv):
    # these commands compute exact polynomials; no truncation order applies
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--order", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 5" in capsys.readouterr().err


@pytest.mark.parametrize("mod_exp", ["0", "-1"])
def test_verify_pair_refuses_nonpositive_mod_exp(capsys, mod_exp):
    code, out, err = run_cli(
        capsys, "verify", "--family", "pair", "--lhs", "32", "--rhs", "8", "--mod-exp", mod_exp,
        "--nmax", "10",
    )
    assert (code, out) == (2, "")
    assert err == f"error: --mod-exp must be >= 1, got {mod_exp}\n"


@pytest.mark.parametrize("mod_exp", ["4097", "20000", "50000000"])
def test_verify_pair_refuses_oversize_mod_exp_before_the_modulus(monkeypatch, capsys, mod_exp):
    _refuse_tables(monkeypatch)

    def refuse(*args):
        raise AssertionError(f"a modulus was built for a refused request: {args}")

    monkeypatch.setattr(cli, "CongruenceSpec", refuse)
    start = time.process_time()
    code, out, err = run_cli(
        capsys, "verify", "--family", "pair", "--lhs", "1", "--rhs", "1", "--mod-exp", mod_exp,
        "--nmax", "1",
    )
    assert time.process_time() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: --mod-exp {mod_exp} is over the limit 4096\n"


def test_the_mod_exp_limit_is_inclusive(capsys):
    assert cli.MAX_MOD_EXP == 4096
    code, out, err = run_cli(
        capsys, "verify", "--family", "pair", "--lhs", "1", "--rhs", "1", "--mod-exp", "4096",
        "--nmax", "1",
    )
    assert (code, err) == (0, "")
    assert f"(mod {2**4096})" in out


def test_parse_config_shape():
    args = _build_parser().parse_args(["zeta", "--i", "2", "--j", "3", "--format", "json"])
    assert vars(args) == {
        "command": "zeta", "format": "json", "out": None, "i": 2, "j": 3,
        "handler": cli._cmd_zeta,
    }


FORMATS = ("plain", "json", "csv")
# one call per subcommand (and the exit-1 and exit-2 calls): the SHA-256 of
# json.dumps([exit code, stdout, stderr]) for --format plain, json and csv;
# a changed digest is a changed output
GOLDEN = {
    "pdo --max 10": (
        "5b89502d912fcdf126498523cafc7bde8a4c15af1b77e879289f0ab3024a3ef5",
        "15e85ce96c78881979a216ead1c29718c566e24253b513299b30d8c84a7aa0f4",
        "2e4c439a767c4a94100005325b5e5fd687158bae3623a8db1bc05247e0328a7b",
    ),
    "expand --name xi --order 8": (
        "8d0f80b526c6c0539f09b4c0bde8ae2f4101c7730632b182288b5a80188fbb3e",
        "c8a5405fa585c4267e4138a4312153b9d3a96e1f6d85f83bf39ab0640967223c",
        "25ee39c691180de2a3eec1ca3f2718f4a44c0800b21f39abab9625eea15ddaf6",
    ),
    "expand --spec 4^1;6^2;1^-1;3^-1;12^-1 --order 8": (
        "e0e4d83c961577a3edcec0b534d113c40c92a5d91f682e25ed0b57b6cb7ceb1b",
        "f49c33ca9ff3efbd18d6fd958003b10a497510e86f3c5bdfe4927fd1df08002f",
        "b86399a6c536dffc3381c81fc3d9cadee5d185fa842d6d21580f09cab31fd615",
    ),
    "zeta --i 2 --j 5": (
        "75302fdc4483d3b4d00ff434f7cab16215e1299478bde33d5fbb2f35acd629a4",
        "54c41617f26d714f0cae00497c2409476c4e4a65d6adcfe26accb08b56c76400",
        "0dcaee2f222965c2c3f0c933c43c47e040259b0d2636c3ed91e381f699595d8f",
    ),
    "lambda --k 4": (
        "16ec38fb7593234a7b81337d952ce3a324b890121dfddb924352ff197745e98e",
        "57c8dc6a9ec0ccf1d7bf188addb52ba5a8a91e7b3295f123b82a2ce1a174eb8c",
        "692ce565b437a6b77b263af5ce264c76dc39b464afa8aec98abeee5c8835c31c",
    ),
    "phi --k 3": (
        "6fd9f303ef2db84c71c6f434067fe7049ace7174c7efe77335e0dce5e8447273",
        "594777018acb2aed2f89e27ad91b1ddc5181170f63d62471a9975987eef3ba66",
        "fea66d031597ad07905de66dc7c042af2a57bfd64bf1d71bf3dc38df985a75f7",
    ),
    "valuations --k 3 5": (
        "3a5975b3f7d4866ea331243dc60aa6682d905c0996f49eed3c46d2530b43feec",
        "e850db14ca49b3c89b286da382ec631b0de43b1cdb6e0209dd59640f9cf4013b",
        "e2affe45deac416e9437bfbbb2726450189334e72d036a677902e7c1c60da981",
    ),
    "verify --family corollary --k 0 --nmax 100": (
        "3a7104c67aca7036e8aead85ca33c2448279bf24ce79bc39395dfc630aafb327",
        "55ed99e22e14d6015cec55e54555a377b16d49f24822a1d11646eab18ccebcca",
        "7bce85ad7cfe8f99ab3507a61d4d03e7b195a459eaa157be5d4bb06d9f19cbe9",
    ),
    "verify --family ramanujan --alpha-max 1 --nmax 30": (
        "1670232c2bed20e333fff0b0471c26c33da7b815025b44795fcba735aad87483",
        "d2dc1947584e9d27697648ed9a043342d8605ff0bf8b80ad2e9c1da790a2fe80",
        "172b37f5990325290795432746f4deb549b4e1dc68c8390603175ac70bba36d9",
    ),
    "verify --family pair --lhs 32 --rhs 8 --mod-exp 6 --nmax 40": (
        "0a9b83ec89ce632066ad27ed16dbb4cf1e511a17acf45e894d590573e1b4bb53",
        "244f0f5d759a0c9e6daa75244de279491bbaad48a604e85e37c754b2cc4e8e88",
        "b6294ae19f3a7b63cd012a1cc0a36001d92694aee4f8c47afbca7c60c2f97632",
    ),
    "scan --pairs 8:2,32:8 --nmax 50 --max-exp 10": (
        "c48ceb1c4d25d5c112aab9dd9106df1b892ec2409b01132bbc9fb23b5aed0b2c",
        "8c7bb9a1fec4f34544c77a692e9335801cdf2f277c32997d0ed0bd47f6473d62",
        "93d2a7f1eda584f536053948a58d78011ddd149621a1ad74a36c3a9550f97692",
    ),
    "verify --family main --k 0 --nmax 10": (
        "05bcdc99b9bed7402471fb61c67c111e76f628309e9da5f797b0c70c90a182fb",
        "1e9b63b5220db41685771a448b6301e56d61255c4ee1f0e4128a56e9212936e1",
        "4477173290b9a4660100d489f3a19a64b7d38c5def66ce156b2aa1f3b3602ac0",
    ),
    "phi --k 2": (
        "ee2c18bcc0c4f346bd3ed838b9f6b5685d17ae22f9828d18a3f573820d67d5dd",
        "ee2c18bcc0c4f346bd3ed838b9f6b5685d17ae22f9828d18a3f573820d67d5dd",
        "ee2c18bcc0c4f346bd3ed838b9f6b5685d17ae22f9828d18a3f573820d67d5dd",
    ),
}


# bound here so that a test which refuses json.dumps to the cli can still digest
_dumps = json.dumps


def _golden_digest(capsys, call, fmt):
    code, out, err = run_cli(capsys, *call.split(), "--format", fmt)
    return hashlib.sha256(_dumps([code, out, err]).encode()).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("call", list(GOLDEN))
def test_golden_bytes(capsys, call, fmt):
    assert _golden_digest(capsys, call, fmt) == GOLDEN[call][FORMATS.index(fmt)]


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} was called for another format")

    return refuse


@pytest.mark.parametrize("fmt", FORMATS)
def test_only_the_asked_format_is_built(monkeypatch, capsys, fmt):
    # json is dumped only for json, csv written only for csv, a polynomial's
    # text (str_pieces, which str(p) joins) only for plain; the cli imports
    # each writer in its own branch, so the modules are patched
    if fmt != "json":
        monkeypatch.setattr(json, "dumps", _refuse("json.dumps"))
    if fmt != "csv":
        monkeypatch.setattr(csv, "writer", _refuse("csv.writer"))
    if fmt != "plain":
        monkeypatch.setattr(XiPoly, "str_pieces", _refuse("XiPoly.str_pieces"))
    for call, digests in GOLDEN.items():
        assert _golden_digest(capsys, call, fmt) == digests[FORMATS.index(fmt)], call


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_reader_closing_the_pipe_early_gets_exit_2_and_no_traceback(fmt):
    # as in `pdocong pdo --max 20000 | head -n 2`: 1.9 MB of streamed output
    # meets a closed pipe, which is exit 2, not the exit 1 of a failed check,
    # with nothing on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-W", "error", "-m", "pdocong.cli", "pdo", "--max", "20000", "--format", fmt]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(64)
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (2, b"")
