"""One cold iteration of a benchmark workload, in an interpreter of its own.

    python3 perfbench/workload.py {tower,sweep,bridge,cli} --seed N [--trace] [--self-test]
    python3 perfbench/workload.py WORKLOAD --pin

run.py starts one of these per iteration: pdocong's lru caches and the zeta
memo are process-global, and a CLI user pays the cold cost on every call.
Every operation's output is checked against a pinned SHA-256 digest, a second
route, or an exact known value.  The seed permutes the operations and picks
zeta-profile cells and scan pairs from fixed pools of equal cost; ``--pin``
runs every pool entry in a fixed order and prints the digests instead of
comparing them.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
sys.path.insert(0, str(SRC))

from pdocong import congruence, etaq, padic, xipoly  # noqa: E402
from pdocong.series import Series  # noqa: E402

import spans  # noqa: E402

# The known-red criterion-7 line: PDO(8n) == PDO(2n) (mod 8) fails at n=1,
# PDO(8)=22 and PDO(2)=2.  It is a correct output and stays in every run.
RED_K0 = b"fail n=1 lhs=22 rhs=2"

# tower: phi_poly(10) peaks near 1 GB, so the tower stops at 9.
PHI_LEVELS = range(3, 10)
F_LEVELS = (3, 5, 7, 9)
# check_z_profile cells: a few j per power-of-two row i, so every seed
# checks the same number of cells of each (similar) size.
Z_ROWS = (64, 128, 256)
Z_COLUMNS = range(12)
Z_PICK = 4

# sweep: one exact table, every family at its widest window, and a scan.
SWEEP_ORDER = 32000
ORACLE_MAX_N = 30
# Every pair shares the larger stride 64 and survives mod 2, so no scan
# stops early and each pair costs the same n < 500 window.
SCAN_POOL = (
    (64, 1), (64, 4), (64, 16), (64, 25), (64, 49),
    (1, 64), (4, 64), (16, 64), (25, 64), (49, 64),
)
SCAN_PICK = 6
SCAN_CAP = 20

# bridge: dense products at BRIDGE_ORDER, unitized to half of it.
BRIDGE_ORDER = 1200
ZETA_GRID = 4
LAMBDA_LEVELS = (3, 4)
LAMBDA_ORDER = 600

# cli: the README examples plus the four extra calls, with their exit codes.
CLI_CALLS = (
    ("pdo --max 10", 0),
    ("expand --name xi --order 8", 0),
    ("expand --spec 4^1;6^2;1^-1;3^-1;12^-1 --order 8", 0),
    ("zeta --i 2 --j 5", 0),
    ("lambda --k 4 --format json", 0),
    ("phi --k 3 --format csv", 0),
    ("valuations --k 3 5", 0),
    ("verify --family corollary --k 0 --nmax 500", 0),
    ("verify --family ramanujan --alpha-max 3 --nmax 100", 0),
    ("verify --family pair --lhs 32 --rhs 8 --mod-exp 6 --nmax 40", 0),
    ("scan --pairs 8:2,32:8,128:32 --nmax 100 --max-exp 10", 0),
    ("verify --family main --k 2 --nmax 125", 0),
    ("phi --k 9 --format json", 0),
    ("verify --family main --k 0 --nmax 10", 1),
    ("phi --k 2", 2),
)
CLI_RED_CALL = "verify --family main --k 0 --nmax 10"
# the installed console script's entry point, run from source
CLI_MAIN = "import sys; from pdocong.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120


# -- output encodings ----------------------------------------------------------


def ints_bytes(values) -> bytes:
    return ",".join(map(str, values)).encode()


def poly_bytes(p) -> bytes:
    return ";".join(f"{d}:{c}" for d, c in p.terms()).encode()


def record_bytes(record) -> bytes:
    return json.dumps(record, sort_keys=True).encode()


def profile_bytes(report) -> bytes:
    # to_record drops the failures; they are part of the output checked
    return record_bytes({**report.to_record(), "failures": list(report.failures)})


def red_bytes(report) -> bytes:
    n, lhs, rhs = report.counterexample or (None, None, None)
    return f"{report.verdict} n={n} lhs={lhs} rhs={rhs}".encode()


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


# -- checks ------------------------------------------------------------------


class Checks:
    """Every checked output of one iteration: (label, bytes, kind, expected).

    ``kind`` is "sha256" (expected is a pinned hex digest) or "bytes"
    (expected is the output of a second route or an exact known value).
    With ``pinned=None`` the digests are recorded, and so always hold.
    """

    def __init__(self, pinned: dict[str, str] | None):
        self.pinned = pinned
        self.recorded: dict[str, str] = {}
        self.expectations: list[tuple[str, bytes, str, object]] = []

    def digest(self, label: str, got: bytes) -> None:
        if self.pinned is None:
            want = self.recorded[label] = sha256(got)
        else:
            want = self.pinned.get(label, "no digest pinned")
        self.expectations.append((label, got, "sha256", want))

    def equal(self, label: str, got: bytes, want: bytes) -> None:
        self.expectations.append((label, got, "bytes", want))


def holds(kind: str, got: bytes, want) -> bool:
    return sha256(got) == want if kind == "sha256" else got == want


def run_ops(ops, checks: Checks) -> list[str]:
    """Run each operation and check its outputs; one failure line per failed op."""
    failures = []
    for label, op in ops:
        start = len(checks.expectations)
        try:
            op(checks)
        except Exception as exc:  # a raising operation is a failed output, not a crash
            failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        made = checks.expectations[start:]
        if not made:
            failures.append(f"{label}: no output was checked")
        bad = [e[0] for e in made if not holds(e[2], e[1], e[3])]
        if bad:
            failures.append(f"{label}: mismatch in {', '.join(bad)}")
    return failures


def corrupt(blob: bytes) -> bytes:
    """The same output with one byte changed; a digit becomes the next digit,
    which reads as one changed coefficient."""
    if not blob:
        return b"?"
    data = bytearray(blob)
    mid = len(data) // 2
    for i in (*range(mid, len(data)), *range(mid)):
        if 48 <= data[i] <= 57:
            data[i] = 48 + (data[i] - 47) % 10
            return bytes(data)
    data[mid] ^= 1
    return bytes(data)


# -- workloads ------------------------------------------------------------------


def ordered(fixed, rest, rng):
    """``fixed`` first, then ``rest`` in canonical order (pinning) or shuffled."""
    rest = list(rest)
    if rng is not None:
        rng.shuffle(rest)
    return [*fixed, *rest]


def tower(rng, tracer, counters):
    """phi_poly(3..9), the direct route at k=9, F profiles and a Z-profile grid."""
    ops = []
    for k in PHI_LEVELS:
        ops.append((f"phi {k}", lambda c, k=k: c.digest(f"tower/phi/{k}", poly_bytes(xipoly.phi_poly(k)))))

    def direct(c):
        got = poly_bytes(xipoly.phi_poly_direct(9))
        c.equal("tower/phi_direct/9 == phi/9", got, poly_bytes(xipoly.phi_poly(9)))

    ops.append(("phi_direct 9", direct))
    for k in F_LEVELS:
        ops.append((
            f"check_f_profile {k}",
            lambda c, k=k: c.digest(f"tower/f_profile/{k}", profile_bytes(padic.check_f_profile(k, max_k=9))),
        ))
    for i in Z_ROWS:
        columns = Z_COLUMNS if rng is None else sorted(rng.sample(Z_COLUMNS, Z_PICK))
        for j in columns:
            ops.append((
                f"check_z_profile {i},{j}",
                lambda c, i=i, j=j: c.digest(f"tower/z_profile/{i},{j}", profile_bytes(padic.check_z_profile(i, j))),
            ))
    return ordered([], ops, rng)


def sweep(rng, tracer, counters):
    """pdo_series(32000), every congruence family at its widest window, a scan."""
    state = {}
    top = SWEEP_ORDER - 1

    def table(c):
        state["table"] = t = etaq.pdo_series(SWEEP_ORDER)
        c.digest(f"sweep/pdo/{SWEEP_ORDER}", ints_bytes(t.values))

    def oracle(c):
        brute = ints_bytes(etaq.pdo_bruteforce(n) for n in range(ORACLE_MAX_N + 1))
        c.equal(f"sweep/pdo_bruteforce/0..{ORACLE_MAX_N}", brute, ints_bytes(state["table"].values[: ORACLE_MAX_N + 1]))

    def main(c, k):
        report = congruence.verify_main(k, top >> (2 * k + 3), state["table"])
        c.digest(f"sweep/main/{k}", record_bytes(report.to_record()))
        if k == 0:
            c.equal("sweep/main/0 known red", red_bytes(report), RED_K0)

    def corollary(c, k):
        report = congruence.verify_corollary(k, top >> (2 * k + 4), state["table"])
        c.digest(f"sweep/corollary/{k}", record_bytes(report.to_record()))

    def strengthened(c):
        for idx, report in enumerate(congruence.verify_strengthened(top >> 7, state["table"])):
            c.digest(f"sweep/strengthened/{idx}", record_bytes(report.to_record()))

    def ramanujan(c):
        # largest index is 2^3 (8n + 7) <= top
        n_max = (top // 8 - 7) // 8 + 1
        reports = congruence.verify_ramanujan(3, n_max, state["table"])
        c.digest("sweep/ramanujan/3", record_bytes([r.to_record() for r in reports]))

    def scan(c):
        pairs = SCAN_POOL if rng is None else rng.sample(SCAN_POOL, SCAN_PICK)
        for result in congruence.scan(state["table"], pairs, SCAN_CAP):
            a, b = result.pair
            c.digest(f"sweep/scan/{a}:{b}", record_bytes(result.to_record()))

    ops = [("pdo_bruteforce", oracle), ("verify_strengthened", strengthened), ("verify_ramanujan", ramanujan), ("scan", scan)]
    for k in range(4):
        ops.append((f"verify_main {k}", lambda c, k=k: main(c, k)))
        ops.append((f"verify_corollary {k}", lambda c, k=k: corollary(c, k)))
    return ordered([("pdo_series", table)], ops, rng)


def bridge(rng, tracer, counters):
    """q-level cross-validation: dense kappa/xi products against the zeta grid,
    and the lambda polynomials against gamma powers times PDO slices."""
    powers = {}

    def power(name, e):
        if (name, e) not in powers:
            if e == 0:
                value = Series.one(BRIDGE_ORDER)
            elif e == 1:
                value = (etaq.kappa_series if name == "kappa" else etaq.xi_series)(BRIDGE_ORDER)
            else:
                value = power(name, e - 1) * power(name, 1)
            powers[(name, e)] = value
        return powers[(name, e)]

    def cell(c, i, j):
        label = f"bridge/zeta/{i},{j}"
        got = ints_bytes((power("kappa", i) * power("xi", j)).u2().coeffs)
        c.digest(label, got)
        c.equal(f"{label} == poly_to_series", got, ints_bytes(xipoly.poly_to_series(xipoly.zeta(i, j), BRIDGE_ORDER // 2).coeffs))

    def slice_identity(c, k):
        stride = 2**k
        sliced = Series(etaq.pdo_series(LAMBDA_ORDER * stride).values[::stride])
        got = ints_bytes((etaq.gamma_series(LAMBDA_ORDER) ** (2 ** (k - 2)) * sliced).coeffs)
        label = f"bridge/lambda/{k}"
        c.digest(label, got)
        c.equal(f"{label} == poly_to_series", got, ints_bytes(xipoly.poly_to_series(xipoly.lambda_poly(k), LAMBDA_ORDER).coeffs))

    ops = [(f"zeta cell {i},{j}", lambda c, i=i, j=j: cell(c, i, j)) for i in range(ZETA_GRID) for j in range(ZETA_GRID)]
    ops += [(f"lambda slice {k}", lambda c, k=k: slice_identity(c, k)) for k in LAMBDA_LEVELS]
    return ordered([], ops, rng)


def cli(rng, tracer, counters):
    """Each CLI call as its own subprocess: stdout, stderr and exit code checked."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def call(c, text, code):
        argv = text.split()
        with tracer.span(f"cli.{argv[0]}"):
            proc = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, *argv],
                capture_output=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S, check=False,
            )
        counters["cli.out_bytes"] += len(proc.stdout)
        label = f"cli/{text}"
        status = b"exit=%d" % proc.returncode
        c.digest(label, status + b"\n" + proc.stdout + b"--stderr--\n" + proc.stderr)
        c.equal(f"{label} exit code", status, b"exit=%d" % code)
        if text == CLI_RED_CALL:
            found = re.search(rb"^(\w+) .*counterexample n=(\d+): lhs=(\d+), rhs=(\d+)", proc.stdout)
            got = b"%s n=%s lhs=%s rhs=%s" % (found[1].lower(), *found.groups()[1:]) if found else proc.stdout
            c.equal(f"{label} known red", got, RED_K0)

    ops = [(text, lambda c, text=text, code=code: call(c, text, code)) for text, code in CLI_CALLS]
    return ordered([], ops, rng)


WORKLOADS = {"tower": tower, "sweep": sweep, "bridge": bridge, "cli": cli}


# -- per-layer counts ------------------------------------------------------------


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def layer_metrics(tracer: spans.Tracer, counters: dict) -> dict[str, float]:
    """Self time per span, plus the work counts read off the traced calls.

    Runs after the timed region with the tracer uninstalled, so the library
    calls it makes (memo hits) are neither traced nor timed.
    """
    metrics = {f"{name}_s": t for name, t in tracer.self_times().items()}
    by_name: dict[str, list] = {}
    for name, args, result in tracer.calls:
        by_name.setdefault(name, []).append((args, result))

    eta = [call for n in ("etaq.pdo_series", "etaq.expand", "etaq.kappa_series") for call in by_name.get(n, ())]
    metrics["etaq.order"] = max((args[-1] for args, _ in eta), default=0)
    metrics["etaq.max_coeff_bits"] = max((_bits(getattr(r, "values", r)) for _, r in eta), default=0)

    muls = by_name.get(spans.SERIES_MUL, [])
    metrics["series.mul_calls"] = len(muls)
    metrics["series.mul_order_sum"] = sum(
        min(len(a), len(b)) if isinstance(b, Series) else len(a) for (a, b), _ in muls
    )

    polys = {}
    for name in ("xipoly.phi", "xipoly.phi_direct", "xipoly.lambda"):
        for args, result in by_name.get(name, ()):
            polys[(name, args)] = result
    metrics["xipoly.terms"] = sum(p.term_count() for p in polys.values())
    metrics["xipoly.max_coeff_bits"] = max((_bits(c for _, c in p.terms()) for p in polys.values()), default=0)

    checked = 0
    for _, report in by_name.get("padic.check_f_profile", ()):
        checked += xipoly.phi_poly(report.k).degree() - report.base_degree + 1
    for _, report in by_name.get("padic.check_z_profile", ()):
        checked += xipoly.zeta(report.i, report.j).degree() - report.base_degree + 1
    metrics["padic.coeffs_checked"] = checked

    reports = [r for _, r in by_name.get("congruence.verify", ())]
    scans = [s for _, results in by_name.get("congruence.scan", ()) for s in results]
    metrics["congruence.n_checked"] = sum(r.checked_count for r in reports) + sum(
        s.n_range[1] - s.n_range[0] for s in scans
    )
    metrics["congruence.counterexamples"] = sum(r.counterexample is not None for r in reports)

    metrics.update(counters)
    metrics["bench.spans"] = len(tracer.spans)
    return metrics


def peak_rss_mb(workload: str) -> float:
    """ru_maxrss of this process, or of the largest child for ``cli``."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def cpu_time() -> float:
    """CPU seconds of this process and of the children it has waited for
    (the commands of ``cli``)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="record spans and per-layer counts")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true", help="also re-check every output with one byte changed")
    mode.add_argument("--pin", action="store_true", help="run the whole pool and print its digests")
    args = parser.parse_args(argv)

    pinned = None if args.pin else json.loads(DIGESTS.read_text())
    rng = None if args.pin else random.Random(args.seed)
    tracer = spans.Tracer() if args.trace else spans.NoTracer()
    counters = {"cli.out_bytes": 0}
    checks = Checks(pinned)
    ops = WORKLOADS[args.workload](rng, tracer, counters)

    if args.trace:
        tracer.install()
    start, cpu_start = time.perf_counter(), cpu_time()
    with tracer.span(spans.ROOT):
        failures = run_ops(ops, checks)
    cpu = cpu_time() - cpu_start
    wall = time.perf_counter() - start
    if args.trace:
        tracer.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(args.workload),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
    }
    if args.trace:
        counters["cli.peak_rss_mb"] = peak_rss_mb("cli") if args.workload == "cli" else 0.0
        result["layers"] = layer_metrics(tracer, counters)
        result["spans"] = tracer.records()
    if args.self_test:
        caught = [label for label, got, kind, want in checks.expectations if not holds(kind, corrupt(got), want)]
        result["self_test"] = {"expectations": len(checks.expectations), "caught": len(caught)}
    if args.pin:
        result["digests"] = checks.recorded
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
