"""pdocong benchmark driver: cold workloads timed end to end and per layer.

    python3 perfbench/run.py --workload {tower,sweep,bridge,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test     # every check catches a one-byte change
    python3 perfbench/run.py --pin           # rewrite digests.json from this checkout

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  One client, closed loop: each
iteration is ``workload.py`` in a fresh interpreter, started only after the
previous one ended, until ``--seconds`` are used (at least three iterations).
``setup_s`` is the median CPU time of fresh ``python3 -c "import pdocong"``
runs, two before each iteration, scaled like ``cpu_s`` (below) by the mean
of the probes taken while they ran.

Times are CPU times (user + system), not wall times, so that whatever else
runs on the CPU does not count.  The run and all its children are pinned to
one CPU.  While an iteration runs, this process times a short fixed slice of
pure-Python work (``probe``) in CPU time on the same CPU every
``PROBE_PERIOD_S``.  An iteration's ``cpu_s`` is scaled by ``PROBE_REF_S``
over the mean of its probes: its CPU time at the speed the CPU had on the
host where the benchmark was written.  On a shared host the speed of one
vCPU drifts for seconds to minutes; the scaling takes that drift out.

With ``--trace 0`` the metrics are the end-to-end ones: medians of the
untraced iterations.  With ``--trace 1`` untraced and traced iterations
alternate; the metrics are those of the traced iteration with the median
CPU time, plus its wall time, the untraced median wall time and the tracing
overhead (its scaled CPU time minus the untraced median).
The spans of every traced iteration are written to ``.perfbench_out/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status 2 means no result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("tower", "sweep", "bridge", "cli")

SETUP_REPS = 2  # per iteration, so set-up is sampled across the whole run
MIN_SAMPLES = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150

# probe: a fixed slice of pure-Python integer work, written out here so that
# it shares no code with pdocong.  PROBE_ROUNDS dense products of
# PROBE_SIZE-long lists of integers of up to 200 bits, then PROBE_BIG_ROUNDS
# passes over every product of two PROBE_BIG integers of 2000 bits; the
# second part takes about 70% of the time.  Over back-to-back iterations on
# the 2-vCPU Xeon host where the benchmark was written, the log of each
# workload's CPU time followed the log of the probe time with slope 0.96-1.01
# for this mix, 1.02-1.28 for the first part alone and 0.87-0.98 for the
# second, so that the mix slows down as much as the workloads do.
# PROBE_REF_S is about the probe's mean CPU time, taken while an iteration
# runs, on that host.
PROBE_SIZE = 40
PROBE_ROUNDS = 6
PROBE_MODULUS = 1 << 200
PROBE_BIG = [random.Random(1).getrandbits(2000) for _ in range(16)]
PROBE_BIG_ROUNDS = 2
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.005

END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# per-layer metric -> unit; names match workload.layer_metrics and BENCHMARK.json
PER_LAYER = {
    "etaq.pdo_series_s": "s",
    "etaq.expand_s": "s",
    "etaq.kappa_series_s": "s",
    "etaq.order": "count",
    "etaq.max_coeff_bits": "bits",
    "series.mul_s": "s",
    "series.mul_calls": "count",
    "series.mul_order_sum": "count",
    "xipoly.phi_s": "s",
    "xipoly.phi_direct_s": "s",
    "xipoly.lambda_s": "s",
    "xipoly.zeta_s": "s",
    "xipoly.poly_to_series_s": "s",
    "xipoly.terms": "count",
    "xipoly.max_coeff_bits": "bits",
    "padic.check_f_profile_s": "s",
    "padic.check_z_profile_s": "s",
    "padic.coeffs_checked": "count",
    "congruence.verify_s": "s",
    "congruence.scan_s": "s",
    "congruence.n_checked": "count",
    "congruence.counterexamples": "count",
    **{f"cli.{c}_s": "s" for c in ("pdo", "expand", "zeta", "lambda", "phi", "valuations", "verify", "scan")},
    "cli.out_bytes": "bytes",
    "cli.peak_rss_mb": "MB",
    "bench.check_s": "s",
    "bench.spans": "count",
    "bench.traced_wall_s": "s",
    "bench.wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.probe_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """pdocong from ``src/``, with its bytecode cached beside it on the first
    import, so that later starts load it as an installed copy's would."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    return env


def probe() -> float:
    """CPU time of a fixed slice of pure-Python big-integer work."""
    start = time.thread_time()
    a = [(i * 2654435761) % 1000003 for i in range(PROBE_SIZE)]
    for _ in range(PROBE_ROUNDS):
        out = [0] * (2 * PROBE_SIZE)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
        a = [v % PROBE_MODULUS for v in out[:PROBE_SIZE]]
    acc = 0
    for _ in range(PROBE_BIG_ROUNDS):
        for x in PROBE_BIG:
            for y in PROBE_BIG:
                acc ^= x * y
    return time.thread_time() - start


def children_cpu_s() -> float:
    """CPU seconds of the children this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S, probes: list[float] | None = None) -> str:
    """Run a child in its own process group; kill the whole group if it overruns.

    A thread waits for the child.  Meanwhile this thread wakes every
    ``PROBE_PERIOD_S`` and, given a ``probes`` list, appends one probe time.
    """
    with subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        box = {}

        def wait() -> None:
            try:
                box["streams"] = proc.communicate(timeout=timeout)
            except BaseException as exc:  # re-raised in the calling thread
                box["error"] = exc

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        try:
            while True:
                waiter.join(PROBE_PERIOD_S)
                if not waiter.is_alive():
                    break
                if probes is not None:
                    probes.append(probe())
            if "error" in box:
                raise box["error"]
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            waiter.join()
            raise
    out, err = box["streams"]
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{err.strip()[-3000:]}")
    return out


def setup_times(reps: int, probes: list[float] | None = None) -> list[float]:
    """CPU times of fresh interpreters that each import pdocong."""
    argv = [sys.executable, "-c", "import pdocong"]
    times = []
    for _ in range(reps):
        start = children_cpu_s()
        run_child(argv, probes=probes)
        times.append(children_cpu_s() - start)
    return times


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the probes and
    the iterations they scale run where the same contention acts on them."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def iteration(workload: str, seed: int, *flags: str) -> dict:
    """One iteration in a fresh interpreter, with ``scaled_cpu_s`` added."""
    probes: list[float] = []
    out = run_child([sys.executable, str(HERE / "workload.py"), workload, "--seed", str(seed), *flags], probes=probes)
    result = json.loads(out.splitlines()[-1])
    result["probe_s"] = statistics.fmean(probes)
    result["scaled_cpu_s"] = result["cpu_s"] * PROBE_REF_S / result["probe_s"]
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    start = time.perf_counter()
    setup_times(1)  # unmeasured: the first import in a checkout compiles bytecode
    seeds = random.Random(seed)
    setup, setup_probes, plain, traced, took = [], [], [], [], []
    while True:
        enough = len(plain) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_TRACED)
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(took) > seconds:
            break
        began = time.perf_counter()
        setup += setup_times(SETUP_REPS, setup_probes)
        if trace and len(traced) < len(plain):
            traced.append(iteration(workload, seeds.randrange(2**32), "--trace"))
        else:
            plain.append(iteration(workload, seeds.randrange(2**32)))
        took.append(time.perf_counter() - began)

    runs = plain + traced
    failures = [f"seed {r['seed']}: {line}" for r in runs for line in r["failures"]]
    cpus = [r["scaled_cpu_s"] for r in plain]
    q1, med, q3 = statistics.quantiles(cpus, n=4)
    wall = statistics.median(r["wall_s"] for r in plain)
    # a start shorter than PROBE_PERIOD_S gets no probe; then the iterations' speed stands in
    setup_speed = statistics.fmean(setup_probes or [r["probe_s"] for r in runs])
    setup_s = statistics.median(setup) * PROBE_REF_S / setup_speed
    print(
        f"{workload} seed={seed}: {len(plain)} untraced iterations, cpu_s median {med:.4f} "
        f"(q1 {q1:.4f}, q3 {q3:.4f}; unscaled median {statistics.median(r['cpu_s'] for r in plain):.4f}, "
        f"wall median {wall:.4f}, probe median {statistics.median(r['probe_s'] for r in plain) * 1000:.3f} ms), "
        f"setup_s {setup_s:.4f} (unscaled median {statistics.median(setup):.4f} over {len(setup)} starts)"
    )
    for line in failures:
        print(f"FAILED {line}")

    if trace:
        # the traced iteration with the (lower) median CPU time; its self
        # times add up to the traced wall time it reports
        typical = sorted(traced, key=lambda r: r["scaled_cpu_s"])[(len(traced) - 1) // 2]
        layers = {name: typical["layers"].get(name, 0) for name in PER_LAYER}
        layers["bench.traced_wall_s"] = typical["wall_s"]
        layers["bench.wall_s"] = wall
        layers["bench.trace_overhead_s"] = typical["scaled_cpu_s"] - med
        layers["bench.probe_s"] = statistics.median(r["probe_s"] for r in runs)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        dump = [{k: r[k] for k in ("seed", "wall_s", "layers", "spans")} for r in traced]
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(dump))
        print(f"{len(traced)} traced iterations, traced wall_s median {layers['bench.traced_wall_s']:.4f}")
    else:
        values = {
            "setup_s": setup_s,
            "cpu_s": med,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test() -> bool:
    """Every expectation must reject its output with one byte changed."""
    ok = True
    for workload in WORKLOADS:
        result = iteration(workload, 0, "--self-test")
        report = result["self_test"]
        total, caught = report["expectations"], report["caught"]
        good = result["failed"] == 0 and total > 0 and caught == total
        ok &= good
        print(
            f"self-test {workload}: {result['attempted']} ops, {result['failed']} failed as run; "
            f"{caught}/{total} checks reject their output with one byte changed "
            f"(error_rate {1 / result['attempted']:.4f} per corrupted output)"
            + ("" if good else "  <-- FAIL")
        )
    return ok


def pin() -> None:
    """Record the digests of every pool entry of every workload."""
    digests = {}
    for workload in WORKLOADS:
        result = iteration(workload, 0, "--pin")
        if result["failed"]:
            raise BenchError(f"{workload}: second routes disagree, not pinning: {result['failures']}")
        digests.update(result["digests"])
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child kills the running child's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (args.workload or args.self_test or args.pin):
        parser.error("--workload is required")
    if not (SRC / "pdocong" / "__init__.py").is_file():
        print(f"error: no pdocong sources at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin()
            return 0
        if args.self_test:
            return 0 if self_test() else 1
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
