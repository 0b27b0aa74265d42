"""One-off reproduction of the ROADMAP baseline table (see BASELINE.md).

    python3 perfbench/baseline.py          # about two minutes; peaks near 1 GB at phi k=10

Each row runs in a fresh interpreter, so lru caches and the zeta memo start
cold, and reports wall time and that interpreter's ru_maxrss.  phi_poly(11)
is not run: it takes minutes and several GB with the zeta memo.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PRELUDE = """
import json, resource, subprocess, sys, time
from pdocong import delta_series, kappa_series, pdo_series, phi_poly, xipoly
def rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024
def report(**fields):
    print(json.dumps(fields))
"""

ROWS = (
    ("pdo_series(N) exact, cold", """
for order in (2000, 8000, 32000):
    t = time.perf_counter(); pdo_series(order)
    report(row=f"pdo_series({order})", seconds=time.perf_counter() - t, rss_mb=rss_mb())
"""),
    ("dense Series product delta*kappa, operands built first", """
for order in (2000, 8000):
    a, b = delta_series(order), kappa_series(order)
    t = time.perf_counter(); a * b
    report(row=f"delta*kappa at order {order}", seconds=time.perf_counter() - t, rss_mb=rss_mb())
"""),
    ("phi_poly(k), incremental in one process", """
phi_poly(6)
for k in (7, 8, 9, 10):
    t = time.perf_counter(); phi_poly(k)
    report(row=f"phi_poly({k}) step", seconds=time.perf_counter() - t, rss_mb=rss_mb(),
           zeta_memo_entries=len(xipoly._TABLE._memo))
"""),
    ("phi_poly(3..9) from cold, one call per level", """
t = time.perf_counter()
for k in range(3, 10):
    phi_poly(k)
report(row="phi_poly(3..9)", seconds=time.perf_counter() - t, rss_mb=rss_mb())
"""),
    *(
        (f"CLI pdocong {args}, child RSS", f"""
t = time.perf_counter()
subprocess.run([sys.executable, "-c", "import sys; from pdocong.cli import main; sys.exit(main())",
                *{args.split()!r}], stdout=subprocess.DEVNULL, check=True)
report(row="pdocong {args}", seconds=time.perf_counter() - t, rss_mb=rss_mb(resource.RUSAGE_CHILDREN))
""")
        for args in ("verify --family main --k 2 --nmax 125", "phi --k 9 --format json", "pdo --max 10")
    ),
)


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for title, body in ROWS:
        print(f"# {title}", flush=True)
        out = subprocess.run(
            [sys.executable, "-c", PRELUDE + body], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout
        for line in out.splitlines():
            row = json.loads(line)
            extra = {k: v for k, v in row.items() if k not in ("row", "seconds", "rss_mb")}
            print(f"{row['row']:<45} {row['seconds']:8.3f} s {row['rss_mb']:8.1f} MB  {extra or ''}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
