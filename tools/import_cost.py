"""Import self time of each `tables` request, as the benchmark starts it.

    python3 tools/import_cost.py [--runs N] [--src DIR ...]

Each request of the `tables` workload runs as a fresh
``python -X importtime -m delpezzo ...`` with ``PYTHONDONTWRITEBYTECODE=1``,
as the benchmark runs it, so every package module is compiled again.
TABLE_REQUESTS copies the list of perfbench/workloads.py, which imports
numpy; tests/test_import_cost.py keeps the two equal.  The self times it reports fall in three groups:

- package: the ``delpezzo`` modules;
- numpy: ``numpy`` and every module first imported beneath it;
- other: every other module that a bare ``python -c pass`` does not load.

It prints, per request, the median over N runs of each group in ms, and per
pass the sum of those medians.  With two or more ``--src`` trees (each a
directory holding the ``delpezzo`` package), the trees run in turn, one
run each, N times over, so that a drift of the host reaches every tree
alike.  Standard library only; it writes nothing.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE_REQUESTS = [["table", "--id", str(i)] for i in range(1, 8)] + [
    ["dp1", "star", "--reference"],
    ["dp4", "--form", "q31-0-2", "--enumerate-minimal"],
    ["dp4", "--form", "p2-1-2", "--enumerate-minimal"],
    ["graph", "--degree", "6", "--sigma", "fig_a"],
]
GROUPS = ("package", "numpy", "other")
_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)")


def importtime(args: list[str], src: str | None) -> list[tuple[int, str, int]]:
    """(depth, module, self µs) of each import of one fresh interpreter, in
    the order the imports began."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if src is not None:
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-500:]}")
    # a module is reported when its import ends, after every import it made
    found = [(len(m[2]) // 2, m[3], int(m[1])) for m in map(_LINE.match, proc.stderr.splitlines()) if m]
    return found[::-1]


def grouped(imports, bare: set[str]) -> dict[str, float]:
    """Self time in ms per group; a module counts for numpy when numpy or a
    numpy module is among the imports in progress when it began."""
    out = dict.fromkeys(GROUPS, 0.0)
    open_names: list[str] = []
    for depth, name, us in imports:
        del open_names[depth:]
        open_names.append(name)
        if any(n == "numpy" or n.startswith("numpy.") for n in open_names):
            out["numpy"] += us / 1000
        elif name == "delpezzo" or name.startswith("delpezzo."):
            out["package"] += us / 1000
        elif name not in bare:
            out["other"] += us / 1000
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5, help="runs per request and tree (default 5)")
    parser.add_argument("--src", action="append", help="a tree holding the delpezzo package (default: src/)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = args.src or [str(ROOT / "src")]
    bare = {name for _, name, _ in importtime(["-c", "pass"], None)}
    samples = {(t, i): [] for t in trees for i in range(len(TABLE_REQUESTS))}
    for _ in range(args.runs):
        for i, request in enumerate(TABLE_REQUESTS):
            for tree in trees:
                samples[tree, i].append(grouped(importtime(["-m", "delpezzo", *request], tree), bare))
    for tree in trees:
        print(f"{tree}: median of {args.runs} runs, self ms")
        print(f"  {'request':<44}" + "".join(f"{g:>9}" for g in GROUPS))
        totals = dict.fromkeys(GROUPS, 0.0)
        for i, request in enumerate(TABLE_REQUESTS):
            medians = {g: statistics.median(s[g] for s in samples[tree, i]) for g in GROUPS}
            for g in GROUPS:
                totals[g] += medians[g]
            print(f"  {' '.join(request):<44}" + "".join(f"{medians[g]:9.1f}" for g in GROUPS))
        print(f"  {'pass':<44}" + "".join(f"{totals[g]:9.1f}" for g in GROUPS))
        print(f"  package + other: {totals['package'] + totals['other']:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
