"""Committed mutants of the package: each must be killed by the tests it names.

Each entry of MUTANTS is name -> (file under src/delpezzo, snippet,
replacement, pytest node ids).  For each mutant in turn, this tool copies
src/ into a temporary directory, replaces the one occurrence of the snippet
in that file by the replacement, and runs only the named tests against the
copy, in a child `python -m pytest` whose PYTHONPATH starts with the copy.
A failed test kills the mutant, and so does a run longer than TIMEOUT_S
(stripping nothing in `_sift` makes the group closure loop forever).  Before
any mutant, the named tests run once on an unmutated copy and must pass.

Exits 1 when a mutant survives, when a snippet is not found exactly once in
its file (a change that rewrites mutated code rewrites its mutant too), or
when the unmutated run fails; 0 when every mutant is killed.  One mutant
runs at a time.  Run from the repository root:

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "delpezzo"
TIMEOUT_S = 20

_CLOSURE = ("tests/test_weyl.py::test_close_group_matches_reference_closure",)
_CYCLO = ("tests/test_exactnum.py::test_arithmetic_matches_fraction_oracle",)

MUTANTS = {
    # the base and strong generating set
    "sift-strips-nothing": (
        "weyl.py",
        "        perm = tuple(inv[x] for x in perm)\n",
        "",
        ("tests/test_weyl.py::test_close_group_orders",),
    ),
    "sift-composes-on-the-wrong-side": (
        "weyl.py",
        "perm = tuple(inv[x] for x in perm)",
        "perm = tuple(perm[x] for x in inv)",
        _CLOSURE,
    ),
    "order-drops-the-last-basic-orbit": (
        "weyl.py",
        "prod(len(t) for t in self.transversals)",
        "prod(len(t) for t in self.transversals[:-1])",
        ("tests/test_weyl.py::test_close_group_orders",),
    ),
    "invariant-rank-skips-the-first-generator": (
        "minimality.py",
        "for g in group.generators\n",
        "for g in group.generators[1:]\n",
        ("tests/test_minimality.py::test_oracle_equivalence_randomized",),
    ),
    "minimal-accepts-a-sigma-of-order-above-2": (
        "cli.py",
        "if args.sigma is not None and not (gens[args.sigma] * gens[args.sigma]).is_identity():",
        "if False:",
        ("tests/test_report_corpus.py::test_report_matches_the_recorded_digest[minimal-sigma-order-6]",),
    ),
    # the clique levels shared across k
    "clique-cache-ignores-the-graph": (
        "_kernels.py",
        "@lru_cache(maxsize=1)\ndef _cliques(",
        "def _keyed_on_size(build):\n"
        "    levels = {}\n\n"
        "    def cached(upper_bytes, n, k):\n"
        "        if (n, k) not in levels:\n"
        "            levels[n, k] = build(upper_bytes, n, k)\n"
        "        return levels[n, k]\n\n"
        "    cached.cache_clear = levels.clear\n"
        "    return cached\n\n\n"
        "@_keyed_on_size\ndef _cliques(",
        ("tests/test_kernels.py::test_cached_levels_belong_to_their_graph",),
    ),
    "clique-chunk-offset-dropped": (
        "_kernels.py",
        "            p += start\n",
        "",
        ("tests/test_kernels.py::test_cliques_match_the_recursion_across_chunks",),
    ),
    "cached-frames-writable": (
        "_kernels.py",
        "    frames.flags.writeable = False\n",
        "",
        ("tests/test_kernels.py::test_scanned_frames_are_read_only",),
    ),
    # CycloNum products and sums
    "rational-test-on-y-ignores-the-first-entry": (
        "exactnum.py",
        "if y.count(0) - (not y[0]) == rest:",
        "if y.count(0) == rest:",
        _CYCLO,
    ),
    "rational-test-on-x-ignores-the-first-entry": (
        "exactnum.py",
        "elif x.count(0) - (not x[0]) != rest:",
        "elif x.count(0) != rest:",
        _CYCLO,
    ),
    "rational-factor-not-swapped-first": (
        "exactnum.py",
        "            x, y = y, x\n",
        "            pass\n",
        _CYCLO,
    ),
    "zero-factor-keeps-the-other": (
        "exactnum.py",
        "return _new(n, (0,) * len(y), 1)",
        "return _new(n, y, a.den * b.den)",
        _CYCLO,
    ),
    "minus-one-taken-for-the-unit": (
        "exactnum.py",
        "if c == 1:",
        "if c == -1:",
        _CYCLO,
    ),
    "scaling-keeps-one-denominator": (
        "exactnum.py",
        "return _new(n, [c * d for d in y], a.den * b.den)",
        "return _new(n, [c * d for d in y], b.den)",
        _CYCLO,
    ),
    "scaling-by-the-other-factor": (
        "exactnum.py",
        "c = x[0]",
        "c = y[0]",
        _CYCLO,
    ),
    "equal-denominator-sum-drops-b": (
        "exactnum.py",
        "list(map(_add, a.num, b.num))",
        "list(a.num)",
        _CYCLO,
    ),
    "unequal-denominator-sum-drops-a-denominator": (
        "exactnum.py",
        "for x, y in zip(a.num, b.num)], da * db)",
        "for x, y in zip(a.num, b.num)], db)",
        _CYCLO,
    ),
    "dense-product-skips-negative-entries": (
        "exactnum.py",
        "ys = [(j, d) for j, d in enumerate(y) if d]",
        "ys = [(j, d) for j, d in enumerate(y) if d > 0]",
        _CYCLO,
    ),
    "dense-product-keeps-one-denominator": (
        "exactnum.py",
        "return _new(n, _dense_product(x, y, tail), a.den * b.den)",
        "return _new(n, _dense_product(x, y, tail), a.den)",
        _CYCLO,
    ),
    "unify-at-the-larger-conductor": (
        "exactnum.py",
        "m = lcm(self.n, other.n)",
        "m = max(self.n, other.n)",
        _CYCLO,
    ),
    # the conductor bound of scalar literals
    "conductor-bound-excludes-the-bound": (
        "exactnum.py",
        "if conductor > _MAX_CONDUCTOR:",
        "if conductor >= _MAX_CONDUCTOR:",
        ("tests/test_exactnum.py::test_parser_bounds_the_conductor_of_a_literal",),
    ),
    "conductor-bound-per-literal": (
        "exactnum.py",
        "conductor = lcm(conductor, n or 1)",
        "conductor = n",
        ("tests/test_exactnum.py::test_parser_bounds_the_conductor_of_a_literal",),
    ),
}


def missing(mutants) -> list[str]:
    """The mutants whose snippet is not found exactly once in their file."""
    return [
        name
        for name, (file, snippet, _, _) in mutants.items()
        if (PACKAGE / file).read_text().count(snippet) != 1
    ]


def run_tests(src: Path, tests) -> tuple[str, str]:
    """('passed' | 'failed' | 'timeout' | 'error', detail) of the tests run
    against the package under src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", f"no result after {TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    # pytest exits 1 when a test failed; 2 to 5 mean the run itself went wrong
    status = {0: "passed", 1: "failed"}.get(proc.returncode, "error")
    return status, (failed or lines[-1:] or [f"exit {proc.returncode}"])[0]


def _copy(tmp: str, mutant=None) -> Path:
    """src/ copied under tmp, with the mutant (file, snippet, replacement) applied."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        file, snippet, replacement = mutant
        path = src / "delpezzo" / file
        path.write_text(path.read_text().replace(snippet, replacement))
    return src


def main() -> int:
    gone = missing(MUTANTS)
    for name in gone:
        print(f"mutants: {name}: its snippet is not found exactly once in src/delpezzo/{MUTANTS[name][0]}")
    if gone:
        return 1
    start = time.monotonic()
    tests = list(dict.fromkeys(t for *_, named in MUTANTS.values() for t in named))
    with tempfile.TemporaryDirectory() as tmp:
        status, detail = run_tests(_copy(tmp), tests)
    if status != "passed":
        print(f"mutants: the named tests do not pass on the unmutated code ({status}: {detail})")
        return 1
    survivors = errors = 0
    for name, (file, snippet, replacement, named) in MUTANTS.items():
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory() as tmp:
            status, detail = run_tests(_copy(tmp, (file, snippet, replacement)), named)
        survivors += status == "passed"
        errors += status == "error"
        verdict = {"failed": "killed", "timeout": "killed", "passed": "SURVIVED", "error": "ERROR"}[status]
        print(f"{verdict:8} {name} ({time.monotonic() - t0:.1f} s): {detail}", flush=True)
    print(f"mutants: {len(MUTANTS) - survivors - errors} of {len(MUTANTS)} killed in {time.monotonic() - start:.0f} s")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main())
