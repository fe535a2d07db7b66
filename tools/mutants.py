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
when the unmutated run fails; 0 when every mutant is killed.  The mutants
run on os.cpu_count() worker threads, each in its own temporary copy, and
are reported in the order of MUTANTS.  Run from the repository root:

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "delpezzo"
TIMEOUT_S = 20

_CLOSURE = ("tests/test_weyl.py::test_close_group_matches_reference_closure",)
_CYCLO = ("tests/test_exactnum.py::test_arithmetic_matches_fraction_oracle",)
_DP4_LAW = ("tests/test_dp4.py::test_code_group_law_matches_the_matrix_homomorphism",)
_READER = ("tests/test_cli.py::test_the_reader_parses_like_argparse_or_declines",)

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
    # the clique levels shared across k, and the ANDs shared across levels
    "clique-cache-ignores-the-graph": (
        "_kernels.py",
        "@lru_cache(maxsize=1)\ndef _cliques(",
        "def _keyed_on_size(build):\n"
        "    levels = {}\n\n"
        "    def cached(nbr, k):\n"
        "        if (len(nbr), k) not in levels:\n"
        "            levels[len(nbr), k] = build(nbr, k)\n"
        "        return levels[len(nbr), k]\n\n"
        "    cached.cache_clear = levels.clear\n"
        "    return cached\n\n\n"
        "@_keyed_on_size\ndef _cliques(",
        ("tests/test_kernels.py::test_cached_levels_belong_to_their_graph",),
    ),
    "candidate-set-keeps-the-vertex-just-added": (
        "_kernels.py",
        "index.setdefault(c & nbr[v], len(index))",
        "index.setdefault(c & (nbr[v] | 1 << v), len(index))",
        ("tests/test_kernels.py::test_cliques_match_the_recursion_on_random_graphs",),
    ),
    "counts-and-against-the-wrong-parent": (
        "_kernels.py",
        "repeat(above, len(above)))), filter(None, below.sizes()))",
        "repeat(above, len(above)))), below.sizes())",
        ("tests/test_kernels.py::test_fixed_counts_match_the_boolean_gather",),
    ),
    "counts-reuse-the-ands-of-other-masks": (
        "_kernels.py",
        "if below.shared is None or below.shared[0] != key:",
        "if below.shared is None:",
        ("tests/test_kernels.py::test_fixed_counts_match_the_boolean_gather",),
    ),
    "frame-count-one-short": (
        "_kernels.py",
        "return len(self._level.ids)",
        "return len(self._level.ids) - 1",
        ("tests/test_kernels.py::test_frames_per_k_of_e6_e7_e8",),
    ),
    "frame-row-takes-the-next-parent": (
        "_kernels.py",
        "takewhile(i.__ge__, ",
        "takewhile(i.__gt__, ",
        ("tests/test_kernels.py::test_frames_index_like_a_sequence",),
    ),
    # the dp4 rank refuses a set that sigma does not normalize
    "dp4-rank-skips-the-normalizer-check": (
        "dp4.py",
        "if not bits >> _mul(_mul(sigma, x), sigma) & 1:",
        "if False:",
        ("tests/test_dp4.py::test_invariant_rank_refuses_a_group_that_sigma_does_not_normalize",),
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
    # the one reduction modulo Phi_n
    "fold-skips-degree-phi": (
        "exactnum.py",
        "for k in range(len(out) - 1, phi - 1, -1):",
        "for k in range(len(out) - 1, phi, -1):",
        _CYCLO,
    ),
    "fold-subtracts-the-tail": (
        "exactnum.py",
        "out[k - phi + i] += c * t",
        "out[k - phi + i] -= c * t",
        _CYCLO,
    ),
    "substitution-truncates-instead-of-folding": (
        "exactnum.py",
        "return out if top == size else _fold(out, size, tail)",
        "return out[:size]",
        _CYCLO,
    ),
    # the coefficient parse of `dp1 rationality` and the group labels of `invariants`
    "coefficient-accepts-a-zero-denominator": (
        "cli.py",
        "        if not q:\n",
        "        if not m:\n",
        ("tests/test_cli.py::test_dp1_rationality_reads_each_coefficient_as_an_integer_or_p_over_q",),
    ),
    "group-label-conductor-excludes-the-bound": (
        "invforms.py",
        "if lcm(4, n) > _MAX_CONDUCTOR:",
        "if lcm(4, n) >= _MAX_CONDUCTOR:",
        ("tests/test_invforms.py::test_group_labels_bound_the_rotation_conductor",),
    ),
    "group-label-without-the-digit-check": (
        "invforms.py",
        "if not (key[1:].isascii() and key[1:].isdigit()):",
        "if False:",
        ("tests/test_invforms.py::test_group_labels_read_n_in_ascii_digits",),
    ),
    # the argv reader: one mutant per rule that lets it read an argv
    "reader-accepts-a-flag-prefix": (
        "cli.py",
        "kwargs = flags.get(flag)",
        "kwargs = flags.get(flag := next((f for f in flags if f.startswith(flag)), flag))",
        _READER,
    ),
    "reader-skips-the-choices-check": (
        "cli.py",
        'if "choices" in kwargs and value not in kwargs["choices"]:',
        "if False:",
        _READER,
    ),
    "reader-skips-the-required-check": (
        "cli.py",
        'if any(kwargs.get("required") and flag not in given for flag, kwargs in spec):',
        "if False:",
        _READER,
    ),
    "reader-lets-store-true-take-a-value": (
        "cli.py",
        "            if eq:\n",
        "            if False:\n",
        _READER,
    ),
    "reader-takes-a-separate-value-that-starts-with-a-dash": (
        "cli.py",
        'if value.startswith("-"):',
        "if False:",
        _READER,
    ),
    "reader-accepts-non-ascii-digits": (
        "cli.py",
        "if not (value.isascii() and value.isdigit()):",
        "if not value.isdigit():",
        _READER,
    ),
    "reader-accepts-every-int-spelling": (
        "cli.py",
        "if not (value.isascii() and value.isdigit()):",
        "if False:",
        _READER,
    ),
    "reader-reads-an-int-past-the-digit-limit": (
        "cli.py",
        "except ValueError:  # more digits than int() reads",
        "except ZeroDivisionError:",
        _READER,
    ),
    # the int-code group law of dp4 and its conjugation maps
    "dp4-permutations-composed-in-the-wrong-order": (
        "dp4.py",
        "comp = [[index[g(p)] for g in getters] for p in perms]",
        "comp = [[index[itemgetter(*p)(q)] for q in perms] for p in perms]",
        _DP4_LAW,
    ),
    "dp4-sign-action-read-through-p": (
        "dp4.py",
        "(b >> j & 1) << p[j]",
        "(b >> p[j] & 1) << j",
        _DP4_LAW,
    ),
    "dp4-conjugation-by-h-on-both-sides": (
        "dp4.py",
        "_mul(_mul(x, g), xinv)",
        "_mul(_mul(x, g), x)",
        ("tests/test_report_corpus.py::test_report_matches_the_recorded_digest[dp4-p2-3-1-minimal]",),
    ),
    "dp4-element-equality-ignores-perm": (
        "dp4.py",
        "other.sign == self.sign and other.perm == self.perm",
        "other.sign == self.sign",
        ("tests/test_dp4.py::test_elements_are_immutable_values",),
    ),
    # fraction-free elimination, shared by the lattice modules and the cyclotomic field
    "bareiss-divides-by-the-current-pivot": (
        "exactint.py",
        "rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]",
        "rows[i] = [(p * a - f * b) // p for a, b in zip(rows[i], top)]",
        ("tests/test_exactnum.py::test_echelon_and_solve_match_fraction_oracle",),
    ),
    # Sturm bisection
    "halve-keeps-the-wrong-half": (
        "realroots.py",
        "if vlo - vmid == 1:",
        "if vlo - vmid != 1:",
        ("tests/test_dp1.py::test_fiber_kinds_against_local_model_oracle",),
    ),
    # the interval never shrinks, so tighten_interval loops until the timeout
    "halve-keeps-the-interval-at-a-root": (
        "realroots.py",
        "return mid, mid, None",
        "return lo, hi, vlo",
        ("tests/test_realroots.py::test_bisection_stops_at_a_midpoint_root",),
    ),
    # fingerprints and the configuration graph
    "fingerprint-skips-line-0-when-counting-fixed-lines": (
        "weyl.py",
        "fixed_line_count=sum(i == j for i, j in enumerate(perm)),",
        "fixed_line_count=sum(i == j for i, j in enumerate(perm) if i),",
        ("tests/test_weyl.py::test_fingerprint_counts_match_the_coordinate_images",),
    ),
    "fingerprint-fixes-a-trio-that-one-line-maps-into": (
        "weyl.py",
        "trios += {perm[i] for i in idx} == idx",
        "trios += bool({perm[i] for i in idx} & idx)",
        ("tests/test_weyl.py::test_fingerprint_counts_match_the_coordinate_images",),
    ),
    "graph-flags-every-block-real": (
        "confgraphs.py",
        "flags = tuple(len(blk) == 1 for blk in blocks)",
        "flags = tuple(True for blk in blocks)",
        ("tests/test_confgraphs.py::test_pi21_coloring_and_automorphisms",),
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


def _run_mutant(mutant) -> tuple[str, str, float]:
    """run_tests on a copy with the mutant (file, snippet, replacement, tests) applied, and its wall time."""
    file, snippet, replacement, named = mutant
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        status, detail = run_tests(_copy(tmp, (file, snippet, replacement)), named)
    return status, detail, time.monotonic() - t0


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
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for name, (status, detail, seconds) in zip(MUTANTS, pool.map(_run_mutant, MUTANTS.values())):
            survivors += status == "passed"
            errors += status == "error"
            verdict = {"failed": "killed", "timeout": "killed", "passed": "SURVIVED", "error": "ERROR"}[status]
            print(f"{verdict:8} {name} ({seconds:.1f} s): {detail}", flush=True)
    print(f"mutants: {len(MUTANTS) - survivors - errors} of {len(MUTANTS)} killed in {time.monotonic() - start:.0f} s")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main())
