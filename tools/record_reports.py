"""Record the report corpus: every CLI request below, its exit code and digest.

Writes tests/report_digests.json, a list of {name, argv, exit, digest}
entries, where digest is the first 16 hex digits of the sha256 of the
request's standard output.  tests/test_report_corpus.py replays every entry
in-process and requires the same exit code and digest, so a refactor that
must keep every report byte-identical shows each report it changes as a
changed line of that file; it also requires the corpus to hold exactly the
requests below, so none is added without being recorded.

The malformed requests replace one entry of a valid JSON argument
(`json_options`) by a bad one (`MALFORMED`); tests/test_cli.py draws its
seeded malformed argvs from the same two tables.

Run from the repository root:

    python3 tools/record_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "report_digests.json"
# a JSON argument given as a file, relative to the repository root, where
# requests are replayed
GENERATORS_FILE = "tests/generators_d6.json"
sys.path.insert(0, str(ROOT / "src"))


def _matrices(isos) -> str:
    return json.dumps([[list(row) for row in g.matrix] for g in isos])


def _simple_reflections(degree: int) -> str:
    from delpezzo.picard import PicardLattice
    from delpezzo.weyl import reflection, simple_roots

    lat = PicardLattice(degree)
    return _matrices(reflection(lat, s) for s in simple_roots(lat))


def _a22_conjugate() -> str:
    """The reference A_2^2 element of dp1 star conjugated by the reflection in e_3 - e_4."""
    from delpezzo.dp1 import a22_element
    from delpezzo.picard import LatticeClass, PicardLattice
    from delpezzo.weyl import reflection

    lat = PicardLattice(1)
    r = reflection(lat, LatticeClass((0, 0, 0, 1, -1, 0, 0, 0, 0)))
    return json.dumps([list(row) for row in (r * a22_element(lat) * r).matrix])


def _eye(n: int, corner=1) -> list[list]:
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    mat[0][0] = corner
    return mat


def _minimal_requests() -> list[tuple[str, list[str]]]:
    from delpezzo.confgraphs import hexagon_sigma_isometry, vertex_permutation_isometry
    from delpezzo.picard import LatticeClass, PicardLattice
    from delpezzo.weyl import minus_on_kperp, reflection

    def minimal(degree, generators, *extra):
        return ["minimal", "--degree", str(degree), "--generators", generators, *extra]

    lat6, lat2 = PicardLattice(6), PicardLattice(2)
    fig_a = hexagon_sigma_isometry(lat6, "fig_a")
    rotation = vertex_permutation_isometry(lat6, (1, 2, 3, 4, 5, 0))
    r2 = vertex_permutation_isometry(lat6, (2, 3, 4, 5, 0, 1))
    e7_part = [
        reflection(lat2, LatticeClass(c))
        for c in ((0, 1, -1, 0, 0, 0, 0, 0), (0, 0, 0, 1, -1, 0, 0, 0), (1, -1, -1, -1, 0, 0, 0, 0))
    ]
    # the published order-4 action on Q_{3,1}(0,2) and its real structure,
    # in the standard basis e_0..e_5
    order4 = json.dumps([
        [[3, 1, 1, 1, 2, 1], [-1, 0, -1, 0, -1, 0], [-1, -1, 0, 0, -1, 0],
         [-2, -1, -1, -1, -1, -1], [-1, 0, 0, -1, -1, 0], [-1, 0, 0, 0, -1, -1]],
        [[2, 1, 1, 0, 0, 1], [-1, -1, 0, 0, 0, -1], [-1, 0, -1, 0, 0, -1],
         [0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0], [-1, -1, -1, 0, 0, 0]],
    ])
    e6 = _simple_reflections(3)
    return [
        ("minimal-d7-weyl", minimal(7, _simple_reflections(7))),
        ("minimal-d7-weyl-sigma", minimal(7, _simple_reflections(7), "--sigma", "0")),
        ("minimal-d6-weyl", minimal(6, _simple_reflections(6))),
        ("minimal-d6-weyl-sigma", minimal(6, _simple_reflections(6), "--sigma", "1")),
        ("minimal-d6-r2-fig_a", minimal(6, _matrices([r2, fig_a]), "--sigma", "1")),
        ("minimal-d6-rotation", minimal(6, _matrices([rotation]))),
        ("minimal-d6-trivial", minimal(6, "[]")),
        ("minimal-d5-weyl", minimal(5, _simple_reflections(5))),
        ("minimal-d5-weyl-sigma", minimal(5, _simple_reflections(5), "--sigma", "2")),
        ("minimal-d4-weyl", minimal(4, _simple_reflections(4))),
        ("minimal-d4-order4", minimal(4, order4)),
        ("minimal-d4-order4-sigma", minimal(4, order4, "--sigma", "1")),
        ("minimal-d3-weyl", minimal(3, e6)),
        ("minimal-d3-weyl-sigma", minimal(3, e6, "--sigma", "0")),
        ("minimal-d2-weyl", minimal(2, _simple_reflections(2))),
        ("minimal-d1-weyl", minimal(1, _simple_reflections(1))),
        ("minimal-d2-geiser-sigma", minimal(2, _matrices([minus_on_kperp(lat2)]), "--sigma", "0")),
        ("minimal-d2-three-reflections", minimal(2, _matrices(e7_part))),
        ("minimal-d1-bertini", minimal(1, _matrices([minus_on_kperp(PicardLattice(1))]))),
        ("minimal-d8", minimal(8, json.dumps([_eye(2)]))),
        ("minimal-d9", minimal(9, json.dumps([_eye(1)]))),
        ("minimal-sigma-out-of-range", minimal(6, _matrices([fig_a]), "--sigma", "1")),
        ("minimal-sigma-order-6", minimal(6, _matrices([rotation]), "--sigma", "0")),
        ("minimal-generators-not-a-list", minimal(3, "5")),
        ("minimal-no-such-file", minimal(3, "nosuchfile")),
        ("minimal-generators-file", minimal(6, GENERATORS_FILE)),
        ("minimal-entry-not-a-matrix", minimal(6, "[5]")),
        ("minimal-wrong-size", minimal(6, json.dumps([_eye(3)]))),
        ("minimal-ragged-rows", minimal(6, json.dumps([[[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]))),
        ("minimal-float-entry", minimal(6, json.dumps([_eye(4, 1.5)]))),
        ("minimal-string-entry", minimal(6, json.dumps([_eye(4, "1")]))),
        ("minimal-true-entry", minimal(6, json.dumps([_eye(4, True)]))),
        ("minimal-not-an-isometry", minimal(6, json.dumps([_eye(4, 2)]))),
        ("minimal-moves-k", minimal(6, json.dumps([[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]]))),
    ]


def json_options() -> dict[str, tuple[list[str], object]]:
    """One valid value of each JSON option, after the argv that comes before it."""
    from delpezzo.dp1 import a22_element
    from delpezzo.picard import PicardLattice

    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]  # the reflection in e_1 - e_2
    return {
        "roots": (["classify-involution", "--degree", "3", "--roots"], [[0, 1, -1, 0, 0, 0, 0], [0, 0, 0, 1, -1, 0, 0]]),
        "generators": (["minimal", "--degree", "6", "--generators"], [swap]),
        "generator": (["dp1", "star", "--generator"], [list(row) for row in a22_element(PicardLattice(1)).matrix]),
        "characteristic": (["dp4", "--characteristic"], [[1, 0], [6, 1], [-1, 2], [-3, 4], [0, -1]]),
        "rank-elements": (
            ["dp4", "--form", "q31-0-2", "--rank-elements"],
            [{"sign": [0, 0, 0, 0, 0], "perm": [1, 2, 3, 4, 5]}, {"sign": [1, 0, 1, 1, 1], "perm": [1, 2, 3, 4, 5]}],
        ),
    }


def _int(path, node):
    return type(node) is int


def _list(path, node):
    return isinstance(node, list)


# kind of bad entry -> (the nodes it replaces, given their path and value; the
# replacement).  Every one must make the CLI exit 2 with one error line.
MALFORMED = {
    "float": (_int, lambda x: x + 0.5),
    "string": (_int, str),
    "null": (_int, lambda x: None),
    "true": (_int, lambda x: True),
    "false": (_int, lambda x: False),
    "dict": (_int, lambda x: {"value": x}),
    "too-deep": (_int, lambda x: [x]),
    "too-shallow": (_list, lambda node: node[0]),
    "too-long": (_list, lambda node: node + node[:1]),
    "too-short": (_list, lambda node: node[:-1]),
    "sign-bit-2": (lambda path, node: "sign" in path and _int(path, node), lambda x: 2),
    "sign-bit-minus-1": (lambda path, node: "sign" in path and _int(path, node), lambda x: -1),
    "perm-repeated": (lambda path, node: path[-1:] == ("perm",), lambda perm: perm[:1] + perm[:-1]),
    "perm-out-of-range": (lambda path, node: "perm" in path and _int(path, node), lambda x: 6),
}


def malformed_paths(value, kind: str, path=()) -> list[tuple]:
    """The path of every node below the top of value that kind replaces."""
    applies = MALFORMED[kind][0]
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    out = []
    for key, child in children:
        if applies(path + (key,), child):
            out.append(path + (key,))
        out += malformed_paths(child, kind, path + (key,))
    return out


def malformed(value, kind: str, path: tuple):
    """A copy of value with the node at path replaced as kind says."""
    if not path:
        return MALFORMED[kind][1](value)
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = malformed(value[path[0]], kind, path[1:])
    return copy


def _malformed_requests() -> list[tuple[str, list[str]]]:
    """One request per JSON option and kind of bad entry, at its first node."""
    out = []
    for option, (argv, value) in json_options().items():
        for kind in MALFORMED:
            paths = malformed_paths(value, kind)
            if paths:
                out.append((f"malformed-{option}-{kind}", [*argv, json.dumps(malformed(value, kind, paths[0]))]))
    return out


# (name, f4, f6): one surface per branch of dp1.classify_fibers and of the
# root isolation behind it
FIBER_CASES = [
    ("finite-acnodes", "0,2,-1,1,-2", "-1,-2,0,0,2,-1,0"),
    ("finite-crunodes", "0,-2,0,-1,-2", "1,-1,0,0,-1,2,2"),
    ("finite-cusp", "2,0,2,0,0", "-2,2,2,2,0,1,0"),
    ("cusp-at-rational-root", "-2,2,-1,2,0", "0,0,0,0,0,2,0"),
    ("acnode-at-rational-root", "-1,0,0,1,2", "-1,0,2,2,1,-1,-2"),
    ("cusp-at-infinity", "0,-1,-2,0,-2", "0,1,0,0,0,0,1"),
    ("crunode-at-infinity", "-12,-1,-2,1,0", "16,-2,1,-2,-1,2,2"),
    ("acnode-at-infinity", "-3,-1,-2,1,-1", "-2,0,0,-1,1,-2,1"),
    ("non-cusp-multiple-root", "-1,-2,2,0,0", "-1,0,0,2,-1,0,0"),
    ("cusp-root-multiplicity", "-1,-1,1,0,-1", "1,2,0,-2,-1,0,0"),
    ("cusp-at-infinity-multiplicity", "0,-2,0,0,2", "0,0,1,0,-1,0,0"),
    ("multiple-root-at-infinity", "-12,0,-2,-2,1", "-16,0,0,1,-2,1,-1"),
    ("zero-discriminant", "0,0,0,0,0", "0,0,0,0,0,0,0"),
    ("wrong-coefficient-count", "1,0,0,0", "1,0,0,0,0,0,1"),
    ("only-cusps", "0,0,0,0,0", "1,0,0,0,0,0,-1"),
    ("root-at-a-bisection-point", "-3,3,1,3,-3", "2,1,1,0,2,0,-2"),
]

# (name, f4, f6): one request per branch of the scalar-literal grammar, each
# on the surface of the dp1-rationality entry or refused with one error line
LITERAL_CASES = [
    ("fraction", "-4/2,0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    ("negative-exponent", "-2,0,-2,0,-2", "z4^-2,0,-2,0,-2,0,2"),
    ("binary-plus", "-3+1,0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    ("binary-minus", "-1-1,0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    ("binary-times", "-1*2,0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    ("parentheses", "(-2),0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    ("unary-plus", "-2,0,-2,0,-2", "-1,0,-2,0,-2,0,+2"),
    ("not-rational-z3", "z3,0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    ("conductor-0", "z0,0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    ("conductor-at-bound", "-2*z1000^0,0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    ("conductor-above-bound", "-2*z1001^0,0,-2,0,-2", "-1,0,-2,0,-2,0,2"),
    *[
        (f"error-{name}", f"{text},0,-2,0,-2", "-1,0,-2,0,-2,0,2")
        for name, text in (("slash", "1/"), ("bare-z", "z"), ("caret", "z3^"), ("character", "1@"),
                           ("open-paren", "(1"), ("trailing-plus", "1+"), ("close-paren", ")"), ("two-numbers", "1 2"),
                           ("zero-denominator", "1/0"), ("zero-denominator-00", "3/00"))
    ],
]

HELP = [
    [name, "-h"]
    for name in ("lattice", "frames", "classify-involution", "minimal", "graph", "dp4", "cubic",
                 "dp2-example", "invariants", "dp1", "table")
] + [["dp1", "rationality", "-h"], ["dp1", "star", "-h"]]


def requests() -> list[tuple[str, list[str]]]:
    """(name, argv) for every request of the corpus."""
    e6_root = "[[0,1,-1,0,0,0,0]]"
    rank = json.dumps([{"sign": [0, 0, 0, 0, 0], "perm": [1, 2, 3, 4, 5]}, {"sign": [1, 0, 1, 1, 1], "perm": [1, 2, 3, 4, 5]}])

    def rank_el(*sign):
        return {"sign": list(sign), "perm": [1, 2, 3, 4, 5]}

    star = json.dumps([[float(i == j) for j in range(9)] for i in range(9)])
    out = [
        ("help", ["-h"]),
        ("no-argv", []),
        ("unknown-command", ["nosuch"]),
        *[("-".join(argv[:-1]) + "-help", argv) for argv in HELP],
        *[
            (f"lattice-d{d}-{what}", ["lattice", "--degree", str(d), "--what", what])
            for d in range(1, 10)
            for what in ("roots", "lines", "trios")
        ],
        ("lattice-d12", ["lattice", "--degree", "12", "--what", "roots"]),
        ("lattice-no-what", ["lattice", "--degree", "3"]),
        ("lattice-bad-what", ["lattice", "--degree", "3", "--what", "points"]),
        *[
            (f"frames-d{d}-k{k}", ["frames", "--degree", str(d), "--k", str(k)])
            for d in range(1, 7)
            for k in range(10 - d)
        ],
        ("frames-d2-k3-budget7", ["frames", "--degree", "2", "--k", "3", "--budget", "7"]),
        ("frames-d3-k1-budget36", ["frames", "--degree", "3", "--k", "1", "--budget", "36"]),
        # budgets around the scan's chunk size and one frame short of the whole scan
        *[
            (f"frames-d{d}-k{k}-budget{b}", ["frames", "--degree", str(d), "--k", str(k), "--budget", str(b)])
            for d, k, b in ((1, 4, 1), (1, 4, 4095), (1, 4, 4096), (1, 4, 4097), (1, 4, 122849),
                            (1, 5, 113399), (2, 4, 4724))
        ],
        ("frames-budget0", ["frames", "--degree", "3", "--k", "1", "--budget", "0"]),
        ("frames-k-too-large", ["frames", "--degree", "3", "--k", "9"]),
        ("frames-d7", ["frames", "--degree", "7", "--k", "1"]),
        ("frames-d7-k2", ["frames", "--degree", "7", "--k", "2"]),
        ("frames-no-k", ["frames", "--degree", "3"]),
        ("classify-d3", ["classify-involution", "--degree", "3", "--roots", e6_root]),
        ("classify-d2", ["classify-involution", "--degree", "2", "--roots", "[[0,1,-1,0,0,0,0,0],[0,0,0,1,-1,0,0,0],[0,0,0,0,0,1,-1,0]]"]),
        ("classify-d1", ["classify-involution", "--degree", "1", "--roots", "[[0,1,-1,0,0,0,0,0,0],[1,-1,-1,-1,0,0,0,0,0]]"]),
        ("classify-d5-unnamed", ["classify-involution", "--degree", "5", "--roots", "[[0,1,-1,0,0]]"]),
        ("classify-no-roots", ["classify-involution", "--degree", "3", "--roots", "[]"]),
        ("classify-not-a-root", ["classify-involution", "--degree", "3", "--roots", "[[0,1,0,0,0,0,0]]"]),
        ("classify-roots-not-a-list", ["classify-involution", "--degree", "3", "--roots", "7"]),
        *_minimal_requests(),
        *[
            (f"graph-d{d}-{p}{dot}", ["graph", "--degree", str(d), "--sigma", p, *(["--dot"] if dot else [])])
            for d, patterns in ((6, ("split", "fig_a", "fig_b", "fig_c")), (5, ("split", "fig_a", "fig_b")))
            for p in patterns
            for dot in ("", "-dot")
        ],
        ("graph-d6-bad-pattern", ["graph", "--degree", "6", "--sigma", "nosuch"]),
        ("graph-d5-bad-pattern", ["graph", "--degree", "5", "--sigma", "fig_c"]),
        ("graph-d4", ["graph", "--degree", "4", "--sigma", "fig_a"]),
        ("dp4-characteristic", ["dp4", "--characteristic", "[[1,0],[6,1],[-1,2],[-3,4],[0,-1]]"]),
        ("dp4-rank-elements", ["dp4", "--form", "q31-0-2", "--rank-elements", rank]),
        ("dp4-q31-0-2-minimal", ["dp4", "--form", "q31-0-2", "--enumerate-minimal"]),
        ("dp4-p2-1-2-minimal", ["dp4", "--form", "p2-1-2", "--enumerate-minimal"]),
        ("dp4-split-minimal", ["dp4", "--form", "split", "--enumerate-minimal"]),
        ("dp4-unknown-form", ["dp4", "--form", "nosuch", "--enumerate-minimal"]),
        ("dp4-no-form", ["dp4", "--enumerate-minimal"]),
        ("dp4-no-request", ["dp4", "--form", "q31-0-2"]),
        ("dp4-rank-elements-no-identity", ["dp4", "--form", "q31-0-2", "--rank-elements", json.dumps([rank_el(1, 1, 0, 0, 0)])]),
        ("dp4-rank-elements-not-closed", ["dp4", "--form", "q31-0-2", "--rank-elements",
                                          json.dumps([rank_el(0, 0, 0, 0, 0), rank_el(1, 1, 0, 0, 0), rank_el(0, 1, 1, 0, 0)])]),
        ("dp4-characteristic-empty", ["dp4", "--characteristic", "[]"]),
        ("dp4-characteristic-zero-pair", ["dp4", "--characteristic", "[[1,0],[0,0]]"]),
        ("dp4-characteristic-coincident", ["dp4", "--characteristic", "[[1,0],[2,0]]"]),
        ("dp4-element-without-perm", ["dp4", "--form", "q31-0-2", "--rank-elements", '[{"sign": [0, 0, 0, 0, 0]}]']),
        ("cubic-fermat-id-lines", ["cubic", "--model", "fermat", "--twist", "id", "--count-real-lines"]),
        *[
            (f"cubic-{model}-{twist}-lines-tritangents",
             ["cubic", "--model", model, "--twist", twist, "--count-real-lines", "--count-real-tritangents"])
            for model in ("clebsch", "fermat")
            for twist in ("id", "t12", "t1234")
        ],
        ("cubic-extra", ["cubic", "--model", "fermat", "extra"]),
        ("dp2-example", ["dp2-example", "--orbits"]),
        ("dp2-example-w-sign-1", ["dp2-example", "--orbits", "--w-sign", "1"]),
        ("dp2-example-w-sign--1", ["dp2-example", "--orbits", "--w-sign", "-1"]),
        ("dp2-example-bad-sign",["dp2-example", "--w-sign", "2"]),
        ("invariants-d8-6", ["invariants", "--group", "d8", "--degree", "6"]),
        ("invariants-z3-4", ["invariants", "--group", "z3", "--degree", "4"]),
        ("invariants-negative-degree", ["invariants", "--group", "z3", "--degree", "-1"]),
        ("invariants-unknown-group", ["invariants", "--group", "q3", "--degree", "2"]),
        ("invariants-z0", ["invariants", "--group", "z0", "--degree", "2"]),
        ("invariants-d0", ["invariants", "--group", "d0", "--degree", "2"]),
        ("dp1-rationality", ["dp1", "rationality", "--f4=-2,0,-2,0,-2", "--f6=-1,0,-2,0,-2,0,2"]),
        ("dp1-rationality-not-rational", ["dp1", "rationality", "--f4=z4^1,0,0,0,0", "--f6=1,0,0,0,0,0,1"]),
        *[(f"dp1-rationality-{name}", ["dp1", "rationality", f"--f4={f4}", f"--f6={f6}"]) for name, f4, f6 in FIBER_CASES],
        *[(f"dp1-literal-{name}", ["dp1", "rationality", f"--f4={f4}", f"--f6={f6}"]) for name, f4, f6 in LITERAL_CASES],
        ("dp1-star-reference", ["dp1", "star", "--reference"]),
        ("dp1-star-default", ["dp1", "star"]),
        ("dp1-star-float-generator", ["dp1", "star", "--generator", star]),
        ("dp1-star-not-a22", ["dp1", "star", "--generator", json.dumps(_eye(9))]),
        # every element with the A_2^2 fingerprint is conjugate to the reference
        # one in W(E8), so the later NotTypeA2Squared checks pass on this one too
        ("dp1-star-conjugate", ["dp1", "star", "--generator", _a22_conjugate()]),
        ("dp1-no-leaf", ["dp1"]),
        *[(f"table-{n}", ["table", "--id", str(n)]) for n in range(1, 8)],
        ("table-0", ["table", "--id", "0"]),
        ("table-8", ["table", "--id", "8"]),
        *_malformed_requests(),
    ]
    names = [name for name, _ in out]
    if len(set(names)) != len(names):
        raise SystemExit("record_reports: duplicate request names")
    return out


def replay(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout digest of one in-process request.

    Help text is wrapped at the terminal width, so COLUMNS is pinned, and
    file arguments are read from the repository root.
    """
    from delpezzo import cli

    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    cwd = os.getcwd()
    os.chdir(ROOT)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def main() -> int:
    entries = []
    for name, argv in requests():
        code, digest = replay(argv)
        entries.append({"name": name, "argv": argv, "exit": code, "digest": digest})
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"record_reports: {len(entries)} reports -> {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
