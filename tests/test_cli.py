import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo
from delpezzo import cli
from delpezzo.cli import build_parser, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import record_reports  # noqa: E402


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lattice_counts(capsys):
    code, out = _run(capsys, "lattice", "--degree", "3", "--what", "lines")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert data["results"]["count"] == 27
    code, out = _run(capsys, "lattice", "--degree", "3", "--what", "trios")
    assert json.loads(out)["results"]["count"] == 45


def test_usage_errors_exit_2(capsys):
    code, out = _run(capsys, "lattice", "--degree", "12", "--what", "roots")
    assert code == 2
    code, _ = _run(capsys, "lattice", "--degree", "3")
    assert code == 2
    code, _ = _run(capsys, "nonsense")
    assert code == 2


def test_deterministic_output(capsys):
    _, out1 = _run(capsys, "frames", "--degree", "3", "--k", "2")
    _, out2 = _run(capsys, "frames", "--degree", "3", "--k", "2")
    assert out1 == out2


def test_cubic_checks_pass(capsys):
    code, out = _run(
        capsys, "cubic", "--model", "clebsch", "--twist", "t12", "--count-real-lines"
    )
    assert code == 0
    data = json.loads(out)
    assert data["results"]["real_lines"] == 3
    assert all(c["pass"] for c in data["checks"])
    assert data["checks"][0]["source"].startswith("table:5")


def test_dp2_example(capsys):
    code, out = _run(capsys, "dp2-example", "--orbits")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["disjoint_real_orbits"] == []


def test_invariants(capsys):
    code, out = _run(capsys, "invariants", "--group", "d8", "--degree", "6")
    data = json.loads(out)
    assert code == 0
    assert data["results"]["dimension"] == 1
    assert data["results"]["basis"] == [["1", "0", "3", "0", "3", "0", "1"]]


def test_dp1_rationality(capsys):
    code, out = _run(
        capsys, "dp1", "rationality", "--f4=-2,0,-2,0,-2", "--f6=-1,0,-2,0,-2,0,2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["results"]["verdict"] == "rational"
    assert data["results"]["euler"] < 0


# (id, spelling of the first f4 coefficient, the same value spelled plainly,
# or None where the spelling is refused)
_COEFFICIENTS = [
    ("plus-sign", "+2", "2"),
    ("p-over-q", "-4/2", "-2"),
    ("blanks", " 3/4 ", "3/4"),
    ("zero-over-q", "0/3", "0"),
    ("zero-denominator", "1/0", None),
    ("zero-denominator-00", "3/00", None),
    ("negative-denominator", "2/-3", None),
    ("decimal", "1.5", None),
    ("zeta", "z4^1", None),
    ("zeta-square", "z4^2", None),
    ("parentheses", "(-2)", None),
    ("sum", "-3+1", None),
    ("two-numbers", "1 2", None),
    ("empty", "", None),
    ("non-ascii-digit", "\u0663", None),
]


@pytest.mark.parametrize("spelling, plain", [c[1:] for c in _COEFFICIENTS], ids=[c[0] for c in _COEFFICIENTS])
def test_dp1_rationality_reads_each_coefficient_as_an_integer_or_p_over_q(capsys, spelling, plain):
    """A coefficient is [+-]digits or [+-]digits/digits with a positive
    denominator, in ASCII digits, between optional blanks; any other chunk
    exits 2 with one error line that names it."""
    code, out = _run(capsys, "dp1", "rationality", f"--f4={spelling},0,-2,0,-2", "--f6=-1,0,-2,0,-2,0,2")
    if plain is None:
        lines = out.splitlines()
        assert code == 2 and len(lines) == 1
        error = json.loads(lines[0])
        assert list(error) == ["error"] and repr(spelling.strip()) in error["error"]
    else:
        plain_code, plain_out = _run(capsys, "dp1", "rationality", f"--f4={plain},0,-2,0,-2", "--f6=-1,0,-2,0,-2,0,2")
        assert (code, json.loads(out)["results"]) == (plain_code, json.loads(plain_out)["results"])


def test_graph_json_and_dot(capsys):
    code, out = _run(capsys, "graph", "--degree", "5", "--sigma", "fig_b")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["automorphism_order"] == 8
    code, out = _run(capsys, "graph", "--degree", "6", "--sigma", "split", "--dot")
    assert code == 0
    assert out.startswith("graph lines {")
    assert out.rstrip().endswith("}")


def test_dp4_rank_elements(capsys):
    payload = json.dumps(
        [
            {"sign": [0, 0, 0, 0, 0], "perm": [1, 2, 3, 4, 5]},
            {"sign": [1, 0, 1, 1, 1], "perm": [1, 2, 3, 4, 5]},
        ]
    )
    code, out = _run(capsys, "dp4", "--form", "q31-0-2", "--rank-elements", payload)
    assert code == 0
    data = json.loads(out)
    assert data["results"]["strongly_minimal"] is True


def test_dp4_rank_elements_not_closed_names_the_elements_as_the_cli_reads_them(capsys):
    # g has order 4, so {1, g} lacks g * g; perm [1, 3, 2, 5, 4] is 0-based (0, 2, 1, 4, 3)
    g = {"sign": [1, 0, 1, 1, 1], "perm": [1, 3, 2, 5, 4]}
    payload = json.dumps([{"sign": [0, 0, 0, 0, 0], "perm": [1, 2, 3, 4, 5]}, g])
    code, out = _run(capsys, "dp4", "--form", "q31-0-2", "--rank-elements", payload)
    lines = out.splitlines()
    assert code == 2 and len(lines) == 1
    error = json.loads(lines[0])["error"]
    factors = error.removeprefix("set is not closed: ").removesuffix(" missing").split(" * ")
    assert [json.loads(f) for f in factors] == [g, g]


def test_table_driver(capsys):
    code, out = _run(capsys, "table", "--id", "5")
    assert code == 0
    data = json.loads(out)
    assert all(c["pass"] for c in data["checks"])
    assert all("source" in c for c in data["checks"])
    code, out = _run(capsys, "table", "--id", "4")
    assert code == 0
    data = json.loads(out)
    assert all(c["pass"] for c in data["checks"])
    assert data["results"]["characteristics"]["A_1^2'"] == [2, 2, 1]
    for table_id in ("0", "8", "9"):
        code, out = _run(capsys, "table", "--id", table_id)
        assert code == 2
        assert json.loads(out) == {"error": f"unsupported table id {table_id}"}


def test_minimal_subcommand(capsys):
    from delpezzo.picard import PicardLattice
    from delpezzo.weyl import minus_on_kperp

    geiser = minus_on_kperp(PicardLattice(2)).matrix
    payload = json.dumps([[list(row) for row in geiser]])
    code, out = _run(capsys, "minimal", "--degree", "2", "--generators", payload, "--sigma", "0")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["rank"] == 1
    assert data["results"]["strongly_minimal"] is True
    assert data["results"]["contractible_set"] is None


def test_minimal_rejects_a_sigma_out_of_range(capsys):
    from delpezzo.picard import PicardLattice
    from delpezzo.weyl import minus_on_kperp

    payload = json.dumps([[list(row) for row in minus_on_kperp(PicardLattice(2)).matrix]])
    for sigma in ("1", "3", "-1"):
        code, out = _run(capsys, "minimal", "--degree", "2", "--generators", payload, "--sigma", sigma)
        assert code == 2
        assert "--sigma" in json.loads(out)["error"]


def test_non_integer_matrix_entries_exit_2(capsys):
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    for bad in (1.9, "1"):
        mat = [row[:] for row in eye]
        mat[0][0] = bad
        code, out = _run(capsys, "minimal", "--degree", "6", "--generators", json.dumps([mat]))
        assert code == 2
        assert "integers" in json.loads(out)["error"]
    star = [[float(i == j) for j in range(9)] for i in range(9)]
    code, out = _run(capsys, "dp1", "star", "--generator", json.dumps(star))
    assert code == 2
    assert "integers" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["minimal", "--degree", "3", "--generators", "5"],
        ["classify-involution", "--degree", "3", "--roots", "7"],
        ["minimal", "--degree", "3", "--generators", "nosuchfile"],
        ["dp4", "--form", "q31-0-2", "--rank-elements", '[{"sign": [0, 0, 0, 0, 0]}]'],
        ["invariants", "--group", "z0", "--degree", "2"],
        ["invariants", "--group", "d0", "--degree", "2"],
        ["dp1", "rationality", "--f4=1/0,0,0,0,1", "--f6=1,0,0,0,0,0,1"],
    ],
    ids=["generators-not-a-list", "roots-not-a-list", "no-such-file", "element-without-perm", "z0", "d0",
         "zero-denominator"],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


def test_malformed_json_entries_exit_2_with_one_error_line(capsys):
    """Seeded: 120 argvs, each a valid JSON argument with one entry replaced
    by a bad one (a float, a numeric string, null, a bool, a dict, a list one
    level too deep or too shallow, a wrong length, a sign bit of 2 or -1, a
    repeated or out-of-range perm entry).  None may crash the CLI or be read
    as some other value."""
    options = record_reports.json_options()
    for argv, value in options.values():
        assert _run(capsys, *argv, json.dumps(value))[0] == 0, argv
    rng = random.Random(22)
    argvs = []
    while len(argvs) < 120:
        argv, value = options[rng.choice(sorted(options))]
        kind = rng.choice(sorted(record_reports.MALFORMED))
        paths = record_reports.malformed_paths(value, kind)
        if paths:
            argvs.append([*argv, json.dumps(record_reports.malformed(value, kind, rng.choice(paths)))])
    for argv in argvs:
        code, out = _run(capsys, *argv)
        lines = out.splitlines()
        assert code == 2 and len(lines) == 1 and list(json.loads(lines[0])) == ["error"], argv


def test_dp4_split_enumeration_is_refused_at_once(capsys, monkeypatch):
    from delpezzo import dp4

    def search(elements):
        raise AssertionError(f"searched the subgroups of {len(elements)} elements")

    monkeypatch.setattr(dp4, "all_subgroups", search)
    code, out = _run(capsys, "dp4", "--form", "split", "--enumerate-minimal")
    assert code == 2
    assert "1920" in json.loads(out)["error"]


def test_dp1_rationality_classifies_once(capsys, monkeypatch):
    from delpezzo import dp1

    calls = {"classify_fibers": 0, "discriminant": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    classify = counted("classify_fibers", dp1.classify_fibers)
    monkeypatch.setattr(dp1, "classify_fibers", classify)
    monkeypatch.setattr(dp1, "discriminant", counted("discriminant", dp1.discriminant))
    for f4, f6, euler in (("-1,-1,-3,3,3", "0,-1,0,-3,-1,0,0", 0), ("-2,0,-2,0,-2", "-1,0,-2,0,-2,0,2", -2)):
        calls.update(classify_fibers=0, discriminant=0)
        code, out = _run(capsys, "dp1", "rationality", f"--f4={f4}", f"--f6={f6}")
        assert code == 0
        assert calls == {"classify_fibers": 1, "discriminant": 1}
        results = json.loads(out)["results"]
        kinds = [f["kind"] for f in results["fibers"]]
        assert results["euler"] == kinds.count("acnode") - kinds.count("crunode") == euler


# prints the process's VmHWM in kB.  ru_maxrss would not do: Linux carries
# the spawning process's high-water mark across vfork/exec, so it reads the
# size of the test process.
_PRINT_VMHWM = (
    "for line in open('/proc/self/status'):\n"
    "    if line.startswith('VmHWM:'):\n"
    "        print(int(line.split()[1]))\n"
)


def _peak_mb(body: str) -> float:
    """VmHWM of a fresh interpreter after it runs body."""
    return int(_child(body + _PRINT_VMHWM).split()[-1]) / 1024


def _child(body: str) -> str:
    """stdout of a fresh interpreter that imports delpezzo from this tree."""
    src = str(Path(delpezzo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", body], env=env, capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
def test_table_1_peak_rss():
    """Table 1 needs only the orders of four Weyl groups, up to W(E6) with
    51840 elements; a fresh process computing them peaks below 25 MB, and
    less than 25 MB above a process that only imports the modules table 1
    loads."""
    table = _peak_mb(
        "import contextlib, io\n"
        "from delpezzo import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['table', '--id', '1']) == 0\n"
    )
    bare = _peak_mb("import delpezzo.cli, delpezzo.weyl\n")
    assert table < 25
    assert table - bare < 25, (table, bare)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
def test_table_7_peak_rss():
    """Table 7 scans the frames of E8 for k = 0..8, up to 122850 of them at
    k = 4; a fresh process doing so peaks less than 11 MB above a process
    that only imports the modules table 7 loads."""
    table = _peak_mb(
        "import contextlib, io\n"
        "from delpezzo import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['table', '--id', '7']) == 0\n"
    )
    bare = _peak_mb("import delpezzo.cli, delpezzo.weyl, delpezzo._kernels\n")
    assert table - bare < 11, (table, bare)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
def test_cyclotomic_reduction_keeps_no_table_of_powers():
    """zeta_4000^3999, embedded in Q(zeta_8000) and conjugated there, is
    reduced modulo Phi_n term by term: a fresh process doing so peaks less
    than 2 MB above one that only imports exactnum (a table of the powers of
    zeta_8000 would hold 8000 * 3200 ints)."""
    peak = _peak_mb(
        "from delpezzo.exactnum import CycloNum, conj\n"
        "x = CycloNum.zeta_power(4000, 3999).embed(8000)\n"
        "assert conj(x) * x == 1\n"
    )
    bare = _peak_mb("import delpezzo.exactnum\n")
    assert peak - bare < 2, (peak, bare)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
def test_minimal_closes_w_e8_under_a_cpu_limit():
    """minimal on the E8 simple reflections and the Bertini involution gives
    W(E8), of order 696729600, without listing an element: a fresh process
    that limits its own CPU time to 10 s (RLIMIT_CPU) exits 0 and peaks less
    than 2 MB above a process that only imports the modules it loads."""
    from delpezzo.picard import PicardLattice
    from delpezzo.weyl import minus_on_kperp

    bertini = minus_on_kperp(PicardLattice(1)).matrix
    gens = json.loads(record_reports._simple_reflections(1)) + [[list(row) for row in bertini]]
    out = _child(
        "import contextlib, io, json, resource\n"
        "resource.setrlimit(resource.RLIMIT_CPU, (10, 10))\n"
        "from delpezzo import cli\n"
        "report = io.StringIO()\n"
        "with contextlib.redirect_stdout(report):\n"
        f"    code = cli.main(['minimal', '--degree', '1', '--generators', {json.dumps(gens)!r}])\n"
        "print(code, json.loads(report.getvalue())['results']['group_order'])\n" + _PRINT_VMHWM
    ).split()
    code, order, peak = int(out[0]), int(out[1]), int(out[2]) / 1024
    bare = _peak_mb("import delpezzo.cli, delpezzo.minimality, delpezzo.weyl\n")
    assert (code, order) == (0, 696729600)
    assert peak - bare < 2, (peak, bare)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds the address space on Linux")
def test_every_frame_scan_runs_under_cpu_and_memory_limits():
    """No frame scan needs a bound: a fresh process that limits its own CPU
    time to 10 s (RLIMIT_CPU) and its address space to 256 MB (RLIMIT_AS)
    exits 0 on `frames` at k = r, the rank of the root system, on degrees
    1..7, and on E8 at k = 4, the largest level with 122850 frames; k = r + 1
    exits 2."""
    from delpezzo.picard import PicardLattice

    def frames(degree, k):
        out = _child(
            "import contextlib, io, json, resource\n"
            "resource.setrlimit(resource.RLIMIT_CPU, (10, 10))\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "from delpezzo import cli\n"
            "report = io.StringIO()\n"
            "with contextlib.redirect_stdout(report):\n"
            f"    code = cli.main(['frames', '--degree', '{degree}', '--k', '{k}'])\n"
            "print(code, json.loads(report.getvalue()).get('results', {}).get('frames_examined'))\n"
        ).split()
        return int(out[0]), out[1]

    assert frames(1, 4) == (0, "122850")
    for degree in range(1, 8):
        r = PicardLattice(degree).r
        assert frames(degree, r)[0] == 0, degree
        assert frames(degree, r + 1) == (2, "None"), degree


# a valid argv for every subcommand and both dp1 leaves
_VALID_ARGVS = [
    ["lattice", "--degree", "3", "--what", "lines"],
    ["frames", "--degree", "2", "--k", "3"],
    ["classify-involution", "--degree", "2", "--roots", "[[0,1,-1,0,0,0,0,0]]"],
    ["minimal", "--degree", "2", "--generators", "gens.json", "--sigma", "0"],
    ["graph", "--degree", "6", "--sigma", "fig_c", "--dot"],
    ["dp4", "--form", "q31-0-2", "--enumerate-minimal"],
    ["cubic", "--model", "clebsch", "--twist", "t12", "--count-real-lines"],
    ["dp2-example", "--orbits", "--w-sign", "-1"],
    ["invariants", "--group", "d4", "--degree", "6"],
    ["dp1", "rationality", "--f4=-2,0,-2,0,-2", "--f6=-1,0,-2,0,-2,0,2"],
    ["dp1", "star", "--reference"],
    ["dp1", "star"],
    ["table", "--id", "7"],
]

# no argv, help, unknown and misspelled commands, missing, bad and extra
# arguments, and subcommand help
_BAD_ARGVS = [
    [],
    ["-h"],
    ["nosuch"],
    ["tabel", "--id", "1"],
    ["dp-1", "star"],
    ["table"],
    ["table", "--id", "x"],
    ["table", "--id", "1", "--extra"],
    ["frames", "--degree", "3"],
    ["frames", "--degree", "1", "--k", "4", "--budget", "1"],
    ["graph", "--degree", "4", "--sigma", "fig_a"],
    ["dp1"],
    ["dp1", "-h"],
    ["dp1", "stra"],
    ["dp1", "nosuch", "--f4", "1"],
    ["dp1", "rationality", "--f4", "1"],
    ["dp1", "rationality", "-h"],
    ["lattice", "--degree", "3", "--what", "points"],
    ["cubic", "--model", "fermat", "extra"],
    ["dp2-example", "--w-sign", "2"],
    ["table", "-h"],
    ["dp1", "star", "-h"],
]


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def _dp1_leaves(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return _subcommands(action.choices["dp1"])


def test_one_subcommand_parser_parses_like_the_full_tree():
    assert _subcommands(cli._argparse_parser()) == list(cli._SUBCOMMANDS)
    assert {argv[0] for argv in _VALID_ARGVS} == set(cli._SUBCOMMANDS)
    for argv in _VALID_ARGVS:
        parser = cli._argparse_parser(argv)
        assert _subcommands(parser) == [argv[0]]
        assert vars(parser.parse_args(argv)) == vars(cli._argparse_parser().parse_args(argv)), argv
        if argv[0] == "dp1":
            assert _dp1_leaves(parser) == [argv[1]]


def _parse_exit(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_one_subcommand_parser_fails_like_the_full_tree(capsys):
    for argv in _BAD_ARGVS:
        one = _parse_exit(capsys, cli._argparse_parser(argv), argv)
        assert one == _parse_exit(capsys, cli._argparse_parser(), argv), argv
        assert one[0] == (0 if "-h" in argv else 2) and (one[1] or one[2]), argv
        code, _ = _run(capsys, *argv)
        assert code == one[0], argv
        if argv[:1] == ["dp1"]:
            # the leaf argv names, else every leaf
            named = [a for a in argv[1:2] if a in ("rationality", "star")]
            assert _dp1_leaves(cli._argparse_parser(argv)) == (named or ["rationality", "star"]), argv
    assert _parse_exit(capsys, cli._argparse_parser(), [])[2].endswith("required: command\n")


# (argv, whether the reader reads it): spellings next to a well-formed argv.
# argparse reads the declined ones too, or refuses them, or answers with help
_NEAR_MISSES = [
    (["lattice", "--deg", "3", "--what", "lines"], False),
    (["frames", "--degree", "3", "--k=٣"], False),
    (["table", "--id", "+1"], False),
    (["table", "--id", " 1"], False),
    (["table", "--id", "1_0"], False),
    (["table", "--id", "1" * 5000], False),
    (["table", "--id", "1", "--id", "2"], True),
    (["dp2-example", "--w-sign", "-1"], False),
    (["dp1", "rationality", "--f4", "-1,0,0,0,1", "--f6", "1,0,0,0,0,0,1"], False),
    (["graph", "--degree", "6", "--sigma", "fig_a", "--dot=1"], False),
    (["graph", "--degree", "6", "--sigma="], True),
    (["table", "--"], False),
    (["table", "--id", "1", "--"], False),
    (["table", "--id", "1", "-h"], False),
    (["dp1", "star", "--reference", "-h"], False),
]


def test_the_reader_parses_like_argparse_or_declines(capsys):
    """Every argv of the corpus, of the three workloads at seed 0, of the
    tables above and of the near misses gets argparse's namespace from the
    reader, or is declined; every argv argparse refuses or answers with help
    is declined, and build_parser then prints what argparse prints."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, pass_requests

    corpus = [e["argv"] for e in json.loads((Path(__file__).parent / "report_digests.json").read_text())]
    workloads = [argv for w in WORKLOADS for argv in pass_requests(w, 0, 0)]
    near = [argv for argv, _ in _NEAR_MISSES]
    for argv in corpus + _VALID_ARGVS + _BAD_ARGVS + workloads + near:
        try:
            want = vars(cli._argparse_parser(argv).parse_args(argv))
        except SystemExit:
            want = capsys.readouterr()
        read = cli._read(argv)
        if isinstance(want, dict):
            assert read is None or vars(read) == want, argv[:4]
            assert vars(build_parser(argv).parse_args(argv)) == want, argv[:4]
        else:
            assert read is None, argv[:4]
            assert _parse_exit(capsys, build_parser(argv), argv)[1:] == (want.out, want.err), argv[:4]
    assert [cli._read(argv) is not None for argv in near] == [accepted for _, accepted in _NEAR_MISSES]
    # the one workload request that argparse alone reads
    assert [argv for argv in workloads if cli._read(argv) is None] == [["dp2-example", "--orbits", "--w-sign", "-1"]]


# what a fresh process loads for each request of the `tables` workload,
# besides delpezzo and delpezzo.cli: package modules, and numpy, inspect,
# dataclasses, fractions, argparse and gettext when loaded (no request loads
# any of the first three or the last two, and only the requests that solve a
# linear system or read Fractions load fractions)
_SCAN = "_kernels colorgraph exactint picard tables weyl"
TABLE_REQUEST_MODULES = {
    "table --id 1": "colorgraph picard tables weyl",
    "table --id 2": "colorgraph confgraphs exactint fractions minimality picard tables weyl",
    "table --id 3": _SCAN,
    "table --id 4": _SCAN + " dp4",
    "table --id 5": "colorgraph exactint exactnum explicitlines fractions tables",
    "table --id 6": _SCAN,
    "table --id 7": _SCAN,
    "dp1 star --reference": "colorgraph dp1 exactint fractions picard realroots weyl",
    "dp4 --form q31-0-2 --enumerate-minimal": "dp4 picard",
    "dp4 --form p2-1-2 --enumerate-minimal": "dp4 picard",
    "graph --degree 6 --sigma fig_a": "colorgraph confgraphs exactint fractions picard weyl",
}


def test_subcommands_import_only_what_they_use():
    """The CLI starts without numpy; `lattice`, tables 1, 2 and 5, the dp4
    requests, `dp1 rationality`, `minimal`, `dp1 star`, `graph` and
    `classify-involution` run without it; `import delpezzo.cli` loads no
    argparse or gettext; a dp4 rank never loads the
    Weyl-group layer; tables 1 and 7, `frames` and `classify-involution`,
    which need only the Weyl-group layer and the frame scan, load neither
    the cyclotomic field, the Sturm module nor fractions; `invariants` loads
    no line geometry; and each `tables` request, in a fresh process, loads
    exactly its TABLE_REQUEST_MODULES."""
    from delpezzo.picard import PicardLattice
    from delpezzo.weyl import minus_on_kperp

    rank = json.dumps([{"sign": [0, 0, 0, 0, 0], "perm": [1, 2, 3, 4, 5]}])
    geiser = json.dumps([[list(row) for row in minus_on_kperp(PicardLattice(2)).matrix]])
    weyl_requests = [
        ["table", "--id", "1"],
        ["table", "--id", "2"],
        ["minimal", "--degree", "2", "--generators", geiser, "--sigma", "0"],
        ["dp1", "star", "--reference"],
        ["graph", "--degree", "6", "--sigma", "fig_a"],
        ["classify-involution", "--degree", "3", "--roots", "[[0,1,-1,0,0,0,0]]"],
    ]
    out = _child(
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m in ('numpy', 'argparse', 'gettext') or m.startswith('delpezzo'))\n"
        "import delpezzo.cli as cli\n"
        "seen = [loaded()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['lattice', '--degree', '3', '--what', 'lines'])]\n"
        "    seen.append(loaded())\n"
        "    codes.append(cli.main(['table', '--id', '5']))\n"
        "    seen.append(loaded())\n"
        f"    codes.append(cli.main(['dp4', '--form', 'q31-0-2', '--rank-elements', {rank!r}]))\n"
        "    seen.append(loaded())\n"
        "    codes.append(cli.main(['dp4', '--form', 'q31-0-2', '--enumerate-minimal']))\n"
        "    seen.append(loaded())\n"
        "    codes.append(cli.main(['dp1', 'rationality', '--f4=-2,0,-2,0,-2', '--f6=-1,0,-2,0,-2,0,2']))\n"
        "    seen.append(loaded())\n"
        f"    for argv in {weyl_requests!r}:\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps([codes, seen]))\n"
        "print(json.dumps(loaded()))\n"
    )
    first, last = out.splitlines()
    codes, (at_import, after_lattice, after_table, after_dp4, after_minimal, after_dp1) = json.loads(first)
    assert codes == [0] * (5 + len(weyl_requests))
    assert at_import == ["delpezzo", "delpezzo.cli"]
    assert "numpy" not in after_lattice and "delpezzo.picard" in after_lattice
    assert "numpy" not in after_table and "delpezzo.explicitlines" in after_table
    assert "delpezzo.weyl" not in after_dp4 and "delpezzo.dp4" in after_dp4
    assert "numpy" not in after_minimal
    assert "numpy" not in after_dp1 and "delpezzo.dp1" in after_dp1
    after_weyl = json.loads(last)
    assert "numpy" not in after_weyl and "delpezzo._kernels" not in after_weyl
    assert {"delpezzo.weyl", "delpezzo.minimality", "delpezzo.confgraphs"} <= set(after_weyl)
    lattice_requests = [
        ["table", "--id", "1"],
        ["table", "--id", "7"],
        ["frames", "--degree", "3", "--k", "2"],
        ["classify-involution", "--degree", "3", "--roots", "[[0,1,-1,0,0,0,0]]"],
    ]
    out = _child(
        "import contextlib, io, json, sys\n"
        "import delpezzo.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {lattice_requests!r}]\n"
        "    seen = [sorted(sys.modules)]\n"
        "    codes.append(cli.main(['invariants', '--group', 'z4', '--degree', '4']))\n"
        "print(json.dumps([codes, seen + [sorted(sys.modules)]]))\n"
    )
    codes, (after_tables, after_invariants) = json.loads(out)
    assert codes == [0] * (len(lattice_requests) + 1)
    assert not {"delpezzo.exactnum", "delpezzo.realroots", "fractions"} & set(after_tables)
    assert {"delpezzo.weyl", "delpezzo._kernels", "delpezzo.exactint"} <= set(after_tables)
    assert "delpezzo.explicitlines" not in after_invariants and "delpezzo.invforms" in after_invariants
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import TABLE_REQUESTS

    assert [" ".join(r) for r in TABLE_REQUESTS] == list(TABLE_REQUEST_MODULES)
    for request, modules in TABLE_REQUEST_MODULES.items():
        out = _child(
            "import contextlib, io, json, sys\n"
            "import delpezzo.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({request.split()!r})\n"
            "watched = ('numpy', 'inspect', 'dataclasses', 'fractions', 'argparse', 'gettext')\n"
            "print(json.dumps([code, [m for m in sys.modules if m.startswith('delpezzo.') or m in watched]]))\n"
        )
        code, loaded = json.loads(out)
        assert code == 0, request
        assert sorted(m.removeprefix("delpezzo.") for m in loaded) == sorted(["cli", *modules.split()]), request


def test_a_reader_that_closes_stdout_ends_the_output():
    """`delpezzo table --id 7 | head -c 10`: the reader is gone before the
    report is written, which ends the output but fails no check."""
    src = str(Path(delpezzo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "delpezzo", "table", "--id", "7"], env=env, stdout=write, stderr=subprocess.PIPE
        )
    finally:
        os.close(write)
        os.close(read)  # before the child has computed table 7
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (0, b"")
