"""Command-line front end, table-reproduction driver, and report output.

Every subcommand prints one deterministic JSON report (or DOT on request):
{schema_version, command, inputs, results, checks}; the process exits 0
when all embedded checks pass, 1 otherwise, and 2 on usage errors.

The subcommands are one declarative spec, `_SUBCOMMANDS`: name, help and
arguments (or nested leaves, for `dp1`); the handler of `a b` is `cmd_a_b`.
A well-formed argv is read straight from that spec (`_read`): exact
subcommand and flag names, `--flag value` or `--flag=value`, bare
`store_true` flags, ints in ASCII digits, choices, defaults and required
flags.  argparse is imported and built only for an argv the reader
declines, to print its help or refuse it with today's usage and error
text, and then for just the subcommand (and leaf) that argv names.  Each
handler imports the modules it uses when it runs, so `import delpezzo.cli`
loads no other package module, no `fractions` and no `argparse`.
`table --id N` runs `tables._TABLES[N]`, which lives beside the expected
values it checks.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

SCHEMA_VERSION = "1"


class UsageError(ValueError):
    pass


def _report(command, inputs, results, checks=()):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": list(checks),
    }


def _fingerprint_json(fp):
    out = {
        "trace_kperp": fp.trace_kperp,
        "charpoly_kperp": fp.charpoly_str(),
        "fixed_line_count": fp.fixed_line_count,
        "order": fp.order,
    }
    if fp.fixed_trio_count is not None:
        out["fixed_trio_count"] = fp.fixed_trio_count
    return out


def _parse_rational_list(text: str) -> list:
    """The comma-separated coefficients of text, as Fractions: each is an
    integer or p/q with q > 0, in ASCII digits, between optional blanks."""
    import re
    from fractions import Fraction

    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        m = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", chunk)
        q = int(m[2] or 1) if m else 0
        if not q:
            raise UsageError(f"coefficient {chunk!r} is not an integer or p/q with q > 0")
        out.append(Fraction(int(m[1]), q))
    return out


def _load_json_arg(text: str) -> list:
    """A JSON list given inline or as the path of a file holding it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"{text!r} is neither JSON nor a readable file ({exc.strerror})") from None
    if not isinstance(data, list):
        raise UsageError(f"expected a JSON list, got {json.dumps(data)}")
    return data


# ---------------------------------------------------------------------------
# subcommands


def cmd_lattice(args):
    from .picard import PicardLattice, enumerate_exceptional, enumerate_roots, tritangent_trios

    lat = PicardLattice(args.degree)
    if args.what == "roots":
        data = [list(c.coords) for c in enumerate_roots(lat)]
    elif args.what == "lines":
        data = [list(c.coords) for c in enumerate_exceptional(lat)]
    else:
        data = [sorted(list(c.coords) for c in t) for t in tritangent_trios(lat)]
    return _report(
        "lattice",
        {"degree": args.degree, "what": args.what},
        {"count": len(data), "classes": data},
    )


def cmd_frames(args):
    from .picard import PicardLattice
    from .weyl import involution_frames

    lat = PicardLattice(args.degree)
    scan = involution_frames(lat, args.k)
    return _report(
        "frames",
        {"degree": args.degree, "k": args.k},
        {
            "fingerprints": [_fingerprint_json(fp) for fp in scan.fingerprints],
            "frames_examined": scan.frames_examined,
        },
    )


def cmd_classify_involution(args):
    from .picard import LatticeClass, PicardLattice
    from .weyl import classify_named, fingerprint, reflection

    lat = PicardLattice(args.degree)
    roots = _load_json_arg(args.roots)
    iso = None
    for coords in roots:
        refl = reflection(lat, LatticeClass(coords))
        iso = refl if iso is None else iso * refl
    if iso is None:
        raise UsageError("need at least one root")
    fp = fingerprint(lat, iso)
    return _report(
        "classify-involution",
        {"degree": args.degree, "roots": roots},
        {"fingerprint": _fingerprint_json(fp), "label": classify_named(lat, iso)},
    )


def cmd_minimal(args):
    from .minimality import find_contractible_set, invariant_rank
    from .picard import PicardLattice
    from .weyl import Isometry, close_group

    lat = PicardLattice(args.degree)
    mats = _load_json_arg(args.generators)
    gens = [Isometry(lat, m) for m in mats]
    if args.sigma is not None and not 0 <= args.sigma < len(gens):
        raise UsageError(f"--sigma must index one of the {len(gens)} generators, got {args.sigma}")
    group = close_group(lat, gens)
    if args.sigma is not None and not (gens[args.sigma] * gens[args.sigma]).is_identity():
        raise UsageError("sigma must have order at most 2")
    rank = invariant_rank(group)
    cset = find_contractible_set(group)
    results = {
        "group_order": group.order,
        "rank": rank,
        "strongly_minimal": rank == 1,
        "contractible_set": None if cset is None else [list(c.coords) for c in cset],
    }
    return _report(
        "minimal",
        {"degree": args.degree, "generators": mats, "sigma": args.sigma},
        results,
    )


def cmd_graph(args):
    from .confgraphs import (
        build_graph,
        colored_automorphisms,
        dp5_sigma_isometry,
        hexagon_minimal_subgroups,
        hexagon_sigma_isometry,
    )
    from .picard import PicardLattice

    lat = PicardLattice(args.degree)
    # an unknown pattern raises ValueError, which exits 2
    sigma = (hexagon_sigma_isometry if args.degree == 6 else dp5_sigma_isometry)(lat, args.sigma)
    graph = build_graph(lat, sigma)
    aut = colored_automorphisms(graph)
    if args.dot:
        return _graph_dot(graph)
    results = {
        "vertices": [list(v.coords) for v in graph.vertices],
        "adjacency": [list(row) for row in graph.adjacency],
        "blocks": [list(b) for b in graph.blocks],
        "real_flags": list(graph.real_flags),
        "automorphism_order": aut.order,
    }
    if args.degree == 6:
        results["minimal_subgroups"] = hexagon_minimal_subgroups(args.sigma)
    return _report("graph", {"degree": args.degree, "sigma": args.sigma}, results)


def _graph_dot(graph) -> str:
    palette = [
        "red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta",
        "gold", "gray",
    ]
    block_of = graph.block_of()
    lines = ["graph lines {"]
    for i, v in enumerate(graph.vertices):
        b = block_of[i]
        shape = "doublecircle" if graph.real_flags[b] else "circle"
        color = palette[b % len(palette)]
        label = ",".join(str(c) for c in v.coords)
        lines.append(f'  v{i} [label="{label}", color={color}, shape={shape}];')
    n = len(graph.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if graph.adjacency[i][j]:
                lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines)


def cmd_dp4(args):
    from .dp4 import (
        DP4Element,
        PencilSpec,
        ambient_group,
        dp4_invariant_rank,
        enumerate_strongly_minimal,
        get_form,
        wall_characteristic,
    )

    form = get_form(args.form) if args.form else None
    if args.characteristic:
        pairs = _load_json_arg(args.characteristic)
        xi = wall_characteristic(PencilSpec(pairs))
        return _report(
            "dp4",
            {"characteristic": pairs},
            {"characteristic": list(xi), "genus": (len(xi) - 1) // 2},
        )
    if form is None:
        raise UsageError("dp4 needs --form (or --characteristic)")
    if args.enumerate_minimal:
        reports = enumerate_strongly_minimal(form)
        results = {
            "form": form.label,
            "ambient_order": len(ambient_group(form)),
            "classes": [
                {
                    "order": r.order,
                    "isomorphism_type": r.label,
                    "elements": [g.to_json() for g in r.elements],
                }
                for r in reports
            ],
        }
        return _report("dp4", {"form": form.label, "enumerate_minimal": True}, results)
    if args.rank_elements:
        raw = _load_json_arg(args.rank_elements)
        if not all(isinstance(e, dict) and "sign" in e and "perm" in e for e in raw):
            raise UsageError("every --rank-elements entry needs a sign and a perm")
        subgroup = {DP4Element.from_json(e) for e in raw}
        rank = dp4_invariant_rank(subgroup, form)
        return _report(
            "dp4",
            {"form": form.label, "rank_elements": raw},
            {"rank": str(rank), "strongly_minimal": rank == 1},
        )
    raise UsageError("dp4 needs one of --enumerate-minimal, --characteristic, --rank-elements")


def cmd_cubic(args):
    from .explicitlines import (
        clebsch_lines,
        clebsch_twist,
        count_real_lines,
        count_real_tritangents,
        fermat_lines,
        fermat_twist,
    )
    from .tables import CLEBSCH_REAL_LINES, FERMAT_REAL_LINES, _check

    lines = fermat_lines() if args.model == "fermat" else clebsch_lines()
    twist = fermat_twist(args.twist) if args.model == "fermat" else clebsch_twist(args.twist)
    results = {"model": args.model, "twist": args.twist}
    checks = []
    if args.count_real_lines:
        count = count_real_lines(lines, twist)
        results["real_lines"] = count
        expected = (FERMAT_REAL_LINES if args.model == "fermat" else CLEBSCH_REAL_LINES)[args.twist]
        checks.append(_check("real_lines", expected["value"], count, expected["source"]))
    if args.count_real_tritangents:
        results["real_tritangents"] = count_real_tritangents(lines, twist)
    return _report("cubic", {"model": args.model, "twist": args.twist}, results, checks)


def cmd_dp2_example(args):
    from .explicitlines import dp2_orbit_report
    from .tables import _check

    rep = dp2_orbit_report(args.w_sign)
    results = {
        "w_sign": rep["w_sign"],
        "orbit_count": len(rep["orbits"]),
        "orbits": rep["orbits"],
        "disjoint_real_orbits": rep["disjoint_real_orbits"],
    }
    checks = [
        _check("no_disjoint_real_orbits", 0, len(rep["disjoint_real_orbits"]), "section:8:example")
    ]
    return _report("dp2-example", {"w_sign": args.w_sign}, results, checks)


def cmd_invariants(args):
    from .invforms import group_from_label, invariant_subspace

    group = group_from_label(args.group)
    basis = invariant_subspace(group, args.degree)
    return _report(
        "invariants",
        {"group": args.group, "degree": args.degree},
        {
            "dimension": len(basis),
            "basis": [[str(c) for c in b.rational_coeffs()] for b in basis],
        },
    )


def cmd_dp1_rationality(args):
    from .dp1 import DP1Surface, _euler_verdict, classify_fibers
    from .invforms import BinaryForm

    f4 = BinaryForm.from_rational(_parse_rational_list(args.f4))
    f6 = BinaryForm.from_rational(_parse_rational_list(args.f6))
    surf = DP1Surface(f4, f6)
    reports = classify_fibers(surf)
    euler, verdict = _euler_verdict(reports)
    return _report(
        "dp1 rationality",
        {"f4": args.f4, "f6": args.f6},
        {
            "fibers": [
                {
                    "location": r.location
                    if isinstance(r.location, str)
                    else [str(r.location[0]), str(r.location[1])],
                    "kind": r.kind,
                }
                for r in reports
            ],
            "euler": euler,
            "verdict": verdict,
        },
    )


def cmd_dp1_star(args):
    from .dp1 import a22_element, find_star_configurations
    from .picard import PicardLattice
    from .weyl import Isometry

    lat = PicardLattice(1)
    if args.generator:
        mats = _load_json_arg(args.generator)
        gen = Isometry(lat, mats)
    else:
        gen = a22_element(lat)
    stars = find_star_configurations(gen)
    return _report(
        "dp1 star",
        {"generator": "reference" if not args.generator else args.generator},
        {
            "configurations": [
                {
                    "pointwise_fixed": s.pointwise_fixed,
                    "classes": [list(c.coords) for c in s.classes],
                }
                for s in stars
            ]
        },
    )


# ---------------------------------------------------------------------------
# table reproductions


def reproduce_table(table_id: int):
    from .tables import _TABLES

    table = _TABLES.get(table_id)
    if table is None:
        raise UsageError(f"unsupported table id {table_id}")
    results, checks = table()
    return _report("table", {"id": table_id}, results, checks)


def cmd_table(args):
    return reproduce_table(args.id)


# ---------------------------------------------------------------------------
# parser

_DEGREE = ("--degree", {"type": int, "required": True})

# name -> (help, arguments or nested subcommands).  The handler of
# `a b` is `cmd_a_b`, looked up when the parser is built.
_SUBCOMMANDS = {
    "lattice": ("enumerate roots, lines, or tritangent trios", [
        _DEGREE,
        ("--what", {"choices": ("roots", "lines", "trios"), "required": True}),
    ]),
    "frames": ("fingerprints of orthogonal reflection frames", [
        _DEGREE,
        ("--k", {"type": int, "required": True}),
    ]),
    "classify-involution": ("fingerprint a product of root reflections", [
        _DEGREE,
        ("--roots", {"required": True, "help": "JSON list of root coordinate vectors (or a file)"}),
    ]),
    "minimal": ("invariant rank and contraction search", [
        _DEGREE,
        ("--generators", {"required": True, "help": "JSON list of integer matrices (or a file)"}),
        ("--sigma", {"type": int, "help": "index of the real structure among the generators"}),
    ]),
    "graph": ("colored incidence graph (degrees 5 and 6)", [
        ("--degree", {"type": int, "choices": (5, 6), "required": True}),
        ("--sigma", {"required": True}),
        ("--dot", {"action": "store_true"}),
    ]),
    "dp4": ("degree-4 real forms and pencil characteristics", [
        ("--form", {}),
        ("--enumerate-minimal", {"action": "store_true"}),
        ("--characteristic", {"help": "JSON [[a,b],...] of integer pairs"}),
        ("--rank-elements", {"help": "JSON [{sign, perm}] subgroup"}),
    ]),
    "cubic": ("real lines/tritangents on Fermat and Clebsch cubics", [
        ("--model", {"choices": ("fermat", "clebsch"), "required": True}),
        ("--twist", {"choices": ("id", "t12", "t1234"), "default": "id"}),
        ("--count-real-lines", {"action": "store_true"}),
        ("--count-real-tritangents", {"action": "store_true"}),
    ]),
    "dp2-example": ("orbits of the order-4 action on the 56 lines", [
        ("--orbits", {"action": "store_true"}),
        ("--w-sign", {"type": int, "choices": (1, -1), "default": 1}),
    ]),
    "invariants": ("invariant binary forms of 2D point groups", [
        ("--group", {"required": True}),
        _DEGREE,
    ]),
    "dp1": ("degree-1 fibers/rationality and star configurations", {
        "rationality": (None, [
            ("--f4", {"required": True, "help": "five comma-separated rational coefficients"}),
            ("--f6", {"required": True, "help": "seven comma-separated rational coefficients"}),
        ]),
        "star": (None, [
            ("--generator", {"help": "JSON 9x9 integer matrix (or a file)"}),
            ("--reference", {"action": "store_true"}),
        ]),
    }),
    "table": ("reproduce a published table", [
        ("--id", {"type": int, "required": True}),
    ]),
}


def build_parser(argv=None) -> _Parser:
    """The parser for argv: a well-formed argv is read without argparse."""
    return _Parser(list(argv or ()))


class _Parser:
    """`parse_args` gives the namespace `_read` reads from argv; an argv it
    declines goes to the argparse tree of the argv build_parser was given."""

    __slots__ = ("argv",)

    def __init__(self, argv):
        self.argv = argv

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _read(argv)
        return _argparse_parser(self.argv).parse_args(argv) if args is None else args


def _read(argv):
    """argparse's namespace for a well-formed argv, read from _SUBCOMMANDS,
    or None for any other argv.

    Well-formed: the subcommand and, under `dp1`, the leaf; then flags by
    their exact names, each as `--flag value` or `--flag=value`, or bare for
    a store_true flag; ints in ASCII digits; values among their choices; and
    every required flag.  Everything else is declined: -h, --, prefixes of
    flag names, positionals, `=` on a store_true flag, and a separate value
    that starts with `-`, which argparse takes as an option unless it reads
    as a negative number.  argparse refuses these, answers them with help,
    or reads them its own way (a prefix, `int(" 1")`), which the reader does
    not copy.
    """
    args = {}
    spec, path = _SUBCOMMANDS, ()
    while isinstance(spec, dict):
        if not argv or argv[0] not in spec:
            return None
        args["_".join(path + ("command",))] = argv[0]
        path += (argv[0],)
        spec, argv = spec[argv[0]][1], argv[1:]
    flags = dict(spec)
    for flag, kwargs in spec:
        args[flag[2:].replace("-", "_")] = kwargs.get("default", False if "action" in kwargs else None)
    given = set()
    words = iter(argv)
    for word in words:
        flag, eq, value = word.partition("=")
        kwargs = flags.get(flag)
        if kwargs is None:
            return None
        if "action" in kwargs:  # store_true
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(words, "-")  # a missing value declines like an option
                if value.startswith("-"):
                    return None
            if "type" in kwargs:  # int
                if not (value.isascii() and value.isdigit()):
                    return None
                try:
                    value = int(value)
                except ValueError:  # more digits than int() reads
                    return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        args[flag[2:].replace("-", "_")] = value
        given.add(flag)
    if any(kwargs.get("required") and flag not in given for flag, kwargs in spec):
        return None
    args["func"] = globals()["_".join(("cmd",) + path).replace("-", "_")]
    return SimpleNamespace(**args)


def _argparse_parser(argv=()):
    """The argparse parser for argv.

    When argv names a subcommand (and, under `dp1`, a leaf), only that one
    is built: building all of them costs about as much as a typical
    in-process request.
    Anything else (no argv, -h, an unknown name) gets the full tree at that
    level, whose usage and error messages list every choice.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Exact lattice/group/coordinate computations for real del Pezzo surfaces",
    )
    _add_subcommands(parser, _SUBCOMMANDS, list(argv), ())
    return parser


def _add_subcommands(parser, spec, argv, path):
    """Add spec's subcommands below parser: only the one argv[0] names, if any."""
    options = {"dest": "_".join(path + ("command",)), "required": True}
    names = list(spec)
    if argv and argv[0] in spec:
        names = [argv[0]]
        # the full tree's usage line.  Not set on the full tree itself: with
        # no choice given, its error names the argument by its dest.
        options["metavar"] = "{%s}" % ",".join(spec)
    sub = parser.add_subparsers(**options)
    for name in names:
        help_text, body = spec[name]
        p = sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
        if isinstance(body, dict):
            _add_subcommands(p, body, argv[1:], path + (name,))
            continue
        for flag, kwargs in body:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=globals()["_".join(("cmd",) + path + (name,)).replace("-", "_")])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out = args.func(args)
    except ValueError as exc:  # UsageError and UnsupportedDegree included
        return _emit(json.dumps({"error": str(exc)}, sort_keys=True), 2)
    if isinstance(out, str):  # DOT
        return _emit(out, 0)
    return _emit(json.dumps(out, indent=2, sort_keys=True, default=str), 0 if all(c["pass"] for c in out["checks"]) else 1)


def _emit(text: str, code: int) -> int:
    """Print the report and return its exit code.

    A reader that closes stdout early (`| head`) ends the output; it is not
    a failed check.  stdout then points at os.devnull, so the interpreter's
    flush at exit cannot fail and turn the code into 120.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
