"""Command-line front end, table-reproduction driver, and report output.

Every subcommand prints one deterministic JSON report (or DOT on request):
{schema_version, command, inputs, results, checks}; the process exits 0
when all embedded checks pass, 1 otherwise, and 2 on usage errors.

A request pays only for its subcommand: `build_parser` adds just the
subcommand that argv names, and each handler imports the modules it uses
when it runs, so `import delpezzo.cli` loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import tables

SCHEMA_VERSION = "1"


class UsageError(ValueError):
    pass


def _check(name, expected, actual, source=None):
    entry = {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}
    if source:
        entry["source"] = source
    return entry


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


def _parse_rational_list(text: str) -> list[Fraction]:
    from .exactnum import parse_scalar

    out = []
    for chunk in text.split(","):
        val = parse_scalar(chunk.strip())
        if not val.is_rational():
            raise UsageError(f"coefficient {chunk.strip()!r} is not rational")
        out.append(val.as_rational())
    return out


def _load_json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)


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
    scan = involution_frames(lat, args.k, budget=args.budget)
    return _report(
        "frames",
        {"degree": args.degree, "k": args.k, "budget": args.budget},
        {
            "fingerprints": [_fingerprint_json(fp) for fp in scan.fingerprints],
            "frames_examined": scan.frames_examined,
            "exhausted": scan.exhausted,
        },
    )


def cmd_classify_involution(args):
    from .picard import LatticeClass, PicardLattice
    from .weyl import classify_named, fingerprint, reflection

    lat = PicardLattice(args.degree)
    roots = _load_json_arg(args.roots)
    iso = None
    for coords in roots:
        refl = reflection(lat, LatticeClass(tuple(coords)))
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
    import numpy as np

    from .minimality import ActionContext, find_contractible_set, invariant_rank, is_strongly_minimal
    from .picard import PicardLattice
    from .weyl import Isometry, close_group

    lat = PicardLattice(args.degree)
    mats = _load_json_arg(args.generators)
    gens = [Isometry(lat, np.array(m, dtype=np.int64)) for m in mats]
    sigma = gens[args.sigma] if args.sigma is not None else None
    group = close_group(lat, gens, cap=args.cap)
    ctx = ActionContext(lat, group, sigma=sigma)
    cset = find_contractible_set(ctx)
    results = {
        "group_order": group.order,
        "rank": invariant_rank(ctx),
        "strongly_minimal": is_strongly_minimal(ctx),
        "contractible_set": None if cset is None else [list(c.coords) for c in cset],
    }
    return _report(
        "minimal",
        {"degree": args.degree, "generators": mats, "sigma": args.sigma},
        results,
    )


def cmd_graph(args):
    from .confgraphs import (
        DP5_PATTERNS,
        SIGMA_PATTERNS,
        build_graph,
        colored_automorphisms,
        dp5_sigma_isometry,
        hexagon_minimal_subgroups,
        hexagon_sigma_isometry,
    )
    from .picard import PicardLattice

    lat = PicardLattice(args.degree)
    if args.degree == 6:
        if args.sigma not in SIGMA_PATTERNS:
            raise UsageError(f"degree 6 sigma pattern must be one of {SIGMA_PATTERNS}")
        sigma = hexagon_sigma_isometry(lat, args.sigma)
    else:
        if args.sigma not in DP5_PATTERNS:
            raise UsageError(f"degree 5 sigma pattern must be one of {DP5_PATTERNS}")
        sigma = dp5_sigma_isometry(lat, args.sigma)
    graph = build_graph(lat, sigma)
    aut = colored_automorphisms(graph)
    if args.dot:
        return None, _graph_dot(graph)
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
        spec = PencilSpec(tuple((Fraction(str(a)), Fraction(str(b))) for a, b in pairs))
        xi = wall_characteristic(spec)
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
                    "elements": [
                        {"sign": list(g.sign), "perm": [p + 1 for p in g.perm]}
                        for g in r.elements
                    ],
                }
                for r in reports
            ],
        }
        return _report("dp4", {"form": form.label, "enumerate_minimal": True}, results)
    if args.rank_elements:
        raw = _load_json_arg(args.rank_elements)
        subgroup = {DP4Element(tuple(e["sign"]), tuple(p - 1 for p in e["perm"])) for e in raw}
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

    lines = fermat_lines() if args.model == "fermat" else clebsch_lines()
    twist = fermat_twist(args.twist) if args.model == "fermat" else clebsch_twist(args.twist)
    results = {"model": args.model, "twist": args.twist}
    checks = []
    if args.count_real_lines:
        count = count_real_lines(lines, twist)
        results["real_lines"] = count
        expected = (
            tables.FERMAT_REAL_LINES if args.model == "fermat" else tables.CLEBSCH_REAL_LINES
        )[args.twist]
        checks.append(_check("real_lines", expected["value"], count, expected["source"]))
    if args.count_real_tritangents:
        results["real_tritangents"] = count_real_tritangents(lines, twist)
    return _report("cubic", {"model": args.model, "twist": args.twist}, results, checks)


def cmd_dp2_example(args):
    from .explicitlines import dp2_orbit_report

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
    import numpy as np

    from .dp1 import a22_element, find_star_configurations
    from .picard import PicardLattice
    from .weyl import Isometry

    lat = PicardLattice(1)
    if args.generator:
        mats = _load_json_arg(args.generator)
        gen = Isometry(lat, np.array(mats, dtype=np.int64))
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
    partial = []  # k of every frame scan that stopped at its budget

    def scan_frames(lat, k):
        from .weyl import involution_frames

        scan = involution_frames(lat, k)
        if not scan.exhausted:
            partial.append(k)
        return scan

    report = _table_report(table_id, scan_frames)
    report["checks"] += [_check(f"scan_exhausted_k{k}", True, False) for k in partial]
    return report


def _table_report(table_id: int, scan_frames):
    if table_id == 1:
        from .weyl import full_weyl_group

        checks = []
        for degree, row in sorted(tables.WEYL_ORDERS.items(), reverse=True):
            order = full_weyl_group(degree).order
            checks.append(_check(f"weyl_order_degree_{degree}", row["value"], order, row["source"]))
        return _report("table", {"id": 1}, {"orders": {d: full_weyl_group(d).order for d in (6, 5, 4, 3)}}, checks)
    if table_id == 2:
        from .confgraphs import build_graph, hexagon_minimal_subgroups, hexagon_sigma_isometry
        from .minimality import ActionContext, invariant_rank
        from .picard import PicardLattice
        from .weyl import close_group

        lat = PicardLattice(6)
        checks = []
        results = {}
        for pattern, row in tables.HEXAGON_FORMS.items():
            sigma = hexagon_sigma_isometry(lat, pattern)
            graph = build_graph(lat, sigma)
            reals = sum(1 for f in graph.real_flags if f)
            group = close_group(lat, [sigma], cap=10)
            rank = invariant_rank(ActionContext(lat, group, sigma=sigma))
            results[pattern] = {"form": row["form"], "real_lines": reals, "invariant_rank": rank}
            checks.append(_check(f"{pattern}_real_lines", row["real_lines"], reals, row["source"]))
            checks.append(
                _check(f"{pattern}_invariant_rank", row["invariant_rank"], rank, row["source"])
            )
            if row["minimal_subgroups"] is not None:
                names = sorted(d["name"] for d in hexagon_minimal_subgroups(pattern))
                checks.append(
                    _check(
                        f"{pattern}_minimal_subgroups",
                        sorted(row["minimal_subgroups"]),
                        names,
                        row["source"],
                    )
                )
        return _report("table", {"id": 2}, results, checks)
    if table_id == 3:
        from .picard import PicardLattice

        lat = PicardLattice(3)
        checks = []
        results = {}
        for row in tables.CUBIC_REAL_PAIRS:
            scan = scan_frames(lat, row["k"])
            pairs = sorted((fp.fixed_line_count, fp.fixed_trio_count) for fp in scan.fingerprints)
            results[row["label"]] = pairs
            expected = [tuple(row["pair"])]
            checks.append(
                _check(
                    f"k_{row['k']}_pairs",
                    [list(p) for p in expected],
                    [list(p) for p in pairs],
                    row["source"],
                )
            )
        return _report("table", {"id": 3}, results, checks)
    if table_id == 4:
        from .dp4 import PencilSpec, wall_characteristic
        from .picard import PicardLattice

        lat = PicardLattice(4)
        checks = []
        line_counts = {}
        for k in range(0, 4):
            scan = scan_frames(lat, k)
            line_counts[k] = sorted((fp.fixed_line_count for fp in scan.fingerprints), reverse=True)
        expected_counts = {0: [16], 1: [8], 2: [4, 0], 3: [0]}
        for k, want in expected_counts.items():
            checks.append(_check(f"k_{k}_line_counts", want, line_counts[k], "table:4"))
        xi_results = {}
        for row in tables.DP4_FORMS:
            spec = PencilSpec(tuple((Fraction(a), Fraction(b)) for a, b in row["pencil"]))
            xi = wall_characteristic(spec)
            xi_results[row["label"]] = list(xi)
            checks.append(_check(f"xi_{row['label']}", list(row["xi"]), list(xi), row["source"]))
        return _report(
            "table", {"id": 4}, {"line_counts": line_counts, "characteristics": xi_results}, checks
        )
    if table_id == 5:
        from .explicitlines import clebsch_lines, clebsch_twist, count_real_lines

        lines = clebsch_lines()
        checks = []
        results = {}
        for twist, row in tables.CLEBSCH_REAL_LINES.items():
            count = count_real_lines(lines, clebsch_twist(twist))
            results[twist] = count
            checks.append(_check(f"clebsch_{twist}", row["value"], count, row["source"]))
        return _report("table", {"id": 5}, results, checks)
    if table_id in (6, 7):
        from .picard import PicardLattice

        degree = 2 if table_id == 6 else 1
        lat = PicardLattice(degree)
        expected_rows = tables.DP2_PAIRS if table_id == 6 else tables.DP1_PAIRS
        found = set()
        per_k = {}
        for k in range(0, lat.r + 1):
            scan = scan_frames(lat, k)
            pairs = sorted((fp.trace_kperp, fp.fixed_line_count) for fp in scan.fingerprints)
            per_k[k] = pairs
            found.update(pairs)
        checks = []
        for row in expected_rows:
            pair = tuple(row["pair"])
            checks.append(_check(f"pair_{pair[0]}_{pair[1]}", True, pair in found, row["source"]))
        if table_id == 7:
            checks.append(
                _check(
                    "exactly_ten_pairs",
                    sorted(tuple(r["pair"]) for r in expected_rows),
                    sorted(found),
                    "table:7",
                )
            )
        return _report(
            "table", {"id": table_id}, {"pairs_per_k": {str(k): [list(p) for p in v] for k, v in per_k.items()}}, checks
        )
    raise UsageError(f"unsupported table id {table_id}")


def cmd_table(args):
    return reproduce_table(args.id)


# ---------------------------------------------------------------------------
# parser


_COMMANDS = (
    "lattice", "frames", "classify-involution", "minimal", "graph", "dp4", "cubic",
    "dp2-example", "invariants", "dp1", "table",
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for argv.

    When argv[0] names a subcommand, only that subcommand's parser is
    built: building all of them costs about as much as a typical
    in-process request.
    Anything else (no argv, -h, an unknown name) gets the full tree, whose
    usage and error messages list every subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Exact lattice/group/coordinate computations for real del Pezzo surfaces",
    )
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    if only is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # the full tree's usage line.  Not set on the full tree itself: with
        # no command given, its error names the argument "command".
        sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS))

    if only in (None, "lattice"):
        p = sub.add_parser("lattice", help="enumerate roots, lines, or tritangent trios")
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--what", choices=("roots", "lines", "trios"), required=True)
        p.set_defaults(func=cmd_lattice)

    if only in (None, "frames"):
        p = sub.add_parser("frames", help="fingerprints of orthogonal reflection frames")
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--budget", type=int, default=200000)
        p.set_defaults(func=cmd_frames)

    if only in (None, "classify-involution"):
        p = sub.add_parser("classify-involution", help="fingerprint a product of root reflections")
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--roots", required=True, help="JSON list of root coordinate vectors (or a file)")
        p.set_defaults(func=cmd_classify_involution)

    if only in (None, "minimal"):
        p = sub.add_parser("minimal", help="invariant rank and contraction search")
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--generators", required=True, help="JSON list of integer matrices (or a file)")
        p.add_argument("--sigma", type=int, default=None, help="index of the real structure among the generators")
        p.add_argument("--cap", type=int, default=100000)
        p.set_defaults(func=cmd_minimal)

    if only in (None, "graph"):
        p = sub.add_parser("graph", help="colored incidence graph (degrees 5 and 6)")
        p.add_argument("--degree", type=int, choices=(5, 6), required=True)
        p.add_argument("--sigma", required=True)
        p.add_argument("--dot", action="store_true")
        p.set_defaults(func=cmd_graph)

    if only in (None, "dp4"):
        p = sub.add_parser("dp4", help="degree-4 real forms and pencil characteristics")
        p.add_argument("--form", default=None)
        p.add_argument("--enumerate-minimal", action="store_true")
        p.add_argument("--characteristic", default=None, help="JSON [[a,b],...] of rational pairs")
        p.add_argument("--rank-elements", default=None, help="JSON [{sign, perm}] subgroup")
        p.set_defaults(func=cmd_dp4)

    if only in (None, "cubic"):
        p = sub.add_parser("cubic", help="real lines/tritangents on Fermat and Clebsch cubics")
        p.add_argument("--model", choices=("fermat", "clebsch"), required=True)
        p.add_argument("--twist", choices=("id", "t12", "t1234"), default="id")
        p.add_argument("--count-real-lines", action="store_true")
        p.add_argument("--count-real-tritangents", action="store_true")
        p.set_defaults(func=cmd_cubic)

    if only in (None, "dp2-example"):
        p = sub.add_parser("dp2-example", help="orbits of the order-4 action on the 56 lines")
        p.add_argument("--orbits", action="store_true")
        p.add_argument("--w-sign", type=int, choices=(1, -1), default=1)
        p.set_defaults(func=cmd_dp2_example)

    if only in (None, "invariants"):
        p = sub.add_parser("invariants", help="invariant binary forms of 2D point groups")
        p.add_argument("--group", required=True)
        p.add_argument("--degree", type=int, required=True)
        p.set_defaults(func=cmd_invariants)

    if only in (None, "dp1"):
        p = sub.add_parser("dp1", help="degree-1 fibers/rationality and star configurations")
        dp1_sub = p.add_subparsers(dest="dp1_command", required=True)
        pr = dp1_sub.add_parser("rationality")
        pr.add_argument("--f4", required=True, help="five comma-separated rational coefficients")
        pr.add_argument("--f6", required=True, help="seven comma-separated rational coefficients")
        pr.set_defaults(func=cmd_dp1_rationality)
        ps = dp1_sub.add_parser("star")
        ps.add_argument("--generator", default=None, help="JSON 9x9 integer matrix (or a file)")
        ps.add_argument("--reference", action="store_true")
        ps.set_defaults(func=cmd_dp1_star)

    if only in (None, "table"):
        p = sub.add_parser("table", help="reproduce a published table")
        p.add_argument("--id", type=int, required=True)
        p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out = args.func(args)
    except ValueError as exc:  # UsageError, UnsupportedDegree and ParseError included
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2
    if isinstance(out, tuple):
        report, dot = out
        if dot is not None:
            print(dot)
            return 0
    else:
        report = out
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
