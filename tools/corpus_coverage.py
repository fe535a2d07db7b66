"""Which statements of the package no report of the corpus reaches.

Replays every request of tests/report_digests.json in-process through
`record_reports.replay`, as tests/test_report_corpus.py does (COLUMNS=80), under
`sys.settrace`, and exits 1 on any exit code or digest that differs from the
recorded one.  The line events in `src/delpezzo` are mapped onto the `ast`
statements of every function and method body; each statement belongs to its
innermost function, named `module.qualname` (`exactnum.CycloNum.inverse`,
`colorgraph._search.rec`).  Module and class bodies are not
counted.

A statement is reached when one of its own lines had a line event: for a
simple statement its whole span, for a compound one its header (`if` test,
`for` target and iterable, decorators and signature of a nested `def`).
Statements that compile to no instruction (docstrings, `global`) are not
counted.  Line events cannot tell two statements on one line apart, so
`if x: return y` counts its `return` whenever the test runs.

The unreached statements are printed by function.  With --check, the
per-function unreached counts must equal the allowlist tools/unreached.txt,
one line per function:

    module.qualname count reason

where the reason is one of REASONS, or several joined by "; ".  Any
difference fails: an unreached function that is not listed, a listed count
that no longer holds, a listed function that is now fully reached or gone,
and a line without a valid reason.

Standard library only (`coverage` is not a dependency).  Run from the
repository root:

    python3 tools/corpus_coverage.py            # list the unreached statements
    python3 tools/corpus_coverage.py --check    # and compare with the allowlist
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
import types
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "delpezzo"
CORPUS = ROOT / "tests" / "report_digests.json"
ALLOWLIST = ROOT / "tools" / "unreached.txt"

# why a function may keep statements that no report reaches
REASONS = (
    re.compile(r"oracle: tests/test_\w+\.py::test_\w+"),  # a test uses it as the reference for other code
    re.compile(r"paper result with no report"),  # a published result no CLI request reproduces yet
    re.compile(r"value protocol"),  # __repr__, __hash__, __eq__ and what the tested hash contract needs
    # refuses, or handles, input that only a caller outside the package passes
    re.compile(r"outside-input check"),
    # raises (or fails a report check) when an internal invariant breaks, which no input makes happen
    re.compile(r"invariant raise"),
    re.compile(r"perfbench/micro\.py caller"),  # timed by the layer microbenchmarks only
    re.compile(r"slow request: delpezzo .+"),  # reached by this CLI request, too slow for the corpus
)


@dataclass(frozen=True)
class Statement:
    path: Path
    line: int  # first line, for the listing
    lines: frozenset[int]  # its own executable lines


def _executable_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable_lines(const)
    return lines


def _children(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in a compound statement, in one function."""
    out = [getattr(stmt, field) for field in ("body", "orelse", "finalbody") if getattr(stmt, field, None)]
    out += [handler.body for handler in getattr(stmt, "handlers", ())]
    out += [case.body for case in getattr(stmt, "cases", ())]
    return out


def _own_lines(stmt: ast.stmt) -> range:
    """A simple statement's span; a compound one's header, up to its first nested statement."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    nested = [stmt.body] if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else _children(stmt)
    if not nested:
        return range(start, stmt.end_lineno + 1)
    return range(start, max(min(body[0].lineno for body in nested), stmt.lineno + 1))


def _collect(body, prefix: str, function: str | None, path: Path, executable: set[int], out: dict) -> None:
    """Add the counted statements of body, and of the bodies nested in it, to out."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{stmt.name}"
            out.setdefault(name, [])
            _collect(stmt.body, name, name, path, executable, out)
        elif isinstance(stmt, ast.ClassDef):
            _collect(stmt.body, f"{prefix}.{stmt.name}", None, path, executable, out)
        else:
            for nested in _children(stmt):
                _collect(nested, prefix, function, path, executable, out)
        lines = executable.intersection(_own_lines(stmt))
        if function is not None and lines:
            out[function].append(Statement(path, stmt.lineno, frozenset(lines)))


def function_statements(package_dir: Path) -> dict[str, list[Statement]]:
    """module.qualname -> the counted statements of its body, for every function of the package."""
    out: dict[str, list[Statement]] = {}
    for path in sorted(package_dir.rglob("*.py")):
        module = ".".join(path.relative_to(package_dir).with_suffix("").parts)
        source = path.read_text()
        executable = _executable_lines(compile(source, str(path), "exec"))
        _collect(ast.parse(source).body, module, None, path, executable, out)
    return out


def trace_lines(package_dir: Path, thunk: Callable[[], int]) -> tuple[int, dict[str, set[int]]]:
    """thunk()'s result and the lines with a line event in each file under package_dir."""
    root = package_dir.resolve()
    hits: dict[str, set[int]] = {}
    tracers: dict[types.CodeType, object] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        tracer = tracers.get(code)
        if tracer is None:
            tracer = False
            filename = Path(code.co_filename).resolve()
            if filename.is_relative_to(root):
                add = hits.setdefault(str(filename), set()).add

                def tracer(frame, event, arg):
                    if event == "line":
                        add(frame.f_lineno)
                    return tracer

            tracers[code] = tracer
        return tracer or None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = thunk()
    finally:
        sys.settrace(previous)
    return result, hits


def unreached(package_dir: Path, thunk: Callable[[], int]) -> tuple[int, dict[str, list[Statement]], int]:
    """(thunk's result, the unreached statements by function, the number of counted statements).

    The statements are read before thunk runs, so the package's modules may
    be imported inside it, under the trace.
    """
    functions = function_statements(package_dir)
    result, hits = trace_lines(package_dir, thunk)
    missed = {}
    for name, stmts in functions.items():
        left = [s for s in stmts if not s.lines & hits.get(str(s.path.resolve()), set())]
        if left:
            missed[name] = left
    return result, missed, sum(len(s) for s in functions.values())


def parse_allowlist(text: str) -> tuple[dict[str, int], list[str]]:
    """(module.qualname -> listed count, problems with the lines)."""
    listed, problems = {}, []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3 or not parts[1].isdigit():
            problems.append(f"line {number}: expected 'module.qualname count reason': {line!r}")
            continue
        name, count, reason = parts
        if not all(any(p.fullmatch(r) for p in REASONS) for r in reason.split("; ")):
            problems.append(f"line {number}: {name}: {reason!r} is not a listed reason")
        if name in listed:
            problems.append(f"line {number}: {name} is listed twice")
        listed[name] = int(count)
    return listed, problems


def check(counts: dict[str, int], allowlist_text: str) -> list[str]:
    """Every difference between the unreached counts and the allowlist."""
    listed, problems = parse_allowlist(allowlist_text)
    for name in sorted(counts.keys() | listed.keys()):
        have, want = counts.get(name, 0), listed.get(name)
        if want is None:
            problems.append(f"{name}: {have} unreached, not on the allowlist")
        elif have != want:
            problems.append(f"{name}: {have} unreached, the allowlist says {want}")
    return problems


def run(package_dir: Path, thunk: Callable[[], int], allowlist: Path | None) -> int:
    """List the statements thunk leaves unreached; 1 when thunk returned failures
    or, given an allowlist, when the counts differ from it."""
    failures, missed, total = unreached(package_dir, thunk)
    for name, stmts in missed.items():
        print(f"{name}: {len(stmts)} unreached")
        for s in stmts:
            source = s.path.read_text().splitlines()[s.line - 1].strip()
            print(f"  {s.path.name}:{s.line}: {source}")
    print(f"corpus_coverage: {sum(map(len, missed.values()))} of {total} statements unreached, in {len(missed)} functions")
    problems = [] if allowlist is None else check({n: len(s) for n, s in missed.items()}, allowlist.read_text())
    for problem in problems:
        print(f"corpus_coverage: {problem}")
    if failures:
        print(f"corpus_coverage: {failures} requests differ from their recorded exit code or digest")
    return 1 if failures or problems else 0


def replay_corpus() -> int:
    """Replay every corpus entry; the number that differ from the recorded ones."""
    sys.path.insert(0, str(ROOT / "tools"))
    from record_reports import replay

    failures = 0
    for entry in json.loads(CORPUS.read_text()):
        if replay(entry["argv"]) != (entry["exit"], entry["digest"]):
            print(f"corpus_coverage: {entry['name']} differs from its recorded exit code or digest")
            failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help=f"compare the unreached counts with {ALLOWLIST.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    return run(PACKAGE, replay_corpus, ALLOWLIST if args.check else None)


if __name__ == "__main__":
    sys.exit(main())
