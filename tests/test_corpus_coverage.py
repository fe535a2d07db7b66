"""tools/corpus_coverage.py on a synthetic package, and its committed allowlist.

The full corpus replay under the trace takes seconds, so it runs as its own
CI step (`python3 tools/corpus_coverage.py --check`); these tests check the
tool's statement mapping and allowlist rules on a two-function module.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import corpus_coverage  # noqa: E402

SOURCE = '''\
def reached(x):
    """Counted: the docstring is not a statement that runs."""
    if x > 0:
        return x + 1
    return x


def unreached(x):
    y = x * 2
    return y
'''


@pytest.fixture
def package(tmp_path):
    """(package directory, a thunk that calls reached(1) and returns 0 failures)."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("synthetic_mod", pkg / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return pkg, lambda: 0 if mod.reached(1) == 2 else 1


def _run(package, tmp_path, allowlist: str) -> int:
    pkg, thunk = package
    path = tmp_path / "unreached.txt"
    path.write_text(allowlist)
    return corpus_coverage.run(pkg, thunk, path)


def test_statements_map_onto_functions(package):
    pkg, thunk = package
    failures, missed, total = corpus_coverage.unreached(pkg, thunk)
    # reached(1) runs the if and return x + 1, never its return x; unreached() runs nothing
    assert (failures, total) == (0, 5)
    assert {name: [s.line for s in stmts] for name, stmts in missed.items()} == {
        "mod.reached": [5],
        "mod.unreached": [9, 10],
    }


def test_check_passes_on_the_listed_counts(package, tmp_path, capsys):
    assert _run(package, tmp_path, "# comment\nmod.reached 1 invariant raise\nmod.unreached 2 outside-input check\n") == 0
    out = capsys.readouterr().out
    assert "mod.unreached: 2 unreached" in out and "mod.py:9: y = x * 2" in out
    assert "3 of 5 statements unreached, in 2 functions" in out


def test_check_fails_on_an_unlisted_unreached_function(package, tmp_path, capsys):
    assert _run(package, tmp_path, "mod.reached 1 invariant raise\n") == 1
    assert "mod.unreached: 2 unreached, not on the allowlist" in capsys.readouterr().out


def test_check_fails_on_a_stale_entry(package, tmp_path, capsys):
    listed = "mod.reached 1 invariant raise\nmod.unreached 2 value protocol\n"
    assert _run(package, tmp_path, listed + "mod.gone 3 value protocol\n") == 1
    assert "mod.gone: 0 unreached, the allowlist says 3" in capsys.readouterr().out
    assert _run(package, tmp_path, "mod.reached 1 invariant raise\nmod.unreached 1 value protocol\n") == 1
    assert "mod.unreached: 2 unreached, the allowlist says 1" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["mod.unreached 2", "mod.unreached 2 because", "mod.unreached 2 oracle:", "mod.unreached two value protocol"])
def test_check_fails_on_an_entry_without_a_reason(package, tmp_path, capsys, line):
    assert _run(package, tmp_path, f"mod.reached 1 invariant raise\n{line}\n") == 1
    assert "line 2" in capsys.readouterr().out


def test_run_fails_when_a_request_fails(package, tmp_path):
    pkg, _ = package
    path = tmp_path / "unreached.txt"
    path.write_text("mod.reached 3 invariant raise\nmod.unreached 2 invariant raise\n")
    assert corpus_coverage.run(pkg, lambda: 1, path) == 1


def test_the_committed_allowlist_names_package_functions_and_tests():
    listed, problems = corpus_coverage.parse_allowlist(corpus_coverage.ALLOWLIST.read_text())
    assert problems == []
    functions = corpus_coverage.function_statements(corpus_coverage.PACKAGE)
    assert sorted(set(listed) - set(functions)) == []
    for line in corpus_coverage.ALLOWLIST.read_text().splitlines():
        for path, test in re.findall(r"oracle: (tests/\S+\.py)::(test_\w+)", line):
            assert re.search(rf"^def {test}\(", (ROOT / path).read_text(), re.M), line
