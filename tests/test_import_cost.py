"""tools/import_cost.py runs the benchmark's `tables` requests and splits
`-X importtime` self time into package, numpy and other modules."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))
import import_cost  # noqa: E402
from workloads import TABLE_REQUESTS  # noqa: E402


def test_the_requests_are_those_of_the_tables_workload():
    assert import_cost.TABLE_REQUESTS == TABLE_REQUESTS


def test_self_times_are_grouped_by_the_import_that_began_them():
    # (depth, module, self µs) in the order the imports began
    imports = [
        (0, "delpezzo.cli", 5000),
        (1, "argparse", 700),
        (0, "numpy", 3000),
        (1, "inspect", 2000),
        (2, "numpy._core", 1000),
        (0, "delpezzo._kernels", 400),
        (0, "fractions", 900),
        (1, "re", 100),
    ]
    assert import_cost.grouped(imports, bare={"re"}) == pytest.approx({"package": 5.4, "numpy": 6.0, "other": 1.6})


def test_importtime_reads_one_interpreter():
    found = import_cost.importtime(["-c", "import json"], None)
    names = [name for _, name, _ in found]
    assert "json" in names and names.index("json") < names.index("json.decoder")
    assert all(depth >= 0 and us >= 0 for depth, _, us in found)
