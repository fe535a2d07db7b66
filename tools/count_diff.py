"""Which traced work counts moved: one traced seed-0 pass per workload,
compared with the counts recorded in perfbench/digests.json.

    python3 tools/count_diff.py [--check WORKLOAD ...]

The passes are traced as ``perfbench/worker.py --record-digests`` traces
them, with the benchmark's own client, tracer and requests.  For each
workload it prints every count that moved, as ``key: old -> new``, and
every key added or dropped.  It writes nothing.  With ``--check`` it exits
1 when any of the named workloads differs from its record, or has none.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import Tracer, package_modules  # noqa: E402
from worker import DEFAULT_SEED, DIGESTS, Client, _countable, import_cli, pass_key  # noqa: E402
from workloads import WORKLOADS, pass_requests  # noqa: E402


def diff(old: dict, new: dict) -> list[str]:
    """One line per key whose count moved, was added or was dropped, by key."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"dropped {key} (was {old[key]})")
        elif key not in old:
            lines.append(f"added {key} = {new[key]}")
        elif old[key] != new[key]:
            lines.append(f"{key}: {old[key]} -> {new[key]}")
    return lines


def traced_counts() -> dict[str, tuple[str, dict]]:
    """workload -> (pass key, counts) of one traced seed-0 pass each."""
    cli = import_cli()
    modules = package_modules()
    # built before the tracer hides the caches; as "cyclo", its reference
    # work between requests is the in-process loop, not a fresh interpreter
    client = Client("cyclo", cli, modules)
    client.tracer = Tracer()
    client.tracer.install(modules)  # `tables` requests trace in their own process
    out = {}
    for workload in WORKLOADS:
        client.workload = workload
        requests = pass_requests(workload, DEFAULT_SEED, 0)
        out[workload] = pass_key(requests), _countable(client.run_pass(requests)[2])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", nargs="+", choices=WORKLOADS, default=[], metavar="WORKLOAD")
    args = parser.parse_args(argv)
    recorded = json.loads(DIGESTS.read_text())["counts"]
    failed = False
    for workload, (key, counts) in traced_counts().items():
        if key not in recorded:
            print(f"{workload}: no recorded counts for pass {key}")
            failed |= workload in args.check
            continue
        lines = diff(recorded[key], counts)
        print(f"{workload}: {len(lines)} keys differ from the record" + (":" if lines else ""))
        for line in lines:
            print(f"  {line}")
        failed |= bool(lines) and workload in args.check
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
