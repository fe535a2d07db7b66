"""One client of the benchmark, in a closed loop: runs a workload's passes.

Started by run.py as ``python3 perfbench/worker.py --workload W --seed S
--seconds T --trace 0|1``.  It imports ``delpezzo.cli`` from the checkout's
``src``, makes the first pass's inputs, prints ``ready``, runs passes
until the time is used, checks every output and prints one JSON line of
results.

Other modes:
  --setup-only      stop after ``ready`` (run.py times set-up this way)
  --child ARGV...   one traced CLI request in this process, for ``tables``
  --record-digests  rewrite digests.json from the current program
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
REQUEST_TIMEOUT_S = 120
TRACE_MARK = "PERFBENCH-TRACE "
LAUNCHED_ENV = "PERFBENCH_LAUNCHED"  # time.time() when a traced child was started

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from speed import children_cpu, reference_for  # noqa: E402
from tracer import Tracer, find_caches, package_modules  # noqa: E402


def import_cli():
    if not (SRC / "delpezzo" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import delpezzo.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: delpezzo imported from {cli.__file__}, not {SRC}")
    return cli


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pass_key(requests) -> str:
    """Names a pass by its requests, ignoring their order."""
    return digest("\n".join(sorted(" ".join(r) for r in requests)))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Client:
    """Sends one request at a time and records what came back."""

    def __init__(self, workload: str, cli, modules):
        self.workload = workload
        self.cli = cli
        self.caches = find_caches(modules)
        self.tracer: Tracer | None = None
        self.env = _child_env()
        self.reference, self.reference_s = reference_for(workload)

    def request(self, argv):
        """(exit code or error text, stdout, wall seconds, CPU seconds,
        trace snapshot or None)."""
        if self.workload == "tables":
            return self._request_process(argv)
        # every functools cache in delpezzo is emptied first, so every
        # request starts as cold as a fresh CLI process
        for cache in self.caches:
            cache.cache_clear()
        buf = io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is recorded as a failed request
            code = f"{type(exc).__name__}: {exc}"
        return code, buf.getvalue(), time.perf_counter() - t0, time.process_time() - c0, None

    def _request_process(self, argv):
        # a fresh interpreter per request: the caches a process fills are
        # paid again by every CLI invocation
        env = self.env
        if self.tracer is None:
            cmd = [sys.executable, "-m", "delpezzo", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--child", *argv]
            env = dict(env, **{LAUNCHED_ENV: repr(time.time())})
        # the CPU time of a request is that of its process, the only child
        # reaped while it runs
        c0, t0 = children_cpu(), time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            elapsed = time.perf_counter() - t0
            return f"no reply within {REQUEST_TIMEOUT_S} s", "", elapsed, children_cpu() - c0, None
        elapsed, cpu = time.perf_counter() - t0, children_cpu() - c0
        snap = None
        if self.tracer is not None:
            marked = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_MARK)]
            snap = json.loads(marked[-1][len(TRACE_MARK):]) if marked else None
        return proc.returncode, proc.stdout, elapsed, cpu, snap

    def run_pass(self, requests):
        """(summed request wall time, records, trace); a record is (argv,
        code, stdout, wall s, CPU s, reference s, snapshot), the reference
        being the mean of the reference work's CPU time just before and
        after the request."""
        if self.tracer is not None:
            self.tracer.reset()
        records = []
        before = self.reference()
        for argv in requests:
            code, out, wall, cpu, snap = self.request(argv)
            after = self.reference()
            records.append((argv, code, out, wall, cpu, (before + after) / 2, snap))
            before = after
        trace = None
        if self.tracer is not None:
            trace = self.tracer.snapshot() if self.workload != "tables" else _merge([r[6] for r in records])
        return sum(r[3] for r in records), records, trace


def _merge(snaps):
    out = {"calls": {}, "self_s": {}, "counts": {}, "startup_s": {}}
    for snap in snaps:
        if snap is None:
            continue
        for part in out:
            for key, value in snap.get(part, {}).items():
                out[part][key] = out[part].get(key, 0) + value
    return out


class Checker:
    """Correctness gate: exit codes, embedded checks, digests, oracle."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.by_argv = recorded.get("by_argv", {})
        self.counts = recorded.get("counts", {})
        self.attempted = self.failed = self.rejected = self.digest_checked = 0
        self.failures: list[str] = []
        self.oracle_passed: set[tuple[str, str]] = set()

    def _fail(self, argv, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{' '.join(argv)}: {why}")

    def check(self, argv, code, out):
        self.attempted += 1
        if code not in workloads.allowed_exit(argv):
            self._fail(argv, f"exit {code}")
            return
        key, got = " ".join(argv), digest(out)
        want = self.by_argv.get(key)
        if want is not None:
            self.digest_checked += 1
            if got != want:
                self._fail(argv, "report digest differs from the recorded one")
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            self._fail(argv, "output is not one JSON report")
            return
        if code == 2:
            self.rejected += 1
            if "error" not in report:
                self._fail(argv, "exit 2 without an error report")
            return
        if not all(c["pass"] for c in report["checks"]):
            self._fail(argv, "an embedded check failed")
        if workloads.is_fibers(argv) and (key, got) not in self.oracle_passed:
            # float oracle, outside the timed region, once per distinct report
            mismatches = workloads.oracle_mismatches(argv, report)
            for msg in mismatches:
                self._fail(argv, msg)
            if not mismatches:
                self.oracle_passed.add((key, got))

    def check_counts(self, key, counts_per_pass):
        """Counts must repeat exactly, pass to pass and against the record."""
        first = counts_per_pass[0]
        for other in counts_per_pass[1:]:
            if other != first:
                self._fail(["trace"], "work counts differ between identical passes")
        calls = first.get("weyl.involution_frames.calls", 0)
        if first.get("weyl.involution_frames.exhausted", 0) != calls:
            self._fail(["trace"], "an involution_frames scan was not exhaustive")
        recorded = self.counts.get(key)
        if recorded is not None and recorded != first:
            self._fail(["trace"], "work counts differ from the recorded ones")


def _run_passes(client, checker, budget_s, min_passes):
    """Run passes until the next one would overrun budget_s; at least min_passes.

    A pass's share of the budget includes its reference work and checks.
    """
    walls, latencies, traces, sizes = [], [], [], []
    i = 0
    start = last = time.perf_counter()
    while True:
        now = time.perf_counter()
        if i >= min_passes and (now - start) + (now - last) > budget_s:
            break
        last = now
        requests = workloads.pass_requests(checker.workload, checker.seed, i)
        wall, records, trace = client.run_pass(requests)
        walls.append(wall)
        traces.append(trace)
        sizes.append(sum(len(r[2].encode()) for r in records))
        for argv, code, out, wall_s, cpu_s, ref_s, _ in records:
            latencies.append((i, " ".join(argv), wall_s, cpu_s, cpu_s * client.reference_s / ref_s, ref_s))
            checker.check(argv, code, out)
        i += 1
    return walls, latencies, traces, sizes


def _countable(trace) -> dict:
    counts = dict(trace["counts"])
    for name, calls in trace["calls"].items():
        counts[f"{name}.calls"] = calls
    return counts


def run(args) -> dict:
    cli = import_cli()
    modules = package_modules()
    checker = Checker(args.workload, args.seed)
    workloads.pass_requests(args.workload, args.seed, 0)  # input generation is part of set-up
    print("ready", flush=True)
    if args.setup_only:
        return {}
    client = Client(args.workload, cli, modules)
    if not args.trace:
        walls, latencies, _, _ = _run_passes(client, checker, args.seconds, 2)
        result = {"walls": walls, "latencies": latencies}
    else:
        # every pass sends the same requests, so the traced passes' counts
        # can be compared and the tracing overhead is a like-for-like ratio
        untraced, _, _, _ = _run_passes(client, checker, args.seconds / 3, 1)
        client.tracer = Tracer()
        if args.workload != "tables":
            client.tracer.install(modules)
        walls, _, traces, sizes = _run_passes(client, checker, 2 * args.seconds / 3, 2)
        key = pass_key(workloads.pass_requests(args.workload, args.seed, 0))
        checker.check_counts(key, [_countable(t) for t in traces])
        result = {
            "untraced_walls": untraced,
            "walls": walls,
            "traces": traces,
            "report_bytes": sizes,
        }
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        rejected=checker.rejected,
        digest_checked=checker.digest_checked,
        failures=checker.failures,
    )
    return result


def child(argv) -> int:
    """One traced request in a fresh process, as a `tables` request.

    Besides the trace it reports the seconds from its launch until the
    program was imported: interpreter start and imports, which no wrapper
    sees.
    """
    cli = import_cli()
    modules = package_modules()
    startup = time.time() - float(os.environ[LAUNCHED_ENV])
    tracer = Tracer()
    tracer.install(modules)
    code = cli.main(argv)
    sys.stdout.flush()
    snap = tracer.snapshot()
    snap["startup_s"] = {"startup": startup}
    print(TRACE_MARK + json.dumps(snap), file=sys.stderr)
    return code


def record_digests() -> None:
    """Record report digests and work counts from the current program.

    Digests cover every `tables` and `cyclo` request, and the dp1 surfaces
    of the default seed.
    """
    cli = import_cli()
    modules = package_modules()
    client = Client("cyclo", cli, modules)
    requests = workloads.pass_requests("cyclo", DEFAULT_SEED, 0)
    requests += workloads.pass_requests("fibers", DEFAULT_SEED, 0)
    by_argv = {" ".join(argv): digest(client.request(argv)[1]) for argv in requests}
    client.workload = "tables"
    by_argv.update({" ".join(argv): digest(client.request(argv)[1]) for argv in workloads.TABLE_REQUESTS})
    counts = {}
    client.tracer = Tracer()
    client.tracer.install(modules)  # once: `tables` requests trace in their own process
    for workload in workloads.WORKLOADS:
        client.workload = workload
        requests = workloads.pass_requests(workload, DEFAULT_SEED, 0)
        counts[pass_key(requests)] = _countable(client.run_pass(requests)[2])
    DIGESTS.write_text(json.dumps({"by_argv": by_argv, "counts": counts}, indent=1, sort_keys=True) + "\n")


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return child(sys.argv[2:])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
