"""The delpezzo benchmark: one workload, timed or traced, outputs checked.

    python3 perfbench/run.py --workload tables|fibers|cyclo --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Set-up (a fresh interpreter importing
``delpezzo.cli`` from ``src`` and making the inputs) is timed eight times,
before and after the run, and reported as the median.  One worker process
(worker.py) sends the workload's requests one at a time, in a closed loop,
for about S seconds.  Set-up and requests are timed by CPU time, and
reported at the reference speed of speed.py, measured next to each one.
With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics of a traced run.  The lines before it give the
machine, the metrics in words and any failed requests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))
from speed import START_S, children_cpu, start_cpu  # noqa: E402

SETUP_PROBES = 4  # before the run, and as many after it
RUN_TIMEOUT_S = 170


def machine_facts(seed: int) -> dict:
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "numba": version("numba") is not None,
        "commit": commit,
        "seed": seed,
    }


def start_worker(args, *extra):
    """Start worker.py and wait until it printed ready."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker did not start (printed {line!r})")
    return proc


def setup_probes(args) -> list[tuple[float, float]]:
    """(CPU seconds, reference seconds) of SETUP_PROBES set-ups.

    A probe is a worker that stops at ready; its CPU time is read once it
    has been reaped.  The reference is start_cpu(), timed before and after.
    """
    samples = []
    before = start_cpu()
    for _ in range(SETUP_PROBES):
        c0 = children_cpu()
        start_worker(args, "--setup-only").communicate(timeout=RUN_TIMEOUT_S)
        cpu = children_cpu() - c0
        after = start_cpu()
        samples.append((cpu, (before + after) / 2))
        before = after
    return samples


def measure(args) -> tuple[dict, list[tuple[float, float]]]:
    # set-up samples before and after the run, so that their median spans
    # the run's share of the machine's slower swings in speed
    setups = setup_probes(args)
    proc = start_worker(args)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    setups += setup_probes(args)
    return json.loads(out.strip().splitlines()[-1]), setups


def request_cpu(result: dict, at_reference: bool) -> dict[str, float]:
    """CPU seconds per distinct request, the median over the passes.

    Every pass sends the same requests, and each starts cold, so every
    pass repeats the same work.
    """
    samples: dict[str, list[float]] = {}
    for _, key, _, cpu, cpu_at_reference, _ in result["latencies"]:
        samples.setdefault(key, []).append(cpu_at_reference if at_reference else cpu)
    return {key: statistics.median(v) for key, v in samples.items()}


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict:
    return {
        "setup_s": statistics.median(cpu * START_S / ref for cpu, ref in setups),
        "cpu_ref_s": sum(request_cpu(result, at_reference=True).values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def per_layer(result: dict, names: list[str]) -> dict:
    traces = result["traces"]
    first = traces[0]
    self_s = {k: statistics.median(t["self_s"].get(k, 0.0) for t in traces) for k in first["self_s"]}
    # on `tables` each request also starts an interpreter and imports the
    # program, which its traced child measures
    startup = [sum(t.get("startup_s", {}).values()) for t in traces]
    coverage = [
        (sum(t["self_s"].values()) + start) / wall for t, start, wall in zip(traces, startup, result["walls"])
    ]
    special = {
        "trace.overhead_ratio": statistics.median(result["walls"]) / statistics.median(result["untraced_walls"]),
        "trace.coverage_ratio": statistics.median(coverage),
        "trace.startup_s": statistics.median(startup),
        "cli.report_bytes": statistics.median(result["report_bytes"]),
    }
    out = {}
    for name in names:
        if name in special:
            value = special[name]
        elif name.endswith(".exhausted_ratio"):
            base = name[: -len(".exhausted_ratio")]
            calls = first["calls"].get(base, 0)
            value = first["counts"].get(base + ".exhausted", 0) / calls if calls else 0.0
        elif name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            # a bare module name is the module's total
            value = self_s.get(key, sum(v for k, v in self_s.items() if k.startswith(key + ".")))
        elif name.endswith(".calls"):
            value = first["calls"].get(name[: -len(".calls")], 0)
        else:
            value = first["counts"].get(name, 0)
        out[name] = value
    return out


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("tables", "fibers", "cyclo"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # one CPU for this process and every process it starts, so that the
    # reference work runs where the set-ups and the requests run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "delpezzo" / "cli.py").is_file():
        print(f"perfbench: no delpezzo source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"machine": machine_facts(args.seed)}))

    result, setups = measure(args)
    if args.trace:
        values = per_layer(result, [m["name"] for m in wanted])
    else:
        values = end_to_end(result, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{args.workload}: {attempted} requests, {failed} failed (fail_ratio {failed / attempted:.4f}),"
        f" {result['rejected']} rejected by the CLI, {result['digest_checked']} digest-checked,"
        f" {len(result['walls'])} {'traced ' if args.trace else ''}passes"
    )
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        # as measured, not in BENCHMARK.json: these follow the speed of a
        # shared machine, which moves by up to a third within minutes
        walls, refs = result["walls"], [lat[5] for lat in result["latencies"]]
        cpu_ms = sorted(1e3 * s for s in request_cpu(result, at_reference=False).values())
        ref_ms = sorted(1e3 * s for s in request_cpu(result, at_reference=True).values())
        print(
            f"  as measured: CPU {sum(cpu_ms) / 1e3:.6g} s, wall {statistics.median(walls):.6g} s per pass"
            f" ({len(walls)} passes, {len(result['latencies']) / sum(walls):.6g} requests/s),"
            f" set-up CPU {statistics.median(cpu for cpu, _ in setups):.6g} s,"
            f" reference work {1e3 * statistics.median(refs):.6g} ms"
        )
        print(
            f"  {len(cpu_ms)} distinct requests, CPU p50 {statistics.median(cpu_ms):.6g} ms, p90 {_p90(cpu_ms):.6g} ms;"
            f" at the reference speed p50 {statistics.median(ref_ms):.6g} ms, p90 {_p90(ref_ms):.6g} ms"
        )
    for msg in result["failures"]:
        print(f"  FAILED {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
