"""Layer microbenchmarks: single public functions of delpezzo, timed alone.

    python3 perfbench/micro.py

Each ``micro.*`` figure is the median over REPEATS runs, and each result is
checked (W(E6) has order 51840, a * inverse(a) == 1, ...).  The last line of
output is a JSON object with ``correct``, ``machine`` and ``metrics``.
These isolate one layer each; run.py measures what a CLI user sees.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import machine_facts  # noqa: E402
from worker import import_cli  # noqa: E402

REPEATS = 5
SEED = 0  # draws the CycloNum operands and the dp1 surface
CONDUCTORS = (3, 8, 12, 120)
LATTICES = {"e6": 3, "e7": 2, "e8": 1}  # root system -> del Pezzo degree


def timed(fn):
    """(median seconds, last result) over REPEATS runs."""
    times, result = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def positive_roots(lat):
    import numpy as np
    from delpezzo.picard import enumerate_roots

    roots = [r.coords for r in enumerate_roots(lat)]
    return np.array([r for r in roots if next(x for x in r if x) > 0], dtype=np.int64)


def bench_frames(metrics, checks):
    import numpy as np
    from delpezzo import _kernels
    from delpezzo.picard import PicardLattice, enumerate_exceptional
    from delpezzo.weyl import Isometry, fingerprint, frame_matrix

    for name, degree in LATTICES.items():
        lat = PicardLattice(degree)
        pos = positive_roots(lat)
        adj = (pos @ lat.gram @ pos.T) == 0
        secs, (frames, truncated) = timed(lambda: _kernels.enumerate_cliques(adj, 4, 10**7))
        metrics[f"micro.enumerate_cliques.{name}_k4_s"] = (secs, "s")
        metrics[f"micro.enumerate_cliques.{name}_k4_frames"] = (frames.shape[0], "count")
        checks[f"{name} k=4 scan exhaustive"] = not truncated
        lines = np.array([e.coords for e in enumerate_exceptional(lat)], dtype=np.int64)
        masks = (pos @ lat.gram @ lines.T) == 0
        secs, counts = timed(lambda: _kernels.fixed_counts(masks, frames))
        metrics[f"micro.fixed_counts.{name}_k4_s"] = (secs, "s")
        if name == "e8":
            iso = Isometry(lat, frame_matrix(lat, pos[frames[-1]]))
            secs, fp = timed(lambda: fingerprint(lat, iso))
            metrics["micro.fingerprint.e8_frame_s"] = (secs, "s")
            checks["e8 fingerprint agrees with fixed_counts"] = fp.fixed_line_count == int(counts[-1])


def bench_close_group(metrics, checks):
    from delpezzo.picard import PicardLattice
    from delpezzo.weyl import close_group, reflection, simple_roots

    lat = PicardLattice(3)
    gens = [reflection(lat, s) for s in simple_roots(lat)]
    secs, group = timed(lambda: close_group(lat, gens, cap=60000))
    metrics["micro.close_group.w_e6_s"] = (secs, "s")
    checks["|W(E6)| = 51840"] = group.order == 51840


def bench_cyclo(metrics, checks):
    from delpezzo.exactnum import CycloNum, euler_phi

    rng = random.Random(SEED)

    def element(n):
        return CycloNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(euler_phi(n))])

    for n in CONDUCTORS:
        pairs = [(element(n), element(n)) for _ in range(8)]
        ops = {
            "mul": lambda: [a * b for a, b in pairs],
            "add": lambda: [a + b for a, b in pairs],
            "inverse": lambda: [a.inverse() for a, _ in pairs],
        }
        for op, fn in ops.items():
            secs, out = timed(fn)
            metrics[f"micro.cyclo.{op}.n{n}_us"] = (1e6 * secs / len(pairs), "us")
            if op == "inverse":
                one = CycloNum.rational(1, n)
                checks[f"n{n} a * inverse(a) == 1"] = all(a * inv == one for (a, _), inv in zip(pairs, out))
            if op == "mul":
                checks[f"n{n} mul commutes"] = all(a * b == b * a for a, b in pairs)


def bench_realroots(metrics, checks):
    from delpezzo import realroots
    from delpezzo.dp1 import DP1Surface, discriminant
    from delpezzo.invforms import BinaryForm

    rng = random.Random(SEED)
    while True:
        f4 = BinaryForm.from_rational([rng.randint(-3, 3) for _ in range(5)])
        f6 = BinaryForm.from_rational([rng.randint(-3, 3) for _ in range(7)])
        try:
            disc = discriminant(DP1Surface(f4, f6))
        except ValueError:
            continue
        poly = realroots.poly_trim(list(reversed(disc.rational_coeffs())))
        if realroots.poly_degree(poly) == 12 and realroots.is_squarefree(poly):
            break
    secs, roots = timed(lambda: realroots.isolate_real_roots(poly))
    metrics["micro.isolate_real_roots.deg12_ms"] = (1e3 * secs, "ms")
    metrics["micro.isolate_real_roots.deg12_roots"] = (len(roots), "count")
    checks["root count agrees with Sturm"] = len(roots) == realroots.count_real_roots(poly)


def main() -> int:
    import_cli()
    metrics, checks = {}, {}
    bench_frames(metrics, checks)
    bench_close_group(metrics, checks)
    bench_cyclo(metrics, checks)
    bench_realroots(metrics, checks)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    for name, ok in checks.items():
        if not ok:
            print(f"FAILED {name}")
    print(
        json.dumps(
            {
                "correct": all(checks.values()),
                "machine": machine_facts(SEED),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
