"""The machine's present speed, measured on fixed work next to each request.

On a shared virtual machine the CPU time of the same request moves by up
to 40% within minutes while the work done stays the same.  So the worker
times a fixed piece of reference work, on the same CPU, before and after
every request, and reports the request's CPU time at the reference speed,
at which that work takes its nominal time:
``cpu_s * nominal_s / reference_s``.

The reference work is of the kind the workload spends its time in, without
the program: for `tables`, whose requests are each a fresh interpreter, a
fresh interpreter importing numpy; for the in-process workloads, a loop of
Python integer and Fraction arithmetic.  On `tables` the loop followed the
machine less closely than the interpreter start did.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from fractions import Fraction

LOOP_S = 0.010  # loop_cpu() at the reference speed
LOOP_ROUNDS = 3000
START_S = 0.160  # start_cpu() at the reference speed


def loop_cpu() -> float:
    """CPU seconds this process takes for a fixed arithmetic loop."""
    c0 = time.process_time()
    total, acc = Fraction(0), 0
    for i in range(1, LOOP_ROUNDS):
        total += Fraction(i % 97, i % 13 + 1)
        acc += i * i % 7
    return time.process_time() - c0


def children_cpu() -> float:
    """User and system seconds of this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def start_cpu() -> float:
    """CPU seconds of a fresh interpreter that imports numpy and exits."""
    c0 = children_cpu()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return children_cpu() - c0


def reference_for(workload: str):
    """(function timing the workload's reference work, its nominal seconds)."""
    return (start_cpu, START_S) if workload == "tables" else (loop_cpu, LOOP_S)
