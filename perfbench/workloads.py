"""Seeded inputs, task execution and correctness gates for the benchmark.

Each workload is a list of tasks generated from the seed before any timing
starts; the library only ever sees those parameter tuples. Strata are fixed
so every seed yields the same count of tasks per band, and the seeded
choices swap instances of near-equal cost, so the size profile (and with it
the expected sweep time) is the same for every seed.

Tasks run through `run_task`, which calls into the library by module
attribute (`cyclotomic.phi`, `verifier.verify_q_congruence`, ...). The
tracer patches exactly those attributes, so traced and untraced runs go
through the same code here.

Run as a script (`python3 perfbench/workloads.py WORKLOAD SEED`) it performs
a workload's set-up in a fresh process: import qcongruence, generate the
inputs and warm the phi cache. The benchmark times that process as setup_s.
"""
from __future__ import annotations

import hashlib
import math
import os
import random
import sys
import time

from qcongruence import cyclotomic, cycmodfield, verifier
from qcongruence.bigpoly import IntPoly

# Criterion-6 pairs, grouped so the two r of one m are adjacent: instances
# that differ only in r have nearly equal cost.
QCONG_PAIRS = ((1, 2), (-1, 2), (1, 3), (2, 3), (1, 4), (3, 4))
QCONG_RHOS = (1, 2)
QCONG_CORE_N = range(1, 17)
QCONG_TOP_BAND = (17, 18)

LEMMA_D = range(2, 29)
LEMMA_PAIRS_PER_D = 6
LEMMA_RHOS = (1, 2, 3)
LEMMA_S = range(4)

CYCLO_N = range(2, 1402)
CYCLO_BAND = 50
CYCLO_PER_BAND = 30
CYCLO_SYMPY_SAMPLE = 12

CLI_SPEC = ["verify", "all", "--r", "1..3", "--m", "2..4", "--rho", "1..2",
            "--n", "1..16", "--d-max", "20", "--format", "json",
            "--no-timestamp"]
# m = 1 is outside every claim's domain and n = 1 outside central/2adic,
# so this spec expands to no task at all: a bare process start.
CLI_EMPTY_SPEC = ["verify", "all", "--r", "1", "--m", "1", "--rho", "1",
                  "--n", "1", "--format", "json", "--no-timestamp"]


def theorem_grid():
    """All (r, m) with m in [2,6], r in [-6,6], gcd 1, r/m not integral."""
    return [(r, m) for m in range(2, 7) for r in range(-6, 7)
            if math.gcd(r, m) == 1 and r % m != 0]


def generate(workload, seed):
    """The workload's task list for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "qcong-grid":
        # Every (pair, rho) at every n of the core range, plus one instance
        # per (pair, rho) in the top band: the seed decides which of the two
        # r of each m gets the lower n, so the band's cost barely moves.
        tasks = [("qcong", (r, m, rho, n)) for rho in QCONG_RHOS
                 for r, m in QCONG_PAIRS for n in QCONG_CORE_N]
        for rho in QCONG_RHOS:
            for i in range(0, len(QCONG_PAIRS), 2):
                band = list(QCONG_TOP_BAND)
                rng.shuffle(band)
                for (r, m), n in zip(QCONG_PAIRS[i:i + 2], band):
                    tasks.append(("qcong", (r, m, rho, n)))
        return tasks
    if workload == "lemmas-grid":
        # Cost depends on d, not on the pair: a fixed count of seeded pairs
        # per d, every rho, every block s with a seeded offset t.
        grid = theorem_grid()
        tasks = []
        for d in LEMMA_D:
            eligible = [p for p in grid if math.gcd(d, p[1]) == 1]
            for r, m in sorted(rng.sample(eligible, LEMMA_PAIRS_PER_D)):
                tasks.append(("block_constant", (r, m, d)))
                tasks += [("block_sum", (r, m, rho, d)) for rho in LEMMA_RHOS]
                tasks += [("block_decomposition", (r, m, d, s,
                                                   rng.randrange(d)))
                          for s in LEMMA_S]
        return tasks
    if workload == "cyclo-table":
        # A fixed count of seeded n from every band of consecutive n.
        tasks = []
        for lo in range(CYCLO_N.start, CYCLO_N.stop, CYCLO_BAND):
            band = range(lo, min(lo + CYCLO_BAND, CYCLO_N.stop))
            tasks += [("cyclo", (n,))
                      for n in sorted(rng.sample(band, CYCLO_PER_BAND))]
        return tasks
    if workload == "cli-sweep":
        # The spec is fixed, so reports can be compared byte for byte.
        return []
    raise ValueError(f"unknown workload {workload}")


def warm(workload, tasks):
    """Fill the phi cache for every index the tasks reach. cyclo-table
    measures the table build itself, so it starts cold instead."""
    if workload == "qcong-grid":
        top = max(2 * m * n + abs(r) for _, (r, m, _, n) in tasks)
    elif workload == "lemmas-grid":
        top = max(map(_modulus, tasks))
    else:
        return
    for d in range(1, top + 1):
        cyclotomic.phi(d)


def run_task(task):
    """One task to its list of verdicts (Verdict, CheckOutcome or tuple)."""
    kind, args = task
    if kind == "qcong":
        # paired as `qcongruence verify qcong` pairs them
        return [verifier.verify_q_congruence(*args),
                verifier.verify_specialization_at_one(*args)]
    if kind == "cyclo":
        (n,) = args
        ds = [d for d in cyclotomic.divisors(n) if d >= 2]
        prod = IntPoly(1)
        for d in ds:
            prod = prod * cyclotomic.phi(d)
        at_one = all(cyclotomic.phi(d).evaluate(1) == cyclotomic.phi_at_one(d)
                     for d in ds)
        return [("split", n, prod == cyclotomic.q_int(n).base),
                ("phi_at_one", n, at_one)]
    return [getattr(cycmodfield, f"check_{kind}")(*args)]


def run_serial(workload, tasks):
    """Run tasks in order in this process, timing each.
    Returns (verdict lists, per-task seconds, sweep seconds)."""
    if workload == "cyclo-table":
        cyclotomic.phi.cache_clear()
    clock = time.perf_counter
    out = []
    times = []
    start = clock()
    for task in tasks:
        t0 = clock()
        out.append(run_task(task))
        times.append(clock() - t0)
    return out, times, clock() - start


def run_shard(workload, shard):
    """Pool entry point: run (index, task) pairs in order; returns the
    indices and their verdict lists."""
    verdicts, _, _ = run_serial(workload, [t for _, t in shard])
    return [i for i, _ in shard], verdicts


def pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def shards(tasks, ways=2):
    """Deal tasks to `ways` shards, heaviest first in snake order, so each
    shard gets a near-equal share of the estimated cost."""
    order = sorted(range(len(tasks)), key=lambda i: -cost_estimate(tasks[i]))
    out = [[] for _ in range(ways)]
    for rank, i in enumerate(order):
        lap, pos = divmod(rank, ways)
        out[pos if lap % 2 == 0 else ways - 1 - pos].append((i, tasks[i]))
    return [sorted(s) for s in out]


def cost_estimate(task):
    """A rough relative cost, used only to balance pool shards."""
    kind, args = task
    if kind == "qcong":
        _, m, rho, n = args
        return (m * n) ** 4 * rho ** 2
    if kind == "cyclo":
        return args[0] * len(cyclotomic.divisors(args[0]))
    return _modulus(task) ** (3 if kind == "block_sum" else 2)


def _modulus(task):
    """d of a per-modulus check task."""
    kind, args = task
    return args[3] if kind == "block_sum" else args[2]


# ---------------------------------------------------------------------------
# correctness


def record(v):
    """A verdict as a plain comparable tuple."""
    if isinstance(v, tuple):
        return v
    if isinstance(v, cycmodfield.CheckOutcome):
        return (v.label, v.ok, v.lhs, v.rhs)
    return (v.claim, tuple(sorted(v.params.items())), v.passed, v.lhs, v.rhs)


def passed(v):
    if isinstance(v, tuple):
        return v[-1] is True
    return bool(v)


def fingerprint(verdict_lists):
    """sha256 over every verdict of a sweep, in task order."""
    h = hashlib.sha256()
    for batch in verdict_lists:
        for v in batch:
            h.update(repr(record(v)).encode())
    return h.hexdigest()


def sympy_gate(tasks, seed):
    """Compare a seeded sample of Phi_d, d dividing some task's n, with
    sympy's cyclotomic_poly. Returns a list of (ok, description)."""
    import sympy

    rng = random.Random(f"sympy:{seed}")
    pool = sorted({d for _, (n,) in tasks for d in cyclotomic.divisors(n)
                   if d >= 2})
    sample = rng.sample(pool, CYCLO_SYMPY_SAMPLE)
    x = sympy.Symbol("x")
    out = []
    for d in sample:
        ref = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
        ok = list(cyclotomic.phi(d).coeffs) == [int(c) for c in reversed(ref)]
        out.append((ok, f"Phi_{d} differs from sympy"))
    return out


def cli_argv(spec, jobs):
    return [*spec, "--jobs", str(jobs)]


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    job = generate(name, seed)
    warm(name, job)
    print(len(job))
