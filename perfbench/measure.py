"""Timed sweeps, the traced run and the correctness gate.

End-to-end run (--trace 0). Every workload is a closed loop with one
client: a task starts when the previous one returns. Each round times
SETUP_PER_ROUND set-up processes, one sweep at --jobs 1 and one at --jobs 2,
reversing the order every other round, until the run's seconds are used up
(at least two rounds).

  library workloads  jobs 1: the tasks in order in this process, each timed.
                     jobs 2: the same tasks dealt to two forked worker
                     processes (started before timing, inheriting the warm
                     phi table), shards balanced by estimated cost.
  cli-sweep          jobs 2: `python -m qcongruence.cli verify all ...
                     --jobs 2`; jobs 1: the same through cli_child.py, which
                     also times each task. Wall time includes process start.

Metrics: verdicts_per_s and verdicts_per_s.jobs1 are verdicts per sweep
over the mean sweep wall time at --jobs 2 and 1; task_p50_ms and
task_p95_ms are percentiles over the sweep's tasks of each task's mean
--jobs 1 time (the task count is printed); parallel_eff is mean jobs-1 wall
over twice mean jobs-2 wall; setup_s is the median wall time of the run's
fresh processes that import the package, generate the inputs and warm the
phi cache (cli-sweep: a fresh `qcongruence verify` on a grid with no task);
peak_rss_mb is this process's peak RSS plus the largest peak among its
children. Every repetition is saved to perfbench/out/raw-*.json.

The 2-core host this was tuned on runs the same code up to 1.7 times faster
or slower from one second to the next, in spells of 1 to 20 seconds, with
no single outlying repetition: the whole run drifts, and so does the level
from one minute to the next. In one set of ten runs per workload, means of
the repetitions spread over a run varied less between runs than their
medians (quartile spread at most 0.21 against 0.30), and set-up times
varied less spread over the run than timed back to back.

Traced run (--trace 1). Rounds of an untraced and a traced --jobs 1 sweep
(cli-sweep adds an untraced --jobs 2 subprocess). Per-layer calls and
computed counts come from the first traced sweep and must repeat exactly in
every later one. Times are the median of their repetitions;
trace.overhead_frac is median traced over median untraced sweep wall,
minus 1.
The first traced sweep's spans are written to perfbench/out/.

Correctness is checked outside every timed region, on every run: every
verdict of every sweep passes, every sweep (jobs 1, jobs 2, traced or not)
gives the same verdict fingerprint, set-up processes succeed, and per
workload: _qcong_data is hit exactly once per instance (the at-1 call) and
never across instances; a seeded sample of Phi_d matches sympy; CLI reports
exit 0, count no failure and are byte-identical at --jobs 1 and 2 and
across rounds.
"""
import concurrent.futures
import contextlib
import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cli_child
import tracer
import workloads
from qcongruence import cli, cyclotomic, verifier

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_ROUNDS = 2
SETUP_PER_ROUND = 3
CHILD_TIMEOUT = 120
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CLI_MODULE = [sys.executable, "-m", "qcongruence.cli"]


class Gate:
    """Counts correctness checks and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def rounds(seconds, steps):
    """Run the steps round after round, reversing their order every other
    round, until one more round would end well past `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= MIN_ROUNDS and elapsed * (1 + 0.5 / done) > seconds:
            return done
        for step in steps if done % 2 == 0 else steps[::-1]:
            step()
        done += 1


def run_child(argv, gate, what):
    """Run a child process to completion; returns (wall seconds, stdout).
    The child leads a process group of its own, so that if it times out or
    this process is interrupted, the child and any worker it started are
    killed together before the error propagates."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, process_group=0) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    wall = time.perf_counter() - t0
    gate.check(proc.returncode == 0,
               f"{what}: exit {proc.returncode} {err[-300:]!r}")
    return wall, out


def setup_step(argv, gate, valid, walls):
    """A step that times SETUP_PER_ROUND fresh set-up processes. Spread over
    the rounds, they sample the whole run rather than one moment of it."""
    def step():
        for _ in range(SETUP_PER_ROUND):
            wall, out = run_child(argv, gate, "set-up")
            gate.check(valid(out), f"set-up output {out[-200:]!r}")
            walls.append(wall)
    # one untimed process first, so every timed one finds compiled
    # bytecode, as users do
    run_child(argv, gate, "set-up")
    return step


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def check_sweeps(sweeps, gate):
    """Every verdict passes and every sweep has the same fingerprint."""
    first = workloads.fingerprint(sweeps[0])
    for verdicts in sweeps:
        for batch in verdicts:
            for v in batch:
                gate.check(workloads.passed(v),
                           f"failed {workloads.record(v)}")
        gate.check(workloads.fingerprint(verdicts) == first,
                   "verdicts differ between sweeps")


def check_qcong_hygiene(deltas, tasks, gate):
    """_qcong_data: one miss and one hit (the at-1 call) per instance."""
    n = len(tasks)
    for hits, misses in deltas:
        gate.check(hits == misses == n,
                   f"_qcong_data: {hits} hits, {misses} misses, {n} instances")


def cache_delta(info_fn, before):
    after = info_fn()
    return after.hits - before.hits, after.misses - before.misses


def ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def e2e_metrics(count, raw, rss):
    """The end-to-end metrics from a run's raw repetitions (see the module
    docstring)."""
    per_task = [statistics.fmean(ts) for ts in zip(*raw["task"])]
    j1 = statistics.fmean(raw["jobs1"])
    j2 = statistics.fmean(raw["jobs2"])
    return {
        "verdicts_per_s": count / j2,
        "verdicts_per_s.jobs1": count / j1,
        "task_p50_ms": statistics.median(per_task) * 1000,
        "task_p95_ms": statistics.quantiles(per_task, n=20)[18] * 1000,
        "setup_s": statistics.median(raw["setup"]),
        "peak_rss_mb": rss,
        "parallel_eff": j1 / (2 * j2),
    }


def save_raw(raw, name, seed):
    with open(OUT / f"raw-{name}-seed{seed}.json", "w") as fh:
        json.dump(raw, fh)


def start_workers(pool):
    """Block until both workers have started and warmed up: each sleeps
    long enough that the second call cannot go to the first worker."""
    for _ in range(5):
        if len(set(pool.map(workloads.pid_after, [1.0, 1.0]))) == 2:
            return
    raise RuntimeError("pool workers did not start")


# ---------------------------------------------------------------------------
# end-to-end runs


def library_e2e(name, seed, seconds, gate, notes):
    tasks = workloads.generate(name, seed)
    raw = {"setup": [], "jobs1": [], "jobs2": [], "task": []}
    setup = setup_step(
        [sys.executable, str(HERE / "workloads.py"), name, str(seed)], gate,
        lambda out: out.strip() == str(len(tasks)).encode(), raw["setup"])
    workloads.warm(name, tasks)
    parts = workloads.shards(tasks)
    sweeps, qdeltas = [], []
    qinfo = verifier._qcong_data.cache_info
    phi0 = cyclotomic.phi.cache_info()

    def serial():
        before = qinfo()
        verdicts, task_times, wall = workloads.run_serial(name, tasks)
        qdeltas.append(cache_delta(qinfo, before))
        raw["jobs1"].append(wall)
        raw["task"].append(task_times)
        sweeps.append(verdicts)

    def pooled():
        t0 = time.perf_counter()
        futures = [pool.submit(workloads.run_shard, name, part)
                   for part in parts]
        results = [f.result() for f in futures]
        raw["jobs2"].append(time.perf_counter() - t0)
        verdicts = [None] * len(tasks)
        for indices, batches in results:
            for i, batch in zip(indices, batches):
                verdicts[i] = batch
        sweeps.append(verdicts)

    # Forked workers inherit the warm phi table. Unlike "spawn", "fork"
    # starts no resource-tracker process, which would outlive this one;
    # leaving the block joins both workers.
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=ctx) as pool:
        start_workers(pool)
        done = rounds(seconds, [setup, serial, pooled])
    rss = peak_rss_mb()
    save_raw(raw, name, seed)

    check_sweeps(sweeps, gate)
    if name == "qcong-grid":
        check_qcong_hygiene(qdeltas, tasks, gate)
    if name == "cyclo-table":
        for ok, what in workloads.sympy_gate(tasks, seed):
            gate.check(ok, what)
    if name != "cyclo-table":
        phi_hits = ratio(*cache_delta(cyclotomic.phi.cache_info, phi0))
        notes.append(f"phi cache hit ratio {phi_hits:.4f}")
    notes.append(f"{len(tasks)} tasks x {done} rounds")
    count = sum(map(len, sweeps[0]))
    return e2e_metrics(count, raw, rss)


def cli_e2e(seed, seconds, gate, notes):
    raw = {"setup": [], "jobs1": [], "jobs2": [], "task": []}
    setup = setup_step(
        [*CLI_MODULE, *workloads.cli_argv(workloads.CLI_EMPTY_SPEC, 2)],
        gate, lambda out: json.loads(out)["counts"]["pass"] == 0,
        raw["setup"])
    reports = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)

        def run_cli(prefix, jobs):
            out = tmp / f"report-jobs{jobs}.json"
            argv = [*prefix, *workloads.cli_argv(workloads.CLI_SPEC, jobs),
                    "--out", str(out)]
            wall, _ = run_child(argv, gate, f"verify --jobs {jobs}")
            reports.append(out.read_bytes() if out.exists() else b"")
            return wall

        def pooled():
            raw["jobs2"].append(run_cli(CLI_MODULE, 2))

        def serial():
            path = tmp / "times.json"
            raw["jobs1"].append(run_cli(
                [sys.executable, str(HERE / "cli_child.py"), str(path), "--"],
                1))
            raw["task"].append(json.loads(path.read_text()))

        done = rounds(seconds, [setup, pooled, serial])
    rss = peak_rss_mb()
    save_raw(raw, "cli-sweep", seed)

    count = check_cli_reports(reports, gate)
    notes.append(f"{len(raw['task'][0])} tasks x {done} rounds")
    return e2e_metrics(count, raw, rss)


def check_cli_reports(reports, gate):
    """Byte-identical reports, no failure counted, every verdict passing.
    Returns the number of verdicts per report."""
    for body in reports:
        gate.check(body == reports[0], "CLI reports differ")
    try:
        doc = json.loads(reports[0])
    except ValueError:
        gate.check(False, "CLI report is not JSON")
        return 0
    gate.check(doc["counts"]["fail"] == 0, f"CLI counts {doc['counts']}")
    for v in doc["verdicts"]:
        gate.check(v["pass"], f"failed {v['claim']} {v['params']}")
    return len(doc["verdicts"])


# ---------------------------------------------------------------------------
# traced runs


def traced_sweep(run, task_fn, samples, spans_path):
    """Run `run()` under the tracer; append this sweep's per-layer sample.
    Returns run()'s result."""
    phi_info = cyclotomic.phi.cache_info
    q_info = verifier._qcong_data.cache_info
    phi0, q0 = phi_info(), q_info()
    with tracer.Tracer([task_fn]) as t:
        result = run()
    totals = t.layer_totals()
    sample = {
        "exact": {
            **{f"{k}.calls": totals[k][0] if k in totals else 0
               for k in tracer.LAYERS},
            **{k: t.counts[k] for k in tracer.COMPUTED},
            "phi": cache_delta(phi_info, phi0),
            "qcong_data": cache_delta(q_info, q0),
        },
        "self": {k: totals[k][1] if k in totals else 0.0
                 for k in tracer.LAYERS},
        "task_busy": totals[task_fn[0]][2],
    }
    if not samples:
        t.write(spans_path)
    samples.append(sample)
    return result


def layer_metrics(samples, overhead, gate, busy=0.0, pool_overhead=0.0):
    exact = samples[0]["exact"]
    for s in samples[1:]:
        gate.check(s["exact"] == exact, "computed counts differ between "
                   "traced sweeps of the same inputs")
    m = {k: v for k, v in exact.items() if k not in ("phi", "qcong_data")}
    for k in tracer.LAYERS:
        m[f"{k}.self_s"] = statistics.median([s["self"][k] for s in samples])
    m["cyclotomic.phi.hit_ratio"] = ratio(*exact["phi"])
    m["verifier.qcong_data.hit_ratio"] = ratio(*exact["qcong_data"])
    m["cli.task_busy_s"] = busy
    m["cli.pool_overhead_s"] = pool_overhead
    m["trace.overhead_frac"] = overhead
    return m


def library_trace(name, seed, seconds, gate, notes):
    tasks = workloads.generate(name, seed)
    workloads.warm(name, tasks)
    plain, traced, sweeps, samples, qdeltas = [], [], [], [], []
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"

    def sweep():
        before = verifier._qcong_data.cache_info()
        result = workloads.run_serial(name, tasks)
        qdeltas.append(cache_delta(verifier._qcong_data.cache_info, before))
        return result

    def untraced():
        verdicts, _, wall = sweep()
        plain.append(wall)
        sweeps.append(verdicts)

    def traced_run():
        if name == "cyclo-table":
            # run_serial clears it too; clearing first makes cache_info
            # count from zero for this sweep
            cyclotomic.phi.cache_clear()
        verdicts, _, wall = traced_sweep(sweep, ("task", (workloads,
                                                          "run_task")),
                                         samples, spans_path)
        traced.append(wall)
        sweeps.append(verdicts)

    done = rounds(seconds, [untraced, traced_run])
    check_sweeps(sweeps, gate)
    if name == "qcong-grid":
        check_qcong_hygiene(qdeltas, tasks, gate)
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    notes.append(f"{len(tasks)} tasks x {done} rounds; spans in {spans_path}")
    return layer_metrics(samples, overhead, gate)


def cli_trace(seed, seconds, gate, notes):
    plain, traced, busy, j2, reports, samples = [], [], [], [], [], []
    spans_path = OUT / f"spans-cli-sweep-seed{seed}.jsonl"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out = Path(tmp) / "report.json"
        argv = [*workloads.cli_argv(workloads.CLI_SPEC, 1), "--out", str(out)]

        def in_process(run):
            # a fresh CLI process starts with an empty phi table
            cyclotomic.phi.cache_clear()
            t0 = time.perf_counter()
            code = run()
            wall = time.perf_counter() - t0
            gate.check(code == 0, f"verify exit {code}")
            reports.append(out.read_bytes())
            return wall

        def untraced():
            task_times = []

            def run():
                code, seconds_each = cli_child.run(argv)
                task_times.extend(seconds_each)
                return code

            plain.append(in_process(run))
            busy.append(sum(task_times))

        def traced_run():
            traced.append(in_process(lambda: traced_sweep(
                lambda: cli.main(argv), ("cli.task", (cli, "_run_task")),
                samples, spans_path)))

        def pooled():
            argv2 = [*CLI_MODULE, *workloads.cli_argv(workloads.CLI_SPEC, 2),
                     "--out", str(Path(tmp) / "report2.json")]
            j2.append(run_child(argv2, gate, "verify --jobs 2")[0])
            reports.append((Path(tmp) / "report2.json").read_bytes())

        done = rounds(seconds, [untraced, traced_run, pooled])
    check_cli_reports(reports, gate)
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    task_busy = statistics.median([s["task_busy"] for s in samples])
    pool_overhead = statistics.median(j2) - statistics.median(busy) / 2
    notes.append(f"{done} rounds; spans in {spans_path}; pool overhead "
                 f"uses the untraced task busy time")
    return layer_metrics(samples, overhead, gate, task_busy, pool_overhead)


# ---------------------------------------------------------------------------


def main(args):
    # SIGTERM unwinds like an exception, so pools and children are stopped
    # and waited for on that way out too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    gate = Gate()
    notes = []
    if args.workload == "cli-sweep":
        run = cli_trace if args.trace else cli_e2e
        values = run(args.seed, args.seconds, gate, notes)
    else:
        run = library_trace if args.trace else library_e2e
        values = run(args.workload, args.seed, args.seconds, gate, notes)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'end-to-end'}")
    for note in notes:
        print(f"  {note}")
    for m in wanted:
        print(f"  {m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  failed_frac {gate.failed / gate.attempted:g} "
          f"({gate.failed} of {gate.attempted} checks)")
    for note in gate.notes:
        print(f"  FAILED: {note}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0
