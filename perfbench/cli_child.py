"""Run `qcongruence verify` and time each task.

Usage: python3 cli_child.py TIMES_PATH -- VERIFY_ARGS...

Equivalent to the `qcongruence` console script with the same arguments,
except that `cli._run_task` is wrapped with a clock read on either side, so
the --jobs 1 run also yields per-task latency. The per-task seconds are
written to TIMES_PATH as JSON; the exit code is the CLI's.
"""
import json
import sys
import time

from qcongruence import cli


def run(verify_args):
    """cli.main(verify_args) with per-task timing: (exit code, seconds)."""
    run_task = cli._run_task
    times = []

    def timed(task):
        t0 = time.perf_counter()
        out = run_task(task)
        times.append(time.perf_counter() - t0)
        return out

    cli._run_task = timed
    try:
        code = cli.main(verify_args)
    finally:
        cli._run_task = run_task
    return code, times


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py TIMES_PATH -- VERIFY_ARGS...")
    exit_code, task_times = run(sys.argv[3:])
    with open(sys.argv[1], "w") as fh:
        json.dump(task_times, fh)
    sys.exit(exit_code)
