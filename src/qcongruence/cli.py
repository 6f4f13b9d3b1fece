"""
Command-line front end.

Two subcommands:

  show    print one construct: phi, lambda, sset, A, B, C, N
  verify  run claim sweeps over parameter grids and emit a report

Claims: binomsum, central, qcong, lemmas, identities, 2adic, sun, all.
`all` runs every proven claim and deliberately leaves out `sun`, which is an
open conjecture: request it explicitly, and a counterexample exits with
code 3 as data, not as a suite failure.

Grid flags --r --m --rho --n take a single integer or an inclusive range
`a..b`; a range with a negative start is attached with `=`, as in
`--r=-6..6`. A claim needs the flags its verifier.DOMAINS entry names, in
argument order; `lemmas` and `all`, which have no entry, list theirs in
_NEEDS; a `lemmas` task names its check's keyword arguments where
_tasks_for builds it. `show` reads _SHOW: each object's construct and that
construct's flags in argument order. Each flag, --d-max and `show --d` have
ceilings (GRID_LIMITS, D_MAX_LIMIT, SHOW_D_LIMIT); a value above one, or a
--d-max below 2, exits with code 2 before any work starts. Instances
outside a claim's domain (verifier.DOMAINS; for `lemmas`, a pair outside
constructs.pair_ok) are skipped and counted, never errored; `show` refuses
an (r, m) pair outside pair_ok as a usage error, and B and C, which take
no r, exit 2 on their constructs' DomainError. Exit codes: 0 all pass,
1 a proven claim failed, 2 usage error, 3 conjecture counterexample.

Reports are deterministic for a fixed spec: iteration is in sorted
parameter order, results are emitted in task order regardless of worker
completion, and --no-timestamp removes the only wall-clock field.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys

from . import cycmodfield, verifier
from .constructs import (a_poly, b_poly, c_poly, expand_product,
                         lambda_residue, n_alpha, pair_ok, s_set)
from .cyclotomic import phi, phi_at_one
from .exceptions import DomainError
from .verifier import Verdict

PROVEN = ("binomsum", "central", "qcong", "lemmas", "identities", "2adic")
CLAIMS = (*PROVEN, "sun", "all")

# the grid flags of the claims without a verifier.DOMAINS entry; every other
# claim needs its entry's parameter names, in argument order
_NEEDS = {"lemmas": ("r", "m", "rho"), "all": ("r", "m", "rho", "n")}

_PARAM_ORDER = ("r", "m", "rho", "n", "d", "s", "t", "h")

# Input ceilings, flag -> (largest |value|, most values in one range).
# `show` stays small under them: its largest products, A at r 49, m 10,
# n 100 and B at m 10, n 100 (about 50,000 coefficients each), took about
# 1 s and 40 MB each on a 2-core host. `verify` is not bounded by
# measurement: a grid's task count is the product of its flags' lengths,
# and one qcong task's cleared sum grows fast. At (r, m, rho, n) =
# (49, 10, 6, 40) it has 102,901 coefficients of up to 1,249 bits, 2.1 and
# 2.6 times the estimates rho*m*n^2/2 and 2*rho*n, and took 5 s and 77 MB
# to build on a 2-core host. Its worst case at these ceilings is unmeasured.
GRID_LIMITS = {"r": (50, 32), "m": (10, 10), "rho": (6, 6), "n": (100, 100)}
D_MAX_LIMIT = 100
SHOW_D_LIMIT = 10000


def _parse_range(text, limit, most):
    """'7' or '-3..4' to an inclusive list, with every |value| <= limit
    and at most `most` values."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"empty range {text}")
    else:
        lo = hi = int(text)
    if max(-lo, hi) > limit or hi - lo >= most:
        raise ValueError(f"{text} exceeds |value| <= {limit} or "
                         f"{most} values")
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# task construction and execution

# task kinds an instance runs, where they differ from its claim's name.
# identities stays two tasks: run as one, the benchmark's cli-sweep spec
# would go from 1,361 tasks to 1,265 and, from its measured per-task times
# (mean of 5 --jobs 1 runs, 2-core host), its median task from 0.100 to
# 0.114 ms and its 95th percentile from 2.39 to 2.67 ms.
_KINDS = {"identities": ("structure", "value_at_one")}

# task kind -> the verifier functions it runs, in report order, each with
# how many of the task's arguments it takes (a qcong task ends in
# full_polys, which only verify_q_congruence reads)
_VERIFIERS = {
    "binomsum": (("verify_binomial_sum", 4),),
    "central": (("verify_central_binomial", 2),),
    "qcong": (("verify_q_congruence", 5),
              ("verify_specialization_at_one", 4)),
    "structure": (("verify_structure_identity", 3),),
    "value_at_one": (("verify_value_identity", 3),),
    "2adic": (("verify_two_adic_bounds", 2),),
    "sun": (("verify_sun_conjecture", 1),),
}


def _tasks_for(claim, grid, d_max, full_polys):
    """Expand one claim over the grid into (kind, args) tasks plus a skip
    count: one per instance outside the claim's domain, or for `lemmas`
    one per (r, m) pair outside pair_ok. A lemma task's args are a dict,
    the keyword arguments of cycmodfield.check_<kind> and its verdict's
    params. Deterministic: sorted parameter order, no sets."""
    tasks = []
    skipped = 0
    if claim != "lemmas":
        extra = (full_polys,) if claim == "qcong" else ()
        names, admits, _ = verifier.DOMAINS[claim]
        for params in itertools.product(*(grid[f] for f in names)):
            if admits(*params):
                tasks += [(kind, params + extra)
                          for kind in _KINDS.get(claim, (claim,))]
            else:
                skipped += 1
        return tasks, skipped
    rhos = [rho for rho in grid["rho"] if rho >= 1]
    for r, m in itertools.product(grid["r"], grid["m"]):
        if not pair_ok(r, m):
            skipped += 1
            continue
        for d in range(2, d_max + 1):
            if math.gcd(d, m) == 1:
                tasks.append(("block_constant", dict(r=r, m=m, d=d)))
                tasks += [("block_sum", dict(r=r, m=m, rho=rho, d=d))
                          for rho in rhos]
                tasks += [("block_decomposition",
                           dict(r=r, m=m, d=d, s=s, t=t))
                          for s in (1, 2) for t in range(min(3, d))]
                tasks += [("mu_consistency",
                           dict(r=r, m=m, rho=rho, d=d, s=1, t=0))
                          for rho in rhos]
    tasks += [("sign_reduction", dict(m=m, d=d, s=s, h=1))
              for m in grid["m"] if m >= 2
              for d in range(2, d_max + 1) if math.gcd(d, m) == 1
              for s in (1, 2)]
    return tasks, skipped


def _run_task(task):
    """One task to a list of Verdicts. Top level so process pools can
    pickle it; functions are looked up per call, so patched ones run."""
    kind, args = task
    if kind in _VERIFIERS:
        return [getattr(verifier, name)(*args[:count])
                for name, count in _VERIFIERS[kind]]
    outcome = getattr(cycmodfield, f"check_{kind}")(**args)
    return [Verdict(kind, args, outcome.ok, outcome.lhs, outcome.rhs,
                    None if outcome.ok else {"detail": outcome.detail})]


def _collect(batches, fail_fast):
    """Concatenate verdict batches in order; with fail_fast, stop after the
    first batch holding a failure. Returns (verdicts, stopped)."""
    out = []
    for batch in batches:
        out.extend(batch)
        if fail_fast and any(not v.passed for v in batch):
            return out, True
    return out, False


def _run_all(tasks, jobs, fail_fast):
    """Evaluate tasks, preserving task order in the output."""
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return _collect((_run_task(t) for t in tasks), fail_fast)
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (8 * workers))
        out, stopped = _collect(pool.map(_run_task, tasks, chunksize=chunk),
                                fail_fast)
        if stopped:
            pool.shutdown(cancel_futures=True)
    return out, stopped


# ---------------------------------------------------------------------------
# report rendering

def _params_str(params):
    return " ".join(f"{k}={params[k]}" for k in _PARAM_ORDER if k in params)


def _render_text(spec, verdicts, counts, stopped, timestamp):
    buf = io.StringIO()
    buf.write(f"claim sweep: {spec['claim']}\n")
    if timestamp:
        buf.write(f"generated: {timestamp}\n")
    for v in verdicts:
        mark = "PASS" if v.passed else "FAIL"
        buf.write(f"{mark} {v.claim} {_params_str(v.params)} | "
                  f"{v.lhs} | {v.rhs}\n")
        if v.witness:
            buf.write(f"     witness: {json.dumps(v.witness, default=str)}\n")
    if stopped:
        buf.write("stopped at first failure (--fail-fast)\n")
    buf.write(f"pass {counts['pass']}  fail {counts['fail']}  "
              f"skip {counts['skip']}\n")
    return buf.getvalue()


def _verdict_dict(v):
    d = {"claim": v.claim, "params": v.params, "pass": v.passed,
         "lhs": v.lhs, "rhs": v.rhs}
    if v.witness is not None:
        d["witness"] = v.witness
    return d


def _render_json(spec, verdicts, counts, stopped, timestamp):
    doc = {"spec": spec, "counts": counts,
           "verdicts": [_verdict_dict(v) for v in verdicts]}
    if stopped:
        doc["stopped_early"] = True
    if timestamp:
        doc["timestamp"] = timestamp
    return json.dumps(doc, indent=2, default=str) + "\n"


def _render_csv(spec, verdicts, counts, stopped, timestamp):
    import csv
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated: {timestamp}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["claim", *_PARAM_ORDER, "pass", "lhs", "rhs", "witness"])
    for v in verdicts:
        row = [v.claim]
        row += [v.params.get(k, "") for k in _PARAM_ORDER]
        row += [str(v.passed).lower(), v.lhs, v.rhs,
                json.dumps(v.witness, default=str) if v.witness else ""]
        w.writerow(row)
    # as wide as the header: pass, fail and skip under the first three
    # parameters, blanks under the rest, and "stopped" under pass
    w.writerow(["counts", counts["pass"], counts["fail"], counts["skip"],
                *[""] * (len(_PARAM_ORDER) - 3),
                "stopped" if stopped else "", "", "", ""])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands

# show object -> (its construct, the construct's flags in argument order)
_SHOW = {"phi": (phi, ("d",)), "lambda": (lambda_residue, ("r", "m", "d")),
         "sset": (s_set, ("r", "m", "n")), "A": (a_poly, ("r", "m", "n")),
         "B": (b_poly, ("m", "n")), "C": (c_poly, ("m", "n")),
         "N": (n_alpha, ("r", "m", "n"))}


def cmd_show(args, parser):
    obj = args.object
    construct, flags = _SHOW[obj]
    for flag in flags:
        if getattr(args, flag) is None:
            parser.error(f"show {obj} needs --{flag}")
    limits = {f: GRID_LIMITS[f][0] for f in ("r", "m", "n")}
    limits["d"] = SHOW_D_LIMIT
    for flag, limit in limits.items():
        value = getattr(args, flag)
        if value is not None and abs(value) > limit:
            parser.error(f"--{flag} {value} exceeds |value| <= {limit}")
    if "r" in flags and "m" in flags and not pair_ok(args.r, args.m):
        parser.error(f"show {obj} needs m >= 2 and gcd(r, m) = 1")
    value = construct(*(getattr(args, flag) for flag in flags))
    if obj == "phi":
        out = [f"Phi_{args.d} = {value!r}"]
        if args.d >= 2:
            out.append(f"Phi_{args.d}(1) = {phi_at_one(args.d)}")
    elif obj == "sset":
        out = ["{" + ", ".join(map(str, value)) + "}"]
    elif isinstance(value, int):
        out = [str(value)]
    else:  # a factored product
        out = [f"{obj} = {value!r}", f"{obj} = {expand_product(value)!r}",
               f"{obj}(1) = {value.value_at_one()}"]
    print("\n".join(out))
    return 0


def cmd_verify(args, parser):
    claims = list(PROVEN) if args.claim == "all" else [args.claim]
    needed = _NEEDS.get(args.claim) or verifier.DOMAINS[args.claim][0]
    grid = {}
    for flag in ("r", "m", "rho", "n"):
        raw = getattr(args, flag)
        if raw is None:
            if flag in needed:
                parser.error(f"claim {args.claim} needs --{flag}")
            continue
        try:
            grid[flag] = _parse_range(raw, *GRID_LIMITS[flag])
        except ValueError as exc:
            parser.error(f"--{flag}: {exc}")
    if args.d_max > D_MAX_LIMIT:
        parser.error(f"--d-max {args.d_max} exceeds {D_MAX_LIMIT}")
    if args.d_max < 2:
        parser.error(f"--d-max {args.d_max}: need at least 2")
    if args.jobs < 1:
        parser.error(f"--jobs {args.jobs}: need at least 1")

    tasks = []
    skipped = 0
    for claim in claims:
        t, s = _tasks_for(claim, grid, args.d_max, args.full_polys)
        tasks += t
        skipped += s

    # open --out before any task runs, so a bad path costs no sweep
    try:
        fh = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror}")
    try:
        return _sweep(args, tasks, skipped, fh)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _sweep(args, tasks, skipped, fh):
    """Run the tasks, write the report to fh and return the exit code."""
    verdicts, stopped = _run_all(tasks, args.jobs, args.fail_fast)
    counts = {
        "pass": sum(1 for v in verdicts if v.passed),
        "fail": sum(1 for v in verdicts if not v.passed),
        "skip": skipped,
    }
    timestamp = None
    if not args.no_timestamp:
        import datetime
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    spec = {
        "command": "verify", "claim": args.claim,
        "r": args.r, "m": args.m, "rho": args.rho, "n": args.n,
        "d_max": args.d_max, "format": args.format,
        "full_polys": args.full_polys,
    }
    render = {"text": _render_text, "json": _render_json,
              "csv": _render_csv}[args.format]
    # a witness digest's at2 may pass the int -> str cap (json.dumps too)
    with verifier.unlimited_int_str():
        fh.write(render(spec, verdicts, counts, stopped, timestamp))

    proven_failed = any(
        not v.passed for v in verdicts if v.claim != "sun")
    sun_failed = any(not v.passed for v in verdicts if v.claim == "sun")
    if proven_failed:
        return 1
    if sun_failed:
        return 3
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qcongruence",
        description="exact verification of cyclotomic binomial-sum "
                    "divisibility claims")
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="print one construct")
    p_show.add_argument("object", choices=list(_SHOW))
    for flag in ("r", "m", "n"):
        p_show.add_argument(f"--{flag}", type=int,
                            help=f"|value| <= {GRID_LIMITS[flag][0]}")
    p_show.add_argument("--d", type=int, help=f"|value| <= {SHOW_D_LIMIT}")

    p_ver = sub.add_parser(
        "verify", help="run claim sweeps",
        description="A range with a negative start is attached with '=', "
                    "as in --r=-6..6.")
    p_ver.add_argument("claim", choices=CLAIMS)
    for flag, (limit, most) in GRID_LIMITS.items():
        p_ver.add_argument(f"--{flag}",
                           help=f"integer or inclusive range a..b; "
                                f"|value| <= {limit}, at most {most} values")
    p_ver.add_argument("--d-max", type=int, default=20,
                       help=f"bound for per-modulus checks, 2..{D_MAX_LIMIT} "
                            f"(default 20)")
    p_ver.add_argument("--format", choices=["text", "json", "csv"],
                       default="text")
    p_ver.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_ver.add_argument("--fail-fast", action="store_true")
    p_ver.add_argument("--full-polys", action="store_true",
                       help="full coefficient lists instead of digests")
    p_ver.add_argument("--no-timestamp", action="store_true")
    p_ver.add_argument("--out", help="write the report to a file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "show":
            return cmd_show(args, parser)
        return cmd_verify(args, parser)
    except DomainError as exc:
        parser.exit(2, f"domain error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
