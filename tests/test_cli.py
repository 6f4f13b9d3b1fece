"""Command line: output formats, exit codes, determinism."""

import concurrent.futures
import csv
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from qcongruence import cli, verifier
from qcongruence.verifier import Verdict


def run_main(argv):
    return cli.main(argv)


def test_show_a(capsys):
    assert run_main(["show", "A", "--r", "1", "--m", "2", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "A = Phi_5" in out
    assert "q^4 + q^3 + q^2 + q + 1" in out
    assert "A(1) = 5" in out


def test_show_phi(capsys):
    assert run_main(["show", "phi", "--d", "12"]) == 0
    out = capsys.readouterr().out
    assert "Phi_12 = q^4 - q^2 + 1" in out
    assert "Phi_12(1) = 1" in out


def test_show_lambda_and_sset(capsys):
    assert run_main(["show", "lambda", "--r", "1", "--m", "2",
                     "--d", "5"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_main(["show", "sset", "--r", "1", "--m", "2", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "{3, 7, 9}"


def test_show_n(capsys):
    assert run_main(["show", "N", "--r", "1", "--m", "2", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "15"


# Exact stdout of every `show` object. B and C use m = 3, so a construct
# handed its flags in the wrong order prints something else.
SHOW_STDOUT = {
    "phi --d 1": "Phi_1 = q - 1\n",
    "phi --d 12": "Phi_12 = q^4 - q^2 + 1\nPhi_12(1) = 1\n",
    "lambda --r 2 --m 3 --d 7": "4\n",
    "sset --r 2 --m 3 --n 4": "{5, 8, 11}\n",
    "N --r 2 --m 3 --n 4": "440\n",
    "A --r 1 --m 2 --n 3":
        "A = Phi_5\nA = q^4 + q^3 + q^2 + q + 1\nA(1) = 5\n",
    "B --m 3 --n 2":
        "B = Phi_3^2 * Phi_6\n"
        "B = q^6 + q^5 + 2*q^4 + q^3 + 2*q^2 + q + 1\nB(1) = 9\n",
    # no d shares a factor with m = 1: the empty product
    "B --m 1 --n 4": "B = 1\nB = 1\nB(1) = 1\n",
    "C --m 3 --n 4":
        "C = Phi_2 * Phi_4\nC = q^3 + q^2 + q + 1\nC(1) = 4\n",
}


@pytest.mark.parametrize("argv", SHOW_STDOUT)
def test_show_output_pinned(argv, capsys):
    assert run_main(["show", *argv.split()]) == 0
    assert capsys.readouterr().out == SHOW_STDOUT[argv]


def test_show_missing_flag_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        run_main(["show", "phi"])
    assert err.value.code == 2


# explicit ids keep each row's name when a row is added or removed
@pytest.mark.parametrize("obj,flags", [
    ("lambda", ["--d", "3"]), ("sset", ["--n", "3"]), ("A", ["--n", "3"]),
    ("N", ["--n", "3"])],
    ids=["lambda-flags0", "sset-flags1", "A-flags2", "N-flags4"])
@pytest.mark.parametrize("r,m", [(2, 4), (0, 1), (3, 1), (1, 0)])
def test_show_refuses_pair_outside_pair_ok(obj, flags, r, m, capsys):
    # (2, 4) used to print the constructs of 1/2 with exit code 0
    with pytest.raises(SystemExit) as err:
        run_main(["show", obj, f"--r={r}", f"--m={m}", *flags])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("obj", ["B", "C"])
def test_show_b_and_c_refuse_m_0(obj, capsys):
    # B and C take (m, n) and no pair; their constructs' DomainError exits 2
    with pytest.raises(SystemExit) as err:
        run_main(["show", obj, "--m", "0", "--n", "3"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_json_schema(capsys):
    code = run_main(["verify", "qcong", "--r", "1", "--m", "2",
                     "--rho", "1", "--n", "3", "--format", "json",
                     "--no-timestamp", "--jobs", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"spec", "counts", "verdicts"}
    assert doc["counts"] == {"pass": 2, "fail": 0, "skip": 0}
    claims = [v["claim"] for v in doc["verdicts"]]
    assert claims == ["qcong", "qcong_at_1"]
    first = doc["verdicts"][0]
    assert first["params"] == {"r": 1, "m": 2, "rho": 1, "n": 3}
    assert "'degree': 9" in first["lhs"]
    assert "'shift': -8" in first["lhs"]


def test_verify_skip_counting(capsys):
    # m=2 and even r is skipped, never errored
    code = run_main(["verify", "binomsum", "--r", "1..4", "--m", "2",
                     "--rho", "1", "--n", "1..2", "--format", "json",
                     "--no-timestamp", "--jobs", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["skip"] == 4   # r in {2, 4}, two n each
    assert doc["counts"]["pass"] == 4   # r in {1, 3}
    assert all(v["params"]["r"] % 2 == 1 for v in doc["verdicts"])


def test_verify_range_rejects_garbage():
    with pytest.raises(SystemExit) as err:
        run_main(["verify", "binomsum", "--r", "5..1", "--m", "2",
                  "--rho", "1", "--n", "1"])
    assert err.value.code == 2


def test_verify_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        run_main(["verify", "binomsum", "--r", "1"])
    assert err.value.code == 2


def test_exit_code_1_on_proven_claim_failure(monkeypatch, capsys):
    def fake(r, m, rho, n):
        return Verdict("binomsum", {"r": r, "m": m, "rho": rho, "n": n},
                       False, "forced", "failure", {"why": "test"})
    monkeypatch.setattr(verifier, "verify_binomial_sum", fake)
    code = run_main(["verify", "binomsum", "--r", "1", "--m", "2",
                     "--rho", "1", "--n", "1", "--no-timestamp",
                     "--jobs", "1"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_code_3_on_conjecture_counterexample(monkeypatch, capsys):
    def fake(n):
        return Verdict("sun", {"n": n}, False, "forced", "counterexample",
                       {"n": n})
    monkeypatch.setattr(verifier, "verify_sun_conjecture", fake)
    code = run_main(["verify", "sun", "--n", "2", "--no-timestamp",
                     "--jobs", "1"])
    assert code == 3
    assert "FAIL sun" in capsys.readouterr().out


def test_fail_fast_stops_early(monkeypatch, capsys):
    calls = []

    def fake(r, m, rho, n):
        calls.append(n)
        return Verdict("binomsum", {"r": r, "m": m, "rho": rho, "n": n},
                       n < 2, "x", "y", None)
    monkeypatch.setattr(verifier, "verify_binomial_sum", fake)
    code = run_main(["verify", "binomsum", "--r", "1", "--m", "2",
                     "--rho", "1", "--n", "1..9", "--fail-fast",
                     "--no-timestamp", "--jobs", "1"])
    assert code == 1
    assert calls == [1, 2]
    assert "stopped at first failure" in capsys.readouterr().out


def test_csv_format(capsys):
    code = run_main(["verify", "central", "--rho", "2", "--n", "2..3",
                     "--format", "csv", "--no-timestamp", "--jobs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("claim,r,m,rho,n,d,s,t,h,pass")
    assert lines[1].startswith("central,,,2,2,,,,,true")
    assert lines[-1].startswith("counts,2,0,0")
    # every row, the counts row too, is as wide as the header
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows)


def test_report_determinism(tmp_path):
    spec = ["verify", "all", "--r", "1..2", "--m", "2..3", "--rho", "1",
            "--n", "1..3", "--d-max", "6", "--format", "json",
            "--no-timestamp"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_main(spec + ["--jobs", "1", "--out", str(a)]) == 0
    assert run_main(spec + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("where", ["missing/report.txt", "."])
def test_unwritable_out_exits_2_before_work(where, tmp_path, monkeypatch,
                                            capsys):
    # a missing directory, or a directory itself: refused before any task
    monkeypatch.setattr(cli, "_run_task", _no_work)
    with pytest.raises(SystemExit) as err:
        run_main(["verify", "central", "--rho", "2", "--n", "2..5",
                  "--jobs", "1", "--out", str(tmp_path / where)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("jobs", [["--jobs", "0"], ["--jobs=-4"]])
def test_jobs_below_one_exits_2_before_work(jobs, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_task", _no_work)
    with pytest.raises(SystemExit) as err:
        run_main(["verify", "central", "--rho", "2", "--n", "2..5"] + jobs)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--jobs" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_timestamp_present_by_default(capsys):
    run_main(["verify", "sun", "--n", "2", "--jobs", "1"])
    assert "generated:" in capsys.readouterr().out


def test_console_script_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "qcongruence.cli", "verify", "central",
         "--rho", "2", "--n", "2..4", "--format", "json", "--no-timestamp",
         "--jobs", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["counts"] == {"pass": 3, "fail": 0, "skip": 0}


def test_cli_import_leaves_unused_modules_unloaded():
    """The pool, csv and datetime load only when used; the value classes
    need no dataclasses. Checked in a fresh interpreter without site."""
    lazy = ("dataclasses", "concurrent.futures", "csv", "datetime")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, qcongruence.cli; "
         f"print([m for m in {lazy!r} if m in sys.modules])"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# worker pool

def test_jobs_clamped_to_cpus_and_tasks(monkeypatch):
    seen = []

    class FakePool:
        """Records max_workers and runs the map in this process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # the pooled branch imports the executor from here when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    base = ["verify", "binomsum", "--r", "1", "--m", "2", "--rho", "1",
            "--no-timestamp"]
    assert run_main(base + ["--n", "1..3", "--jobs", "64"]) == 0
    assert run_main(base + ["--n", "1..10", "--jobs", "64"]) == 0
    assert run_main(base + ["--n", "1..10", "--jobs", "3"]) == 0
    assert run_main(base + ["--n", "1..10", "--jobs", "1"]) == 0
    assert seen == [3, 4, 3]


def test_fail_fast_in_pool_stops_at_first_failure_in_task_order(
        monkeypatch, tmp_path):
    def fake(r, m, rho, n):
        return Verdict("binomsum", {"r": r, "m": m, "rho": rho, "n": n},
                       n not in (4, 7), "x", "y", None)
    # forked workers inherit the patched verifier
    monkeypatch.setattr(verifier, "verify_binomial_sum", fake)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    spec = ["verify", "binomsum", "--r", "1", "--m", "2", "--rho", "1",
            "--n", "1..9", "--fail-fast", "--format", "json",
            "--no-timestamp"]
    pooled, serial = tmp_path / "pooled.json", tmp_path / "serial.json"
    assert run_main(spec + ["--jobs", "2", "--out", str(pooled)]) == 1
    assert run_main(spec + ["--jobs", "1", "--out", str(serial)]) == 1
    doc = json.loads(pooled.read_text())
    assert [v["params"]["n"] for v in doc["verdicts"]] == [1, 2, 3, 4]
    assert doc["stopped_early"]
    assert pooled.read_bytes() == serial.read_bytes()


# ---------------------------------------------------------------------------
# input ceilings

def _no_work(*args, **kwargs):
    raise AssertionError("work started for an out-of-bounds input")


@pytest.mark.parametrize("argv", [
    ["verify", "binomsum", "--r", "51", "--m", "2", "--rho", "1", "--n", "1"],
    ["verify", "binomsum", "--r=-51..1", "--m", "2", "--rho", "1",
     "--n", "1"],
    ["verify", "binomsum", "--r", "1..33", "--m", "2", "--rho", "1",
     "--n", "1"],
    ["verify", "binomsum", "--r", "1", "--m", "11", "--rho", "1", "--n", "1"],
    ["verify", "binomsum", "--r", "1", "--m", "2", "--rho", "7", "--n", "1"],
    ["verify", "binomsum", "--r", "1", "--m", "2", "--rho", "1",
     "--n", "101"],
    ["verify", "sun", "--n", "0..100"],
    ["verify", "lemmas", "--r", "1", "--m", "2", "--rho", "1",
     "--d-max", "101"],
    # every per-modulus check needs d >= 2, so a lower --d-max checks nothing
    ["verify", "lemmas", "--r", "1", "--m", "2", "--rho", "1", "--d-max=-1"],
    ["verify", "lemmas", "--r", "1", "--m", "2", "--rho", "1",
     "--d-max", "1"],
    ["show", "phi", "--d", "10001"],
    ["show", "N", "--r", "1", "--m", "2", "--n", "101"],
])
def test_input_above_ceiling_exits_2_before_work(argv, monkeypatch):
    for name in ("_tasks_for", "_run_all"):
        monkeypatch.setattr(cli, name, _no_work)
    # `show` calls its constructs through its table
    for obj, (_, flags) in cli._SHOW.items():
        monkeypatch.setitem(cli._SHOW, obj, (_no_work, flags))
    with pytest.raises(SystemExit) as err:
        run_main(argv)
    assert err.value.code == 2


def test_ranges_at_the_ceiling_are_accepted():
    assert cli._parse_range("-50..-19", 50, 32) == list(range(-50, -18))
    assert len(cli._parse_range("1..100", 100, 100)) == 100
    with pytest.raises(ValueError):
        cli._parse_range("0..100", 100, 100)


def test_readme_commands_run(monkeypatch, capsys):
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    lines = [shlex.split(ln)[1:] for ln in readme.read_text().splitlines()
             if ln.startswith("    qcongruence ")]
    assert any("--r=-6..6" in argv for argv in lines)
    # parse and bound-check every example, but run no sweep
    monkeypatch.setattr(cli, "_run_all", lambda tasks, jobs, ff: ([], False))
    for argv in lines:
        assert run_main(argv) == 0, argv
    capsys.readouterr()


def test_negative_range_start(capsys):
    code = run_main(["verify", "binomsum", "--r=-3..3", "--m", "2",
                     "--rho", "1", "--n", "2", "--format", "json",
                     "--no-timestamp", "--jobs", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [v["params"]["r"] for v in doc["verdicts"]] == [-3, -1, 1, 3]


# ---------------------------------------------------------------------------
# pinned report bytes

PINNED_SPEC = ["verify", "all", "--r=-3..3", "--m", "2..4", "--rho", "1..3",
               "--n", "1..8", "--d-max", "12", "--no-timestamp"]
PINNED_SHA256 = {
    "text": "039cf5f6a4bfb189213bd4ee7a67ac458a2d486f5e7eb2e731cc477e1f1002af",
    "json": "5743714dfd2914159ace57af84d1499216c172801774606c21697ea35afa5535",
    # taken when the counts row was padded to the header's 13 fields
    "csv": "3fb8f555315af8872f8aaadc6539070c8ad314c044811560cd4df8095d7e14da",
}


@pytest.mark.parametrize("fmt,jobs", [("text", 1), ("json", 1), ("csv", 1),
                                      ("json", 2)])
def test_report_bytes_pinned(fmt, jobs, tmp_path):
    out = tmp_path / f"report.{fmt}"
    assert run_main(PINNED_SPEC + ["--format", fmt, "--jobs", str(jobs),
                                   "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SHA256[fmt]


# The benchmark's cli-sweep spec; hash taken before the q-congruence's
# cleared sum moved to the binomial recurrence.
SWEEP_SPEC = ["verify", "all", "--r", "1..3", "--m", "2..4", "--rho", "1..2",
              "--n", "1..16", "--d-max", "20", "--format", "json",
              "--no-timestamp"]
SWEEP_SHA256 = (
    "9cc18e2d8a6b69bc61e84e1678c32ef9de69d792057d5f9beab3060b23bfb790")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_report_bytes_pinned(jobs, tmp_path):
    out = tmp_path / "report.json"
    assert run_main(SWEEP_SPEC + ["--jobs", str(jobs),
                                  "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256


# The grid straddles every domain boundary: m = 1, non-coprime pairs,
# rho <= 0, n = 0 and n = 1. Hash and counts were taken before the domains
# moved into the library, so skips stay counted as they were.
BOUNDARY_SPEC = ["verify", "all", "--r=-2..2", "--m", "1..4", "--rho=-1..2",
                 "--n", "0..4", "--d-max", "9", "--no-timestamp",
                 "--format", "json"]
BOUNDARY_SHA256 = (
    "35476bda9c8918128255d6574307a0e6baf8d8d6ef3b15d156d1697a312cdc7e")


@pytest.mark.parametrize("jobs", [1, 2])
def test_skips_at_the_domain_boundary_pinned(jobs, tmp_path):
    out = tmp_path / "report.json"
    assert run_main(BOUNDARY_SPEC + ["--jobs", str(jobs),
                                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BOUNDARY_SHA256
    assert json.loads(out.read_text())["counts"] == {
        "pass": 679, "fail": 0, "skip": 783}


# Single claims at the grid ceilings (r 49 is the largest r coprime to m 10).
# Hashes taken before the binomial sums, n_alpha, value_at_one and the
# central bridge moved from a Fraction per step to integer recurrences;
# the 2adic and sun hashes before binom(2k, k) became one shared recurrence
# and the 2-adic bounds moved to valuations.
CEILING_SHA256 = {
    "binomsum --r 49 --m 10 --rho 6 --n 1..100":
        "06d64f9e4482842ce4a02b3942934e9465b685d5c3c7f6eebccfd6a8f095884b",
    "central --rho 1..6 --n 1..100":
        "8af76a3a4ad858ab77edad4a2883a39f5ac4055441ed88037938c7d8066bafa2",
    "identities --r 49 --m 10 --n 1..100":
        "dd41722315f0c79decb25f4786d558f1143f2714d1c68b010deb5f32a2965563",
    "2adic --rho 1..6 --n 1..100":
        "816a5c92851206a1104b1b88075b908cd14dfe23688b67c7651bde96506f257f",
    "sun --n 1..100":
        "8b33323337f7b2b7cd943d1a41f777bfd365b47a96cce41d1385f746308f9ac0",
    # the only lemma input whose cross products (d >= 64) take mul_lists'
    # Kronecker path
    "lemmas --r 1 --m 2 --rho 1 --d-max 100":
        "989ebd877a03aa9db68678d3ca91d5e1693bd9a93378fbef8b6a080748256f81",
    # the cleared sum's at2 has more than 4,300 digits, CPython's default
    # int -> str cap; before the digests lifted it, this exited 1 with a
    # ValueError, so the hash could only be taken after that fix
    "qcong --r 1 --m 2 --rho 6 --n 39":
        "b1172cd6085a9f0f8e1760eeb301a82648c0d3f6e7785836a5b7e23d1aa19c24",
    # a sweep at the most negative r: each n resumes the cleared sum from
    # n - 1, and 4 of the 10 summands land above its running low exponent
    "qcong --r=-49 --m 10 --rho 6 --n 1..10":
        "d206bcb874e86e9cf603c30212d40b630308ec4513acccadea5f3a8ded8d74f8",
}


def _ceiling_id(spec):
    """The claim's name, and "sweep" for a q-congruence over a range of n."""
    claim = spec.split()[0]
    return claim + "-sweep" if claim == "qcong" and ".." in spec else claim


@pytest.mark.parametrize("spec", sorted(CEILING_SHA256), ids=_ceiling_id)
def test_ceiling_report_bytes_pinned(spec, tmp_path):
    out = tmp_path / "report.json"
    assert run_main(["verify", *spec.split(), "--jobs", "1", "--format",
                     "json", "--no-timestamp", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CEILING_SHA256[spec]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_witness_above_the_int_str_cap_renders(fmt, monkeypatch, capsys):
    # a failing remainder q^15000 + 1, whose digest's at2 = 2^15000 + 1 has
    # 4,516 digits, past CPython's default cap of 4,300
    qcong_data = verifier._qcong_data
    huge = verifier.IntPoly([1] + [0] * 14999 + [1])

    def fake(*key):
        return {**qcong_data(*key), "remainder": huge}
    monkeypatch.setattr(verifier, "_qcong_data", fake)
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code = run_main(["verify", "qcong", "--r", "1", "--m", "2", "--rho", "1",
                     "--n", "3", "--format", fmt, "--no-timestamp",
                     "--jobs", "1"])
    assert code == 1
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    out = capsys.readouterr().out
    with verifier.unlimited_int_str():
        at2 = str(2 ** 15000 + 1)
        if fmt == "json":
            witness = json.loads(out)["verdicts"][0]["witness"]
            assert witness["remainder_digest"]["at2"] == 2 ** 15000 + 1
    assert f'"at2": {at2}' in out.replace('""', '"')
