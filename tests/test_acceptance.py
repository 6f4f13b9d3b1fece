"""Acceptance sweep: ten criteria, each one test, each one summary line.

These are the wide grids. Everything is exact arithmetic; a criterion
either holds on every instance or the test fails with the offending
parameters. Expected wall time for the whole file is about a minute,
dominated by the global q-congruence grid.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

from conftest import record_criterion

from qcongruence.bigpoly import IntPoly
from qcongruence.constructs import (a_poly, b_poly, c_poly, n_alpha,
                                    negative_tail, s_set)
from qcongruence.cyclotomic import divisors, phi, phi_at_one, q_int
from qcongruence.cycmodfield import (check_block_constant,
                                     check_block_decomposition,
                                     check_block_sum)
from qcongruence.qseries import poch_ratio
from qcongruence.verifier import (verify_binomial_sum,
                                  verify_central_binomial,
                                  verify_q_congruence,
                                  verify_specialization_at_one,
                                  verify_structure_identity,
                                  verify_sun_conjecture,
                                  verify_two_adic_bounds,
                                  verify_value_identity, _qcong_data)

QCONG_PAIRS = [(1, 2), (-1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]


def theorem_grid():
    """All (r, m) with m in [2,6], r in [-6,6], gcd = 1, r/m not integral."""
    return [(r, m) for m in range(2, 7) for r in range(-6, 7)
            if math.gcd(r, m) == 1 and r % m != 0]


def test_criterion_01_central_binomial_sweep():
    t0 = time.perf_counter()
    bad = [(rho, n)
           for rho in (2, 3, 4)
           for n in range(2, 301)
           if not verify_central_binomial(rho, n).passed]
    elapsed = time.perf_counter() - t0
    spot = verify_central_binomial(2, 3)
    spot_ok = spot.passed and spot.lhs == "sum = 900" \
        and spot.rhs == "0 mod 60"
    ok = not bad and elapsed < 60 and spot_ok
    record_criterion(1, ok, f"897 instances, {elapsed:.1f}s")
    assert not bad, bad[:3]
    assert elapsed < 60
    assert spot_ok


def test_criterion_02_rational_binomial_sum_sweep():
    grid = theorem_grid()
    assert len(grid) == 34
    bad = [(r, m, rho, n)
           for r, m in grid
           for rho in (1, 2, 3)
           for n in range(1, 41)
           if not verify_binomial_sum(r, m, rho, n).passed]
    spot = verify_binomial_sum(1, 2, 2, 3)
    spot_ok = spot.passed and spot.lhs == "sum = 225/128" \
        and spot.rhs == "0 mod 15"
    ok = not bad and spot_ok
    record_criterion(2, ok, f"{34 * 3 * 40} instances over 34 pairs")
    assert not bad, bad[:3]
    assert spot_ok


def test_criterion_03_structural_identity():
    count = 0
    for r, m in theorem_grid():
        for n in range(1, 26):
            # recompute the expected shape from the definitions
            lhs = poch_ratio(r, m, n) * b_poly(m, n)
            cnt, tot = negative_tail(r, m, n)
            shape_ok = (lhs.sign == (-1 if cnt % 2 else 1)
                        and lhs.qexp == tot
                        and tuple(sorted(d for d, _ in lhs.factors))
                        == s_set(r, m, n)
                        and all(e == 1 for _, e in lhs.factors))
            verdict = verify_structure_identity(r, m, n)
            if not (shape_ok and verdict.passed):
                record_criterion(3, False, f"fails at {(r, m, n)}")
                assert False, (r, m, n)
            count += 1
    record_criterion(3, True, f"{count} exact factorizations")


def test_criterion_04_value_identity_at_one():
    count = 0
    for r, m in theorem_grid():
        for n in range(1, 41):
            a1 = a_poly(r, m, n).value_at_one()
            c1 = c_poly(m, n).value_at_one()
            if a1 * c1 != n_alpha(r, m, n) or \
                    not verify_value_identity(r, m, n).passed:
                record_criterion(4, False, f"fails at {(r, m, n)}")
                assert False, (r, m, n)
            count += 1
    record_criterion(4, True, f"{count} integer identities")


def test_criterion_05_per_modulus_congruences():
    grid = theorem_grid()
    n_const = n_sum = n_dec = 0
    for r, m in grid:
        for d in range(2, 31):
            if math.gcd(d, m) != 1:
                continue
            if not check_block_constant(r, m, d).ok:
                record_criterion(5, False, f"block constant {(r, m, d)}")
                assert False, (r, m, d)
            n_const += 1
            for rho in (1, 2, 3):
                if not check_block_sum(r, m, rho, d).ok:
                    record_criterion(5, False,
                                     f"block sum {(r, m, rho, d)}")
                    assert False, (r, m, rho, d)
                n_sum += 1
    for r, m in grid:
        for d in range(2, 16):
            if math.gcd(d, m) != 1:
                continue
            for s in range(0, 4):
                for t in range(0, d):
                    if not check_block_decomposition(r, m, d, s, t).ok:
                        record_criterion(
                            5, False, f"decomposition {(r, m, d, s, t)}")
                        assert False, (r, m, d, s, t)
                    n_dec += 1
    record_criterion(
        5, True,
        f"{n_const} constants, {n_sum} sums, {n_dec} decompositions")


def test_criterion_06_global_q_congruence():
    count = 0
    for r, m in QCONG_PAIRS:
        for rho in (1, 2):
            for n in range(1, 31):
                v = verify_q_congruence(r, m, rho, n)
                s = verify_specialization_at_one(r, m, rho, n)
                data = _qcong_data(r, m, rho, n)
                integral = all(
                    isinstance(c, int) for c in data["cleared"].base.coeffs)
                if not (v.passed and s.passed and integral):
                    record_criterion(6, False, f"fails at {(r, m, rho, n)}")
                    assert False, (r, m, rho, n)
                count += 1
    record_criterion(6, True, f"{count} zero remainders mod A*C")


def test_criterion_07_cyclotomic_layer():
    for n in range(1, 2001):
        prod = IntPoly(1)
        for d in divisors(n):
            if d >= 2:
                prod = prod * phi(d)
        if prod != q_int(n).base:
            record_criterion(7, False, f"q-integer splits fails at n={n}")
            assert False, n
    for d in range(2, 2001):
        if phi(d).evaluate(1) != phi_at_one(d):
            record_criterion(7, False, f"value at one fails at d={d}")
            assert False, d
    # [nm]_q / [n]_q is congruent to the constant m mod [n]_q
    for n in range(1, 31):
        qn = q_int(n).base
        for m in range(1, 31):
            quo = q_int(n * m).base.div_exact(qn)
            if not (quo - IntPoly(m)).rem_monic(qn).is_zero:
                record_criterion(7, False, f"residue fails at {(n, m)}")
                assert False, (n, m)
    record_criterion(7, True,
                     "splits to n=2000, residues to n=m=30")


def test_criterion_08_two_adic_bounds():
    bad = [(rho, n)
           for rho in (2, 3, 4)
           for n in range(2, 301)
           if not verify_two_adic_bounds(rho, n).passed]
    # binom(2k, k) is even for every k >= 1
    evens = all(math.comb(2 * k, k) % 2 == 0 for k in range(1, 301))
    ok = not bad and evens
    record_criterion(8, ok, "897 instances, evenness to k=300")
    assert not bad, bad[:3]
    assert evens


def test_criterion_09_conjecture_sweep(tmp_path):
    verdicts = [verify_sun_conjecture(n) for n in range(2, 101)]
    failures = [v for v in verdicts if not v.passed]
    spot = verify_sun_conjecture(2)
    spot_ok = spot.passed and "-120" in spot.lhs and "12" in spot.rhs
    if failures:
        # a counterexample is data, and the command line must say code 3
        proc = subprocess.run(
            [sys.executable, "-m", "qcongruence.cli", "verify", "sun",
             "--n", "2..100", "--no-timestamp", "--jobs", "1",
             "--out", str(tmp_path / "sun.txt")],
            capture_output=True, text=True)
        witnessed = all(v.witness for v in failures)
        ok = proc.returncode == 3 and witnessed and spot_ok
        record_criterion(
            9, ok, f"{len(failures)} counterexamples, exit {proc.returncode}")
        assert ok
    else:
        record_criterion(9, spot_ok, "99 instances, no counterexample")
        assert spot_ok


def test_criterion_10_deterministic_reports(tmp_path):
    spec = [sys.executable, "-m", "qcongruence.cli", "verify", "all",
            "--r", "1..3", "--m", "2..4", "--rho", "1..2", "--n", "1..4",
            "--d-max", "8", "--format", "json", "--no-timestamp"]
    first = subprocess.run(spec + ["--jobs", "2"], capture_output=True)
    second = subprocess.run(spec + ["--jobs", "2"], capture_output=True)
    identical = (first.returncode == second.returncode == 0
                 and first.stdout == second.stdout
                 and len(first.stdout) > 0)
    doc = json.loads(first.stdout) if identical else {}
    nonempty = identical and doc["counts"]["pass"] > 0
    record_criterion(10, identical and nonempty,
                     f"{len(first.stdout)} byte reports")
    assert identical and nonempty
