"""Mutation checks: every mutant in MUTANTS must make its selected tests fail.

Run from anywhere, with the test dependencies installed:

    python3 tests/mutants.py             # every mutant
    python3 tests/mutants.py -k fold     # mutants whose name contains "fold"

src/, tests/ and pyproject.toml are copied to two temporary directories
once. The unmutated copies must pass every selected test first, half of
the selectors in each. Then each mutant replaces one exact snippet in one
file of a free copy, runs pytest on its selector there, and puts the file
back; two mutants run at once, one per copy, and the rows print in table
order. A snippet that does not occur exactly once in its file fails the
script before anything runs, so a refactor that moves the code has to
update this table. Hypothesis runs with a fixed seed, so a result repeats
from run to run.

The whole table (56 mutants) took 52-60 s on a 2-core host with
Python 3.11 (most of the time is interpreter start-up and test
collection); keep it under 90 s, inside CI's two-minute step.
pytest does not collect this file (its testpaths pick up test_*.py only).
A new oracle adds its mutants here.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Copies of the tree, and rows run at once: one per core of a 2-core host.
COPIES = 2

VERIFIER = "src/qcongruence/verifier.py"
BIGPOLY = "src/qcongruence/bigpoly.py"
CYCMOD = "src/qcongruence/cycmodfield.py"
CONSTRUCTS = "src/qcongruence/constructs.py"
QSERIES = "src/qcongruence/qseries.py"
RECORD = "src/qcongruence/record.py"
CLI = "src/qcongruence/cli.py"
QCONG_ORACLE = "tests/test_qcong_oracle.py::test_recurrence_matches_oracle"
FRACTION_ORACLE = "tests/test_fraction_oracle.py::"
DOMAIN_RULE = ("tests/test_domains.py::"
               "test_domain_error_exactly_outside_the_rule")
DIVISION = "tests/test_bigpoly.py::test_division_matches_sympy"
SLOT_BOUND = "tests/test_bigpoly.py::test_kronecker_at_the_slot_bound"
AC_WITNESS = ("tests/test_verifier.py::"
              "test_q_congruence_witness_when_ac_does_not_divide")
INTEGER_ORACLE = "tests/test_integer_oracles.py::"
PINNED_REPORT = "tests/test_cli.py::test_report_bytes_pinned[text-1]"
EXACT_RULES = "tests/test_exact_rules.py::test_module_keeps_the_exact_rules"
SUMMAND_ORACLE = "tests/test_summand_oracle.py"
AC_FACTORS = SUMMAND_ORACLE + "::test_every_ac_factor_divides"
NON_FACTORS = SUMMAND_ORACLE + "::test_sampled_non_factors_do_not_divide"

# (name, file, exact snippet, replacement, pytest node ids)
MUTANTS = [
    ("times_f uses j for j'", VERIFIER,
     "div_binom(mul_binom(cs, m * j, rho), jp, rho)",
     "div_binom(mul_binom(cs, m * j, rho), j, rho)",
     [QCONG_ORACLE + "[1-2]"]),
    ("R_k step drops the -q^y sign", VERIFIER,
     "                sign *= (-1) ** rho\n", "",
     [QCONG_ORACLE + "[-1-2]"]),
    ("R_k step drops the -q^y shift", VERIFIER,
     "                shift += rho * y\n", "",
     [QCONG_ORACLE + "[-1-2]"]),
    ("[x]_q drops the -q^x sign", VERIFIER,
     "twist, e = -twist, e + x", "twist, e = twist, e + x",
     [QCONG_ORACLE + "[-1-2]"]),
    ("the summand is placed at the low end of the cleared sum", VERIFIER,
     "        i = at - low\n", "        i = 0\n",
     [QCONG_ORACLE + "[-3-2]"]),
    ("the cleared sum's low-end pad is one short", VERIFIER,
     "cs[:0] = [0] * (low - at)", "cs[:0] = [0] * (low - at - 1)",
     [QCONG_ORACLE + "[-3-2]"]),
    ("the cleared sum's top pad is one short", VERIFIER,
     "cs.extend([0] * (i + len(term) - len(cs)))",
     "cs.extend([0] * (i + len(term) - len(cs) - 1))",
     [QCONG_ORACLE + "[-3-2]"]),
    ("summand_twist signs by (-1)^k", CONSTRUCTS,
     "sign = -1 if rho * k % 2 else 1", "sign = -1 if k % 2 else 1",
     ["tests/test_verifier.py::test_specialization_consistency"]),
    ("phi_product drops the Moebius sign", "src/qcongruence/cyclotomic.py",
     "                    c = -c\n", "",
     ["tests/test_cyclotomic.py::test_phi_small_table",
      "tests/test_qseries.py::test_expand_matches_phi_by_phi_oracle"]),
    ("fold rotates the wrong way", BIGPOLY,
     "return out[-s:] + out[:-s] if s else out",
     "return out[s:] + out[:s] if s else out",
     ["tests/test_bigpoly.py::test_fold_matches_naive_reduction"]),
    ("mul_binom ignores e", BIGPOLY,
     "    for _ in range(e):\n        prev = out",
     "    for _ in range(min(e, 1)):\n        prev = out",
     ["tests/test_bigpoly.py::test_binom_kernel_exponent_is_repeated_passes"]),
    ("div_binom ignores e", BIGPOLY,
     "    for _ in range(e):\n        n = max(len(g) - h, 0)",
     "    for _ in range(min(e, 1)):\n        n = max(len(g) - h, 0)",
     ["tests/test_bigpoly.py::test_binom_kernel_exponent_is_repeated_passes"]),
    ("folded 1 - q^s adds", CYCMOD,
     "map(operator.sub, arr, arr[-s:] + arr[:-s])",
     "map(operator.add, arr, arr[-s:] + arr[:-s])",
     ["tests/test_cycmodfield.py::test_folded_binom_matches_unfolded_kernel",
      "tests/test_cycmodfield.py::test_block_sum_grid"]),
    ("block_sum drops sgn", CYCMOD,
     "su = [a + sgn * b for a, b", "su = [a + b for a, b",
     ["tests/test_cycmodfield.py::test_block_sum_grid", AC_FACTORS]),
    ("mul_scalar drops the denominator", CYCMOD,
     "        self.den = [den * a for a in self.den]\n", "",
     ["tests/test_cycmodfield.py::test_folded_equal_sees_every_scalar"]),
    ("the vanishing branch drops (x/d)^e", CYCMOD,
     "return [(x // d) ** e * a for a in arr], e", "return arr, e",
     ["tests/test_cycmodfield.py::test_block_decomposition_grid"]),
    ("mul_binom puts a denominator binomial into num", CYCMOD,
     "self.den, c = _binom_pass(self.den,",
     "self.num, c = _binom_pass(self.num,",
     ["tests/test_cycmodfield.py::test_block_decomposition_grid"]),
    ("mu_s drops (-1)^(rho*s)", CYCMOD,
     "nu(t, (-1) ** (rho * s) * c_num ** (rho - 1)",
     "nu(t, c_num ** (rho - 1)",
     ["tests/test_cycmodfield.py::test_mu_consistency_grid"]),
    ("_scalar_c drops its denominator", CYCMOD,
     ", m ** s * math.factorial(s)", ", 1",
     ["tests/test_cycmodfield.py::test_block_decomposition_grid"]),
    ("cycmodfield imports Fraction again", CYCMOD,
     "import operator\n", "import operator\nfrom fractions import Fraction\n",
     ["tests/test_exact_rules.py::"
      "test_integer_module_imports_no_fractions[cycmodfield.py]"]),
    ("folded_equal skips the (1 - q^d) count", CYCMOD,
     "return self.gpow > 0 or _rem_phi(self.num, self.d).is_zero",
     "return _rem_phi(self.num, self.d).is_zero",
     ["tests/test_cycmodfield.py::test_qbinom_reduction_grid"]),
    ("Kronecker slot one bit short", BIGPOLY,
     "nbytes = (bound.bit_length() + 8) // 8",
     "nbytes = (bound.bit_length() + 7) // 8", [SLOT_BOUND]),
    ("Kronecker bias byte at the wrong end of the slot", BIGPOLY,
     "(bytes(nbytes - 1) + b\"\\x80\")", "(b\"\\x80\" + bytes(nbytes - 1))",
     [SLOT_BOUND]),
    ("Kronecker bound forgets the shorter length", BIGPOLY,
     "bound = maxa * maxb * min(len(a), len(b))", "bound = maxa * maxb",
     [SLOT_BOUND]),
    ("_pack drops the negative entries", BIGPOLY,
     "        elif c:\n            neg[",
     "        elif False:\n            neg[", [SLOT_BOUND]),
    ("_long_div drops the divmod", BIGPOLY,
     "            c, rest = divmod(c, lead)\n", "            rest = 0\n",
     [DIVISION]),
    ("_long_div skips the remainder check", BIGPOLY,
     "            if rest:\n                raise NotDivisible",
     "            if False:\n                raise NotDivisible",
     [DIVISION]),
    ("rem_monic keeps one remainder entry too few", BIGPOLY,
     "return IntPoly(_long_div(self.coeffs, mod.coeffs)[:dn])",
     "return IntPoly(_long_div(self.coeffs, mod.coeffs)[:dn - 1])",
     ["tests/test_bigpoly.py::test_rem_monic"]),
    ("Record._key drops a field", RECORD,
     "getattr(self, f) for f in self._fields]",
     "getattr(self, f) for f in self._fields[1:]]",
     ["tests/test_records.py::test_fields_come_from_slots_alone"]),
    ("Record ignores its bases' fields", RECORD,
     "for c in reversed(cls.__mro__)", "for c in (cls,)",
     ["tests/test_records.py::test_fields_come_from_slots_alone"]),
    ("Record.__init__ drops the arity check", RECORD,
     "        if len(values) != len(self._fields):\n",
     "        if False:\n",
     ["tests/test_records.py::test_wrong_number_of_values_raises"]),
    ("Record.__init__ sets the fields in reverse", RECORD,
     "zip(self._fields, values)", "zip(reversed(self._fields), values)",
     ["tests/test_records.py::test_fields_come_from_slots_alone"]),
    ("qcong witness drops remainder_digest", VERIFIER,
     "            witness[\"remainder_digest\"] = fmt(remainder)\n",
     "            pass\n",
     [AC_WITNESS]),
    ("verify_q_congruence ignores the remainder", VERIFIER,
     "ok = remainder.is_zero and data[\"nonintegral_k\"] is None",
     "ok = data[\"nonintegral_k\"] is None",
     [AC_WITNESS]),
    ("the q = 1 check ignores the remainder", VERIFIER,
     "divides = data[\"remainder\"].is_zero", "divides = True",
     [AC_WITNESS]),
    ("central domain admits rho = 1", VERIFIER,
     "\"central\": ((\"rho\", \"n\"), lambda rho, n: rho >= 2 and n >= 2,",
     "\"central\": ((\"rho\", \"n\"), lambda rho, n: rho >= 1 and n >= 2,",
     [DOMAIN_RULE + "[verify_central_binomial]"]),
    ("sun domain admits n = 1", VERIFIER,
     "\"sun\": ((\"n\",), lambda n: n >= 2,",
     "\"sun\": ((\"n\",), lambda n: n >= 1,",
     [DOMAIN_RULE + "[verify_sun_conjecture]"]),
    ("central domain names its parameters (n, rho)", VERIFIER,
     "\"central\": ((\"rho\", \"n\"),", "\"central\": ((\"n\", \"rho\"),",
     [PINNED_REPORT]),
    ("_require zips the names in reverse", VERIFIER,
     "return dict(zip(names, params))",
     "return dict(zip(reversed(names), params))",
     [PINNED_REPORT]),
    ("show hands C its flags as (n, m)", CLI,
     "\"C\": (c_poly, (\"m\", \"n\"))", "\"C\": (c_poly, (\"n\", \"m\"))",
     ["tests/test_cli.py::test_show_output_pinned"]),
    ("the csv counts row is one field short", CLI,
     "\"stopped\" if stopped else \"\", \"\", \"\", \"\"])",
     "\"stopped\" if stopped else \"\", \"\", \"\"])",
     ["tests/test_cli.py::test_csv_format"]),
    ("pair_ok admits m = 1", CONSTRUCTS,
     "return m >= 2 and math.gcd(r, m) == 1",
     "return m >= 1 and math.gcd(r, m) == 1",
     ["tests/test_constructs.py::test_pair_ok"]),
    ("binomial sum drops the (mk)^rho rescale", VERIFIER,
     "            total *= (m * k) ** rho\n", "",
     [FRACTION_ORACLE + "test_binomial_sum_matches_fraction_oracle"]),
    ("binomial sum drops m from the denominator", VERIFIER,
     "        den *= m * k\n", "        den *= k\n",
     [FRACTION_ORACLE + "test_binomial_sum_matches_fraction_oracle"]),
    ("value_at_one multiplies a negative exponent into the numerator",
     QSERIES,
     "den *= phi_at_one(d) ** -e", "num *= phi_at_one(d) ** -e",
     [FRACTION_ORACLE + "test_value_at_one_matches_fraction_oracle"]),
    ("n_alpha drops abs", CONSTRUCTS, "    num = abs(num)\n", "",
     [FRACTION_ORACLE + "test_n_alpha_matches_fraction_oracle"]),
    ("central bridge drops the sign of -(2k + 1)", VERIFIER,
     "num *= -(2 * k + 1)", "num *= 2 * k + 1",
     [FRACTION_ORACLE + "test_central_bridge_matches_fraction_oracle"]),
    ("_central yields after its update", VERIFIER,
     "        yield c\n        c = c * (2 * (2 * k + 1)) // (k + 1)\n",
     "        c = c * (2 * (2 * k + 1)) // (k + 1)\n        yield c\n",
     [INTEGER_ORACLE + "test_central_matches_math_comb"]),
    ("2-adic term order drops the factor 2", VERIFIER,
     "return rho * (_ord2(c) + 2 * j)", "return rho * (_ord2(c) + j)",
     [INTEGER_ORACLE + "test_term_order_matches_big_power_oracle"]),
    ("prime-support loop divides only once", VERIFIER,
     "    while g > 1:\n        value //= g", "    if g > 1:\n        value //= g",
     [INTEGER_ORACLE + "test_prime_support_matches_per_factor_oracle"]),
    ("degree of zero is a float -inf", BIGPOLY,
     "return len(self.coeffs) - 1 if self.coeffs else None",
     "return len(self.coeffs) - 1 if self.coeffs else float(\"-inf\")",
     [EXACT_RULES]),
    ("the Gaussian side starts at m*(h - k)", CYCMOD,
     "_ratio_into(rhs, m * (h - k + 1), m, k)",
     "_ratio_into(rhs, m * (h - k), m, k)",
     ["tests/test_acceptance.py::test_criterion_05_per_modulus_congruences",
      "tests/test_cycmodfield.py"]),
    ("summand_sum ignores the (1 - q^d) count", CYCMOD,
     "if count + c == 0:", "if c == 0:", [AC_FACTORS]),
    ("summand_sum's numerator exponent is r + km", CYCMOD,
     "r + (k - 1) * m", "r + k * m", [AC_FACTORS]),
    ("summand_sum drops the denominator side of the count", CYCMOD,
     "count += up - down", "count += up",
     [AC_FACTORS, NON_FACTORS]),
    ("an assert back in src", VERIFIER,
     "    return value.numerator % modulus == 0\n",
     "    assert modulus >= 1\n    return value.numerator % modulus == 0\n",
     [EXACT_RULES]),
]


def _python(tree, *args):
    """Run Python in the copy, importing qcongruence from its src/."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src") + (os.pathsep + path if path
                                               else ""))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def _pytest(tree, selectors):
    return _python(tree, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *selectors)


def _copy(tree):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tree)


def _mutated_run(free, row):
    """Run one row in a free copy: replace its snippet, run pytest on its
    selectors, put the file back and return the copy to the pool."""
    _, path, old, new, selected = row
    tree = free.get()
    try:
        f = tree / path
        text = f.read_text()
        f.write_text(text.replace(old, new))
        t0 = time.monotonic()
        try:
            res = _pytest(tree, selected)
        finally:
            f.write_text(text)
        return res, time.monotonic() - t0
    finally:
        free.put(tree)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="",
                        help="run only the mutants whose name contains this")
    rows = [row for row in MUTANTS if parser.parse_args(argv).k in row[0]]
    if not rows:
        parser.error("no mutant matches -k")
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="qcongruence-mutants-") as tmp, \
            ThreadPoolExecutor(COPIES) as pool:
        trees = [pathlib.Path(tmp).resolve() / str(i) for i in range(COPIES)]
        for tree in trees:
            _copy(tree)
        stale = []
        for name, path, old, _, _ in rows:
            count = (trees[0] / path).read_text().count(old)
            if count != 1:
                stale.append(f"{name}: snippet occurs {count} times in "
                             f"{path}, not once")
        if stale:
            print("\n".join(stale))
            return 1
        # an installed qcongruence must not shadow the copy's
        where = _python(trees[0], "-c",
                        "import qcongruence; print(qcongruence.__file__)")
        if not where.stdout.startswith(str(trees[0])):
            print(f"qcongruence imports from {where.stdout.strip()!r}, "
                  f"not from the copy {trees[0]}")
            return 1
        # the unmutated baseline, its selectors shared out over the copies
        selectors = sorted({s for row in rows for s in row[4]})
        parts = [selectors[i::COPIES] for i in range(COPIES)]
        for base in pool.map(_pytest, trees, [p for p in parts if p]):
            if base.returncode != 0:
                print("the unmutated copy fails its selected tests:")
                print(base.stdout[-3000:], base.stderr[-3000:])
                return 1
        free = queue.Queue()
        for tree in trees:
            free.put(tree)
        bad = 0
        results = pool.map(lambda row: _mutated_run(free, row), rows)
        for (name, *_), (res, seconds) in zip(rows, results):
            # 1 is "tests failed"; anything else (0 passed, 2 a collection
            # error, ...) means the mutant was not caught by a test
            outcome = {0: "SURVIVED", 1: "killed"}.get(
                res.returncode, f"pytest exit {res.returncode}")
            summary = res.stdout.strip().splitlines()[-1:]
            print(f"{outcome:>16}  {name}  ({seconds:.1f} s; "
                  f"{''.join(summary)})")
            if res.returncode != 1:
                bad += 1
                print(res.stdout[-2000:], res.stderr[-2000:])
    print(f"{len(rows) - bad} of {len(rows)} mutants killed in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
