"""Mutation checks: every mutant in MUTANTS must make its selected tests fail.

Run from anywhere, with the test dependencies installed:

    python3 tests/mutants.py             # every mutant
    python3 tests/mutants.py -k fold     # mutants whose name contains "fold"

src/, tests/ and pyproject.toml are copied to a temporary directory once.
The unmutated copy must pass every selected test first. Then each mutant
replaces one exact snippet in one file of the copy, runs pytest on its
selector there, and puts the file back. A snippet that does not occur
exactly once in its file fails the script before anything runs, so a
refactor that moves the code has to update this table. Hypothesis runs
with a fixed seed, so a result repeats from run to run.

The whole table (27 mutants) takes about 50 s on a 2-core host with
Python 3.11; keep it under 90 s, inside CI's two-minute step. pytest
does not collect this file (its testpaths pick up test_*.py only). A new
oracle adds its mutants here.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

VERIFIER = "src/qcongruence/verifier.py"
BIGPOLY = "src/qcongruence/bigpoly.py"
CYCMOD = "src/qcongruence/cycmodfield.py"
CONSTRUCTS = "src/qcongruence/constructs.py"
QSERIES = "src/qcongruence/qseries.py"
RECORD = "src/qcongruence/record.py"
QCONG_ORACLE = "tests/test_qcong_oracle.py::test_recurrence_matches_oracle"
FRACTION_ORACLE = "tests/test_fraction_oracle.py::"
DOMAIN_RULE = ("tests/test_domains.py::"
               "test_domain_error_exactly_outside_the_rule")
DIVISION = "tests/test_bigpoly.py::test_division_matches_sympy"
AC_WITNESS = ("tests/test_verifier.py::"
              "test_q_congruence_witness_when_ac_does_not_divide")

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
     "su = [a + sgn * b for a, b in zip(su, term)]",
     "su = [a + b for a, b in zip(su, term)]",
     ["tests/test_cycmodfield.py::test_block_sum_grid"]),
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
     "\"central\": (lambda rho, n: rho >= 2 and n >= 2,",
     "\"central\": (lambda rho, n: rho >= 1 and n >= 2,",
     [DOMAIN_RULE + "[verify_central_binomial]"]),
    ("sun domain admits n = 1", VERIFIER,
     "\"sun\": (lambda n: n >= 2,", "\"sun\": (lambda n: n >= 1,",
     [DOMAIN_RULE + "[verify_sun_conjecture]"]),
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="",
                        help="run only the mutants whose name contains this")
    rows = [row for row in MUTANTS if parser.parse_args(argv).k in row[0]]
    if not rows:
        parser.error("no mutant matches -k")
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="qcongruence-mutants-") as tmp:
        tree = pathlib.Path(tmp).resolve()
        _copy(tree)
        stale = []
        for name, path, old, _, _ in rows:
            count = (tree / path).read_text().count(old)
            if count != 1:
                stale.append(f"{name}: snippet occurs {count} times in "
                             f"{path}, not once")
        if stale:
            print("\n".join(stale))
            return 1
        # an installed qcongruence must not shadow the copy's
        where = _python(tree, "-c",
                        "import qcongruence; print(qcongruence.__file__)")
        if not where.stdout.startswith(str(tree)):
            print(f"qcongruence imports from {where.stdout.strip()!r}, "
                  f"not from the copy {tree}")
            return 1
        selectors = sorted({s for row in rows for s in row[4]})
        base = _pytest(tree, selectors)
        if base.returncode != 0:
            print("the unmutated copy fails its selected tests:")
            print(base.stdout[-3000:], base.stderr[-3000:])
            return 1
        bad = 0
        for name, path, old, new, selected in rows:
            f = tree / path
            text = f.read_text()
            f.write_text(text.replace(old, new))
            t0 = time.monotonic()
            try:
                res = _pytest(tree, selected)
            finally:
                f.write_text(text)
            # 1 is "tests failed"; anything else (0 passed, 2 a collection
            # error, ...) means the mutant was not caught by a test
            outcome = {0: "SURVIVED", 1: "killed"}.get(
                res.returncode, f"pytest exit {res.returncode}")
            summary = res.stdout.strip().splitlines()[-1:]
            print(f"{outcome:>16}  {name}  ({time.monotonic() - t0:.1f} s; "
                  f"{''.join(summary)})")
            if res.returncode != 1:
                bad += 1
                print(res.stdout[-2000:], res.stderr[-2000:])
    print(f"{len(rows) - bad} of {len(rows)} mutants killed in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
