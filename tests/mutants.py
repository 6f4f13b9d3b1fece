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

Each pytest run is a child forked from this process, which has imported
pytest, hypothesis and sympy but never qcongruence: the child changes to
its copy, puts the copy's src/ first on sys.path, imports the mutated
package fresh and writes its output to a file. No test stubs or reloads
sympy or hypothesis, so sharing the parent's copies of them is safe.
Forking saves each row the interpreter start and those imports, which
were most of its time: the previous 66-row table took 73 and 71 s with a
fresh interpreter per row, and 34 and 34 s forked, run alternately on a
2-core host with Python 3.11. The whole table (75 mutants) took 39 to
45 s there; keep it under 90 s, inside CI's two-minute step. Rows are
forked from the main thread only, never from a thread pool.

pytest does not collect this file (its testpaths pick up test_*.py only).
A new oracle adds its mutants here.
"""
from __future__ import annotations

import argparse
import itertools
import os
import pathlib
import shutil
import sys
import tempfile
import time
import traceback

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
MUL_OPERAND = ("tests/test_bigpoly.py::"
               "test_product_with_another_class_is_a_type_error")
AC_WITNESS = ("tests/test_verifier.py::"
              "test_q_congruence_witness_when_ac_does_not_divide")
INTEGER_ORACLE = "tests/test_integer_oracles.py::"
PINNED_REPORT = "tests/test_cli.py::test_report_bytes_pinned[text-1]"
IGNORED_FLAG = "tests/test_cli.py::test_a_flag_no_longer_ignored_exits_2"
MISSING_FLAG = "tests/test_cli.py::test_missing_flag_exits_2_before_work"
FOREIGN_FLAG = "tests/test_cli.py::test_foreign_flag_exits_2_before_work"
FULL_POLYS = "tests/test_cli.py::test_full_polys_report_bytes_pinned[1]"
EXACT_RULES = "tests/test_exact_rules.py::test_module_keeps_the_exact_rules"
SUMMAND_ORACLE = "tests/test_summand_oracle.py"
AC_FACTORS = SUMMAND_ORACLE + "::test_every_ac_factor_divides"
NON_FACTORS = SUMMAND_ORACLE + "::test_sampled_non_factors_do_not_divide"

# (name, file, exact snippet, replacement, pytest node ids)
MUTANTS = [
    ("times_f divides by j, not its part coprime to m", VERIFIER,
     "_coprime_part(j, m), rho)", "j, rho)",
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
     "    return num, den\n", "    return num, 1\n",
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
    ("rem_monic accepts a non-monic modulus", BIGPOLY,
     "        if mod.coeffs[-1:] != (1,):\n", "        if False:\n",
     ["tests/test_bigpoly.py::test_rem_monic_refuses_a_non_monic_modulus"]),
    ("IntPoly * drops its operand check", BIGPOLY,
     "        if not isinstance(other, IntPoly):\n"
     "            return NotImplemented\n", "",
     [MUL_OPERAND + "[IntPoly-int]"]),
    ("LaurentInt * drops its operand check", BIGPOLY,
     "        if not isinstance(other, LaurentInt):\n"
     "            return NotImplemented\n", "",
     [MUL_OPERAND + "[LaurentInt-int]"]),
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
    ("show hands B its flags as (n, m)", CLI,
     "\"B\": (b_poly, (\"m\", \"n\"))", "\"B\": (b_poly, (\"n\", \"m\"))",
     ["tests/test_cli.py::test_show_output_pinned"]),
    ("the csv counts row is one field short", CLI,
     "*[\"\"] * (len(_PARAM_ORDER) - 3),",
     "*[\"\"] * (len(_PARAM_ORDER) - 4),",
     ["tests/test_cli.py::test_csv_format"]),
    ("_tasks_for swaps s and t in a block_decomposition task", CLI,
     "dict(r=r, m=m, d=d, s=s, t=t)", "dict(r=r, m=m, d=d, s=t, t=s)",
     [PINNED_REPORT]),
    ("a sign_reduction task passes h = 0", CLI,
     "dict(m=m, d=d, s=s, h=1)", "dict(m=m, d=d, s=s, h=0)",
     [PINNED_REPORT]),
    ("show range-checks every flag again, so a foreign one in range is "
     "ignored", CLI,
     "    values = _read_flags(parser, f\"show {obj}\", flags, args, "
     "SHOW_LIMITS)\n    for flag, value in zip(flags, values):\n",
     "    values = _read_flags(parser, f\"show {obj}\", flags, args, flags)\n"
     "    for flag, value in ((f, getattr(args, f)) for f in SHOW_LIMITS\n"
     "                        if getattr(args, f) is not None):\n",
     [IGNORED_FLAG + "[show-B]"]),
    ("verify accepts a grid flag no requested claim names", CLI,
     "[*GRID_LIMITS, *_OPTION_DEFAULTS],", "needed,",
     [IGNORED_FLAG + "[verify-central]"]),
    ("_read_flags lets a missing flag through", CLI,
     "if not set(takes) <= set(given) <= {*takes, *options}:",
     "if not set(given) <= {*takes, *options}:",
     [MISSING_FLAG + "[show phi]"]),
    ("verify reads --d-max for every claim again", CLI,
     "_OPTIONS.get(args.claim, ()))",
     "(*_OPTIONS.get(args.claim, ()), \"d_max\"))",
     [FOREIGN_FLAG + "[verify central --rho 2 --n 2..3 --d-max 50]"]),
    ("an absent option reaches the spec as null", CLI,
     "            setattr(args, option, default)\n", "            pass\n",
     ["tests/test_cli.py::test_report_bytes_pinned[json-1]"]),
    ("a qcong task drops full_polys", CLI,
     "params[\"full_polys\"] = full_polys",
     "params[\"full_polys\"] = False", [FULL_POLYS]),
    ("_run_task hands verify_q_congruence the instance alone", CLI,
     "**(params if name == \"verify_q_congruence\" else instance)",
     "**instance", [FULL_POLYS]),
    ("pair_ok admits m = 1", CONSTRUCTS,
     "return m >= 2 and math.gcd(r, m) == 1",
     "return m >= 1 and math.gcd(r, m) == 1",
     ["tests/test_constructs.py::test_pair_ok"]),
    ("binomial sum drops the (mk)^rho rescale", VERIFIER,
     "        total *= (m * k) ** rho\n", "",
     [FRACTION_ORACLE + "test_binomial_sum_matches_fraction_oracle"]),
    ("binomial sum drops the (-1)^k sign", VERIFIER,
     "total += (-1) ** (rho * k) * (2 * m * k + r)",
     "total += (2 * m * k + r)",
     [FRACTION_ORACLE + "test_binomial_sum_matches_fraction_oracle"]),
    ("binomial sum leaves den unset at n = 0", VERIFIER,
     "total, den = 0, 1", "total = 0",
     [FRACTION_ORACLE + "test_binomial_sum_matches_fraction_oracle"]),
    ("rising drops m from the denominator", CONSTRUCTS,
     "den *= m * (k + 1)", "den *= k + 1",
     [FRACTION_ORACLE + "test_rising_matches_fraction_oracle"]),
    ("rising steps the denominator by m*k", CONSTRUCTS,
     "den *= m * (k + 1)", "den *= m * k",
     [FRACTION_ORACLE + "test_rising_matches_fraction_oracle"]),
    ("rising's numerator starts at r + m", CONSTRUCTS,
     "num *= r + k * m", "num *= r + (k + 1) * m",
     [FRACTION_ORACLE + "test_rising_matches_fraction_oracle"]),
    ("expand accepts a negative exponent", QSERIES,
     "        if any(e < 0 for _, e in self.factors):\n",
     "        if False:\n",
     ["tests/test_qseries.py::test_expand_refuses_negative_exponents"]),
    ("value_at_one multiplies a negative exponent into the numerator",
     QSERIES,
     "den *= phi_at_one(d) ** -e", "num *= phi_at_one(d) ** -e",
     [FRACTION_ORACLE + "test_value_at_one_matches_fraction_oracle"]),
    ("n_alpha drops abs", CONSTRUCTS,
     "return abs(n * num) //", "return n * num //",
     [FRACTION_ORACLE + "test_n_alpha_matches_fraction_oracle"]),
    ("central bridge compares with (-4)^k", VERIFIER,
     "num * 4 ** k == central * den", "num * (-4) ** k == central * den",
     [FRACTION_ORACLE + "test_central_bridge_matches_fraction_oracle"]),
    ("_central yields after its update", VERIFIER,
     "        yield c\n        c = c * (2 * (2 * k + 1)) // (k + 1)\n",
     "        c = c * (2 * (2 * k + 1)) // (k + 1)\n        yield c\n",
     [INTEGER_ORACLE + "test_central_matches_math_comb"]),
    ("2-adic term order drops the factor 2", VERIFIER,
     "return rho * (_ord2(c) + 2 * j)", "return rho * (_ord2(c) + j)",
     [INTEGER_ORACLE + "test_term_order_matches_big_power_oracle"]),
    ("prime-support loop divides only once", VERIFIER,
     "    while g > 1:\n        x //= g", "    if g > 1:\n        x //= g",
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
    ("n_alpha forms m^n n! again", CONSTRUCTS,
     "math.gcd(n * num, den)", "math.gcd(n * num, m ** n * math.factorial(n))",
     [EXACT_RULES]),
    ("an assert back in src", VERIFIER,
     "    return value.numerator % modulus == 0\n",
     "    assert modulus >= 1\n    return value.numerator % modulus == 0\n",
     [EXACT_RULES]),
]


def _forked(tree, log, work):
    """Fork a child that runs work() in the copy, with its src/ first on
    sys.path and on PYTHONPATH, and its stdout and stderr in the log file.
    Returns the child's pid; its exit code is work()'s return value."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 70  # EX_SOFTWARE, if work() raises
    try:
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.chdir(tree)
        src = str(tree / "src")
        sys.path.insert(0, src)
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        code = int(work())
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _pytest(selectors):
    import pytest
    # hypothesis is imported before pytest starts, on purpose (see main),
    # so pytest cannot rewrite its asserts and would say so on every row
    return pytest.main(["-q", "-x", "-p", "no:cacheprovider",
                        "--hypothesis-seed=0", "-W",
                        "ignore:Module already imported so cannot be "
                        "rewritten:pytest.PytestAssertRewriteWarning",
                        *selectors])


def _where():
    import qcongruence
    print(qcongruence.__file__)
    return 0


def _copy(tree):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tree)


def _runs(trees, logs, jobs):
    """Run each (path, old, new, selectors) job as a forked pytest on a free
    copy, with `old` replaced by `new` in its file for that run only (path
    None runs the copy as it is); as many jobs at once as there are copies.
    Yields (exit code, output, seconds) in job order."""
    free, running, done = list(trees), {}, {}
    todo = iter(enumerate(jobs))
    for want in range(len(jobs)):
        while want not in done:
            for i, (path, old, new, selected) in itertools.islice(
                    todo, len(free)):
                tree = free.pop()
                text = None
                if path:
                    text = (tree / path).read_text()
                    (tree / path).write_text(text.replace(old, new))
                log = logs / f"{i}.txt"
                pid = _forked(tree, log, lambda s=selected: _pytest(s))
                running[pid] = (i, tree, path, text, log, time.monotonic())
            pid, status = os.wait()
            i, tree, path, text, log, t0 = running.pop(pid)
            seconds = time.monotonic() - t0
            if path:
                (tree / path).write_text(text)
            free.append(tree)
            done[i] = (os.waitstatus_to_exitcode(status), log.read_text(),
                       seconds)
        yield done.pop(want)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="",
                        help="run only the mutants whose name contains this")
    rows = [row for row in MUTANTS if parser.parse_args(argv).k in row[0]]
    if not rows:
        parser.error("no mutant matches -k")
    start = time.monotonic()
    # every forked row starts from these, but imports qcongruence fresh
    import hypothesis  # noqa: F401
    import pytest  # noqa: F401
    import sympy  # noqa: F401
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="qcongruence-mutants-") as tmp:
        trees = [pathlib.Path(tmp).resolve() / str(i) for i in range(COPIES)]
        for tree in trees:
            _copy(tree)
        logs = pathlib.Path(tmp) / "logs"
        logs.mkdir()
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
        os.waitpid(_forked(trees[0], logs / "where.txt", _where), 0)
        where = (logs / "where.txt").read_text().strip()
        if not where.startswith(str(trees[0])):
            print(f"qcongruence imports from {where!r}, "
                  f"not from the copy {trees[0]}")
            return 1
        # the unmutated baseline, its selectors shared out over the copies
        selectors = sorted({s for row in rows for s in row[4]})
        parts = [selectors[i::COPIES] for i in range(COPIES)]
        for code, out, _ in _runs(trees, logs, [(None, None, None, p)
                                                for p in parts if p]):
            if code != 0:
                print("the unmutated copy fails its selected tests:")
                print(out[-6000:])
                return 1
        bad = 0
        results = _runs(trees, logs, [row[1:] for row in rows])
        for (name, *_), (code, out, seconds) in zip(rows, results):
            # 1 is "tests failed"; anything else (0 passed, 2 a collection
            # error, ...) means the mutant was not caught by a test
            outcome = {0: "SURVIVED", 1: "killed"}.get(
                code, f"pytest exit {code}")
            summary = out.strip().splitlines()[-1:]
            print(f"{outcome:>16}  {name}  ({seconds:.1f} s; "
                  f"{''.join(summary)})")
            if code != 1:
                bad += 1
                print(out[-4000:])
    print(f"{len(rows) - bad} of {len(rows)} mutants killed in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
