"""The package's exactness rules, checked on its source.

Every module of src/qcongruence is parsed and its syntax tree walked. It
must hold:

  no float literal and no float() call: every value is an integer, a
  Fraction or an integer polynomial;
  no math attribute outside the integer functions in INTEGER_MATH, so no
  math.inf, math.nan, math.sqrt or math.log, and no math.factorial or
  math.prod: the Pochhammer pair behind every binom(-r/m, k) is formed
  in one place, constructs.rising;
  no assert statement: python -O drops them, so no check may rest on one.

The modules in INTEGER_ONLY also import nothing from fractions: their
values are integers and integer polynomials, and a rational scalar is an
integer numerator and denominator.

True division stays allowed, because it is how Fractions divide.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qcongruence"
MODULES = sorted(SRC.glob("*.py"))

INTEGER_MATH = {"gcd", "lcm", "comb", "perm", "isqrt"}

INTEGER_ONLY = ("bigpoly.py", "cyclotomic.py", "cycmodfield.py")


def violations(source, name="<source>"):
    """Each rule the source breaks, as 'name:line: what'."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            what = f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            what = "float() call"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "math"
              and node.attr not in INTEGER_MATH):
            what = f"math.{node.attr}"
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(a.name not in INTEGER_MATH for a in node.names)):
            what = "from math import " + ", ".join(a.name for a in node.names)
        elif isinstance(node, ast.Assert):
            what = "assert statement"
        if what:
            found.append(f"{name}:{node.lineno}: {what}")
    return found


def test_the_package_has_modules():
    assert SRC / "bigpoly.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_the_exact_rules(path):
    assert violations(path.read_text(), path.name) == []


@pytest.mark.parametrize("source,what", [
    ("NEG_INF = float('-inf')", "float() call"),
    ("x = 0.5", "float literal 0.5"),
    ("x = 1e3", "float literal 1000.0"),
    ("x = math.inf", "math.inf"),
    ("y = math.log2(x)", "math.log2"),
    ("den = m ** k * math.factorial(k)", "math.factorial"),
    ("from math import sqrt", "from math import sqrt"),
    ("def f(x):\n    if x:\n        assert x > 0\n", "assert statement"),
])
def test_each_rule_catches_its_case(source, what):
    assert [v.split(": ", 1)[1] for v in violations(source)] == [what]


def fraction_imports(source, name="<source>"):
    """Each import from the fractions module, as 'name:line: what'."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"{name}:{node.lineno}: from fractions import")
        elif isinstance(node, ast.Import) and any(
                a.name == "fractions" for a in node.names):
            found.append(f"{name}:{node.lineno}: import fractions")
    return found


@pytest.mark.parametrize("name", INTEGER_ONLY)
def test_integer_module_imports_no_fractions(name):
    assert fraction_imports((SRC / name).read_text(), name) == []


def test_fraction_import_rule_catches_both_spellings():
    assert fraction_imports("from fractions import Fraction\n") == [
        "<source>:1: from fractions import"]
    assert fraction_imports("import math, fractions\n") == [
        "<source>:1: import fractions"]
    assert fraction_imports("import math\nfrom math import gcd\n") == []


def test_integer_code_passes():
    source = ("import math\nfrom fractions import Fraction\n"
              "x = math.gcd(4, 6) + math.isqrt(17)\ny = Fraction(1, 3) / 2\n")
    assert violations(source) == []
