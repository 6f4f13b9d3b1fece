"""Cyclotomic polynomials, Euler phi, q-integers."""

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongruence.bigpoly import IntPoly, LaurentInt
from qcongruence.cyclotomic import (divisors, euler_phi, phi, phi_at_one,
                                    prime_factors, q_int)
from qcongruence.exceptions import DomainError

KNOWN = {
    1: IntPoly(-1, 1),
    2: IntPoly(1, 1),
    3: IntPoly(1, 1, 1),
    4: IntPoly(1, 0, 1),
    6: IntPoly(1, -1, 1),
    12: IntPoly(1, 0, -1, 0, 1),
    # first index with a coefficient outside {-1, 0, 1}
    105: None,
}


def test_divisors_and_prime_factors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]


def test_euler_phi():
    assert [euler_phi(d) for d in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(2 ** 10) == 2 ** 9


def test_phi_small_table():
    for d, want in KNOWN.items():
        if want is not None:
            assert phi(d) == want


def test_phi_105_has_coefficient_minus_two():
    assert -2 in phi(105).coeffs


def test_phi_degree_is_euler_phi():
    for d in range(1, 200):
        assert phi(d).degree == euler_phi(d)


def test_phi_monic_and_palindromic():
    for d in range(2, 120):
        cs = phi(d).coeffs
        assert cs[-1] == 1
        assert cs == cs[::-1]


def test_phi_agrees_with_division_construction():
    # sympy divides instead, Phi_{np}(q) = Phi_n(q^p) / Phi_n(q) for a
    # prime p not dividing n: independent of the Moebius product in phi
    x = sympy.Symbol("x")
    for d in list(range(1, 151)) + [210, 256, 360, 1000]:
        want = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
        assert phi(d) == IntPoly([int(c) for c in reversed(want)]), d


def test_product_over_divisors():
    for n in (1, 2, 6, 12, 30, 36, 97):
        prod = IntPoly(1)
        for d in divisors(n):
            prod = prod * phi(d)
        want = IntPoly([-1] + [0] * (n - 1) + [1])
        assert prod == want


def test_phi_at_one():
    assert phi_at_one(2) == 2
    assert phi_at_one(9) == 3
    assert phi_at_one(16) == 2
    assert phi_at_one(97) == 97
    assert phi_at_one(6) == 1
    assert phi_at_one(12) == 1
    with pytest.raises(DomainError):
        phi_at_one(1)


@given(st.integers(2, 400))
@settings(max_examples=60, deadline=None)
def test_phi_at_one_matches_evaluation(d):
    assert phi(d).evaluate(1) == phi_at_one(d)


def test_q_int():
    assert q_int(1).base == IntPoly(1)
    assert q_int(5).base == IntPoly(1, 1, 1, 1, 1)
    assert q_int(5).shift == 0
    assert q_int(0) == LaurentInt(IntPoly())
    neg = q_int(-2)
    assert isinstance(neg, LaurentInt)
    # [-n]_q = -q^{-n} [n]_q
    assert neg.shift == -2
    assert neg.base == IntPoly(-1, -1)


def test_q_int_factors_into_cyclotomics():
    for n in (2, 3, 4, 6, 10, 12):
        prod = IntPoly(1)
        for d in divisors(n):
            if d >= 2:
                prod = prod * phi(d)
        assert prod == q_int(n).base
        assert q_int(n).shift == 0
