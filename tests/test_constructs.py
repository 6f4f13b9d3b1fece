"""The named constructs: index sets, the A/B/C factorizations, N."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongruence.bigpoly import IntPoly
from qcongruence.constructs import (a_poly, b_poly, c_poly, expand_product,
                                    lambda_residue, n_alpha, negative_tail,
                                    pair_ok, s_set)
from qcongruence.cyclotomic import phi
from qcongruence.exceptions import DomainError
from qcongruence.qseries import poch_ratio, pochhammer

coprime_pairs = [(1, 2), (-1, 2), (3, 2), (1, 3), (2, 3), (-5, 3),
                 (1, 4), (3, 4), (5, 6), (-6, 5)]


def test_pair_ok():
    assert all(pair_ok(r, m) for r, m in coprime_pairs)
    # not coprime, alpha integral, m < 2
    for bad in [(2, 2), (4, 2), (0, 2), (1, 1), (0, 1), (1, 0), (1, -2)]:
        assert not pair_ok(*bad)


def test_lambda_residue():
    # d | r + lambda * m, lambda in [0, d)
    assert lambda_residue(1, 2, 5) == 2
    assert lambda_residue(-5, 3, 7) == 4
    assert lambda_residue(1, 3, 4) == 1
    for r, m in coprime_pairs:
        for d in range(1, 25):
            if math.gcd(d, m) == 1:
                lam = lambda_residue(r, m, d)
                assert 0 <= lam < d
                assert (r + lam * m) % d == 0


def test_s_set_frozen():
    assert s_set(1, 2, 3) == (5,)
    assert s_set(1, 3, 1) == ()
    assert s_set(1, 2, 5) == (3, 7, 9)
    assert s_set(-5, 3, 7) == (5, 10, 13)


def test_s_set_membership_rule():
    # d is in S iff gcd(d, m) = 1 and lambda_{r,m}(d) < n mod d
    for r, m in coprime_pairs:
        for n in range(1, 12):
            got = set(s_set(r, m, n))
            bound = max(abs(r + j * m) for j in range(n)) if n else 0
            for d in range(2, bound + 1):
                member = (math.gcd(d, m) == 1
                          and lambda_residue(r, m, d) < n % d)
                assert (d in got) == member, (r, m, n, d)


def test_a_poly_counts_surviving_numerator_factors():
    f = a_poly(1, 2, 3)
    assert repr(f) == "Phi_5"
    assert expand_product(f) == phi(5)
    g = a_poly(-5, 3, 7)
    assert sorted(d for d, _ in g.factors) == [5, 10, 13]
    assert all(e == 1 for _, e in g.factors)


def test_b_poly_frozen():
    f = b_poly(2, 3)
    assert dict(f.factors) == {2: 3, 4: 1, 6: 1}
    assert f.sign == 1 and f.qexp == 0
    assert expand_product(f).evaluate(1) == 16


def test_b_poly_exponent_formula():
    # exponent of Phi_d is floor(n * gcd(d, m) / d), over gcd(d, m) > 1
    for m in (2, 3, 4):
        for n in range(1, 8):
            f = b_poly(m, n)
            for d, e in f.factors:
                g = math.gcd(d, m)
                assert g > 1
                assert e == n * g // d > 0


def test_c_poly():
    assert repr(c_poly(2, 3)) == "Phi_3"
    assert c_poly(2, 1) == type(c_poly(2, 1))()
    # d | n with gcd(d, m) = 1, d >= 2
    f = c_poly(2, 15)
    assert sorted(d for d, _ in f.factors) == [3, 5, 15]


def test_n_alpha_frozen():
    assert n_alpha(1, 2, 3) == 15
    assert n_alpha(1, 3, 1) == 1
    assert n_alpha(1, 3, 4) == 140
    assert n_alpha(-5, 3, 7) == 455
    with pytest.raises(DomainError):
        n_alpha(4, 2, 3)


def test_n_alpha_definition():
    # numerator of n * |binom(-alpha, n)| in lowest terms
    for r, m in coprime_pairs:
        alpha = Fraction(r, m)
        for n in range(1, 12):
            prod = Fraction(1)
            for i in range(n):
                prod *= -alpha - i
            val = n * abs(prod) / math.factorial(n)
            assert n_alpha(r, m, n) == val.numerator


def test_n_alpha_odd_part_of_central_binomial():
    # alpha = 1/2: N is the odd part of n * binom(2n, n)
    for n in range(1, 20):
        x = n * math.comb(2 * n, n)
        while x % 2 == 0:
            x //= 2
        assert n_alpha(1, 2, n) == x


def test_negative_tail():
    # counts the 1 - q^{negative} factors and totals their exponents
    assert negative_tail(-5, 3, 7) == (2, -7)
    assert negative_tail(1, 2, 3) == (0, 0)
    for r, m in coprime_pairs:
        for n in range(1, 10):
            cnt, tot = negative_tail(r, m, n)
            exps = [r + j * m for j in range(n) if r + j * m < 0]
            assert cnt == len(exps)
            assert tot == sum(exps)


def test_structure_of_ratio_times_b():
    # ratio * B = (-1)^cnt q^tot * prod_{d in S} Phi_d, exactly
    for r, m in coprime_pairs:
        for n in range(1, 10):
            lhs = poch_ratio(r, m, n) * b_poly(m, n)
            cnt, tot = negative_tail(r, m, n)
            want_sign = -1 if cnt % 2 else 1
            assert lhs.sign == want_sign
            assert lhs.qexp == tot
            assert tuple(sorted(d for d, _ in lhs.factors)) == s_set(r, m, n)
            assert all(e == 1 for _, e in lhs.factors)
