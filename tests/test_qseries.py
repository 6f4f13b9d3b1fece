"""Factored products of cyclotomics and Pochhammer symbols.

The d = 1 factor stands for 1 - q, not the monic q - 1, so products of
(1 - q^h) factors carry no hidden sign. Everything here leans on that.

FactoredQ.expand builds its product from net 1 - q^h passes; the oracle
below multiplies it out one Phi_d at a time instead, taking each Phi_d from
sympy's cyclotomic_poly, so no code of the package's cyclotomic layer is on
both sides.
"""

import functools
import hashlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcongruence import cli
from qcongruence.bigpoly import IntPoly, LaurentInt
from qcongruence.cyclotomic import divisors
from qcongruence.exceptions import DomainError
from qcongruence.qseries import FactoredQ, poch_ratio, pochhammer


def one_minus_q_to_the(h):
    """1 - q^h expanded directly, the reference for factored results."""
    return IntPoly([1] + [0] * (h - 1) + [-1])


@functools.lru_cache(maxsize=None)
def sympy_phi(d):
    """Phi_d from sympy as an IntPoly, with the d = 1 factor as 1 - q."""
    if d == 1:
        return IntPoly(1, -1)
    q = sympy.Symbol("q")
    cs = sympy.Poly(sympy.cyclotomic_poly(d, q), q).all_coeffs()
    return IntPoly([int(c) for c in reversed(cs)])


def expand_phi_by_phi(f):
    """Test oracle: sign * q^qexp times each Phi_d^e multiplied out in turn,
    every Phi_d from sympy."""
    num = IntPoly(f.sign)
    for d, e in f.factors:
        for _ in range(e):
            num = num * sympy_phi(d)
    return LaurentInt(num, f.qexp)


def test_factored_one_and_no_zero():
    one = FactoredQ()
    assert one.sign == 1 and one.qexp == 0 and one.factors == ()
    # 1 - q^0 raises instead of becoming a zero value
    assert FactoredQ.__slots__ == ("sign", "qexp", "factors")
    assert not hasattr(FactoredQ, "zero")


def test_repr_sorted_by_index():
    f = pochhammer(1, 2, 2)  # (1-q)(1-q^3)
    assert repr(f) == "Phi_1^2 * Phi_3"


def test_pochhammer_positive_exponents():
    # (q; q)_3 = (1-q)(1-q^2)(1-q^3)
    f = pochhammer(1, 1, 3)
    assert f.sign == 1 and f.qexp == 0
    assert dict(f.factors) == {1: 3, 2: 1, 3: 1}
    want = one_minus_q_to_the(1) * one_minus_q_to_the(2) * one_minus_q_to_the(3)
    got = f.expand()
    assert got.shift == 0
    assert got.base == want


def test_pochhammer_zero_factor():
    with pytest.raises(DomainError):
        pochhammer(0, 2, 1)
    with pytest.raises(DomainError):
        pochhammer(-4, 2, 3)  # hits exponent 0 at j = 2
    assert pochhammer(-4, 2, 2) == FactoredQ(1, -6, {1: 2, 2: 2, 4: 1})
    assert pochhammer(5, 5, 0) == FactoredQ()


def test_pochhammer_negative_exponent_sign_flip():
    # (q^-1; q^2)_2 = (1 - q^-1)(1 - q) = -q^-1 (1-q)^2
    f = pochhammer(-1, 2, 2)
    assert f.sign == -1 and f.qexp == -1
    assert dict(f.factors) == {1: 2}


@given(st.integers(1, 15), st.integers(1, 6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_pochhammer_expand_matches_direct_product(a, m, k):
    f = pochhammer(a, m, k)
    direct = IntPoly(1)
    for i in range(k):
        direct = direct * one_minus_q_to_the(a + i * m)
    got = f.expand()
    assert got.shift == 0
    assert got.base == direct


def test_mul_and_pow_cancel():
    f = pochhammer(1, 2, 3)  # Phi_1^3 * Phi_3 * Phi_5
    g = FactoredQ(1, 0, {1: -3, 3: -1, 5: -1})
    assert f * g == FactoredQ()
    assert f ** 0 == FactoredQ()
    assert f ** 2 == f * f
    assert f ** -1 == g


def test_value_at_one():
    # (q; q)_2 = (1-q)(1-q^2) vanishes at q = 1
    assert pochhammer(1, 1, 2).value_at_one() == 0
    # Phi_2 * Phi_3 at 1 is 2 * 3
    f = pochhammer(1, 1, 2) ** -1 * pochhammer(1, 1, 2)
    assert f.value_at_one() == 1
    # negative exponents land in the denominator: -Phi_9 / Phi_4^2 at 1
    assert FactoredQ(-1, 7, {4: -2, 9: 1}).value_at_one() == Fraction(-3, 4)
    with pytest.raises(DomainError):
        (pochhammer(1, 1, 2) ** -1).value_at_one()


factored_products = st.builds(
    FactoredQ, st.sampled_from([1, -1]), st.integers(-5, 5),
    st.dictionaries(st.integers(1, 60), st.integers(0, 3), max_size=8))


@given(factored_products)
@example(FactoredQ(-1, 3, {1: 2, 6: 1, 60: 3}))
@settings(max_examples=150, deadline=None)
def test_expand_matches_phi_by_phi_oracle(f):
    assert f.expand() == expand_phi_by_phi(f)


@given(st.dictionaries(st.integers(1, 60), st.integers(-3, 3), min_size=1,
                       max_size=8), st.integers(1, 60))
@example({2: 1}, 1)     # (1 + q) / (1 - q)
@settings(max_examples=60, deadline=None)
def test_expand_refuses_negative_exponents(tally, d):
    # Phi_d^-1 times anything else stays a pole, even when the net binomial
    # product could be divided out
    tally[d] = -1
    with pytest.raises(DomainError):
        FactoredQ(1, 0, tally).expand()


# sha256 of `qcongruence show` stdout, taken when A and B were still
# multiplied out one Phi_d at a time (about 90 s and 150 s each on a
# 2-core host)
SHOW_SHA256 = {
    ("A", "--r", "49", "--m", "10", "--n", "100"):
        "f02909e58b76994ac0db3e86b86c8f70cea9b1b9d60390c8df20c4cf7002949e",
    ("B", "--m", "10", "--n", "100"):
        "4861f66997f85d708668bbba56d57cf6d787771b81b3d49fe6b53a059c69e2c4",
}


@pytest.mark.parametrize("key", sorted(SHOW_SHA256))
def test_show_large_products_pinned(key, capsys):
    assert cli.main(["show", *key]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SHOW_SHA256[key]


def test_poch_ratio_frozen_example():
    f = poch_ratio(1, 2, 3)
    assert repr(f) == "Phi_5 * Phi_2^-3 * Phi_4^-1 * Phi_6^-1"
    g = poch_ratio(-5, 3, 7)
    assert g.sign == 1 and g.qexp == -7
    tally = dict(g.factors)
    assert tally[5] == 1 and tally[13] == 1
    assert tally[3] == -7


def test_poch_ratio_cross_multiplied():
    # num / den as factored objects: cross-multiply to avoid inversion
    for (r, m, n) in [(1, 2, 3), (2, 3, 4), (-1, 2, 2), (3, 4, 5)]:
        ratio = poch_ratio(r, m, n)
        num = pochhammer(r, m, n)
        den = pochhammer(m, m, n)
        assert ratio * den == num


def test_poch_ratio_refuses_a_zero_factor():
    # (q^-2; q^2)_3 has the factor 1 - q^0; (q^2; q^2)_3 does not, so m | r
    # alone is no error
    with pytest.raises(DomainError):
        poch_ratio(-2, 2, 3)
    assert poch_ratio(2, 2, 3) == FactoredQ()
    with pytest.raises(DomainError):
        poch_ratio(1, 0, 3)
