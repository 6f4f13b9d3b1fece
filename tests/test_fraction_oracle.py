"""The q = 1 shadow's integer arithmetic against Fraction-per-step oracles.

constructs.rising, verifier._binomial_sum, constructs.n_alpha,
FactoredQ.value_at_one and verifier._central_bridge keep integer
numerators and denominators and normalise once. The functions below are
Fraction-per-step loops, kept only as test oracles: every step builds and
reduces a Fraction, so they share no arithmetic with the code they check.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcongruence import verifier
from qcongruence.constructs import n_alpha, rising
from qcongruence.cyclotomic import phi_at_one
from qcongruence.exceptions import DomainError
from qcongruence.qseries import FactoredQ


def oracle_rising(r, m, k):
    """Test oracle: prod_{j<k} (r + jm) / (m (j + 1)), one Fraction per
    factor."""
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(r + j * m, m * (j + 1))
    return out


def oracle_binomial_sum(r, m, rho, n):
    """Test oracle: (plain, scaled) with binom(-alpha, k) one Fraction
    updated per k."""
    alpha = Fraction(r, m)
    plain = Fraction(0)
    scaled = Fraction(0)
    b = Fraction(1)
    for k in range(n):
        plain += (2 * k + alpha) * b ** rho
        scaled += (2 * m * k + r) * b ** rho
        b *= Fraction(-alpha - k, k + 1)
    return plain, scaled


def oracle_n_alpha(r, m, n):
    """Test oracle: numerator of n |binom(-alpha, n)| as Fractions."""
    alpha = Fraction(r, m)
    b = Fraction(1)
    for j in range(n):
        b *= (-alpha - j) / (j + 1)
    return abs(n * b).numerator


def oracle_value_at_one(f):
    """Test oracle: f at q = 1 as a product of Fraction powers."""
    e1 = f.exponent_of(1)
    if e1 > 0:
        return Fraction(0)
    if e1 < 0:
        raise DomainError("pole at q = 1")
    out = Fraction(f.sign)
    for d, e in f.factors:
        out *= Fraction(phi_at_one(d)) ** e
    return out


def oracle_central_bridge(n):
    """Test oracle: binom(-1/2, k) (-4)^k = binom(2k, k) for k < n, with
    binom(-1/2, k) one Fraction updated per k."""
    half = Fraction(1)
    central = 1
    pow4 = 1
    for k in range(n):
        if half * pow4 != central:
            return False
        half = half * (Fraction(-1, 2) - k) / (k + 1)
        central = central * (2 * (2 * k + 1)) // (k + 1)
        pow4 *= -4
    return True


def test_rising_matches_fraction_oracle():
    """Every pair is unreduced, den_k = m^k k!, and num_k / den_k is the
    oracle's product, for any r (coprime to m or not) and k <= 30."""
    for r in range(-6, 7):
        for m in range(2, 7):
            out = list(rising(r, m, 30))
            assert len(out) == 31
            for k, (num, den) in enumerate(out):
                assert den == m ** k * math.factorial(k)
                assert Fraction(num, den) == oracle_rising(r, m, k)


pairs = st.tuples(st.integers(-12, 12), st.integers(2, 8)).filter(
    lambda p: math.gcd(*p) == 1)


@given(pairs, st.integers(1, 6), st.integers(1, 40))
@example((-1, 2), 1, 1)
@example((1, 2), 3, 0)                   # no summand: both sums are 0
@example((-7, 3), 1, 0)
@example((49, 10), 6, 100)
@settings(max_examples=150, deadline=None)
def test_binomial_sum_matches_fraction_oracle(pair, rho, n):
    r, m = pair
    assert verifier._binomial_sum(r, m, rho, n) == oracle_binomial_sum(
        r, m, rho, n)


@given(pairs, st.integers(1, 40))
@example((-1, 2), 1)
@example((-7, 3), 5)
@settings(max_examples=150, deadline=None)
def test_n_alpha_matches_fraction_oracle(pair, n):
    r, m = pair
    assert n_alpha(r, m, n) == oracle_n_alpha(r, m, n)


def _at_one(value_at_one, f):
    try:
        return value_at_one(f)
    except DomainError:
        return "pole"


factored = st.builds(
    FactoredQ, st.sampled_from([1, -1]), st.integers(-5, 5),
    st.dictionaries(st.integers(1, 64), st.integers(-3, 3), max_size=8))


@given(factored)
@example(FactoredQ(1, 0, {1: 2, 4: -3}))          # a zero beats a pole
@example(FactoredQ(-1, 2, {1: -1, 3: 2}))         # the pole at q = 1
@example(FactoredQ(-1, -3, {4: -2, 9: 1, 6: -1}))  # -3/4
@settings(max_examples=200, deadline=None)
def test_value_at_one_matches_fraction_oracle(f):
    assert _at_one(FactoredQ.value_at_one, f) == _at_one(
        oracle_value_at_one, f)


@given(st.integers(0, 40))
@example(100)
@settings(max_examples=41, deadline=None)
def test_central_bridge_matches_fraction_oracle(n):
    assert verifier._central_bridge(n) == oracle_central_bridge(n)
