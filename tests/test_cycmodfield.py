"""The folded per-modulus congruence checks mod Phi_d.

Positive grids exercise the checks across coprime (r, m, d); the negative
controls feed deliberately wrong data through the same machinery and must
come back False, otherwise the checks prove nothing.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcongruence.bigpoly import fold, mul_binom
from qcongruence.constructs import lambda_residue
from qcongruence.cycmodfield import (FoldedRatio, _fold_mul_binom,
                                     _ratio_into, check_block_constant,
                                     check_block_decomposition,
                                     check_block_sum, check_mu_consistency,
                                     check_qbinom_reduction,
                                     check_sign_reduction, folded_equal)
from qcongruence.exceptions import DomainError

PAIRS = [(1, 2), (-1, 2), (3, 2), (1, 3), (2, 3), (-5, 3), (1, 4), (3, 4)]


def _same(lhs, rhs):
    return folded_equal(lhs, rhs)[0]


# ---------------------------------------------------------------------------
# exponent folding mod Phi_d

def test_folded_ratio_folds_exponents():
    # q^5 and q^2 agree mod Phi_3
    assert _same(FoldedRatio(3).mul_qpow(5), FoldedRatio(3).mul_qpow(2))
    # Laurent exponents fold too: q^-1 is -q mod Phi_4
    assert _same(FoldedRatio(4).mul_qpow(-1),
                 FoldedRatio(4).mul_scalar(-1).mul_qpow(1))


def test_q_to_the_half_period_is_minus_one():
    for d in (2, 4, 6, 10, 12):
        assert _same(FoldedRatio(d).mul_qpow(d // 2),
                     FoldedRatio(d).mul_scalar(-1))
        assert _same(FoldedRatio(d).mul_qpow(d), FoldedRatio(d))


def _sympy_ratio_residues(r, m, d):
    """ratio_k = (q^r;q^m)_k / (q^m;q^m)_k mod Phi_d for k < d, by sympy:
    each 1 - q^x folds to 1 - q^(x mod d), and the denominator, a unit
    because gcd(m, d) = 1, is inverted by sympy.invert."""
    q = sympy.Symbol("q")
    mod = sympy.cyclotomic_poly(d, q)
    num, den, out = sympy.Integer(1), sympy.Integer(1), []
    for k in range(d):
        out.append(sympy.rem(num * sympy.invert(den, mod, q), mod, q))
        num = sympy.rem(num * (1 - q ** ((r + k * m) % d)), mod, q)
        den = sympy.rem(den * (1 - q ** ((k + 1) * m % d)), mod, q)
    return out


def test_folded_equal_matches_sympy_residues():
    verdicts = []
    for r, m in PAIRS:
        for d in range(2, 10):
            if math.gcd(d, m) > 1:
                continue
            want = _sympy_ratio_residues(r, m, d)
            for k2 in range(d):
                for k1 in range(k2):
                    got = _same(_ratio_into(FoldedRatio(d), r, m, k1),
                                _ratio_into(FoldedRatio(d), r, m, k2))
                    assert got == (sympy.expand(want[k1] - want[k2]) == 0), \
                        (r, m, d, k1, k2)
                    verdicts.append(got)
    # both outcomes occur, so neither a constant True nor False passes
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# the folded 1 - q^s multiply

@given(st.integers(2, 12), st.data())
@settings(max_examples=120, deadline=None)
def test_folded_binom_matches_unfolded_kernel(d, data):
    # the unfolded kernel followed by fold is the labelled oracle for the
    # folded rotate-and-subtract; at s = 0, 1 - q^d folds to zero
    arr = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=d,
                             max_size=d))
    for s in range(d):
        got = _fold_mul_binom(arr, d, s)
        if s == 0:
            assert got == [0] * d
        assert got == fold(mul_binom(arr, s or d), d)
        assert _fold_mul_binom(arr, d, s + 3 * d, 2) == fold(
            mul_binom(arr, s or d, 2), d)


# ---------------------------------------------------------------------------
# FoldedRatio plumbing

def test_folded_ratio_holds_two_integer_arrays_and_a_count():
    assert FoldedRatio.__slots__ == ("d", "gpow", "num", "den")
    assert not hasattr(FoldedRatio(3), "__dict__")
    f = FoldedRatio(3).mul_scalar(-4, 6)
    assert (f.gpow, f.num, f.den) == (0, [-2, 0, 0], [3, 0, 0])
    # integers only: a Fraction scalar is refused, not converted
    with pytest.raises(TypeError):
        FoldedRatio(3).mul_scalar(Fraction(-2, 3))


def test_folded_ratio_extracts_divisible_factors():
    f = FoldedRatio(5)
    f.mul_binom(10, 2)          # (1 - q^10)^2, and 5 | 10
    assert f.gpow == 2
    assert (f.num, f.den) == ([4, 0, 0, 0, 0], [1, 0, 0, 0, 0])
    g = FoldedRatio(5)
    g.mul_binom(10, -1)
    assert g.gpow == -1
    assert (g.num, g.den) == ([1, 0, 0, 0, 0], [2, 0, 0, 0, 0])
    # (1 - q^-5)/(1 - q^5) is -1, and the sign lands in num
    h = FoldedRatio(5).mul_binom(-5).mul_binom(5, -1)
    assert h.gpow == 0
    assert (h.num, h.den) == ([-1, 0, 0, 0, 0], [1, 0, 0, 0, 0])


def test_folded_ratio_zero_numerator():
    f = FoldedRatio(5)
    f.mul_binom(0, 1)           # the 1 - q^0 = 0 factor
    assert f.gpow == 1
    assert (f.num, f.den) == ([0] * 5, [1, 0, 0, 0, 0])
    assert f.is_congruent_zero()


def test_folded_ratio_refuses_poles():
    # 1 - q^0 downstairs, and a negative (1 - q^d) count once decided
    with pytest.raises(DomainError):
        FoldedRatio(5).mul_binom(0, -1)
    pole = FoldedRatio(5).mul_binom(5, -1)
    with pytest.raises(DomainError):
        pole.is_congruent_zero()
    with pytest.raises(DomainError):
        folded_equal(pole, FoldedRatio(5))
    with pytest.raises(DomainError):
        folded_equal(FoldedRatio(5).mul_binom(0), pole)


# (numerator, denominator) integer pairs, not reduced; the denominator
# takes either sign
scalars = st.tuples(st.integers(-20, 20),
                    st.integers(1, 12) | st.integers(-12, -1))


@given(st.sampled_from(PAIRS), st.integers(2, 12), st.integers(0, 2),
       st.integers(0, 11), scalars, scalars)
@example((1, 2), 5, 1, 1, (1, 2), (1, 1))   # same numerator
@example((-5, 3), 7, 2, 3, (-3, 4), (3, 4))
@example((1, 3), 5, 0, 2, (6, 4), (-3, -2))  # one ratio, two spellings
@settings(max_examples=100, deadline=None)
def test_folded_equal_sees_every_scalar(pair, d, s, t, c1, c2):
    # ratio_k with k = s*d + t is a nonzero element of the field
    # Q[q]/Phi_d when t <= lambda, so c1 * ratio_k == c2 * ratio_k exactly
    # when c1 == c2 as rationals; Fraction is the oracle for that
    r, m = pair
    assume(math.gcd(d, m) == 1)
    k = s * d + t % (lambda_residue(r, m, d) + 1)
    assert not _ratio_into(FoldedRatio(d), r, m, k).is_congruent_zero()
    lhs = _ratio_into(FoldedRatio(d).mul_scalar(*c1), r, m, k)
    for c in (c1, c2):
        rhs = _ratio_into(FoldedRatio(d), r, m, k).mul_scalar(*c)
        assert _same(lhs, rhs) == (Fraction(*c1) == Fraction(*c)), \
            (r, m, d, k, c1, c)


def test_folded_equal_detects_inequality():
    a = FoldedRatio(5)
    a.mul_qpow(1)
    b = FoldedRatio(5)
    b.mul_qpow(2)
    ok, _ = folded_equal(a, b)
    assert not ok
    ok, _ = folded_equal(a, a)
    assert ok


def test_folded_equal_gpow_mismatch():
    a = FoldedRatio(5)
    a.mul_binom(5, 1)
    b = FoldedRatio(5)
    b.mul_scalar(1)
    ok, _ = folded_equal(a, b)
    assert not ok


# ---------------------------------------------------------------------------
# per-modulus checks, positive grids

def test_block_constant_grid():
    for r, m in PAIRS:
        for d in range(2, 13):
            if math.gcd(d, m) == 1:
                assert check_block_constant(r, m, d).ok, (r, m, d)


def test_block_sum_grid():
    for r, m in PAIRS:
        for rho in (1, 2, 3):
            for d in range(2, 11):
                if math.gcd(d, m) == 1:
                    assert check_block_sum(r, m, rho, d).ok, (r, m, rho, d)


def test_block_decomposition_grid():
    for r, m in [(1, 2), (-1, 2), (2, 3), (3, 4)]:
        for d in (3, 5, 7):
            if math.gcd(d, m) > 1:
                continue
            for s in (0, 1, 2):
                for t in range(0, min(d, 4)):
                    assert check_block_decomposition(r, m, d, s, t).ok, \
                        (r, m, d, s, t)


def test_qbinom_reduction_grid():
    for r, m in PAIRS:
        for d in range(2, 13):
            if math.gcd(d, m) == 1:
                assert check_qbinom_reduction(r, m, d).ok, (r, m, d)


def test_sign_reduction_grid():
    for m in (2, 3, 4, 5):
        for d in range(2, 13):
            if math.gcd(d, m) == 1:
                for s in (0, 1, 2, 3):
                    for h in (0, 1, 2):
                        assert check_sign_reduction(m, d, s, h).ok, \
                            (m, d, s, h)


def test_mu_consistency_grid():
    for r, m in [(1, 2), (-1, 2), (1, 3), (2, 3)]:
        for rho in (1, 2, 3):
            for d in (3, 5, 7):
                if math.gcd(d, m) > 1:
                    continue
                for s in (1, 2):
                    for t in (0, 1, 2):
                        assert check_mu_consistency(r, m, rho, d, s, t).ok, \
                            (r, m, rho, d, s, t)


def test_checks_reject_bad_domain():
    with pytest.raises(DomainError):
        check_block_constant(1, 2, 4)   # gcd(d, m) > 1
    with pytest.raises(DomainError):
        check_block_sum(2, 4, 1, 3)     # gcd(r, m) > 1


# ---------------------------------------------------------------------------
# negative controls

def test_negative_control_distinct_ratio_blocks():
    """Ratio values at indices 2 and 3 differ mod Phi_5; a checker that
    cannot see this difference would pass anything."""
    a = FoldedRatio(5)
    _ratio_into(a, 1, 2, 2)
    b = FoldedRatio(5)
    _ratio_into(b, 1, 2, 3)
    ok, _ = folded_equal(a, b)
    assert not ok


def test_negative_control_wrong_scalar():
    # block_constant equates ratio_d to a specific rational; any other
    # rational must fail the same comparison
    r, m, d = 1, 2, 5
    lhs = FoldedRatio(d)
    from qcongruence.cycmodfield import _scalar_c
    _ratio_into(lhs, r, m, d)
    num, den = _scalar_c(r, m, d, 1)
    good = FoldedRatio(d)
    good.mul_scalar(num, den)
    ok, _ = folded_equal(lhs, good)
    assert ok
    bad = FoldedRatio(d)
    bad.mul_scalar(num + den, den)
    ok, _ = folded_equal(lhs, bad)
    assert not ok


def test_negative_control_perturbed_weight():
    """block_sum with the summand's q-power perturbed by +2mk instead of
    -mk must break: emulate by shifting the left side before comparing."""
    r, m, rho, d = 1, 2, 1, 5
    outcome = check_block_sum(r, m, rho, d)
    assert outcome.ok
    # shifting a passing folded residue by q^1 must unbalance it
    lhs = FoldedRatio(d)
    lhs.mul_scalar(3)
    rhs = FoldedRatio(d)
    rhs.mul_scalar(3)
    rhs.mul_qpow(1)
    ok, _ = folded_equal(lhs, rhs)
    assert not ok
