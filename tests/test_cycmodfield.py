"""The folded per-modulus congruence checks mod Phi_d.

Positive grids exercise the checks across coprime (r, m, d); the negative
controls feed deliberately wrong data through the same machinery and must
come back False, otherwise the checks prove nothing.
"""

import math
from fractions import Fraction

import pytest
import sympy

from qcongruence.cycmodfield import (FoldedRatio, _ratio_into,
                                     check_block_constant,
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
# FoldedRatio plumbing

def test_folded_ratio_extracts_divisible_factors():
    f = FoldedRatio(5)
    f.mul_binom(10, 2)          # (1 - q^10)^2, and 5 | 10
    assert f.gpow == 2
    assert f.scal == Fraction(2) ** 2
    g = FoldedRatio(5)
    g.mul_binom(10, -1)
    assert g.gpow == -1
    assert g.scal == Fraction(1, 2)


def test_folded_ratio_zero_numerator():
    f = FoldedRatio(5)
    f.mul_binom(0, 1)           # the 1 - q^0 = 0 factor
    assert f.scal == 0
    assert f.is_congruent_zero()


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
    good = FoldedRatio(d)
    good.mul_scalar(_scalar_c(r, m, d, 1))
    ok, _ = folded_equal(lhs, good)
    assert ok
    bad = FoldedRatio(d)
    bad.mul_scalar(_scalar_c(r, m, d, 1) + 1)
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
