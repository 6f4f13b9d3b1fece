"""The q-congruence's cleared sum against an independent construction.

`verifier._qcong_data` builds the cleared sum B^rho * sum_k (summand k) by
an exact binomial recurrence. The oracle below is a second, unrelated
construction, kept only as a test oracle: it accumulates the sum's
numerator W over the common denominator (1-q)(q^m;q^m)_{n-1}^rho, divides
W exactly by the part of that denominator coprime to m, and multiplies the
quotient by the expanded B^rho / U (U the remaining denominator part). A
per-summand FactoredQ tally supplies the first non-integral summand, if
any. Its two long divisions are quadratic, so it stays at n <= 12.

The divisibility itself is read from one remainder modulo A*C; sympy
recomputes that remainder below.
"""

import math

import pytest
import sympy

from qcongruence.bigpoly import IntPoly, LaurentInt, mul_binom
from qcongruence.constructs import (a_poly, b_poly, c_poly, expand_product,
                                    summand_twist)
from qcongruence.exceptions import NotDivisible
from qcongruence.qseries import FactoredQ, poch_ratio, pochhammer
from qcongruence.verifier import _qcong_data

# criterion 6's pairs
QCONG_PAIRS = [(1, 2), (-1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]


def _times_binom(p, x):
    """The LaurentInt p times 1 - q^x, x != 0; for x < 0 this is
    -q^x (1 - q^-x)."""
    cs = mul_binom(p.base.coeffs, abs(x))
    if x > 0:
        return LaurentInt(IntPoly(cs), p.shift)
    return LaurentInt(IntPoly([-c for c in cs]), p.shift + x)


def oracle_qcong(r, m, rho, n):
    """(cleared, H, nonintegral_k) by accumulation over a common
    denominator and two exact long divisions."""
    bf_rho = b_poly(r, m, n) ** rho
    nonintegral_k = None
    for k in range(n):
        x = 2 * m * k + r
        if x == 0:
            continue
        term = bf_rho * poch_ratio(r, m, k) ** rho * pochhammer(x, 1, 1)
        if not (term * FactoredQ(1, 0, {1: -1})).is_laurent_poly:
            nonintegral_k = k
            break

    W = LaurentInt(IntPoly(), 0)
    P = LaurentInt(IntPoly(1), 0)
    for k in range(n):
        if k:
            for _ in range(rho):
                W = _times_binom(W, m * k)
                P = _times_binom(P, r + (k - 1) * m)
        x = 2 * m * k + r
        if x == 0:
            continue
        sign, e = summand_twist(r, m, rho, k)
        L = _times_binom(P, x)
        W = W + LaurentInt(L.base * sign, L.shift + e)

    denom = pochhammer(1, 1, 1) * pochhammer(m, m, n - 1) ** rho
    coprime = {d: e for d, e in denom.factors if math.gcd(d, m) == 1}
    rest = {d: e for d, e in denom.factors if math.gcd(d, m) > 1}
    V = FactoredQ(denom.sign, denom.qexp, coprime).expand().base
    Y = W.base.div_exact(V)
    G = (bf_rho * FactoredQ(1, 0, rest) ** -1).expand().base
    cleared = LaurentInt(Y * G, W.shift)

    AC = expand_product(a_poly(r, m, n) * c_poly(m, n))
    try:
        H = cleared.base.div_exact(AC)
    except NotDivisible:
        H = None
    return cleared, H, nonintegral_k


@pytest.mark.parametrize("r,m", QCONG_PAIRS)
def test_recurrence_matches_oracle(r, m):
    for rho in (1, 2, 3):
        for n in range(1, 13):
            data = _qcong_data(r, m, rho, n)
            cleared, H, nonintegral_k = oracle_qcong(r, m, rho, n)
            assert data["cleared"] == cleared, (r, m, rho, n)
            assert data["remainder"].is_zero == (H is not None), \
                (r, m, rho, n)
            assert data["nonintegral_k"] == nonintegral_k, (r, m, rho, n)


def _sympy_rem(f, g):
    q = sympy.Symbol("q")
    rem = sympy.rem(sympy.Poly(list(reversed(f.coeffs)) or [0], q),
                    sympy.Poly(list(reversed(g.coeffs)), q))
    return IntPoly([int(c) for c in reversed(rem.all_coeffs())])


@pytest.mark.parametrize("r,m", QCONG_PAIRS)
def test_remainder_matches_sympy(r, m):
    # the divisibility rests on one remainder; sympy recomputes it, and a
    # cleared sum moved by 1 must leave the same nonzero remainder in both
    for rho in (1, 2):
        for n in range(1, 9):
            data = _qcong_data(r, m, rho, n)
            cleared, AC = data["cleared"].base, data["AC"]
            assert data["remainder"].is_zero, (r, m, rho, n)
            assert _sympy_rem(cleared, AC).is_zero, (r, m, rho, n)
            moved = cleared + 1
            assert moved.rem_monic(AC) == _sympy_rem(moved, AC), \
                (r, m, rho, n)
            assert AC.degree == 0 or not moved.rem_monic(AC).is_zero, \
                (r, m, rho, n)
