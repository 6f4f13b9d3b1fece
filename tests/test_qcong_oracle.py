"""The q-congruence's cleared sum against an independent construction.

`verifier._qcong_data` builds the cleared sum B^rho * sum_k (summand k) by
an exact binomial recurrence. The oracle below is a second, unrelated
construction, kept only as a test oracle: it accumulates the sum's
numerator W over the common denominator (1-q)(q^m;q^m)_{n-1}^rho, divides
W exactly by the part of that denominator coprime to m, and multiplies the
quotient by the expanded B^rho / U (U the remaining denominator part). A
per-summand FactoredQ tally supplies the first non-integral summand, if
any. Its two long divisions are quadratic, so it stays at n <= 12.
Further out, the resume tests check the same identity cross-multiplied:
cleared * denominator == W * B^rho, with the factors the two sides share
cancelled first.

Grids resume the cleared sum from the previous instance; the resume tests
build every instance from empty and in three orders, and compare.

The divisibility itself is read from one remainder modulo A*C; sympy
recomputes that remainder below.
"""

import itertools
import math
import random

import pytest
import sympy

from qcongruence import verifier
from qcongruence.bigpoly import IntPoly, LaurentInt, mul_binom
from qcongruence.constructs import (a_poly, b_poly, c_poly, expand_product,
                                    summand_twist)
from qcongruence.exceptions import NotDivisible
from qcongruence.qseries import FactoredQ, poch_ratio, pochhammer
from qcongruence.verifier import _qcong_data

# criterion 6's pairs
QCONG_PAIRS = [(1, 2), (-1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]


def _add(p, q):
    """The LaurentInt p + q: both bases padded to the lower shift, then
    added entry by entry."""
    s = min(p.shift, q.shift)
    a = (0,) * (p.shift - s) + p.base.coeffs
    b = (0,) * (q.shift - s) + q.base.coeffs
    return LaurentInt(IntPoly([x + y for x, y in
                               itertools.zip_longest(a, b, fillvalue=0)]), s)


def _times_binom(p, x):
    """The LaurentInt p times 1 - q^x, x != 0; for x < 0 this is
    -q^x (1 - q^-x)."""
    cs = mul_binom(p.base.coeffs, abs(x))
    if x > 0:
        return LaurentInt(IntPoly(cs), p.shift)
    return LaurentInt(IntPoly([-c for c in cs]), p.shift + x)


def oracle_terms(r, m, rho, n):
    """(W, denom, bf_rho, nonintegral_k): the cleared sum is
    W * bf_rho / denom, with W accumulated over the common denominator."""
    bf_rho = b_poly(m, n) ** rho
    nonintegral_k = None
    for k in range(n):
        x = 2 * m * k + r
        if x == 0:
            continue
        term = bf_rho * poch_ratio(r, m, k) ** rho * pochhammer(x, 1, 1)
        if any(e < 0 for _, e in (term * FactoredQ(1, 0, {1: -1})).factors):
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
        W = _add(W, LaurentInt(IntPoly([sign * c for c in L.base.coeffs]),
                               L.shift + e))
    denom = pochhammer(1, 1, 1) * pochhammer(m, m, n - 1) ** rho
    return W, denom, bf_rho, nonintegral_k


def oracle_qcong(r, m, rho, n):
    """(cleared, H, nonintegral_k) by accumulation over a common
    denominator and two exact long divisions."""
    W, denom, bf_rho, nonintegral_k = oracle_terms(r, m, rho, n)
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


# (-3, 2) and (-5, 3) place summands above the running low end of the
# cleared sum's list, which no criterion 6 pair does for n <= 12
@pytest.mark.parametrize("r,m", QCONG_PAIRS + [(-3, 2), (-5, 3)])
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
            moved = IntPoly([cleared.coeffs[0] + 1, *cleared.coeffs[1:]])
            assert moved.rem_monic(AC) == _sympy_rem(moved, AC), \
                (r, m, rho, n)
            assert AC.degree == 0 or not moved.rem_monic(AC).is_zero, \
                (r, m, rho, n)


# criterion 6's pairs, rho 1..3, n 1..18
RESUME_KEYS = [(r, m, rho, n) for r, m in QCONG_PAIRS for rho in (1, 2, 3)
               for n in range(1, 19)]


@pytest.fixture(scope="module")
def from_empty():
    """_cleared_sum of every RESUME_KEYS instance, each built from empty."""
    out = {}
    for key in RESUME_KEYS:
        verifier.reset_qcong()
        out[key] = verifier._cleared_sum(*key)
    verifier.reset_qcong()
    return out


def test_from_empty_matches_oracle(from_empty):
    # cleared = W * bf_rho / denom, cross-multiplied after the factored
    # ratio bf_rho / denom has cancelled what it can
    for key, (cleared, nonintegral_k) in from_empty.items():
        W, denom, bf_rho, oracle_k = oracle_terms(*key)
        ratio = bf_rho * denom ** -1
        num = FactoredQ(ratio.sign, ratio.qexp,
                        {d: e for d, e in ratio.factors if e > 0})
        den = FactoredQ(1, 0, {d: -e for d, e in ratio.factors if e < 0})
        assert cleared * den.expand() == W * num.expand(), key
        assert nonintegral_k == oracle_k, key


ORDERS = {"grid": RESUME_KEYS,
          "shuffled": random.Random(6).sample(RESUME_KEYS, len(RESUME_KEYS)),
          "descending": RESUME_KEYS[::-1]}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_resumed_matches_from_empty(order, from_empty):
    verifier.reset_qcong()
    for key in ORDERS[order]:
        assert verifier._cleared_sum(*key) == from_empty[key], key
    verifier.reset_qcong()


def test_random_resumes_match_from_empty(from_empty):
    rng = random.Random(40)
    for _ in range(40):
        r, m = rng.choice(QCONG_PAIRS)
        rho = rng.randint(1, 3)
        n0, n = sorted(rng.choices(range(1, 19), k=2))
        verifier.reset_qcong()
        verifier._cleared_sum(r, m, rho, n0)
        assert verifier._resume[:2] == ((r, m, rho), n0)
        assert verifier._cleared_sum(r, m, rho, n) == \
            from_empty[(r, m, rho, n)], (r, m, rho, n0, n)
    verifier.reset_qcong()
