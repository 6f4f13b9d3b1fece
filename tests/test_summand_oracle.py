"""The q-congruence decided one Phi_d at a time from its summands: a test
oracle, kept in tests/ only.

Take d >= 2 with gcd(d, m) = 1. B^rho and 1/(1 - q) are then units mod
Phi_d, so Phi_d divides the cleared sum exactly when it divides

    S = sum_{k<n} (-1)^{rho k} q^{e_k} (1 - q^{2mk+r}) P_k^rho / Q_k^rho,

P_k = (q^r;q^m)_k and Q_k = (q^m;q^m)_k. summand_divides decides that in
Z[q]/(q^d - 1) without building any polynomial. It never touches the
cleared sum, so it is independent of verifier._cleared_sum, whose folded
build (fold(cleared, d, shift), then one remainder mod Phi_d) it is
compared with here.

A binomial 1 - q^x with d | x folds to zero, so it enters as the integer
x/d, the class of (1 - q^x)/(1 - q^d), and a count keeps its (1 - q^d):
up for numerator binomials, down for denominator ones. A summand whose
count is positive is 0 mod Phi_d and adds nothing. The count is never
negative when gcd(d, m) = 1, since k consecutive exponents r + jm meet
d's residue class at least floor(k/d) times.
"""

import math
import random

import pytest

from qcongruence import verifier
from qcongruence.bigpoly import IntPoly, fold
from qcongruence.constructs import a_poly, c_poly, summand_twist
from qcongruence.cycmodfield import _fold_mul_binom, check_block_sum
from qcongruence.cyclotomic import phi

# criterion 6's instances: its pairs, rho 1..2, n 1..30 (n innermost, so
# the cleared sum resumes from the previous instance)
QCONG_PAIRS = [(1, 2), (-1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]
INSTANCES = [(r, m, rho, n) for r, m in QCONG_PAIRS for rho in (1, 2)
             for n in range(1, 31)]


def summand_divides(r, m, rho, n, d):
    """Whether Phi_d divides the cleared sum of (r, m, rho, n), from the
    summands folded mod q^d - 1.

    pk is the numerator P_k^rho and su the running sum over the common
    denominator Q_k^rho, each with its vanishing binomials replaced by
    integers. ValueError if the (1 - q^d) count goes negative, a pole that
    gcd(d, m) = 1 rules out.
    """
    pk = [1] + [0] * (d - 1)
    su = [0] * d
    count = 0
    for k in range(n):
        if k:
            y, z = r + (k - 1) * m, m * k
            if y % d:
                pk = _fold_mul_binom(pk, d, y, rho)
            else:
                pk = [(y // d) ** rho * a for a in pk]
                count += rho
            if z % d:
                su = _fold_mul_binom(su, d, z, rho)
            else:
                su = [(z // d) ** rho * a for a in su]
                count -= rho
            if count < 0:
                raise ValueError(f"pole at Phi_{d}: (1 - q^d) count {count}")
        x = 2 * m * k + r
        if count == 0 and x % d:
            sgn, e = summand_twist(r, m, rho, k)
            term, s = _fold_mul_binom(pk, d, x), e % d
            # times q^e: a rotation, since term already has d entries
            su = [a + sgn * b for a, b in zip(su, term[-s:] + term[:-s])]
    return IntPoly(su).rem_monic(phi(d)).is_zero


def folded_build_divides(cleared, d):
    """Whether Phi_d divides the built cleared sum: fold it mod q^d - 1,
    then take one remainder mod Phi_d."""
    folded = fold(cleared.base.coeffs, d, cleared.shift)
    return IntPoly(folded).rem_monic(phi(d)).is_zero


@pytest.fixture(scope="module")
def built():
    """instance -> (cleared sum, the d of the Phi_d dividing A*C)."""
    verifier.reset_qcong()
    out = {}
    for r, m, rho, n in INSTANCES:
        cleared, nonintegral_k = verifier._cleared_sum(r, m, rho, n)
        assert nonintegral_k is None, (r, m, rho, n)
        ac = a_poly(r, m, n) * c_poly(m, n)
        factors = sorted(d for d, _ in ac.factors)
        out[(r, m, rho, n)] = cleared, factors
    verifier.reset_qcong()
    return out


def test_every_ac_factor_divides(built):
    decided = 0
    for (r, m, rho, n), (cleared, factors) in built.items():
        for d in factors:
            assert summand_divides(r, m, rho, n, d), (r, m, rho, n, d)
            assert folded_build_divides(cleared, d), (r, m, rho, n, d)
            decided += 1
    assert decided == 5226


def test_sampled_non_factors_do_not_divide(built):
    # Observed, not proved: no Phi_d with gcd(d, m) = 1 outside A*C has
    # been seen to divide a cleared sum. This catches a decision that says
    # "divides" for everything; the folded build must agree either way.
    rng = random.Random(17)
    decided = 0
    for (r, m, rho, n), (cleared, factors) in built.items():
        top = 2 * m * n + abs(r)
        others = [d for d in range(2, top + 1)
                  if math.gcd(d, m) == 1 and d not in factors]
        for d in rng.sample(others, min(2, len(others))):
            assert not summand_divides(r, m, rho, n, d), (r, m, rho, n, d)
            assert not folded_build_divides(cleared, d), (r, m, rho, n, d)
            decided += 1
    assert decided > 600


def test_n_equal_d_is_block_sum():
    # the lemmas' theorem grid: every (r, m) with m in 2..6, r in -6..6
    grid = [(r, m) for m in range(2, 7) for r in range(-6, 7)
            if math.gcd(r, m) == 1 and r % m != 0]
    for r, m in grid:
        for d in range(2, 13):
            if math.gcd(d, m) != 1:
                continue
            for rho in (1, 2, 3):
                assert summand_divides(r, m, rho, d, d) == \
                    check_block_sum(r, m, rho, d).ok, (r, m, rho, d)


def test_a_shared_factor_is_a_pole():
    # gcd(d, m) = 2: every 1 - q^{2k} vanishes mod q^2 - 1 and no
    # numerator binomial 1 - q^{1 + 2(k-1)} does, so the count drops below 0
    with pytest.raises(ValueError):
        summand_divides(1, 2, 1, 3, 2)
