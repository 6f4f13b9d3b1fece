"""The q-congruence decided one Phi_d at a time from its summands, by
cycmodfield.summand_sum, compared with the folded build of the cleared sum.

Take d >= 2 with gcd(d, m) = 1. B^rho and 1/(1 - q) are then units mod
Phi_d, so Phi_d divides the cleared sum exactly when it divides

    S = sum_{k<n} (-1)^{rho k} q^{e_k} (1 - q^{2mk+r}) P_k^rho / Q_k^rho,

P_k = (q^r;q^m)_k and Q_k = (q^m;q^m)_k. summand_sum folds S over its
common denominator in Z[q]/(q^d - 1) without building any polynomial, the
same engine check_block_sum runs at n = d. It never touches the cleared
sum, so it is independent of verifier._cleared_sum, whose folded build
(fold(cleared, d, shift), then one remainder mod Phi_d) is the oracle here,
for summand_sum at every n and for check_block_sum at n = d.
"""

import math
import random

import pytest

from qcongruence import verifier
from qcongruence.bigpoly import IntPoly, fold
from qcongruence.constructs import a_poly, c_poly
from qcongruence.cycmodfield import check_block_sum, summand_sum
from qcongruence.cyclotomic import phi
from qcongruence.exceptions import DomainError

# criterion 6's instances: its pairs, rho 1..2, n 1..30 (n innermost, so
# the cleared sum resumes from the previous instance)
QCONG_PAIRS = [(1, 2), (-1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]
INSTANCES = [(r, m, rho, n) for r, m in QCONG_PAIRS for rho in (1, 2)
             for n in range(1, 31)]


def divides(arr, d):
    """Whether Phi_d divides a folded array: one remainder mod Phi_d."""
    return IntPoly(arr).rem_monic(phi(d)).is_zero


def summand_divides(r, m, rho, n, d):
    return divides(summand_sum(r, m, rho, n, d), d)


def folded_build_divides(cleared, d):
    """Whether Phi_d divides the built cleared sum: fold it mod q^d - 1,
    then take one remainder mod Phi_d."""
    return divides(fold(cleared.base.coeffs, d, cleared.shift), d)


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
    # check_block_sum against the folded full build at n = d, on the
    # lemmas' theorem grid: every (r, m) with m in 2..6, r in -6..6. B^rho,
    # 1 - q and (q^m;q^m)_{d-1} are units mod Phi_d when gcd(d, m) = 1, so
    # the block sum vanishes exactly when Phi_d divides the cleared sum.
    grid = [(r, m) for m in range(2, 7) for r in range(-6, 7)
            if math.gcd(r, m) == 1 and r % m != 0]
    verifier.reset_qcong()
    try:
        for r, m in grid:
            for rho in (1, 2, 3):
                for d in range(2, 13):
                    if math.gcd(d, m) != 1:
                        continue
                    cleared, nonintegral_k = verifier._cleared_sum(
                        r, m, rho, d)
                    assert nonintegral_k is None, (r, m, rho, d)
                    assert check_block_sum(r, m, rho, d).ok == \
                        folded_build_divides(cleared, d), (r, m, rho, d)
    finally:
        verifier.reset_qcong()


def test_a_shared_factor_is_a_pole():
    # gcd(d, m) = 2: every 1 - q^{2k} vanishes mod q^2 - 1 and no
    # numerator binomial 1 - q^{1 + 2(k-1)} does, so the count drops below 0
    with pytest.raises(DomainError):
        summand_sum(1, 2, 1, 3, 2)
