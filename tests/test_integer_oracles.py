"""Integer facts the verifier computes once, against the code they replaced.

verifier._central is the one binom(2k, k) recurrence; the 2-adic bounds
compare valuations instead of the 2-adic order of a big power; and the
q = 1 check decides B's prime support on the integer B(1). The functions
below are the replaced forms, kept only as test oracles.
"""

import math

import pytest

from qcongruence import verifier
from qcongruence.constructs import b_poly
from qcongruence.cyclotomic import phi_at_one
from qcongruence.qseries import FactoredQ
from qcongruence.verifier import Verdict

# criterion 6's pairs (tests/test_acceptance.py)
QCONG_PAIRS = [(1, 2), (-1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]


def oracle_two_adic_bounds(rho, n):
    """Test oracle: the 2-adic check with math.comb for every binom(2k, k)
    and the 2-adic order of the full power c^rho 4^(rho(n-1-k))."""
    ord2 = verifier._ord2
    bad = None
    target = ord2(n * math.comb(2 * n, n))
    for k in range(n):
        c = math.comb(2 * k, k)
        ok_k = target <= n - k + ord2(c)
        final = ord2(c ** rho * 4 ** (rho * (n - 1 - k))) >= (rho - 2) + target
        if not (ok_k and final):
            bad = {"k": k, "order_bound": ok_k, "final_bound": final}
            break
    even_ok = all(math.comb(2 * k, k) % 2 == 0 for k in range(1, n + 1))
    ok = bad is None and even_ok
    witness = None
    if not ok:
        witness = bad or {}
        witness["central_binomials_even"] = even_ok
    return Verdict("2adic", {"rho": rho, "n": n}, ok,
                   f"ord_2(n*binom(2n,n)) = {target}",
                   "order inequalities for all k < n", witness)


def oracle_prime_support(b, m):
    """Test oracle: Phi_d(1) is 1 or divides m for every factor Phi_d of
    the factored polynomial b."""
    return all(phi_at_one(d) == 1 or m % phi_at_one(d) == 0
               for d, _ in b.factors)


def test_central_matches_math_comb():
    assert list(verifier._central(0)) == []
    assert list(verifier._central(121)) == [math.comb(2 * k, k)
                                            for k in range(121)]


@pytest.mark.parametrize("rho", range(1, 7))
def test_two_adic_bounds_match_big_power_oracle(rho):
    for n in range(2, 121):
        assert verifier.verify_two_adic_bounds(rho, n) == (
            oracle_two_adic_bounds(rho, n)), (rho, n)


def test_term_order_matches_big_power_oracle():
    for rho in range(1, 7):
        for k, c in enumerate(verifier._central(60)):
            for j in range(0, 60, 7):
                assert verifier._term_ord2(c, rho, j) == verifier._ord2(
                    c ** rho * 4 ** (rho * j)), (rho, k, j)


def test_prime_support_matches_per_factor_oracle():
    for m in sorted({m for _, m in QCONG_PAIRS}):
        for n in range(1, 31):
            b = b_poly(m, n)
            b1 = b.value_at_one().numerator
            assert verifier._prime_support_divides(b1, m)
            assert oracle_prime_support(b, m), (m, n)
            # negative control: a factor Phi_{p^k} with p not dividing m
            for p in (3, 5, 7):
                if m % p:
                    for pk in (p, p * p):
                        bad = b * FactoredQ(1, 0, {pk: 1})
                        assert not verifier._prime_support_divides(
                            bad.value_at_one().numerator, m)
                        assert not oracle_prime_support(bad, m), (m, n, pk)
