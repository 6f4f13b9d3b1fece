"""Binomial sums that land on integers, and the divisibility they satisfy.

Run:  python3 demos/divisible_sums.py
"""

import math
from fractions import Fraction

from qcongruence.constructs import n_alpha
from qcongruence.verifier import (verify_binomial_sum,
                                  verify_central_binomial,
                                  verify_sun_conjecture,
                                  verify_two_adic_bounds)


def main():
    r, m, rho, n = 1, 2, 2, 3
    alpha = Fraction(r, m)
    print(f"alpha = {alpha}, rho = {rho}, n = {n}.")
    print()
    print("The sum runs over k < n with weight 2k + alpha:")
    total = Fraction(0)
    for k in range(n):
        term = (2 * k + alpha) * Fraction(
            math.comb(2 * k, k), (-4) ** k) ** rho
        print(f"  k={k}: (2k + alpha) * binom(-1/2, k)^rho = {term}")
        total += term
    print(f"  total = {total}")
    print()
    N = n_alpha(r, m, n)
    print(f"The claim: the numerator {total.numerator} is divisible by")
    print(f"N = {N}, and the denominator {total.denominator} is coprime")
    print(f"to it. Indeed {total.numerator} = {total.numerator // N} * {N}.")
    v = verify_binomial_sum(r, m, rho, n)
    print(f"  verdict: {v.passed}  ({v.lhs}, {v.rhs})")
    print()

    print("For alpha = 1/2 the same sum can be written over central")
    print("binomials binom(2k, k), now with integer values:")
    v = verify_central_binomial(2, 3)
    print(f"  rho=2, n=3: {v.lhs}, {v.rhs}, passed={v.passed}")
    v = verify_central_binomial(3, 2)
    print(f"  rho=3, n=2: {v.lhs}, {v.rhs}, passed={v.passed}")
    print()

    print("The power of two in the modulus is not decoration; the 2-adic")
    print("order of each summand is tracked exactly:")
    v = verify_two_adic_bounds(2, 6)
    print(f"  rho=2, n=6: {v.lhs}, passed={v.passed}")
    print()

    print("One divisibility here is only conjectured: the sum over k < n")
    print("of (5k+1) binom(2k,k)^2 binom(3k,k) (-192)^(n-1-k) is divisible")
    print("by n binom(2n,n). The checker treats it as data:")
    for n_ in (2, 3, 10, 50):
        v = verify_sun_conjecture(n_)
        word = "holds" if v.passed else "COUNTEREXAMPLE"
        print(f"  n={n_}: {word}")
    print()
    print("Through the command line a counterexample would exit with code")
    print("3, separate from code 1, which is reserved for statements that")
    print("are proven and must therefore never fail.")


if __name__ == "__main__":
    main()
