"""How Pochhammer ratios factor over cyclotomics, and the A, B, C split.

Run:  python3 demos/factored_pochhammer.py
"""

from qcongruence.constructs import (a_poly, b_poly, c_poly, expand_product,
                                    lambda_residue, n_alpha, s_set)
from qcongruence.qseries import poch_ratio, pochhammer


def main():
    r, m, n = 1, 2, 3
    print(f"Take r = {r}, m = {m}, n = {n}, so alpha = {r}/{m}.")
    print()
    print("The two Pochhammer symbols, kept in factored form. Each 1 - q^h")
    print("contributes Phi_d for every d | h; the index 1 here stands for")
    print("the factor 1 - q, so no signs sneak in:")
    num = pochhammer(r, m, n)
    den = pochhammer(m, m, n)
    print(f"  (q^{r}; q^{m})_{n} = {num!r}")
    print(f"  (q^{m}; q^{m})_{n} = {den!r}")
    print()

    ratio = poch_ratio(r, m, n)
    print(f"Their ratio cancels tally by tally:")
    print(f"  {ratio!r}")
    print()

    print("Which numerator cyclotomics survive is decided by a residue:")
    print("lambda_{r,m}(d) is the unique k in [0, d) with d | r + k*m, and")
    print("Phi_d survives exactly when lambda < n mod d. For our numbers:")
    for d in (3, 5, 7, 9):
        lam = lambda_residue(r, m, d)
        print(f"  d={d}: lambda = {lam}, n mod d = {n % d}, "
              f"{'in' if lam < n % d else 'out'}")
    print(f"  s_set({r}, {m}, {n}) = {s_set(r, m, n)}")
    print()

    A = a_poly(r, m, n)
    B = b_poly(m, n)
    C = c_poly(m, n)
    print("The package names three products built from this data:")
    print(f"  A = {A!r}  (numerator survivors)")
    print(f"  B = {B!r}  (denominator part sharing a factor with m)")
    print(f"  C = {C!r}  (Phi_d for d | n with gcd(d, m) = 1)")
    print()

    print("The structural identity: ratio * B = A exactly, as factored")
    print("objects, sign and q-power included:")
    lhs = ratio * B
    print(f"  ratio * B = {lhs!r}")
    assert lhs == A
    print()

    print("At q = 1 the same objects become integers:")
    print(f"  A(1) = {A.value_at_one()}")
    print(f"  C(1) = {C.value_at_one()}")
    print(f"  A(1) * C(1) = {A.value_at_one() * C.value_at_one()}")
    print(f"  n_alpha({r}, {m}, {n}) = {n_alpha(r, m, n)}")
    print()
    print("That last equality is the bridge from polynomial factorizations")
    print("to integer divisibility, and it holds on every valid instance.")
    print()
    print("Expanded, for the record:")
    print(f"  A = {expand_product(A)!r}")
    print(f"  B = {expand_product(B)!r}")


if __name__ == "__main__":
    main()
