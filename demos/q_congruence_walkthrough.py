"""The global q-congruence, walked through on a small instance.

Run:  python3 demos/q_congruence_walkthrough.py
"""

from qcongruence.constructs import a_poly, b_poly, c_poly, expand_product
from qcongruence.verifier import _qcong_data, poly_digest, verify_q_congruence


def main():
    r, m, rho, n = 1, 2, 1, 3
    print(f"Instance: r = {r}, m = {m}, rho = {rho}, n = {n}.")
    print()
    print("The q-analog of the binomial sum is a Laurent polynomial once")
    print(f"multiplied by B^rho and cleared of denominators. B here is")
    B = b_poly(m, n)
    print(f"  B = {B!r} = {expand_product(B)!r}")
    print()

    data = _qcong_data(r, m, rho, n)
    cleared = data["cleared"]
    print("The cleared sum, built by a recurrence in which each summand")
    print("comes from the last by exact divisions by 1 - q^h, so every")
    print("coefficient is an integer:")
    print(f"  {cleared!r}")
    print(f"  digest: {poly_digest(cleared)}")
    print()

    A = a_poly(r, m, n)
    C = c_poly(m, n)
    AC = A * C
    print("The asserted modulus is the product A * C:")
    print(f"  A = {A!r}, C = {C!r}")
    print(f"  A * C = {data['AC']!r}")
    print()

    print("The verifier reduces the cleared sum modulo the monic A * C;")
    print("the claim is that nothing is left:")
    print(f"  remainder = {data['remainder']!r}")
    H = cleared.base.div_exact(data["AC"])
    print("So the division is exact, and the quotient is again an integer")
    print("polynomial:")
    print(f"  cleared / (A*C) = q^{cleared.shift} * ({H!r})")
    print()

    v = verify_q_congruence(r, m, rho, n)
    print(f"Verdict: {v.passed}")
    print(f"  lhs: {v.lhs}")
    print(f"  rhs: {v.rhs}")
    print()

    print("Specializing q to 1 recovers the integer congruence:")
    print(f"  cleared(1) = {cleared.base.evaluate(1)}")
    print(f"  A(1) * C(1) = {AC.value_at_one()}")
    print(f"  quotient(1) = {H.evaluate(1)}")
    print()
    print("so the rational binomial sum, times B(1)^rho, is the cleared")
    print("value, and divisibility by A(1) * C(1) = N is inherited from")
    print("the polynomial divisibility above. The q-congruence is the")
    print("integer congruence with one more variable of room.")


if __name__ == "__main__":
    main()
