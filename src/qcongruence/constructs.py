"""
The named polynomials and integers attached to a parameter triple.

Throughout, r and m are coprime integers with m >= 1, so alpha = r/m is a
rational number, and n >= 1 is a length. The objects built here:

  pair_ok(r, m)             the hypothesis of every alpha = r/m claim:
                            m >= 2 and gcd(r, m) = 1
  summand_twist(r, m, rho, k)  the sign and q-power of summand k of the
                            weighted q-binomial sum
  lambda_residue(r, m, d)   the residue of -r/m mod d, for gcd(d, m) = 1
  s_set(r, m, n)            indices d whose lambda residue is hit by the
                            numerator exponents r, r+m, ..., r+(n-1)m but
                            not resolved by the denominator; finite
  a_poly(r, m, n)           product of Phi_d over the s_set
  b_poly(r, m, n)           product of Phi_d^floor(n*gcd(d,m)/d) over d
                            sharing a factor with m, d <= n*m
  c_poly(m, n)              product of Phi_d over divisors d >= 2 of n
                            coprime to m
  n_alpha(r, m, n)          numerator of n * |binomial(-alpha, n)|

a_poly and c_poly are squarefree and disjoint (no d in the s_set divides n),
so their product is squarefree; that product is the modulus of the main
congruence and its value at 1 equals n_alpha.
"""
from __future__ import annotations

import math

from .exceptions import DomainError
from .qseries import FactoredQ


def pair_ok(r, m):
    """The hypothesis every alpha = r/m claim shares: m >= 2 and
    gcd(r, m) = 1, which also makes alpha non-integral.

    >>> pair_ok(1, 2), pair_ok(2, 4), pair_ok(0, 1), pair_ok(3, 1)
    (True, False, False, False)
    """
    return m >= 2 and math.gcd(r, m) == 1


def summand_twist(r, m, rho, k):
    """(sign, e): summand k of the weighted q-binomial sum carries
    (-1)^{rho*k} q^e with e = -m*k - rho*(k*r + m*binom(k, 2)).

    >>> summand_twist(1, 2, 1, 2)
    (1, -8)
    """
    sign = -1 if rho * k % 2 else 1
    return sign, -m * k - rho * (k * r + m * (k * (k - 1) // 2))


def lambda_residue(r, m, d):
    """The unique residue l mod d with r + l*m divisible by d.

    Needs gcd(d, m) = 1; lambda is 0 when d = 1.

    >>> lambda_residue(1, 2, 3)
    1
    >>> lambda_residue(1, 2, 5)
    2
    >>> lambda_residue(1, 2, 1)
    0
    """
    if d < 1:
        raise DomainError(f"modulus {d}")
    if math.gcd(d, m) != 1:
        raise DomainError(f"gcd({d}, {m}) > 1; no lambda residue")
    return (-r) * pow(m, -1, d) % d


def s_set(r, m, n):
    """The finite index set behind a_poly, as an increasing tuple.

    d belongs when gcd(d, m) = 1 and the lambda residue enters the window
    {0, ..., n-1} in its last partial period, i.e.
    floor((n - 1 - lambda)/d) == floor(n/d). Every member exceeds 1 and
    none divides n. Indices are bounded by max |r + j*m| over j < n.

    >>> s_set(1, 2, 3)
    (5,)
    >>> s_set(1, 2, 1)
    ()
    >>> s_set(1, 2, 5)
    (3, 7, 9)
    """
    if n < 1:
        raise DomainError(f"length {n}")
    d_max = max(abs(r + j * m) for j in range(n))
    out = []
    for d in range(2, d_max + 1):
        if math.gcd(d, m) != 1:
            continue
        if (n - 1 - lambda_residue(r, m, d)) // d == n // d:
            out.append(d)
    return tuple(out)


def a_poly(r, m, n):
    """Product of Phi_d over s_set(r, m, n), factored.

    >>> a_poly(1, 2, 2)
    Phi_3
    """
    return FactoredQ(1, 0, {d: 1 for d in s_set(r, m, n)})


def b_poly(r, m, n):
    """Product of Phi_d^floor(n*gcd(d,m)/d) over 2 <= d <= n*m with
    gcd(d, m) > 1. Depends only on (m, n); r rides along so the three
    polynomial constructors share a calling convention.

    >>> b_poly(1, 2, 3)
    Phi_2^3 * Phi_4 * Phi_6
    >>> b_poly(1, 1, 5)
    1
    """
    if m < 1 or n < 1:
        raise DomainError(f"b_poly({r}, {m}, {n})")
    tally = {}
    for d in range(2, n * m + 1):
        g = math.gcd(d, m)
        if g > 1:
            e = n * g // d
            if e:
                tally[d] = e
    return FactoredQ(1, 0, tally)


def c_poly(m, n):
    """Product of Phi_d over divisors d >= 2 of n coprime to m.

    >>> c_poly(2, 3)
    Phi_3
    >>> c_poly(2, 6)
    Phi_3
    >>> c_poly(3, 1)
    1
    """
    if m < 1 or n < 1:
        raise DomainError(f"c_poly({m}, {n})")
    tally = {d: 1 for d in range(2, n + 1)
             if n % d == 0 and math.gcd(d, m) == 1}
    return FactoredQ(1, 0, tally)


def expand_product(f):
    """Expand a FactoredQ with nonnegative exponents and no q-power into an
    IntPoly. a_poly, b_poly and c_poly outputs qualify."""
    if f.qexp:
        raise DomainError("not a plain polynomial product")
    # Each factor has constant term +-1, so with no q-power the shift is 0.
    return f.expand().base


def n_alpha(r, m, n):
    """Numerator of n * |binomial(-alpha, n)| for alpha = r/m not integral.

    binomial(-alpha, n) = prod_{j<n} -(r + jm) / (m^n n!), so this is
    n |prod_{j<n} (r + jm)| over m^n n!, reduced once by their gcd.

    >>> n_alpha(1, 2, 3)
    15
    >>> n_alpha(1, 2, 1)
    1
    >>> n_alpha(2, 3, 2)
    10
    """
    if m < 1 or r % m == 0:
        raise DomainError(f"alpha = {r}/{m} is an integer")
    if n < 1:
        raise DomainError(f"length {n}")
    num = n
    for j in range(n):
        num *= r + j * m
    num = abs(num)
    return num // math.gcd(num, m ** n * math.factorial(n))


def negative_tail(r, m, n):
    """(count, total) of the negative exponents r + j*m, j < n.

    The structural factorization identity needs the sign (-1)^count and the
    q-power q^total these contribute.
    """
    count = 0
    total = 0
    for j in range(n):
        x = r + j * m
        if x < 0:
            count += 1
            total += x
    return count, total
