"""
Cyclotomic polynomials and the 1 - q^h factorization layer.

Every product of cyclotomic polynomials is expanded through binomials:
Phi_d = prod_{h | d} (1 - q^h)^mu(d/h), so a tally {d: e} is the binomial
product prod_h (1 - q^h)^c_h with c_h = sum_d e * mu(d/h) (phi_product).
Every positive c_h is multiplied in first, and only then is every negative
one divided out, so each division is exact. Writing the binomials as
1 - q^h rather than q^h - 1 changes nothing for d > 1, because the mu(d/h)
sum to 0 over the divisors of d; the d = 1 factor reads as 1 - q, and Phi_1
= q - 1 takes one sign flip. Each multiply or divide is a linear pass, so
the whole construction is fast enough to tabulate thousands of Phi_d.
"""
from __future__ import annotations

import functools

from .bigpoly import IntPoly, LaurentInt, div_binom, mul_binom
from .exceptions import DomainError


def divisors(n):
    """All positive divisors of n in increasing order.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if n < 1:
        raise DomainError(f"divisors of {n}")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def prime_factors(n):
    """Distinct prime factors in increasing order.

    >>> prime_factors(360)
    [2, 3, 5]
    """
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(n):
    """Euler's totient.

    >>> euler_phi(36)
    12
    """
    if n < 1:
        raise DomainError(f"totient of {n}")
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def phi_product(tally):
    """Coefficients of prod Phi_d^e over a tally {d: e}, with the d = 1
    factor read as 1 - q.

    Raises NotDivisible when the product is not a polynomial.

    >>> phi_product({1: 1, 2: 1})
    [1, 0, -1]
    >>> phi_product({6: 2})
    [1, -2, 3, -2, 1]
    """
    net = {}
    for d, e in tally.items():
        ps = prime_factors(d)
        for mask in range(1 << len(ps)):
            h, c = d, e
            for i, p in enumerate(ps):
                if mask >> i & 1:
                    h //= p
                    c = -c
            net[h] = net.get(h, 0) + c
    cs = [1]
    for h in sorted(net):
        for _ in range(net[h]):
            cs = mul_binom(cs, h)
    for h in sorted(net, reverse=True):
        for _ in range(-net[h]):
            cs = div_binom(cs, h)
    return cs


@functools.lru_cache(maxsize=None)
def phi(d):
    """The d-th cyclotomic polynomial as an IntPoly.

    >>> phi(1)
    q - 1
    >>> phi(4)
    q^2 + 1
    >>> phi(6)
    q^2 - q + 1
    >>> phi(12)
    q^4 - q^2 + 1
    """
    if d < 1:
        raise DomainError(f"phi({d})")
    cs = phi_product({d: 1})
    return IntPoly([-c for c in cs] if d == 1 else cs)


def phi_at_one(d):
    """Phi_d(1) without expanding: p when d is a power of the prime p,
    otherwise 1. Defined for d >= 2.

    >>> phi_at_one(9)
    3
    >>> phi_at_one(6)
    1
    """
    if d < 2:
        raise DomainError(f"phi_at_one({d}) is not defined")
    ps = prime_factors(d)
    return ps[0] if len(ps) == 1 else 1


def q_int(n):
    """The q-integer [n]_q as an integer Laurent polynomial.

    [n]_q = (1 - q^n)/(1 - q); for n < 0 this equals -q^n [-n]_q.

    >>> q_int(3)
    q^2 + q + 1
    >>> q_int(-2)
    -q^-1 - q^-2
    >>> q_int(0)
    0
    """
    if n == 0:
        return LaurentInt(IntPoly(), 0)
    if n > 0:
        return LaurentInt(IntPoly([1] * n), 0)
    return LaurentInt(IntPoly([-1] * (-n)), n)
