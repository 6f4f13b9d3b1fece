"""
q-Pochhammer symbols and Gaussian binomials in cyclotomic-factored form.

Every finite product of binomials 1 - q^x splits over the cyclotomic
polynomials: 1 - q^x = prod_{d | x} Phi_d(q) for x > 0, provided the d = 1
factor is read as 1 - q rather than the monic q - 1 (the rest are the
usual monic cyclotomics, and each positive x contributes exactly one 1 - q).
So instead of expanding we carry a FactoredQ: a sign, a power of q, and a
map d -> e of cyclotomic exponents (e may be negative in ratios). A factor
with x < 0 is normalized through 1 - q^x = -q^x (1 - q^{-x}), contributing
to the sign and the q-power. A factor with x = 0 is 1 - q^0 = 0, which no
claim's domain (m >= 2, gcd(r, m) = 1) produces, so it raises DomainError
rather than being carried. The representation is canonical (sorted, no
zero exponents), so equality is structural.

Expanding runs the splitting backwards: the tally turns into net binomial
exponents, and the product is multiplied out by exact 1 - q^h passes
(cyclotomic.phi_product), never Phi_d by Phi_d.
"""
from __future__ import annotations

from fractions import Fraction

from .bigpoly import IntPoly, LaurentInt
from .cyclotomic import divisors, phi_at_one, phi_product
from .exceptions import DomainError
from .record import Record


class FactoredQ(Record):
    __slots__ = ("sign", "qexp", "factors")

    def __init__(self, sign=1, qexp=0, factors=()):
        if sign not in (1, -1):
            raise DomainError(f"sign {sign}")
        if isinstance(factors, dict):
            factors = factors.items()
        factors = tuple(sorted((d, e) for d, e in factors if e))
        for d, _ in factors:
            if d < 1:
                raise DomainError(f"cyclotomic index {d}")
        super().__init__(sign, qexp, factors)

    def __repr__(self):
        """
        >>> FactoredQ(-1, -2, {2: -1, 5: 1})
        -q^-2 * Phi_5 * Phi_2^-1
        >>> FactoredQ()
        1
        """
        parts = []
        if self.qexp:
            parts.append(f"q^{self.qexp}")
        pos = [(d, e) for d, e in self.factors if e > 0]
        neg = [(d, e) for d, e in self.factors if e < 0]
        for d, e in pos + neg:
            parts.append(f"Phi_{d}" if e == 1 else f"Phi_{d}^{e}")
        if not parts:
            return "1" if self.sign > 0 else "-1"
        return ("-" if self.sign < 0 else "") + " * ".join(parts)

    def exponent_of(self, d):
        for dd, e in self.factors:
            if dd == d:
                return e
        return 0

    @property
    def is_laurent_poly(self):
        """True when no cyclotomic appears with negative exponent."""
        return all(e >= 0 for _, e in self.factors)

    def __mul__(self, other):
        tally = dict(self.factors)
        for d, e in other.factors:
            tally[d] = tally.get(d, 0) + e
        return FactoredQ(self.sign * other.sign, self.qexp + other.qexp, tally)

    def __pow__(self, e):
        return FactoredQ(
            self.sign if e % 2 else 1,
            self.qexp * e,
            {d: x * e for d, x in self.factors},
        )

    def value_at_one(self):
        """Evaluate at q = 1 as a Fraction in lowest terms.

        A positive net Phi_1 exponent gives 0; a negative one is a pole.
        Otherwise every index is at least 2 and Phi_d(1) is a positive
        integer, so the positive exponents multiply into one numerator and
        the negative ones into one denominator, reduced once.

        >>> FactoredQ(-1, 5, {2: 2, 4: -1, 6: 3}).value_at_one()
        Fraction(-2, 1)
        """
        e1 = self.exponent_of(1)
        if e1 > 0:
            return Fraction(0)
        if e1 < 0:
            raise DomainError("pole at q = 1")
        num, den = self.sign, 1
        for d, e in self.factors:
            if e > 0:
                num *= phi_at_one(d) ** e
            else:
                den *= phi_at_one(d) ** -e
        return Fraction(num, den)

    def expand(self):
        """Expand to a LaurentInt: sign * q^qexp times the cyclotomic
        product, built by cyclotomic.phi_product from exact 1 - q^h passes.

        The d = 1 factor expands to 1 - q per the module convention.
        Negative exponents raise DomainError.

        >>> pochhammer(-1, 2, 2).expand()
        -q + 2 - q^-1
        """
        if not self.is_laurent_poly:
            raise DomainError("negative cyclotomic exponents remain")
        cs = phi_product(dict(self.factors))
        return LaurentInt(IntPoly(cs if self.sign > 0 else [-c for c in cs]),
                          self.qexp)


def pochhammer(a, m, k):
    """(q^a; q^m)_k as a FactoredQ. A factor 1 - q^0, which occurs when
    some a + j*m with j < k is 0, raises DomainError.

    >>> pochhammer(1, 2, 3)
    Phi_1^3 * Phi_3 * Phi_5
    >>> pochhammer(-1, 2, 1)
    -q^-1 * Phi_1
    >>> pochhammer(2, 2, 0)
    1
    """
    if k < 0:
        raise DomainError(f"pochhammer length {k}")
    sign = 1
    qexp = 0
    tally = {}
    for j in range(k):
        x = a + j * m
        if x == 0:
            raise DomainError(f"1 - q^0 in (q^{a}; q^{m})_{k}")
        if x < 0:
            sign = -sign
            qexp += x
            x = -x
        for d in divisors(x):
            tally[d] = tally.get(d, 0) + 1
    return FactoredQ(sign, qexp, tally)


def poch_ratio(r, m, n):
    """(q^r; q^m)_n / (q^m; q^m)_n in factored form.

    The denominator never vanishes for m >= 1. The numerator picks up a
    1 - q^0 factor, and pochhammer raises DomainError, exactly when
    r = -j*m for some 0 <= j < n; that needs m | r, which pair_ok(r, m)
    excludes.

    >>> poch_ratio(1, 2, 3)
    Phi_5 * Phi_2^-3 * Phi_4^-1 * Phi_6^-1
    >>> poch_ratio(-1, 2, 1)
    -q^-1 * Phi_2^-1
    """
    if m < 1:
        raise DomainError(f"modulus step {m}")
    return pochhammer(r, m, n) * pochhammer(m, m, n) ** -1
