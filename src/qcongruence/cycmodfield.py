"""
The per-modulus congruence checks, decided modulo a single cyclotomic
polynomial Phi_d.

The checks avoid inversion entirely. They work in Z[q]/(q^d - 1), where
multiplying by 1 - q^x is a rotate-and-subtract and exponents fold mod d;
congruence mod q^d - 1 implies congruence mod Phi_d, so one integer
remainder at the end settles each check. A binomial 1 - q^x with d | x and
x != 0 folds to literal zero, which is exact but useless inside a ratio,
so FoldedRatio pulls those factors out as (1 - q^d) * (x/d) before
folding: (1 - q^x)/(1 - q^d) is congruent to x/d mod Phi_d for every
nonzero multiple x of d, both signs. Ratios are then compared by
cross-multiplication, never by division: matching counts of extracted
(1 - q^d) factors, and cross products congruent mod Phi_d.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .bigpoly import IntPoly
from .constructs import lambda_residue, pair_ok, summand_twist
from .cyclotomic import phi
from .exceptions import DomainError
from .record import Record


# ---------------------------------------------------------------------------
# folded integer arrays

def _fold_mul_binom(arr, d, x, times=1):
    """arr times (1 - q^x)^times in Z[q]/(q^d - 1); requires d not | x."""
    s = x % d
    for _ in range(times):
        out = arr[:]
        for i, c in enumerate(arr):
            if c:
                out[(i + s) % d] -= c
        arr = out
    return arr


def _fold_mul(a, b, d):
    out = [0] * d
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                if e:
                    out[(i + j) % d] += c * e
    return out


def _rotate(arr, d, s):
    s %= d
    if not s:
        return arr[:]
    return [arr[(i - s) % d] for i in range(d)]


def _rem_phi(arr, d):
    return IntPoly(arr).rem_monic(phi(d))


class FoldedRatio:
    """A ratio of binomial products with scalars, folded mod q^d - 1.

    value = scal * (1 - q^d)^gpow * q^rot * num / den

    where num and den are folded arrays of the non-vanishing binomials.
    A pole (a vanishing binomial in the denominator more often than the
    numerator, or a literal 1 - q^0 downstairs) is recorded rather than
    raised; comparisons treat it as a failed check.
    """

    def __init__(self, d):
        if d < 2:
            raise DomainError(f"modulus index {d}")
        self.d = d
        self.scal = Fraction(1)
        self.gpow = 0
        self.rot = 0
        self.num = [0] * d
        self.num[0] = 1
        self.den = [0] * d
        self.den[0] = 1
        self.pole = False

    def mul_scalar(self, c):
        self.scal *= c
        return self

    def mul_qpow(self, e):
        self.rot = (self.rot + e) % self.d
        return self

    def mul_binom(self, x, e=1):
        """Multiply by (1 - q^x)^e; e may be negative."""
        d = self.d
        if x % d == 0:
            # Vanishing mod q^d - 1: extract as (1 - q^d) * (x/d).
            if x == 0 and e < 0:
                self.pole = True
                return self
            self.gpow += e
            self.scal *= Fraction(x, d) ** e
            return self
        if e > 0:
            self.num = _fold_mul_binom(self.num, d, x, e)
        elif e < 0:
            self.den = _fold_mul_binom(self.den, d, x, -e)
        return self

    def is_congruent_zero(self):
        if self.pole or self.gpow < 0:
            return False
        if self.scal == 0 or self.gpow > 0:
            return True
        return _rem_phi(_rotate(self.num, self.d, self.rot), self.d).is_zero


def folded_equal(lhs, rhs):
    """Decide lhs == rhs in Q[q]/Phi_d by cross-multiplication.

    Returns (ok, detail). Sides with positive net (1 - q^d) count or a zero
    scalar are zero in the field; two nonzero sides must agree in gpow and
    have congruent cross products.

    >>> q = FoldedRatio(5).mul_qpow(1)
    >>> folded_equal(q, FoldedRatio(5).mul_qpow(6))
    (True, '')
    >>> folded_equal(q, FoldedRatio(5))
    (False, 'cross products differ mod Phi_d')
    """
    if lhs.d != rhs.d:
        raise DomainError("mixed moduli")
    d = lhs.d
    if lhs.pole or rhs.pole or lhs.gpow < 0 or rhs.gpow < 0:
        return False, "pole at Phi_d"
    lz = lhs.is_congruent_zero()
    rz = rhs.is_congruent_zero()
    if lz or rz:
        return (lz and rz), ("both vanish" if lz and rz else "one side vanishes")
    if lhs.gpow != rhs.gpow:
        return False, f"(1-q^d) counts differ: {lhs.gpow} vs {rhs.gpow}"
    a = lhs.scal * rhs.scal.denominator * lhs.scal.denominator
    b = rhs.scal * rhs.scal.denominator * lhs.scal.denominator
    # a, b are now integers with a/b = lhs.scal/rhs.scal
    left = _fold_mul(lhs.num, rhs.den, d)
    right = _fold_mul(rhs.num, lhs.den, d)
    left = [int(a) * c for c in _rotate(left, d, lhs.rot)]
    right = [int(b) * c for c in _rotate(right, d, rhs.rot)]
    diff = [x - y for x, y in zip(left, right)]
    if _rem_phi(diff, d).is_zero:
        return True, ""
    return False, "cross products differ mod Phi_d"


# ---------------------------------------------------------------------------
# the per-modulus checks


class CheckOutcome(Record):
    __slots__ = ("ok", "label", "lhs", "rhs", "detail")

    def __init__(self, ok, label, lhs, rhs, detail=""):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "detail", detail)

    def __bool__(self):
        return self.ok


def _require_coprime(r, m, d, *bounds):
    """DomainError unless pair_ok(r, m), d >= 2, gcd(d, m) = 1 and every
    one of the check's own bounds holds."""
    if not (pair_ok(r, m) and d >= 2 and math.gcd(d, m) == 1 and all(bounds)):
        raise DomainError(f"need m >= 2, d >= 2, gcd(r, m) = gcd(d, m) = 1 "
                          f"and the check's bounds; got r={r}, m={m}, d={d}")


def _scalar_c(r, m, d, s):
    """The block scalar: rising factorial of w/m over s steps divided by s!,
    where w = (r + lambda*m)/d is the integer the vanishing binomial
    contributes."""
    lam = lambda_residue(r, m, d)
    w = (r + lam * m) // d
    out = Fraction(1)
    for i in range(s):
        out *= Fraction(w, m) + i
    return out / math.factorial(s)


def check_block_constant(r, m, d):
    """(q^r; q^m)_d / (1 - q^d) is congruent to r + lambda*m mod Phi_d.

    The product over a full period has exactly one vanishing binomial, at
    j = lambda; dividing it out leaves a unit whose class is the integer
    r + lambda*m.
    """
    _require_coprime(r, m, d)
    lam = lambda_residue(r, m, d)
    lhs = FoldedRatio(d)
    for j in range(d):
        lhs.mul_binom(r + j * m)
    lhs.mul_binom(d, -1)
    rhs = FoldedRatio(d).mul_scalar(r + lam * m)
    ok, detail = folded_equal(lhs, rhs)
    return CheckOutcome(ok, f"block_constant(r={r},m={m},d={d})",
                        f"(q^{r};q^{m})_{d}/(1-q^{d})", str(r + lam * m), detail)


def _ratio_into(f, r, m, k, e=1):
    """Multiply f by ((q^r;q^m)_k / (q^m;q^m)_k)^e."""
    for j in range(k):
        f.mul_binom(r + j * m, e)
        f.mul_binom((j + 1) * m, -e)
    return f


def check_block_decomposition(r, m, d, s, t):
    """ratio_{s*d+t} is congruent to c_s * ratio_t mod Phi_d, where ratio_k
    is the Pochhammer quotient (q^r;q^m)_k/(q^m;q^m)_k and c_s the block
    scalar."""
    _require_coprime(r, m, d, s >= 0, 0 <= t < d)
    lhs = _ratio_into(FoldedRatio(d), r, m, s * d + t)
    rhs = _ratio_into(FoldedRatio(d).mul_scalar(_scalar_c(r, m, d, s)),
                      r, m, t)
    ok, detail = folded_equal(lhs, rhs)
    return CheckOutcome(ok, f"block_decomposition(r={r},m={m},d={d},s={s},t={t})",
                        f"ratio_{s * d + t}", f"c_{s} * ratio_{t}", detail)


def check_qbinom_reduction(r, m, d):
    """For every k < d, the Pochhammer quotient ratio_k is congruent to
    (-1)^k q^(m*binom(k,2) - m*h*k) * qbinom(h, k)_{q^m} mod Phi_d with
    h = lambda. Both sides vanish together once k exceeds h."""
    _require_coprime(r, m, d)
    h = lambda_residue(r, m, d)
    for k in range(d):
        lhs = _ratio_into(FoldedRatio(d), r, m, k)
        rhs = FoldedRatio(d)
        rhs.mul_scalar((-1) ** k)
        rhs.mul_qpow(m * (k * (k - 1) // 2) - m * h * k)
        for j in range(1, k + 1):
            rhs.mul_binom(m * (h - k + j))
            rhs.mul_binom(m * j, -1)
        ok, detail = folded_equal(lhs, rhs)
        if not ok:
            return CheckOutcome(False, f"qbinom_reduction(r={r},m={m},d={d})",
                                f"ratio_{k}", f"unit * qbinom({h},{k})",
                                f"k={k}: {detail}")
    return CheckOutcome(True, f"qbinom_reduction(r={r},m={m},d={d})",
                        "ratio_k", "unit * qbinom(h,k)", f"all k < {d}")


def check_block_sum(r, m, rho, d):
    """The first d summands of the weighted q-binomial sum add to zero mod
    Phi_d.

    Summand k is q^{-mk} [2mk+r]_q ((-1)^k q^{-kr-m*binom(k,2)}
    (q^r;q^m)_k/(q^m;q^m)_k)^rho. Everything is placed over the common
    denominator (1-q)(q^m;q^m)_{d-1}^rho, a unit mod Phi_d, so the check is
    an integer computation: fold the accumulated numerator mod q^d - 1 and
    take one remainder at the end. The per-k reduction to the integer-top
    Gaussian binomial is verified alongside, since the vanishing of the sum
    rests on it.
    """
    _require_coprime(r, m, d, rho >= 1)
    red = check_qbinom_reduction(r, m, d)
    if not red.ok:
        return red
    su = [0] * d
    pk = [0] * d
    pk[0] = 1
    for k in range(d):
        if k:
            su = _fold_mul_binom(su, d, m * k, rho)
            x = r + (k - 1) * m
            if x % d == 0:
                # the lambda binomial folds to zero exactly
                pk = [0] * d
            else:
                pk = _fold_mul_binom(pk, d, x, rho)
        x = 2 * m * k + r
        if x % d == 0:
            continue
        term = _fold_mul_binom(pk, d, x)
        sgn, e = summand_twist(r, m, rho, k)
        term = _rotate(term, d, e % d)
        for i in range(d):
            su[i] += sgn * term[i]
    rem = _rem_phi(su, d)
    return CheckOutcome(rem.is_zero, f"block_sum(r={r},m={m},rho={rho},d={d})",
                        f"sum of {d} summands", "0 mod Phi_d",
                        "" if rem.is_zero else f"remainder {rem!r}")


def check_sign_reduction(m, d, s, h=0):
    """(-1)^{sd} q^{m*h*s*d - m*binom(sd,2)} is congruent to (-1)^s mod
    Phi_d when gcd(m, d) = 1. For even d this leans on q^{d/2} being -1."""
    if d < 2 or math.gcd(m, d) != 1 or s < 0:
        raise DomainError(f"sign_reduction(m={m},d={d},s={s})")
    sd = s * d
    e = m * h * sd - m * (sd * (sd - 1) // 2)
    lhs = FoldedRatio(d)
    lhs.mul_scalar((-1) ** sd)
    lhs.mul_qpow(e)
    rhs = FoldedRatio(d).mul_scalar((-1) ** s)
    ok, detail = folded_equal(lhs, rhs)
    return CheckOutcome(ok, f"sign_reduction(m={m},d={d},s={s},h={h})",
                        f"(-1)^{sd} q^{e}", f"(-1)^{s}", detail)


def check_mu_consistency(r, m, rho, d, s, t):
    """The summand cofactors nu_k = summand_k / ratio_k satisfy
    nu_{sd+t} = mu_s * nu_t mod Phi_d with mu_s = (-1)^{rho*s} c_s^{rho-1}.

    mu_s depends on d through the block scalar c_s; there is no single
    global mu_s. The common factor 1/(1-q) is dropped from both sides.
    """
    _require_coprime(r, m, d, rho >= 1, s >= 0, 0 <= t < d)

    def nu(k, extra_scalar):
        sign, e = summand_twist(r, m, rho, k)
        f = FoldedRatio(d)
        f.mul_scalar(extra_scalar * sign)
        f.mul_qpow(e)
        f.mul_binom(2 * m * k + r)
        return _ratio_into(f, r, m, k, rho - 1)

    mu = Fraction(-1) ** (rho * s) * _scalar_c(r, m, d, s) ** (rho - 1)
    lhs = nu(s * d + t, Fraction(1))
    rhs = nu(t, mu)
    ok, detail = folded_equal(lhs, rhs)
    return CheckOutcome(ok, f"mu_consistency(r={r},m={m},rho={rho},d={d},s={s},t={t})",
                        f"nu_{s * d + t}", f"mu_{s} * nu_{t}", detail)
