"""
The per-modulus congruence checks, decided modulo a single cyclotomic
polynomial Phi_d.

The checks avoid inversion entirely. They work in Z[q]/(q^d - 1), where
multiplying by 1 - q^x is one rotate-and-subtract over the d coefficients,
and where every power of q and every product of two folded arrays is
reduced by bigpoly.fold (the products by bigpoly.mul_lists). Congruence
mod q^d - 1 implies congruence mod Phi_d, so one integer remainder at the
end settles each check. Nothing is rational: a scalar enters as an integer
numerator factor and an integer denominator factor. A binomial 1 - q^x
with d | x and x != 0 folds to literal zero, which is exact but useless
inside a ratio, so _binom_pass, the one folded binomial pass, pulls those
factors out as (1 - q^d) * (x/d) and counts them: (1 - q^x)/(1 - q^d) is
congruent to x/d mod Phi_d for every nonzero multiple x of d, both signs.
FoldedRatio and summand_sum, the folded sum of the first n summands that
check_block_sum takes at n = d, both step through it. Ratios are compared
by cross-multiplication, never by division: a positive count of extracted
(1 - q^d) factors makes a side zero, and two nonzero sides are equal when
their cross products are congruent mod Phi_d. A negative count is a pole
at Phi_d. No claim's domain (m >= 2, gcd(r, m) = gcd(d, m) = 1) reaches
one, nor a 1 - q^0 in a denominator, so both raise DomainError.
"""
from __future__ import annotations

import math
import operator

from .bigpoly import IntPoly, fold, mul_lists
from .constructs import lambda_residue, pair_ok, rising, summand_twist
from .cyclotomic import phi
from .exceptions import DomainError
from .record import Record


# ---------------------------------------------------------------------------
# folded integer arrays

def _binom_pass(arr, d, x, e):
    """arr times (1 - q^x)^e in Z[q]/(q^d - 1), e >= 0, and the number of
    (1 - q^d) factors pulled out. Each factor is one rotate-and-subtract,
    except when d | x: 1 - q^x then folds to zero, so each factor enters as
    the integer x/d instead, the class of (1 - q^x)/(1 - q^d) mod Phi_d, and
    counts one (1 - q^d)."""
    s = x % d
    if not s:
        return [(x // d) ** e * a for a in arr], e
    for _ in range(e):
        arr = list(map(operator.sub, arr, arr[-s:] + arr[:-s]))
    return arr, 0


def _rem_phi(arr, d):
    return IntPoly(arr).rem_monic(phi(d))


class FoldedRatio:
    """A ratio of binomial products and integer factors, folded mod
    q^d - 1.

    value = (1 - q^d)^gpow * num / den

    where num and den are folded integer arrays: num holds the
    non-vanishing numerator binomials, every power of q and the integer
    numerator factors, den the non-vanishing denominator binomials and the
    integer denominator factors. Both are units mod Phi_d unless a
    numerator factor is 0, which zeroes num. A 1 - q^0 in a denominator
    raises DomainError, and so does deciding a ratio whose (1 - q^d) count
    is negative: a pole at Phi_d, which no claim's domain reaches.
    """

    __slots__ = ("d", "gpow", "num", "den")

    def __init__(self, d):
        if d < 2:
            raise DomainError(f"modulus index {d}")
        self.d = d
        self.gpow = 0
        self.num = [0] * d
        self.num[0] = 1
        self.den = [0] * d
        self.den[0] = 1

    def mul_scalar(self, num, den=1):
        """Multiply by num/den for integers num and den, first divided by
        their gcd."""
        g = math.gcd(num, den)
        num, den = num // g, den // g
        self.num = [num * a for a in self.num]
        self.den = [den * a for a in self.den]
        return self

    def mul_qpow(self, e):
        self.num = fold(self.num, self.d, e)
        return self

    def mul_binom(self, x, e=1):
        """Multiply by (1 - q^x)^e; e may be negative."""
        if e > 0:
            self.num, c = _binom_pass(self.num, self.d, x, e)
            self.gpow += c
        elif e < 0:
            if x == 0:
                raise DomainError("1 - q^0 in a denominator")
            self.den, c = _binom_pass(self.den, self.d, x, -e)
            self.gpow -= c
        return self

    def is_congruent_zero(self):
        if self.gpow < 0:
            raise DomainError(f"pole at Phi_{self.d}: (1 - q^d) count "
                              f"{self.gpow}")
        return self.gpow > 0 or _rem_phi(self.num, self.d).is_zero


def folded_equal(lhs, rhs):
    """Decide lhs == rhs in Q[q]/Phi_d by cross-multiplication.

    Returns (ok, detail). A side with a positive (1 - q^d) count or a zero
    scalar is zero in the field; two nonzero sides both have count 0, and
    are equal when their cross products are congruent. A negative count on
    either side raises DomainError.

    >>> q = FoldedRatio(5).mul_qpow(1)
    >>> folded_equal(q, FoldedRatio(5).mul_qpow(6))
    (True, '')
    >>> folded_equal(q, FoldedRatio(5))
    (False, 'cross products differ mod Phi_d')
    """
    if lhs.d != rhs.d:
        raise DomainError("mixed moduli")
    d = lhs.d
    lz = lhs.is_congruent_zero()
    rz = rhs.is_congruent_zero()
    if lz or rz:
        return (lz and rz), ("both vanish" if lz and rz else "one side vanishes")
    left = fold(mul_lists(lhs.num, rhs.den), d)
    right = fold(mul_lists(rhs.num, lhs.den), d)
    if _rem_phi(list(map(operator.sub, left, right)), d).is_zero:
        return True, ""
    return False, "cross products differ mod Phi_d"


# ---------------------------------------------------------------------------
# the per-modulus checks


class CheckOutcome(Record):
    __slots__ = ("ok", "label", "lhs", "rhs", "detail")

    def __bool__(self):
        return self.ok


def _require_coprime(r, m, d, *bounds):
    """DomainError unless pair_ok(r, m), d >= 2, gcd(d, m) = 1 and every
    one of the check's own bounds holds."""
    if not (pair_ok(r, m) and d >= 2 and math.gcd(d, m) == 1 and all(bounds)):
        raise DomainError(f"need m >= 2, d >= 2, gcd(r, m) = gcd(d, m) = 1 "
                          f"and the check's bounds; got r={r}, m={m}, d={d}")


def _scalar_c(r, m, d, s):
    """The block scalar c_s as an integer pair (numerator, denominator): the
    rising factorial of w/m over s steps divided by s!, where
    w = (r + lambda*m)/d is the integer the vanishing binomial contributes;
    that is constructs.rising's pair at k = s, prod_{i<s} (w + i*m) over
    m^s s!, not reduced."""
    w = (r + lambda_residue(r, m, d) * m) // d
    *_, (num, den) = rising(w, m, s)
    return num, den


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
    rhs = _ratio_into(FoldedRatio(d).mul_scalar(*_scalar_c(r, m, d, s)),
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
        # qbinom(h, k) in q^m is ratio_k at r = m*(h - k + 1)
        _ratio_into(rhs, m * (h - k + 1), m, k)
        ok, detail = folded_equal(lhs, rhs)
        if not ok:
            return CheckOutcome(False, f"qbinom_reduction(r={r},m={m},d={d})",
                                f"ratio_{k}", f"unit * qbinom({h},{k})",
                                f"k={k}: {detail}")
    return CheckOutcome(True, f"qbinom_reduction(r={r},m={m},d={d})",
                        "ratio_k", "unit * qbinom(h,k)", f"all k < {d}")


def summand_sum(r, m, rho, n, d):
    """The first n summands of the weighted q-binomial sum over the common
    denominator (1-q)(q^m;q^m)_{n-1}^rho, folded mod q^d - 1.

    Summand k is q^{-mk} [2mk+r]_q ((-1)^k q^{-kr-m*binom(k,2)}
    (q^r;q^m)_k/(q^m;q^m)_k)^rho. The numerator pk = (q^r;q^m)_k^rho and
    the running sum are stepped by _binom_pass, and a count keeps the
    (1 - q^d) factors it pulls out: up on the numerator side, down on the
    denominator side. A summand whose count is positive is 0 mod Phi_d and
    adds nothing. What is left of the denominator is a unit mod Phi_d, so
    Phi_d divides the sum exactly when it divides the result. A negative
    count is a pole at Phi_d and raises DomainError; gcd(d, m) = 1 rules
    it out, since k consecutive exponents r + jm meet d's residue class at
    least floor(k/d) times.
    """
    pk = [1] + [0] * (d - 1)
    su = [0] * d
    count = 0
    for k in range(n):
        if k:
            pk, up = _binom_pass(pk, d, r + (k - 1) * m, rho)
            su, down = _binom_pass(su, d, m * k, rho)
            count += up - down
            if count < 0:
                raise DomainError(f"pole at Phi_{d}: (1 - q^d) count {count}")
        term, c = _binom_pass(pk, d, 2 * m * k + r, 1)
        if count + c == 0:
            sgn, e = summand_twist(r, m, rho, k)
            su = [a + sgn * b for a, b in zip(su, fold(term, d, e))]
    return su


def check_block_sum(r, m, rho, d):
    """The first d summands of the weighted q-binomial sum add to zero mod
    Phi_d: summand_sum at n = d, where the common denominator
    (1-q)(q^m;q^m)_{d-1}^rho is a unit mod Phi_d, so the check is one
    integer remainder of the folded sum. The per-k reduction to the
    integer-top Gaussian binomial is verified alongside, since the
    vanishing of the sum rests on it.
    """
    _require_coprime(r, m, d, rho >= 1)
    red = check_qbinom_reduction(r, m, d)
    if not red.ok:
        return red
    rem = _rem_phi(summand_sum(r, m, rho, d, d), d)
    return CheckOutcome(rem.is_zero, f"block_sum(r={r},m={m},rho={rho},d={d})",
                        f"sum of {d} summands", "0 mod Phi_d",
                        "" if rem.is_zero else f"remainder {rem!r}")


def check_sign_reduction(m, d, s, h):
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

    def nu(k, num=1, den=1):
        sign, e = summand_twist(r, m, rho, k)
        f = FoldedRatio(d).mul_scalar(sign * num, den).mul_qpow(e)
        return _ratio_into(f.mul_binom(2 * m * k + r), r, m, k, rho - 1)

    c_num, c_den = _scalar_c(r, m, d, s)
    lhs = nu(s * d + t)
    rhs = nu(t, (-1) ** (rho * s) * c_num ** (rho - 1), c_den ** (rho - 1))
    ok, detail = folded_equal(lhs, rhs)
    return CheckOutcome(ok, f"mu_consistency(r={r},m={m},rho={rho},d={d},s={s},t={t})",
                        f"nu_{s * d + t}", f"mu_{s} * nu_{t}", detail)
