"""
End-to-end checks of the divisibility and congruence claims.

The claims verified here, each as a pure function returning a Verdict:

  verify_binomial_sum        sum over k < n of (2k + alpha) binom(-alpha, k)^rho
                             is 0 mod the integer n_alpha, in the rational
                             congruence sense
  verify_central_binomial    sum of (4k+1) binom(2k,k)^rho (-4)^{rho(n-1-k)}
                             is divisible by 2^{rho-2} n binom(2n,n)
  verify_q_congruence        the cleared weighted q-binomial sum is an
                             integer Laurent polynomial divisible by the
                             squarefree product a_poly * c_poly
  verify_specialization_at_one   the q = 1 shadow of the previous claim:
                             values, content and prime-support checks, and
                             agreement with verify_binomial_sum
  verify_structure_identity  poch_ratio * b_poly equals the signed monomial
                             times the squarefree s_set product, exactly
  verify_value_identity      a_poly(1) * c_poly(1) equals n_alpha
  verify_two_adic_bounds     the 2-adic valuation inequalities behind the
                             central binomial claim
  verify_sun_conjecture      sum of (5k+1) binom(2k,k)^2 binom(3k,k)
                             (-192)^{n-1-k} is 0 mod n binom(2n,n), an
                             open conjecture (Z.-W. Sun, Open conjectures
                             on congruences, arXiv:0911.5665); a failure
                             is data, not a bug

The rational congruence semantics: a/b is 0 mod N iff gcd(b, N) = 1 and
N divides a. _zero_mod carries that meaning.

The q-congruence path never expands term by term. It steps
R_k = b_poly^rho ((q^r;q^m)_k / (q^m;q^m)_k)^rho from k to k + 1 by exact
1 - q^h passes (bigpoly.mul_binom, div_binom), so each cleared summand
[2mk+r]_q R_k is integral by construction. Their twisted sum, the cleared
sum, is built as one flat coefficient list at a running low exponent, each
summand added into it in place, and is reduced modulo the monic a_poly *
c_poly; that one remainder settles the divisibility and is a failure's
witness. A grid sweeps n innermost, so the cleared sum at n resumes from
the list and low exponent left at n - 1.
"""
from __future__ import annotations

import contextlib
import functools
import math
import operator
import sys
import types
from fractions import Fraction

from .bigpoly import IntPoly, LaurentInt, div_binom, mul_binom
from .constructs import (a_poly, b_poly, c_poly, expand_product, n_alpha,
                         negative_tail, pair_ok, rising, s_set,
                         summand_twist)
from .exceptions import DomainError, NotDivisible
from .qseries import FactoredQ, poch_ratio
from .record import Record


# claim -> (its parameter names in argument order, a predicate on them,
# the same rule in words). Each verify_* raises DomainError outside its
# claim's entry; `qcongruence verify` takes a claim's grid flags from its
# names, and skips and counts the instances outside its domain. The names
# are data, never read from a signature: `import inspect` would add about
# 6-8 ms to the 27-30 ms `import qcongruence.cli` (python -X importtime,
# 2-core host, Python 3.11.7), which loads no inspect today, and every
# `qcongruence` start would pay it.
DOMAINS = {
    "binomsum": (("r", "m", "rho", "n"),
                 lambda r, m, rho, n: pair_ok(r, m) and rho >= 1 and n >= 1,
                 "m >= 2, gcd(r, m) = 1, rho >= 1, n >= 1"),
    "central": (("rho", "n"), lambda rho, n: rho >= 2 and n >= 2,
                "rho >= 2, n >= 2"),
    "2adic": (("rho", "n"), lambda rho, n: rho >= 1 and n >= 2,
              "rho >= 1, n >= 2"),
    "identities": (("r", "m", "n"), lambda r, m, n: pair_ok(r, m) and n >= 1,
                   "m >= 2, gcd(r, m) = 1, n >= 1"),
    "sun": (("n",), lambda n: n >= 2, "n >= 2"),
}
DOMAINS["qcong"] = DOMAINS["binomsum"]


def _require(claim, *params):
    """The params keyed by the claim's names, for its Verdict; DomainError
    outside its domain."""
    names, admits, rule = DOMAINS[claim]
    if not admits(*params):
        raise DomainError(f"{claim} needs {rule}; got {params}")
    return dict(zip(names, params))


class Verdict(Record):
    __slots__ = ("claim", "params", "passed", "lhs", "rhs", "witness")

    def __bool__(self):
        return self.passed


def _zero_mod(value, modulus):
    """Whether the Fraction value is 0 mod the integer modulus >= 1. In
    lowest terms, modulus | numerator already makes the denominator a unit.
    """
    if modulus < 1:
        raise DomainError(f"modulus {modulus}")
    return value.numerator % modulus == 0


def _ord2(x):
    if x == 0:
        raise DomainError("2-adic order of 0")
    x = abs(x)
    return (x & -x).bit_length() - 1


def poly_digest(p):
    """Compact exact fingerprint of a polynomial for reports.

    degree, content, value at 1 and at 2 pin the polynomial down far more
    tightly than eyeballing coefficients would; LaurentInt adds its shift.

    >>> poly_digest(IntPoly(1, 2, 3))
    {'degree': 2, 'content': 1, 'at1': 6, 'at2': 17}
    >>> poly_digest(LaurentInt(IntPoly(1, 1), -3))['shift']
    -3
    """
    if isinstance(p, LaurentInt):
        d = poly_digest(p.base)
        d["shift"] = p.shift
        return d
    return {
        "degree": p.degree,
        "content": p.content(),
        "at1": sum(p.coeffs),
        "at2": p.evaluate(2),
    }


@contextlib.contextmanager
def unlimited_int_str():
    """Lift CPython's cap on int -> decimal string conversion
    (sys.set_int_max_str_digits, 4300 digits by default) inside the block,
    and restore the old value when it exits, also on an exception.

    A digest's at2 = p(2) passes that cap from (r, m, rho, n) =
    (49, 10, 6, 14) on, and str() would then raise ValueError. Every
    decimal stays exact, and output below the cap is unchanged. Where the
    cap does not exist (before 3.10.7 on 3.10) this does nothing.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def poly_full(p):
    """Ascending coefficient list; the verbose alternative to a digest."""
    if isinstance(p, LaurentInt):
        d = poly_full(p.base)
        d["shift"] = p.shift
        return d
    return {"coeffs": list(p.coeffs)}


# ---------------------------------------------------------------------------
# rational and integer sums


def _binomial_sum(r, m, rho, n):
    """(plain, scaled): sums of (2k+alpha) and (2mk+r) times
    binom(-alpha,k)^rho over k < n, each a Fraction in lowest terms.

    binom(-alpha, k) = (-1)^k num_k / den_k with the pairs from
    constructs.rising, so the sum runs in integers over den_k^rho: each
    step rescales the total by (den_k / den_{k-1})^rho = (mk)^rho (at
    k = 0 the total is still 0), and scaled is normalised once, at the
    end. Since 2k + alpha = (2mk + r) / m, plain is scaled over m. At
    n = 0 both sums are 0.
    """
    total, den = 0, 1
    for k, (num, den) in enumerate(rising(r, m, n - 1)):
        total *= (m * k) ** rho
        total += (-1) ** (rho * k) * (2 * m * k + r) * num ** rho
    scaled = Fraction(total, den ** rho)
    return scaled / m, scaled


def verify_binomial_sum(r, m, rho, n):
    params = _require("binomsum", r, m, rho, n)
    plain, scaled = _binomial_sum(r, m, rho, n)
    modulus = n_alpha(r, m, n)
    ok = _zero_mod(plain, modulus)
    agree = ok == _zero_mod(scaled, modulus) and math.gcd(m, modulus) == 1
    witness = None
    if not (ok and agree):
        witness = {"sum": str(plain), "scaled_sum": str(scaled),
                   "modulus": modulus,
                   "denominator_unit":
                       math.gcd(plain.denominator, modulus) == 1,
                   "forms_agree": agree}
    return Verdict("binomsum", params, ok and agree,
                   f"sum = {plain}", f"0 mod {modulus}", witness)


def _central(n):
    """binom(2k, k) for k = 0, 1, ..., n - 1, by its recurrence."""
    c = 1
    for k in range(n):
        yield c
        c = c * (2 * (2 * k + 1)) // (k + 1)


def _central_sum(rho, n):
    return sum((4 * k + 1) * c ** rho * (-4) ** (rho * (n - 1 - k))
               for k, c in enumerate(_central(n)))


def _central_bridge(n):
    """Whether binom(-1/2, k) (-4)^k = binom(2k, k) for every k < n.

    binom(-1/2, k) = (-1)^k num_k / den_k with the pairs of
    constructs.rising at r = 1, m = 2, so each k compares the integer
    cross-products num_k 4^k and binom(2k, k) den_k. _central is its own
    recurrence, so the bridge checks the shared generator against an
    independent one.
    """
    return all(num * 4 ** k == central * den for k, (central, (num, den))
               in enumerate(zip(_central(n), rising(1, 2, n))))


def verify_central_binomial(rho, n):
    params = _require("central", rho, n)
    total = _central_sum(rho, n)
    modulus = 2 ** (rho - 2) * n * math.comb(2 * n, n)
    ok = total % modulus == 0
    bridge = _central_bridge(n)
    witness = None
    if not (ok and bridge):
        witness = {"sum": total, "modulus": modulus, "bridge": bridge}
    return Verdict("central", params, ok and bridge,
                   f"sum = {total}", f"0 mod {modulus}", witness)


# ---------------------------------------------------------------------------
# the q-congruence


# The last integral build of the cleared sum, which _cleared_sum resumes
# from: ((r, m, rho), n, R_{n-1} as a list, its sign, its shift, the
# cleared sum's coefficient list, its low exponent).
_resume = None


def reset_qcong():
    """Forget the cached q-congruence instance and the resume state."""
    global _resume
    _resume = None
    _qcong_data.cache_clear()


def _coprime_part(x, m):
    """x with every prime factor it shares with m divided out."""
    g = math.gcd(x, m)
    while g > 1:
        x //= g
        g = math.gcd(x, m)
    return x


def _times_f(cs, m, rho, j):
    """cs times F_j^rho (see _qcong_data). F_j is a polynomial, so with
    every multiply first, every division is exact."""
    return div_binom(mul_binom(cs, m * j, rho), _coprime_part(j, m), rho)


def _cleared_sum(r, m, rho, n):
    """(cleared, nonintegral_k) for _qcong_data, resumed from _resume when
    it holds the same (r, m, rho) at some n0 <= n, and otherwise from the
    empty state n0 = 0, R = 1, cleared = 0 through the same loop. A build
    that meets a non-integral summand leaves no state to resume from.

    The sum stays one coefficient list cs at a running low exponent low
    until the return: each summand adds into its slice in place, after cs
    is padded with zeros below (moving low down) or above to reach it."""
    global _resume
    # R_k is sign * q^shift * R; the cleared sum is q^low * cs
    if _resume is not None and _resume[0] == (r, m, rho) and _resume[1] <= n:
        _, n0, R, sign, shift, cs, low = _resume
    else:
        n0, R, sign, shift, cs, low = 0, [1], 1, 0, [], 0
    _resume = None
    for j in range(n0 + 1, n + 1):
        R = _times_f(R, m, rho, j)
        if cs:  # a zero sum stays zero, with no padding
            cs = _times_f(cs, m, rho, j)

    nonintegral_k = None
    for k in range(n0, n):
        if k:
            y = r + (k - 1) * m
            R = mul_binom(R, abs(y), rho)
            if y < 0:  # 1 - q^y = -q^y (1 - q^-y)
                sign *= (-1) ** rho
                shift += rho * y
            try:
                R = div_binom(R, m * k, rho)
            except NotDivisible:
                nonintegral_k = k
                break
        x = 2 * m * k + r
        twist, e = summand_twist(r, m, rho, k)
        if x < 0:  # [x]_q = -q^x [-x]_q
            twist, e = -twist, e + x
        term = div_binom(mul_binom(R, abs(x)), 1)
        at = shift + e
        if at < low:
            cs[:0] = [0] * (low - at)
            low = at
        i = at - low
        cs.extend([0] * (i + len(term) - len(cs)))
        op = operator.add if sign * twist > 0 else operator.sub
        cs[i:i + len(term)] = map(op, cs[i:i + len(term)], term)
    if nonintegral_k is None:
        _resume = ((r, m, rho), n, R, sign, shift, cs, low)
    return LaurentInt(IntPoly(cs), low), nonintegral_k


@functools.lru_cache(maxsize=1)
def _qcong_data(r, m, rho, n):
    """What verify_q_congruence and the q = 1 specialization share.

    The cleared sum is sum_{k<n} (-1)^{rho k} q^{e_k} [2mk+r]_q R_k, with
    e_k from summand_twist and R_k = B^rho ((q^r;q^m)_k / (q^m;q^m)_k)^rho
    for B = b_poly(m, n). Both are built from exact 1 - q^h passes:

      B = prod_{j<=n} F_j, F_j = (1 - q^{mj}) / (1 - q^{j'}), where j' is j
          with every prime it shares with m divided out; the product up to
          each j is b_poly(m, j), so every division is exact
      R_0 = B^rho, R_k = R_{k-1} (1 - q^{r+(k-1)m})^rho / (1 - q^{mk})^rho

    with 1 - q^x = -q^x (1 - q^-x) for x < 0, and [x]_q R_k formed as
    (1 - q^x) R_k / (1 - q). nonintegral_k is the first k whose division
    raises NotDivisible; for pairs passing pair_ok none does, since every
    R_k with k < n is integral. From there on no summand is added.

    Grids sweep n innermost, so the cleared sum resumes from the previous
    instance (_cleared_sum). B_n = B_{n0} prod_{n0<j<=n} F_j, and every
    summand carries B_n^rho, so cleared_{n0} and R_{n0-1} are scaled by
    F_j^rho for n0 < j <= n, and only the summands k >= n0 are added. The
    sum is carried as one coefficient list at a running low exponent, and
    becomes a LaurentInt only when the build returns.

    "remainder" is the cleared sum's base modulo the expanded a_poly *
    c_poly, zero exactly when that product divides the cleared sum.
    """
    cleared, nonintegral_k = _cleared_sum(r, m, rho, n)
    ac_f = a_poly(r, m, n) * c_poly(m, n)
    AC = expand_product(ac_f)
    # Read-only: lru_cache hands this same mapping to every caller.
    return types.MappingProxyType({
        "cleared": cleared,
        "AC": AC,
        "ac_factored": ac_f,
        "remainder": cleared.base.rem_monic(AC),
        "nonintegral_k": nonintegral_k,
    })


def verify_q_congruence(r, m, rho, n, full_polys=False):
    params = _require("qcong", r, m, rho, n)
    data = _qcong_data(r, m, rho, n)
    remainder = data["remainder"]
    ok = remainder.is_zero and data["nonintegral_k"] is None
    witness = None
    fmt = poly_full if full_polys else poly_digest
    if not ok:
        witness = {"nonintegral_term": data["nonintegral_k"]}
        if not remainder.is_zero:
            witness["remainder_digest"] = fmt(remainder)
    with unlimited_int_str():
        lhs = f"cleared sum {fmt(data['cleared'])}"
        rhs = f"0 mod A*C {fmt(data['AC'])}"
    if full_polys:
        rhs += f" = {data['ac_factored']!r}"
    return Verdict("qcong", params, ok, lhs, rhs, witness)


def _prime_support_divides(value, m):
    """Whether every prime factor of the integer value >= 1 divides m. At
    B(1), a product of Phi_d(1) that are each 1 or a prime, this is
    Phi_d(1) = 1 or Phi_d(1) | m for every factor Phi_d of B.

    b_poly's rule (keep Phi_d with gcd(d, m) > 1) always passes it, so on
    this code it guards b_poly rather than testing the claim: a B built by
    any other rule fails it, as the negative control in
    tests/test_integer_oracles.py shows. It is kept as a fault detector."""
    return _coprime_part(value, m) == 1


def verify_specialization_at_one(r, m, rho, n):
    params = _require("qcong", r, m, rho, n)
    data = _qcong_data(r, m, rho, n)
    plain, scaled = _binomial_sum(r, m, rho, n)
    modulus = n_alpha(r, m, n)

    cleared1 = sum(data["cleared"].base.coeffs)
    b1 = b_poly(m, n).value_at_one().numerator  # B has no denominator
    value_match = b1 ** rho * scaled == cleared1
    ac1 = data["ac_factored"].value_at_one()
    value_id = ac1 == modulus
    content_ok = data["AC"].content() == 1
    support_ok = _prime_support_divides(b1, m)
    # an exact quotient H has H(1) A(1)C(1) = cleared(1), so A*C | cleared
    # settles the q = 1 divisibility too
    divides = data["remainder"].is_zero
    same_as_sum = divides == _zero_mod(plain, modulus)

    ok = all((value_match, value_id, content_ok, support_ok, divides,
              same_as_sum))
    witness = None
    if not ok:
        witness = {
            "cleared_at_1": cleared1,
            "b_at_1": str(b1),
            "scaled_sum": str(scaled),
            "value_match": value_match,
            "value_identity": value_id,
            "content_one": content_ok,
            "b_prime_support_divides_m": support_ok,
            "quotient_at_1": divides,
            "agrees_with_binomsum": same_as_sum,
        }
    return Verdict("qcong_at_1", params, ok,
                   f"cleared(1) = {cleared1}",
                   f"B(1)^rho * scaled_sum; A(1)C(1) = {modulus}",
                   witness)


def verify_structure_identity(r, m, n):
    """poch_ratio(r,m,n) * b_poly(m,n) equals the signed q-power times
    the squarefree product over s_set, as exact factored objects."""
    params = _require("identities", r, m, n)
    lhs = poch_ratio(r, m, n) * b_poly(m, n)
    delta, big_delta = negative_tail(r, m, n)
    rhs = FactoredQ(-1 if delta % 2 else 1, big_delta,
                    {d: 1 for d in s_set(r, m, n)})
    ok = lhs == rhs
    return Verdict("structure", params, ok, repr(lhs), repr(rhs),
                   None if ok else {"lhs": repr(lhs), "rhs": repr(rhs)})


def verify_value_identity(r, m, n):
    """a_poly(1) * c_poly(1) = n_alpha, evaluated through the factored
    forms (no expansion)."""
    params = _require("identities", r, m, n)
    val = (a_poly(r, m, n) * c_poly(m, n)).value_at_one()
    target = n_alpha(r, m, n)
    ok = val == target
    return Verdict("value_at_one", params, ok, str(val), str(target),
                   None if ok else {"A1C1": str(val), "n_alpha": target})


# ---------------------------------------------------------------------------
# 2-adic bounds and the open conjecture


def _term_ord2(c, rho, j):
    """ord_2 of c^rho 4^(rho j), without forming that power."""
    return rho * (_ord2(c) + 2 * j)


def verify_two_adic_bounds(rho, n):
    params = _require("2adic", rho, n)
    bad = None
    central = list(_central(n + 1))
    target = _ord2(n * central[n])
    for k, c in enumerate(central[:n]):
        ok_k = target <= n - k + _ord2(c)
        final = _term_ord2(c, rho, n - 1 - k) >= (rho - 2) + target
        if not (ok_k and final):
            bad = {"k": k, "order_bound": ok_k, "final_bound": final}
            break
    even_ok = all(c % 2 == 0 for c in central[1:])
    ok = bad is None and even_ok
    witness = None
    if not ok:
        witness = bad or {}
        witness["central_binomials_even"] = even_ok
    return Verdict("2adic", params, ok,
                   f"ord_2(n*binom(2n,n)) = {target}",
                   "order inequalities for all k < n", witness)


def verify_sun_conjecture(n):
    params = _require("sun", n)
    total = 0
    t = 1  # binom(3k,k)
    for k, c in enumerate(_central(n)):
        total += (5 * k + 1) * c * c * t * (-192) ** (n - 1 - k)
        t = t * 3 * (3 * k + 1) * (3 * k + 2) // ((2 * k + 1) * (2 * k + 2))
    modulus = n * math.comb(2 * n, n)
    ok = total % modulus == 0
    return Verdict("sun", params, ok, f"sum = {total}", f"0 mod {modulus}",
                   None if ok else {"sum": total, "modulus": modulus})
