"""Dense polynomial layer: exact arithmetic, exact division, Laurent shifts."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcongruence.bigpoly import (IntPoly, LaurentInt, _mul_kronecker,
                                 _mul_school, div_binom, fold, mul_binom,
                                 mul_lists)
from qcongruence.exceptions import NotDivisible

coeff_lists = st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=40)
Q = sympy.Symbol("q")


def to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], Q, domain=sympy.QQ)


def from_sympy(p):
    """The IntPoly of a sympy polynomial over QQ, None if not integral."""
    cs = [sympy.Rational(c) for c in reversed(p.all_coeffs())]
    if any(c.q != 1 for c in cs):
        return None
    return IntPoly([int(c) for c in cs])


def test_construction_trims_and_freezes():
    p = IntPoly(1, 2, 0, 0)
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPoly().is_zero
    assert IntPoly(0, 0).is_zero
    assert IntPoly().degree is None


def test_repr_ascending_storage_descending_print():
    assert repr(IntPoly(-1, 0, 1)) == "q^2 - 1"
    assert repr(IntPoly(1, 1)) == "q + 1"
    assert repr(IntPoly()) == "0"
    assert repr(IntPoly(-7)) == "-7"


def test_ring_ops():
    f = IntPoly(1, 1)          # q + 1
    g = IntPoly(-1, 1)         # q - 1
    assert f * g == IntPoly(-1, 0, 1)
    assert (f * g).evaluate(3) == 8


def test_content():
    assert IntPoly(6, -9, 12).content() == 3
    assert IntPoly().content() == 0


def test_div_exact_and_failure():
    f = IntPoly(1, 1) * IntPoly(3, 0, 2)
    assert f.div_exact(IntPoly(1, 1)) == IntPoly(3, 0, 2)
    assert IntPoly().div_exact(IntPoly(1, 1)).is_zero
    with pytest.raises(NotDivisible):
        IntPoly(1, 0, 1).div_exact(IntPoly(1, 1))


def test_rem_monic():
    # q^2 mod (q^2 + q + 1) folds all the way down
    assert IntPoly(0, 0, 1).rem_monic(IntPoly(1, 1, 1)) == IntPoly(-1, -1)
    assert IntPoly(5).rem_monic(IntPoly(1, 1)) == IntPoly(5)


@pytest.mark.parametrize("mod", [IntPoly(1, 2), IntPoly(1, -1), IntPoly(3),
                                 IntPoly()], ids=["2q+1", "-q+1", "3", "0"])
def test_rem_monic_refuses_a_non_monic_modulus(mod):
    # the zero polynomial has no leading 1 either
    with pytest.raises(ValueError):
        IntPoly(1, 2, 3).rem_monic(mod)


# the kernel's operands: mul_lists sends a zero operand to _mul_school
nonzero_lists = st.lists(st.integers(-10**6, 10**6), min_size=1,
                         max_size=40).filter(any)


@given(nonzero_lists, nonzero_lists)
@settings(max_examples=120, deadline=None)
def test_kronecker_matches_schoolbook(a, b):
    assert _mul_kronecker(a, b) == _mul_school(a, b)


# Operand lengths for the slot-bound oracle, from 1 to 300, with the
# shorter side's length at both sides of 128 and 256.
SLOT_LENGTHS = [(1, 1), (1, 300), (300, 1), (2, 3), (127, 300), (128, 129),
                (255, 256), (256, 255), (300, 300)]


@pytest.mark.parametrize("M", [2**8 - 1, 2**8, 2**16 - 1, 2**16,
                               2**24 - 1, 2**24])
def test_kronecker_at_the_slot_bound(M):
    # With every entry +-M, the middle coefficients of the product are
    # +-M^2 min(len a, len b): exactly the bound the slot width is made
    # from. For each M some length pair makes that bound's bit length a
    # multiple of 8 (length 1 for M = 2^(8k) - 1, 128..255 for M = 2^(8k)),
    # where a slot one bit narrower would overflow.
    assert any((M * M * min(la, lb)).bit_length() % 8 == 0
               for la, lb in SLOT_LENGTHS)
    for la, lb in SLOT_LENGTHS:
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a, b = [sa * M] * la, [sb * M] * lb
            assert _mul_kronecker(a, b) == _mul_school(a, b), (M, la, lb)


def test_zero_product_at_both_kernel_sizes():
    # a zero operand takes the schoolbook loop at any length; the dense
    # operand alone would be long enough for the Kronecker product
    M = 2**24
    assert mul_lists([0] * 300, [M] * 300) == [0] * 599
    assert mul_lists([M] * 300, [0] * 300) == [0] * 599
    assert mul_lists([], [M] * 5) == [0] * 4
    assert mul_lists([], []) == []
    dense = IntPoly([M] * 300)
    assert (IntPoly() * dense).is_zero
    assert (dense * IntPoly()).is_zero


def test_tuple_operands_match_list_operands():
    a = [i % 7 - 3 for i in range(300)]
    b = [(i * i) % 11 - 5 for i in range(250)]
    product = mul_lists(tuple(a), tuple(b))
    assert product == mul_lists(a, b) == _mul_school(a, b)


@given(coeff_lists, coeff_lists)
@settings(max_examples=80, deadline=None)
def test_product_evaluates_pointwise(a, b):
    f, g = IntPoly(a), IntPoly(b)
    h = f * g
    for x in (1, 2, -3):
        assert h.evaluate(x) == f.evaluate(x) * g.evaluate(x)


@given(coeff_lists, coeff_lists)
@settings(max_examples=80, deadline=None)
def test_div_exact_roundtrip(a, b):
    f, g = IntPoly(a), IntPoly(b)
    if g.is_zero:
        return
    assert (f * g).div_exact(g) == f


def test_big_operands_cross_multiplier_threshold():
    f = IntPoly([i % 7 - 3 for i in range(400)])
    g = IntPoly([(i * i) % 11 - 5 for i in range(350)])
    h = f * g
    assert h.evaluate(2) == f.evaluate(2) * g.evaluate(2)
    assert h.evaluate(-1) == f.evaluate(-1) * g.evaluate(-1)


@given(coeff_lists, st.integers(1, 50))
@settings(max_examples=120, deadline=None)
def test_binom_kernel_roundtrip(cs, h):
    prod = mul_binom(cs, h)
    binom = IntPoly([1] + [0] * (h - 1) + [-1])
    assert IntPoly(prod) == IntPoly(cs) * binom
    assert div_binom(prod, h) == cs


@given(coeff_lists, st.integers(1, 50), st.data())
@settings(max_examples=120, deadline=None)
def test_binom_kernel_rejects_non_multiple(cs, h, data):
    # q^i is never a multiple of 1 - q^h, so neither is prod + delta*q^i
    prod = mul_binom(cs, h)
    i = data.draw(st.integers(0, len(prod) - 1))
    prod[i] += data.draw(st.integers(-5, 5).filter(bool))
    with pytest.raises(NotDivisible):
        div_binom(prod, h)
    with pytest.raises(NotDivisible):
        div_binom([1] * h, h)


@given(coeff_lists, st.integers(1, 12), st.integers(0, 4))
@settings(max_examples=120, deadline=None)
def test_binom_kernel_exponent_is_repeated_passes(cs, h, e):
    once = list(cs)
    for _ in range(e):
        once = mul_binom(once, h)
    assert mul_binom(cs, h, e) == once
    assert div_binom(once, h, e) == cs


@given(st.lists(st.integers(-50, 50), max_size=12), st.integers(1, 6),
       st.integers(2, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_binom_kernel_exponent_rejects_non_multiple(cs, h, e, data):
    prod = mul_binom(cs, h, e)
    i = data.draw(st.integers(0, len(prod) - 1))
    prod[i] += data.draw(st.integers(-5, 5).filter(bool))
    with pytest.raises(NotDivisible):
        div_binom(prod, h, e)


def fold_oracle(cs, d, shift):
    """Reduction mod q^d - 1, one coefficient at a time."""
    out = [0] * d
    for i, c in enumerate(cs):
        out[(i + shift) % d] += c
    return out


@given(st.integers(1, 9), st.integers(-30, 30), st.data())
@settings(max_examples=120, deadline=None)
def test_fold_matches_naive_reduction(d, shift, data):
    # the empty list, and lengths below d, equal to d and past 2d
    for n in (0, d - 1, d, 2 * d + 1):
        cs = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                                max_size=n))
        assert fold(cs, d, shift) == fold_oracle(cs, d, shift)


def test_laurent_normalization_and_ops():
    x = LaurentInt(IntPoly(0, 0, 1, 1), -1)  # q + q^2 at shift -1
    assert x.shift == 1
    assert x.base == IntPoly(1, 1)
    y = LaurentInt(IntPoly(1), -2)
    assert (x * y).shift == -1
    assert (x * y).base == x.base
    assert LaurentInt(IntPoly(0, 0), -5) == LaurentInt(IntPoly())


@pytest.mark.parametrize("x, other", [
    (IntPoly(1, 2), 3), (IntPoly(1, 2), Fraction(1, 2)),
    (IntPoly(1, 2), LaurentInt(IntPoly(1), 1)),
    (LaurentInt(IntPoly(1), 1), 3), (LaurentInt(IntPoly(1), 1), Fraction(1, 2)),
    (LaurentInt(IntPoly(1), 1), IntPoly(1, 2)),
], ids=["IntPoly-int", "IntPoly-Fraction", "IntPoly-LaurentInt",
        "LaurentInt-int", "LaurentInt-Fraction", "LaurentInt-IntPoly"])
def test_product_with_another_class_is_a_type_error(x, other):
    """Each class multiplies only by itself; any other operand, on either
    side, is a TypeError rather than an AttributeError from inside."""
    with pytest.raises(TypeError):
        x * other
    with pytest.raises(TypeError):
        other * x


@st.composite
def division_cases(draw):
    """(f, g) with g's lead in {1, -1, 2, -2, 3}: f is random, a multiple
    of g, or, for an even lead, g/2 times a random h, whose quotient h/2
    is exact over Q but integral only when h is even."""
    small = st.lists(st.integers(-50, 50), max_size=12)
    lead = draw(st.sampled_from([1, -1, 2, -2, 3]))
    mode = draw(st.sampled_from(["random", "multiple", "half"]))
    if mode == "half" and lead % 2 == 0:
        g0 = IntPoly(draw(small) + [lead // 2])
        return g0 * IntPoly(draw(small)), g0 * IntPoly(2)
    g = IntPoly(draw(small) + [lead])
    if mode == "random":
        return IntPoly(draw(small)), g
    return g * IntPoly(draw(small)), g


@given(division_cases())
@example((IntPoly(1, 1), IntPoly(2, 2)))        # exact over Q, quotient 1/2
@example((IntPoly(2, 4, 2), IntPoly(2, 2)))     # quotient q + 1
@example((IntPoly(1, 0, 0, 1), IntPoly(1, 1, 1)))  # remainder 2
@example((IntPoly(), IntPoly(3)))
@settings(max_examples=300, deadline=None)
def test_division_matches_sympy(case):
    # sympy divides over QQ; div_exact must succeed exactly when that
    # leaves no remainder and an integral quotient
    f, g = case
    quot, rem = sympy.div(to_sympy(f), to_sympy(g))
    want = from_sympy(quot) if rem.is_zero else None
    if want is None:
        with pytest.raises(NotDivisible):
            f.div_exact(g)
    else:
        assert f.div_exact(g) == want
    if g.coeffs[-1] == 1:
        assert f.rem_monic(g) == from_sympy(rem)
