"""Claim-level verdicts.

The frozen constants below were computed twice: once by this package and
once by an independent symbolic route (direct rational q-series expansion),
and the two agreed coefficient for coefficient before being written down.
"""

import math
import sys
from fractions import Fraction

import pytest

from qcongruence import verifier
from qcongruence.bigpoly import IntPoly, LaurentInt
from qcongruence.exceptions import DomainError, NotDivisible
from qcongruence.qseries import FactoredQ
from qcongruence.verifier import (Verdict, _zero_mod, poly_digest,
                                  poly_full, verify_binomial_sum,
                                  verify_central_binomial,
                                  verify_q_congruence,
                                  verify_specialization_at_one,
                                  verify_structure_identity,
                                  verify_sun_conjecture,
                                  verify_two_adic_bounds,
                                  verify_value_identity)

# (r, m, rho, n) -> (shift, cleared coeffs, AC coeffs, quotient coeffs)
FROZEN_QCONG = {
    (1, 2, 1, 3): (-8,
                   [1, 2, 3, 4, 5, 5, 4, 3, 2, 1],
                   [1, 2, 3, 3, 3, 2, 1],
                   [1, 0, 0, 1]),
    (-1, 2, 1, 2): (-2, [1, 1, 1, 1], [1], [1, 1, 1, 1]),
}

# (r, m, rho, n) -> (shift, AC coeffs, cleared(1))
FROZEN_QCONG_BIG = {
    (2, 3, 2, 3): (-20, [1, 2, 3, 4, 5, 5, 5, 5, 4, 3, 2, 1], 64800),
    (1, 2, 2, 4): (-24, [1, 2, 3, 4, 5, 5, 5, 4, 3, 2, 1], 78400),
}


def _zero_mod_by_definition(value, modulus):
    """Test oracle: a/b is 0 mod N iff gcd(b, N) = 1 and N divides a."""
    return (math.gcd(value.denominator, modulus) == 1
            and value.numerator % modulus == 0)


def test_zero_mod():
    assert _zero_mod(Fraction(225, 128), 15)
    assert not _zero_mod(Fraction(1, 3), 6)  # 3 shares a factor with 6
    assert not _zero_mod(Fraction(7, 2), 15)
    with pytest.raises(DomainError):
        _zero_mod(Fraction(1), 0)
    # the unit-denominator half of the definition is implied in lowest terms
    for a in range(-40, 41):
        for b in range(1, 25):
            for modulus in range(1, 25):
                x = Fraction(a, b)
                assert _zero_mod(x, modulus) == _zero_mod_by_definition(
                    x, modulus), (x, modulus)


def test_verdict_protocol():
    v = Verdict("x", {"n": 1}, True, "l", "r", None)
    assert bool(v)
    assert not Verdict("x", {}, False, "l", "r", {"w": 1})


def test_digest_and_full():
    p = IntPoly(1, 2, 3)
    assert poly_digest(p) == {"degree": 2, "content": 1, "at1": 6, "at2": 17}
    lp = LaurentInt(p, -4)
    assert poly_digest(lp)["shift"] == -4
    assert poly_full(lp) == {"coeffs": [1, 2, 3], "shift": -4}


# q^15000 + 1 has at2 = 2^15000 + 1, 4,516 decimal digits: past CPython's
# default cap of 4,300 on int -> str conversion
HUGE = IntPoly([1] + [0] * 14999 + [1])


@pytest.fixture
def huge_cleared_sum(monkeypatch):
    """verify_q_congruence sees a passing instance whose cleared sum is
    q^15000 + 1."""
    data = {"cleared": LaurentInt(HUGE), "AC": IntPoly(1),
            "ac_factored": FactoredQ(), "remainder": IntPoly(),
            "nonintegral_k": None}
    monkeypatch.setattr(verifier, "_qcong_data", lambda *key: data)


def test_digest_above_the_int_str_cap_formats_exactly(huge_cleared_sum):
    v = verify_q_congruence(1, 2, 1, 3)
    assert v.passed
    with verifier.unlimited_int_str():
        want = str(2 ** 15000 + 1)
    assert len(want) > 4300
    assert v.lhs.endswith(f"'at2': {want}, 'shift': 0}}")
    if hasattr(sys, "set_int_max_str_digits"):
        with pytest.raises(ValueError):
            str(2 ** 15000)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int -> str cap on this interpreter")
def test_int_str_cap_is_restored(huge_cleared_sum):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        verify_q_congruence(1, 2, 1, 3)
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(KeyError):
            with verifier.unlimited_int_str():
                assert sys.get_int_max_str_digits() == 0
                raise KeyError("inside the block")
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)


def test_binomial_sum_frozen_values():
    v = verify_binomial_sum(1, 2, 2, 3)
    assert v.passed
    assert "225/128" in v.lhs
    assert "15" in v.rhs
    v = verify_binomial_sum(1, 3, 1, 4)
    assert v.passed
    assert "-140/243" in v.lhs and "140" in v.rhs


def test_binomial_sum_sweep():
    for r, m in [(1, 2), (-1, 2), (2, 3), (3, 4), (-6, 5)]:
        for rho in (1, 2, 3):
            for n in range(1, 15):
                assert verify_binomial_sum(r, m, rho, n).passed, \
                    (r, m, rho, n)


def test_central_binomial_frozen_values():
    v = verify_central_binomial(2, 2)
    assert v.passed and "36" in v.lhs and "12" in v.rhs
    v = verify_central_binomial(2, 3)
    assert v.passed and "900" in v.lhs and "60" in v.rhs
    v = verify_central_binomial(3, 2)
    assert v.passed and "-24" in v.lhs and "24" in v.rhs


def test_central_binomial_domain():
    with pytest.raises(DomainError):
        verify_central_binomial(1, 5)
    with pytest.raises(DomainError):
        verify_central_binomial(2, 1)


def test_structure_identity_frozen():
    v = verify_structure_identity(1, 2, 3)
    assert v.passed and v.lhs == "Phi_5"
    v = verify_structure_identity(-5, 3, 7)
    assert v.passed
    assert v.lhs == "q^-7 * Phi_5 * Phi_10 * Phi_13"


def test_value_identity_frozen():
    v = verify_value_identity(1, 2, 3)
    assert v.passed and v.lhs == "15" and v.rhs == "15"


def test_q_congruence_frozen_polynomials():
    from qcongruence.verifier import _qcong_data
    for key, (shift, cleared, ac, quot) in FROZEN_QCONG.items():
        data = _qcong_data(*key)
        assert data["cleared"].shift == shift, key
        assert list(data["cleared"].base.coeffs) == cleared, key
        assert list(data["AC"].coeffs) == ac, key
        assert data["remainder"].is_zero, key
        H = data["cleared"].base.div_exact(data["AC"])
        assert list(H.coeffs) == quot, key
    for key, (shift, ac, at1) in FROZEN_QCONG_BIG.items():
        data = _qcong_data(*key)
        assert data["cleared"].shift == shift, key
        assert list(data["AC"].coeffs) == ac, key
        assert data["cleared"].base.evaluate(1) == at1, key


def test_q_congruence_cached_result_is_read_only():
    from qcongruence.verifier import _qcong_data
    data = _qcong_data(1, 2, 1, 3)
    with pytest.raises(TypeError):
        data["cleared"] = None
    assert _qcong_data(1, 2, 1, 3)["remainder"].is_zero


def test_q_congruence_verdict_and_digest():
    v = verify_q_congruence(1, 2, 1, 3)
    assert v.passed
    assert "'degree': 9" in v.lhs and "'shift': -8" in v.lhs
    assert "'at1': 15" in v.rhs
    full = verify_q_congruence(1, 2, 1, 3, full_polys=True)
    assert "[1, 2, 3, 4, 5, 5, 4, 3, 2, 1]" in full.lhs
    assert "Phi" in full.rhs


def test_specialization_consistency():
    for key in [(1, 2, 1, 3), (-1, 2, 1, 2), (2, 3, 2, 3), (1, 2, 2, 4)]:
        assert verify_q_congruence(*key).passed, key
        assert verify_specialization_at_one(*key).passed, key


@pytest.mark.parametrize("key", [(-1, 2, 3, 33), (-5, 2, 3, 31),
                                 (-3, 2, 3, 40), (-4, 3, 3, 31),
                                 (-2, 3, 1, 38), (-3, 4, 1, 34)])
def test_q_congruence_beyond_criterion_6(key):
    # rho = 3, negative r and n in 31..40: outside the acceptance grid
    assert verify_q_congruence(*key).passed, key
    assert verify_specialization_at_one(*key).passed, key


# Failure witnesses of the q-congruence, pinned before the A*C test was
# settled by one remainder. Nothing in the package fails on real inputs, so
# each case breaks one ingredient, and clears the one-entry cache and the
# resume state around it, so the broken build starts from empty and no later
# build resumes from it.
@pytest.fixture
def fresh_qcong_cache():
    verifier.reset_qcong()
    yield
    verifier.reset_qcong()


def test_q_congruence_witness_when_ac_does_not_divide(monkeypatch,
                                                      fresh_qcong_cache):
    c_poly = verifier.c_poly
    monkeypatch.setattr(verifier, "c_poly", lambda m, n: c_poly(m, n)
                        * FactoredQ(1, 0, {7: 1}))
    v = verify_q_congruence(1, 2, 1, 3)
    assert not v.passed
    assert v.witness == {
        "nonintegral_term": None,
        "remainder_digest": {"degree": 9, "content": 1, "at1": 30,
                             "at2": 1953}}
    w = verify_specialization_at_one(1, 2, 1, 3)
    assert not w.passed
    assert w.witness == {
        "cleared_at_1": 30, "b_at_1": "16", "scaled_sum": "15/8",
        "value_match": True, "value_identity": False, "content_one": True,
        "b_prime_support_divides_m": True, "quotient_at_1": False,
        "agrees_with_binomsum": False}


def _refuse_h4(cs, h, e=1, div_binom=verifier.div_binom):
    if h == 4:
        raise NotDivisible("forced at h = 4")
    return div_binom(cs, h, e)


def test_q_congruence_witness_for_a_nonintegral_summand(monkeypatch,
                                                        fresh_qcong_cache):
    monkeypatch.setattr(verifier, "div_binom", _refuse_h4)
    v = verify_q_congruence(1, 2, 1, 5)
    assert not v.passed
    assert v.witness == {
        "nonintegral_term": 2,
        "remainder_digest": {"degree": 16, "content": 1, "at1": -69,
                             "at2": 95053}}
    w = verify_specialization_at_one(1, 2, 1, 5)
    assert not w.passed
    assert w.witness == {
        "cleared_at_1": -384, "b_at_1": "256", "scaled_sum": "315/128",
        "value_match": False, "value_identity": True, "content_one": True,
        "b_prime_support_divides_m": True, "quotient_at_1": False,
        "agrees_with_binomsum": False}


def test_one_b_poly_per_q_congruence_instance(monkeypatch,
                                              fresh_qcong_cache):
    calls = []
    b_poly = verifier.b_poly

    def counting(*args):
        calls.append(args)
        return b_poly(*args)

    monkeypatch.setattr(verifier, "b_poly", counting)
    assert verify_q_congruence(1, 2, 2, 4).passed
    assert verify_specialization_at_one(1, 2, 2, 4).passed
    assert calls == [(2, 4)]
    assert "b_at_one" not in verifier._qcong_data(1, 2, 2, 4)


def test_no_resume_from_a_nonintegral_build(monkeypatch, fresh_qcong_cache):
    want = verifier._cleared_sum(1, 2, 1, 6)
    verifier.reset_qcong()
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "div_binom", _refuse_h4)
        assert verifier._cleared_sum(1, 2, 1, 5)[1] == 2
    assert verifier._cleared_sum(1, 2, 1, 6) == want


def test_two_adic_frozen():
    v = verify_two_adic_bounds(2, 6)
    assert v.passed
    assert "3" in v.lhs  # ord_2(6 * binom(12, 6)) = ord_2(5544) = 3
    assert (6 * math.comb(12, 6)) % 16 != 0
    assert (6 * math.comb(12, 6)) % 8 == 0


def test_two_adic_sweep():
    for rho in (2, 3, 4):
        for n in range(2, 40):
            assert verify_two_adic_bounds(rho, n).passed, (rho, n)


def test_sun_conjecture_spot():
    v = verify_sun_conjecture(2)
    assert v.passed
    assert "-120" in v.lhs and "12" in v.rhs


def test_sun_conjecture_small_sweep():
    for n in range(2, 30):
        assert verify_sun_conjecture(n).passed, n
