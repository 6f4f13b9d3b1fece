"""Each claim's domain: every verify_* and check_* raises DomainError exactly
outside its rule and returns a passing result inside it.

The rules are restated here from the paper's hypotheses (alpha = r/m with
m >= 2 and gcd(r, m) = 1; rho, n >= 2 for the central sum), not read from
the library's table, so a drifted table fails these tests.
"""

import itertools
import math

import pytest

from qcongruence import cycmodfield, verifier
from qcongruence.exceptions import DomainError

BOX = {"r": range(-4, 5), "m": range(0, 6), "rho": range(-1, 4),
       "n": range(0, 5), "d": range(1, 7), "s": range(-1, 3),
       "t": range(-1, 7), "h": range(0, 3)}


def pair(r, m):
    return m >= 2 and math.gcd(r, m) == 1


def modulus(r, m, d):
    return pair(r, m) and d >= 2 and math.gcd(d, m) == 1


def pair_rho_n(r, m, rho, n):
    return pair(r, m) and rho >= 1 and n >= 1


# function, its parameter names, its domain
CASES = [
    (verifier.verify_binomial_sum, "r m rho n", pair_rho_n),
    (verifier.verify_q_congruence, "r m rho n", pair_rho_n),
    (verifier.verify_specialization_at_one, "r m rho n", pair_rho_n),
    (verifier.verify_central_binomial, "rho n",
     lambda rho, n: rho >= 2 and n >= 2),
    (verifier.verify_two_adic_bounds, "rho n",
     lambda rho, n: rho >= 1 and n >= 2),
    (verifier.verify_structure_identity, "r m n",
     lambda r, m, n: pair(r, m) and n >= 1),
    (verifier.verify_value_identity, "r m n",
     lambda r, m, n: pair(r, m) and n >= 1),
    (verifier.verify_sun_conjecture, "n", lambda n: n >= 2),
    (cycmodfield.check_block_constant, "r m d", modulus),
    (cycmodfield.check_qbinom_reduction, "r m d", modulus),
    (cycmodfield.check_block_decomposition, "r m d s t",
     lambda r, m, d, s, t: modulus(r, m, d) and s >= 0 and 0 <= t < d),
    (cycmodfield.check_block_sum, "r m rho d",
     lambda r, m, rho, d: modulus(r, m, d) and rho >= 1),
    (cycmodfield.check_mu_consistency, "r m rho d s t",
     lambda r, m, rho, d, s, t: (modulus(r, m, d) and rho >= 1 and s >= 0
                                 and 0 <= t < d)),
    (cycmodfield.check_sign_reduction, "m d s h",
     lambda m, d, s, h: d >= 2 and math.gcd(m, d) == 1 and s >= 0),
]


@pytest.mark.parametrize("fn,names,rule", CASES,
                         ids=[fn.__name__ for fn, _, _ in CASES])
def test_domain_error_exactly_outside_the_rule(fn, names, rule):
    inside = outside = 0
    for args in itertools.product(*(BOX[name] for name in names.split())):
        if rule(*args):
            inside += 1
            assert fn(*args), (fn.__name__, args)
        else:
            outside += 1
            with pytest.raises(DomainError):
                fn(*args)
    assert inside and outside


@pytest.mark.parametrize("fn,args", [
    pytest.param(verifier.verify_structure_identity, (0, 1, 3),
                 id="structure-m1-was-a-false-fail"),
    pytest.param(verifier.verify_value_identity, (2, 4, 3),
                 id="value-gcd2-was-a-pass-outside-the-theorem"),
    pytest.param(verifier.verify_two_adic_bounds, (0, 4),
                 id="2adic-rho0-was-a-false-fail"),
    pytest.param(verifier.verify_two_adic_bounds, (-1, 5),
                 id="2adic-negative-rho-was-a-type-error"),
])
def test_former_domain_drift_raises_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)
