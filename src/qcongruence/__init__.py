"""
Exact arithmetic for cyclotomic factorizations of q-Pochhammer ratios and
for divisibility of the binomial sums they specialize to at q = 1.

The package is organized bottom-up:

  bigpoly     dense integer polynomials; LaurentInt, a normalised
              (base, shift) value with a product only; the 1 - q^h kernel
  cyclotomic  Phi_d, Euler phi, divisors, q-integers
  qseries     factored products of cyclotomics; Pochhammer symbols
  constructs  the named objects A, B, C, N and the index set S, and the
              Pochhammer pairs behind every binom(-r/m, k)
  cycmodfield folded per-modulus checks mod Phi_d
  verifier    claim-level verdicts over exact integers and polynomials
  cli         `qcongruence show ...` and `qcongruence verify ...`
"""

from .bigpoly import IntPoly, LaurentInt
from .constructs import (a_poly, b_poly, c_poly, expand_product,
                         lambda_residue, n_alpha, negative_tail, pair_ok,
                         s_set)
from .cyclotomic import divisors, euler_phi, phi, phi_at_one, q_int
from .cycmodfield import (FoldedRatio, check_block_constant,
                          check_block_decomposition, check_block_sum,
                          check_mu_consistency, check_qbinom_reduction,
                          check_sign_reduction, folded_equal)
from .exceptions import DomainError, NotDivisible
from .qseries import FactoredQ, pochhammer, poch_ratio
from .verifier import (Verdict, poly_digest, verify_binomial_sum,
                       verify_central_binomial, verify_q_congruence,
                       verify_specialization_at_one,
                       verify_structure_identity, verify_sun_conjecture,
                       verify_two_adic_bounds, verify_value_identity)

__version__ = "0.1.0"

__all__ = [
    "IntPoly", "LaurentInt",
    "a_poly", "b_poly", "c_poly", "expand_product",
    "lambda_residue", "n_alpha", "negative_tail", "pair_ok", "s_set",
    "divisors", "euler_phi", "phi", "phi_at_one", "q_int",
    "FoldedRatio", "check_block_constant",
    "check_block_decomposition", "check_block_sum", "check_mu_consistency",
    "check_qbinom_reduction", "check_sign_reduction", "folded_equal",
    "DomainError", "NotDivisible",
    "FactoredQ", "pochhammer", "poch_ratio",
    "Verdict", "poly_digest", "verify_binomial_sum",
    "verify_central_binomial", "verify_q_congruence",
    "verify_specialization_at_one", "verify_structure_identity",
    "verify_sun_conjecture", "verify_two_adic_bounds",
    "verify_value_identity",
]
