"""The exponent span of the q-congruence's cleared sum in closed form,
with nothing expanded, compared with verifier._cleared_sum's build.

Summand k is (-1)^{rho k} q^{e_k} [x_k]_q R_k with x_k = 2mk + r, e_k
from summand_twist and R_k = sign * q^{shift_k} * R~_k, where R~_k has
constant term 1 and

    shift_k   = rho * sum_{j<k} min(r + jm, 0)
    deg R~_k  = rho * (deg B + sum_{j<k} |r + jm| - m k(k+1)/2)
    deg B     = sum e * phi(d) over the factors Phi_d^e of b_poly(m, n)

since 1 - q^y = -q^y (1 - q^-y) for y < 0. [x]_q is (1 - q^|x|)/(1 - q),
times -q^x when x < 0, so summand k spans the exponents

    E_k .. E_k + deg R~_k + |x_k| - 1,  E_k = shift_k + e_k + min(x_k, 0).

The cleared sum lies inside min_k E_k .. max_k of the top ends. What the
tests below assert is observed on these instances, not proved:

- the low end min_k E_k is the cleared sum's shift on every instance;
- the top end is exact for every instance with rho >= 2;
- at rho = 1 the top coefficients cancel, so the span is exact only at
  n = 1 and is a strict upper bound for n >= 2.
"""

from qcongruence import verifier
from qcongruence.constructs import b_poly, summand_twist
from qcongruence.cyclotomic import euler_phi

# criterion 6's instances (its pairs, rho 1..2, n 1..30), and rho = 3 at
# n 1..20 for an odd rho above 1; n innermost, so the builds resume
QCONG_PAIRS = [(1, 2), (-1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]
INSTANCES = ([(r, m, rho, n) for r, m in QCONG_PAIRS for rho in (1, 2)
              for n in range(1, 31)]
             + [(r, m, 3, n) for r, m in QCONG_PAIRS for n in range(1, 21)])


def closed_form_span(r, m, rho, n):
    """(low, top): the least and greatest exponent any summand spans."""
    deg_b = sum(e * euler_phi(d) for d, e in b_poly(m, n).factors)
    lows, tops = [], []
    for k in range(n):
        ys = [r + j * m for j in range(k)]
        x = 2 * m * k + r
        low = (rho * sum(min(y, 0) for y in ys)
               + summand_twist(r, m, rho, k)[1] + min(x, 0))
        deg = rho * (deg_b + sum(map(abs, ys)) - m * k * (k + 1) // 2)
        lows.append(low)
        tops.append(low + deg + abs(x) - 1)
    return min(lows), max(tops)


def _spans():
    """instance -> (closed-form span, built span of the cleared sum)."""
    verifier.reset_qcong()
    out = {}
    for inst in INSTANCES:
        cleared, nonintegral_k = verifier._cleared_sum(*inst)
        assert nonintegral_k is None, inst
        built = (cleared.shift, cleared.shift + len(cleared.base.coeffs) - 1)
        out[inst] = closed_form_span(*inst), built
    return out


def test_closed_form_span_matches_the_build():
    spans = _spans()
    assert len(spans) == 480
    for inst, ((low, top), (b_low, b_top)) in spans.items():
        rho, n = inst[2], inst[3]
        assert low == b_low, inst
        if rho >= 2 or n == 1:
            assert top == b_top, inst
        else:
            assert top > b_top, inst
    # the ROADMAP's example of the cancellation at rho = 1: 118 built
    # coefficients inside a span of 250
    (low, top), (b_low, b_top) = spans[(1, 2, 1, 12)]
    assert (b_top - b_low + 1, top - low + 1) == (118, 250)
