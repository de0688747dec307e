"""The exact m = 1 certificate.

Every step of the m = 1 existence argument that can be stated as a rational
inequality is checked here in exact arithmetic.  Two claims genuinely need
more than field operations (locating the root of p and bounding the minimum
of q); those carry certified interval bounds instead: Sturm-counted
isolating intervals of rational width, and interval enclosures of q over
them.  Square roots in the two-step upper bound are replaced by certified
rational upper bounds, which is sound because the bound is monotone in them.

The chain, in order:

  1.  L = -33/80 and N = 11/8.
  2.  delta' = -33/(20 L) = 4, hence C = C_h + delta' = 22/3 (A = 0 at C_h = 10/3).
  3.  L*C + N = -33/20 at that C.
  4.  A = 9, B = -50/3, and q(gamma) = 3 g^4 - (25/3) g^3 + (22/3) g.
  5.  The unique root gamma_0 of p on [1, 2] lies in (1.2, 1.3):
      p(6/5) > 0 > p(13/10), plus a width-1e-6 isolating interval.
  6.  min q on [1, 2] > -9/2, so v' stays positive past gamma_0
      (v'(gamma_0) >= 4*gamma_0 > 24/5 and 24/5 - 9/2 = 3/10 > 0).
  7.  Two applications of the step bound with h = 1/2 give v(2) <= 15/2 < 8.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .. import ratpoly
from .coeffs import coeffs_from_C, compute_LN, hcsck_coeffs

# steps 5-7's thresholds, each read by every claim that rests on it
_G0_LO, _G0_HI, _Q_FLOOR = Fraction(6, 5), Fraction(13, 10), Fraction(-9, 2)
_V2_CEILING = Fraction(15, 2)

_CMP = {"==": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Claim:
    id: str
    lhs: Fraction
    cmp: str
    rhs: Fraction
    passed = property(lambda self: _CMP[self.cmp](self.lhs, self.rhs))


@dataclass
class CertificateM1:
    """Ordered claim list plus the certified intermediates behind it."""

    claims: List[Claim]
    details: Dict[str, Fraction]

    def first_failed(self) -> Optional[str]:
        return next((c.id for c in self.claims if not c.passed), None)

    def claim(self, cid: str) -> Claim:
        """The claim named cid (ids are unique); KeyError if there is none."""
        return {c.id: c for c in self.claims}[cid]


def _step_upper(v_a: Fraction, delta_P: Fraction, h: Fraction) -> Fraction:
    """Certified upper bound for v(a + h) given v(a) <= v_a.

    From the monotone step inequality
        v(a+h) <= 4h^2 + v(a) + dP + 2h*sqrt(4h^2 + 2(v(a) + dP)),
    with the square root replaced by a rational upper bound.  Monotone in
    v_a, so chaining upper bounds stays an upper bound.
    """
    radicand = 4 * h * h + 2 * (v_a + delta_P)
    if radicand < 0:
        raise ValueError("step bound radicand must be nonnegative")
    return 4 * h * h + v_a + delta_P + 2 * h * ratpoly.sqrt_upper(radicand)


def certify_m1() -> CertificateM1:
    """Build and check the full m = 1 certificate.

    A failed claim is returned, not raised: first_failed() names it.  If p
    has other than one root on [1, 2], the certificate ends at its failed
    gamma0_unique claim.
    """
    m = 1
    claims: List[Claim] = []
    details: Dict[str, Fraction] = {}
    width = Fraction(1, 10 ** 6)  # of every Sturm-isolated interval

    ln = compute_LN(m)
    claims.append(Claim("L_value", ln.L, "==", Fraction(-33, 80)))
    claims.append(Claim("N_value", ln.N, "==", Fraction(11, 8)))

    delta_prime = Fraction(-33, 20) / ln.L
    claims.append(Claim("delta_prime", delta_prime, "==", Fraction(4)))

    C = hcsck_coeffs(m).C + delta_prime
    claims.append(Claim("C_value", C, "==", Fraction(22, 3)))
    claims.append(Claim("LCplusN", ln.lc_plus_n(C), "==", Fraction(-33, 20)))

    cs = coeffs_from_C(m, C)
    claims.append(Claim("A_value", cs.A, "==", Fraction(9)))
    claims.append(Claim("B_value", cs.B, "==", Fraction(-50, 3)))

    p, q = cs.p, cs.q
    expected_q = ratpoly.poly([0, Fraction(22, 3), 0, Fraction(-25, 3), 3])
    q_diff = sum(abs(c) for c in ratpoly.sub(q, expected_q))
    claims.append(Claim("q_polynomial", Fraction(q_diff), "==", Fraction(0)))

    # root bracketing of p on [1, 2]
    p_lo = ratpoly.eval_at(p, _G0_LO)
    p_hi = ratpoly.eval_at(p, _G0_HI)
    claims.append(Claim("p_sign_at_6_5", p_lo, ">", Fraction(0)))
    claims.append(Claim("p_sign_at_13_10", p_hi, "<", Fraction(0)))
    # one Sturm-isolated interval per root: the count and gamma_0's interval
    intervals = ratpoly.isolate_roots(p, Fraction(1), Fraction(2), width)
    claims.append(Claim("gamma0_unique", Fraction(len(intervals)), "==", Fraction(1)))
    if len(intervals) != 1:
        return CertificateM1(claims, details)
    g0_lo, g0_hi = intervals[0]
    details["gamma0_lo"] = g0_lo
    details["gamma0_hi"] = g0_hi
    claims.append(Claim("gamma0_above_1_2", g0_lo, ">", _G0_LO))
    claims.append(Claim("gamma0_below_1_3", g0_hi, "<", _G0_HI))

    # certified minimum of q over [1, 2]: interval enclosures at the isolated
    # critical points plus exact endpoint values
    q_prime = ratpoly.derivative(q)
    lower_bounds = [ratpoly.eval_at(q, 1), ratpoly.eval_at(q, 2)]
    for lo, hi in ratpoly.isolate_roots(q_prime, Fraction(1), Fraction(2), width):
        enc_lo, _ = ratpoly.interval_eval(q, lo, hi)
        lower_bounds.append(enc_lo)
    q_min_bound = min(lower_bounds)
    details["q_min_lower_bound"] = q_min_bound
    claims.append(Claim("q_min_bound", q_min_bound, ">", _Q_FLOOR))

    # v'(gamma_0) = 2*sqrt(2)*sqrt(v(gamma_0)) >= 4*gamma_0 > 4*(6/5) = 24/5,
    # and past the root v' > 24/5 + min q > 24/5 - 9/2
    claims.append(Claim("v_prime_floor", 4 * _G0_LO + _Q_FLOOR, ">", Fraction(0)))

    # two-step upper bound with h = 1/2, exact P increments
    h = Fraction(1, 2)
    P = cs.P
    P_15 = ratpoly.eval_at(P, Fraction(3, 2))
    P_2 = ratpoly.eval_at(P, 2)
    details["P_at_3_2"] = P_15
    details["P_at_2"] = P_2
    u1 = _step_upper(Fraction(2), P_15, h)
    details["upper_at_3_2"] = u1
    u2 = _step_upper(u1, P_2 - P_15, h)
    details["upper_at_2"] = u2
    claims.append(Claim("v2_upper_bound", u2, "<=", _V2_CEILING))
    claims.append(Claim("v2_below_target", _V2_CEILING, "<", Fraction(2 * (m + 1) ** 2)))

    return CertificateM1(claims=claims, details=details)
