"""Constant-lambda (A = 0) contradiction runs."""
from fractions import Fraction as F

from scipy.integrate import simpson

from hext import compute_LN, hcsck_coeffs, hcsck_nonexistence, integrate_v
from hext import ratpoly as rp

# frozen from converged runs; windows are generous against integrator drift
EXPECTED_MARGINS = {
    1: 0.42245588,
    2: 1.82837477,
    3: 4.26599938,
    4: 7.73472204,
    5: 12.22822348,
}


def test_m1_derived_constants():
    rep = hcsck_nonexistence(1)
    assert rep.coeffs.A == 0
    assert rep.coeffs.B == F(-8, 3)
    assert rep.coeffs.C == F(10, 3)
    assert rep.integral == 0


def test_margins_positive_m1_to_5():
    for m in range(1, 6):
        rep = hcsck_nonexistence(m)
        assert rep.margin > 0
        assert abs(rep.margin - EXPECTED_MARGINS[m]) < 1e-4
        assert rep.target == 2.0 * (m + 1) ** 2
        # exact zero integral of q under the derived A=0 constants
        assert rep.integral == 0
        assert compute_LN(m).lc_plus_n(rep.coeffs.C) == 0


def test_margin_is_twice_the_integral_of_phi_h():
    # F1 at C_h, where L*C_h + N = 0: the margin is 2*int(phi_h), Simpson on
    # the A = 0 trajectory, within 1e-9 (6.4e-11 at most for m = 1..8)
    for m in range(1, 9):
        t = integrate_v(m, hcsck_coeffs(m).C)
        assert abs(hcsck_nonexistence(m).margin - 2.0 * simpson(t.phi, x=t.grid)) < 1e-9


def test_alternative_constants_reported_not_adopted():
    """The alternative constant set fails p(1) = 2 and is echoed verbatim."""
    for m in range(1, 6):
        rep = hcsck_nonexistence(m)
        s1 = F((m + 1) ** 2 - 1)
        assert rep.alt_B == -12 / s1
        assert rep.alt_C == 4 + 8 / s1
        assert rep.alt_integral == 2
        assert rep.alt_satisfies_boundary is False
        assert rep.alt_B / 2 + rep.alt_C != 2
        # the adopted constants do satisfy it
        assert rep.coeffs.B / 2 + rep.coeffs.C == 2


def test_boundary_constraints_exact():
    for m in range(1, 6):
        rep = hcsck_nonexistence(m)
        p = rep.coeffs.p
        assert rp.eval_at(p, 1) == 2
        assert rp.eval_at(p, m + 1) == -2
