"""Exact coefficient algebra: boundary identities, the L/N split, and the C
window L*C + N >= -2 + eps of the m = 1 certificate's condition."""
import random
from fractions import Fraction as F

import pytest

from hext import (
    CoeffSet,
    InvalidInput,
    coeffs_from_C,
    compute_LN,
    hcsck_coeffs,
)
from hext import ratpoly as rp
from hext.profile_ode.coeffs import _linear_maps

from conftest import c_top


def _solve_2x2(m, C):
    """Independent oracle: Cramer's rule on the two boundary constraints."""
    s = m + 1
    # (A/3) * x + (B/2) * y with x,y the gamma powers
    a11, a12, b1 = F(1), F(1), 2 - C
    a21, a22, b2 = F(s ** 3), F(s ** 2), -2 - C
    det = a11 * a22 - a12 * a21
    u = (b1 * a22 - a12 * b2) / det
    w = (a11 * b2 - b1 * a21) / det
    return 3 * u, 2 * w


def test_certificate_coefficients_m1():
    cs = coeffs_from_C(1, F(22, 3))
    assert (cs.A, cs.B) == (9, F(-50, 3))


def test_probe_value_m1():
    cs = coeffs_from_C(1, 2)
    assert (cs.A, cs.B) == (-3, 2)


def test_boundary_identities_random():
    rng = random.Random(42)
    for _ in range(50):
        m = rng.randint(1, 12)
        C = F(rng.randint(-4000, 4000), rng.randint(1, 100))
        cs = coeffs_from_C(m, C)
        assert cs.A / 3 + cs.B / 2 + cs.C == 2
        s = m + 1
        assert cs.A * s ** 3 / 3 + cs.B * s ** 2 / 2 + cs.C == -2
        assert (cs.A, cs.B) == _solve_2x2(m, C)


def test_linear_maps_are_computed_once_per_m():
    # every solve calls coeffs_from_C; the maps behind it are built once per m
    _linear_maps.cache_clear()
    for c in (2, F(22, 3), -5.5):
        coeffs_from_C(3, c)
    info = _linear_maps.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert _linear_maps(3) == _solve_2x2_maps(3)


def _solve_2x2_maps(m):
    """a1, a0, b1, b0 from the Cramer oracle at C = 0 and C = 1."""
    (a0, b0), (a_1, b_1) = _solve_2x2(m, F(0)), _solve_2x2(m, F(1))
    return a_1 - a0, a0, b_1 - b0, b0


def test_coeffset_rejects_inconsistent():
    with pytest.raises(ValueError):
        CoeffSet(m=1, C=F(22, 3), A=F(9), B=F(50, 3))


def test_m_zero_rejected():
    with pytest.raises(InvalidInput, match="the class index m must be an integer >= 1"):
        compute_LN(0)
    with pytest.raises(ValueError):
        coeffs_from_C(0, 2)


def test_coeffset_polynomial_invariants():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(1, 8)
        C = F(rng.randint(-300, 300), rng.randint(1, 40))
        cs = coeffs_from_C(m, C)
        assert rp.eval_at(cs.p, 1) == 2
        assert rp.eval_at(cs.p, m + 1) == -2
        assert rp.eval_at(cs.P, 1) == 0
        ln = compute_LN(m)
        assert rp.eval_at(cs.P, m + 1) == ln.lc_plus_n(C)


def test_LN_m1_values():
    ln = compute_LN(1)
    assert ln.L == F(-33, 80)
    assert ln.N == F(11, 8)
    assert ln.lc_plus_n(F(22, 3)) == F(-33, 20)
    assert 2 * ln.L + ln.N == F(11, 20)


def _LN_via_expanded_products(m):
    """Independent algebraic route: the split before collecting powers."""
    mm = F(m)
    s2 = F((m + 1) ** 2)
    s4 = F((m + 1) ** 4)
    s5 = F((m + 1) ** 5)
    L = (
        (s2 - 1) / 2
        - (s4 - 1) / 4 * (1 + 1 / mm - 1 / (mm * s2))
        + (s5 - 1) / (5 * mm) * (1 - 1 / s2)
    )
    N = -(s5 - 1) * F(2) / (5 * mm) * (1 + 1 / s2) + (s4 - 1) / 2 * (
        1 + 1 / mm + 1 / (mm * s2)
    )
    return L, N


def _LN_via_collected_powers(m):
    mm = F(m)
    s2 = F((m + 1) ** 2)
    s4 = F((m + 1) ** 4)
    L = 3 * s2 / 10 - s4 / 20 - F(1, 4) - (s4 - 1) / (20 * mm) * (1 - 1 / s2)
    N = s4 / 10 - F(1, 2) - 2 * s2 / 5 + (s4 - 1) / (10 * mm) * (1 + 1 / s2)
    return L, N


def test_LN_three_routes_and_sign_invariants():
    for m in range(1, 31):
        ln = compute_LN(m)
        assert (ln.L, ln.N) == _LN_via_expanded_products(m)
        assert (ln.L, ln.N) == _LN_via_collected_powers(m)
        assert ln.L < 0
        assert ln.N > 0
        assert 2 * ln.L + ln.N > F(2, 5)
        # the delta-shift identity behind the m=1 certificate construction
        assert 2 * ln.L + ln.N == -4 * ln.L / ((m + 1) ** 2 - 1)


def test_two_L_plus_N_closed_form():
    for m in range(1, 20):
        ln = compute_LN(m)
        s = F(m + 1)
        expected = s ** 2 / 5 - F(4, 5) + s / 5 + 1 / (5 * s) + 1 / (5 * s ** 2)
        assert 2 * ln.L + ln.N == expected


def test_admissible_C_max():
    assert c_top(1, 0) == F(90, 11)
    # C = 22/3 sits inside the admissible window
    ln = compute_LN(1)
    assert ln.lc_plus_n(F(22, 3)) > -2
    assert F(22, 3) < c_top(1, 0)
    # C <= 2 is admissible for every m (integral stays positive there)
    for m in range(1, 11):
        ln = compute_LN(m)
        assert ln.lc_plus_n(2) > F(2, 5)
        assert 2 < c_top(m, F(2, 5))


def test_C_below_max_is_admissible():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 10)
        eps = F(rng.randint(1, 100), 100)
        cmax = c_top(m, eps)
        c = cmax - F(rng.randint(0, 500), 100)
        assert compute_LN(m).lc_plus_n(c) >= -2 + eps


def test_hcsck_coeffs():
    cs = hcsck_coeffs(1)
    assert cs.A == 0
    assert cs.B == F(-8, 3)
    assert cs.C == F(10, 3)
    for m in range(1, 51):
        cs = hcsck_coeffs(m)
        assert cs.A == 0
        assert compute_LN(m).lc_plus_n(cs.C) == 0


def test_hcsck_C_is_the_closed_form_of_the_readme():
    # hcsck_coeffs derives C_h as the root of A(C); the README's closed form
    # is the independent oracle
    for m in range(1, 51):
        assert hcsck_coeffs(m).C == 2 + F(4, (m + 1) ** 2 - 1)


def test_dp_dc_factors_with_its_roots_at_the_ends():
    """dp/dC = a1*g^3/3 + b1*g^2/2 + 1 equals
    ((m+2)/(m+1)^2)(g - 1)(g - m - 1)(g + (m+1)/(m+2)): its two roots in
    [1, m+1] are the ends, so it keeps one sign inside and the defect is
    monotone in C."""
    for m in range(1, 51):
        a1, _, b1, _ = _linear_maps(m)
        dp_dc = rp.poly([1, 0, b1 / 2, a1 / 3])
        factors = [rp.poly([-1, 1]), rp.poly([-(m + 1), 1]), rp.poly([F(m + 1, m + 2), 1])]
        product = rp.mul(rp.mul(factors[0], factors[1]), factors[2])
        assert dp_dc == rp.scale(product, F(m + 2, (m + 1) ** 2)), m


def test_root_uniqueness_by_sturm():
    """p from any valid coefficient set has exactly one root in [1, m+1]."""
    rng = random.Random(20260810)
    for _ in range(60):
        m = rng.randint(1, 10)
        C = F(rng.randint(-5000, 5000), rng.randint(1, 100))
        p = coeffs_from_C(m, C).p
        assert rp.count_roots(p, F(1), F(m + 1)) == 1
        # at most one critical point of p inside the interval
        crit = rp.count_roots(rp.derivative(p), F(1), F(m + 1))
        assert crit <= 1
