"""Shooting: bracket discovery, Brent convergence, and solution posts."""
from fractions import Fraction as F

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from hext import (
    admissible_C_max,
    coeffs_from_C,
    integrate_v,
    reconstruct_curve,
    residual_check,
    shoot,
)
from hext.errors import NoBracket, StepFailure
from hext.profile_ode.coeffs import EPS_FLOOR
from hext.profile_ode.integrate import DEFAULT_CONFIG, _csv, _integrate

# C* from 30-digit mpmath shooting, independent of hext: the c_star_ref
# table that perfbench/make_reference.py writes to perfbench/reference.json
C_STAR_REF = {
    1: 4.126269829713513,
    2: 2.887105996252412,
    3: 2.5075511798715646,
    4: 2.3333414347427235,
    5: 2.2371370935797725,
    6: 2.177875481997457,
    7: 2.1385968007529557,
    8: 2.1111469195527324,
}


def test_m1_solution(shot_m1):
    res = shot_m1
    assert 2 < res.c_star < 22 / 3
    assert abs(res.defect) < 1e-8
    assert abs(res.trajectory.v[-1] - 8.0) < 1e-8
    assert res.iterations <= 60
    assert res.trajectory.interior_positive()
    # Neumann condition comes for free once the Dirichlet target is met
    assert abs(res.trajectory.phi[-1]) < 1e-8
    assert abs(res.phi_prime_end + 1.0) < 1e-5
    assert residual_check(res.trajectory) < 1e-6


def test_m1_not_hcsck_witness(shot_m1):
    res = shot_m1
    assert abs(res.a_slope) > 1e-3
    assert res.not_hcsck
    # slope agrees with the exact affine map at C*
    exact = float(coeffs_from_C(1, F(res.c_star)).A)
    assert res.a_slope == exact


def test_m1_bracket_edges(shot_m1):
    lo, hi = shot_m1.bracket
    assert -50 <= lo < hi
    assert lo < shot_m1.c_star < hi


def test_interior_positivity_equivalence(shot_m1):
    t = shot_m1.trajectory
    g = t.grid[1:-1]
    assert np.all(t.phi[1:-1] > 0)
    assert np.all(t.v[1:-1] > 2.0 * g * g)


@pytest.mark.parametrize("m", [2, 3])
def test_higher_m_roots_found(m):
    res = shoot(m)
    assert abs(res.defect) < 1e-8
    assert res.trajectory.interior_positive()
    assert abs(res.phi_prime_end + 1.0) < 1e-5
    assert abs(res.a_slope) > 1e-3  # still not hcscK


def test_no_bracket_raises_with_scan():
    # restrict the window to the all-negative-defect side
    with pytest.raises(NoBracket) as info:
        shoot(1, c_min=7.8, c_max=8.0)
    assert info.value.scan is not None
    assert all(p.defect is None or p.defect < 0 for p in info.value.scan.points)


@pytest.mark.parametrize("m", sorted(C_STAR_REF))
def test_c_star_matches_mpmath_reference(m):
    # m >= 4 has its root beyond the eps-floor window: the upward extension
    res = shoot(m)
    assert abs(res.c_star - C_STAR_REF[m]) < 1e-6
    assert abs(res.defect) < 1e-8
    assert res.bracket[0] < res.c_star < res.bracket[1]
    assert res.not_hcsck


def test_not_hcsck_is_the_exact_side_of_c_h():
    # A* = 5.2e-4 at m = 32, under the old float threshold |A| > 1e-3; the
    # exact comparison C* > C_h = 2 + 4/((m+1)^2 - 1) decides it
    res = shoot(32)
    c_h = 2 + F(4, 33 ** 2 - 1)
    assert 0 < res.a_slope < 1e-3 and F(res.c_star) > c_h
    assert res.not_hcsck


def test_upward_extension_matches_per_point_solves():
    # for m >= 3 the root lies past the eps-floor window; the extension's
    # batched points must agree with one full-accuracy solve per C and stop
    # at the first non-positive defect
    for m in (4, 8):
        ext = shoot(m).scan.points[64:]
        assert ext and ext[-1].defect <= 0
        assert all(p.defect > 0 for p in ext[:-1])
        for p in ext:
            assert abs(p.defect - integrate_v(m, p.c).defect) < 1e-8


@pytest.mark.parametrize("m", sorted(C_STAR_REF))
def test_one_batched_solve_then_scalar_solves(m, monkeypatch):
    # the 64-point scan and the first 8 points of the upward extension are
    # one batch, which also gives Brent's method its edge values; after it
    # come Brent's scalar solves and the dense one at c_star
    sizes = []

    def counted(rhs, t_span, y0, **kwargs):
        sizes.append(len(y0))
        return solve_ivp(rhs, t_span, y0, **kwargs)

    monkeypatch.setattr("hext.profile_ode.integrate.solve_ivp", counted)
    res = shoot(m)
    assert sizes == [64 + 8] + [1] * (res.iterations + 1)


@pytest.mark.parametrize("m", [1, 2])
def test_root_on_a_scan_point_is_confirmed_by_a_scalar_solve(m):
    # window point 40 placed on C*: its batched defect is inside the
    # tolerance, so that bracket edge is returned after one scalar solve
    # (for m >= 3 the root lies past the window, out of c_min's reach)
    c_hi = float(admissible_C_max(m, EPS_FLOOR))
    c_min = (63 * C_STAR_REF[m] - 40 * c_hi) / 23
    assert abs(np.linspace(c_min, c_hi, 64)[40] - C_STAR_REF[m]) < 1e-12
    res = shoot(m, c_min=c_min)
    assert res.c_star in res.bracket and res.iterations == 1
    assert abs(res.defect) < 1e-8
    assert abs(res.c_star - C_STAR_REF[m]) < 1e-6
    assert res.trajectory.v.tobytes() == integrate_v(m, res.c_star).v.tobytes()


def test_bracket_narrower_than_xtol_takes_one_solve():
    # Brent's method returns such a bracket without a solve of its own; the
    # one scalar solve misses a tolerance this tight, which is reported
    c = C_STAR_REF[1]
    with pytest.raises(StepFailure, match="m=1 .* after 1 solves"):
        shoot(1, defect_tol=1e-14, c_min=c - 1e-11, c_max=c + 1e-11)


@pytest.fixture(scope="module")
def shots():
    return {m: shoot(m) for m in (1, 4, 8)}


@pytest.mark.parametrize("m", [1, 4, 8])
def test_trajectory_is_one_dense_solve_at_c_star(shots, m):
    # Brent's solves read only the endpoint; dense output is built once, at
    # c_star, and leaves the solver's steps as they are
    res = shots[m]
    assert res.trajectory.v.tobytes() == integrate_v(m, res.c_star).v.tobytes()
    assert res.defect == res.trajectory.defect
    _, endpoint_only = _integrate(m, res.c_star, DEFAULT_CONFIG, dense_output=False)
    _, dense = _integrate(m, res.c_star, DEFAULT_CONFIG, dense_output=True)
    assert endpoint_only.t.tobytes() == dense.t.tobytes()
    assert endpoint_only.y.tobytes() == dense.y.tobytes()
    assert endpoint_only.y[0, -1] == res.trajectory.v[-1]


def _csv_per_value(header, cols):
    # the per-value formatting that _csv replaced: the reference it must match
    lines = [header]
    for row in zip(*cols):
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", [1, 8])
def test_csv_artifacts_match_per_value_formatting(shots, m):
    t = shots[m].trajectory
    cols = (t.grid, t.v, t.phi, t.phi_prime, t.lambda_values)
    assert t.to_csv() == _csv_per_value("gamma,v,phi,phi_prime,lambda", cols)
    curve = reconstruct_curve(t)
    cols = (curve.gamma, curve.tau, curve.s, curve.phi)
    assert curve.to_csv() == _csv_per_value("gamma,tau,s,phi", cols)


def test_csv_formats_edge_values_like_per_value_formatting():
    col = np.array([-0.0, 5e-324, 1e300, 1 / 3])
    cols = (col, col[::-1])
    assert _csv("a,b", cols) == _csv_per_value("a,b", cols)
    assert _csv("a,b", cols).split("\n")[1] == "-0,0.33333333333333331"
