"""Integrator contracts: initial condition, certified bounds, positivity,
refinement stability, residuals, and the CSV surface."""
import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from hext import (
    IntegratorConfig,
    Trajectory,
    admissible_C_max,
    coeffs_from_C,
    compute_LN,
    defect_scan,
    integrate_v,
    residual_check,
)
from hext.errors import PositivityLost, StepFailure
from hext.profile_ode.integrate import DEFAULT_CONFIG, SCAN_CONFIG, _solve_defects


def test_initial_condition_exact():
    traj = integrate_v(1, 2)
    assert traj.grid[0] == 1.0
    assert traj.v[0] == 2.0
    assert traj.grid[-1] == 2.0
    assert np.all(np.diff(traj.grid) > 0)


def test_certified_upper_bound_at_22_3():
    # the exact two-step certificate gives v(2) <= 7.5 at C = 22/3
    traj = integrate_v(1, F(22, 3))
    assert traj.v[-1] <= 7.5
    assert traj.defect < 0


def test_positive_defect_probe_at_2():
    traj = integrate_v(1, 2)
    assert traj.defect > 0


def test_independent_integrator_agreement():
    """Cross-check scipy against mpmath's Taylor-series method."""
    mpmath.mp.dps = 25
    cs = coeffs_from_C(1, F(22, 3))
    a, b, c = [mpmath.mpf(x.numerator) / x.denominator for x in (cs.A, cs.B, cs.C)]

    def rhs(g, v):
        return 2 * mpmath.sqrt(2) * mpmath.sqrt(v) + (a / 3 * g ** 3 + b / 2 * g ** 2 + c) * g

    f = mpmath.odefun(rhs, 1, 2, tol=mpmath.mpf(10) ** -18)
    v2 = float(f(2))
    traj = integrate_v(1, F(22, 3))
    assert abs(traj.v[-1] - v2) < 1e-8


def test_positivity_floor_random_admissible():
    rng = random.Random(12345)
    for _ in range(12):
        m = rng.randint(1, 10)
        ln = compute_LN(m)
        cmax = admissible_C_max(m, F(1, 100))
        c = cmax - F(rng.randint(0, 5000), 100)
        traj = integrate_v(m, c)
        floor = 2.0 + min(0.0, float(ln.lc_plus_n(c))) - 1e-6
        assert traj.v.min() >= floor


def test_positivity_lost_for_inadmissible_C():
    with pytest.raises(PositivityLost) as info:
        integrate_v(1, 20.0)
    assert 1.0 < info.value.gamma < 2.0


def test_quadrature_agrees_with_LN_split():
    """Independent quadrature of q equals L*C + N to 1e-10."""
    mpmath.mp.dps = 30
    rng = random.Random(777)
    for _ in range(10):
        m = rng.randint(1, 10)
        ln = compute_LN(m)
        cmax = (F(-2) - ln.N) / ln.L
        c = F(rng.randint(-50000, int(cmax * 1000) - 1), 1000)
        cs = coeffs_from_C(m, c)
        a, b, cc = (float(x) for x in (cs.A, cs.B, cs.C))
        val = mpmath.quad(lambda t: (a / 3 * t ** 3 + b / 2 * t ** 2 + cc) * t, [1, m + 1])
        assert abs(float(val) - float(ln.lc_plus_n(c))) < 1e-10


def test_grid_refinement_stability():
    cfg = IntegratorConfig()
    for m, c in ((1, F(22, 3)), (1, 2), (5, 2), (10, -20)):
        d1 = integrate_v(m, c, cfg).defect
        d2 = integrate_v(m, c, cfg.halved()).defect
        assert abs(d1 - d2) < 10 * cfg.rel_tol


def test_residual_small_and_refinement_invariant():
    cfg = IntegratorConfig()
    traj = integrate_v(1, F(22, 3), cfg)
    r1 = residual_check(traj)
    assert r1 < 1e-6
    r2 = residual_check(integrate_v(1, F(22, 3), cfg.halved()))
    assert abs(r1 - r2) < 1e-6


def test_residual_rejects_garbage_trajectories(shot_m1):
    t = shot_m1.trajectory
    assert residual_check(t) < 1e-6
    # a smooth v with v(1) = 2 that does not solve the equation
    fake = 2.0 * t.grid ** 2 + 0.5 * np.sin(t.grid - 1.0)
    assert residual_check(Trajectory(t.grid, fake, t.meta)) > 1.0
    # the solution itself, with 1e-5 relative noise
    rng = np.random.default_rng(7)
    noisy = t.v * (1.0 + 1e-5 * rng.standard_normal(t.v.size))
    noisy[0] = 2.0
    assert residual_check(Trajectory(t.grid, noisy, t.meta)) > 1e-2


def test_trajectory_samples_uniform_grid():
    traj = integrate_v(3, 2)
    assert traj.grid.size == 1025
    assert np.ptp(np.diff(traj.grid)) < 1e-12
    assert traj.grid[-1] == 4.0


def test_trajectory_rejects_bad_data():
    cs = coeffs_from_C(1, 2)
    grid = np.linspace(1.0, 2.0, 11)
    v = 2.0 * grid ** 2
    # v(1) = 2 holds here, but make one point nonpositive
    bad = v.copy()
    bad[5] = -1.0
    with pytest.raises(ValueError):
        Trajectory(grid, bad, cs)
    # wrong initial value
    bad2 = v.copy()
    bad2[0] = 2.5
    with pytest.raises(ValueError):
        Trajectory(grid, bad2, cs)
    # phi == 0 along v = 2 gamma^2 violates v(1) = 2 only off gamma=1, so
    # the exact-parabola input is a valid Trajectory but not interior-positive
    t = Trajectory(grid, v, cs)
    assert not t.interior_positive()


def test_trajectory_rejects_nan_and_inf():
    # NaN compares False both ways, so "any(v <= 0)" once let these through
    cs = coeffs_from_C(1, 2)
    grid = np.linspace(1.0, 2.0, 11)
    v = 2.0 * grid ** 2
    for name, i, bad in (("v", 5, np.nan), ("v", -1, np.inf), ("grid", 5, np.nan)):
        data = {"grid": grid.copy(), "v": v.copy()}
        data[name][i] = bad
        with pytest.raises(ValueError, match="positive and finite|strictly increasing"):
            Trajectory(data["grid"], data["v"], cs)


def test_trajectory_csv_format():
    traj = integrate_v(1, F(22, 3))
    text = traj.to_csv()
    lines = text.split("\n")
    assert lines[0] == "gamma,v,phi,phi_prime,lambda"
    assert lines[-1] == ""  # trailing LF
    assert "\r" not in text
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "2" and first[2] == "0"
    # phi'(1) = 1 automatically, up to rounding of the thirds in q(1)
    assert abs(float(first[3]) - 1.0) < 1e-12
    a, b, _ = traj.meta.float_abc()
    assert float(first[4]) == a + b
    # round-trip at full precision
    parsed = [float(x) for x in lines[2].split(",")]
    assert parsed[0] == traj.grid[1]
    assert parsed[1] == traj.v[1]


def test_integration_deterministic():
    a = integrate_v(1, F(22, 3)).to_csv()
    b = integrate_v(1, F(22, 3)).to_csv()
    assert a == b


def test_defect_scan_contract():
    scan = defect_scan(1, -50.0, float(admissible_C_max(1, F(1, 100))), 64)
    cs = [p.c for p in scan.points]
    assert cs == sorted(cs)
    assert len(scan.points) == 64
    assert scan.brackets, "expected a sign change for m=1"
    # very negative C: defect bounded below by LC+N + 2 - 2(m+1)^2
    ln = compute_LN(1)
    p0 = scan.points[0]
    assert p0.defect is not None
    assert p0.defect >= float(ln.lc_plus_n(F(-50))) + 2 - 8
    # C = 22/3 sits after the sign change: negative defect side
    lo, hi = scan.brackets[0]
    assert lo < 22 / 3


def test_defect_scan_rejects_inadmissible_top():
    with pytest.raises(ValueError):
        defect_scan(1, 0.0, 9.0, 8)
    with pytest.raises(ValueError):
        defect_scan(1, 5.0, 2.0, 8)


@pytest.mark.parametrize("m", [1, 8])
def test_batched_scan_matches_per_point_solves(m):
    scan = defect_scan(m, -50.0, float(admissible_C_max(m, F(1, 100))), 64)
    for p in scan.points:
        d = integrate_v(m, p.c, SCAN_CONFIG).defect
        assert (p.defect > 0) == (d > 0)
        assert abs(p.defect - d) < 1e-7


@pytest.mark.parametrize("m", [1, 4, 8])
def test_scan_defects_carry_the_full_solve_signs(m):
    # the scan loosens only the tolerances, never the step cap; measured worst
    # case 2.5e-9 from the halved-cap full solve (m = 1..8)
    assert SCAN_CONFIG.max_step_divisor <= DEFAULT_CONFIG.max_step_divisor
    scan = defect_scan(m, -50.0, float(admissible_C_max(m, F(1, 100))), 16)
    for p in scan.points:
        d = integrate_v(m, p.c, DEFAULT_CONFIG.halved()).defect
        assert abs(p.defect - d) < 1e-8
        assert (p.defect > 0) == (d > 0)


def test_batch_positivity_is_per_point():
    # C = 20 is inadmissible for m = 1; its neighbours are not
    cs = np.array([4.0, 20.0, 5.0])
    points = _solve_defects(1, cs, SCAN_CONFIG)
    assert [p.c for p in points] == list(cs)
    assert points[1].defect is None and "floor" in points[1].error
    with pytest.raises(PositivityLost) as info:
        integrate_v(1, 20.0, SCAN_CONFIG)
    assert f"C={info.value.c:.12g}" in points[1].error
    for p in (points[0], points[2]):
        assert p.error is None
        assert abs(p.defect - integrate_v(1, p.c, SCAN_CONFIG).defect) < 1e-7
    # one positivity rule for both solve paths: the same step, the same text
    for m, c in [(1, 20.0), (2, 30.0), (3, 12.5)]:
        for cfg in (DEFAULT_CONFIG, SCAN_CONFIG):
            with pytest.raises(PositivityLost) as info:
                integrate_v(m, c, cfg)
            assert str(info.value) == _solve_defects(m, np.array([c]), cfg)[0].error


def test_batch_solver_failure_is_per_point():
    # v overflows at C = -1e300, which fails the whole solve; the batch is
    # split until the failure is isolated
    with np.errstate(all="ignore"):
        bad, good = _solve_defects(1, np.array([-1e300, 4.0]), SCAN_CONFIG)
    assert bad.defect is None and bad.error.startswith("integration failed")
    assert good.error is None
    assert abs(good.defect - integrate_v(1, 4.0, SCAN_CONFIG).defect) < 1e-7


def test_coefficients_beyond_the_float_range_fail_per_point():
    # the exact A and B of m = 1 at C = -1e308 do not fit a float: a
    # StepFailure naming m and C for a scalar solve, that point's error in a batch
    message = "m=1, C=-1e+308: the coefficients do not fit a float"
    with pytest.raises(StepFailure) as info:
        integrate_v(1, -1e308)
    assert str(info.value) == message
    bad, good = _solve_defects(1, np.array([-1e308, 4.0]), SCAN_CONFIG)
    assert bad.defect is None and bad.error == message
    assert good.error is None
    assert abs(good.defect - integrate_v(1, 4.0, SCAN_CONFIG).defect) < 1e-7
