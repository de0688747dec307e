"""Integrator contracts: the Taylor recursion against its full sum in
mpmath and, bit for bit, against the loop it is generated from, each scan
point (the recursion on arrays) against its scalar solve (on floats), the
scalar solve against C*_ref and solve_ivp, initial condition, certified
bounds, positivity, refinement stability, residuals, memory, and the CSV
surface."""
import ast
import math
import random
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hext import (
    Trajectory,
    coeffs_from_C,
    compute_LN,
    defect_scan,
    hcsck_coeffs,
    hcsck_nonexistence,
    integrate_v,
    residual_check,
)
from hext.errors import PositivityLost, StepFailure
from hext.profile_ode import integrate
from hext.profile_ode.integrate import ScanPoint, ScanResult, _solve_defects

from conftest import C_STAR_REF, c_top


def _scalar(m, c):
    """integrate_v's outcome at (m, c): defect bytes, lost flag, error text."""
    try:
        return np.float64(integrate_v(m, c).defect).tobytes(), False, None
    except PositivityLost as exc:
        return None, True, str(exc)
    except StepFailure as exc:
        return None, False, str(exc)


def _full_sum(v0, q):
    """_taylor's v_0.._ORDER from the same floats, in 40-digit mpmath, with
    the sum over s_j s_{k-j} taken in full and 2*sqrt(2)/(k+1) exact."""
    with mpmath.workdps(40):
        s, v = [], [mpmath.mpf(v0)]
        for k in range(integrate._ORDER):
            s.append((v[k] - mpmath.fsum(s[j] * s[k - j] for j in range(1, k))) / (2 * s[0]) if k
                     else mpmath.sqrt(v[0]))
            v.append(2 * mpmath.sqrt(2) * s[k] / (k + 1) + (q[k] if k < len(q) else 0))
        return v


def test_taylor_coefficients_against_the_full_sum():
    # the half sum (twice the pairs j < k-j, plus s_{k/2}^2) against the full
    # sum, per coefficient on random nodes (measured 2e-13 at most, as for the
    # full sum in floats), and the array form against the float form, column
    # for column
    rng = random.Random(22)
    nodes = [(10 ** rng.uniform(-8, 6), [rng.uniform(-50, 50) for _ in range(5)]) for _ in range(300)]
    floats = [integrate._taylor(v0, q) for v0, q in nodes]
    worst = max(float(abs(x - r) / abs(r)) for (v0, q), k in zip(nodes, floats)
                for x, r in zip(k, _full_sum(v0, q)))
    assert worst < 1e-12
    v0s, qs = zip(*nodes)
    cols = integrate._taylor(np.array(v0s), list(np.array(qs).T), np.sqrt)
    assert np.array(cols).T.tobytes() == np.array(floats).tobytes()


def _taylor_loop(v0, q, sqrt=math.sqrt):
    """The recursion as a loop over list indices, as _taylor ran before it
    was generated: the reference it must equal bit for bit."""
    rise = integrate._RISE
    s = [sqrt(v0)]
    v = [v0, rise[0] * s[0] + q[0]]
    two_s0 = s[0] + s[0]
    for k in range(1, integrate._ORDER):
        total = v[k]
        if k > 1:
            acc = s[1] * s[k - 1]  # a fresh array, so += updates it in place
            for j in range(2, (k + 1) // 2):
                acc += s[j] * s[k - j]
            if k > 2:  # at k = 2, s_1^2 is the whole sum
                acc += acc
                if k % 2 == 0:
                    acc += s[k // 2] * s[k // 2]
            total = total - acc
        s.append(total / two_s0)
        v.append(rise[k] * s[k] + q[k] if k < len(q) else rise[k] * s[k])
    return v


@pytest.mark.parametrize("width", [None, 1, 2, 64])
def test_generated_taylor_is_the_loop_bit_for_bit(width):
    # floats (width None, 200 nodes) and arrays of one node per column: v0
    # over [1e-8, 1e6], both ends included, q of either sign, some entries
    # +-0.0 and the first column's q_0 and q_4 -0.0 and 0.0
    rng = random.Random(41 if width is None else width)
    size = width or 200
    v0 = [1e-8, 1e6, *(10 ** rng.uniform(-8, 6) for _ in range(size))][:size]
    q = [[rng.choice((0.0, -0.0, 1.0, -1.0, 1.0, -1.0)) * 10 ** rng.uniform(-3, 3) for _ in range(size)]
         for _ in range(5)]
    q[0][0], q[4][0] = -0.0, 0.0
    if width is None:
        got = [integrate._taylor(x, col) for x, col in zip(v0, zip(*q))]
        want = [_taylor_loop(x, col) for x, col in zip(v0, zip(*q))]
    else:
        got = integrate._taylor(np.array(v0), [np.array(x) for x in q], np.sqrt)
        want = _taylor_loop(np.array(v0), [np.array(x) for x in q], np.sqrt)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# (m, C window, points): one workload-style window per m, two windows with
# lost points, two whose C lie above the root (all but the first lost in
# the second), one at C ~ -1e30, which DOP853 failed and the Taylor solve carries,
# one whose solves fail and one whose coefficients do not fit a float
_BATCH_WINDOWS = [(m, -60.0 + 7 * m, float(c_top(m, F(1, 100))) - 0.5, 64) for m in range(1, 9)] + [
    (3, -10.0, 8.0, 64), (8, -10.0, 8.0, 64), (8, 2.2, 2.3, 64), (1, -1e30, -1e29, 64),
    (8, 2.2, 50.0, 256), (1, -1e300, 8.0, 8), (1, -1e308, 4.0, 4)]


@pytest.mark.parametrize("m, lo, hi, n", _BATCH_WINDOWS)
@pytest.mark.parametrize("batch", ["q-grid", "q-rows"])
def test_batch_loop_is_solve_ivp_bit_for_bit(m, lo, hi, n, batch):
    # named for its first reference, solve_ivp's DOP853; each scan point is
    # now its scalar Taylor solve (defect bytes, lost flag, error text), with
    # q taken on every C of the window at once (q-grid) or on one C per batch
    # (q-rows): the batch runs _taylor and the step rule on arrays, each C
    # on its own nodes, and a lost or failed C leaves the others alone
    points = defect_scan(m, lo, hi, n).points
    if batch == "q-rows":
        points = tuple(p for c in np.linspace(lo, hi, n) for p in _solve_defects(m, np.array([c])))
    found = [(None if p.defect is None else np.float64(p.defect).tobytes(), p.lost, p.error)
             for p in points]
    assert found == [_scalar(m, p.c) for p in points]
    if lo <= -1e300:
        assert any(p.error and not p.lost for p in points)


def test_a_batch_stops_when_its_last_column_leaves(monkeypatch):
    # every window's batch expands v only on columns still running
    widths, real_taylor = [], integrate._taylor
    monkeypatch.setattr(integrate, "_taylor",
                        lambda v0, q, sqrt=math.sqrt: widths.append(np.size(v0)) or real_taylor(v0, q, sqrt))
    for window in _BATCH_WINDOWS:
        defect_scan(*window)
    assert widths and min(widths) > 0


# per window, the brackets and the number of lost points, all at the top,
# that the scan gave when it ran on DOP853 solves
_DOP853_SCANS = [
    (1, -10.0, 8.0, 64, [(4.0, 4.285714285714285)], 0),
    (2, -10.0, 8.0, 64, [(2.857142857142856, 3.1428571428571423)], 7),
    (3, -10.0, 8.0, 64, [(2.2857142857142847, 2.571428571428571)], 14),
    (4, -10.0, 8.0, 64, [(2.2857142857142847, 2.571428571428571)], 17),
    (5, -10.0, 8.0, 64, [(2.0, 2.2857142857142847)], 19),
    (6, -10.0, 8.0, 64, [(2.0, 2.2857142857142847)], 19),
    (7, -10.0, 8.0, 64, [(2.0, 2.2857142857142847)], 20),
    (8, -10.0, 8.0, 64, [(2.0, 2.2857142857142847)], 20),
    (8, 2.2, 50.0, 256, [], 255),
]


@pytest.mark.parametrize("m, lo, hi, n, brackets, n_lost", _DOP853_SCANS)
def test_scan_keeps_the_dop853_brackets_and_lost_points(m, lo, hi, n, brackets, n_lost):
    scan = defect_scan(m, lo, hi, n)
    assert scan.brackets == brackets
    assert [p.lost for p in scan.points] == [False] * (n - n_lost) + [True] * n_lost


def test_scan_of_coefficients_that_never_fit_a_float():
    # no C reaches the batch
    points = defect_scan(1, -1.7e308, -1.6e308, 3).points
    assert [p.error for p in points] == [f"m=1, C={p.c}: the coefficients do not fit a float" for p in points]


def test_solve_carries_c_where_dop853_failed():
    # at m = 1, C = -1e30 DOP853's step fell below 10 ulp; here v(2) = 4.1e29
    # and, by F1, the defect is L*C + N + 2*int(phi) with 2*int(phi) ~ 1e15
    ln = compute_LN(1)
    defect = integrate_v(1, -1e30).defect
    assert 0 < defect - float(ln.lc_plus_n(-10 ** 30)) < 1e-13 * defect


@pytest.mark.parametrize("m", sorted(C_STAR_REF))
def test_scalar_defect_at_c_star_ref(m):
    # C*_ref comes from a 30-digit mpmath solve; measured 1.5e-13 at most
    assert abs(integrate_v(m, C_STAR_REF[m]).defect) < 1e-11


def _solve_ivp(m, c):
    """solve_ivp's DOP853 on (m, c) with the tolerances hext used before its
    Taylor solve: an integrator independent of hext's."""
    cs = coeffs_from_C(m, c)
    a, b, cc = float(cs.A), float(cs.B), float(cs.C)

    def rhs(t, y):
        v = y[0]
        return (integrate.TWO_SQRT2 * (math.sqrt(v) if v > 0.0 else 0.0)
                + (a / 3 * t ** 3 + b / 2 * t ** 2 + cc) * t,)

    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(rhs, (1.0, float(m + 1)), [2.0], method="DOP853", max_step=m / 32,
                         rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("m, c", [(1, 20.0), (2, 30.0), (3, 12.5)])
def test_scalar_loop_loses_positivity_where_solve_ivp_does(m, c):
    ref = _solve_ivp(m, c)
    lost = ref.y[0] <= integrate.V_FLOOR
    assert lost.any()
    with pytest.raises(PositivityLost) as info:
        integrate_v(m, c)
    # both solvers' steps shrink as v nears 0: they reach the floor at one
    # gamma, to 1e-7 (measured)
    assert abs(info.value.gamma - ref.t[lost.argmax()]) < 1e-6


@pytest.mark.parametrize("m, c", [(1, -1e300), (4, -3e298)])
def test_scalar_loop_fails_where_solve_ivp_fails(m, c):
    # the step needed at these C falls below 10 ulp of gamma
    assert _solve_ivp(m, c).status == -1
    with pytest.raises(StepFailure, match=r"^integration failed at gamma=1 "):
        integrate_v(m, c)


def test_scan_never_calls_solve_ivp():
    # a window with lost points, one with failed solves
    windows = [(3, -10.0, 8.0, 64), (1, -1e300, 8.0, 8)]
    expected = [defect_scan(*w).points for w in windows]

    assert "solve_ivp" not in vars(integrate)
    assert [defect_scan(*w).points for w in windows] == expected
    assert any(p.lost for p in expected[0]) and any(p.error and not p.lost for p in expected[1])


def test_no_module_calls_solve_ivp():
    src = Path(integrate.__file__).resolve().parents[1]
    calls = [
        (f"{path.relative_to(src)}", node.lineno)
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and "solve_ivp" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None))
    ]
    assert calls == []


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
    """Cross-check the float Taylor solve against mpmath's Taylor-series method."""
    cs = coeffs_from_C(1, F(22, 3))
    with mpmath.workdps(25):
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
        cmax = c_top(m, F(1, 100))
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
    rng = random.Random(777)
    for _ in range(10):
        m = rng.randint(1, 10)
        ln = compute_LN(m)
        cmax = (F(-2) - ln.N) / ln.L
        c = F(rng.randint(-50000, int(cmax * 1000) - 1), 1000)
        cs = coeffs_from_C(m, c)
        a, b, cc = (float(x) for x in (cs.A, cs.B, cs.C))
        with mpmath.workdps(30):
            val = mpmath.quad(lambda t: (a / 3 * t ** 3 + b / 2 * t ** 2 + cc) * t, [1, m + 1])
        assert abs(float(val) - float(ln.lc_plus_n(c))) < 1e-10


def test_grid_refinement_stability(monkeypatch):
    points = ((1, F(22, 3)), (1, 2), (5, 2), (10, -20))
    d1 = [integrate_v(m, c).defect for m, c in points]
    monkeypatch.setattr(integrate, "_TOL", integrate._TOL / 100)  # smaller steps
    d2 = [integrate_v(m, c).defect for m, c in points]
    for x, y in zip(d1, d2):
        assert abs(x - y) < 1e-9


def test_residual_small_and_refinement_invariant(monkeypatch):
    traj = integrate_v(1, F(22, 3))
    r1 = residual_check(traj)
    assert r1 < 1e-6
    monkeypatch.setattr(integrate, "_TOL", integrate._TOL / 100)
    r2 = residual_check(integrate_v(1, F(22, 3)))
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
    a, b = float(traj.meta.A), float(traj.meta.B)
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
    scan = defect_scan(1, -50.0, float(c_top(1, F(1, 100))), 64)
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


def test_defect_scan_takes_any_window_top():
    # C = 9 lies above the certificate's window L*C + N >= -2 + 1/100 for
    # m = 1: the window top is free
    assert len(defect_scan(1, 0.0, 9.0, 8).points) == 8
    with pytest.raises(ValueError):
        defect_scan(1, 5.0, 2.0, 8)


@pytest.mark.parametrize("lo,hi", [
    (F(1, 3), 5), (0, F(9, 2)), (np.float32(1 / 3), 5),
    (4.3, np.float32(4.3)),  # compared as given, numpy rounds 4.3 to float32: equal ends
], ids=["fraction-int", "int-fraction", "float32-int", "float-float32"])
def test_an_exact_scan_window_gives_the_float_window_points(lo, hi):
    # np.linspace on an exact end would build an object array of Fractions
    # and ints, which the scan CSV's "{:.17g}" refuses before Python 3.12
    # and writes with other digits from 3.12 on
    got, ref = defect_scan(1, lo, hi, 4), defect_scan(1, float(lo), float(hi), 4)
    assert all(type(p.c) is float for p in got.points)
    assert repr(got.points) == repr(ref.points)
    assert repr(got.brackets) == repr(ref.brackets)


@pytest.mark.parametrize("m", [1, 8])
def test_batched_scan_matches_per_point_solves(m):
    scan = defect_scan(m, -50.0, float(c_top(m, F(1, 100))), 64)
    for p in scan.points:
        d = integrate_v(m, p.c).defect
        assert (p.defect > 0) == (d > 0)
        assert abs(p.defect - d) < 1e-7


@pytest.mark.parametrize("m", [1, 4, 8])
def test_scan_defects_carry_the_full_solve_signs(m, monkeypatch):
    # against solves at a tolerance 100 times tighter
    scan = defect_scan(m, -50.0, float(c_top(m, F(1, 100))), 16)
    monkeypatch.setattr(integrate, "_TOL", integrate._TOL / 100)
    for p in scan.points:
        d = integrate_v(m, p.c).defect
        assert abs(p.defect - d) < 1e-8
        assert (p.defect > 0) == (d > 0)


def test_batch_positivity_is_per_point():
    # C = 20 is inadmissible for m = 1; its neighbours are not
    cs = np.array([4.0, 20.0, 5.0])
    points = _solve_defects(1, cs)
    assert [p.c for p in points] == list(cs)
    assert points[1].defect is None and "floor" in points[1].error
    assert [p.lost for p in points] == [False, True, False]
    with pytest.raises(PositivityLost) as info:
        integrate_v(1, 20.0)
    assert f"C={info.value.c:.12g}" in points[1].error
    for p in (points[0], points[2]):
        assert p.error is None
        assert abs(p.defect - integrate_v(1, p.c).defect) < 1e-7


@pytest.mark.parametrize("tol", [pytest.param(integrate._TOL, id="_TOLS"),
                                 pytest.param(100 * integrate._TOL, id="_SCAN_TOLS")])
def test_one_positivity_rule_for_both_solve_paths(tol, monkeypatch):
    # the same node, the same text, at the solve's tolerance and at one 100
    # times looser, as the scan's DOP853 tolerance pair was against the solve's
    monkeypatch.setattr(integrate, "_TOL", tol)
    for m, c in [(1, 20.0), (2, 30.0), (3, 12.5)]:
        with pytest.raises(PositivityLost) as info:
            integrate_v(m, c)
        assert str(info.value) == _solve_defects(m, np.array([c]))[0].error


def test_batch_solver_failure_is_per_point():
    # v's coefficients overflow at C = -1e300, which fails that C alone
    bad, good = _solve_defects(1, np.array([-1e300, 4.0]))
    assert bad.defect is None and bad.error.startswith("integration failed")
    assert not bad.lost
    assert good.error is None
    assert abs(good.defect - integrate_v(1, 4.0).defect) < 1e-7


def test_coefficients_beyond_the_float_range_fail_per_point():
    # the exact A and B of m = 1 at C = -1e308 do not fit a float: a
    # StepFailure naming m and C for a scalar solve, that point's error in a batch
    message = "m=1, C=-1e+308: the coefficients do not fit a float"
    with pytest.raises(StepFailure) as info:
        integrate_v(1, -1e308)
    assert str(info.value) == message
    bad, good = _solve_defects(1, np.array([-1e308, 4.0]))
    assert bad.defect is None and bad.error == message
    assert not bad.lost
    assert good.error is None
    assert abs(good.defect - integrate_v(1, 4.0).defect) < 1e-7


def _rounded(m, c):
    """A, B and C of coeffs_from_C(m, c) as floats, or None if they do not fit."""
    cs = coeffs_from_C(m, c)
    try:
        return [float(cs.A), float(cs.B), float(cs.C)]
    except OverflowError:
        return None


def _bits(abc):
    return np.array(abc, dtype=float).tobytes()


@pytest.mark.parametrize("m", [1, 3, 100])
def test_scan_coefficients_are_the_exact_maps_rounded_once(m, monkeypatch):
    # every solve rounds A(C), B(C) and C once, by integer division in _abc:
    # the float of the exact Fraction for negative, subnormal, signed-zero
    # (C = -0.0 gives 0.0) and large C, and the same overflow failure where
    # that float does not exist; a scan column and its scalar solve take the
    # same bits, and so does the exact C_h of every nonexist run
    cs = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -3.7, 2.5, -1e300, 1e300, -1.7e308, 1.7e308]
    batches, real_batch = [], integrate._solve_batch
    monkeypatch.setattr(integrate, "_solve_batch",
                        lambda m, a, b, c: batches.append((a, b, c)) or real_batch(m, a, b, c))
    solved, real_solve = [], integrate._solve
    monkeypatch.setattr(integrate, "_solve", lambda m, a, b, c: solved.append([a, b, c]) or real_solve(m, a, b, c))
    points = _solve_defects(m, np.array(cs))
    [batch] = batches
    for c, point, row in zip(cs, points, zip(*(x.tolist() for x in batch)), strict=True):
        solved.clear()
        outcome = _scalar(m, c)
        exact = _rounded(m, c)
        if exact is None:  # the batch takes a NaN row and fails it with the scalar text
            assert point.error == outcome[2] == f"m={m}, C={c}: the coefficients do not fit a float"
            assert np.isnan(row).all() and solved == []
        else:
            assert _bits(row) == _bits(solved[0]) == _bits(exact)
    for k in range(1, 51):
        solved.clear()
        c_h = hcsck_coeffs(k).C
        hcsck_nonexistence(k)
        assert _bits(solved) == _bits([_rounded(k, c_h)]) and solved[0][0] == 0.0
    with pytest.raises(StepFailure, match=r"^m=1, C=10{400}: the coefficients do not fit a float$"):
        integrate_v(1, 10 ** 400)


@pytest.mark.parametrize("m, c_ref", [(5, 2.2371), (6, 2.1779)])
def test_scan_brackets_a_root_followed_by_a_lost_point(m, c_ref):
    # the last positive point, C = 2.1587, is followed directly by a lost one,
    # C = 3.1429; by F2 a lost C lies above the root
    scan = defect_scan(m, -50.0, 12.0, 64)
    [(lo, hi)] = scan.brackets
    assert lo < c_ref < hi
    after = next(p for p in scan.points if p.c == hi)
    assert after.lost and after.defect is None


def test_only_a_lost_point_closes_a_bracket_without_a_defect():
    lost = ScanPoint(3.0, None, "v fell below floor", lost=True)
    failed = ScanPoint(3.0, None, "integration failed: overflow")
    for lo, closed in ((ScanPoint(1.0, 0.5), True), (ScanPoint(1.0, 0.0), True),
                       (ScanPoint(1.0, -0.5), False)):
        assert ScanResult(1, (lo, lost)).brackets == ([(1.0, 3.0)] if closed else [])
        assert ScanResult(1, (lo, failed)).brackets == []


def test_scan_memory_does_not_grow_with_steps():
    # a scan keeps per C its node, v and v's coefficients there, not v at
    # every step: 1024 C above the root, most of them lost
    defect_scan(8, 2.2, 50.0, 8)
    tracemalloc.start()
    try:
        defect_scan(8, 2.2, 50.0, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def _floats(tree):
    """Line numbers of float(...) calls and float literals in a module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
                or isinstance(node, ast.Constant) and type(node.value) is float):
            yield node.lineno


def test_exact_modules_hold_no_float():
    # floating point enters only in the integrator, whose _abc rounds every
    # solve's coefficients: the exact layers neither call float() nor hold a float
    src = Path(integrate.__file__).resolve().parents[1]
    exact = ["profile_ode/coeffs.py", "profile_ode/certificate.py", "ratpoly.py", "chern_futaki.py",
             "graded_algebra.py"]
    assert [(name, line) for name in exact for line in _floats(ast.parse((src / name).read_text()))] == []
    # the check sees both forms, and neither a float annotation nor an int
    assert list(_floats(ast.parse("x: float = float(y)\nz = 1e-3\nw = 1\n"))) == [1, 2]


def _scipy_imports(tree):
    for node in ast.walk(tree):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else [])
        yield from (n for n in names if n.split(".")[0] == "scipy")


def _private_scipy_imports(tree):
    return (n for n in _scipy_imports(tree) if any(part.startswith("_") for part in n.split(".")))


def test_no_module_imports_private_scipy():
    # nor scipy at all: numpy is hext's only runtime dependency
    src = Path(integrate.__file__).resolve().parents[1]
    trees = [(f"{path.relative_to(src)}", ast.parse(path.read_text())) for path in sorted(src.rglob("*.py"))]
    found = [(name, imported) for name, tree in trees for imported in _private_scipy_imports(tree)]
    assert found == []
    assert [(name, imported) for name, tree in trees for imported in _scipy_imports(tree)] == []
    # the check sees both import forms
    sample = ast.parse("import scipy.integrate._ivp.rk\nfrom scipy.integrate._ivp.common import f\n"
                       "from scipy.integrate import solve_ivp\nimport numpy, scipy\nfrom ._x import y")
    assert list(_private_scipy_imports(sample)) == [
        "scipy.integrate._ivp.rk", "scipy.integrate._ivp.common"]
    assert list(_scipy_imports(sample)) == [
        "scipy.integrate._ivp.rk", "scipy.integrate._ivp.common", "scipy.integrate", "scipy"]
