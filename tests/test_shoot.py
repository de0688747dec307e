"""Shooting: the root bracket, the false-position root loop, and solution
posts."""
import json
from fractions import Fraction as F

import numpy as np
import pytest

from scipy.integrate import simpson

from hext import (
    CoeffSet,
    coeffs_from_C,
    compute_LN,
    defect_scan,
    hcsck_coeffs,
    hcsck_nonexistence,
    integrate_v,
    reconstruct_curve,
    residual_check,
    shoot,
)
from hext.errors import DEFECT_TOL_RANGE, NoBracket, StepFailure
from hext.profile_ode import integrate
from hext.profile_ode.integrate import Trajectory, _csv, _integrate, _solve, _trajectory

from conftest import C_STAR_REF


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
    # m >= 3 has its root beyond the eps-floor window, inside [C_h, C_top]
    res = shoot(m)
    assert abs(res.c_star - C_STAR_REF[m]) < 1e-6
    assert abs(res.defect) < 1e-8
    assert res.bracket[0] < res.c_star < res.bracket[1]
    assert res.not_hcsck


@pytest.mark.parametrize("m", sorted(C_STAR_REF))
def test_scan_reaches_the_root(m):
    # the window's top lies above C* for every m; a C the flow cannot carry
    # is a per-point error, and since the defect decreases in C it lies above C*
    scan = defect_scan(m, -10.0, 8.0, 64)
    c_star = C_STAR_REF[m]
    assert len(scan.brackets) == 1
    lo, hi = scan.brackets[0]
    assert lo < c_star < hi
    assert all(p.c > c_star for p in scan.points if p.error is not None)
    assert all((p.defect > 0) == (p.c < c_star) for p in scan.points if p.defect is not None)


def test_not_hcsck_is_the_exact_side_of_c_h():
    # A* = 5.2e-4 at m = 32, under the old float threshold |A| > 1e-3; the
    # exact comparison C* > C_h = 2 + 4/((m+1)^2 - 1) decides it
    res = shoot(32)
    c_h = 2 + F(4, 33 ** 2 - 1)
    assert 0 < res.a_slope < 1e-3 and F(res.c_star) > c_h
    assert res.not_hcsck


def test_shoot_builds_a_coeff_set_at_c_h_and_c_star_only(monkeypatch):
    # the root loop's solves take their floats from _abc: shoot builds exact
    # coefficients only for C_h and for the trajectory at c_star
    built, real = [], CoeffSet.__post_init__
    monkeypatch.setattr(CoeffSet, "__post_init__", lambda cs: built.append(cs.C) or real(cs))
    for m in range(1, 9):
        c_h = hcsck_coeffs(m).C
        built.clear()
        res = shoot(m)
        assert built == [c_h, F(res.c_star)] and res.iterations > 2


@pytest.mark.parametrize("m", sorted(C_STAR_REF))
def test_every_solve_is_scalar_and_inside_the_root_bracket(m, monkeypatch):
    # F1 and F2 put the root in [C_h, C_top] with C_top = C_h + margin/|L|:
    # shoot solves one v at a time, only at C in that bracket, and samples
    # its trajectory from the solve at c_star: one solve per iteration
    c_h = float(hcsck_coeffs(m).C)
    c_top = c_h + hcsck_nonexistence(m).margin / -float(compute_LN(m).L)
    ends, cs = [], []

    def counted(*args):
        sol = _solve(*args)
        ends.append(type(sol.v_end))
        return sol

    def recorded(m, C):
        cs.append(C)
        return _integrate(m, C)

    def batch(*args, **kwargs):
        raise AssertionError("shoot solved a batch")

    monkeypatch.setattr(integrate, "_solve", counted)
    monkeypatch.setattr(integrate, "_integrate", recorded)
    monkeypatch.setattr(integrate, "_solve_batch", batch)
    assert "solve_ivp" not in vars(integrate)
    res = shoot(m)
    assert ends == [float] * res.iterations and len(cs) == len(ends)
    assert all(c_h <= c <= c_top + 1e-12 for c in cs) and res.c_star in cs
    assert [p.c for p in res.scan.points] == sorted(set(cs))


def test_f1_identity_on_the_shot_trajectories():
    # v(m+1) - 2(m+1)^2 = L*C + N + 2*int(phi): Simpson on the 1025-point
    # trajectory meets the solver's defect within 1e-9 (6.0e-11 at most)
    for m in sorted(C_STAR_REF):
        res = shoot(m)
        assert abs(_f1_defect(res.trajectory, res.c_star) - res.defect) < 1e-9


def test_f1_identity_fails_on_a_scaled_trajectory():
    # a v that is off by a relative 1e-6 (v(1) = 2 kept) misses the identity
    # by 4.8e-6 or more
    for m in sorted(C_STAR_REF):
        t = shoot(m).trajectory
        v = t.v * (1 + 1e-6)
        v[0] = 2.0
        scaled = Trajectory(t.grid, v, t.meta)
        assert abs(_f1_defect(scaled, t.meta.C) - scaled.defect) > 1e-9


def _f1_defect(t, c):
    return float(compute_LN(t.m).lc_plus_n(c)) + 2.0 * simpson(t.phi, x=t.grid)


@pytest.mark.parametrize("m", [1, 2])
def test_root_on_a_bracket_edge_ends_the_search(m):
    # c_min placed on C*: the edge's defect is inside the tolerance, so
    # the root loop returns that edge after the solves at C_h and both edges
    res = shoot(m, c_min=C_STAR_REF[m])
    assert res.c_star == res.bracket[0] == C_STAR_REF[m] and res.iterations == 3
    assert abs(res.defect) < 1e-8
    assert res.trajectory.v.tobytes() == integrate_v(m, res.c_star).v.tobytes()


def test_bracket_narrower_than_xtol_is_reported_after_its_edge_solves(defect_padded):
    # the root loop returns such a bracket without a solve of its own; the
    # edges, padded to |defect| > 1e-9, miss the tolerance, which is reported
    c = C_STAR_REF[1]
    with pytest.raises(StepFailure, match="m=1 .* after 3 solves"):
        shoot(1, defect_tol=1e-10, c_min=c - 1e-13, c_max=c + 1e-13)


@pytest.mark.parametrize("m", range(1, 33))
def test_shoot_converges_at_the_defect_tol_floor(m):
    # DEFECT_TOL_RANGE's lower end is a promise: 1e-11 fails at m = 28..30
    res = shoot(m, defect_tol=DEFECT_TOL_RANGE[0])
    assert abs(res.defect) < DEFECT_TOL_RANGE[0] and res.iterations <= 6


@pytest.mark.parametrize("tol", [1e-8, F(1, 10**8)], ids=["float", "fraction"])
def test_shoot_at_the_default_tolerance_fails_first_at_m_158(tol):
    # the float spacing of C near C* bounds |defect|, not the 1e-12 stop: at
    # 1e-8 m = 158 is the first of 192 failures in m = 1..400; 1e-7 reaches it
    with pytest.raises(StepFailure, match=r"m=158 .* after 6 solves, not below 1e-08$"):
        shoot(158, defect_tol=tol)
    assert abs(shoot(158, defect_tol=1e-7).defect) < 1e-7


def test_a_missed_tolerance_names_the_float_step_of_c_that_exceeds_it():
    # at m = 158 the next float C toward the root moves the defect by more
    # than 1e-8, so no C meets that tolerance; the root loop's count stays
    with pytest.raises(StepFailure, match=r"m=158 .*\|defect\|=1\.03537e-08 \(one float step of C moves it "
                                          r"by 2\.2e-08\) after 6 solves, not below 1e-08$"):
        shoot(158, defect_tol=1e-8)


def test_a_padded_defect_names_no_float_step(defect_padded):
    # the padding, not C's float spacing, keeps m = 16 from 1e-10
    with pytest.raises(StepFailure, match=r"m=16 .* solves, not below 1e-10$") as info:
        shoot(16, defect_tol=1e-10)
    assert "float step" not in str(info.value)


def test_shoot_refuses_a_solution_without_interior_positivity(monkeypatch):
    monkeypatch.setattr(Trajectory, "interior_positive", lambda self: False)
    with pytest.raises(StepFailure) as info:
        shoot(1)
    assert str(info.value) == "shooting solution lost interior positivity (phi <= 0)"


def test_clips_outside_the_root_bracket_change_nothing():
    # a c_min whose coefficients overflow a float and a c_max above the
    # eps-floor window (2.23 at m = 4) lie outside [C_h, C_top]: no clip
    res = shoot(4, c_min=-1e300, c_max=3.0)
    assert res.c_star == shoot(4).c_star and res.bracket == shoot(4).bracket


@pytest.mark.parametrize("c_min,c_max", [(F(4), None), (4, None), (None, F(43, 10)), (None, np.float32(4.3))],
                         ids=["fraction-min", "int-min", "fraction-max", "float32-max"])
def test_an_exact_clip_gives_the_float_clip_results(c_min, c_max):
    # the bracket and the scan hold floats whatever the clips' type, so the
    # JSON report takes them
    got = shoot(1, c_min=c_min, c_max=c_max)
    ref = shoot(1, c_min=None if c_min is None else float(c_min),
                c_max=None if c_max is None else float(c_max))
    fields = ("c_star", "defect", "a_slope", "not_hcsck", "phi_prime_end", "bracket", "iterations")
    assert [repr(getattr(got, f)) for f in fields] == [repr(getattr(ref, f)) for f in fields]
    assert repr(got.scan.points) == repr(ref.scan.points)
    assert json.dumps(got.bracket) == json.dumps(ref.bracket)


@pytest.mark.parametrize("window,signs", [
    (dict(c_min=4.2, c_max=4.3), [-1, -1]),  # above C*, inside [C_h, C_top]
    (dict(c_max=3.5), [1, 1]),  # [C_h, 3.5], below C*
    (dict(c_min=9.0), []),  # above C_top = 4.357: nothing to solve in the window
    (dict(c_max=3.0), []),  # below C_h = 10/3
], ids=["above-root", "below-root", "above-c-top", "below-c-h"])
def test_window_without_the_root_raises_no_bracket(window, signs):
    with pytest.raises(NoBracket, match="no defect sign change for m=1") as info:
        shoot(1, **window)
    assert [np.sign(p.defect) for p in info.value.scan.points] == signs


@pytest.fixture(scope="module")
def shots():
    return {m: shoot(m) for m in (1, 4, 8)}


@pytest.mark.parametrize("m", [1, 4, 8])
def test_trajectory_is_one_dense_solve_at_c_star(shots, m):
    # the trajectory is sampled once, from the root loop's solve at c_star, and
    # sampling leaves the solver's steps as they are
    res = shots[m]
    assert res.trajectory.v.tobytes() == integrate_v(m, res.c_star).v.tobytes()
    assert res.defect == res.trajectory.defect
    sol = _integrate(m, res.c_star)
    steps = [list(sol.t), [list(k) for k in sol.coeffs], sol.v_end]
    assert _trajectory(coeffs_from_C(m, res.c_star), sol).v.tobytes() == res.trajectory.v.tobytes()
    assert [list(sol.t), [list(k) for k in sol.coeffs], sol.v_end] == steps
    assert sol.v_end == res.trajectory.v[-1]


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


def test_csv_takes_text_cells_beside_float_columns():
    col = np.array([-0.0, 5e-324, 1e300, 1 / 3])
    cells = [f"{x:.17g}" for x in col[::-1].tolist()]
    assert _csv("a,b,c", (col, cells, col)) == _csv_per_value("a,b,c", (col, col[::-1], col))


def test_a_trajectory_keeps_read_only_copies_so_its_csv_text_stays_true():
    t = integrate_v(1, 3)
    text = t.to_csv()
    with pytest.raises(ValueError, match="read-only"):
        t.v[5] = 3.0
    assert t.to_csv() == text
    grid, v = t.grid.copy(), t.v.copy()
    u = Trajectory(grid, v, t.meta)
    assert grid.flags.writeable and v.flags.writeable and not np.shares_memory(u.v, v)


@pytest.mark.parametrize("m,first,rows", [(1, 2, 1021), (2, 1, 1023), (3, 1, 1023), (8, 1, 1023)])
def test_curve_csv_shares_the_trajectory_gamma_and_phi_text(m, first, rows):
    # the curve keeps one contiguous range of the trajectory's rows (its
    # grid step is below the curve margin only at m = 1), and its CSV lines
    # carry those rows' gamma and phi fields as the trajectory's CSV writes them
    t = shoot(m).trajectory
    curve = reconstruct_curve(t)
    traj_lines = t.to_csv().split("\n")[1:-1]
    curve_lines = curve.to_csv().split("\n")[1:-1]
    assert len(curve_lines) == rows
    for i, line in enumerate(curve_lines):
        gamma, _, _, phi = line.split(",")
        row = traj_lines[first + i].split(",")
        assert (gamma, phi) == (row[0], row[2])
    assert t.to_csv() == _csv_per_value("gamma,v,phi,phi_prime,lambda",
                                        (t.grid, t.v, t.phi, t.phi_prime, t.lambda_values))
    assert curve.to_csv() == _csv_per_value("gamma,tau,s,phi", (curve.gamma, curve.tau, curve.s, curve.phi))
