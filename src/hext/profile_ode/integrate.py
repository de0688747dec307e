"""Numerical side of the boundary value problem: integration and shooting.

The substitution v = (2*gamma + phi)^2 / 2 turns the profile equation into

    v' = 2*sqrt(2)*sqrt(v) + q(gamma),    v(1) = 2,

which removes the boundary degeneracy at gamma = 1 (phi vanishes there, v
does not).  A solution closing up smoothly at gamma = m+1 has
v(m+1) = 2*(m+1)^2; the shooting defect is v(m+1) - 2*(m+1)^2 and the free
parameter is C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  called nowhere; perfbench's tracer wraps it
from scipy.integrate._ivp.common import select_initial_step
from scipy.integrate._ivp.rk import DOP853, MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.optimize import brentq

from ..errors import (
    SHOOT_C_MIN,
    SHOOT_DEFECT_TOL,
    EndpointSingularity,
    NoBracket,
    PositivityLost,
    StepFailure,
    _defect_tol,
    _integer,
    _window,
)
from .coeffs import (CoeffSet, Rational, _hcsck_denominator, _linear_maps, coeffs_from_C, compute_LN,
                     hcsck_coeffs)

TWO_SQRT2 = 2.0 * math.sqrt(2.0)

# Every DOP853 solve (Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I) caps its step at m/_STEP_DIVISOR, which keeps the defect
# refinement-stable.  Left to the tolerance alone, DOP853 takes 7-13 steps and
# the defect is off by more than 10*rtol (1.2e-9 at m=7, C=2; 9.3e-9 at m=10,
# C=-20 even at rtol=1e-13, against a solve capped at m/128).  With m/32 the
# defect at (m, C) = (1, 22/3), (1, 2), (5, 2), (7, 2), (10, -20) is within
# 8.8e-11 of a 30-digit mpmath solve and 8.7e-11 of its value at m/64.
_STEP_DIVISOR = 32
_TOLS = dict(rtol=1e-10, atol=1e-12)  # every scalar solve's
# defect_scan's batch reads off defect signs at looser tolerances: at _TOLS
# its lost points force many more steps, and 64 points over [-10, 8] take
# 65 ms against 29 at m = 3 (375 steps against 250), 102 against 46 at m = 8
# (556 against 352), best of 7 on a 2-vCPU Xeon VM
_SCAN_TOLS = dict(rtol=1e-8, atol=1e-10)
_CURVE_MARGIN = 1e-3  # cut from each end of a profile curve, where s diverges

GRID_POINTS = 1025  # uniform samples of the dense output in a Trajectory

# a scan holds one v per point in one solve, and its lost points shrink the
# shared step (see _solve_defects): 4096 points at m = 8 take about 11 s and
# 0.6 GB over [-10, 8] and 21 s and 1.0 GB over [2.2, 50], where all C lie
# above the root and are lost (2-vCPU Xeon VM), and far more would not fit
# in memory
MAX_SCAN_STEPS = 4096

# a solve whose v reaches this floor at an accepted step raises PositivityLost;
# v decreases in C and is at least 2*gamma^2 at the root, so only a C above
# the root can reach it
V_FLOOR = 1e-9


def _target(m: int) -> float:
    """The closing value v(m+1) = 2*(m+1)^2 of a smooth profile."""
    return 2.0 * (m + 1) ** 2


def _q(a, b, c):
    """gamma -> q(gamma) in floats, for coefficients or arrays of one per C:
    every solve and Trajectory.q_values round q alike."""
    a3, b2 = a / 3.0, b / 2.0
    return lambda t: ((a3 * t + b2) * t * t + c) * t


class Trajectory:
    """A sampled solution v(gamma) of the reduced problem.

    The grid spans [1, m+1] strictly increasingly, v(1) = 2 exactly, and
    v > 0 at every grid point (anything else is an error, not a Trajectory).
    phi and v are related pointwise by v = (2*gamma + phi)^2 / 2.
    """

    def __init__(self, grid: np.ndarray, v: np.ndarray, meta: CoeffSet):
        grid = np.asarray(grid, dtype=float)
        v = np.asarray(v, dtype=float)
        if grid.ndim != 1 or grid.shape != v.shape or grid.size < 2:
            raise ValueError("grid and v must be matching 1-d arrays")
        if grid[0] != 1.0 or abs(grid[-1] - (meta.m + 1)) > 1e-12:
            raise ValueError("grid must span [1, m+1]")
        if not np.all(np.diff(grid) > 0):  # written so that a NaN fails
            raise ValueError("grid must be strictly increasing")
        if v[0] != 2.0:
            raise ValueError("initial value v(1) must be exactly 2")
        if not np.all((v > 0) & (v < np.inf)):
            raise ValueError("v must stay positive and finite on a Trajectory")
        self.grid = grid
        self.v = v
        self.meta = meta

    @property
    def m(self) -> int:
        return self.meta.m

    @property
    def phi(self) -> np.ndarray:
        return np.sqrt(2.0 * self.v) - 2.0 * self.grid

    def q_values(self) -> np.ndarray:
        return _q(*self.meta.float_abc())(self.grid)

    @property
    def phi_prime(self) -> np.ndarray:
        # 2*gamma + phi = sqrt(2 v) > 0 everywhere on a valid trajectory
        return self.q_values() / np.sqrt(2.0 * self.v)

    @property
    def lambda_values(self) -> np.ndarray:
        return self.meta.lambda_at(self.grid)

    @property
    def defect(self) -> float:
        return float(self.v[-1] - _target(self.m))

    def interior_positive(self) -> bool:
        """phi > 0 at all interior grid points, equivalently v > 2*gamma^2."""
        g = self.grid[1:-1]
        return bool(np.all(self.v[1:-1] > 2.0 * g * g))

    def to_csv(self) -> str:
        """CSV with header gamma,v,phi,phi_prime,lambda; 17 significant digits."""
        return _csv("gamma,v,phi,phi_prime,lambda",
                    (self.grid, self.v, self.phi, self.phi_prime, self.lambda_values))


def _csv(header: str, cols) -> str:
    """The header, then one line of %.17g values per row of cols, LF-terminated.

    Formatting the floats is the whole cost, and no byte-identical way is
    faster in pure Python.  On a shoot trajectory (5 x 1025 values, 2-vCPU
    Xeon VM) this join takes 550-850 ns a value, '%.17g' % x alone 540-910,
    repr (other bytes, too) 830-1070, ndarray.astype("U25") 1290-1540 and
    np.char.mod("%.17g", ...) 1350-1470.
    """
    row = ",".join(["%.17g"] * len(cols)).__mod__
    return "\n".join([header, *map(row, zip(*(c.tolist() for c in cols)))]) + "\n"


def _lost(sol, i: int, c: float) -> None:
    """Raise PositivityLost at the first accepted step where component i of
    sol is at or below V_FLOOR.  A floor event would catch no more: scipy
    finds events only from the signs at consecutive accepted steps."""
    lost = sol.y[i] <= V_FLOOR
    if lost.any():
        raise PositivityLost(gamma=float(sol.t[lost.argmax()]), c=float(c), floor=V_FLOOR)


# scipy's DOP853 tableau (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, II.5): per stage s, its row of A and its node
_STAGES = [(s, DOP853.A[s, :s], float(DOP853.C[s])) for s in range(1, DOP853.n_stages)]
_DENSE_STAGES = [(s, a[:s], float(c)) for s, (a, c)
                 in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=DOP853.n_stages + 1)]
_ERROR_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
# the nodes of the stages after the first, then 1 for f at the step's end: a
# batch step of size h evaluates q at t + _NODES*h
_NODES = np.append(DOP853.C[1:], 1.0)[:, None]
# a batch of up to this many C evaluates q on its (12, n) grid of stage times
# at once, a larger one a row at a time, which stays in cache: q per step
# takes 9 us against 50 row by row at n = 64, 35 against 52 at 512, 126
# against 93 at 2048 and 356 against 141 at 4096 (2-vCPU Xeon VM)
_Q_GRID_MAX = 1024


def _march(trial, m: int, v, f, h_abs: float, K: Optional[np.ndarray] = None):
    """scipy's DOP853 step control (RungeKutta._step_impl) from gamma = 1,
    where v has derivative f and the first step is h_abs, to m+1, the step
    capped at m/_STEP_DIVISOR.  trial(t, h, v, f) takes one step and returns
    v and f at t + h and the error norm.  Returns the accepted t and v, a
    copy of the stage buffer K per accepted step if one is given, and the
    failure message: None unless the step fell below 10 ulp of t."""
    t, t_end, max_step = 1.0, float(m + 1), m / _STEP_DIVISOR
    ts, vs, stages = [t], [v], []
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return ts, vs, stages, DOP853.TOO_SMALL_STEP
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            v_new, f_new, error = trial(t, h, v, f)
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR, SAFETY * error ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        if K is not None:
            stages.append(K.copy())
        t, v, f = t_new, v_new, f_new
        ts.append(t)
        vs.append(v)
    return ts, vs, stages, None


@dataclass(frozen=True, eq=False)
class _Solve:
    """One scalar solve: the accepted t, v as y of shape (1, len(t)) and
    message, None unless the solve failed, as solve_ivp reports them.  Each
    accepted step's stages are kept, so dense output costs nothing unless
    sampled."""

    rhs: Callable[[float, float], float]
    t: np.ndarray
    y: np.ndarray
    stages: List[np.ndarray]
    message: Optional[str]

    def sample(self, grid: np.ndarray) -> np.ndarray:
        """v on an increasing grid in [t[0], t[-1]] from scipy's DOP853 dense
        output (Dop853DenseOutput), a grid point on a step boundary taken
        from the earlier step, as OdeSolution does: the same values bit for
        bit, in one pass over the grid."""
        t, v, rhs = self.t, self.y[0], self.rhs
        F = np.empty((len(self.stages), 7))  # per step, the interpolant's coefficients
        for i, K in enumerate(self.stages):
            h, t_old, v_old = t[i + 1] - t[i], t[i], v[i]
            for s, a, c in _DENSE_STAGES:
                K[s] = rhs(t_old + c * h, v_old + K[:s].T.dot(a)[0] * h)
            dv, f_old, f_new = v[i + 1] - v_old, K[0, 0], K[DOP853.n_stages, 0]
            F[i, :3] = dv, h * f_old - dv, 2 * dv - h * (f_new + f_old)
            F[i, 3:] = h * np.dot(DOP853.D, K)[:, 0]
        seg = np.clip(np.searchsorted(t, grid, side="left") - 1, 0, len(F) - 1)
        x = (grid - t[seg]) / (t[seg + 1] - t[seg])
        y = np.zeros_like(x)
        for i, f in enumerate(F[seg, ::-1].T):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        return y + v[seg]


def _dop853(rhs: Callable[[float, float], float], m: int) -> _Solve:
    """v' = rhs(gamma, v) from v(1) = 2 to m+1 by _march at _TOLS, v held as
    a float: scipy's tableau, initial step and step control, so the steps
    and values of solve_ivp's DOP853 bit for bit.  Each stage sum is the
    same np.dot call as scipy's, on a view of one stage buffer; the rest is
    scalar arithmetic, without the array work per step that takes about two
    thirds of solve_ivp's time on one v."""
    rtol, atol = _TOLS["rtol"], _TOLS["atol"]
    # scipy's K_extended: the 12 stages, f at the new point, 3 dense stages
    K = np.empty((16, 1))
    k = K[:, 0]
    stage_dots = [(s, K[:s].T.dot, a, c) for s, a, c in _STAGES]
    b_dot, e_dot = K[:DOP853.n_stages].T.dot, K[:DOP853.n_stages + 1].T.dot

    def trial(t, h, v, f):
        k[0] = f
        for s, dot, a, c in stage_dots:
            k[s] = rhs(t + c * h, v + dot(a)[0] * h)
        v_new = v + h * b_dot(DOP853.B)[0]
        f_new = k[DOP853.n_stages] = rhs(t + h, v_new)
        # a NaN v_new gives a NaN scale, as np.maximum does
        scale = atol + max(abs(v_new), abs(v)) * rtol
        # np.linalg.norm(x)**2 of one component is sqrt(x*x)**2
        e5 = math.sqrt((x := e_dot(DOP853.E5)[0] / scale) * x) ** 2
        e3 = math.sqrt((x := e_dot(DOP853.E3)[0] / scale) * x) ** 2
        return v_new, f_new, 0.0 if e5 == 0 and e3 == 0 else abs(h) * e5 / math.sqrt(e5 + 0.01 * e3)

    with np.errstate(over="ignore", invalid="ignore"):
        f = rhs(1.0, 2.0)
        h_abs = select_initial_step(lambda t, y: np.array([rhs(t, y[0])]), 1.0, np.array([2.0]),
                                    float(m + 1), m / _STEP_DIVISOR, np.array([f]), 1.0,
                                    DOP853.error_estimator_order, rtol, atol)
        ts, vs, stages, message = _march(trial, m, 2.0, f, h_abs, K)
    return _Solve(rhs, np.array(ts), np.array([vs]), stages, message)


def _dop853_batch(q, m: int, n: int) -> Tuple[np.ndarray, np.ndarray, Optional[str]]:
    """v' = 2*sqrt(2)*sqrt(max(v, 0)) + q(gamma) from v(1) = 2 to m+1 by
    _march at _SCAN_TOLS, for q of n coefficient sets and one v per set:
    t, y of shape (n, len(t)) and the failure message, None unless the
    solve failed, those of solve_ivp's DOP853 bit for bit.  Each trial step
    evaluates q once, at all its stage times, so a stage adds only the
    square-root term to its row; the stage sums and the error norm are
    scipy's numpy calls on a (13, n) stage buffer.  An overflowing C fails
    its solve, which is reported: numpy need not warn."""
    rtol, atol = _SCAN_TOLS["rtol"], _SCAN_TOLS["atol"]
    K = np.empty((DOP853.n_stages + 1, n))  # the 12 stages, f at the new point
    # per stage after the first: its sum's np.dot, its row of A, its row of K
    stage_sums = [(K[:s].T.dot, a, K[s]) for s, a, _ in _STAGES]
    b_sum, e_sum = K[:-1].T, K.T

    def root(v):
        return TWO_SQRT2 * np.sqrt(np.maximum(v, 0.0))

    def trial(t, h, v, f):
        T = t + _NODES * h
        Q = q(T) if n <= _Q_GRID_MAX else [q(x) for x in T[:, 0].tolist()]
        K[0] = f
        for (dot, a, k), q_s in zip(stage_sums, Q):
            np.add(root(v + dot(a) * h), q_s, out=k)
        v_new = v + h * np.dot(b_sum, DOP853.B)
        f_new = K[-1] = root(v_new) + Q[-1]
        # DOP853._estimate_error_norm
        scale = atol + np.maximum(np.abs(v), np.abs(v_new)) * rtol
        e5 = np.linalg.norm(np.dot(e_sum, DOP853.E5) / scale) ** 2
        e3 = np.linalg.norm(np.dot(e_sum, DOP853.E3) / scale) ** 2
        return v_new, f_new, 0.0 if e5 == 0 and e3 == 0 else abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * n)

    with np.errstate(over="ignore", invalid="ignore"):
        v = np.full(n, 2.0)
        f = root(v) + q(1.0)
        h_abs = select_initial_step(lambda t, y: root(y) + q(t), 1.0, v, float(m + 1),
                                    m / _STEP_DIVISOR, f, 1.0, DOP853.error_estimator_order, rtol, atol)
        ts, vs, _, message = _march(trial, m, v, f, h_abs)
    return np.array(ts), np.array(vs).T, message


def _integrate(m: int, C: Rational) -> Tuple[CoeffSet, _Solve]:
    """integrate_v's coefficients and checked solve."""
    cs = coeffs_from_C(m, C)  # validates m
    try:
        q = _q(*cs.float_abc())
    except OverflowError:
        raise StepFailure(f"m={m}, C={C}: the coefficients do not fit a float") from None

    def rhs(t, v):
        return TWO_SQRT2 * (math.sqrt(v) if v > 0.0 else 0.0) + q(t)

    sol = _dop853(rhs, m)
    _lost(sol, 0, cs.C)
    if sol.message is not None:
        raise StepFailure(f"integration failed: {sol.message}")
    return cs, sol


def _trajectory(cs: CoeffSet, sol: _Solve) -> Trajectory:
    """The Trajectory of a checked solve, as integrate_v describes it."""
    grid = np.linspace(1.0, float(cs.m + 1), GRID_POINTS)
    v = sol.sample(grid)
    v[0], v[-1] = 2.0, sol.y[0, -1]  # the exact initial value, the solver's endpoint
    return Trajectory(grid=grid, v=v, meta=cs)


def integrate_v(m: int, C: Rational) -> Trajectory:
    """Integrate v' = 2*sqrt(2)*sqrt(v) + q(gamma) from v(1) = 2 to gamma = m+1.

    v is sampled from the dense output on GRID_POINTS uniform points, except
    v(m+1), the solver's own endpoint value.  Raises PositivityLost if v
    reaches V_FLOOR (a C the flow cannot carry to m+1), even when the
    solver gave up later, and StepFailure if the solver gives up before.
    """
    return _trajectory(*_integrate(m, C))


def residual_check(t: Trajectory) -> float:
    """Max interior residual of v' = 2*sqrt(2)*sqrt(v) + q(gamma), with v'
    taken from 4th-order central differences of the sampled v.

    The differences see only the samples, not how they were produced, so a
    v that does not solve the equation gives a large residual.  Needs a
    uniform grid of at least five points.
    """
    n = t.grid.size
    h = (t.grid[-1] - t.grid[0]) / (n - 1)
    if n < 5 or np.ptp(np.diff(t.grid)) > 1e-9 * h:
        raise ValueError("residual_check needs a uniform grid of at least 5 points")
    v = t.v
    dv = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    res = dv - (TWO_SQRT2 * np.sqrt(v[2:-2]) + t.q_values()[2:-2])
    return float(np.max(np.abs(res)))


@dataclass(frozen=True)
class ScanPoint:
    c: float
    defect: Optional[float]
    error: Optional[str] = None
    lost: bool = False  # the error is PositivityLost


@dataclass(frozen=True)
class ScanResult:
    m: int
    points: Tuple[ScanPoint, ...]

    @property
    def brackets(self) -> List[Tuple[float, float]]:
        """Adjacent C pairs whose defects change sign, and adjacent pairs of a
        defect >= 0 and a lost point: by F2 a lost C lies above the root.  A
        point that failed otherwise closes no bracket."""
        return [
            (lo.c, hi.c)
            for lo, hi in zip(self.points, self.points[1:])
            if lo.defect is not None and (
                lo.defect >= 0.0 and hi.lost
                or hi.defect is not None and (lo.defect == 0.0 or lo.defect * hi.defect < 0.0))
        ]


def _solve_defects(m: int, cs: np.ndarray) -> Tuple[ScanPoint, ...]:
    """Defects at every C in `cs` from one _dop853_batch solve holding one v
    per C.

    A C whose v reaches V_FLOOR at an accepted step is a lost point, with the
    PositivityLost text of a scalar solve.  Below zero the square root is
    taken of 0, but it is not Lipschitz near v = 0, so lost points shrink the
    shared step: [-10, 8] x 64 at m = 8, 20 points lost, takes 352 accepted
    steps against 32 at m = 1 with none, and [2.2, 50] x 256 at m = 8 takes
    2,264.  Setting v' = 0 once v reaches V_FLOOR was tried and doubles
    these (710, 5,612).
    A failed solve, or a C whose exact A or B does not fit a float, is split
    in halves until it is down to single C.
    """
    # the exact affine maps C -> A, B of coeffs_from_C, rounded once per C:
    # at C = p/r, k1*C + k0 is one int / int, which Python rounds correctly,
    # so it is the float of the Fraction and raises the same OverflowError
    # past the float range; for 64 C this takes 0.14 ms against 0.82 ms in
    # Fractions.  p / r is C itself, except 0.0 for -0.0, as
    # float(Fraction(-0.0)) gives.
    ratios = [float(x).as_integer_ratio() for x in cs]

    def affine(k1: Fraction, k0: Fraction) -> np.ndarray:
        u1, u0 = k1.numerator * k0.denominator, k0.numerator * k1.denominator
        w = k1.denominator * k0.denominator
        return np.array([(u1 * p + u0 * r) / (w * r) for p, r in ratios])

    a1, a0, b1, b0 = _linear_maps(m)
    try:
        q = _q(affine(a1, a0), affine(b1, b0), np.array([p / r for p, r in ratios]))
    except OverflowError:
        error = f"m={m}, C={cs[0]}: the coefficients do not fit a float"
    else:
        t, y, message = _dop853_batch(q, m, len(cs))
        error = None if message is None else f"integration failed: {message}"
    if error and len(cs) > 1:  # halve the batch to isolate the failing C
        half = len(cs) // 2
        return _solve_defects(m, cs[:half]) + _solve_defects(m, cs[half:])
    if error:
        return (ScanPoint(c=float(cs[0]), defect=None, error=error),)
    lost = y <= V_FLOOR
    gammas = t[lost.argmax(axis=1)].tolist()  # per C, the first lost gamma if it has one
    defects = (y[:, -1] - _target(m)).tolist()
    return tuple(
        ScanPoint(c=c, defect=None, error=str(PositivityLost(gamma=g, c=c, floor=V_FLOOR)), lost=True)
        if hit else ScanPoint(c=c, defect=d)
        for c, hit, g, d in zip(cs.tolist(), lost.any(axis=1).tolist(), gammas, defects))


def defect_scan(m: int, C_lo: float, C_hi: float, steps: int) -> ScanResult:
    """Defect at `steps` evenly spaced C over a finite window C_lo < C_hi,
    solved as one batch at _SCAN_TOLS; requires 2 <= steps <= MAX_SCAN_STEPS.
    Integrator errors are recorded per point, not raised: a C whose v
    reaches V_FLOOR, which lies above the root, is a PositivityLost point."""
    _integer("the class index m", m, 1)
    _window(C_lo, C_hi)
    _integer("the number of scan points", steps, 2, MAX_SCAN_STEPS)
    cs = np.linspace(C_lo, C_hi, steps)
    return ScanResult(m=m, points=_solve_defects(m, cs))


def _defect(cs: CoeffSet, sol: _Solve) -> float:
    """v(m+1) - 2*(m+1)^2 at the endpoint of sol, as Trajectory.defect."""
    return float(sol.y[0, -1] - _target(cs.m))


@dataclass
class ShootResult:
    m: int
    c_star: float
    trajectory: Trajectory
    defect: float
    a_slope: float
    not_hcsck: bool
    phi_prime_end: float
    bracket: Tuple[float, float]
    iterations: int
    scan: ScanResult


def shoot(
    m: int, defect_tol: float = SHOOT_DEFECT_TOL, c_min: float = SHOOT_C_MIN,
    c_max: Optional[float] = None,
) -> ShootResult:
    """Find the C with v(m+1) = 2*(m+1)^2 by Brent's method on the defect.

    The defect decreases strictly in C and is positive at C_h, the A = 0
    value, where it equals the hcscK margin 2*int(phi_h).  By the identity
    defect(C) = L*C + N + 2*int(phi_C), with L < 0 and L*C_h + N = 0, it is
    negative at C_top = C_h + margin/|L|: the root lies in [C_h, C_top].
    c_min and c_max only clip that bracket; NoBracket is raised when the
    clipped bracket is empty or its ends' defects share a sign.  Every solve
    is scalar and at _TOLS, and the trajectory is sampled from the solve at
    c_star, with no solve of its own.  Brent's method stops once
    |defect| < defect_tol, or the bracket is narrower than 1e-12, or after 60
    iterations; c_star is the solved C of least |defect|, and StepFailure is
    raised unless |defect| < defect_tol there.  `iterations` counts the
    solves, the C_h one included, and `scan` holds the solves in the clipped
    bracket in C order.  Requires defect_tol in DEFECT_TOL_RANGE, [1e-10,
    1e-3], and finite c_min < c_max.
    """
    _defect_tol(defect_tol)
    _window(c_min, c_max)
    hcsck = hcsck_coeffs(m)  # validates m
    c_h = float(hcsck.C)
    solves = {}  # C -> (defect, coefficients, solve) of every solve

    def defect(c: float) -> float:
        if c not in solves:
            cs, sol = _integrate(m, c)
            solves[c] = (_defect(cs, sol), cs, sol)
        return solves[c][0]

    c_top = c_h + defect(c_h) / -float(compute_LN(m).L)
    lo, hi = max(c_min, c_h), c_top if c_max is None else min(c_max, c_top)

    def defect_at(c: float) -> float:
        # brentq returns at once on an exact zero: that is how defect_tol
        # ends the search
        return 0.0 if abs(defect(c)) < defect_tol else defect(c)

    def scan() -> ScanResult:
        return ScanResult(m=m, points=tuple(
            ScanPoint(c=c, defect=s[0]) for c, s in sorted(solves.items()) if lo <= c <= hi))

    if not lo < hi or defect_at(lo) * defect_at(hi) > 0.0:
        raise NoBracket(f"no defect sign change for m={m} in C range [{lo:.6g}, {hi:.6g}], "
                        f"the root bracket [{c_h:.6g}, {c_top:.6g}] clipped by c_min and c_max",
                        scan=scan())
    brentq(defect_at, lo, hi, xtol=1e-12, maxiter=60, disp=False)
    c_star = min(solves, key=lambda c: abs(solves[c][0]))
    d_star, cs, sol = solves[c_star]
    # Brent's method also stops on xtol, or unconverged after 60 iterations
    if not abs(d_star) < defect_tol:
        raise StepFailure(f"shooting for m={m} stopped at C={c_star:.12g} with |defect|="
                          f"{abs(d_star):g} after {len(solves)} solves, not below {defect_tol:g}")
    traj = _trajectory(cs, sol)
    if not traj.interior_positive():
        raise StepFailure("shooting solution lost interior positivity (phi <= 0)")
    return ShootResult(
        m=m,
        c_star=c_star,
        trajectory=traj,
        defect=traj.defect,
        a_slope=float(traj.meta.A),
        # A = a1*(C - C_h) with a1 > 0: exact, given phi > 0 checked above
        not_hcsck=traj.meta.C > hcsck.C,
        phi_prime_end=float(traj.phi_prime[-1]),
        bracket=(lo, hi),
        iterations=len(solves),
        scan=scan(),
    )


@dataclass
class NonexistenceReport:
    """Outcome of the constant-lambda (A = 0) run for one m.

    `alt_*` echo an alternative constant set sometimes quoted for the A = 0
    case; it fails p(1) = 2 (see alt_satisfies_boundary) and is reported
    verbatim for comparison, never adopted.  The derived constants give an
    exact zero integral and the strict excess margin below.
    """

    m: int
    coeffs: CoeffSet
    integral: Fraction
    margin: float
    target: float
    alt_B: Fraction
    alt_C: Fraction
    alt_integral: Fraction
    alt_satisfies_boundary: bool


def hcsck_nonexistence(m: int) -> NonexistenceReport:
    """Run the A = 0 initial value problem and report the endpoint excess.

    A constant-lambda solution that closes up would need v(m+1) = 2*(m+1)^2,
    but the integrated v overshoots strictly; the positive margin is the
    numerical face of that contradiction.  The report is returned whatever
    the margin: the caller's margin > 0 is the verdict.
    """
    cs = hcsck_coeffs(m)
    integral = compute_LN(m).lc_plus_n(cs.C)
    margin = _defect(*_integrate(m, cs.C))

    s1 = _hcsck_denominator(m)
    alt_B = -12 / s1
    alt_C = 4 + 8 / s1
    alt_boundary_ok = (alt_B / 2 + alt_C) == 2
    return NonexistenceReport(
        m=m,
        coeffs=cs,
        integral=integral,
        margin=margin,
        target=_target(m),
        alt_B=alt_B,
        alt_C=alt_C,
        alt_integral=Fraction(2),
        alt_satisfies_boundary=alt_boundary_ok,
    )


@dataclass(eq=False)
class ProfileCurve:
    """The profile curve in the arc coordinate s with ds/dgamma = 1/phi.

    s is anchored to zero at gamma_mid = 1 + m/2.  The quadrature excludes
    _CURVE_MARGIN at each endpoint, where 1/phi has a logarithmic singularity
    (phi vanishes linearly there); that divergence is the cylindrical
    geometry of the ends, not an error.
    """

    m: int
    gamma: np.ndarray
    s: np.ndarray
    phi: np.ndarray

    @property
    def tau(self) -> np.ndarray:
        # the Legendre variable itself: f'(s) = tau
        return self.gamma - 1.0

    @property
    def ds_dgamma(self) -> np.ndarray:
        return 1.0 / self.phi

    def s_at(self, gamma: float) -> float:
        if gamma == 1.0 or gamma == float(self.m + 1):
            raise EndpointSingularity(
                f"s diverges logarithmically at gamma={gamma:g}"
            )
        if not self.gamma[0] <= gamma <= self.gamma[-1]:  # NaN too
            raise ValueError(
                f"gamma={gamma:g} outside the covered range "
                f"[{self.gamma[0]:.6g}, {self.gamma[-1]:.6g}]"
            )
        return float(np.interp(gamma, self.gamma, self.s))

    def to_csv(self) -> str:
        return _csv("gamma,tau,s,phi", (self.gamma, self.tau, self.s, self.phi))


def reconstruct_curve(t: Trajectory) -> ProfileCurve:
    """Composite-trapezoid quadrature of s(gamma) = int dgamma/phi on the
    interior grid, excluding _CURVE_MARGIN at both endpoints."""
    if not t.interior_positive():
        raise ValueError("profile curve needs phi > 0 on the open interval")
    g = t.grid
    mask = (g >= 1.0 + _CURVE_MARGIN) & (g <= (t.m + 1) - _CURVE_MARGIN)
    if mask.sum() < 3:
        raise ValueError("margin leaves too few interior points")
    gamma = g[mask]
    phi = t.phi[mask]
    integrand = 1.0 / phi
    ds = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(gamma)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    gamma_mid = 1.0 + t.m / 2.0
    s = s - np.interp(gamma_mid, gamma, s)
    return ProfileCurve(m=t.m, gamma=gamma, s=s, phi=phi)
