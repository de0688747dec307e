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
from functools import cached_property, lru_cache
from itertools import chain
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import (
    SHOOT_DEFECT_TOL,
    NoBracket,
    PositivityLost,
    StepFailure,
    _class_index,
    _defect_tol,
    _integer,
    _scan_window,
    _window,
)
from .coeffs import CoeffSet, Rational, _linear_maps, coeffs_from_C, compute_LN, hcsck_coeffs

TWO_SQRT2 = 2.0 * math.sqrt(2.0)

# Every solve is a Taylor method (Jorba & Zou, Exp. Math. 14 (2005)): at each
# node v is expanded to order _ORDER, and the step is _SAFETY times the
# smaller of the two at which the last two terms reach _TOL * max(1, |v|).
# At C*_ref for m = 1..8 a solve takes 6-12 steps, |defect| <= 1.5e-13.
_ORDER = 20
_TOL = 1e-12
_SAFETY = 0.7
_CURVE_MARGIN = 1e-3  # cut from each end of a profile curve, where s diverges

GRID_POINTS = 1025  # uniform samples of the step polynomials in a Trajectory

# a scan holds per C only its node, v and v's Taylor coefficients there:
# 4096 points at m = 8 take 0.037-0.039 s over [-10, 8] and 0.054-0.058 s
# over [2.2, 50] (all C above the root) and allocate at most 2.9 MB, on a
# 2-vCPU Xeon VM
MAX_SCAN_STEPS = 4096

# a solve whose v reaches this floor at a node raises PositivityLost; as v
# decreases in C and is >= 2*gamma^2 at the root, only a C above it can
V_FLOOR = 1e-9


def _target(m: int) -> float:
    """The closing value v(m+1) = 2*(m+1)^2 of a smooth profile."""
    return 2.0 * (m + 1) ** 2


@lru_cache(maxsize=128)
def _int_maps(m: int) -> Tuple[int, ...]:
    """u1, u0, w for A(C), then for B(C): at C = p/r each is (u1*p + u0*r) / (w*r)."""
    a1, a0, b1, b0 = _linear_maps(m)
    return (a1.numerator * a0.denominator, a0.numerator * a1.denominator, a1.denominator * a0.denominator,
            b1.numerator * b0.denominator, b0.numerator * b1.denominator, b1.denominator * b0.denominator)


def _abc(m: int, C) -> List[float]:
    """A, B and C of coeffs_from_C(m, C) in floats, for a valid m and C, as
    every solve and Trajectory takes them: each is one int / int, which
    Python rounds correctly, so the float of the exact value (C = -0.0 gives
    0.0, as float(Fraction(-0.0))), and StepFailure where that does not fit."""
    ua1, ua0, wa, ub1, ub0, wb = _int_maps(m)
    try:
        p, r = C.as_integer_ratio()
        return [(ua1 * p + ua0 * r) / (wa * r), (ub1 * p + ub0 * r) / (wb * r), p / r]
    except OverflowError:
        raise StepFailure(f"m={m}, C={C}: the coefficients do not fit a float") from None


def _q(a, b, c, t):
    """q_k / (k+1), k = 0..4, for the Taylor coefficients q_k at gamma = t of
    q = a/3*gamma^4 + b/2*gamma^3 + c*gamma (the first is q(t)), in floats or
    arrays of one per C: every solve and Trajectory.q_values round q alike."""
    a3, b2 = a / 3.0, b / 2.0
    u = 2.0 * a3 * t
    return [((a3 * t + b2) * t * t + c) * t, ((u + 1.5 * b2) * t) * t + 0.5 * c, (u + b2) * t,
            a3 * t + 0.25 * b2, a3 / 5.0]


# v_{k+1} = _RISE[k]*s_k + q_k/(k+1): the factor 2*sqrt(2)/(k+1) of s_k
_RISE = [TWO_SQRT2 / (k + 1) for k in range(_ORDER)]


def _compiled_taylor():
    """_taylor(v0, q, sqrt=math.sqrt): v's Taylor coefficients v_0.._ORDER at
    a node where v = v0 > 0 and _q gives q, for a float or an array of one
    node per C (with np.sqrt): each column takes its float's operations, so
    it is that float bit for bit.  s = sqrt(v) has
    s_k = (v_k - sum_{j=1}^{k-1} s_j s_{k-j})/(2 s_0), the sum taken as
    s_1 s_{k-1}, plus s_j s_{k-j} for each 1 < j < k-j, then for k > 2
    doubled, plus s_{k/2}^2 for even k, one term at a time into one
    accumulator; then v_{k+1} = (2*sqrt(2)*s_k + q_k)/(k+1).  It is compiled
    once per process (0.7-1.3 ms) as straight-line code, s_k and v_k locals
    and the _RISE factors literals (repr gives a float back exactly): a
    float node takes 3.2-4.2 us against 10.3-12.1 us as a loop over list
    indices (2-vCPU Xeon VM; Jorba & Zou generate their jet code likewise)."""
    lines = ["def _taylor(v0, q, sqrt=math.sqrt):",
             "    q0, q1, q2, q3, q4 = q",  # _q's five terms of the quartic q
             "    s0 = sqrt(v0)",
             "    two_s0 = s0 + s0"]
    for k in range(_ORDER):
        if k == 1:
            lines.append("    s1 = v1 / two_s0")
        elif k > 1:
            lines.append(f"    acc = s1 * s{k - 1}")  # a fresh array, so += updates it in place
            lines += [f"    acc += s{j} * s{k - j}" for j in range(2, (k + 1) // 2)]
            if k > 2:  # at k = 2, s_1^2 is the whole sum
                lines.append("    acc += acc")
                if k % 2 == 0:
                    lines.append(f"    acc += s{k // 2} * s{k // 2}")
            lines.append(f"    s{k} = (v{k} - acc) / two_s0")
        lines.append(f"    v{k + 1} = {_RISE[k]!r} * s{k}" + (f" + q{k}" if k < 5 else ""))
    lines.append(f"    return [{', '.join(f'v{k}' for k in range(_ORDER + 1))}]")
    namespace = {"math": math}
    exec(compile("\n".join(lines), "<hext _taylor>", "exec"), namespace)
    return namespace["_taylor"]


_taylor = _compiled_taylor()


# a node's step is _SAFETY times the least (|v_k| / tol)^(-1/k), k = K-1, K,
# tol = _TOL * max(1, v_0); both solves take numpy's power, which differs from
# Python's in the last bit for ~5% of arguments (numpy 2.4.6, AVX-512 Xeon): a
# solve repeats bit for bit per machine and numpy build, untested across CPUs
_POWERS = np.array([-1.0 / (_ORDER - 1), -1.0 / _ORDER])


def _horner(v, h):
    """sum_k v[k] * h^k by Horner's rule, for floats or arrays."""
    y = v[-1] * h
    for x in v[-2:0:-1]:
        y += x
        y *= h
    return y + v[0]


def _checked(v: float, gamma: float, c: float) -> float:
    """v where a solve of C = c stopped, at gamma, unless it is at or below
    V_FLOOR (PositivityLost) or not finite, as a failed step leaves it."""
    if v <= V_FLOOR:
        raise PositivityLost(gamma=gamma, c=c, floor=V_FLOOR)
    if not v < math.inf:
        raise StepFailure(f"integration failed at gamma={gamma:.12g} (C={c:.12g}): "
                          "v is not finite or its step is below 10 ulp")
    return v


class Trajectory:
    """A sampled solution v(gamma) of the reduced problem.

    The grid spans [1, m+1] strictly increasingly, v(1) = 2 exactly, and
    v > 0 at every grid point (anything else is an error, not a Trajectory);
    both are read-only copies.  phi is given pointwise by v = (2*gamma + phi)^2 / 2.
    """

    def __init__(self, grid: np.ndarray, v: np.ndarray, meta: CoeffSet):
        grid = np.array(grid, dtype=float)
        v = np.array(v, dtype=float)
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
        grid.flags.writeable = v.flags.writeable = False  # to_csv formats gamma and phi once
        self.grid, self.v = grid, v
        self.meta = meta

    @property
    def m(self) -> int:
        return self.meta.m

    @property
    def phi(self) -> np.ndarray:
        return np.sqrt(2.0 * self.v) - 2.0 * self.grid

    def q_values(self) -> np.ndarray:
        return _q(*_abc(self.m, self.meta.C), self.grid)[0]

    @property
    def phi_prime(self) -> np.ndarray:
        # 2*gamma + phi = sqrt(2 v) > 0 everywhere on a valid trajectory
        return self.q_values() / np.sqrt(2.0 * self.v)

    @property
    def lambda_values(self) -> np.ndarray:
        a, b, _ = _abc(self.m, self.meta.C)
        return a * self.grid + b

    @property
    def defect(self) -> float:
        return float(self.v[-1] - _target(self.m))

    def interior_positive(self) -> bool:
        """phi > 0 at all interior grid points, equivalently v > 2*gamma^2."""
        g = self.grid[1:-1]
        return bool(np.all(self.v[1:-1] > 2.0 * g * g))

    @cached_property
    def _text(self) -> Tuple[List[str], List[str]]:
        """gamma and phi in %.17g, formatted once for both CSVs."""
        return tuple(list(map("%.17g".__mod__, c.tolist())) for c in (self.grid, self.phi))

    def to_csv(self) -> str:
        """CSV with header gamma,v,phi,phi_prime,lambda; 17 significant digits."""
        gamma, phi = self._text
        return _csv("gamma,v,phi,phi_prime,lambda", (gamma, self.v, phi, self.phi_prime, self.lambda_values))


def _csv(header: str, cols) -> str:
    """The header, then an LF-terminated line per row of cols: float arrays in %.17g, lists as text.

    Formatting the floats is the whole cost.  Per value no byte-identical way
    is faster in pure Python (5 x 1025 values, 2-vCPU Xeon VM): '%.17g' % x
    takes 540-910 ns, repr (other bytes) 830-1070, astype("U25") 1290-1540 and
    np.char.mod 1350-1470; one % for the whole file takes 15% less than a % a row."""
    fmt = ",".join(["%s" if isinstance(c, list) else "%.17g" for c in cols]) + "\n"
    rows = zip(*(c if isinstance(c, list) else c.tolist() for c in cols))
    return f"{header}\n" + fmt * len(cols[0]) % tuple(chain.from_iterable(rows))


class _Steps(NamedTuple):
    """A scalar solve: its nodes t, v's coefficients at each step's first
    node, and v at the last node, where the solve stopped."""
    t: List[float]
    coeffs: List[List[float]]
    v_end: float


def _solve(m: int, a: float, b: float, c: float) -> _Steps:
    """v' = 2*sqrt(2)*sqrt(v) + q(gamma) from v(1) = 2 in floats, q of float
    coefficients a, b, c, until m+1 or a node where v is not in (V_FLOOR,
    inf); a step below 10 ulp of gamma stops it with v = NaN."""
    t, v, t_end = 1.0, 2.0, float(m + 1)
    ts, coeffs = [t], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while V_FLOOR < v < math.inf and t < t_end:
            k = _taylor(v, _q(a, b, c, t))
            tol = _TOL * max(1.0, v)
            h1, h2 = np.power([abs(k[-2]) / tol, abs(k[-1]) / tol], _POWERS).tolist()
            h = _SAFETY * (h1 if h1 <= h2 else h2 if h2 <= h1 else math.nan)  # NaN as np.minimum
            if not h >= 10 * (math.nextafter(t, math.inf) - t):
                v = math.nan
                break
            h, t = (t_end - t, t_end) if h >= t_end - t else (h, t + h)
            v = _horner(k, h)
            ts.append(t)
            coeffs.append(k)
    return _Steps(ts, coeffs, v)


def _solve_batch(m: int, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """_solve for arrays of coefficient sets, one column per C: per column v
    and gamma where it stops.  Each column steps on its own nodes through the
    same _q, _taylor and _horner as _solve, so it is its scalar solve bit for
    bit."""
    n, t_end = len(c), float(m + 1)
    v_at, t_at = np.full(n, np.nan), np.full(n, np.nan)
    col, t, v = np.arange(n), np.ones(n), np.full(n, 2.0)
    with np.errstate(all="ignore"):
        while col.size:
            go = (V_FLOOR < v) & (v < np.inf) & (t < t_end)
            if not go.all():
                stop = ~go
                v_at[col[stop]], t_at[col[stop]] = v[stop], t[stop]
                col, t, v, a, b, c = (x[go] for x in (col, t, v, a, b, c))
                if not col.size:
                    break
            k = _taylor(v, _q(a, b, c, t), np.sqrt)
            tol = _TOL * np.maximum(1.0, v)
            h = _SAFETY * np.minimum(np.power(np.abs(k[-2]) / tol, _POWERS[0]),
                                     np.power(np.abs(k[-1]) / tol, _POWERS[1]))
            failed = ~(h >= 10 * (np.nextafter(t, np.inf) - t))
            h[failed] = 0.0  # the column stops at this node with v = NaN, as _solve does
            room = t_end - t
            last = h >= room
            t = np.where(last, t_end, t + h)
            v = _horner(k, np.where(last, room, h))
            v[failed] = np.nan
    return v_at, t_at


def _integrate(m: int, C: Rational) -> _Steps:
    """integrate_v's checked solve, for a valid m and C."""
    a, b, c = _abc(m, C)
    sol = _solve(m, a, b, c)
    _checked(sol.v_end, sol.t[-1], c)
    return sol


def _trajectory(cs: CoeffSet, sol: _Steps) -> Trajectory:
    """The Trajectory of a checked solve, as integrate_v describes it."""
    grid = np.linspace(1.0, float(cs.m + 1), GRID_POINTS)
    t = np.array(sol.t)
    # a grid point on a node is taken from the step ending there
    seg = np.clip(np.searchsorted(t, grid, side="left") - 1, 0, len(sol.coeffs) - 1)
    v = _horner(np.array(sol.coeffs)[seg].T, grid - t[seg])
    v[0], v[-1] = 2.0, sol.v_end  # the exact initial value, the solver's endpoint
    return Trajectory(grid=grid, v=v, meta=cs)


def integrate_v(m: int, C: Rational) -> Trajectory:
    """Integrate v' = 2*sqrt(2)*sqrt(v) + q(gamma) from v(1) = 2 to gamma = m+1.

    v is sampled from the step polynomials on GRID_POINTS uniform points,
    except v(m+1), the solver's own endpoint value.  Raises PositivityLost
    if v reaches V_FLOOR at a node (a C the flow cannot carry to m+1), and
    StepFailure if v is not finite at a node or its step falls below 10 ulp,
    or if the coefficients of C do not fit a float.
    """
    return _trajectory(coeffs_from_C(m, C), _integrate(m, C))  # coeffs_from_C validates m and C


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
    """Defects at every C in `cs` from one _solve_batch, whose columns run the
    scalar solve's recursion on the scalar solve's coefficients, from _abc:
    a lost or failed C leaves the batch without changing another C's steps,
    so every point is its scalar solve bit for bit, with that solve's error
    text if it is lost (v reaches V_FLOOR at a node) or failed."""
    cs = cs.tolist()
    abc, unfit = np.full((len(cs), 3), np.nan), [None] * len(cs)
    for i, x in enumerate(cs):
        try:
            abc[i] = _abc(m, x)
        except StepFailure as exc:  # a NaN row, which the batch fails at its first node
            unfit[i] = exc
    v, gamma = _solve_batch(m, *abc.T)

    def point(x, failure, v, gamma):
        try:
            if failure:
                raise failure
            return ScanPoint(c=x, defect=_checked(v, gamma, x) - _target(m))
        except (PositivityLost, StepFailure) as exc:
            return ScanPoint(c=x, defect=None, error=str(exc), lost=isinstance(exc, PositivityLost))

    return tuple(map(point, cs, unfit, v.tolist(), gamma.tolist()))


def defect_scan(m: int, C_lo: float, C_hi: float, steps: int) -> ScanResult:
    """Defect at `steps` evenly spaced C over a finite window C_lo < C_hi of
    finite width, solved as one batch with the solver of every scalar solve;
    requires 2 <= steps <= MAX_SCAN_STEPS.  Integrator errors are recorded
    per point, not raised: a C whose v reaches V_FLOOR, which lies above the
    root, is a PositivityLost point."""
    _class_index(m)
    C_lo, C_hi = _scan_window(C_lo, C_hi)
    _integer("the number of scan points", steps, 2, MAX_SCAN_STEPS)
    return ScanResult(m=m, points=_solve_defects(m, np.linspace(C_lo, C_hi, steps)))


def _defect(m: int, sol: _Steps) -> float:
    """v(m+1) - 2*(m+1)^2 at the endpoint of sol, as Trajectory.defect."""
    return float(sol.v_end - _target(m))


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
    m: int, defect_tol: float = SHOOT_DEFECT_TOL, c_min: Optional[float] = None,
    c_max: Optional[float] = None,
) -> ShootResult:
    """Find the C with v(m+1) = 2*(m+1)^2 by false position on the defect.

    The defect decreases strictly in C and is positive at C_h, the A = 0
    value, where it equals the hcscK margin 2*int(phi_h).  By the identity
    defect(C) = L*C + N + 2*int(phi_C), with L < 0 and L*C_h + N = 0, it is
    negative at C_top = C_h + margin/|L|: the root lies in [C_h, C_top].
    c_min and c_max only clip that bracket (None: no clip); NoBracket is
    raised when the clipped bracket is empty or both ends' defects share a
    sign and miss defect_tol.  Every solve is scalar, and the trajectory is
    sampled from the step polynomials of the solve at c_star.  The root loop
    stops once a solve has |defect| < defect_tol, or the bracket is narrower
    than 1e-12, or after 60 steps; c_star is the solved C of least |defect|,
    and StepFailure is raised unless |defect| < defect_tol there; the float
    spacing of C bounds |defect|: 1e-8 first fails at m = 158, where 1e-7 holds.
    `iterations` counts the solves, the C_h one included, and `scan` holds
    the solves in the clipped bracket in C order.  Requires defect_tol in
    DEFECT_TOL_RANGE, [1e-10, 1e-3], and finite c_min < c_max where given.
    """
    defect_tol = _defect_tol(defect_tol)
    c_min, c_max = _window(c_min, c_max)
    hcsck = hcsck_coeffs(m)  # validates m
    c_h = float(hcsck.C)
    solves = {}  # C -> (defect, solve) of every solve

    def defect(c: float) -> float:
        if c not in solves:
            sol = _integrate(m, c)
            solves[c] = (_defect(m, sol), sol)
        return solves[c][0]

    c_top = c_h + defect(c_h) / -float(compute_LN(m).L)
    lo, hi = max(c_min, c_h), min(c_max, c_top)

    def scan() -> ScanResult:
        return ScanResult(m=m, points=tuple(
            ScanPoint(c=c, defect=s[0]) for c, s in sorted(solves.items()) if lo <= c <= hi))

    if lo < hi:
        a, fa, b, fb = lo, defect(lo), hi, defect(hi)
    if not lo < hi or fa * fb > 0.0 and min(abs(fa), abs(fb)) >= defect_tol:
        raise NoBracket(f"no defect sign change for m={m} in C range [{lo:.6g}, {hi:.6g}], "
                        f"the root bracket [{c_h:.6g}, {c_top:.6g}] clipped by c_min and c_max",
                        scan=scan())
    # Anderson-Bjorck false position (BIT 13, 1973): b is the last solve, and
    # fa, a's defect, is scaled down while a is kept; defect(a) is unscaled
    for _ in range(60):
        if abs(b - a) < 1e-12 or min(abs(defect(a)), abs(fb)) < defect_tol:
            break
        c = b - fb * (b - a) / (fb - fa)
        fc = defect(c)
        if fc * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 1.0 - fc / fb if fc / fb < 1.0 else 0.5
        b, fb = c, fc
    c_star = min(solves, key=lambda c: abs(solves[c][0]))
    d_star, sol = solves[c_star]
    if not abs(d_star) < defect_tol:  # the next float C toward the root shows if C's spacing is at fault
        step = abs(_integrate(m, math.nextafter(c_star, math.copysign(math.inf, d_star))).v_end - sol.v_end)
        note = f" (one float step of C moves it by {step:.2g})" if step >= defect_tol else ""
        raise StepFailure(f"shooting for m={m} stopped at C={c_star:.12g} with |defect|={abs(d_star):g}"
                          f"{note} after {len(solves)} solves, not below {defect_tol:g}")
    traj = _trajectory(coeffs_from_C(m, c_star), sol)
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
    margin = _defect(m, _integrate(m, cs.C))

    s1 = Fraction((m + 1) ** 2 - 1)  # the quoted set's denominator, as it writes it
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
    geometry of the ends, not an error.  m, gamma and phi are the
    trajectory's, on the grid rows the curve keeps.
    """

    s: np.ndarray
    trajectory: Trajectory
    rows: slice

    @property
    def m(self) -> int:
        return self.trajectory.m

    @property
    def gamma(self) -> np.ndarray:
        return self.trajectory.grid[self.rows]

    @property
    def phi(self) -> np.ndarray:
        return self.trajectory.phi[self.rows]

    @property
    def tau(self) -> np.ndarray:
        # the Legendre variable itself: f'(s) = tau
        return self.gamma - 1.0

    def to_csv(self) -> str:
        gamma, phi = self.trajectory._text
        return _csv("gamma,tau,s,phi", (gamma[self.rows], self.tau, self.s, phi[self.rows]))


def reconstruct_curve(t: Trajectory) -> ProfileCurve:
    """Composite-trapezoid quadrature of s(gamma) = int dgamma/phi on the
    interior grid, excluding _CURVE_MARGIN at both endpoints."""
    if not t.interior_positive():
        raise ValueError("profile curve needs phi > 0 on the open interval")
    g = t.grid
    rows = slice(np.searchsorted(g, 1 + _CURVE_MARGIN), np.searchsorted(g, t.m + 1 - _CURVE_MARGIN, "right"))
    if rows.stop - rows.start < 3:
        raise ValueError("margin leaves too few interior points")
    gamma, phi = g[rows], t.phi[rows]
    integrand = 1.0 / phi
    ds = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(gamma)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    gamma_mid = 1.0 + t.m / 2.0
    s = s - np.interp(gamma_mid, gamma, s)
    return ProfileCurve(s=s, trajectory=t, rows=rows)
