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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ..errors import (
    CertificateFailure,
    EndpointSingularity,
    InvalidInput,
    NoBracket,
    PositivityLost,
    StepFailure,
)
from .coeffs import (
    EPS_FLOOR,
    CoeffSet,
    Rational,
    _linear_maps,
    admissible_C_max,
    coeffs_from_C,
    compute_LN,
    hcsck_coeffs,
)

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step cap of the DOP853 v-integration.

    The step is capped at m/max_step_divisor; halved() doubles the divisor.
    The cap keeps the defect refinement-stable.  shoot solves one C at a time
    at DEFAULT_CONFIG; only defect_scan solves at SCAN_CONFIG, a batch that
    shares the cap and loosens the tolerances.  Left to the
    tolerance alone, DOP853 takes 7-13 steps and the defect is off by more
    than 10*rel_tol (1.2e-9 at m=7, C=2; 9.3e-9 at m=10, C=-20 even at
    rel_tol=1e-13, against a solve capped at m/128).  With m/32 the defect at the tested points (m, C) = (1, 22/3),
    (1, 2), (5, 2), (7, 2), (10, -20) is within 8.8e-11 of a 30-digit mpmath
    solve and within 8.7e-11 of its halved-cap value, at a few ms a solve.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step_divisor: int = 32

    def halved(self) -> "IntegratorConfig":
        return replace(self, max_step_divisor=self.max_step_divisor * 2)


DEFAULT_CONFIG = IntegratorConfig()

# defect_scan's: the same step cap with looser tolerances reads off defect signs
SCAN_CONFIG = replace(DEFAULT_CONFIG, rel_tol=1e-8, abs_tol=1e-10)

GRID_POINTS = 1025  # uniform samples of the dense output in a Trajectory

# a scan holds one v per point in one solve: 4096 points take about 4 s at
# m = 1 when every C overflows, and far more would not fit in memory
MAX_SCAN_STEPS = 4096

# a solve whose v reaches this floor at an accepted step raises PositivityLost;
# admissible C (L*C + N >= -2 + EPS_FLOOR) keeps v well above it
V_FLOOR = 1e-9


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
        a, b, c = self.meta.float_abc()
        g = self.grid
        return ((a / 3.0 * g + b / 2.0) * g * g + c) * g

    @property
    def phi_prime(self) -> np.ndarray:
        # 2*gamma + phi = sqrt(2 v) > 0 everywhere on a valid trajectory
        return self.q_values() / np.sqrt(2.0 * self.v)

    @property
    def lambda_values(self) -> np.ndarray:
        a, b, _ = self.meta.float_abc()
        return a * self.grid + b

    @property
    def defect(self) -> float:
        return float(self.v[-1] - 2.0 * (self.m + 1) ** 2)

    def interior_positive(self) -> bool:
        """phi > 0 at all interior grid points, equivalently v > 2*gamma^2."""
        g = self.grid[1:-1]
        return bool(np.all(self.v[1:-1] > 2.0 * g * g))

    def to_csv(self) -> str:
        """CSV with header gamma,v,phi,phi_prime,lambda; 17 significant digits."""
        return _csv("gamma,v,phi,phi_prime,lambda",
                    (self.grid, self.v, self.phi, self.phi_prime, self.lambda_values))


def _csv(header: str, cols) -> str:
    """The header, then one line of %.17g values per row of cols, LF-terminated."""
    row = ",".join(["%.17g"] * len(cols)).__mod__
    return "\n".join([header, *map(row, zip(*(c.tolist() for c in cols)))]) + "\n"


def _solve(rhs, m: int, v0, cfg: IntegratorConfig, dense_output: bool = False):
    """DOP853 from gamma = 1 to m+1 under the tolerances and step cap of cfg.
    An overflowing C fails its solve, which is reported: numpy need not warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(rhs, (1.0, float(m + 1)), v0, method="DOP853", rtol=cfg.rel_tol,
                         atol=cfg.abs_tol, max_step=m / cfg.max_step_divisor,
                         dense_output=dense_output)


def _lost(sol, i: int, c: float) -> None:
    """Raise PositivityLost at the first accepted step where component i of
    sol is at or below V_FLOOR.  A floor event would catch no more: scipy
    finds events only from the signs at consecutive accepted steps."""
    lost = sol.y[i] <= V_FLOOR
    if lost.any():
        raise PositivityLost(gamma=float(sol.t[lost.argmax()]), c=float(c), floor=V_FLOOR)


def _integrate(m: int, C: Rational, cfg: IntegratorConfig, dense_output: bool):
    """integrate_v's coefficients and checked solve; dense output leaves the steps as they are."""
    cs = coeffs_from_C(m, C)  # validates m
    try:
        a, b, c = cs.float_abc()
    except OverflowError:
        raise StepFailure(f"m={m}, C={C}: the coefficients do not fit a float") from None

    def rhs(t, y):
        v = y[0]
        root = math.sqrt(v) if v > 0.0 else 0.0
        return (TWO_SQRT2 * root + ((a / 3.0 * t + b / 2.0) * t * t + c) * t,)

    sol = _solve(rhs, m, [2.0], cfg, dense_output)
    _lost(sol, 0, c)
    if sol.status < 0:
        raise StepFailure(f"integration failed: {sol.message}")
    return cs, sol


def integrate_v(m: int, C: Rational, config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Integrate v' = 2*sqrt(2)*sqrt(v) + q(gamma) from v(1) = 2 to gamma = m+1.

    v is sampled from the dense output on GRID_POINTS uniform points, except
    v(m+1), the solver's own endpoint value.  Raises PositivityLost if v
    reaches V_FLOOR (the signature of an inadmissible C), even when the
    solver gave up later, and StepFailure if the solver gives up before.
    """
    cs, sol = _integrate(m, C, config or DEFAULT_CONFIG, dense_output=True)
    grid = np.linspace(1.0, float(m + 1), GRID_POINTS)
    v = sol.sol(grid)[0]
    v[0], v[-1] = 2.0, sol.y[0, -1]  # the exact initial value, the solver's endpoint
    return Trajectory(grid=grid, v=v, meta=cs)


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


@dataclass(frozen=True)
class ScanResult:
    m: int
    points: Tuple[ScanPoint, ...]

    @property
    def brackets(self) -> List[Tuple[float, float]]:
        """Adjacent C pairs whose defects change sign."""
        return [
            (lo.c, hi.c)
            for lo, hi in zip(self.points, self.points[1:])
            if lo.defect is not None and hi.defect is not None
            and (lo.defect == 0.0 or lo.defect * hi.defect < 0.0)
        ]


def _solve_defects(m: int, cs: np.ndarray, cfg: IntegratorConfig) -> Tuple[ScanPoint, ...]:
    """Defects at every C in `cs` from one solve_ivp call holding one v per C.

    Positivity is checked per component by _lost: a C whose v reaches
    V_FLOOR is reported as that point's error.  Below zero the square root
    is taken of 0, so such a v stays smooth and does not shrink the shared
    step.  A failed solve, or a C whose exact A or B does not fit a float, is
    split in halves until it is down to single C.
    """
    # the exact affine maps C -> A, B of coeffs_from_C, rounded once per C
    a1, a0, b1, b0 = _linear_maps(m)
    exact = [Fraction(float(x)) for x in cs]
    c = np.array([float(x) for x in exact])

    def rhs(t, v):
        q = ((a3 * t + b2) * t * t + c) * t
        return TWO_SQRT2 * np.sqrt(np.maximum(v, 0.0)) + q

    try:
        a3 = np.array([float(a1 * x + a0) for x in exact]) / 3.0
        b2 = np.array([float(b1 * x + b0) for x in exact]) / 2.0
    except OverflowError:
        error = f"m={m}, C={cs[0]}: the coefficients do not fit a float"
    else:
        sol = _solve(rhs, m, np.full(len(cs), 2.0), cfg)
        error = f"integration failed: {sol.message}" if sol.status < 0 else None
    if error and len(cs) > 1:  # halve the batch to isolate the failing C
        half = len(cs) // 2
        return _solve_defects(m, cs[:half], cfg) + _solve_defects(m, cs[half:], cfg)
    if error:
        return (ScanPoint(c=float(cs[0]), defect=None, error=error),)
    points = []
    for i, x in enumerate(cs):
        try:
            _lost(sol, i, x)
        except PositivityLost as exc:
            points.append(ScanPoint(c=float(x), defect=None, error=str(exc)))
        else:
            points.append(ScanPoint(c=float(x), defect=float(sol.y[i, -1] - 2.0 * (m + 1) ** 2)))
    return tuple(points)


def _finite(x: float) -> bool:
    """math.isfinite, with an int too large for a float counted as not finite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def defect_scan(m: int, C_lo: float, C_hi: float, steps: int) -> ScanResult:
    """Defect at `steps` evenly spaced C over a finite window C_lo < C_hi whose
    top lies in the admissible window, solved as one batch at SCAN_CONFIG;
    requires 2 <= steps <= MAX_SCAN_STEPS.  Integrator errors are recorded
    per point, not raised."""
    c_max = float(admissible_C_max(m, EPS_FLOOR))  # validates m
    if not (_finite(C_lo) and _finite(C_hi)):
        raise InvalidInput("the C window must be finite")
    if C_hi > c_max + 1e-9:
        raise InvalidInput(
            f"the C window's upper end {C_hi:g} exceeds the admissible maximum {c_max:.12g}"
        )
    if not C_lo < C_hi:
        raise InvalidInput(f"the C window [{C_lo:g}, {C_hi:.10g}] is empty")
    if type(steps) is not int or not 2 <= steps <= MAX_SCAN_STEPS:
        raise InvalidInput(f"the number of scan points must be an integer in 2..{MAX_SCAN_STEPS}, got {steps!r}")
    cs = np.linspace(C_lo, C_hi, steps)
    return ScanResult(m=m, points=_solve_defects(m, cs, SCAN_CONFIG))


def _defect(m: int, C: Rational) -> float:
    """v(m+1) - 2*(m+1)^2 from one endpoint-only solve at DEFAULT_CONFIG."""
    _, sol = _integrate(m, C, DEFAULT_CONFIG, dense_output=False)
    return float(sol.y[0, -1] - 2.0 * (m + 1) ** 2)  # as Trajectory.defect


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
    m: int, defect_tol: float = 1e-8, c_min: float = -50.0, c_max: Optional[float] = None
) -> ShootResult:
    """Find the C with v(m+1) = 2*(m+1)^2 by Brent's method on the defect.

    The defect decreases strictly in C and is positive at C_h, the A = 0
    value, where it equals the hcscK margin 2*int(phi_h).  By the identity
    defect(C) = L*C + N + 2*int(phi_C), with L < 0 and L*C_h + N = 0, it is
    negative at C_top = C_h + margin/|L|: the root lies in [C_h, C_top].
    c_min and c_max only clip that bracket; NoBracket is raised when the
    clipped bracket is empty or its ends' defects share a sign.  Every solve
    is scalar, endpoint-only and at DEFAULT_CONFIG.  Brent's method stops once
    |defect| < defect_tol, or the bracket is narrower than 1e-12, or after 60
    iterations; c_star is the solved C of least |defect|, and StepFailure is
    raised unless |defect| < defect_tol there.  `iterations` counts the
    solves, the C_h one included, and `scan` holds the solves in the clipped
    bracket in C order.  Requires 0 < defect_tol <= 1e-3, finite c_min < c_max.
    """
    # every m = 1..8 converges at 1e-2 and some fail at 0.1; above the defects
    # at the bracket edges a tolerance would accept an edge as the root
    if not 0 < defect_tol <= 1e-3:
        raise InvalidInput(f"the defect tolerance must lie in (0, 1e-3], got {defect_tol!r}")
    if not (_finite(c_min) and (c_max is None or _finite(c_max))):
        raise InvalidInput("the C window must be finite")
    if c_max is not None and not c_min < c_max:
        raise InvalidInput(f"the C window [{c_min:g}, {c_max:g}] is empty")
    c_h = float(hcsck_coeffs(m).C)  # validates m
    solves = {c_h: _defect(m, c_h)}  # C -> defect of every endpoint solve
    c_top = c_h + solves[c_h] / -float(compute_LN(m).L)
    lo, hi = max(c_min, c_h), c_top if c_max is None else min(c_max, c_top)

    def defect_at(c: float) -> float:
        if c not in solves:
            solves[c] = _defect(m, c)
        # brentq returns at once on an exact zero: that is how defect_tol
        # ends the search
        return 0.0 if abs(solves[c]) < defect_tol else solves[c]

    def scan() -> ScanResult:
        return ScanResult(m=m, points=tuple(
            ScanPoint(c=c, defect=d) for c, d in sorted(solves.items()) if lo <= c <= hi))

    if not lo < hi or defect_at(lo) * defect_at(hi) > 0.0:
        raise NoBracket(f"no defect sign change for m={m} in C range [{lo:.6g}, {hi:.6g}], "
                        f"the root bracket [{c_h:.6g}, {c_top:.6g}] clipped by c_min and c_max",
                        scan=scan())
    brentq(defect_at, lo, hi, xtol=1e-12, maxiter=60, disp=False)
    c_star, defect = min(solves.items(), key=lambda s: abs(s[1]))
    # Brent's method also stops on xtol, or unconverged after 60 iterations
    if not abs(defect) < defect_tol:
        raise StepFailure(f"shooting for m={m} stopped at C={c_star:.12g} with |defect|="
                          f"{abs(defect):g} after {len(solves)} solves, not below {defect_tol:g}")
    traj = integrate_v(m, c_star)
    if not traj.interior_positive():
        raise StepFailure("shooting solution lost interior positivity (phi <= 0)")
    return ShootResult(
        m=m,
        c_star=c_star,
        trajectory=traj,
        defect=traj.defect,
        a_slope=float(traj.meta.A),
        # A = a1*(C - C_h) with a1 > 0: exact, given phi > 0 checked above
        not_hcsck=traj.meta.C > hcsck_coeffs(m).C,
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
    numerical face of that contradiction.
    """
    cs = hcsck_coeffs(m)
    integral = compute_LN(m).lc_plus_n(cs.C)
    margin = _defect(m, cs.C)

    s1 = Fraction((m + 1) ** 2 - 1)
    alt_B = -12 / s1
    alt_C = 4 + 8 / s1
    alt_boundary_ok = (alt_B / 2 + alt_C) == 2

    if not margin > 0.0:
        raise CertificateFailure("hcsck_margin", None)
    return NonexistenceReport(
        m=m,
        coeffs=cs,
        integral=integral,
        margin=margin,
        target=2.0 * (m + 1) ** 2,
        alt_B=alt_B,
        alt_C=alt_C,
        alt_integral=Fraction(2),
        alt_satisfies_boundary=alt_boundary_ok,
    )


class ProfileCurve:
    """The profile curve in the arc coordinate s with ds/dgamma = 1/phi.

    s is anchored to zero at gamma_mid = 1 + m/2.  The quadrature excludes a
    margin at each endpoint where 1/phi has a logarithmic singularity (phi
    vanishes linearly there); that divergence is the cylindrical geometry of
    the ends, not an error.
    """

    def __init__(self, m: int, gamma: np.ndarray, s: np.ndarray, phi: np.ndarray, margin: float):
        self.m = m
        self.gamma = gamma
        self.s = s
        self.phi = phi
        self.margin = margin

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


def reconstruct_curve(t: Trajectory, margin: float = 1e-3) -> ProfileCurve:
    """Composite-trapezoid quadrature of s(gamma) = int dgamma/phi on the
    interior grid, excluding `margin` at both endpoints."""
    if not t.interior_positive():
        raise ValueError("profile curve needs phi > 0 on the open interval")
    if margin <= 0:
        raise ValueError("endpoint margin must be positive")
    g = t.grid
    mask = (g >= 1.0 + margin) & (g <= (t.m + 1) - margin)
    if mask.sum() < 3:
        raise ValueError("margin leaves too few interior points")
    gamma = g[mask]
    phi = t.phi[mask]
    integrand = 1.0 / phi
    ds = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(gamma)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    gamma_mid = 1.0 + t.m / 2.0
    s = s - np.interp(gamma_mid, gamma, s)
    return ProfileCurve(m=t.m, gamma=gamma, s=s, phi=phi, margin=margin)
