"""Exception types shared across the toolkit, and the argument rules
(_integer, _exact, _shooting_c, _window, _defect_tol, _weights) that public
functions apply before any work; no other module spells such a rule.

A failed certificate claim, rank-one identity or hcscK margin is not an
error: it is returned as data (CertificateM1, RankOneReport,
NonexistenceReport), and the CLI turns it into a failed summary.
"""
import math
from fractions import Fraction
from typing import List, Optional


class HextError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(ValueError):
    """An argument outside the domain of a public function, raised before any
    work is done.  The message is one line naming the rule."""


def _integer(what: str, x, lo: int, hi: Optional[int] = None) -> None:
    """InvalidInput unless x is an int, and no bool, with lo <= x (<= hi if given)."""
    if type(x) is not int or x < lo or (hi is not None and x > hi):
        where = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise InvalidInput(f"{what} must be an integer {where}, got {x!r}")


def _exact(c) -> Fraction:
    """c as a Fraction; a bool, a float or any other type raises TypeError."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"{c!r} is neither an int nor a Fraction")
    return Fraction(c)


def _shooting_c(c) -> Fraction:
    """C as a Fraction: a finite float gives its exact binary value, the C the
    shooting loop feeds back, any other float InvalidInput; else as _exact."""
    if isinstance(c, float):
        if not math.isfinite(c):
            raise InvalidInput(f"C must be finite, got {c!r}")
        return Fraction(c)
    return _exact(c)


def _finite(x) -> bool:
    """math.isfinite, with an int too large for a float counted as not finite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _window(lo, hi) -> None:
    """InvalidInput unless lo, and hi if not None, are finite and no bool,
    and lo < hi."""
    if isinstance(lo, bool) or isinstance(hi, bool):
        raise InvalidInput("a C window end must be a number, not a bool")
    if not (_finite(lo) and (hi is None or _finite(hi))):
        raise InvalidInput("the C window must be finite")
    if hi is not None and not lo < hi:
        raise InvalidInput(f"the C window [{lo:.10g}, {hi:.10g}] is empty")


# shoot's defect tolerance: every m = 1..8 converges at 1e-2 and some fail at
# 0.1; above the defects at the bracket edges a tolerance would accept an edge
# as the root.  The floor predates the Taylor solve, which meets 1e-11 at m = 32
DEFECT_TOL_RANGE = (1e-10, 1e-3)


# shoot's defaults, which the CLI's --tol and --c-min take: C_h > 2 for every
# m, so by default the root bracket [C_h, C_top] is not clipped
SHOOT_DEFECT_TOL = 1e-8
SHOOT_C_MIN = -50.0


def _defect_tol(x) -> None:
    """InvalidInput unless x lies in DEFECT_TOL_RANGE (a NaN does not)."""
    if not DEFECT_TOL_RANGE[0] <= x <= DEFECT_TOL_RANGE[1]:
        raise InvalidInput("the defect tolerance must lie in [%g, %g], got %r"
                           % (*DEFECT_TOL_RANGE, x))


def _weights(n: int, weights) -> List[Fraction]:
    """n + 1 distinct torus weights as Fractions (as _exact), or InvalidInput."""
    w = [_exact(x) for x in weights]
    if len(w) != n + 1 or len(set(w)) != n + 1:
        raise InvalidInput(f"need {n + 1} distinct weights, one per coordinate of CP^{n}")
    return w


class PositivityLost(HextError):
    """The integrated quantity v reached the positivity floor at a node of a solve.

    This signals a shooting parameter C that the flow cannot carry to m+1,
    one above the root: below the floor the square-root term is no longer
    Lipschitz and the run is meaningless.
    """

    def __init__(self, gamma: float, c: float, floor: float):
        self.gamma = gamma
        self.c = c
        self.floor = floor
        super().__init__(
            f"v fell below floor {floor:g} at gamma={gamma:.12g} (C={c:.12g})"
        )


class StepFailure(HextError):
    """A solve or a shoot did not give a usable result: v became non-finite
    or its step fell below 10 ulp, the coefficients of C do not fit a float,
    shoot's best |defect| is not below defect_tol, or its solution lost
    interior positivity."""


class NoBracket(HextError):
    """No sign change of the shooting defect was found in the scanned range."""

    def __init__(self, message: str, scan=None):
        self.scan = scan
        super().__init__(message)


class EndpointSingularity(HextError):
    """The arc coordinate diverges logarithmically at the interval endpoints."""


class GeneratorMismatch(HextError):
    """Operands live over different exterior-algebra generator sets."""


class NotInvertible(HextError):
    """Element has zero constant term, hence no inverse in the truncated ring."""


class TruncationMismatch(HextError):
    """Mixed truncation orders are rejected rather than silently coerced."""


class NotIdempotentFamily(HextError):
    """Matrix does not satisfy A@A == a*A exactly."""


class SeriesMismatch(HextError):
    """A generating-series coefficient violated its expected homogeneous form."""
