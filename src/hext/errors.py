"""Exception types shared across the toolkit, and the argument rules
(_integer, _exact, _finite, _window) that public functions apply before any
work; no other module spells such a rule.

A failed certificate claim, rank-one identity or hcscK margin is not an
error: it is returned as data (CertificateM1, RankOneReport,
NonexistenceReport), and the CLI turns it into a failed summary.
"""
import math
from fractions import Fraction
from typing import Optional


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


class PositivityLost(HextError):
    """The integrated quantity v reached the positivity floor at an accepted step.

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
    """The adaptive step controller failed to make progress."""


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
