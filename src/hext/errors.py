"""Exception types shared across the toolkit.

A failed certificate claim, rank-one identity or hcscK margin is not an
error: it is returned as data (CertificateM1, RankOneReport,
NonexistenceReport), and the CLI turns it into a failed summary.
"""


class HextError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(ValueError):
    """An argument outside the domain of a public function, raised before any
    work is done.  The message is one line naming the rule."""


class PositivityLost(HextError):
    """The integrated quantity v reached the positivity floor at an accepted step.

    This signals an inadmissible shooting parameter: below the floor the
    square-root term is no longer Lipschitz and the run is meaningless.
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
