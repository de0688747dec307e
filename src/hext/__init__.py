"""hext: verification toolkit for higher extremal Kahler metrics on the
minimal ruled surface and Bando-Futaki invariants of projective hypersurfaces.

Three pillars:

  * profile_ode    - the momentum-profile boundary value problem: exact
                     coefficient algebra, adaptive integration, shooting on
                     the free parameter C, the exact m=1 certificate, and
                     the constant-lambda (hcscK) contradiction check; its
                     NUMERICAL names, served here too, load numpy on first
                     use, nothing else imports it, and nothing imports scipy;
  * graded_algebra - finite exterior algebra and truncated series rings used
                     as exact oracles for determinant and generating-series
                     identities;
  * chern_futaki   - Chern coefficient tables of degree-d hypersurfaces in
                     CP^n by three independent methods, plus the closed
                     Bando-Futaki formula and its check by equivariant
                     localization.
"""

from .chern_futaki import (
    AlphaTable,
    FutakiValue,
    alpha_closed,
    alpha_recursive,
    alpha_series,
    futaki_closed,
    futaki_localized,
)
from .errors import (
    EndpointSingularity,
    GeneratorMismatch,
    HextError,
    InvalidInput,
    NoBracket,
    NotIdempotentFamily,
    NotInvertible,
    PositivityLost,
    SeriesMismatch,
    StepFailure,
    TruncationMismatch,
)
from .graded_algebra import (
    GrassmannElement,
    TruncatedPoly,
    rank1_check,
    rank1_identities,
    scalar_projector_check,
)
from . import profile_ode
from .profile_ode import (
    CertificateM1,
    Claim,
    CoeffSet,
    LNConstants,
    certify_m1,
    coeffs_from_C,
    compute_LN,
    hcsck_coeffs,
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in profile_ode.NUMERICAL:
        return getattr(profile_ode, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
