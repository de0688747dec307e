"""hext: verification toolkit for higher extremal Kahler metrics on the
minimal ruled surface and Bando-Futaki invariants of projective hypersurfaces.

Three pillars:

  * profile_ode    - the momentum-profile boundary value problem: exact
                     coefficient algebra, adaptive integration, shooting on
                     the free parameter C, the exact m=1 certificate, and
                     the constant-lambda (hcscK) contradiction check;
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
    HypersurfaceParams,
    alpha_closed,
    alpha_recursive,
    alpha_series,
    futaki_closed,
    futaki_localized,
)
from .errors import (
    CertificateFailure,
    EndpointSingularity,
    GeneratorMismatch,
    HextError,
    NoBracket,
    NotIdempotentFamily,
    NotInvertible,
    PositivityLost,
    SeriesMismatch,
    StepFailure,
    TruncationMismatch,
)
from .graded_algebra import (
    AlgebraMatrix,
    GrassmannElement,
    TruncatedPoly,
    rank1_check,
    rank1_identities,
    scalar_projector_check,
)
from .profile_ode import (
    CertificateM1,
    CoeffSet,
    IntegratorConfig,
    KahlerClassIndex,
    LNConstants,
    NonexistenceReport,
    ProfileCurve,
    ProfilePoly,
    ScanResult,
    ShootResult,
    Trajectory,
    admissible_C_max,
    certify_m1,
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

__version__ = "0.1.0"
