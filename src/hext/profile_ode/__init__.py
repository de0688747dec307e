"""Momentum-profile boundary value problem: exact coefficient algebra,
adaptive integration, parameter shooting, and the m = 1 certificate."""

from .certificate import CertificateM1, Claim, certify_m1
from .coeffs import (
    EPS_FLOOR,
    CoeffSet,
    KahlerClassIndex,
    LNConstants,
    ProfilePoly,
    admissible_C_max,
    coeffs_from_C,
    compute_LN,
    hcsck_coeffs,
)
from .integrate import (
    DEFAULT_CONFIG,
    MAX_SCAN_STEPS,
    IntegratorConfig,
    NonexistenceReport,
    ProfileCurve,
    ScanPoint,
    ScanResult,
    ShootResult,
    Trajectory,
    defect_scan,
    hcsck_nonexistence,
    integrate_v,
    reconstruct_curve,
    residual_check,
    shoot,
)
