"""Momentum-profile boundary value problem: exact coefficient algebra,
adaptive integration, parameter shooting, and the m = 1 certificate.  The
NUMERICAL names live in .integrate, which alone imports numpy (no module
imports scipy): __getattr__ loads it at their first use and looks them up
there every time."""

from .certificate import CertificateM1, Claim, certify_m1
from .coeffs import CoeffSet, LNConstants, coeffs_from_C, compute_LN, hcsck_coeffs

NUMERICAL = frozenset({
    "MAX_SCAN_STEPS", "NonexistenceReport",
    "ProfileCurve", "ScanPoint", "ScanResult", "ShootResult", "Trajectory", "defect_scan",
    "hcsck_nonexistence", "integrate_v", "reconstruct_curve", "residual_check", "shoot",
})


def __getattr__(name):
    if name in NUMERICAL:
        from . import integrate
        return getattr(integrate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
