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

One loading rule: importing hext loads no other module of it.  This package
is the one namespace that serves the public names: each name below has one
home module, which __getattr__ imports on the name's first use and looks the
name up in every time (hext.shoot is hext.profile_ode.integrate.shoot).
numpy is imported by profile_ode.integrate alone, and scipy by no module.
"""
import importlib

__version__ = "0.1.0"

# every public name, by its home module
_HOMES = {name: home for home, names in {
    ".chern_futaki": ("AlphaTable", "FutakiValue", "alpha_closed", "alpha_recursive", "alpha_series",
                      "futaki_closed", "futaki_localized"),
    ".errors": ("GeneratorMismatch", "HextError", "InvalidInput", "NoBracket", "NotIdempotentFamily",
                "NotInvertible", "PositivityLost", "SeriesMismatch", "StepFailure", "TruncationMismatch"),
    ".graded_algebra": ("GrassmannElement", "TruncatedPoly", "rank1_check", "rank1_identities",
                        "scalar_projector_check"),
    ".profile_ode.certificate": ("CertificateM1", "Claim", "certify_m1"),
    ".profile_ode.coeffs": ("CoeffSet", "LNConstants", "coeffs_from_C", "compute_LN", "hcsck_coeffs"),
    ".profile_ode.integrate": ("MAX_SCAN_STEPS", "NonexistenceReport", "ProfileCurve", "ScanPoint",
                               "ScanResult", "ShootResult", "Trajectory", "defect_scan",
                               "hcsck_nonexistence", "integrate_v", "reconstruct_curve",
                               "residual_check", "shoot"),
}.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_HOMES[name], __name__), name)


def __dir__():
    return sorted({*globals(), *_HOMES})
