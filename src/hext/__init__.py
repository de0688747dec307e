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

One loading rule: importing hext loads no other module of it.  Each public
name below has one home module, which the one loader's __getattr__ (also
profile_ode's) imports on first use and looks the name up in every time.
numpy is imported by profile_ode.integrate alone, and scipy by no module.
"""
import importlib

__version__ = "0.1.0"

# every public name, by its home module
_HOMES = {name: home for home, names in {
    ".chern_futaki": ("ALPHA_METHODS", "AlphaTable", "FutakiValue", "alpha_closed", "alpha_recursive",
                      "alpha_series", "futaki_closed", "futaki_localized"),
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


def _loader(namespace, homes):
    def __getattr__(name):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        return getattr(importlib.import_module(homes[name], namespace["__name__"]), name)
    return sorted(homes), __getattr__, lambda: sorted({*namespace, *homes})


__all__, __getattr__, __dir__ = _loader(globals(), _HOMES)
