"""numpy loads with the numerical names only and scipy never: the exact
commands run without numpy, the numerical ones without scipy, and the lazy
names resolve to one object from every package."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hext
from hext import profile_ode
from hext.profile_ode import defect_scan, integrate, shoot

SRC = Path(__file__).resolve().parents[1] / "src"

# every name hext.profile_ode imported eagerly before its numerical names
# became lazy, and still exports
PROFILE_ODE_NAMES = [
    "CertificateM1", "Claim", "certify_m1",
    "CoeffSet", "LNConstants", "coeffs_from_C", "compute_LN", "hcsck_coeffs",
    "MAX_SCAN_STEPS", "NonexistenceReport",
    "ProfileCurve", "ScanPoint", "ScanResult", "ShootResult", "Trajectory", "defect_scan",
    "hcsck_nonexistence", "integrate_v", "reconstruct_curve", "residual_check", "shoot",
]

# run in a fresh interpreter: this one has loaded numpy long ago; with
# "blocked" as its second argument scipy cannot be imported there at all
_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None  # import scipy now raises ImportError
import hext.cli

def loaded():
    return sorted({name.partition(".")[0] for name, module in sys.modules.items()
                   if module is not None} & {"numpy", "scipy"})

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return hext.cli.main(argv + ["--json"])

report = {"on_import": loaded()}
report["exact_codes"] = [run(argv) for argv in (
    ["certify"],
    ["alpha", "--n", "4", "--d", "2", "--method", "recursion"],
    ["alpha", "--n", "4", "--d", "2", "--method", "closed"],
    ["alpha", "--n", "4", "--d", "2", "--method", "series"],
    ["futaki", "--n", "4", "--d", "2", "--q", "1"],
    ["grassmann", "--k", "2"],
)]
report["after_exact"] = loaded()
report["nonexist_code"] = run(["nonexist", "--m", "1"])
report["after_nonexist"] = loaded()
report["numerical_codes"] = [run(argv) for argv in (
    ["shoot", "--m", "1"],
    ["scan", "--m", "2", "--c-min", "-10", "--c-max", "8"],
    ["nonexist", "--m", "3"],
)]
report["same_shoot"] = hext.shoot is hext.profile_ode.integrate.shoot
print(json.dumps(report))
"""


def _probe(scipy: str) -> dict:
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), scipy], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_exact_commands_run_without_numpy_or_scipy():
    report = _probe("available")
    assert report["on_import"] == []
    assert report["exact_codes"] == [0] * 6
    assert report["after_exact"] == []
    assert report["nonexist_code"] == 0
    assert report["after_nonexist"] == ["numpy"]
    assert report["same_shoot"] is True


def test_numerical_commands_run_with_scipy_blocked():
    report = _probe("blocked")
    assert report["exact_codes"] == [0] * 6
    assert report["nonexist_code"] == 0
    assert report["numerical_codes"] == [0] * 3
    assert report["after_nonexist"] == ["numpy"]


def test_every_old_name_resolves_to_one_object():
    assert shoot is integrate.shoot and defect_scan is integrate.defect_scan
    for name in PROFILE_ODE_NAMES:
        assert getattr(hext, name) is getattr(profile_ode, name), name
    for name in profile_ode.NUMERICAL:
        assert getattr(profile_ode, name) is getattr(integrate, name), name
    assert profile_ode.NUMERICAL <= set(PROFILE_ODE_NAMES)


def test_unknown_names_raise_attribute_error():
    for package in (hext, profile_ode):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from hext import no_such_name  # noqa: F401
