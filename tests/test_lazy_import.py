"""Each command loads the hext modules it runs and no other, numpy with the
numerical names only and scipy never: the exact commands run without numpy,
the numerical ones without scipy, and every public name resolves through
hext's table to one object, the one in its home module.  hext.profile_ode
holds modules only and serves no name."""
import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hext
from hext import defect_scan, profile_ode, shoot
from hext.profile_ode import integrate

SRC = Path(__file__).resolve().parents[1] / "src"

# every name homed in a module of hext.profile_ode, which that package
# exported while it imported .certificate and .coeffs eagerly
PROFILE_ODE_NAMES = [
    "CertificateM1", "Claim", "certify_m1",
    "CoeffSet", "LNConstants", "coeffs_from_C", "compute_LN", "hcsck_coeffs",
    "MAX_SCAN_STEPS", "NonexistenceReport",
    "ProfileCurve", "ScanPoint", "ScanResult", "ShootResult", "Trajectory", "defect_scan",
    "hcsck_nonexistence", "integrate_v", "reconstruct_curve", "residual_check", "shoot",
]
# every name hext exported while it imported its modules eagerly, and still
# exports
HEXT_NAMES = PROFILE_ODE_NAMES + [
    "AlphaTable", "FutakiValue",
    "alpha_closed", "alpha_recursive", "alpha_series", "futaki_closed", "futaki_localized",
    "GeneratorMismatch", "HextError", "InvalidInput", "NoBracket", "NotIdempotentFamily",
    "NotInvertible", "PositivityLost", "SeriesMismatch", "StepFailure", "TruncationMismatch",
    "GrassmannElement", "TruncatedPoly", "rank1_check", "rank1_identities", "scalar_projector_check",
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
    assert set(hext._HOMES) == set(HEXT_NAMES)
    names = dir(hext)
    for name, home in hext._HOMES.items():
        assert name in names, name
        module = importlib.import_module(home, hext.__name__)
        assert getattr(hext, name) is getattr(module, name), name
    star = {}
    exec("from hext import *", star)
    assert set(star) - {"__builtins__"} == set(hext._HOMES)


def test_profile_ode_serves_no_names():
    assert not hasattr(profile_ode, "__getattr__")
    public = [name for name in vars(profile_ode) if not name.startswith("_")]
    assert all(isinstance(getattr(profile_ode, name), types.ModuleType) for name in public), public
    with pytest.raises(ImportError):
        from hext.profile_ode import shoot  # noqa: F401, F811


def test_unknown_names_raise_attribute_error():
    for package in (hext, profile_ode):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from hext import no_such_name  # noqa: F401


# run in a fresh interpreter: import hext.cli, run the command given as JSON
# (no command for []), and print the hext modules then loaded
_MODULES_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import hext.cli
argv = json.loads(sys.argv[2])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert hext.cli.main(argv + ["--json"]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.partition(".")[0] == "hext")))
"""

_CLI = ["hext", "hext.cli", "hext.errors"]
_CERTIFY = ["hext.profile_ode", "hext.profile_ode.certificate", "hext.profile_ode.coeffs", "hext.ratpoly"]
_CHERN = ["hext.chern_futaki", "hext.graded_algebra"]
_NUMERICAL = ["hext.profile_ode", "hext.profile_ode.coeffs", "hext.profile_ode.integrate", "hext.ratpoly"]
_MODULE_SETS = [
    ([], []),
    (["certify"], _CERTIFY),
    (["grassmann", "--k", "2"], ["hext.graded_algebra"]),
    (["alpha", "--n", "4", "--d", "2", "--method", "series"], _CHERN),
    (["futaki", "--n", "4", "--d", "2", "--q", "1"], _CHERN),
    (["shoot", "--m", "1"], _NUMERICAL),
    (["scan", "--m", "2", "--c-min", "-10", "--c-max", "8", "--steps", "8"], _NUMERICAL),
    (["nonexist", "--m", "1"], _NUMERICAL),
]


@pytest.mark.parametrize("argv,modules", _MODULE_SETS, ids=[(argv or ["import"])[0] for argv, _ in _MODULE_SETS])
def test_each_command_loads_the_modules_it_runs(argv, modules):
    done = subprocess.run([sys.executable, "-c", _MODULES_PROBE, str(SRC), json.dumps(argv)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == sorted(_CLI + modules)


def test_importing_profile_ode_loads_none_of_its_modules():
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); import hext.profile_ode; "
             "print(json.dumps(sorted(n for n in sys.modules if n.partition('.')[0] in ('hext', 'numpy'))))")
    done = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["hext", "hext.profile_ode"]
